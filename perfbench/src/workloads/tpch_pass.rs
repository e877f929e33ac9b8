//! `tpch_pass`: all 22 TPC-H queries on the MonetDB-like and
//! PostgreSQL-like profiles × {tuple, vec}, one boot each, machine B
//! os-default with 8 threads. Most host time goes to set-up (datagen,
//! boot) and to `nqp-engines` row interpretation; each query's
//! simulated stream is short.

use super::{expect_eq, Digest, JobOut, ProbeCounts, Workload, THREADS};
use crate::spans::Tracer;
use nqp_datagen::tpch::TpchData;
use nqp_engines::{DbSystem, Row, SystemKind, QUERY_COUNT};
use nqp_query::{EngineKind, WorkloadEnv};
use nqp_topology::machines;
use std::time::Instant;

/// TPC-H scale factor.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scale factor.
    pub sf: f64,
}

impl Scale {
    /// The benchmark's size.
    pub const BENCH: Scale = Scale { sf: 0.01 };
    /// A size for tests.
    pub const TINY: Scale = Scale { sf: 0.001 };
}

/// Booted systems over one generated database.
pub struct TpchPass {
    systems: Vec<(String, DbSystem)>,
}

/// Digest of a query's result rows.
fn rows_digest(rows: &[Row]) -> u64 {
    let mut d = Digest::default();
    for row in rows {
        d.num(row.len() as u64);
        for v in row {
            d.str(&format!("{v:?}"));
        }
    }
    d.value()
}

impl TpchPass {
    /// Generate the database from `seed` and boot the four systems.
    pub fn setup(seed: u64, scale: Scale, tracer: &Tracer) -> (Self, u64) {
        let data = tracer.span("datagen.generate", || TpchData::generate(scale.sf, seed));
        let mut systems = Vec::new();
        for kind in [SystemKind::MonetDbLike, SystemKind::PostgresLike] {
            for engine in [EngineKind::Tuple, EngineKind::Vectorized] {
                let env = WorkloadEnv::os_default(machines::machine_b())
                    .with_threads(THREADS)
                    .with_engine(engine);
                let db = tracer.span("engines.boot", || DbSystem::boot(kind, &env, &data));
                systems.push((format!("{}/{}", kind.label(), engine.as_str()), db));
            }
        }
        (TpchPass { systems }, data.total_rows() as u64)
    }
}

impl Workload for TpchPass {
    fn cells_per_rep(&self) -> usize {
        self.systems.len() * QUERY_COUNT
    }

    fn model_repeats(&self) -> bool {
        false
    }

    fn job(&mut self, tracer: &Tracer) -> JobOut {
        let mut out = JobOut::default();
        for (name, db) in &mut self.systems {
            for q in 1..=QUERY_COUNT {
                let cell = format!("{name}/q{q}");
                let before = db.counters();
                let t = Instant::now();
                let r = tracer.span("engines.query", || db.try_run(q));
                let o = match r {
                    Ok(o) => o,
                    Err(e) => {
                        out.cell(cell, t, Some(e.to_string()));
                        continue;
                    }
                };
                out.cell(cell.clone(), t, None);
                out.model_result(&cell, o.latency_cycles, &(db.counters() - before));
                out.count("engines.rows", o.rows.len() as f64);
                out.count("engines.latency_model_cycles", o.latency_cycles as f64);
                let digest = (rows_digest(&o.rows), o.rows.len() as u64);
                let key = format!("q{q}");
                match out.answers.get(&key) {
                    None => {
                        out.answers.insert(key, digest);
                    }
                    Some(&first) => expect_eq(
                        &mut out.mismatches,
                        &format!("{cell} (row digest, rows) against the first system's Q{q}"),
                        digest,
                        first,
                    ),
                }
            }
        }
        out
    }

    fn verify(&mut self, _first: &JobOut) -> (u64, Vec<String>) {
        // The cross-profile, cross-engine row check runs inside every
        // repetition; there is no host-side TPC-H oracle to add here.
        (0, Vec::new())
    }

    fn probe(&mut self, _tracer: &Tracer, _first: &JobOut) -> (ProbeCounts, Vec<String>) {
        (ProbeCounts::new(), Vec::new())
    }
}
