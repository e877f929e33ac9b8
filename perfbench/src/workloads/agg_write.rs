//! `agg_write`: W1 holistic aggregation on machine B, {os-default,
//! tuned} × {tuple, vec}. Write-heavy: hash-table read-modify-write
//! upserts, one allocation per record and AutoNUMA page migrations on
//! the tuple cells; the vec cells bypass the hash table and allocators.

use super::{
    cell_digest, engine_grid, expect_eq, probe_load, JobOut, ProbeCounts, Workload, THREADS,
};
use crate::spans::Tracer;
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Record};
use nqp_query::{reference_checksum, try_run_aggregation_on, AggConfig};
use nqp_sim::TraceConfig;
use std::time::Instant;

/// Input size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records.
    pub n: usize,
    /// Distinct group keys.
    pub card: u64,
}

impl Scale {
    /// The benchmark's size.
    pub const BENCH: Scale = Scale {
        n: 300_000,
        card: 30_000,
    };
    /// A size for tests.
    pub const TINY: Scale = Scale {
        n: 4_000,
        card: 400,
    };
}

/// Generated inputs and the grid.
pub struct AggWrite {
    acfg: AggConfig,
    records: Vec<Record>,
    cells: Vec<TuningConfig>,
}

impl AggWrite {
    /// Generate the records from `seed`.
    pub fn setup(seed: u64, scale: Scale, tracer: &Tracer) -> (Self, u64) {
        let acfg = AggConfig::w1(scale.n, scale.card, seed);
        let records = tracer.span("datagen.generate", || {
            generate(acfg.dataset, acfg.n, acfg.cardinality, seed)
        });
        let rows = records.len() as u64;
        (
            AggWrite {
                acfg,
                records,
                cells: engine_grid(1),
            },
            rows,
        )
    }
}

impl Workload for AggWrite {
    fn cells_per_rep(&self) -> usize {
        self.cells.len()
    }

    fn job(&mut self, tracer: &Tracer) -> JobOut {
        let mut out = JobOut::default();
        let mut answer: Option<(u64, u64)> = None;
        for cfg in &self.cells {
            let env = cfg.env(THREADS);
            let t = Instant::now();
            let r = tracer.span("query.op", || {
                try_run_aggregation_on(&env, &self.acfg, &self.records)
            });
            match r {
                Ok(o) => {
                    out.cell(cfg.name.clone(), t, None);
                    out.model_result(&cfg.name, o.exec_cycles, &o.counters);
                    out.model.num(o.load_cycles);
                    out.count("storage.load_model_cycles", o.load_cycles as f64);
                    let got = (o.checksum, o.groups);
                    match answer {
                        None => {
                            answer = Some(got);
                            out.answers.insert("w1".to_string(), got);
                            out.count("query.groups", o.groups as f64);
                        }
                        Some(first) => expect_eq(
                            &mut out.mismatches,
                            &format!(
                                "{} (checksum, groups) against {}",
                                cfg.name, self.cells[0].name
                            ),
                            got,
                            first,
                        ),
                    }
                }
                Err(e) => out.cell(cfg.name.clone(), t, Some(e.to_string())),
            }
        }
        out
    }

    fn verify(&mut self, first: &JobOut) -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        expect_eq(
            &mut bad,
            "W1 answer against the host reference",
            first.answers.get("w1").copied(),
            Some(reference_checksum(&self.records, self.acfg.kind)),
        );
        (1, bad)
    }

    fn probe(&mut self, tracer: &Tracer, first: &JobOut) -> (ProbeCounts, Vec<String>) {
        let mut bad = Vec::new();
        // The load each operator call performs, timed on its own.
        for cfg in &self.cells {
            if let Err(e) = probe_load(tracer, &cfg.env(THREADS), &self.records) {
                bad.push(format!("{} probe load: {e}", cfg.name));
            }
        }
        // The first cell again with the simulator trace on: tracing
        // charges no cycles, so its model output must not move.
        let mut counts = ProbeCounts::new();
        let mut cfg = self.cells[0].clone();
        cfg.sim = cfg
            .sim
            .with_trace(TraceConfig::default().with_label(&cfg.name));
        match try_run_aggregation_on(&cfg.env(THREADS), &self.acfg, &self.records) {
            Ok(o) => {
                expect_eq(
                    &mut bad,
                    "model output with the simulator trace on",
                    Some(cell_digest(&cfg.name, o.exec_cycles, &o.counters)),
                    first.cell_models.first().copied(),
                );
                if let Some(log) = o.trace {
                    counts.insert(
                        "trace.events",
                        crate::probes::export(tracer, &cfg.name, &log),
                    );
                }
            }
            Err(e) => bad.push(format!("{} traced probe: {e}", cfg.name)),
        }
        (counts, bad)
    }
}
