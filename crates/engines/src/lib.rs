//! Workload W5: a mini relational engine running all 22 TPC-H queries
//! under five *system architecture profiles* that mirror the databases
//! the paper evaluates (MonetDB, PostgreSQL, MySQL, DBMSx, Quickstep).
//!
//! # Execution & cost model
//!
//! Query *results* are computed exactly, on host-side data, so every
//! profile must return identical rows (a strong cross-check used by the
//! tests). Query *costs* are charged to the NUMA simulator through a
//! shadow of each physical actor:
//!
//! * base table columns/rows live in mapped simulated memory; scans
//!   touch them with the layout's real stride (row stores drag whole
//!   tuples through the cache, column stores only the used columns);
//! * hash joins and aggregations touch a shadow table region and
//!   allocate entries from the profile's [`SimHeap`] allocator;
//! * materialising engines (MonetDB-style) write out intermediate
//!   results, which is what makes them allocator-sensitive (Figure 9);
//! * parallelism follows the profile: partitioned scans across worker
//!   threads, pipeline-breaking builds on thread 0.
//!
//! This layering (exact values, shadowed costs) is documented in
//! DESIGN.md; workloads W1–W4 are fully simulator-resident instead.
//!
//! Plans name tables by [`Table`] and resolve every column they read to
//! a [`Col`] handle before their scans run, so an unknown column is a
//! typed [`EngineError`] at plan time and a cell read is one address
//! computation. Every region runs on the simulator's fallible entry
//! points: faults surface as [`EngineError::Sim`], never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod exec;
mod profiles;
mod queries;
mod storage;
mod value;

pub use error::EngineError;
pub use exec::{QueryCtx, ShadowHash};
pub use profiles::{EngineProfile, Layout, SystemKind};
pub use queries::{query_name, run_query, try_run_query, QUERY_COUNT};
pub use storage::{Col, Table, TableShadow, TpchDb};
pub use value::{Row, Value};

use nqp_query::WorkloadEnv;
use nqp_sim::NumaSim;
use nqp_storage::SimHeap;

/// Outcome of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Simulated cycles of the (warm) query execution.
    pub latency_cycles: u64,
    /// The result rows (identical across profiles by construction).
    pub rows: Vec<Row>,
}

/// A database system instance: one engine profile bound to one simulated
/// machine environment, with TPC-H data loaded.
pub struct DbSystem {
    sim: NumaSim,
    heap: SimHeap,
    db: TpchDb,
    profile: EngineProfile,
    threads: usize,
    engine: nqp_query::EngineKind,
}

impl DbSystem {
    /// Boot `system` under `env` and load the given TPC-H data into
    /// simulated storage (charged, but not part of query latencies —
    /// the paper measures warm runs).
    ///
    /// # Panics
    /// Panics if the load faults; use [`DbSystem::try_boot`] to handle
    /// simulation faults.
    pub fn boot(system: SystemKind, env: &WorkloadEnv, data: &nqp_datagen::tpch::TpchData) -> Self {
        Self::try_boot(system, env, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DbSystem::boot`].
    pub fn try_boot(
        system: SystemKind,
        env: &WorkloadEnv,
        data: &nqp_datagen::tpch::TpchData,
    ) -> Result<Self, EngineError> {
        let profile = system.profile();
        // A database server is long-running: its scheduler placement has
        // settled by the time queries are measured.
        let mut sim = NumaSim::new(env.sim.clone().with_settled_scheduler(true));
        let mut heap = SimHeap::new(env.allocator, &mut sim);
        let threads = profile.worker_threads(env.threads);
        let db = TpchDb::load(&mut sim, &mut heap, data, profile.layout, threads)?;
        Ok(DbSystem { sim, heap, db, profile, threads, engine: env.engine })
    }

    /// Run TPC-H query `qnum` (1–22): one untimed cold run has already
    /// happened implicitly via the load; this measures a warm run.
    ///
    /// # Panics
    /// Panics on any [`EngineError`]; use [`DbSystem::try_run`] to
    /// handle unknown query numbers or simulation faults.
    pub fn run(&mut self, qnum: usize) -> QueryOutcome {
        self.try_run(qnum).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`DbSystem::run`].
    pub fn try_run(&mut self, qnum: usize) -> Result<QueryOutcome, EngineError> {
        let before = self.sim.now_cycles();
        let workers = self.profile.worker_threads_for(qnum, self.threads);
        let rows = try_run_query(
            qnum,
            &mut self.sim,
            &mut self.heap,
            &self.db,
            &self.profile,
            workers,
            self.engine,
        )?;
        Ok(QueryOutcome { latency_cycles: self.sim.now_cycles() - before, rows })
    }

    /// Cumulative simulator counters (for diagnostics).
    pub fn counters(&self) -> nqp_sim::Counters {
        self.sim.counters()
    }

    /// The profile this system runs.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Worker threads the profile chose for this machine.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_datagen::tpch::TpchData;
    use nqp_topology::machines;

    #[test]
    fn all_profiles_agree_on_every_query() {
        let data = TpchData::generate(0.002, 11);
        let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        let mut reference: Vec<Vec<Row>> = Vec::new();
        for (si, system) in SystemKind::ALL.into_iter().enumerate() {
            let mut db = DbSystem::boot(system, &env, &data);
            for q in 1..=QUERY_COUNT {
                let out = db.run(q);
                if si == 0 {
                    reference.push(out.rows);
                } else {
                    assert_eq!(
                        out.rows,
                        reference[q - 1],
                        "{system:?} diverged from {:?} on Q{q}",
                        SystemKind::ALL[0]
                    );
                }
                assert!(out.latency_cycles > 0, "{system:?} Q{q} zero latency");
            }
        }
    }

    #[test]
    fn queries_are_deterministic() {
        let data = TpchData::generate(0.002, 12);
        let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(2);
        let run = || {
            let mut db = DbSystem::boot(SystemKind::MonetDbLike, &env, &data);
            (1..=QUERY_COUNT).map(|q| db.run(q).latency_cycles).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vectorized_engine_returns_identical_rows() {
        // The tuple path is the differential oracle: the vectorized
        // profile runner must produce the same rows on every query, and
        // must be strictly cheaper (the amortised per-row overhead).
        let data = TpchData::generate(0.002, 13);
        let tuple_env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        let vec_env = tuple_env.clone().with_engine(nqp_query::EngineKind::Vectorized);
        let mut t = DbSystem::boot(SystemKind::MonetDbLike, &tuple_env, &data);
        let mut v = DbSystem::boot(SystemKind::MonetDbLike, &vec_env, &data);
        let mut tuple_total = 0u64;
        let mut vec_total = 0u64;
        for q in 1..=QUERY_COUNT {
            let a = t.run(q);
            let b = v.run(q);
            assert_eq!(a.rows, b.rows, "engines diverged on Q{q}");
            tuple_total += a.latency_cycles;
            vec_total += b.latency_cycles;
        }
        assert!(
            vec_total < tuple_total,
            "vectorized ({vec_total}) should beat tuple ({tuple_total})"
        );
    }

    /// One digest of the whole W5 model output at sf 0.002 on machine B
    /// os-default: every query's latency, the cumulative counters after
    /// it (boot included), and its rows, over 5 profiles × 2 engines.
    /// Any change to the pinned value is a declared model move (record
    /// it in EXPERIMENTS.md); host-side refactors must leave it alone.
    #[test]
    fn w5_model_output_is_pinned() {
        use std::hash::Hasher;
        let data = TpchData::generate(0.002, 1);
        let mut h = crate::exec::DetHasher::default();
        for system in SystemKind::ALL {
            for engine in [nqp_query::EngineKind::Tuple, nqp_query::EngineKind::Vectorized] {
                let env = WorkloadEnv::os_default(machines::machine_b())
                    .with_threads(8)
                    .with_engine(engine);
                let mut db = DbSystem::boot(system, &env, &data);
                for q in 1..=QUERY_COUNT {
                    let out = db.run(q);
                    h.write_u64(out.latency_cycles);
                    h.write(format!("{:?}", db.counters()).as_bytes());
                    h.write(format!("{:?}", out.rows).as_bytes());
                }
            }
        }
        assert_eq!(h.finish(), 5_139_737_261_680_276_884);
    }

    #[test]
    fn profile_runs_are_byte_identical_at_every_shard_count() {
        // The TPC-H loads shard across host threads; latencies and rows
        // must not move with the shard count (the PR-8 invariant,
        // extended into the engine-profile runners).
        let data = TpchData::generate(0.002, 14);
        let run = |shards: usize, engine: nqp_query::EngineKind| {
            let mut env = WorkloadEnv::tuned(machines::machine_b())
                .with_threads(4)
                .with_engine(engine);
            env.sim = env.sim.with_shards(shards);
            let mut db = DbSystem::boot(SystemKind::QuickstepLike, &env, &data);
            (1..=QUERY_COUNT)
                .map(|q| {
                    let out = db.run(q);
                    (out.latency_cycles, out.rows)
                })
                .collect::<Vec<_>>()
        };
        for engine in [nqp_query::EngineKind::Tuple, nqp_query::EngineKind::Vectorized] {
            let one = run(1, engine);
            assert_eq!(one, run(2, engine), "{engine:?} diverged at 2 shards");
            assert_eq!(one, run(4, engine), "{engine:?} diverged at 4 shards");
        }
    }
}
