//! The four workloads. Each owns its generated inputs (made in
//! `setup` from the benchmark seed, so the program under test receives
//! only the inputs) and runs one fixed job per repetition.

use crate::spans::Tracer;
use nqp_core::TuningConfig;
use nqp_datagen::{Record, Tuple};
use nqp_query::{try_load_columns, try_load_tuples, EngineKind, WorkloadEnv};
use nqp_sim::{Counters, NumaSim, SimResult};
use nqp_topology::{machines, MachineSpec};
use std::collections::BTreeMap;
use std::time::Instant;

pub mod agg_write;
pub mod join_read;
pub mod study_harness;
pub mod tpch_pass;

/// Simulated worker threads of every machine-B cell.
pub const THREADS: usize = 8;

/// FNV-1a 64 over a stream of integers and strings: the model digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a number in.
    pub fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a string in (length-prefixed, so `ab`+`c` differs from `a`+`bc`).
    pub fn str(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Fold every counter in.
    pub fn counters(&mut self, c: &Counters) {
        for (_, v) in c.fields() {
            self.num(v);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The model digest of one cell: its label, cycles and counters.
pub fn cell_digest(label: &str, cycles: u64, counters: &Counters) -> u64 {
    let mut d = Digest::default();
    d.str(label);
    d.num(cycles);
    d.counters(counters);
    d.value()
}

/// One operation of a job: a cell, a query or a serve cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// What ran, e.g. `tuned/vec/w3`.
    pub name: String,
    /// Host milliseconds the call took.
    pub host_ms: f64,
    /// The typed error the call returned, if any.
    pub error: Option<String>,
}

/// Everything one repetition of a job produced.
#[derive(Debug, Default)]
pub struct JobOut {
    /// Operations in run order.
    pub cells: Vec<Cell>,
    /// Output-check failures (each one is a failed operation).
    pub mismatches: Vec<String>,
    /// Digest of every model-cycle output and model count.
    pub model: Digest,
    /// Per-cell model digests, in cell order (label, cycles, counters).
    pub cell_models: Vec<u64>,
    /// Query answers by part (`w1`, `q6`, ...): (checksum, groups),
    /// (matches, checksum) or (row digest, rows).
    pub answers: BTreeMap<String, (u64, u64)>,
    /// Simulator counters summed over the job's query phases.
    pub counters: Counters,
    /// Model cycles summed over the job's cells.
    pub model_cycles: u64,
    /// Per-layer model counts (`query.groups`, `serve.arrivals`, ...).
    pub counts: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed once per run (serve percentiles).
    pub notes: Vec<String>,
}

impl JobOut {
    /// Simulated cache-line accesses: L1 hits + LLC hits + LLC misses.
    pub fn lines(&self) -> u64 {
        self.counters.l1_hits + self.counters.cache_hits + self.counters.cache_misses
    }

    /// Add to a per-layer count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Record a model result: cycles and counters go into the model
    /// digest and the simulator totals.
    pub fn model_result(&mut self, label: &str, cycles: u64, counters: &Counters) {
        let cell = cell_digest(label, cycles, counters);
        self.cell_models.push(cell);
        self.model.num(cell);
        self.counters += *counters;
        self.model_cycles += cycles;
    }

    /// Record the outcome of one timed call.
    pub fn cell(&mut self, name: String, started: Instant, error: Option<String>) {
        let host_ms = started.elapsed().as_secs_f64() * 1e3;
        self.cells.push(Cell {
            name,
            host_ms,
            error,
        });
    }

    /// Failed operations: typed errors plus output mismatches.
    pub fn failed(&self) -> u64 {
        (self.cells.iter().filter(|c| c.error.is_some()).count() + self.mismatches.len()) as u64
    }
}

/// Per-layer numbers a traced run's probe pass adds (counts only; its
/// host times come from the spans).
pub type ProbeCounts = BTreeMap<&'static str, f64>;

/// A benchmark workload.
pub trait Workload {
    /// Cells per repetition of the job (fixed by the workload's grid).
    fn cells_per_rep(&self) -> usize;

    /// One repetition of the job. Spans go to `tracer` when enabled.
    fn job(&mut self, tracer: &Tracer) -> JobOut;

    /// Whether every repetition repeats the first one's model digest.
    /// False where simulated state carries from one repetition to the
    /// next (a booted database warms up).
    fn model_repeats(&self) -> bool {
        true
    }

    /// Checks against independent oracles (host-side reference
    /// answers, `shards=1` re-runs), run once after the timed loop.
    /// Returns `(operations attempted, failure descriptions)`.
    fn verify(&mut self, first: &JobOut) -> (u64, Vec<String>);

    /// Extra traced calls that split layers apart: separate table
    /// loads, a traced cell whose simulator trace is exported.
    fn probe(&mut self, tracer: &Tracer, first: &JobOut) -> (ProbeCounts, Vec<String>);
}

/// The two presets every grid starts from, on `machine`.
pub fn presets(machine: &MachineSpec) -> [TuningConfig; 2] {
    [
        TuningConfig::os_default(machine.clone()),
        TuningConfig::tuned(machine.clone()),
    ]
}

/// Both presets on machine B under each engine (`os-default/tuple`,
/// `os-default/vec`, `tuned/tuple`, `tuned/vec`), sharded over `shards`
/// host threads.
pub fn engine_grid(shards: usize) -> Vec<TuningConfig> {
    let mut out = Vec::new();
    for preset in presets(&machines::machine_b()) {
        for engine in [EngineKind::Tuple, EngineKind::Vectorized] {
            let name = format!("{}/{}", preset.name, engine.as_str());
            let mut cfg = preset.clone().with_engine(engine).named(name);
            cfg.sim = cfg.sim.with_shards(shards);
            out.push(cfg);
        }
    }
    out
}

/// A join relation as loader records (key, payload).
pub fn join_records(data: &[Tuple]) -> Vec<Record> {
    data.iter()
        .map(|t| Record {
            key: t.key,
            val: t.payload,
        })
        .collect()
}

/// The table load an operator call makes under `env` (rows for the
/// tuple engine, columns for the vec engine), timed on its own as a
/// `storage.load` span.
pub fn probe_load(tracer: &Tracer, env: &WorkloadEnv, records: &[Record]) -> SimResult<()> {
    let mut sim = NumaSim::new(env.sim.clone());
    tracer.span("storage.load", || match env.engine {
        EngineKind::Tuple => try_load_tuples(&mut sim, records, env.threads).map(drop),
        EngineKind::Vectorized => try_load_columns(&mut sim, records, env.threads).map(drop),
    })
}

/// `"{what} differs: {a} vs {b}"` when `a != b`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(out: &mut Vec<String>, what: &str, a: T, b: T) {
    if a != b {
        out.push(format!("{what} differs: {a:?} vs {b:?}"));
    }
}
