//! `join_read`: W3 hash join plus W4 index nested-loop join on machine
//! B, {os-default, tuned} × {tuple, vec}, every cell at `shards=2`.
//! Read-heavy: probes, TLB reach, remote reads and the sharded overlay
//! merge, with almost no allocation.

use super::{
    cell_digest, engine_grid, expect_eq, join_records, probe_load, JobOut, ProbeCounts, Workload,
    THREADS,
};
use crate::spans::Tracer;
use nqp_core::TuningConfig;
use nqp_datagen::JoinDataset;
use nqp_indexes::IndexKind;
use nqp_query::{reference_join, try_run_hash_join_on, try_run_inl_join_on};
use nqp_sim::TraceConfig;
use std::time::Instant;

/// Input sizes (build-side tuples; the probe side is 16×).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// W3 build relation.
    pub w3_n: usize,
    /// W4 build relation (indexed).
    pub w4_n: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const BENCH: Scale = Scale {
        w3_n: 40_000,
        w4_n: 8_000,
    };
    /// A size for tests.
    pub const TINY: Scale = Scale {
        w3_n: 1_000,
        w4_n: 500,
    };
}

/// Host threads each cell's simulated workers are sharded over.
pub const SHARDS: usize = 2;

/// Generated inputs and the grid.
pub struct JoinRead {
    w3: JoinDataset,
    w4: JoinDataset,
    configs: Vec<TuningConfig>,
}

impl JoinRead {
    /// Generate both join datasets from `seed`.
    pub fn setup(seed: u64, scale: Scale, tracer: &Tracer) -> (Self, u64) {
        let (w3, w4) = tracer.span("datagen.generate", || {
            (
                JoinDataset::generate(scale.w3_n, seed),
                JoinDataset::generate(scale.w4_n, seed ^ 4),
            )
        });
        let rows = (w3.r.len() + w3.s.len() + w4.r.len() + w4.s.len()) as u64;
        (
            JoinRead {
                w3,
                w4,
                configs: engine_grid(SHARDS),
            },
            rows,
        )
    }

    /// Every cell once under `configs`.
    fn run(&self, configs: &[TuningConfig], tracer: &Tracer) -> JobOut {
        let mut out = JobOut::default();
        let mut answers: [Option<(u64, u64)>; 2] = [None, None];
        for (which, span) in [(0usize, "query.op"), (1, "indexes.inl")] {
            for cfg in configs {
                let env = cfg.env(THREADS);
                let name = format!("{}/{}", cfg.name, ["w3", "w4"][which]);
                let t = Instant::now();
                let r = tracer.span(span, || {
                    if which == 0 {
                        try_run_hash_join_on(&env, &self.w3).map(|o| {
                            let answer = (o.matches, o.checksum);
                            (
                                o.build_cycles,
                                o.probe_cycles,
                                o.load_cycles,
                                answer,
                                o.counters,
                            )
                        })
                    } else {
                        try_run_inl_join_on(&env, IndexKind::BPlusTree, &self.w4).map(|o| {
                            (
                                o.build_cycles,
                                o.join_cycles,
                                0,
                                (o.matches, o.checksum),
                                o.counters,
                            )
                        })
                    }
                });
                let (build, probe, load, answer, counters) = match r {
                    Ok(v) => v,
                    Err(e) => {
                        out.cell(name, t, Some(e.to_string()));
                        continue;
                    }
                };
                out.cell(name.clone(), t, None);
                out.model_result(&name, build + probe, &counters);
                out.model.num(build);
                out.model.num(load);
                if which == 0 {
                    out.count("query.build_model_cycles", build as f64);
                    out.count("query.probe_model_cycles", probe as f64);
                    out.count("storage.load_model_cycles", load as f64);
                } else {
                    out.count("indexes.join_model_cycles", probe as f64);
                }
                match answers[which] {
                    None => {
                        answers[which] = Some(answer);
                        out.answers.insert(["w3", "w4"][which].to_string(), answer);
                        if which == 0 {
                            out.count("query.matches", answer.0 as f64);
                        }
                    }
                    Some(first) => expect_eq(
                        &mut out.mismatches,
                        &format!("{name} (matches, checksum) against the first config"),
                        answer,
                        first,
                    ),
                }
            }
        }
        out
    }
}

impl Workload for JoinRead {
    fn cells_per_rep(&self) -> usize {
        self.configs.len() * 2
    }

    fn job(&mut self, tracer: &Tracer) -> JobOut {
        self.run(&self.configs, tracer)
    }

    fn verify(&mut self, first: &JobOut) -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        for (key, data) in [("w3", &self.w3), ("w4", &self.w4)] {
            expect_eq(
                &mut bad,
                &format!("{key} answer against the host reference"),
                first.answers.get(key).copied(),
                Some(reference_join(data)),
            );
        }
        // The sharded cells must produce the model output of shards=1.
        let serial = self.run(&engine_grid(1), &Tracer::new(false, 0));
        bad.extend(serial.mismatches.iter().cloned());
        for c in serial.cells.iter().filter(|c| c.error.is_some()) {
            bad.push(format!(
                "{} at shards=1: {}",
                c.name,
                c.error.as_deref().unwrap_or("")
            ));
        }
        expect_eq(
            &mut bad,
            &format!("per-cell model digests at shards={SHARDS} against shards=1"),
            &first.cell_models,
            &serial.cell_models,
        );
        (1 + serial.cells.len() as u64, bad)
    }

    fn probe(&mut self, tracer: &Tracer, first: &JobOut) -> (ProbeCounts, Vec<String>) {
        let mut bad = Vec::new();
        // The loads inside the W3 operator calls (both relations), timed
        // on their own.
        let (r, s) = (join_records(&self.w3.r), join_records(&self.w3.s));
        for cfg in &self.configs {
            for rel in [&r, &s] {
                if let Err(e) = probe_load(tracer, &cfg.env(THREADS), rel) {
                    bad.push(format!("{} probe load: {e}", cfg.name));
                }
            }
        }
        let mut counts = ProbeCounts::new();
        let mut cfg = self.configs[0].clone();
        let label = format!("{}/w3", cfg.name);
        cfg.sim = cfg
            .sim
            .with_trace(TraceConfig::default().with_label(&label));
        match try_run_hash_join_on(&cfg.env(THREADS), &self.w3) {
            Ok(o) => {
                expect_eq(
                    &mut bad,
                    "model output with the simulator trace on",
                    Some(cell_digest(
                        &label,
                        o.build_cycles + o.probe_cycles,
                        &o.counters,
                    )),
                    first.cell_models.first().copied(),
                );
                if let Some(log) = o.trace {
                    counts.insert("trace.events", crate::probes::export(tracer, &label, &log));
                }
            }
            Err(e) => bad.push(format!("{label} traced probe: {e}")),
        }
        (counts, bad)
    }
}
