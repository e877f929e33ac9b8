//! `study_harness`: many small cells through the study's harness
//! crates. A journaled `sweep_parallel` (`jobs=2`) over the small W1
//! grid, the `wshift` online-advisor sweep on machine S, the
//! tier-crossed W3 sweep on `machine_b_cxl`, and the serve burst grid
//! through `run_cells`. Per-cell harness cost dominates: the `nqp-core`
//! executor and journal, `nqp-serve`, `nqp-advisor` and `nqp-tier`.

use super::{
    expect_eq, join_records, presets, probe_load, Cell, JobOut, ProbeCounts, Workload, THREADS,
};
use crate::spans::Tracer;
use crate::stats::{nearest_rank, TAIL_MIN_BEYOND};
use nqp_advisor::ControllerConfig;
use nqp_core::journal::{grid_fingerprint, JournalWriter};
use nqp_core::runner::{sweep_supervised, SupervisorPolicy, TrialMeasurement, TrialRecord};
use nqp_core::{sweep_parallel, AdvisorMode, TuningConfig};
use nqp_datagen::{generate, JoinDataset, Record};
use nqp_query::{
    reference_checksum, reference_join, try_run_aggregation_on, try_run_hash_join_on,
    try_run_phase_shift, AggConfig, PhaseShiftConfig, WorkloadEnv,
};
use nqp_serve::arrival::parse_milli;
use nqp_serve::{
    run_cells, ArrivalSpec, CellInput, CellStats, ClassProfile, ServeAdvisor, ServeSpec,
};
use nqp_sim::{Counters, MemPolicy, SimError, SimResult, TraceConfig, TraceLog};
use nqp_tier::TierSpec;
use nqp_topology::machines;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Grid sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// W1 records of the journaled sweep.
    pub w1_n: usize,
    /// W1 group keys of the journaled sweep.
    pub w1_card: u64,
    /// Trials per configuration in the W1 and wshift sweeps.
    pub trials: usize,
    /// W3 build tuples of the tier sweep.
    pub tier_n: usize,
    /// Serve run length, Mcycles.
    pub serve_mcycles: u64,
    /// Records per serve query class (the calibration runs).
    pub serve_n: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const BENCH: Scale = Scale {
        w1_n: 20_000,
        w1_card: 2_000,
        trials: 2,
        tier_n: 10_000,
        serve_mcycles: 40,
        serve_n: 8_000,
    };
    /// A size for tests.
    pub const TINY: Scale = Scale {
        w1_n: 2_000,
        w1_card: 200,
        trials: 2,
        tier_n: 1_000,
        serve_mcycles: 10,
        serve_n: 1_000,
    };
}

/// Distinguishes the journals of set-ups within one process.
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

/// Jobs of the journaled W1 sweep.
const JOBS: usize = 2;
/// Simulated threads of the wshift sweep on machine S.
const SHIFT_THREADS: usize = 4;

/// Generated inputs, grids and calibrated serve profiles.
pub struct StudyHarness {
    scale: Scale,
    w1: AggConfig,
    w1_records: Vec<Record>,
    w1_configs: Vec<TuningConfig>,
    shift: PhaseShiftConfig,
    shift_configs: Vec<TuningConfig>,
    tier_data: JoinDataset,
    tier_configs: Vec<TuningConfig>,
    serve: ServeGrid,
    journal: PathBuf,
}

/// Serve's phase plan from a traced calibration run: top-level model
/// spans except `load`, which serve sessions never pay.
fn phases(trace: Option<TraceLog>, total_cycles: u64) -> Vec<(String, u64)> {
    let spans: Vec<(String, u64)> = trace
        .iter()
        .flat_map(|log| log.spans().iter())
        .filter(|s| s.depth == 0 && s.name != "load")
        .map(|s| (s.name.clone(), (s.end_cycles - s.begin_cycles).max(1)))
        .collect();
    if spans.is_empty() {
        vec![("run".to_string(), total_cycles.max(1))]
    } else {
        spans
    }
}

/// The wshift contenders: both presets, then the tuned preset pinned to
/// First Touch and handed to the online controller or to AutoNUMA.
fn shift_configs() -> Vec<TuningConfig> {
    let [os, tuned] = presets(&machines::numa_small());
    let pinned = tuned.clone().with_policy(MemPolicy::FirstTouch);
    vec![
        os,
        tuned,
        pinned
            .clone()
            .with_autonuma(false)
            .with_advisor(AdvisorMode::Online(ControllerConfig::default()))
            .named("online"),
        pinned.with_autonuma(true).named("autonuma"),
    ]
}

/// Both presets on `machine_b_cxl` crossed with three tiering policies.
fn tier_configs() -> SimResult<Vec<TuningConfig>> {
    let tiers = [
        TierSpec::NONE,
        TierSpec::parse("lru-epoch")?,
        TierSpec::parse("hot-watermark")?,
    ];
    let mut out = Vec::new();
    for preset in presets(&machines::machine_b_cxl()) {
        for t in tiers {
            out.push(if t.is_none() {
                preset.clone()
            } else {
                let name = format!("{} tier={}", preset.name, t.label());
                preset.clone().with_tier(t).named(name)
            });
        }
    }
    Ok(out)
}

/// What one sweep's cells report back from the executor's threads.
#[derive(Default)]
struct Harvest {
    cells: Vec<Cell>,
    counters: Counters,
    cycles: u64,
    load_cycles: u64,
    answers: BTreeSet<(u64, u64)>,
}

impl Harvest {
    fn take(self, out: &mut JobOut, what: &str) -> (u64, u64) {
        out.cells.extend(self.cells);
        out.counters += self.counters;
        out.model_cycles += self.cycles;
        out.model.counters(&self.counters);
        out.model.num(self.load_cycles);
        out.count("storage.load_model_cycles", self.load_cycles as f64);
        if self.answers.len() > 1 {
            out.mismatches
                .push(format!("{what} cells disagree: {:?}", self.answers));
        }
        let answer = self.answers.first().copied().unwrap_or_default();
        out.answers.insert(what.to_string(), answer);
        answer
    }
}

/// The outputs of one sweep cell the harvest keeps.
struct Fields {
    cycles: u64,
    load_cycles: u64,
    counters: Counters,
    answer: (u64, u64),
}

/// Run one sweep cell: time it, span it, and harvest its outputs.
fn harvest_cell(
    harvest: &Mutex<Harvest>,
    tracer: &Tracer,
    parent: Option<usize>,
    name: String,
    run: impl FnOnce() -> SimResult<Fields>,
) -> SimResult<TrialMeasurement> {
    let t = Instant::now();
    let r = tracer.span_under(parent, "query.op", run);
    let host_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut h = harvest
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let error = r.as_ref().err().map(ToString::to_string);
    h.cells.push(Cell {
        name,
        host_ms,
        error,
    });
    let f = r?;
    h.counters += f.counters;
    h.cycles += f.cycles;
    h.load_cycles += f.load_cycles;
    h.answers.insert(f.answer);
    Ok(TrialMeasurement {
        cycles: f.cycles,
        degraded: false,
        evacuated_pages: 0,
    })
}

/// A serial supervised sweep of `configs`, each cell running `run`.
fn serial_sweep(
    tracer: &Tracer,
    out: &mut JobOut,
    what: &str,
    configs: &[TuningConfig],
    threads: usize,
    trials: usize,
    run: impl Fn(&WorkloadEnv) -> SimResult<Fields>,
) -> (nqp_core::SweepReport, Harvest) {
    let harvest = Mutex::new(Harvest::default());
    let report = tracer.span("core.sweep", || {
        let parent = tracer.current();
        sweep_supervised(
            configs,
            threads,
            trials,
            &SupervisorPolicy::default(),
            &[],
            &mut |_| {},
            |env, trial| {
                harvest_cell(&harvest, tracer, parent, format!("{what}/{trial}"), || {
                    run(env)
                })
            },
        )
    });
    out.model.str(&report.to_json());
    out.count("core.cells", report.trials.len() as f64);
    let harvest = harvest
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (report, harvest)
}

/// The serve burst grid: `w1,w3` on machine B, both presets, with the
/// class profiles calibrated once in set-up.
pub struct ServeGrid {
    cells: Vec<CellInput>,
    profiles: Vec<Vec<ClassProfile>>,
}

impl ServeGrid {
    /// Generate the two query classes' inputs from `data_seed` and
    /// calibrate each preset's class profiles with one traced engine
    /// run per class; arrivals follow `arrival_seed`. `sim_seed`
    /// overrides the simulator's own seed, as the CLI's `--seed` does.
    /// Returns the grid and the rows generated.
    pub fn calibrate(
        data_seed: u64,
        arrival_seed: u64,
        sim_seed: Option<u64>,
        scale: Scale,
        tracer: &Tracer,
    ) -> SimResult<(Self, u64)> {
        let w1 = AggConfig::w1(scale.serve_n, 2_000, data_seed);
        let (records, join) = tracer.span("datagen.generate", || {
            (
                generate(w1.dataset, w1.n, w1.cardinality, data_seed),
                JoinDataset::generate(scale.serve_n, data_seed),
            )
        });
        let rows = (records.len() + join.r.len() + join.s.len()) as u64;
        let spec = ServeSpec {
            tenants: 8,
            duration_mcycles: scale.serve_mcycles,
            arrivals: ArrivalSpec::parse("burst:rate=2.5,x=4")?,
            lanes: 4,
            queue_cap: 16,
            bucket_cap: 8,
            refill_milli_per_mcycle: parse_milli("4").unwrap_or(4_000),
            deadline_mcycles: 5,
            breaker_threshold: 8,
            epoch_mcycles: 4,
            outage: None,
            advisor: ServeAdvisor::Static,
            seed: arrival_seed,
        };
        spec.validate()?;
        let configs = presets(&machines::machine_b());
        let mut profiles = Vec::new();
        for cfg in &configs {
            let calibrated =
                tracer.span("serve.calibrate", || -> SimResult<Vec<ClassProfile>> {
                    let traced = |class: &str| {
                        let mut c = cfg.clone();
                        if let Some(seed) = sim_seed {
                            c.sim = c.sim.with_seed(seed);
                        }
                        c.sim = c.sim.with_trace(
                            TraceConfig::default().with_label(format!("{} {class}", cfg.name)),
                        );
                        c.env(THREADS)
                    };
                    let a = try_run_aggregation_on(&traced("w1"), &w1, &records)?;
                    let j = try_run_hash_join_on(&traced("w3"), &join)?;
                    Ok([
                        ("w1", phases(a.trace, a.exec_cycles)),
                        ("w3", phases(j.trace, j.build_cycles + j.probe_cycles)),
                    ]
                    .into_iter()
                    .map(|(name, healthy)| ClassProfile {
                        name: name.to_string(),
                        degraded: healthy.clone(),
                        healthy,
                        evacuated_pages: 0,
                    })
                    .collect())
                })?;
            profiles.push(calibrated);
        }
        let cells = configs
            .iter()
            .map(|c| CellInput {
                config: c.name.clone(),
                spec: spec.clone(),
            })
            .collect();
        Ok((ServeGrid { cells, profiles }, rows))
    }

    /// The cells' configuration names, in grid order.
    pub fn configs(&self) -> impl Iterator<Item = &str> {
        self.cells.iter().map(|c| c.config.as_str())
    }

    /// Run cell `i` through `run_cells`, with its calibrated profiles.
    pub fn run(&self, i: usize) -> SimResult<CellStats> {
        let calibrated = |_: usize| Ok(self.profiles[i].clone());
        let report = run_cells(
            std::slice::from_ref(&self.cells[i]),
            &HashMap::new(),
            1,
            None,
            false,
            &calibrated,
            &mut |_, _, _| Ok(()),
        )?;
        report
            .cells
            .into_iter()
            .next()
            .ok_or_else(|| SimError::Harness {
                what: format!("serve cell `{}` produced no report", self.cells[i].config),
            })
    }
}

impl StudyHarness {
    /// Generate every input from `seed` and calibrate the serve
    /// profiles. `work` is the directory the sweep journal goes to.
    pub fn setup(seed: u64, scale: Scale, tracer: &Tracer, work: &Path) -> SimResult<(Self, u64)> {
        let w1 = AggConfig::w1(scale.w1_n, scale.w1_card, seed);
        let (w1_records, tier_data) = tracer.span("datagen.generate", || {
            (
                generate(w1.dataset, w1.n, w1.cardinality, seed),
                JoinDataset::generate(scale.tier_n, seed),
            )
        });
        let (serve, serve_rows) = ServeGrid::calibrate(seed, seed, None, scale, tracer)?;
        let rows = (w1_records.len() + tier_data.r.len() + tier_data.s.len()) as u64 + serve_rows;
        let id = NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed);
        Ok((
            StudyHarness {
                scale,
                w1,
                w1_records,
                w1_configs: presets(&machines::machine_b()).to_vec(),
                shift: PhaseShiftConfig::small(seed),
                shift_configs: shift_configs(),
                tier_data,
                tier_configs: tier_configs()?,
                serve,
                journal: work.join(format!("journal-{}-{id}.jsonl", std::process::id())),
            },
            rows,
        ))
    }

    /// The journaled W1 sweep across `JOBS` executor workers.
    fn w1_sweep(&self, tracer: &Tracer, out: &mut JobOut) {
        let desc = format!(
            "perfbench study_harness w1 n={} card={} trials={}",
            self.w1.n, self.w1.cardinality, self.scale.trials
        );
        let mut writer = match JournalWriter::create(&self.journal, &grid_fingerprint(&desc), &desc)
        {
            Ok(w) => w,
            Err(e) => {
                out.mismatches.push(format!(
                    "cannot create journal `{}`: {e}",
                    self.journal.display()
                ));
                return;
            }
        };
        let harvest = Mutex::new(Harvest::default());
        let mut journal_errors = Vec::new();
        let report = tracer.span("core.sweep", || {
            let parent = tracer.current();
            let mut sink = |rec: &TrialRecord| {
                if let Err(e) =
                    tracer.span_under(parent, "core.journal_append", || writer.record(rec))
                {
                    journal_errors.push(format!("journal append failed: {e}"));
                }
            };
            sweep_parallel(
                &self.w1_configs,
                THREADS,
                self.scale.trials,
                &SupervisorPolicy::default(),
                &[],
                JOBS,
                &mut sink,
                |env: &WorkloadEnv, trial| {
                    harvest_cell(
                        &harvest,
                        tracer,
                        parent,
                        format!("w1/{}/{trial}", env.allocator.label()),
                        || {
                            try_run_aggregation_on(env, &self.w1, &self.w1_records).map(|o| {
                                Fields {
                                    cycles: o.exec_cycles,
                                    load_cycles: o.load_cycles,
                                    counters: o.counters,
                                    answer: (o.checksum, o.groups),
                                }
                            })
                        },
                    )
                },
            )
        });
        drop(writer);
        out.mismatches.extend(journal_errors);
        out.model.str(&report.to_json());
        let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&self.journal);
        out.model.num(bytes);
        out.count("core.journal_bytes", bytes as f64);
        out.count("core.cells", report.trials.len() as f64);
        let harvest = harvest
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, groups) = harvest.take(out, "w1");
        out.count("query.groups", groups as f64);
    }

    /// The serve burst grid, one `run_cells` call per cell.
    fn serve(&self, tracer: &Tracer, out: &mut JobOut) {
        let mut p99 = 0u64;
        let mut slo = u64::MAX;
        for (i, config) in self.serve.configs().enumerate() {
            let name = format!("serve/{config}");
            let t = Instant::now();
            let stats = match tracer.span("serve.run", || self.serve.run(i)) {
                Ok(s) => s,
                Err(e) => {
                    out.cell(name, t, Some(e.to_string()));
                    continue;
                }
            };
            out.cell(name, t, None);
            out.model.str(&stats.fields_json());
            let totals = stats.totals();
            out.count("serve.arrivals", totals.arrivals as f64);
            out.count("serve.completed", totals.completed as f64);
            out.count("serve.shed", totals.shed() as f64);
            p99 = p99.max(stats.hist.p99());
            slo = slo.min(stats.slo_permille());
            out.notes.push(serve_percentiles(&stats));
        }
        out.count("serve.p99_model_cycles", p99 as f64);
        out.count(
            "serve.slo_permille",
            if slo == u64::MAX { 0.0 } else { slo as f64 },
        );
    }
}

/// A serve cell's latency percentiles, each with the sample count, the
/// rank it rests on and how many samples lie beyond it.
pub fn serve_percentiles(stats: &CellStats) -> String {
    let n = stats.hist.total();
    let parts: Vec<String> = [50.0, 95.0, 99.0, 99.9]
        .iter()
        .map(|&p| {
            // The histogram's rank rule is nearest-rank, so `rank` is the
            // sample its quantile rests on.
            let rank = nearest_rank(p, n);
            let beyond = n.saturating_sub(rank);
            let thin = if beyond < TAIL_MIN_BEYOND {
                ", THIN"
            } else {
                ""
            };
            let value = stats.hist.quantile((p * 10.0_f64).round() as u64, 1000);
            format!("p{p}={value} cycles (n={n}, rank={rank}, beyond={beyond}{thin})")
        })
        .collect();
    format!("serve {}: {}", stats.config, parts.join("; "))
}

impl Workload for StudyHarness {
    fn cells_per_rep(&self) -> usize {
        (self.w1_configs.len() + self.shift_configs.len()) * self.scale.trials
            + self.tier_configs.len()
            + self.serve.cells.len()
    }

    fn job(&mut self, tracer: &Tracer) -> JobOut {
        let mut out = JobOut::default();
        self.w1_sweep(tracer, &mut out);

        let (report, harvest) = serial_sweep(
            tracer,
            &mut out,
            "wshift",
            &self.shift_configs,
            SHIFT_THREADS,
            self.scale.trials,
            |env| {
                try_run_phase_shift(env, &self.shift).map(|o| Fields {
                    cycles: o.exec_cycles,
                    load_cycles: o.load_cycles,
                    counters: o.counters,
                    answer: (o.checksum, 0),
                })
            },
        );
        harvest.take(&mut out, "wshift");
        // Best static over online; 0 when a contender has no clean
        // trial (those failures are already counted).
        let mean = |config: &str| report.mean_cycles(config).map(|c| c as f64);
        let gain = match (mean("os-default"), mean("tuned"), mean("online")) {
            (Some(os), Some(tuned), Some(online)) => os.min(tuned) / online,
            _ => 0.0,
        };
        out.count("advisor.gain_vs_best_static", gain);

        let (_, harvest) = serial_sweep(
            tracer,
            &mut out,
            "w3-tier",
            &self.tier_configs,
            THREADS,
            1,
            |env| {
                try_run_hash_join_on(env, &self.tier_data).map(|o| Fields {
                    cycles: o.build_cycles + o.probe_cycles,
                    load_cycles: o.load_cycles,
                    counters: o.counters,
                    answer: (o.matches, o.checksum),
                })
            },
        );
        let c = harvest.counters;
        out.count("tier.promotions", c.promotions as f64);
        out.count("tier.demotions", c.demotions as f64);
        out.count("tier.slow_tier_hit_ratio", c.slow_tier_hit_ratio());
        harvest.take(&mut out, "w3-tier");

        self.serve(tracer, &mut out);
        out
    }

    fn verify(&mut self, first: &JobOut) -> (u64, Vec<String>) {
        // wshift has no host-side oracle; its cells are checked against
        // each other inside the job.
        let mut bad = Vec::new();
        expect_eq(
            &mut bad,
            "w1 sweep answer against the host reference",
            first.answers.get("w1").copied(),
            Some(reference_checksum(&self.w1_records, self.w1.kind)),
        );
        expect_eq(
            &mut bad,
            "w3 tier answer against the host reference",
            first.answers.get("w3-tier").copied(),
            Some(reference_join(&self.tier_data)),
        );
        (2, bad)
    }

    fn probe(&mut self, tracer: &Tracer, _first: &JobOut) -> (ProbeCounts, Vec<String>) {
        let mut bad = Vec::new();
        let mut load = |env: WorkloadEnv, records: &[Record]| {
            if let Err(e) = probe_load(tracer, &env, records) {
                bad.push(format!("probe load: {e}"));
            }
        };
        for cfg in &self.w1_configs {
            for _ in 0..self.scale.trials {
                load(cfg.env(THREADS), &self.w1_records);
            }
        }
        let (r, s) = (
            join_records(&self.tier_data.r),
            join_records(&self.tier_data.s),
        );
        for cfg in &self.tier_configs {
            load(cfg.env(THREADS), &r);
            load(cfg.env(THREADS), &s);
        }
        let mut counts = ProbeCounts::new();
        let mut cfg = self.w1_configs[0].clone();
        cfg.sim = cfg.sim.with_trace(TraceConfig::default().with_label("w1"));
        match try_run_aggregation_on(&cfg.env(THREADS), &self.w1, &self.w1_records) {
            Ok(o) => {
                if let Some(log) = o.trace {
                    counts.insert("trace.events", crate::probes::export(tracer, "w1", &log));
                }
            }
            Err(e) => bad.push(format!("traced probe: {e}")),
        }
        (counts, bad)
    }
}
