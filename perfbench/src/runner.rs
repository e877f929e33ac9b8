//! One benchmark run: set up several times, repeat the job for the
//! requested seconds, check every output, then print the metrics.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced
//! runs (`--trace 1`) alternate untraced and traced repetitions of the
//! job, so the tracing overhead is the difference of their medians,
//! then add a probe pass (separate loads, the simulator access stream,
//! the allocator microbenchmark, a trace export) and report per-layer
//! self times and model counts.

use crate::metrics::{result_line, PER_LAYER};
use crate::probes;
use crate::spans::{count_by_name, self_ns_by_name, to_tsv, Tracer};
use crate::stats::{iqr, median, percentile, tail_rung, Percentile};
use crate::workloads::{
    agg_write::{self, AggWrite},
    join_read::{self, JoinRead},
    study_harness::{self, StudyHarness},
    tpch_pass::{self, TpchPass},
    JobOut, Workload,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads the command runs. `BENCHMARK.json` lists all but
/// `agg_write` (see README.md, "Workloads").
pub const WORKLOADS: [&str; 4] = ["agg_write", "join_read", "tpch_pass", "study_harness"];

/// Repetitions of each kind (untraced, and traced in a traced run) a
/// run makes at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// Repetitions a run makes at most: a booted TPC-H database grows with
/// every pass, so the run's memory stays bounded however fast it gets.
const MAX_REPS: usize = 60;
/// Set-ups a run makes at least.
const MIN_SETUPS: usize = 3;
/// Set-ups continue until this much set-up time has passed (or
/// [`MAX_SETUPS`]), so a short set-up still gets a steady median.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 200;

/// Input sizes: the benchmark's own, or tiny ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Bench,
    /// Seconds-long sizes for the test suite.
    Tiny,
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed loop runs for (at least [`MIN_REPS`] reps).
    pub seconds: f64,
    /// Traced (per-layer) run instead of an end-to-end one.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// A finished run: the lines to print and whether every output was
/// correct.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable lines; the last one is the JSON result.
    pub lines: Vec<String>,
    /// Operations failed (typed errors and output mismatches).
    pub failed: u64,
    /// Metric values by name (the printed half and the other half's
    /// inputs).
    pub values: BTreeMap<&'static str, f64>,
    /// The model digest of the first repetition.
    pub model_digest: u64,
}

/// Where journals and span dumps go: inside the Cargo target directory
/// of the checkout the benchmark was built in.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-work")
}

/// Generate a workload's inputs; returns it and the rows generated.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    tracer: &Tracer,
    work: &Path,
) -> Result<(Box<dyn Workload>, u64), String> {
    let tiny = size == Size::Tiny;
    Ok(match name {
        "agg_write" => {
            let scale = if tiny {
                agg_write::Scale::TINY
            } else {
                agg_write::Scale::BENCH
            };
            let (w, rows) = AggWrite::setup(seed, scale, tracer);
            (Box::new(w), rows)
        }
        "join_read" => {
            let scale = if tiny {
                join_read::Scale::TINY
            } else {
                join_read::Scale::BENCH
            };
            let (w, rows) = JoinRead::setup(seed, scale, tracer);
            (Box::new(w), rows)
        }
        "tpch_pass" => {
            let scale = if tiny {
                tpch_pass::Scale::TINY
            } else {
                tpch_pass::Scale::BENCH
            };
            let (w, rows) = TpchPass::setup(seed, scale, tracer);
            (Box::new(w), rows)
        }
        "study_harness" => {
            let scale = if tiny {
                study_harness::Scale::TINY
            } else {
                study_harness::Scale::BENCH
            };
            let (w, rows) = StudyHarness::setup(seed, scale, tracer, work)
                .map_err(|e| format!("study_harness set-up failed: {e}"))?;
            (Box::new(w), rows)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// One repetition of the job.
struct Rep {
    wall_s: f64,
    traced: bool,
    out: JobOut,
    self_ns: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, u64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median over `reps` of `f(rep)`; 0 when there are none.
fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = work_dir();
    std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create work directory `{}`: {e}", work.display()))?;
    let run_id = (u64::from(std::process::id()) << 32) ^ opts.seed;
    let mut tracer = Tracer::new(opts.trace, run_id);

    // Set-up, several times; the last set-up's state is the one used.
    let mut setup_s = Vec::new();
    let mut setup_self = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut rows = 0;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        drop(workload.take());
        let mark = tracer.len();
        let t = Instant::now();
        let (w, r) = tracer.span("bench.setup", || {
            setup(&opts.workload, opts.seed, opts.size, &tracer, &work)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_self.push(self_ns_by_name(&tracer.spans_since(mark)));
        workload = Some(w);
        rows = r;
    }
    let Some(mut workload) = workload else {
        return Err("set-up produced no workload".to_string());
    };

    // The timed loop. Repetition 0 warms caches and lazy state up and
    // is left out of every timing; it is untraced, so its model digest
    // and counts are the same in both kinds of run.
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = None;
    let mut started = Instant::now();
    loop {
        let count = |traced: bool| reps.iter().skip(1).filter(|r| r.traced == traced).count();
        let enough = count(false) >= MIN_REPS && (!opts.trace || count(true) >= MIN_REPS);
        if enough && (started.elapsed().as_secs_f64() >= opts.seconds || reps.len() > MAX_REPS) {
            break;
        }
        let traced = opts.trace && reps.len() % 2 == 1;
        tracer.set_enabled(traced);
        let mark = tracer.len();
        let t = Instant::now();
        let out = tracer.span("bench.job", || workload.job(&tracer));
        let wall_s = t.elapsed().as_secs_f64();
        let spans = tracer.spans_since(mark);
        reps.push(Rep {
            wall_s,
            traced,
            out,
            self_ns: self_ns_by_name(&spans),
            spans: count_by_name(&spans),
        });
        if reps.len() == 1 {
            // The measured window starts after the warm-up.
            started = Instant::now();
        }
        if reps.len() == 1 + MIN_REPS {
            // Read after a fixed amount of work: a faster build fits more
            // repetitions, and a database that grows per pass would
            // otherwise read higher for it.
            peak_rss = peak_rss_mb();
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    tracer.set_enabled(opts.trace);

    // Output checks: within each repetition (done by the job), across
    // repetitions, and against independent oracles.
    let first = &reps[0].out;
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.out.cells.len() as u64;
        failed += rep.out.failed();
        for c in rep.out.cells.iter().filter(|c| c.error.is_some()) {
            problems.push(format!(
                "rep {i}: {} failed: {}",
                c.name,
                c.error.as_deref().unwrap_or("")
            ));
        }
        problems.extend(rep.out.mismatches.iter().map(|m| format!("rep {i}: {m}")));
        if i > 0 && rep.out.answers != first.answers {
            failed += 1;
            problems.push(format!("rep {i}: query answers differ from rep 0"));
        }
        if i > 0 && workload.model_repeats() && rep.out.model != first.model {
            failed += 1;
            problems.push(format!("rep {i}: model digest differs from rep 0"));
        }
    }
    let (verified, bad) = workload.verify(first);
    attempted += verified;
    failed += bad.len() as u64;
    problems.extend(bad);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut lines = Vec::new();
    let plain: Vec<&Rep> = reps.iter().skip(1).filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().skip(1).filter(|r| r.traced).collect();
    let wall_s = median_of(&plain, |r| r.wall_s);
    lines.push(format!(
        "workload {} seed {} trace {}: {} reps (1 warm-up, {} traced) in {loop_s:.3} s, {} cells per rep, {} set-ups",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        reps.len(),
        traced.len(),
        workload.cells_per_rep(),
        setup_s.len()
    ));
    let model_digest = first.model.value();
    lines.push(format!(
        "model_digest 0x{model_digest:016x} ({})",
        if workload.model_repeats() {
            "repeated by every rep"
        } else {
            "rep 0; later reps run on warmed state"
        }
    ));
    lines.extend(first.notes.iter().cloned());

    if opts.trace {
        // Probe pass: layer calls made apart from the job.
        let mark = tracer.len();
        let (replay_lines, probe_counts, bad) = tracer.span("bench.probe", || {
            let mut bad = Vec::new();
            let lines = probes::sim_replay(&tracer)
                .map_err(|e| bad.push(format!("sim replay: {e}")))
                .unwrap_or(0);
            probes::alloc_microbench(&tracer);
            let (counts, b) = workload.probe(&tracer, first);
            bad.extend(b);
            (lines, counts, bad)
        });
        // The replay, the microbenchmark and the workload's own probe.
        let probe_ops = 3;
        attempted += probe_ops;
        failed += bad.len() as u64;
        problems.extend(bad);
        let probe_self = self_ns_by_name(&tracer.spans_since(mark));
        let get = |m: &BTreeMap<&'static str, u64>, k: &str| m.get(k).copied().unwrap_or(0);

        for &(name, _) in PER_LAYER {
            values.insert(name, 0.0);
        }
        let setup_median = |k: &str| {
            median(&setup_self.iter().map(|m| ms(get(m, k))).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        values.insert("datagen.self_ms", setup_median("datagen.generate"));
        values.insert("engines.boot_self_ms", setup_median("engines.boot"));
        values.insert("serve.calibrate_self_ms", setup_median("serve.calibrate"));
        values.insert("datagen.rows", rows as f64);

        let rep_ms = |k: &str| median_of(&traced, |r| ms(get(&r.self_ns, k)));
        let load_ms = ms(get(&probe_self, "storage.load"));
        values.insert("storage.load_self_ms", load_ms);
        values.insert("query.op_self_ms", (rep_ms("query.op") - load_ms).max(0.0));
        values.insert("indexes.inl_self_ms", rep_ms("indexes.inl"));
        values.insert("engines.query_self_ms", rep_ms("engines.query"));
        values.insert("core.cell_overhead_ms", rep_ms("core.sweep"));
        values.insert("serve.run_self_ms", rep_ms("serve.run"));
        values.insert(
            "core.journal_append_us",
            median_of(&traced, |r| {
                get(&r.self_ns, "core.journal_append") as f64
                    / 1e3
                    / get(&r.spans, "core.journal_append").max(1) as f64
            }),
        );
        values.insert(
            "sim.ns_per_line",
            get(&probe_self, "sim.replay") as f64 / replay_lines.max(1) as f64,
        );
        values.insert("alloc.self_ms", ms(get(&probe_self, "alloc.microbench")));
        values.insert("trace.export_self_ms", ms(get(&probe_self, "trace.export")));

        let c = &first.counters;
        values.insert("sim.lines", first.lines() as f64);
        values.insert("sim.model_cycles", first.model_cycles as f64);
        values.insert("sim.llc_miss_ratio", 1.0 - c.cache_hit_ratio());
        values.insert("sim.local_access_ratio", c.local_access_ratio());
        values.insert("sim.tlb_miss_ratio", c.tlb_miss_ratio());
        values.insert("sim.page_migrations", c.page_migrations as f64);
        values.insert("sim.thread_migrations", c.thread_migrations as f64);
        values.insert("sim.dram_cycles", c.dram_cycles as f64);
        values.insert("sim.kernel_cycles", c.kernel_cycles as f64);
        values.insert("sim.lock_wait_cycles", c.lock_wait_cycles as f64);
        for (&k, &v) in first.counts.iter().chain(&probe_counts) {
            if values.contains_key(k) {
                values.insert(k, v);
            }
        }
        // Keep the digest exact as a JSON number (53-bit mantissa).
        values.insert(
            "bench.model_digest",
            (model_digest & ((1 << 52) - 1)) as f64,
        );

        let plain_ms: Vec<f64> = plain.iter().map(|r| r.wall_s * 1e3).collect();
        let traced_ms: Vec<f64> = traced.iter().map(|r| r.wall_s * 1e3).collect();
        let delta = median(&traced_ms).unwrap_or(0.0) - median(&plain_ms).unwrap_or(0.0);
        let spread = iqr(&plain_ms).max(iqr(&traced_ms));
        values.insert("trace.overhead_ms", delta);
        values.insert("trace.overhead_spread_ms", spread);
        lines.push(format!(
            "trace.overhead_ms = {delta} ms (traced median minus untraced median, n={}+{} reps; spread {spread} ms = larger IQR){}",
            traced_ms.len(),
            plain_ms.len(),
            if spread > delta.abs() { "; UNRESOLVED: the spread exceeds the delta" } else { "" }
        ));
        let spans = tracer.spans();
        let dump = work.join(format!("spans-{}-seed{}.tsv", opts.workload, opts.seed));
        if let Err(e) = std::fs::write(&dump, to_tsv(&spans)) {
            problems.push(format!("cannot write spans to `{}`: {e}", dump.display()));
            failed += 1;
        } else {
            lines.push(format!(
                "{} spans written to {}",
                spans.len(),
                dump.display()
            ));
        }
        for &(name, unit) in PER_LAYER {
            lines.push(format!("{name} = {} {unit}", values[name]));
        }
    } else {
        let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        values.insert("wall_s", wall_s);
        values.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        values.insert("sim_mlines_per_s", first.lines() as f64 / 1e6 / wall_s);
        values.insert("peak_rss_mb", peak_rss.unwrap_or(0.0));
        let cells: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.out.cells.iter().map(|c| c.host_ms))
            .collect();
        let rung = tail_rung((workload.cells_per_rep() * MIN_REPS) as u64);
        let p50 = percentile(&cells, 50.0);
        let tail = percentile(&cells, rung);
        values.insert("cell_ms_p50", p50.map_or(0.0, |p| p.value));
        values.insert("cell_ms_tail", tail.map_or(0.0, |p| p.value));
        let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        lines.push(format!(
            "wall_s = {wall_s} s (median of n={} reps, IQR {} s; each: {})",
            walls.len(),
            iqr(&walls),
            each.join(" ")
        ));
        lines.push(format!(
            "setup_s = {} s (median of n={} set-ups, IQR {} s)",
            values["setup_s"],
            setup_s.len(),
            iqr(&setup_s)
        ));
        lines.push(format!(
            "sim_mlines_per_s = {} Mlines/s ({} simulated lines per rep over the median wall_s, n={})",
            values["sim_mlines_per_s"],
            first.lines(),
            walls.len()
        ));
        lines.push(format!(
            "peak_rss_mb = {} MB (process high-water mark after set-up, warm-up and {MIN_REPS} reps, n=1)",
            values["peak_rss_mb"]
        ));
        let describe =
            |p: Option<Percentile>| p.map_or_else(|| "no cells".to_string(), |p| p.describe("ms"));
        lines.push(format!("cell_ms_p50 = {}", describe(p50)));
        lines.push(format!(
            "cell_ms_tail = {} [rung fixed by {} cells per rep x {MIN_REPS} reps]",
            describe(tail),
            workload.cells_per_rep()
        ));
    }
    lines.push(format!(
        "ops_failed_ratio = {} ({failed} failed of n={attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    for p in &problems {
        lines.push(format!("FAILED: {p}"));
    }
    lines.push(result_line(opts.trace, &values, attempted, failed)?);
    Ok(Outcome {
        lines,
        failed,
        values,
        model_digest,
    })
}
