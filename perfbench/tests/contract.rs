//! The benchmark's contract: `BENCHMARK.json` names exactly what the
//! command prints, equal seeds repeat every model count, and the
//! single-shot serve tail of `BENCH_sweep.json` is reproduced and
//! flagged as resting on too few samples.

use nqp_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use nqp_perfbench::runner::{run, Options, Size, WORKLOADS};
use nqp_perfbench::spans::Tracer;
use nqp_perfbench::workloads::study_harness::{serve_percentiles, Scale, ServeGrid};
use std::collections::BTreeMap;

/// `(section, name, unit)` for every entry of `BENCHMARK.json`'s
/// `workloads`, `end_to_end` and `per_layer` lists. The file keeps one
/// entry per line, which this reader relies on.
fn benchmark_json() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["workloads", "end_to_end", "per_layer"] {
            if line.contains(&format!("\"{s}\":")) {
                section = s.to_string();
            }
        }
        if let Some(name) = field(line, "name") {
            out.push((
                section.clone(),
                name,
                field(line, "unit").unwrap_or_default(),
            ));
        }
    }
    out
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let entries = benchmark_json();
    let of = |section: &str| -> Vec<(String, String)> {
        entries
            .iter()
            .filter(|(s, _, _)| s == section)
            .map(|(_, n, u)| (n.clone(), u.clone()))
            .collect()
    };
    let registry = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(of("end_to_end"), registry(END_TO_END));
    assert_eq!(of("per_layer"), registry(PER_LAYER));
    // Every listed workload runs; `agg_write` runs but is not listed
    // (see README.md, "Workloads").
    let workloads: Vec<String> = of("workloads").into_iter().map(|(n, _)| n).collect();
    let listed: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|&w| w != "agg_write")
        .collect();
    assert_eq!(workloads, listed);
    for (_, name, _) in &entries {
        assert!(valid_name(name), "`{name}` breaks [A-Za-z0-9_.-]+");
    }
}

fn tiny(workload: &str, seed: u64, trace: bool) -> nqp_perfbench::runner::Outcome {
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for trace in [false, true] {
        let out = tiny("agg_write", 3, trace);
        let json = out.lines.last().expect("a result line");
        assert!(json.starts_with("{\"correct\": true,"), "{json}");
        let list = if trace { PER_LAYER } else { END_TO_END };
        for &(name, unit) in list {
            let printed = format!("\"{name}\": {{\"value\": ");
            assert!(json.contains(&printed), "`{name}` missing from {json}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let other = if trace { END_TO_END } else { PER_LAYER };
        assert!(other
            .iter()
            .all(|(n, _)| !json.contains(&format!("\"{n}\""))));
    }
}

/// Per-layer values that are model outputs: every count, ratio and
/// model-cycle figure, but no host time.
fn model_values(values: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .filter(|(_, unit)| !matches!(*unit, "ms" | "us" | "ns"))
        .map(|&(name, _)| (name, values[name]))
        .collect()
}

#[test]
fn equal_seeds_repeat_model_counts_and_digest() {
    for workload in WORKLOADS {
        let a = tiny(workload, 7, true);
        let b = tiny(workload, 7, true);
        assert_eq!(a.failed, 0, "{workload}: {:?}", a.lines);
        assert_eq!(a.model_digest, b.model_digest, "{workload}");
        assert_eq!(
            model_values(&a.values),
            model_values(&b.values),
            "{workload}"
        );
        let c = tiny(workload, 8, true);
        assert_ne!(
            a.model_digest, c.model_digest,
            "{workload}: the seed must reach the inputs"
        );
    }
}

#[test]
fn the_bench_serve_cell_tail_is_flagged_thin() {
    // BENCH_sweep.json's serve grid: `serve w1,w3 --machine B --threads 8
    // --duration 40 --seed 7 --arrivals burst:rate=2.5,x=4`; the CLI's
    // `--seed` seeds the inputs, the arrivals and the simulator alike.
    let scale = Scale {
        serve_mcycles: 40,
        serve_n: 8_000,
        ..Scale::TINY
    };
    let (grid, _) =
        ServeGrid::calibrate(7, 7, Some(7), scale, &Tracer::new(false, 0)).expect("calibrate");
    let stats = grid.run(0).expect("os-default cell");
    let totals = stats.totals();
    assert_eq!(
        (stats.config.as_str(), totals.arrivals, totals.shed()),
        ("os-default", 146, 4)
    );
    assert_eq!(stats.hist.p99(), 9_609_033);
    assert_eq!(stats.hist.total(), 45);
    let line = serve_percentiles(&stats);
    assert!(
        line.contains("p95=9609033 cycles (n=45, rank=43, beyond=2, THIN)"),
        "{line}"
    );
    assert!(
        line.contains("p99=9609033 cycles (n=45, rank=45, beyond=0, THIN)"),
        "{line}"
    );
    assert!(
        line.contains("p99.9=9609033 cycles (n=45, rank=45, beyond=0, THIN)"),
        "{line}"
    );
    assert!(
        line.contains("p50=5767167 cycles (n=45, rank=23, beyond=22);"),
        "{line}"
    );
}
