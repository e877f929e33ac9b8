//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is named here once, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step, and [`result_line`] refuses to print a
//! result that lacks any registered metric of the requested kind.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mlines_per_s", "Mlines/s"),
    ("peak_rss_mb", "MB"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
];

/// Per-layer metrics `<crate>.<metric>`, printed by traced runs
/// (`--trace 1`). Times are host self times; `*_model_cycles` and the
/// counts are model outputs that repeat exactly for a given seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.self_ms", "ms"),
    ("datagen.rows", "count"),
    ("storage.load_self_ms", "ms"),
    ("storage.load_model_cycles", "cycles"),
    ("sim.ns_per_line", "ns"),
    ("sim.lines", "count"),
    ("sim.model_cycles", "cycles"),
    ("sim.llc_miss_ratio", "ratio"),
    ("sim.local_access_ratio", "ratio"),
    ("sim.tlb_miss_ratio", "ratio"),
    ("sim.page_migrations", "count"),
    ("sim.thread_migrations", "count"),
    ("sim.dram_cycles", "cycles"),
    ("sim.kernel_cycles", "cycles"),
    ("sim.lock_wait_cycles", "cycles"),
    ("alloc.self_ms", "ms"),
    ("query.op_self_ms", "ms"),
    ("query.groups", "count"),
    ("query.matches", "count"),
    ("query.build_model_cycles", "cycles"),
    ("query.probe_model_cycles", "cycles"),
    ("indexes.inl_self_ms", "ms"),
    ("indexes.join_model_cycles", "cycles"),
    ("engines.boot_self_ms", "ms"),
    ("engines.query_self_ms", "ms"),
    ("engines.rows", "count"),
    ("engines.latency_model_cycles", "cycles"),
    ("core.cell_overhead_ms", "ms"),
    ("core.journal_append_us", "us"),
    ("core.journal_bytes", "bytes"),
    ("core.cells", "count"),
    ("serve.calibrate_self_ms", "ms"),
    ("serve.run_self_ms", "ms"),
    ("serve.arrivals", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.p99_model_cycles", "cycles"),
    ("serve.slo_permille", "permille"),
    ("advisor.gain_vs_best_static", "x"),
    ("tier.promotions", "count"),
    ("tier.demotions", "count"),
    ("tier.slow_tier_hit_ratio", "ratio"),
    ("trace.export_self_ms", "ms"),
    ("trace.events", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_spread_ms", "ms"),
    ("bench.model_digest", "id"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The registry half a run prints: per-layer when traced, else
/// end-to-end.
fn registry(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The final JSON line of a run: every registered metric of the
/// requested kind, by name with its unit. Errors name the first metric
/// that is missing or not a finite number.
pub fn result_line(
    traced: bool,
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in registry(traced) {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not a finite number ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        parts.join(", ")
    ))
}

/// A finite f64 in JSON form with every digit Rust's shortest
/// round-trip formatting keeps (integers print without a fraction).
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(name), "duplicate metric `{name}`");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(false, &values, 4, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        values.remove("setup_s");
        assert!(result_line(false, &values, 4, 0)
            .unwrap_err()
            .contains("setup_s"));
        values.insert("setup_s", f64::NAN);
        assert!(result_line(false, &values, 4, 0).is_err());
    }

    #[test]
    fn a_failure_makes_the_result_incorrect() {
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|&(n, _)| (n, 2.0)).collect();
        assert!(result_line(false, &values, 4, 1)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
