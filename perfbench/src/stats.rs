//! Order statistics with their sample counts.
//!
//! Percentiles use the nearest-rank rule, the same one
//! `nqp_serve::LatencyHistogram::quantile` uses: the p-th percentile of
//! `n` samples is the sample of rank `ceil(p/100 * n)` (at least 1).
//! Every percentile is reported with `n`, that rank and the number of
//! samples beyond it, so a tail that rests on a handful of samples is
//! visible as such.

/// Samples a tail percentile needs beyond it before it is trusted.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// The percentile rungs a tail may land on, highest first.
pub const TAIL_RUNGS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// One percentile of a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, 0–100.
    pub p: f64,
    /// The value at `rank`.
    pub value: f64,
    /// Sample count.
    pub n: u64,
    /// 1-based nearest rank.
    pub rank: u64,
}

impl Percentile {
    /// Samples strictly beyond the rank.
    pub fn beyond(&self) -> u64 {
        self.n - self.rank
    }

    /// Whether the percentile rests on fewer than [`TAIL_MIN_BEYOND`]
    /// samples beyond it.
    pub fn thin(&self) -> bool {
        self.beyond() < TAIL_MIN_BEYOND
    }

    /// `p99=12.3 (n=45, rank=45, beyond=0, THIN)`-style description.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p{}={} {unit} (n={}, rank={}, beyond={}{})",
            fmt_p(self.p),
            self.value,
            self.n,
            self.rank,
            self.beyond(),
            if self.thin() {
                ", THIN: fewer than 10 samples beyond"
            } else {
                ""
            }
        )
    }
}

fn fmt_p(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("{p:.0}")
    } else {
        format!("{p}")
    }
}

/// Nearest rank of percentile `p` among `n` samples (1-based, ≥ 1).
pub fn nearest_rank(p: f64, n: u64) -> u64 {
    // Integer arithmetic on per-mille avoids float ceil surprises such
    // as 0.95 * 20 = 19.000000000000004.
    let permille = (p * 10.0).round() as u64;
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as u64;
    let rank = nearest_rank(p, n);
    Some(Percentile {
        p,
        value: sorted[(rank - 1) as usize],
        n,
        rank,
    })
}

/// The highest rung of [`TAIL_RUNGS`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it among `n` samples; the lowest
/// rung when none does (the result is then flagged thin).
pub fn tail_rung(n: u64) -> f64 {
    TAIL_RUNGS
        .iter()
        .copied()
        .find(|&p| n - nearest_rank(p, n).min(n) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_RUNGS[TAIL_RUNGS.len() - 1])
}

/// Median (mean of the two middle samples for even counts); `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(data, n=4)`; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len() as i64;
    let m = ld + 1;
    // Python's integer formulation: j clamped to 1..ld-1, delta may
    // fall outside 0..4 (extrapolation at the ends).
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range, 0 below two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bench_serve_tail_rests_on_no_sample() {
        // The single-shot serve cell of BENCH_sweep.json: 45 completions.
        // p95, p99 and p99.9 all land on ranks 43..45, i.e. on the last
        // three samples, so each is thin.
        for (p, rank) in [(95.0, 43), (99.0, 45), (99.9, 45)] {
            let samples: Vec<f64> = (1..=45).map(f64::from).collect();
            let q = percentile(&samples, p).unwrap();
            assert_eq!((q.n, q.rank), (45, rank));
            assert!(q.thin(), "p{p} rests on {} beyond", q.beyond());
        }
        assert_eq!(tail_rung(45), 75.0);
    }

    #[test]
    fn tail_rung_needs_ten_beyond() {
        assert_eq!(tail_rung(4), 50.0);
        assert_eq!(tail_rung(20), 50.0);
        assert_eq!(tail_rung(100), 90.0);
        assert_eq!(tail_rung(200), 95.0);
        assert_eq!(tail_rung(1000), 99.0);
        assert_eq!(tail_rung(10_000), 99.9);
        for n in 20..3000u64 {
            let p = tail_rung(n);
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_matches_the_histogram_rule() {
        assert_eq!(nearest_rank(50.0, 4), 2);
        assert_eq!(nearest_rank(95.0, 20), 19);
        assert_eq!(nearest_rank(99.9, 1000), 999);
        assert_eq!(nearest_rank(50.0, 0), 1);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&v), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(iqr(&[1.0]), 0.0);
    }
}
