//! Order statistics and failure accounting.

use std::time::Duration;

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it. `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether nearest-rank quantile `q` of `n` samples has at least ten
/// samples beyond it: the condition for reporting it as a tail.
#[must_use]
pub fn tail_supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// Timing samples with their nearest-rank summary.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank quantile `q` (`None` when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }

    /// The median (`None` when empty).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` computes them
/// (the default "exclusive" method), so spreads read the same here as in
/// any script that checks them. `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(&mut out) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Attempted and failed operations of one run. A failed operation still
/// counts as attempted and contributes no latency sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
}

impl Tally {
    /// Records one operation's result.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples_not_interpolations() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&xs, 0.95), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let mut s = Samples::default();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.p50(), Some(2.0));
        assert_eq!(s.quantile(0.95), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 450 jobs: p95 is rank 428, with 22 beyond; p99 (rank 446) has 4.
        assert!(tail_supported(450, 0.95));
        assert!(!tail_supported(450, 0.99));
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(!tail_supported(3, 0.95));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_frac(), 0.25);
    }
}
