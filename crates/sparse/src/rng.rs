//! A deterministic, version-stable random number generator.
//!
//! Experiment reproducibility matters more here than statistical exotica:
//! the same seed must generate the same synthetic weights on every machine
//! and with every dependency version. [`DetRng`] implements xoshiro256**
//! seeded through SplitMix64 — the standard, well-analyzed construction —
//! in ~60 lines with no dependencies.

/// Deterministic xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use eureka_sparse::rng::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        DetRng { state }
    }

    /// Derives an independent stream for a named sub-experiment. Forked
    /// streams don't perturb the parent, so adding a consumer never changes
    /// the values other consumers see.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        DetRng::new(
            self.state[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0xD2B7_4407_B1CE_6E93)),
        )
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, 1)` as `f32`.
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)` via Lemire's rejection-free-ish
    /// multiply-shift (bias is negligible for the bounds used here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`; a NaN
    /// `p` never succeeds).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.bernoulli_below(Self::bernoulli_threshold(p))
    }

    /// The exact integer form of a Bernoulli(`p`) trial's success
    /// threshold: `⌈clamp(p, 0, 1)·2⁵³⌉`, with a NaN `p` giving 0. Since
    /// `next_f64()` is `(next_u64() >> 11)·2⁻⁵³` (53 bits scaled by a
    /// power of two, so lossless) and `clamp(p)·2⁵³` is exact too,
    /// `next_f64() < clamp(p)` holds exactly when `(next_u64() >> 11) <
    /// threshold`. Hoisting the threshold out of a loop of draws at one
    /// `p` therefore leaves the stream of outcomes unchanged.
    #[inline]
    #[must_use]
    pub fn bernoulli_threshold(p: f64) -> u64 {
        // `as u64` saturates, and maps NaN to 0.
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
    }

    /// One Bernoulli trial against a [`DetRng::bernoulli_threshold`]:
    /// draw for draw equal to [`DetRng::bernoulli`] at that `p`.
    #[inline]
    pub fn bernoulli_below(&mut self, threshold: u64) -> bool {
        self.next_u64() >> 11 < threshold
    }

    /// Standard-normal-ish sample via the sum of 12 uniforms (Irwin–Hall),
    /// adequate for synthetic weight magnitudes.
    pub fn next_gaussian(&mut self) -> f64 {
        (0..12).map(|_| self.next_f64()).sum::<f64>() - 6.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Chooses exactly `k` distinct indices out of `n` (reservoir-free,
    /// partial Fisher–Yates). Returned indices are in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.next_below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        let parent = DetRng::new(9);
        let mut f1 = parent.fork(3);
        let mut parent2 = parent.clone();
        let _ = parent2.next_u64();
        let mut f2 = parent.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut other = parent.fork(4);
        assert_ne!(parent.fork(3).next_u64(), other.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::new(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds() {
        let mut rng = DetRng::new(5);
        for bound in [1usize, 2, 7, 100] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let mut rng = DetRng::new(11);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.13)).count();
        assert!((1100..1500).contains(&hits), "got {hits}");
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = DetRng::new(13);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn choose_indices_distinct_and_complete() {
        let mut rng = DetRng::new(17);
        let mut picked = rng.choose_indices(10, 10);
        picked.sort_unstable();
        assert_eq!(picked, (0..10).collect::<Vec<_>>());
        let some = rng.choose_indices(100, 5);
        assert_eq!(some.len(), 5);
        let mut uniq = some.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 5);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        DetRng::new(1).next_below(0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = DetRng::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
