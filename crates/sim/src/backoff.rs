//! Seeded exponential backoff with jitter for retry scheduling.
//!
//! PR 4's retry policy re-attempts a failed unit immediately; under a
//! resident service that turns a transient fault into a tight hot loop.
//! A [`BackoffPolicy`] spaces the attempts out exponentially (base ×
//! 2^(attempt−1), capped) with deterministic jitter: the delay for
//! `(seed, attempt)` is a pure function of those inputs, hashed through
//! FNV-1a, so two runs of the same plan sleep the same schedule and a
//! chaos replay is reproducible. Delays never feed into any simulated
//! result — they only reshape wall-clock time — so the runner's
//! bit-identical-output contract is untouched.

use eureka_obs::applog::fnv1a64;

/// Deterministic exponential-backoff schedule for unit retries.
///
/// `delay(attempt) = min(cap_us, base_us << (attempt − 1))`, then, with
/// jitter enabled, mapped into `[delay/2, delay]` by a seeded hash —
/// the "equal jitter" scheme, keeping a floor of half the exponential
/// delay so retries never collapse back into a hot loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the second attempt, in microseconds (0 = no
    /// backoff: retries stay immediate).
    pub base_us: u64,
    /// Upper bound on any single delay, in microseconds.
    pub cap_us: u64,
    /// Spread each delay over `[delay/2, delay]` with a seeded hash.
    pub jitter: bool,
}

impl BackoffPolicy {
    /// No backoff: every retry is immediate (the PR 4 behaviour).
    pub const NONE: BackoffPolicy = BackoffPolicy {
        base_us: 0,
        cap_us: 0,
        jitter: false,
    };

    /// No backoff: every retry is immediate.
    #[must_use]
    pub fn none() -> Self {
        Self::NONE
    }

    /// Exponential backoff with jitter: `base_us` before the second
    /// attempt, doubling per attempt, capped at `cap_us`.
    #[must_use]
    pub fn exponential(base_us: u64, cap_us: u64) -> Self {
        BackoffPolicy {
            base_us,
            cap_us: cap_us.max(base_us),
            jitter: true,
        }
    }

    /// Whether this policy ever sleeps.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.base_us == 0
    }

    /// The delay, in microseconds, to sleep before re-attempting a unit
    /// whose previous attempt was number `attempt` (1-based: the delay
    /// slept between attempt 1 and attempt 2 is `delay_us(seed, 1)`).
    /// Deterministic in `(policy, seed, attempt)`.
    #[must_use]
    pub fn delay_us(&self, seed: u64, attempt: u32) -> u64 {
        if self.base_us == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(63);
        // `<<` discards overflowed bits, so saturate explicitly when the
        // doubling would overflow u64.
        let uncapped = if self.base_us > (u64::MAX >> exp) {
            u64::MAX
        } else {
            self.base_us << exp
        };
        let delay = uncapped.min(self.cap_us.max(self.base_us));
        if !self.jitter || delay < 2 {
            return delay;
        }
        // Equal jitter: hash (seed, attempt) into [delay/2, delay].
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&attempt.to_le_bytes());
        let h = fnv1a64(&bytes);
        let half = delay / 2;
        half + h % (delay - half + 1)
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_sleeps() {
        let p = BackoffPolicy::none();
        for attempt in 1..10 {
            assert_eq!(p.delay_us(42, attempt), 0);
        }
        assert!(p.is_none());
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let p = BackoffPolicy {
            base_us: 100,
            cap_us: 1000,
            jitter: false,
        };
        assert_eq!(p.delay_us(0, 1), 100);
        assert_eq!(p.delay_us(0, 2), 200);
        assert_eq!(p.delay_us(0, 3), 400);
        assert_eq!(p.delay_us(0, 4), 800);
        assert_eq!(p.delay_us(0, 5), 1000, "capped");
        assert_eq!(p.delay_us(0, 63), 1000, "huge attempts stay capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = BackoffPolicy::exponential(100, 10_000);
        for attempt in 1..8 {
            let ceiling = (100u64 << (attempt - 1)).min(10_000);
            for seed in [0u64, 1, 42, u64::MAX] {
                let d = p.delay_us(seed, attempt);
                assert_eq!(d, p.delay_us(seed, attempt), "pure in (seed, attempt)");
                assert!(
                    d >= ceiling / 2,
                    "floor of half the delay: {d} < {ceiling}/2"
                );
                assert!(d <= ceiling, "never above the exponential ceiling");
            }
        }
        // Different seeds actually spread.
        let spread: std::collections::HashSet<u64> = (0..32).map(|s| p.delay_us(s, 4)).collect();
        assert!(spread.len() > 1, "jitter must vary by seed");
    }

    #[test]
    fn overflow_attempts_saturate() {
        let p = BackoffPolicy {
            base_us: u64::MAX / 2,
            cap_us: u64::MAX,
            jitter: false,
        };
        assert_eq!(p.delay_us(0, 40), u64::MAX, "shift overflow saturates");
    }
}
