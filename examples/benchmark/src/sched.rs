//! Seeded inputs for the serve workloads: arrival schedules and job
//! specs. The generator is the benchmark's own (SplitMix64), so a seed
//! keeps naming the same inputs whatever the simulator's RNG becomes.

/// SplitMix64: small, seedable, and stable across releases.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws made
    /// from one seed (arrival times vs. specs).
    #[must_use]
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmarks a job may name, as the service's wire tokens.
const BENCHES: [&str; 4] = ["mobilenetv1", "inceptionv3", "resnet50", "bert"];
/// The pruning levels a job may name.
const PRUNINGS: [&str; 2] = ["cons", "mod"];
/// The architectures a serve job may name. S2TA is left out because it
/// cannot run InceptionV3, so a job naming it could fail by design.
const ARCHS: [&str; 7] = [
    "dense",
    "ampere",
    "cnvlutin",
    "eureka-p2",
    "eureka-p4",
    "sparten",
    "dstc",
];
/// Largest batch a generated job asks for.
const MAX_BATCH: usize = 256;

/// One simulation request, in the service's vocabulary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    /// Benchmark token (`mobilenetv1`, …).
    pub bench: &'static str,
    /// Pruning token (`cons` or `mod`).
    pub pruning: &'static str,
    /// Architecture registry name.
    pub arch: &'static str,
    /// Batch size, `1..=MAX_BATCH`.
    pub batch: usize,
}

impl Spec {
    /// The inline `submit` request line of the serve protocol.
    #[must_use]
    pub fn submit_line(&self) -> String {
        format!(
            "{{\"cmd\":\"submit\",\"bench\":\"{}\",\"pruning\":\"{}\",\"arch\":\"{}\",\"batch\":{}}}",
            self.bench, self.pruning, self.arch, self.batch
        )
    }
}

/// Seeded Poisson arrivals at `rate` per second over `[0, seconds)`, as
/// ascending offsets in seconds, conditioned on the expected count
/// `round(rate · seconds)` (at least one). Given its count, a Poisson
/// process's arrival times are independent uniform draws, so this is
/// Poisson traffic in which every seed offers the same number of jobs —
/// and, with [`fresh_specs`], the same job mix.
#[must_use]
pub fn poisson(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 1);
    let n = ((rate * seconds).round() as usize).max(1);
    let mut out: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// `n` pairwise-distinct specs. Every benchmark × pruning × arch combination
/// appears once per shuffled block of 56, so the job mix (and with it the
/// mean cost of a job) is the same for every seed; each combination draws
/// its batches without replacement from `1..=MAX_BATCH`.
///
/// # Panics
///
/// If `n` exceeds the number of distinct specs (14,336).
#[must_use]
pub fn fresh_specs(seed: u64, n: usize) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 2);
    let combos: Vec<(usize, usize, usize)> = (0..BENCHES.len())
        .flat_map(|b| {
            (0..PRUNINGS.len()).flat_map(move |p| (0..ARCHS.len()).map(move |a| (b, p, a)))
        })
        .collect();
    assert!(
        n <= combos.len() * MAX_BATCH,
        "only {} distinct specs exist",
        combos.len() * MAX_BATCH
    );
    let mut batches: Vec<Vec<usize>> = combos
        .iter()
        .map(|_| {
            let mut all: Vec<usize> = (1..=MAX_BATCH).collect();
            rng.shuffle(&mut all);
            all
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut order: Vec<usize> = (0..combos.len()).collect();
        rng.shuffle(&mut order);
        for c in order.into_iter().take(n - out.len()) {
            let (b, p, a) = combos[c];
            let batch = batches[c].pop().expect("n bounded by the spec space above");
            out.push(Spec {
                bench: BENCHES[b],
                pruning: PRUNINGS[p],
                arch: ARCHS[a],
                batch,
            });
        }
    }
    out
}

/// Size of the serve-hot working set.
pub const HOT_SET: usize = 8;

/// The serve-hot working set: one spec per benchmark × pruning pair, each
/// with a seeded batch. The architectures are a seeded shuffle of all seven
/// plus one drawn at random, so every seed's set costs about the same to
/// warm up.
#[must_use]
pub fn hot_set(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 3);
    let mut archs = ARCHS.to_vec();
    archs.push(ARCHS[rng.below(ARCHS.len())]);
    rng.shuffle(&mut archs);
    let pairs = BENCHES
        .into_iter()
        .flat_map(|bench| PRUNINGS.map(|pruning| (bench, pruning)));
    pairs
        .zip(archs)
        .map(|((bench, pruning), arch)| Spec {
            bench,
            pruning,
            arch,
            batch: 1 + rng.below(MAX_BATCH),
        })
        .collect()
}

/// `n` uniform draws from the hot set, as indices into [`hot_set`].
#[must_use]
pub fn hot_stream(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 4);
    (0..n).map(|_| rng.below(HOT_SET)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn poisson_schedule_is_deterministic_with_the_asked_rate() {
        let a = poisson(7, 50.0, 200.0);
        assert_eq!(a, poisson(7, 50.0, 200.0));
        assert_ne!(a, poisson(8, 50.0, 200.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..200.0).contains(&t)));
        assert_eq!(poisson(7, 15.0, 0.01).len(), 1);
        for seed in 1..=10 {
            let arrivals = poisson(seed, 15.0, 400.0);
            assert_eq!(arrivals.len(), 6000);
            // Over any long window the rate holds, not just overall.
            let first_half = arrivals.iter().filter(|&&t| t < 200.0).count() as f64 / 200.0;
            assert!(
                (first_half / 15.0 - 1.0).abs() < 0.05,
                "seed {seed}: rate {first_half}"
            );
            // Exponential gaps: the standard deviation equals the mean.
            let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!(
                (var.sqrt() / mean - 1.0).abs() < 0.05,
                "seed {seed}: gap cv {}",
                var.sqrt() / mean
            );
        }
    }

    #[test]
    fn fresh_specs_never_repeat_and_cover_every_combination_evenly() {
        let specs = fresh_specs(3, 56 * 40);
        let distinct: HashSet<&Spec> = specs.iter().collect();
        assert_eq!(distinct.len(), specs.len());
        assert!(specs.iter().all(|s| (1..=MAX_BATCH).contains(&s.batch)));
        let block: HashSet<(&str, &str, &str)> = specs[..56]
            .iter()
            .map(|s| (s.bench, s.pruning, s.arch))
            .collect();
        assert_eq!(block.len(), 56, "each block holds every combination once");
        // The whole spec space is reachable, and still without repeats.
        let all = fresh_specs(4, 56 * MAX_BATCH);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
        assert_eq!(fresh_specs(3, 100), specs[..100]);
    }

    #[test]
    fn hot_set_and_stream_are_seeded() {
        assert_eq!(hot_set(5), hot_set(5));
        assert_ne!(hot_set(5), hot_set(6));
        for seed in 1..=10 {
            let set = hot_set(seed);
            assert_eq!(set.len(), HOT_SET);
            let archs: HashSet<&str> = set.iter().map(|s| s.arch).collect();
            assert_eq!(archs.len(), ARCHS.len(), "every architecture is warmed");
        }
        let stream = hot_stream(5, 1000);
        assert_eq!(stream, hot_stream(5, 1000));
        assert!(stream.iter().all(|&i| i < HOT_SET));
        assert_eq!(stream.iter().collect::<HashSet<_>>().len(), HOT_SET);
    }
}
