//! Architecture models.
//!
//! Each architecture converts a pruned GEMM into a [`LayerReport`]:
//! device-level compute cycles, exposed memory traffic, and component
//! activity. One-sided schemes (Dense, Ampere, Cnvlutin-like, the Eureka
//! family, Ideal) share the tile-stream engine in [`onesided`]; the
//! two-sided baselines have their own models.

pub mod dstc;
pub mod extensions;
pub mod ideal;
pub mod onesided;
pub mod s2ta;
pub mod sparten;

use crate::config::SimConfig;
use crate::profile::{LayerProfile, ProfileConfig};
use crate::report::LayerReport;
use crate::scratch::ScratchPool;
use crate::store::TileBroker;
use core::fmt;
use eureka_models::workload::LayerGemm;
use eureka_sparse::rng::DetRng;
use eureka_sparse::TilePattern;

pub use dstc::{dstc, Dstc};
pub use extensions::{eureka_two_sided, EurekaTwoSided};
pub use ideal::{ideal, Ideal};
pub use onesided::{
    ampere, cnvlutin_like, compaction_only, dense, eureka_multistep, eureka_no_suds_p4, eureka_p2,
    eureka_p4, eureka_unopt, greedy_suds_p4, optimal_suds_p4, OneSided, ScheduleMode, TileTimer,
};
pub use s2ta::{s2ta, S2ta};
pub use sparten::{sparten, SparTen};

/// Per-layer simulation context supplied by the engine.
#[derive(Clone, Debug)]
pub struct LayerCtx {
    /// Mean unstructured activation density of the workload.
    pub act_density: f64,
    /// S2TA structured activation density, if the benchmark has one.
    pub s2ta_act_density: Option<f64>,
    /// S2TA structured filter density, if the benchmark has one.
    pub s2ta_fil_density: Option<f64>,
    /// Deterministic RNG stream for this (workload, layer).
    pub rng: DetRng,
    /// Tile-result resolution through the content-addressed store
    /// ([`crate::store`]), for tiles a signature table does not answer.
    /// [`TileBroker::disabled`] times them directly, without keying
    /// them — what ad-hoc simulation call sites
    /// and a runner without a store directory use; a runner with
    /// [`crate::Runner::with_store_dir`] plants an enabled broker per
    /// work unit. Either way the simulated results are bit-identical: the
    /// store only skips recomputing outcomes it can prove equal by
    /// canonical key.
    pub tiles: TileBroker,
    /// Reusable per-worker scratch buffers ([`crate::scratch`]): tiles,
    /// key strings, signature and schedule buffers recycle across units
    /// instead of re-allocating per sample, and the signature
    /// tables across layers and jobs. `Default` works standalone, so
    /// ad-hoc `LayerCtx` construction needs no setup; scratch never
    /// influences results (buffers are overwritten before reading, and
    /// a table entry equals the computation it replaces).
    pub scratch: ScratchPool,
}

/// Errors an architecture can report.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The architecture cannot run this workload (e.g. S2TA on
    /// InceptionV3, whose structured activation sparsity the paper has no
    /// data for).
    Unsupported {
        /// Architecture name.
        arch: String,
        /// Why it cannot run.
        reason: String,
    },
    /// A work unit panicked during simulation; the runner caught it
    /// ([`std::panic::catch_unwind`]) and converted it into this typed
    /// error so one bad unit cannot abort a whole sweep.
    UnitPanic {
        /// Layer (GEMM) name of the panicking unit.
        layer: String,
        /// The panic message, best-effort rendered.
        payload: String,
    },
    /// A fault injected by the test-only [`crate::faults`] layer. Never
    /// produced outside fault-injection runs; treated as transient by
    /// retry policies.
    Injected {
        /// The faulted layer name.
        site: String,
    },
    /// The unit was cooperatively stopped at a unit boundary — its
    /// cancel token fired (operator cancel or deadline) before the unit
    /// started. Never retried: the token stays fired.
    Cancelled {
        /// The layer that was about to run when the token was observed.
        layer: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unsupported { arch, reason } => {
                write!(f, "{arch} cannot simulate this workload: {reason}")
            }
            SimError::UnitPanic { layer, payload } => {
                write!(f, "layer {layer} panicked during simulation: {payload}")
            }
            SimError::Injected { site } => {
                write!(f, "injected test fault at {site}")
            }
            SimError::Cancelled { layer } => {
                write!(f, "layer {layer} cancelled at unit boundary")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A simulated architecture.
///
/// Architectures are plain configuration data (`Send + Sync`), so sweeps
/// can fan out across threads.
pub trait Architecture: Send + Sync {
    /// Display name used in the figures.
    ///
    /// The name must uniquely identify the architecture's simulation
    /// behaviour: the [`crate::runner`] unit records key results on it, so
    /// two differently-configured architectures sharing a name would
    /// alias each other's cached layers.
    fn name(&self) -> &str;

    /// Simulates one pruned GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] when the architecture cannot run
    /// the layer (see the S2TA/InceptionV3 case).
    fn simulate_layer(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
    ) -> Result<LayerReport, SimError>;

    /// Simulates one pruned GEMM and attributes its cycles.
    ///
    /// The returned report must be bit-identical to what
    /// [`Architecture::simulate_layer`] produces for the same inputs —
    /// profiling observes, never perturbs. The default implementation
    /// covers architectures without pipeline-level detail: it runs the
    /// plain simulation and attributes everything to compute/memory
    /// ([`LayerProfile::from_report`]). Architectures with a sampled
    /// systolic pipeline (the one-sided engine) override this to break
    /// cycles into the full stall taxonomy.
    ///
    /// # Errors
    ///
    /// Same contract as [`Architecture::simulate_layer`].
    fn simulate_layer_profiled(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
        _profile: &ProfileConfig,
    ) -> Result<(LayerReport, LayerProfile), SimError> {
        let report = self.simulate_layer(gemm, ctx, cfg)?;
        let profile = LayerProfile::from_report(&report);
        Ok((report, profile))
    }
}

/// Parameters of the synthetic clustered-sparsity mixture, kept consistent
/// with `eureka_sparse::gen::clustered_pattern`: a fraction `F` of blocks
/// carries density `d_hi`, the rest `0.1 · d_hi`, preserving the mean.
pub(crate) const CLUSTER_DENSE_FRACTION: f64 = 0.2;

/// Block-density mixture for a clustered layer of mean density `d`:
/// `(dense_fraction, d_hi, d_lo)`. When `d` is high enough that the dense
/// blocks would exceed full density, the dense fraction grows instead so
/// the mixture mean always equals `d`.
pub(crate) fn cluster_mixture(d: f64) -> (f64, f64, f64) {
    let f = CLUSTER_DENSE_FRACTION;
    let d_hi = d / (f + 0.1 * (1.0 - f));
    if d_hi <= 1.0 {
        (f, d_hi, 0.1 * d_hi)
    } else {
        // Cap blocks at fully dense and widen the dense fraction:
        // f' + 0.1 (1 - f') = d.
        let f = ((d - 0.1) / 0.9).clamp(0.0, 1.0);
        (f, 1.0, 0.1)
    }
}

/// Draws the local density for one tile of a layer: the layer's density for
/// uniform sparsity, or a mixture sample for clustered (BERT) filters.
pub(crate) fn tile_density(gemm: &LayerGemm, rng: &mut DetRng) -> f64 {
    if gemm.clustered {
        let (f, hi, lo) = cluster_mixture(gemm.weight_density);
        if rng.bernoulli(f) {
            hi
        } else {
            lo
        }
    } else {
        gemm.weight_density
    }
}

/// Per-filter-row density: the tile-local base density modulated by a
/// mean-one log-normal factor (`sigma = 0` disables the heterogeneity).
///
/// Near-dense layers have little room for heterogeneity, so the factor's
/// sigma tapers towards zero as `base` approaches 1 — this also keeps the
/// `[0, 0.98]` clamp from biasing the mean (an unclamped hot row would
/// violate the one-sided Ideal nnz bound).
pub(crate) fn row_density(base: f64, sigma: f64, rng: &mut DetRng) -> f64 {
    if sigma == 0.0 {
        return base;
    }
    let sigma = sigma * ((1.0 - base) * 2.0).clamp(0.0, 1.0);
    let z = rng.next_gaussian();
    (base * (sigma * z - 0.5 * sigma * sigma).exp()).clamp(0.0, 0.98)
}

/// Samples a `p × q` weight tile: each live row draws its own density via
/// [`row_density`]; `rows_live`/`cols_live` cap how much of the tile lies
/// inside the matrix (edge tiles are zero-padded).
pub(crate) fn sample_tile(
    p: usize,
    q: usize,
    rows_live: usize,
    cols_live: usize,
    base_density: f64,
    sigma: f64,
    rng: &mut DetRng,
) -> TilePattern {
    let mut masks = vec![0u64; p];
    sample_masks(
        &mut masks,
        rows_live,
        cols_live,
        q,
        base_density,
        sigma,
        rng,
    );
    TilePattern::from_rows(&masks, q).expect("q validated by caller")
}

/// [`sample_tile`]'s row masks into a caller-owned buffer, resized to
/// `p` and refilled: the zero-allocation sampling path, which builds a
/// [`TilePattern`] only when its caller needs one. The RNG draw sequence
/// is identical to [`sample_tile`]'s (reports are byte-identical either
/// way).
#[allow(clippy::too_many_arguments)] // mirrors sample_tile plus the buffer
pub(crate) fn sample_masks_into(
    masks: &mut Vec<u64>,
    p: usize,
    q: usize,
    rows_live: usize,
    cols_live: usize,
    base_density: f64,
    sigma: f64,
    rng: &mut DetRng,
) {
    masks.clear();
    masks.resize(p, 0);
    sample_masks(masks, rows_live, cols_live, q, base_density, sigma, rng);
}

/// The shared sampling loop: one [`row_density`] draw per live row, one
/// Bernoulli draw per live cell, in row-major order. The draw order is
/// load-bearing — it defines the deterministic RNG stream every committed
/// report was produced with.
fn sample_masks(
    masks: &mut [u64],
    rows_live: usize,
    cols_live: usize,
    q: usize,
    base_density: f64,
    sigma: f64,
    rng: &mut DetRng,
) {
    let p = masks.len();
    for mask in masks.iter_mut().take(rows_live.min(p)) {
        let d = row_density(base_density, sigma, rng);
        // One Bernoulli draw per live cell, branchless, against the
        // row's exact integer threshold: draw for draw equal to
        // `rng.bernoulli(d)` (`tests/kernel_equivalence.rs` pins it).
        let thr = DetRng::bernoulli_threshold(d);
        let mut m = 0u64;
        for c in 0..cols_live.min(q) {
            m |= u64::from(rng.bernoulli_below(thr)) << c;
        }
        *mask |= m;
    }
}

/// Binomial sample: number of successes in `n` Bernoulli trials, each
/// against the [`DetRng::bernoulli_threshold`] `thr`. Callers compute a
/// density's threshold once, outside their sampling loops.
pub(crate) fn binomial(n: usize, thr: u64, rng: &mut DetRng) -> usize {
    (0..n).filter(|_| rng.bernoulli_below(thr)).count()
}

/// A registry constructor: builds one boxed architecture.
type ArchCtor = fn() -> Box<dyn Architecture>;

/// The single name → constructor table behind [`registry_names`] and
/// [`by_name`], in figure order. Constructors must yield architectures
/// whose display names are pairwise distinct (the runner's unit records
/// key on [`Architecture::name`]); the registry test enforces this.
static REGISTRY: [(&str, ArchCtor); 16] = [
    ("dense", || Box::new(onesided::dense())),
    ("ampere", || Box::new(onesided::ampere())),
    ("cnvlutin", || Box::new(onesided::cnvlutin_like())),
    ("eureka-p2", || Box::new(onesided::eureka_p2())),
    ("eureka-p4", || Box::new(onesided::eureka_p4())),
    ("ideal", || Box::new(ideal::ideal())),
    ("dstc", || Box::new(dstc::dstc())),
    ("sparten", || Box::new(sparten::sparten())),
    ("s2ta", || Box::new(s2ta::s2ta())),
    ("eureka-unopt", || Box::new(onesided::eureka_unopt())),
    ("compaction-p4", || Box::new(onesided::compaction_only(4))),
    ("greedy-suds", || Box::new(onesided::greedy_suds_p4())),
    ("optimal-suds", || Box::new(onesided::optimal_suds_p4())),
    ("eureka-no-suds", || Box::new(onesided::eureka_no_suds_p4())),
    ("eureka-reach2", || Box::new(onesided::eureka_multistep(2))),
    ("eureka-act-gate", || {
        Box::new(extensions::eureka_two_sided())
    }),
];

/// All architecture names [`by_name`] resolves, in figure order.
#[must_use]
pub fn registry_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

/// Resolves an architecture by its kebab-case name (see
/// [`registry_names`]); `None` for unknown names.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn Architecture>> {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
}

/// Samples weight tiles of a layer at the Eureka P=4 geometry
/// (`p × 4p`), for offline analyses like the Figure 9 critical-path
/// distributions. `stream` selects an independent deterministic sample
/// group.
#[must_use]
pub fn tile_samples_for_layer(gemm: &LayerGemm, cfg: &SimConfig, stream: u64) -> Vec<TilePattern> {
    let p = cfg.core.sub_array_dim;
    let q = (4 * p).min(64);
    let mut rng =
        DetRng::new(0xF169 ^ gemm.shape.n as u64 ^ (gemm.shape.k as u64) << 20).fork(stream);
    (0..cfg.rowgroup_samples.max(1))
        .map(|_| {
            let d = tile_density(gemm, &mut rng);
            sample_tile(p, q, p, q, d, cfg.row_density_sigma, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_models::GemmShape;

    fn gemm(density: f64, clustered: bool) -> LayerGemm {
        LayerGemm {
            name: "t".into(),
            shape: GemmShape {
                n: 64,
                k: 64,
                m: 64,
            },
            unique_act_bytes: 1 << 20,
            weight_density: density,
            clustered,
            depthwise: false,
        }
    }

    #[test]
    fn cluster_mixture_preserves_mean() {
        for d in [0.05, 0.1, 0.2, 0.28, 0.5, 0.9, 0.99] {
            let (f, hi, lo) = cluster_mixture(d);
            let mean = f * hi + (1.0 - f) * lo;
            assert!((mean - d).abs() < 1e-9, "d={d} mean={mean}");
            assert!(hi <= 1.0);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn tile_density_uniform_vs_clustered() {
        let mut rng = DetRng::new(1);
        let g = gemm(0.2, false);
        assert_eq!(tile_density(&g, &mut rng), 0.2);
        let g = gemm(0.1, true);
        let samples: Vec<f64> = (0..1000).map(|_| tile_density(&g, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / 1000.0;
        assert!((mean - 0.1).abs() < 0.02, "mean {mean}");
        // Two distinct values only.
        let mut uniq = samples;
        uniq.sort_by(f64::total_cmp);
        uniq.dedup();
        assert_eq!(uniq.len(), 2);
    }

    #[test]
    fn sample_tile_respects_live_region() {
        let mut rng = DetRng::new(2);
        let t = sample_tile(4, 16, 2, 8, 1.0, 0.0, &mut rng);
        // sigma 0 and density 1.0 clamp to 0.98, so rows are near-full;
        // check live extent strictly with density 1 capped rows.
        assert!(t.row_len(0) >= 6);
        assert!(t.row_len(1) >= 6);
        assert_eq!(t.row_len(2), 0);
        assert_eq!(t.row_len(3), 0);
        assert!(t.row_indices(0).iter().all(|&c| c < 8));
    }

    #[test]
    fn row_density_is_mean_preserving() {
        let mut rng = DetRng::new(9);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| row_density(0.13, 0.8, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.13).abs() < 0.01, "mean {mean}");
        assert_eq!(row_density(0.13, 0.0, &mut rng), 0.13);
    }

    #[test]
    fn binomial_mean() {
        let mut rng = DetRng::new(3);
        let thr = DetRng::bernoulli_threshold(0.25);
        let total: usize = (0..2000).map(|_| binomial(32, thr, &mut rng)).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 8.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn binomial_equals_the_float_filter_count() {
        let dyadic = 0.25f64;
        for (seed, p) in [
            -0.5,
            0.0,
            0.13,
            dyadic.next_down(),
            dyadic,
            dyadic.next_up(),
            1.0f64.next_down(),
            1.0,
            1.5,
            f64::NAN,
        ]
        .into_iter()
        .enumerate()
        {
            let mut by_float = DetRng::new(seed as u64);
            let mut by_threshold = by_float.clone();
            let thr = DetRng::bernoulli_threshold(p);
            for n in [0, 1, 8, 16, 33, 256] {
                let float = (0..n)
                    .filter(|_| by_float.next_f64() < p.clamp(0.0, 1.0))
                    .count();
                assert_eq!(binomial(n, thr, &mut by_threshold), float, "p = {p:e}");
            }
        }
    }

    #[test]
    fn registry_is_complete_and_consistent() {
        let mut display_names = Vec::new();
        for name in registry_names() {
            let arch = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!arch.name().is_empty());
            display_names.push(arch.name().to_string());
        }
        // Display names are the runner's cache identity: no duplicates.
        let mut uniq = display_names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), display_names.len(), "{display_names:?}");
        assert!(by_name("not-an-arch").is_none());
        assert_eq!(by_name("eureka-p4").unwrap().name(), "Eureka P=4");
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::Unsupported {
            arch: "S2TA".into(),
            reason: "no structured activation data".into(),
        };
        assert!(e.to_string().contains("S2TA"));
        let p = SimError::UnitPanic {
            layer: "conv1".into(),
            payload: "boom".into(),
        };
        assert!(p.to_string().contains("conv1"));
        assert!(p.to_string().contains("boom"));
        let i = SimError::Injected { site: "fc".into() };
        assert!(i.to_string().contains("fc"));
    }
}
