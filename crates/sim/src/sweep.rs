//! MAC-array size sensitivity (Figure 14).
//!
//! Compares plainly-scaled monolithic arrays against systolic compositions
//! of 4×4 blocks at a constant device MAC budget. Larger plain arrays
//! suffer: a `p`-row tile is harder to balance (SUDS or not) and an
//! unbalanced row idles `p` MACs instead of 4. Systolic scale-up keeps
//! `p = 4` and pays only modest pipeline-bubble costs.

use crate::arch::onesided;
use crate::config::{SimConfig, TensorCoreConfig};
use crate::engine;
use crate::runner::{Runner, SimJob};
use eureka_models::Workload;

/// One Figure 14 configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayVariant {
    /// Display label ("8x8-plain", "16x16-systolic", ...).
    pub label: &'static str,
    /// Core geometry.
    pub core: TensorCoreConfig,
}

/// The five Figure 14 geometries.
#[must_use]
pub fn figure14_variants() -> Vec<ArrayVariant> {
    vec![
        ArrayVariant {
            label: "4x4",
            core: TensorCoreConfig::plain(4),
        },
        ArrayVariant {
            label: "8x8-plain",
            core: TensorCoreConfig::plain(8),
        },
        ArrayVariant {
            label: "8x8-systolic",
            core: TensorCoreConfig::systolic(8),
        },
        ArrayVariant {
            label: "16x16-plain",
            core: TensorCoreConfig::plain(16),
        },
        ArrayVariant {
            label: "16x16-systolic",
            core: TensorCoreConfig::systolic(16),
        },
    ]
}

/// The Eureka configuration matched to one geometry: the compaction
/// factor is capped so the tile width fits the 64-bit masks (16x16 plain
/// with P=4 is exactly 64).
#[must_use]
pub fn variant_arch(variant: &ArrayVariant) -> onesided::OneSided {
    let p = variant.core.sub_array_dim;
    let factor = (64 / p).min(4);
    onesided::OneSided::new(
        format!("Eureka P={factor}"),
        factor,
        onesided::TileTimer::OptimalSuds,
        onesided::ScheduleMode::Grouped,
    )
}

/// Eureka-P=4-over-Dense speedup for one workload under one geometry
/// (device MAC budget held constant), simulated on `runner`.
#[must_use]
pub fn speedup_at(
    runner: &Runner,
    variant: &ArrayVariant,
    workload: &Workload,
    base_cfg: &SimConfig,
) -> f64 {
    let _span = eureka_obs::span!(runner.spans(), "sweep.speedup_at", "{}", variant.label);
    let cfg = base_cfg.with_core(variant.core);
    let dense = onesided::dense();
    let eureka = variant_arch(variant);
    let jobs = [
        SimJob::new(&dense, workload, cfg),
        SimJob::new(&eureka, workload, cfg),
    ];
    let mut out = runner.run_all(&jobs).into_iter();
    let dense = out
        .next()
        .expect("invariant: run_all returns one result per submitted job")
        .expect("invariant: Dense supports every workload");
    let report = out
        .next()
        .expect("invariant: run_all returns one result per submitted job")
        .expect("invariant: one-sided Eureka supports every workload");
    engine::speedup(&dense, &report)
}

/// Runtime (total cycles) of a workload under Eureka P=4 across device
/// scales — compute-bound workloads scale near-linearly with core count
/// until the fixed memory traffic dominates (the regime boundary behind
/// the paper's "251 GB/s maximum demand vs 1.5 TB/s available"),
/// simulated on `runner`.
#[must_use]
pub fn core_count_sweep(
    runner: &Runner,
    workload: &Workload,
    core_counts: &[usize],
    base_cfg: &SimConfig,
) -> Vec<(usize, u64)> {
    let _span = eureka_obs::span!(
        runner.spans(),
        "sweep.core_count",
        "{} point(s)",
        core_counts.len()
    );
    let eureka = onesided::eureka_p4();
    let jobs: Vec<SimJob<'_>> = core_counts
        .iter()
        .map(|&cores| {
            SimJob::new(
                &eureka,
                workload,
                SimConfig {
                    tensor_cores: cores,
                    ..*base_cfg
                },
            )
        })
        .collect();
    core_counts
        .iter()
        .zip(runner.run_all(&jobs))
        .map(|(&cores, r)| {
            (
                cores,
                r.expect("invariant: one-sided Eureka supports every workload")
                    .total_cycles(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_models::{Benchmark, PruningLevel};

    #[test]
    fn systolic_scaleup_beats_plain_at_16() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        let variants = figure14_variants();
        let get = |label: &str| {
            let v = variants.iter().find(|v| v.label == label).unwrap();
            speedup_at(&Runner::parallel(), v, &w, &cfg)
        };
        let base = get("4x4");
        let plain16 = get("16x16-plain");
        let sys16 = get("16x16-systolic");
        assert!(
            plain16 < base,
            "plain 16x16 ({plain16}) should lose vs 4x4 ({base})"
        );
        assert!(
            sys16 > plain16,
            "systolic 16x16 ({sys16}) should beat plain ({plain16})"
        );
        // Systolic scale-up costs only modest performance vs 4x4.
        assert!(sys16 > 0.6 * base, "sys16 {sys16} vs base {base}");
    }

    #[test]
    fn core_scaling_is_sublinear_but_monotone() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        let pts = core_count_sweep(&Runner::parallel(), &w, &[108, 432, 1728], &cfg);
        // More cores never slows things down.
        assert!(pts.windows(2).all(|p| p[1].1 <= p[0].1), "{pts:?}");
        // 4x the cores from the baseline buys real speedup...
        let base = pts.iter().find(|p| p.0 == 432).unwrap().1 as f64;
        let big = pts.iter().find(|p| p.0 == 1728).unwrap().1 as f64;
        assert!(base / big > 2.0, "scaling {}", base / big);
        // ...but less than linear: the memory share grows.
        assert!(base / big < 4.0, "scaling {}", base / big);
    }

    #[test]
    fn variant_mac_budgets_match() {
        let cfg = SimConfig::paper_default();
        for v in figure14_variants() {
            let scaled = cfg.with_core(v.core);
            assert_eq!(scaled.total_macs(), cfg.total_macs(), "{}", v.label);
        }
    }
}
