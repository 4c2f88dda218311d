//! Workload-level simulation entry points.
//!
//! These are thin wrappers over the [`crate::runner`] drive path — one
//! job on a fresh [`Runner::parallel`] — kept for API continuity and for
//! callers that simulate a single `(architecture, workload)` pair. A
//! fresh runner shares no unit records, so each call computes its job
//! anew. Callers that repeat jobs, or need retries, a store directory or
//! a worker count, build their own [`Runner`] and call it directly.

use crate::arch::{Architecture, SimError};
use crate::config::SimConfig;
use crate::outcome::JobOutcome;
use crate::profile::{ProfileConfig, SimProfile};
use crate::report::SimReport;
use crate::runner::{Runner, SimJob};
use eureka_models::Workload;

/// Simulates every layer of a workload under an architecture.
///
/// Equivalent to submitting one [`SimJob`] to [`Runner::parallel`];
/// sweeps over many pairs should batch jobs through
/// [`Runner::run_all`] instead of calling this in a loop.
///
/// # Errors
///
/// Returns [`SimError::Unsupported`] if the architecture cannot run the
/// workload (S2TA on InceptionV3).
pub fn try_simulate(
    arch: &dyn Architecture,
    workload: &Workload,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    Runner::parallel().run(&SimJob::new(arch, workload, *cfg))
}

/// Like [`try_simulate`] but surfaces the full [`JobOutcome`] taxonomy:
/// layers untouched by a failure survive as a partial report instead of
/// being discarded with the whole job.
#[must_use]
pub fn simulate_outcome(
    arch: &dyn Architecture,
    workload: &Workload,
    cfg: &SimConfig,
) -> JobOutcome {
    Runner::parallel().run_outcome(&SimJob::new(arch, workload, *cfg))
}

/// Like [`try_simulate`] but with cycle-attribution profiling: returns
/// the report (bit-identical to an unprofiled run) together with its
/// [`SimProfile`]. The profile is assembled in layer-index order and
/// serializes to identical bytes regardless of worker count.
///
/// # Errors
///
/// Returns [`SimError::Unsupported`] if the architecture cannot run the
/// workload.
pub fn try_profile(
    arch: &dyn Architecture,
    workload: &Workload,
    cfg: &SimConfig,
    pcfg: &ProfileConfig,
) -> Result<(SimReport, SimProfile), SimError> {
    Runner::parallel().run_profiled(&SimJob::new(arch, workload, *cfg), pcfg)
}

/// Like [`try_simulate`] but panics on unsupported combinations.
///
/// # Panics
///
/// Panics if the architecture cannot run the workload.
#[must_use]
pub fn simulate(arch: &dyn Architecture, workload: &Workload, cfg: &SimConfig) -> SimReport {
    try_simulate(arch, workload, cfg)
        .expect("caller contract: the architecture must support this workload (use try_simulate to handle refusals)")
}

/// Speedup of `other` relative to `baseline` on total cycles.
#[must_use]
pub fn speedup(baseline: &SimReport, other: &SimReport) -> f64 {
    baseline.total_cycles() as f64 / other.total_cycles() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use eureka_models::{Benchmark, PruningLevel, Workload};

    #[test]
    fn resnet_moderate_headline_ordering() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        let dense = simulate(&arch::onesided::dense(), &w, &cfg);
        let ampere = simulate(&arch::onesided::ampere(), &w, &cfg);
        let eureka = simulate(&arch::onesided::eureka_p4(), &w, &cfg);
        let ideal = simulate(&arch::ideal::ideal(), &w, &cfg);

        let s_ampere = speedup(&dense, &ampere);
        let s_eureka = speedup(&dense, &eureka);
        let s_ideal = speedup(&dense, &ideal);
        assert!((1.7..2.1).contains(&s_ampere), "ampere {s_ampere}");
        assert!(s_eureka > s_ampere * 1.5, "eureka {s_eureka}");
        assert!(s_ideal >= s_eureka, "ideal {s_ideal} vs eureka {s_eureka}");
    }

    #[test]
    fn memory_share_is_compute_bound_range() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32);
        let dense = simulate(&arch::onesided::dense(), &w, &cfg);
        let share = dense.mem_share();
        assert!(
            (0.02..0.20).contains(&share),
            "dense memory share {share} out of compute-bound range"
        );
    }

    #[test]
    fn s2ta_unsupported_on_inception() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
        assert!(try_simulate(&arch::s2ta::s2ta(), &w, &cfg).is_err());
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        assert!(try_simulate(&arch::s2ta::s2ta(), &w, &cfg).is_ok());
    }

    #[test]
    fn detailed_memory_mode_tracks_analytic() {
        // The measured-residency mode must land near the analytic
        // constant on a real workload (that is the constant's whole
        // justification).
        let mut cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        let analytic = simulate(&arch::dense(), &w, &cfg);
        cfg.detailed_memory = true;
        let detailed = simulate(&arch::dense(), &w, &cfg);
        assert_eq!(analytic.compute_cycles(), detailed.compute_cycles());
        let (a, d) = (analytic.mem_cycles() as f64, detailed.mem_cycles() as f64);
        assert!(
            (0.5..2.0).contains(&(d / a)),
            "detailed {d} vs analytic {a}"
        );
        // Still a compute-bound regime.
        assert!(
            detailed.mem_share() < 0.25,
            "share {}",
            detailed.mem_share()
        );
    }

    #[test]
    fn attention_aux_dampens_bert_equally() {
        let mut cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 32);
        let base = speedup(
            &simulate(&arch::dense(), &w, &cfg),
            &simulate(&arch::eureka_p4(), &w, &cfg),
        );
        cfg.include_attention_aux = true;
        let dense = simulate(&arch::dense(), &w, &cfg);
        assert!(dense.layers.iter().any(|l| l.name == "attention-aux"));
        let damped = speedup(&dense, &simulate(&arch::eureka_p4(), &w, &cfg));
        assert!(damped < base, "aux work must dampen: {damped} vs {base}");
        assert!(damped > base * 0.6, "but only modestly: {damped} vs {base}");
        // CNNs are unaffected.
        let rn = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
        let r = simulate(&arch::dense(), &rn, &cfg);
        assert!(r.layers.iter().all(|l| l.name != "attention-aux"));
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = SimConfig::fast();
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let a = simulate(&arch::onesided::eureka_p4(), &w, &cfg);
        let b = simulate(&arch::onesided::eureka_p4(), &w, &cfg);
        assert_eq!(a, b);
    }
}
