//! DRAM-energy calibration (paper §5.3).
//!
//! "We set Dense Bench's compute-memory energy split to be 80-20 by
//! calibrating the relative energy cost of a memory access with respect to
//! that of a MAC operation in the Dense architecture. We then apply this
//! relative cost to the other benchmarks whose compute-memory split may be
//! different depending on each benchmark's operations per byte."

use crate::energy::EnergyModel;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, Runner, SimConfig, SimJob};

/// Target memory share of Dense Bench total energy.
pub const DENSE_BENCH_MEMORY_SHARE: f64 = 0.20;

/// Builds an [`EnergyModel`] whose DRAM energy-per-byte makes the unpruned
/// ResNet50 Dense Bench split 80/20 compute/memory on the Dense
/// architecture, simulated on `runner` (so the calibration run shares
/// the caller's unit records).
///
/// # Panics
///
/// If the Dense architecture fails on ResNet50, which the registry
/// tests rule out.
#[must_use]
pub fn calibrated_model(runner: &Runner, cfg: &SimConfig) -> EnergyModel {
    let bench = Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32);
    let dense = arch::dense();
    let report = runner
        .run(&SimJob::new(&dense, &bench, *cfg))
        .expect("Dense runs ResNet50");
    let probe = EnergyModel::with_dram(0.0);
    let compute = probe.compute_energy_pj(&report, cfg);
    let bytes = report.total_bytes() as f64;
    let dram = compute * DENSE_BENCH_MEMORY_SHARE / (1.0 - DENSE_BENCH_MEMORY_SHARE) / bytes;
    EnergyModel::with_dram(dram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_sim::engine;

    #[test]
    fn calibration_hits_80_20() {
        let cfg = SimConfig::fast();
        let model = calibrated_model(&Runner::parallel(), &cfg);
        let bench = Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32);
        let report = engine::simulate(&arch::dense(), &bench, &cfg);
        let e = model.energy(&report, &cfg);
        let share = e.memory_pj / e.total_pj();
        assert!(
            (share - DENSE_BENCH_MEMORY_SHARE).abs() < 1e-6,
            "memory share {share}"
        );
        assert!(model.dram_pj_per_byte > 0.0);
    }

    #[test]
    fn other_benchmarks_split_differently() {
        // MobileNet has fewer operations per byte, so its memory share is
        // higher than ResNet50's (§5.3).
        let cfg = SimConfig::fast();
        let model = calibrated_model(&Runner::parallel(), &cfg);
        let share = |b| {
            let w = Workload::new(b, PruningLevel::Dense, 32);
            let r = engine::simulate(&arch::dense(), &w, &cfg);
            let e = model.energy(&r, &cfg);
            e.memory_pj / e.total_pj()
        };
        let mobile = share(Benchmark::MobileNetV1);
        let resnet = share(Benchmark::ResNet50);
        assert!(
            mobile > resnet,
            "mobilenet {mobile} should exceed resnet {resnet}"
        );
    }
}
