//! Converting simulation activity into energy (Figure 13).
//!
//! Compute energy is op-based: every multiply pays the MAC energy plus its
//! architecture's per-op component energies (from the Table 2 powers at a
//! 1 ns cycle); idle MAC-cycles pay a clock-gated residual; SparTen's
//! front-end logic and buffers draw power for its whole compute time;
//! DSTC's crossbar pays per routed partial product. Memory energy is DRAM
//! bytes × a per-byte energy calibrated by [`crate::calibrate`] to the
//! paper's 80/20 dense compute/memory split (§5.3).

use crate::area::{extras_energy_pj, MacVariant};
use crate::components::{energy_per_op_pj, spec, Component};
use eureka_sim::{SimConfig, SimReport};

/// Energy totals for one simulation, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// On-chip compute energy (MACs, muxes, CSAs, crossbars, buffers,
    /// idle residual).
    pub compute_pj: f64,
    /// Off-chip memory energy.
    pub memory_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.memory_pj
    }
}

/// Per-component compute-energy detail, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ComponentDetail {
    /// FP16 multiplier/adder energy.
    pub mac_pj: f64,
    /// Operand multiplexers of all widths.
    pub mux_pj: f64,
    /// SUDS three-input carry-save adds.
    pub csa_pj: f64,
    /// DSTC crossbar routing.
    pub crossbar_pj: f64,
    /// SparTen prefix-sum / priority-encoder logic.
    pub prefix_pj: f64,
    /// Local buffer traffic.
    pub buffer_pj: f64,
    /// Clock-gated idle residual.
    pub idle_pj: f64,
    /// Off-chip memory.
    pub memory_pj: f64,
}

impl ComponentDetail {
    /// Sum of all components.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.mac_pj
            + self.mux_pj
            + self.csa_pj
            + self.crossbar_pj
            + self.prefix_pj
            + self.buffer_pj
            + self.idle_pj
            + self.memory_pj
    }
}

/// The energy model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Cycle time in nanoseconds (per-op energies assume 1 op/cycle).
    pub cycle_ns: f64,
    /// Residual power of a clock-gated idle MAC, as a fraction of its
    /// active power.
    pub idle_power_fraction: f64,
    /// Energy per FP16 value moved through a local buffer (pJ): a 2-byte
    /// access to a ~280 B double-buffered register file at 15 nm. This is
    /// what makes SparTen's "large buffering" expensive (§5.3).
    pub buffer_pj_per_value: f64,
    /// DRAM energy per byte (pJ); see [`crate::calibrate`].
    pub dram_pj_per_byte: f64,
}

impl EnergyModel {
    /// A model with an explicit DRAM energy (use
    /// [`crate::calibrate::calibrated_model`] for the paper's 80/20
    /// methodology).
    #[must_use]
    pub fn with_dram(dram_pj_per_byte: f64) -> Self {
        EnergyModel {
            cycle_ns: 1.0,
            idle_power_fraction: 0.03,
            buffer_pj_per_value: 0.12,
            dram_pj_per_byte,
        }
    }

    /// Compute energy of a simulation.
    #[must_use]
    pub fn compute_energy_pj(&self, report: &SimReport, cfg: &SimConfig) -> f64 {
        let ops = report.ops();
        let t = self.cycle_ns;
        let mut e = report.mac_ops() as f64 * energy_per_op_pj(Component::Mac) * t;
        e += ops.mux2 as f64 * energy_per_op_pj(Component::Mux2) * t;
        e += ops.mux4 as f64 * energy_per_op_pj(Component::Mux4) * t;
        e += ops.mux8 as f64 * energy_per_op_pj(Component::Mux8) * t;
        e += ops.mux16 as f64 * energy_per_op_pj(Component::Mux16) * t;
        e += ops.csa as f64 * energy_per_op_pj(Component::FpCsa) * t;
        // DSTC crossbar: the per-MAC crossbar power serves the whole
        // core's 64 MACs while committing `width` products per cycle.
        if ops.crossbar > 0 {
            let per_product =
                spec(Component::DstcCrossbar).power_uw * 1e-3 * cfg.core.macs() as f64
                    / cfg.dstc_crossbar_width as f64;
            e += ops.crossbar as f64 * per_product * t;
        }
        // SparTen front-end: prefix/priority logic draws power for the
        // whole compute time on every MAC.
        if ops.prefix > 0 {
            let front_uw = spec(Component::SparTenLogic).power_uw;
            e += report.compute_cycles() as f64 * cfg.total_macs() as f64 * front_uw * 1e-3 * t;
        }
        // Local-buffer traffic (SparTen chunk buffers, DSTC accumulation
        // buffers): per-value access energy.
        e += ops.buffer as f64 * self.buffer_pj_per_value;
        // Clock-gated idle residual.
        e += report.idle_mac_cycles() as f64
            * energy_per_op_pj(Component::Mac)
            * self.idle_power_fraction
            * t;
        e
    }

    /// Memory energy of a simulation (full DRAM traffic — the energy
    /// model, unlike the timing model, charges activation traffic in
    /// full, matching the paper's inclusion of off-chip memory energy).
    #[must_use]
    pub fn memory_energy_pj(&self, report: &SimReport) -> f64 {
        report.total_bytes() as f64 * self.dram_pj_per_byte
    }

    /// Full breakdown.
    #[must_use]
    pub fn energy(&self, report: &SimReport, cfg: &SimConfig) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: self.compute_energy_pj(report, cfg),
            memory_pj: self.memory_energy_pj(report),
        }
    }

    /// Per-component compute-energy detail (pJ), for diagnosing where a
    /// scheme's energy goes.
    #[must_use]
    pub fn component_detail(&self, report: &SimReport, cfg: &SimConfig) -> ComponentDetail {
        let ops = report.ops();
        let t = self.cycle_ns;
        let mac = report.mac_ops() as f64 * energy_per_op_pj(Component::Mac) * t;
        let mux = (ops.mux2 as f64 * energy_per_op_pj(Component::Mux2)
            + ops.mux4 as f64 * energy_per_op_pj(Component::Mux4)
            + ops.mux8 as f64 * energy_per_op_pj(Component::Mux8)
            + ops.mux16 as f64 * energy_per_op_pj(Component::Mux16))
            * t;
        let csa = ops.csa as f64 * energy_per_op_pj(Component::FpCsa) * t;
        let crossbar = if ops.crossbar > 0 {
            ops.crossbar as f64
                * spec(Component::DstcCrossbar).power_uw
                * 1e-3
                * cfg.core.macs() as f64
                / cfg.dstc_crossbar_width as f64
                * t
        } else {
            0.0
        };
        let prefix = if ops.prefix > 0 {
            report.compute_cycles() as f64
                * cfg.total_macs() as f64
                * spec(Component::SparTenLogic).power_uw
                * 1e-3
                * t
        } else {
            0.0
        };
        let buffer = ops.buffer as f64 * self.buffer_pj_per_value;
        let idle = report.idle_mac_cycles() as f64
            * energy_per_op_pj(Component::Mac)
            * self.idle_power_fraction
            * t;
        ComponentDetail {
            mac_pj: mac,
            mux_pj: mux,
            csa_pj: csa,
            crossbar_pj: crossbar,
            prefix_pj: prefix,
            buffer_pj: buffer,
            idle_pj: idle,
            memory_pj: self.memory_energy_pj(report),
        }
    }

    /// *Dense Bench* energy (Figure 13's unpruned column): the model runs
    /// in dense mode — `report` must come from the **Dense** timing
    /// model — while paying for `variant`'s sparsity hardware on every
    /// operation.
    #[must_use]
    pub fn dense_mode_energy(
        &self,
        dense_report: &SimReport,
        variant: MacVariant,
        cfg: &SimConfig,
    ) -> EnergyBreakdown {
        let t = self.cycle_ns;
        let mac = energy_per_op_pj(Component::Mac);
        let mut compute = dense_report.mac_ops() as f64 * (mac + extras_energy_pj(variant)) * t;
        compute += dense_report.idle_mac_cycles() as f64 * mac * self.idle_power_fraction * t;
        let _ = cfg;
        EnergyBreakdown {
            compute_pj: compute,
            memory_pj: self.memory_energy_pj(dense_report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eureka_models::{Benchmark, PruningLevel, Workload};
    use eureka_sim::{arch, engine};

    fn setup() -> (SimConfig, Workload) {
        (
            SimConfig::fast(),
            Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32),
        )
    }

    #[test]
    fn eureka_saves_energy_over_dense_and_ampere() {
        let (cfg, w) = setup();
        let model = crate::calibrate::calibrated_model(&eureka_sim::Runner::parallel(), &cfg);
        let dense = model.energy(&engine::simulate(&arch::dense(), &w, &cfg), &cfg);
        let ampere = model.energy(&engine::simulate(&arch::ampere(), &w, &cfg), &cfg);
        let eureka = model.energy(&engine::simulate(&arch::eureka_p4(), &w, &cfg), &cfg);
        assert!(ampere.total_pj() < dense.total_pj());
        assert!(eureka.total_pj() < ampere.total_pj());
        let vs_dense = dense.total_pj() / eureka.total_pj();
        assert!((2.0..5.0).contains(&vs_dense), "eureka vs dense {vs_dense}");
    }

    #[test]
    fn sparten_pays_for_buffers() {
        let (cfg, w) = setup();
        let model = EnergyModel::with_dram(0.0);
        let sparten = model.energy(&engine::simulate(&arch::sparten(), &w, &cfg), &cfg);
        let eureka = model.energy(&engine::simulate(&arch::eureka_p4(), &w, &cfg), &cfg);
        // SparTen is faster on CNNs but burns more compute energy (§5.3).
        assert!(sparten.compute_pj > eureka.compute_pj);
    }

    #[test]
    fn dense_bench_overheads_ordered() {
        let (cfg, _) = setup();
        let w = Workload::new(Benchmark::ResNet50, PruningLevel::Dense, 32);
        let dense_r = engine::simulate(&arch::dense(), &w, &cfg);
        let model = EnergyModel::with_dram(0.0);
        let base = model.dense_mode_energy(&dense_r, MacVariant::Dense, &cfg);
        let ampere = model.dense_mode_energy(&dense_r, MacVariant::Ampere, &cfg);
        let eureka = model.dense_mode_energy(&dense_r, MacVariant::EurekaP4, &cfg);
        let dstc = model.dense_mode_energy(&dense_r, MacVariant::Dstc, &cfg);
        assert!(base.compute_pj < ampere.compute_pj);
        assert!(ampere.compute_pj < eureka.compute_pj);
        assert!(eureka.compute_pj < dstc.compute_pj);
        // Eureka's dense overhead stays modest (paper: ~20%; component
        // model: ~14%).
        let overhead = eureka.compute_pj / base.compute_pj - 1.0;
        assert!((0.05..0.25).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn component_detail_sums_to_total() {
        let (cfg, w) = setup();
        let model = crate::calibrate::calibrated_model(&eureka_sim::Runner::parallel(), &cfg);
        for report in [
            engine::simulate(&arch::eureka_p4(), &w, &cfg),
            engine::simulate(&arch::sparten(), &w, &cfg),
            engine::simulate(&arch::dstc(), &w, &cfg),
        ] {
            let d = model.component_detail(&report, &cfg);
            let e = model.energy(&report, &cfg);
            assert!(
                (d.total_pj() - e.total_pj()).abs() / e.total_pj() < 1e-9,
                "{}: detail {} vs total {}",
                report.arch,
                d.total_pj(),
                e.total_pj()
            );
        }
        // Shape: SparTen's buffers dominate its overhead; Eureka's CSA is
        // a sliver of its MAC energy.
        let sp = model.component_detail(&engine::simulate(&arch::sparten(), &w, &cfg), &cfg);
        assert!(sp.buffer_pj > sp.prefix_pj);
        let eu = model.component_detail(&engine::simulate(&arch::eureka_p4(), &w, &cfg), &cfg);
        assert!(eu.csa_pj < 0.1 * eu.mac_pj);
        assert_eq!(eu.crossbar_pj, 0.0);
    }

    #[test]
    fn memory_energy_scales_with_bytes() {
        let model = EnergyModel::with_dram(2.0);
        let (cfg, w) = setup();
        let r = engine::simulate(&arch::dense(), &w, &cfg);
        assert!((model.memory_energy_pj(&r) - 2.0 * r.total_bytes() as f64).abs() < 1e-6);
    }
}
