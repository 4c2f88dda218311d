//! Simulation reports.

/// Per-component activity counters consumed by the energy model
/// (`eureka-energy`). Counts are *operations*, not cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// 2-1 multiplexer selections (the SUDS adder-input gates; two per
    /// displaced-capable MAC cycle).
    pub mux2: u64,
    /// 4-1 multiplexer selections (Ampere 2:4, S2TA).
    pub mux4: u64,
    /// 8-1 multiplexer selections (Eureka P=2).
    pub mux8: u64,
    /// 16-1 multiplexer selections (Eureka P=4, Cnvlutin-like).
    pub mux16: u64,
    /// Three-input carry-save adds (Eureka's SUDS adder; counted only for
    /// cycles where the third input is active).
    pub csa: u64,
    /// Crossbar partial-product transfers (DSTC).
    pub crossbar: u64,
    /// Prefix-sum / priority-encoder chunk-pair operations (SparTen).
    pub prefix: u64,
    /// Buffered values moved beyond the baseline register traffic
    /// (SparTen's 280 B/MAC chunk buffers, DSTC accumulation buffers).
    pub buffer: u64,
}

impl OpCounts {
    /// Element-wise sum.
    #[allow(clippy::should_implement_trait)] // counter merge, not arithmetic on values
    #[must_use]
    pub fn add(self, other: OpCounts) -> OpCounts {
        OpCounts {
            mux2: self.mux2 + other.mux2,
            mux4: self.mux4 + other.mux4,
            mux8: self.mux8 + other.mux8,
            mux16: self.mux16 + other.mux16,
            csa: self.csa + other.csa,
            crossbar: self.crossbar + other.crossbar,
            prefix: self.prefix + other.prefix,
            buffer: self.buffer + other.buffer,
        }
    }

    /// Total wide operand-multiplexer selections of any width.
    #[must_use]
    pub fn mux_total(&self) -> u64 {
        self.mux2 + self.mux4 + self.mux8 + self.mux16
    }
}

/// Timing and activity of one layer under one architecture.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Device-level compute cycles (all tensor cores working in parallel).
    pub compute_cycles: u64,
    /// Exposed (non-overlapped) memory cycles.
    pub mem_cycles: u64,
    /// Multiplications actually executed.
    pub mac_ops: u64,
    /// MAC-cycles of idle capacity during the layer's compute time.
    pub idle_mac_cycles: u64,
    /// Device cycles lost to systolic macro-step mismatch (Figure 10's
    /// bubbles), scaled from the sampled pipeline's row-cycle accounting.
    /// Zero for architectures whose tiles all take the same time.
    pub bubble_cycles: u64,
    /// DRAM bytes: filter weights (including sparse-format payload).
    pub weight_bytes: u64,
    /// DRAM bytes: input activations.
    pub act_bytes: u64,
    /// DRAM bytes: outputs.
    pub out_bytes: u64,
    /// DRAM bytes: sparsity metadata.
    pub metadata_bytes: u64,
    /// Component activity for the energy model.
    pub ops: OpCounts,
}

impl LayerReport {
    /// Total cycles attributed to this layer.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.mem_cycles
    }

    /// All DRAM traffic.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.act_bytes + self.out_bytes + self.metadata_bytes
    }

    /// This layer's MAC utilization: useful multiplies per MAC-cycle of
    /// compute (0.0 for a layer that did nothing).
    #[must_use]
    pub fn mac_utilization(&self) -> f64 {
        let denom = self.mac_ops + self.idle_mac_cycles;
        if denom == 0 {
            return 0.0;
        }
        self.mac_ops as f64 / denom as f64
    }
}

/// A full workload × architecture simulation result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Architecture name.
    pub arch: String,
    /// Workload description (benchmark + pruning + batch).
    pub workload: String,
    /// Per-layer results.
    pub layers: Vec<LayerReport>,
}

impl SimReport {
    /// Sum of per-layer total cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerReport::total_cycles).sum()
    }

    /// Sum of compute cycles only.
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.compute_cycles).sum()
    }

    /// Sum of exposed memory cycles.
    #[must_use]
    pub fn mem_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.mem_cycles).sum()
    }

    /// Fraction of execution time spent in (exposed) memory.
    #[must_use]
    pub fn mem_share(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            return 0.0;
        }
        self.mem_cycles() as f64 / t as f64
    }

    /// Total multiplications executed.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.mac_ops).sum()
    }

    /// Total idle MAC-cycles.
    #[must_use]
    pub fn idle_mac_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.idle_mac_cycles).sum()
    }

    /// Total systolic-bubble cycles across layers.
    #[must_use]
    pub fn bubble_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.bubble_cycles).sum()
    }

    /// Total DRAM traffic in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(LayerReport::total_bytes).sum()
    }

    /// Aggregated component activity.
    #[must_use]
    pub fn ops(&self) -> OpCounts {
        self.layers
            .iter()
            .fold(OpCounts::default(), |acc, l| acc.add(l.ops))
    }

    /// Device MAC utilization: useful multiplies per MAC-cycle of compute.
    #[must_use]
    pub fn mac_utilization(&self) -> f64 {
        let denom = self.mac_ops() + self.idle_mac_cycles();
        if denom == 0 {
            return 0.0;
        }
        self.mac_ops() as f64 / denom as f64
    }

    /// The layer with the given name, if present. Degraded runs drop
    /// failed layers from `layers`, so positional lookups no longer line
    /// up across runs — compare survivors by name instead.
    #[must_use]
    pub fn layer_by_name(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Wall-clock runtime in milliseconds at the given core clock.
    #[must_use]
    pub fn runtime_ms(&self, clock_ghz: f64) -> f64 {
        self.total_cycles() as f64 / (clock_ghz * 1e6)
    }

    /// Inference throughput in inputs per second for a batch of
    /// `batch` at the given clock.
    #[must_use]
    pub fn throughput_per_s(&self, batch: usize, clock_ghz: f64) -> f64 {
        if self.total_cycles() == 0 {
            return 0.0;
        }
        batch as f64 / (self.runtime_ms(clock_ghz) / 1e3)
    }

    /// Serializes the per-layer results as CSV (header + one row per
    /// layer), for plotting outside the harness.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "layer,compute_cycles,mem_cycles,mac_ops,idle_mac_cycles,\
             bubble_cycles,mac_utilization,\
             weight_bytes,act_bytes,out_bytes,metadata_bytes\n",
        );
        for l in &self.layers {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{},{},{},{}\n",
                l.name,
                l.compute_cycles,
                l.mem_cycles,
                l.mac_ops,
                l.idle_mac_cycles,
                l.bubble_cycles,
                l.mac_utilization(),
                l.weight_bytes,
                l.act_bytes,
                l.out_bytes,
                l.metadata_bytes
            ));
        }
        out
    }
}

impl core::fmt::Display for SimReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{} on {}", self.arch, self.workload)?;
        writeln!(
            f,
            "  cycles: {} (compute {}, memory {} = {:.1}%)",
            self.total_cycles(),
            self.compute_cycles(),
            self.mem_cycles(),
            100.0 * self.mem_share()
        )?;
        writeln!(
            f,
            "  MACs: {} useful ({:.1}% utilization), {} layers, {} DRAM bytes",
            self.mac_ops(),
            100.0 * self.mac_utilization(),
            self.layers.len(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(compute: u64, mem: u64, macs: u64) -> LayerReport {
        LayerReport {
            name: "l".into(),
            compute_cycles: compute,
            mem_cycles: mem,
            mac_ops: macs,
            idle_mac_cycles: 10,
            bubble_cycles: 7,
            weight_bytes: 100,
            act_bytes: 200,
            out_bytes: 50,
            metadata_bytes: 5,
            ops: OpCounts {
                mux4: macs,
                ..OpCounts::default()
            },
        }
    }

    #[test]
    fn totals_aggregate() {
        let r = SimReport {
            arch: "Dense".into(),
            workload: "test".into(),
            layers: vec![layer(100, 10, 1000), layer(200, 30, 3000)],
        };
        assert_eq!(r.total_cycles(), 340);
        assert_eq!(r.compute_cycles(), 300);
        assert_eq!(r.mem_cycles(), 40);
        assert!((r.mem_share() - 40.0 / 340.0).abs() < 1e-12);
        assert_eq!(r.mac_ops(), 4000);
        assert_eq!(r.bubble_cycles(), 14);
        assert_eq!(r.total_bytes(), 2 * 355);
        assert_eq!(r.ops().mux_total(), 4000);
        assert!((r.mac_utilization() - 4000.0 / 4020.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report() {
        let r = SimReport::default();
        assert_eq!(r.total_cycles(), 0);
        assert_eq!(r.mem_share(), 0.0);
        assert_eq!(r.mac_utilization(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let r = SimReport {
            arch: "Dense".into(),
            workload: "ResNet50 (mod, batch 32)".into(),
            layers: vec![layer(100, 10, 1000)],
        };
        let s = r.to_string();
        assert!(s.contains("Dense on ResNet50"));
        assert!(s.contains("cycles: 110"));
        assert!(s.contains("1 layers"));
    }

    #[test]
    fn layer_lookup_by_name() {
        let mut named = layer(100, 10, 1000);
        named.name = "conv2".into();
        let r = SimReport {
            arch: "Dense".into(),
            workload: "t".into(),
            layers: vec![layer(1, 1, 1), named],
        };
        assert_eq!(r.layer_by_name("conv2").unwrap().compute_cycles, 100);
        assert!(r.layer_by_name("missing").is_none());
    }

    #[test]
    fn runtime_metrics() {
        let r = SimReport {
            arch: "Dense".into(),
            workload: "t".into(),
            layers: vec![layer(1_000_000, 0, 1)],
        };
        // 1M cycles at 1 GHz = 1 ms; batch 32 -> 32k inputs/s.
        assert!((r.runtime_ms(1.0) - 1.0).abs() < 1e-9);
        assert!((r.throughput_per_s(32, 1.0) - 32_000.0).abs() < 1e-6);
        assert_eq!(SimReport::default().throughput_per_s(32, 1.0), 0.0);
    }

    #[test]
    fn csv_round_data() {
        let r = SimReport {
            arch: "Dense".into(),
            workload: "t".into(),
            layers: vec![layer(100, 10, 1000)],
        };
        let csv = r.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("layer,compute_cycles"));
        assert!(header.contains("bubble_cycles,mac_utilization"));
        // 1000 / (1000 + 10) = 0.990099... -> 0.9901 at 4 places.
        assert_eq!(
            lines.next().unwrap(),
            "l,100,10,1000,10,7,0.9901,100,200,50,5"
        );
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn opcounts_add() {
        let a = OpCounts {
            mux2: 1,
            mux4: 1,
            mux8: 1,
            mux16: 1,
            csa: 2,
            crossbar: 3,
            prefix: 4,
            buffer: 5,
        };
        let b = a.add(a);
        assert_eq!(b.mux_total(), 8);
        assert_eq!(b.buffer, 10);
    }
}
