//! Implementing your own architecture against the simulator's
//! [`Architecture`] trait: a hypothetical "Eureka-lite" that keeps the
//! 16-1 compaction mux but replaces optimal SUDS with the greedy
//! assignment and a wider scheduling window — a cheaper offline flow.
//!
//! Run with `cargo run --release --example custom_architecture`.

use eureka::models::workload::LayerGemm;
use eureka::prelude::*;
use eureka::sim::arch::{Architecture, LayerCtx, OneSided, ScheduleMode, SimError, TileTimer};
use eureka::sim::{LayerReport, Runner, SimJob};

/// Greedy SUDS + grouped scheduling with a window of 4.
struct EurekaLite {
    inner: OneSided,
}

impl EurekaLite {
    fn new() -> Self {
        EurekaLite {
            inner: OneSided::new(
                "Eureka-lite",
                4,
                TileTimer::GreedySuds,
                ScheduleMode::Grouped,
            ),
        }
    }
}

impl Architecture for EurekaLite {
    fn name(&self) -> &str {
        "Eureka-lite"
    }

    fn simulate_layer(
        &self,
        gemm: &LayerGemm,
        ctx: &LayerCtx,
        cfg: &SimConfig,
    ) -> Result<LayerReport, SimError> {
        // Delegate the tile-stream engine, but widen the scheduler window
        // to partially compensate for the greedy assignment's longer and
        // more varied critical paths.
        let mut wide = *cfg;
        wide.core.window = 4;
        self.inner.simulate_layer(gemm, ctx, &wide)
    }
}

fn main() {
    let cfg = SimConfig::paper_default();
    // One runner, so the CSV export below replays its sweep run.
    let runner = Runner::parallel();
    let simulate = |a: &dyn Architecture, w: &Workload| {
        runner
            .run(&SimJob::new(a, w, cfg))
            .expect("every architecture runs these workloads")
    };
    println!(
        "{:<14}{:>12}{:>14}{:>14}",
        "workload", "Eureka-lite", "Greedy SUDS", "Eureka P=4"
    );
    for bench in [Benchmark::ResNet50, Benchmark::BertSquad] {
        let w = Workload::new(bench, PruningLevel::Moderate, 32);
        let dense = simulate(&arch::dense(), &w);
        let lite = simulate(&EurekaLite::new(), &w);
        let greedy = simulate(&arch::greedy_suds_p4(), &w);
        let full = simulate(&arch::eureka_p4(), &w);
        println!(
            "{:<14}{:>11.2}x{:>13.2}x{:>13.2}x",
            bench.name(),
            engine::speedup(&dense, &lite),
            engine::speedup(&dense, &greedy),
            engine::speedup(&dense, &full),
        );
    }
    println!();
    println!("A wider window claws back part of the greedy assignment's loss, but");
    println!("the optimal polynomial-time assignment (Eureka P=4) still wins — the");
    println!("paper's argument for doing the work assignment exactly, offline.");

    // Export the per-layer data for external plotting.
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let report = simulate(&EurekaLite::new(), &w);
    let csv = report.to_csv();
    println!(
        "\nCSV export ({} layers, first two rows):",
        report.layers.len()
    );
    for line in csv.lines().take(3) {
        println!("  {line}");
    }
}
