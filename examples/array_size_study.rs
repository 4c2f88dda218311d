//! Figure 14 in miniature: plain vs systolic MAC-array scale-up at a
//! constant device MAC budget, plus a custom geometry of your own.
//!
//! Run with `cargo run --release --example array_size_study`.

use eureka::prelude::*;
use eureka::sim::config::TensorCoreConfig;
use eureka::sim::sweep::{self, ArrayVariant};
use eureka::sim::Runner;

fn main() {
    let cfg = SimConfig::paper_default();
    let workload = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let runner = Runner::parallel();

    println!("Eureka speedup over Dense, ResNet50 (mod), equal MAC budget:\n");
    for v in sweep::figure14_variants() {
        let s = sweep::speedup_at(&runner, &v, &workload, &cfg);
        println!("  {:<16}{:>6.2}x", v.label, s);
    }

    // A custom geometry: one wide systolic row of 4x4 blocks (8 stages).
    let custom = ArrayVariant {
        label: "4x(4x4) row",
        core: TensorCoreConfig {
            sub_array_dim: 4,
            grid_rows: 1,
            grid_cols: 4,
            window: 2,
        },
    };
    let s = sweep::speedup_at(&runner, &custom, &workload, &cfg);
    println!(
        "  {:<16}{:>6.2}x   (custom: deep single-row pipeline)",
        custom.label, s
    );

    println!();
    println!("Plain scale-up pays twice: a hot filter row idles p-1 rows of a");
    println!("monolithic p x p array, and SUDS's single-step displacement cannot");
    println!("spread one row's overflow across a tall array. Systolic composition");
    println!("keeps p = 4 and loses only pipeline-bubble slack, which the offline");
    println!("scheduler recovers (paper §5.5).");
}
