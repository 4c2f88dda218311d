//! Simulate a full ResNet50 inference (batch 32) across architectures and
//! break the result down by network stage.
//!
//! Run with `cargo run --release --example resnet50_inference`.

use eureka::prelude::*;
use eureka::sim::{memory, Runner, SimJob};

fn main() {
    let cfg = SimConfig::paper_default();
    let workload = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    // One runner, so the Eureka P=4 breakdown below replays its sweep run.
    let runner = Runner::parallel();
    let simulate = |a: &dyn arch::Architecture| {
        runner
            .run(&SimJob::new(a, &workload, cfg))
            .expect("every architecture runs ResNet50")
    };
    println!(
        "ResNet50, moderate pruning: {} layers, {:.0}% filter density, {:.1} GMACs/batch",
        workload.layer_count(),
        100.0 * workload.global_weight_density(),
        workload.total_macs() as f64 / 1e9,
    );

    let dense = simulate(&arch::dense());
    let archs: Vec<Box<dyn arch::Architecture>> = vec![
        Box::new(arch::ampere()),
        Box::new(arch::cnvlutin_like()),
        Box::new(arch::eureka_p2()),
        Box::new(arch::eureka_p4()),
        Box::new(arch::ideal()),
    ];

    println!(
        "\n{:<16}{:>12}{:>10}{:>10}{:>12}",
        "architecture", "cycles", "speedup", "mem %", "MAC util %"
    );
    println!(
        "{:<16}{:>12}{:>10}{:>10.1}{:>12.1}",
        dense.arch,
        dense.total_cycles(),
        "1.00",
        100.0 * dense.mem_share(),
        100.0 * dense.mac_utilization()
    );
    for a in &archs {
        let r = simulate(a.as_ref());
        println!(
            "{:<16}{:>12}{:>10.2}{:>10.1}{:>12.1}",
            r.arch,
            r.total_cycles(),
            engine::speedup(&dense, &r),
            100.0 * r.mem_share(),
            100.0 * r.mac_utilization()
        );
    }

    // Per-stage breakdown under Eureka P=4: where do the cycles go?
    let eureka = simulate(&arch::eureka_p4());
    let mut stages: Vec<(&str, u64, u64)> = vec![
        ("stem (conv1)", 0, 0),
        ("conv2_x", 0, 0),
        ("conv3_x", 0, 0),
        ("conv4_x", 0, 0),
        ("conv5_x", 0, 0),
    ];
    for (d, e) in dense.layers.iter().zip(&eureka.layers) {
        let idx = match () {
            () if d.name.starts_with("conv1") => 0,
            () if d.name.starts_with("conv2") => 1,
            () if d.name.starts_with("conv3") => 2,
            () if d.name.starts_with("conv4") => 3,
            _ => 4,
        };
        stages[idx].1 += d.total_cycles();
        stages[idx].2 += e.total_cycles();
    }
    println!("\nper-stage cycles (Dense -> Eureka P=4):");
    for (name, dc, ec) in stages {
        println!(
            "  {:<14}{:>12} -> {:>12}   ({:.2}x)",
            name,
            dc,
            ec,
            dc as f64 / ec as f64
        );
    }

    // The paper's bandwidth observation: peak demand far below 1.5 TB/s.
    let peak = eureka
        .layers
        .iter()
        .map(|l| memory::bandwidth_demand(l, &cfg.mem))
        .fold(0.0f64, f64::max);
    println!(
        "\npeak DRAM bandwidth demand: {:.0} GB/s (available: {:.0} GB/s)",
        peak, cfg.mem.bytes_per_cycle
    );
}
