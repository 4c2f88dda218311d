//! BERT-SQuAD under coarse (clustered) filter sparsity: why Eureka beats
//! the two-sided SparTen on transformers (paper §5.1).
//!
//! Run with `cargo run --release --example bert_squad`.

use eureka::energy::calibrate;
use eureka::prelude::*;
use eureka::sim::{Runner, SimJob};

fn main() {
    let cfg = SimConfig::paper_default();
    // One runner for the whole example, so the Dense baselines are
    // simulated once and replayed for every architecture.
    let runner = Runner::parallel();
    let simulate = |a: &dyn arch::Architecture, w: &Workload| {
        runner
            .run(&SimJob::new(a, w, cfg))
            .expect("every architecture runs BERT")
    };
    let model = calibrate::calibrated_model(&runner, &cfg);

    println!("BERT-base SQuAD (seq 384, batch 32): clustered filter sparsity, GELU (dense) activations\n");
    println!(
        "{:<22}{:>10}{:>10}{:>14}{:>14}",
        "architecture", "cons", "mod", "energy(cons)", "energy(mod)"
    );
    let archs: Vec<Box<dyn arch::Architecture>> = vec![
        Box::new(arch::ampere()),
        Box::new(arch::eureka_p4()),
        Box::new(arch::dstc()),
        Box::new(arch::sparten()),
        Box::new(arch::s2ta()),
    ];
    let mut eureka_vs_sparten = (0.0, 0.0);
    for a in &archs {
        let mut speeds = Vec::new();
        let mut energies = Vec::new();
        for level in [PruningLevel::Conservative, PruningLevel::Moderate] {
            let w = Workload::new(Benchmark::BertSquad, level, 32);
            let dense = simulate(&arch::dense(), &w);
            let r = simulate(a.as_ref(), &w);
            speeds.push(engine::speedup(&dense, &r));
            let e_dense = model.energy(&dense, &cfg).total_pj();
            energies.push(model.energy(&r, &cfg).total_pj() / e_dense);
        }
        println!(
            "{:<22}{:>10.2}{:>10.2}{:>14.3}{:>14.3}",
            a.name(),
            speeds[0],
            speeds[1],
            energies[0],
            energies[1]
        );
        if a.name() == "Eureka P=4" {
            eureka_vs_sparten.0 = speeds[1];
        }
        if a.name() == "SparTen" {
            eureka_vs_sparten.1 = speeds[1];
        }
    }

    println!(
        "\nEureka P=4 vs SparTen at moderate pruning: {:.2}x vs {:.2}x —",
        eureka_vs_sparten.0, eureka_vs_sparten.1
    );
    println!("SparTen fetches BERT's nearly-dense activation chunks and skips over the");
    println!("pruned-away filter blocks, wasting front-end cycles; Eureka's SUDS fills");
    println!("the sparse chunks with non-zero weights from elsewhere (paper §5.1).");

    // The representative mean (75% BERT per TPUv4i's workload mix) is what
    // makes this matter: transformers dominate modern serving fleets.
    let fig11 = eureka_bench_like_rep_mean(simulate);
    println!(
        "\nrep-mean speedups (75% BERT / 25% CNNs): Eureka P=4 {:.2}x, SparTen {:.2}x",
        fig11.0, fig11.1
    );
}

/// Representative mean over the full benchmark grid for two architectures.
fn eureka_bench_like_rep_mean(
    simulate: impl Fn(&dyn arch::Architecture, &Workload) -> SimReport,
) -> (f64, f64) {
    let mut eureka = (0.0, 0, 0.0, 0); // (bert_sum, n, cnn_sum, n)
    let mut sparten = (0.0, 0, 0.0, 0);
    for b in Benchmark::all() {
        for level in [PruningLevel::Conservative, PruningLevel::Moderate] {
            let w = Workload::new(b, level, 32);
            let dense = simulate(&arch::dense(), &w);
            let se = engine::speedup(&dense, &simulate(&arch::eureka_p4(), &w));
            let ss = engine::speedup(&dense, &simulate(&arch::sparten(), &w));
            if b == Benchmark::BertSquad {
                eureka.0 += se;
                eureka.1 += 1;
                sparten.0 += ss;
                sparten.1 += 1;
            } else {
                eureka.2 += se;
                eureka.3 += 1;
                sparten.2 += ss;
                sparten.3 += 1;
            }
        }
    }
    (
        0.75 * eureka.0 / eureka.1 as f64 + 0.25 * eureka.2 / eureka.3 as f64,
        0.75 * sparten.0 / sparten.1 as f64 + 0.25 * sparten.2 / sparten.3 as f64,
    )
}
