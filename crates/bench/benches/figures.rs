//! Criterion benches: one per reproduced table/figure.
//!
//! Each bench times the full experiment harness at a reduced sampling
//! configuration (identical model, lighter statistics) so the suite stays
//! fast; `eureka figure <name>` runs the paper-scale configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use eureka_bench::{figure, FIGURES};
use eureka_sim::{Runner, SimConfig};
use std::hint::black_box;

/// Reduced-sampling configuration for benchmarking the harness itself.
fn bench_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 8,
        slice_samples: 8,
        act_samples: 8,
        ..SimConfig::paper_default()
    }
}

fn bench_figures(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for name in FIGURES {
        group.bench_function(name, |b| {
            b.iter(|| black_box(figure(name, &runner, &cfg)));
        });
    }
    group.finish();
}

criterion_group!(figures, bench_figures);
criterion_main!(figures);
