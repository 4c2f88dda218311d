//! Criterion benches: one per reproduced table/figure.
//!
//! Each bench times the full experiment harness at a reduced sampling
//! configuration (identical model, lighter statistics) so the suite stays
//! fast; the `src/bin/*` binaries run the paper-scale configuration.

use criterion::{criterion_group, criterion_main, Criterion};
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

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_benchmarks", |b| {
        b.iter(|| black_box(eureka_bench::table1()));
    });
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2_area_power", |b| {
        b.iter(|| black_box(eureka_bench::table2()));
    });
}

fn bench_fig09(c: &mut Criterion) {
    let cfg = bench_cfg();
    c.bench_function("fig09_critical_path_distribution", |b| {
        b.iter(|| black_box(eureka_bench::figure9(&cfg)));
    });
}

fn bench_fig11(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("fig11_performance");
    group.sample_size(10);
    group.bench_function("all_archs_all_benchmarks", |b| {
        b.iter(|| black_box(eureka_bench::figure11(&runner, &cfg)));
    });
    group.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("fig12_isolation");
    group.sample_size(10);
    group.bench_function("technique_progression", |b| {
        b.iter(|| black_box(eureka_bench::figure12(&runner, &cfg)));
    });
    group.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("fig13_energy");
    group.sample_size(10);
    group.bench_function("all_archs_all_benchmarks", |b| {
        b.iter(|| black_box(eureka_bench::figure13(&runner, &cfg)));
    });
    group.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("fig14_array_size");
    group.sample_size(10);
    group.bench_function("five_geometries", |b| {
        b.iter(|| black_box(eureka_bench::figure14(&runner, &cfg)));
    });
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let cfg = bench_cfg();
    let runner = Runner::parallel();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("reach_sweep", |b| {
        b.iter(|| black_box(eureka_bench::ablations::reach_sweep(&runner, &cfg)));
    });
    group.bench_function("compaction_sweep", |b| {
        b.iter(|| black_box(eureka_bench::ablations::compaction_sweep(&runner, &cfg)));
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_table1,
    bench_table2,
    bench_fig09,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_ablations
);
criterion_main!(figures);
