//! Serial vs parallel runner on the headline workload (ResNet-50,
//! moderate pruning, Eureka P=4), plus the measured speedup and the
//! telemetry (span-recording) overhead on the serial path, and the cost
//! of loading a directory of unit records, which a warm `--store-dir`
//! rerun pays before it replays its first unit.
//!
//! Every iteration builds a fresh runner with unit records off, so both
//! modes do the full per-layer work; the determinism contract guarantees
//! they produce bit-identical reports, so any timing gap is pure
//! scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::span::Spans;
use eureka_sim::checkpoint::UnitRecords;
use eureka_sim::{arch, LayerReport, ProfileConfig, Runner, SimConfig, SimJob};
use std::time::Instant;

fn bench_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 48,
        slice_samples: 48,
        act_samples: 32,
        ..SimConfig::paper_default()
    }
}

fn serial_vs_parallel(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);

    let mut group = c.benchmark_group("runner/resnet50-moderate");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| Runner::serial().without_cache().run(&job).unwrap())
    });
    group.bench_function("parallel", |b| {
        b.iter(|| Runner::parallel().without_cache().run(&job).unwrap())
    });
    group.finish();

    // Record the speedup directly in the bench output.
    let time = |r: Runner| {
        let r = r.without_cache();
        let start = Instant::now();
        for _ in 0..5 {
            r.run(&job).unwrap();
        }
        start.elapsed()
    };
    let serial = time(Runner::serial());
    let parallel = time(Runner::parallel());
    println!(
        "runner/resnet50-moderate speedup: {:.2}x ({} workers; serial {:.1} ms, parallel {:.1} ms per run)",
        serial.as_secs_f64() / parallel.as_secs_f64(),
        Runner::parallel().effective_jobs(),
        serial.as_secs_f64() * 1e3 / 5.0,
        parallel.as_secs_f64() * 1e3 / 5.0,
    );
}

/// Serial run on a runner without spans vs one recording them — the
/// instrumentation budget (acceptance: well under 5% on this workload).
/// Each iteration builds a fresh runner, so no trace outgrows one run.
fn telemetry_overhead(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);
    let runner = |on: bool| {
        let runner = Runner::serial().without_cache();
        if on {
            runner.with_spans(Spans::recording())
        } else {
            runner
        }
    };

    let mut group = c.benchmark_group("runner/telemetry");
    group.sample_size(10);
    group.bench_function("spans-off", |b| b.iter(|| runner(false).run(&job).unwrap()));
    group.bench_function("spans-on", |b| b.iter(|| runner(true).run(&job).unwrap()));
    group.finish();

    let time = |on: bool| {
        let start = Instant::now();
        for _ in 0..5 {
            runner(on).run(&job).unwrap();
        }
        start.elapsed()
    };
    let off = time(false);
    let on = time(true);
    println!(
        "runner/telemetry overhead: {:+.2}% (off {:.1} ms, on {:.1} ms per run)",
        100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0),
        off.as_secs_f64() * 1e3 / 5.0,
        on.as_secs_f64() * 1e3 / 5.0,
    );
}

/// Plain run vs cycle-attribution profiling on the serial path — the
/// profiler's budget (acceptance: under 5% on this workload). The plain
/// path monomorphizes over the no-op sink, so "off" here is the exact
/// code every non-profiled run executes.
fn profile_overhead(c: &mut Criterion) {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = bench_cfg();
    let eureka = arch::eureka_p4();
    let job = SimJob::new(&eureka, &w, cfg);
    let pcfg = ProfileConfig::default();

    let mut group = c.benchmark_group("runner/profile");
    group.sample_size(10);
    group.bench_function("profiling-off", |b| {
        b.iter(|| Runner::serial().without_cache().run(&job).unwrap())
    });
    group.bench_function("profiling-on", |b| {
        b.iter(|| {
            Runner::serial()
                .without_cache()
                .run_profiled(&job, &pcfg)
                .unwrap()
        })
    });
    group.finish();

    let start = Instant::now();
    for _ in 0..5 {
        Runner::serial().without_cache().run(&job).unwrap();
    }
    let off = start.elapsed();
    let start = Instant::now();
    for _ in 0..5 {
        Runner::serial()
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
    }
    let on = start.elapsed();
    println!(
        "runner/profile overhead: {:+.2}% (off {:.1} ms, profiled {:.1} ms per run)",
        100.0 * (on.as_secs_f64() / off.as_secs_f64() - 1.0),
        off.as_secs_f64() * 1e3 / 5.0,
        on.as_secs_f64() * 1e3 / 5.0,
    );
}

/// Loads a 4,096-record log through fresh [`UnitRecords`], as the first
/// lookup of a warm `--store-dir` run does (on one thread here), looks
/// every record up in a loaded log, as a warm run's replays do, and
/// appends the records to a fresh log. Keys have the shape and length
/// (~330 bytes) of real unit keys.
fn checkpoint_load(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("eureka-bench-units-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = "cfg=tc432,sa4,gr2,gc2,w2,bpc4097700000000000,l23fe6666666666666,\
               rf3fbc28f5c28f5c29,rg96,sl96,ac64,sg3fe999999999999a,sc4010000000000000,xw16,dmfalse";
    let key = |i: u64| {
        format!(
            "v1|arch=Eureka P=4|gemm=block{}/conv{}|nkm=64x576x{}|uab=15052800|wd={:016x}|\
             cl=false|dw=false|ad=3fdccccccccccccd|s2a=-|s2f=-|seed={:016x}|stream={}|{cfg}",
            i / 64,
            i % 64,
            3136 + i,
            0x3fd1_d5a5_d007_d768_u64 ^ i,
            0x0e00_0000_0000_0200_u64 + i % 7,
            i % 64,
        )
    };
    let records = UnitRecords::in_dir(&dir);
    let mut written = Vec::with_capacity(4096);
    for i in 0..4096 {
        let report = LayerReport {
            name: format!("block{}/conv{}", i / 64, i % 64),
            compute_cycles: 4855 + i,
            mem_cycles: 535,
            mac_ops: 134_230_042 + i,
            weight_bytes: 6848,
            act_bytes: 15_052_800,
            out_bytes: 5_017_600,
            metadata_bytes: 2140,
            ..LayerReport::default()
        };
        records
            .append(&key(i), &report)
            .expect("the record appends");
        written.push((key(i), report));
    }
    let probe = key(17);

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.bench_function("load_4k", |b| {
        b.iter(|| {
            UnitRecords::in_dir(&dir)
                .stored(&probe, &Spans::default(), |_| {})
                .expect("the record loads")
        })
    });
    let loaded = UnitRecords::in_dir(&dir);
    group.bench_function("replay_4k", |b| {
        b.iter(|| {
            for (key, report) in &written {
                let replayed = loaded.stored(key, &Spans::default(), |_| {});
                assert_eq!(replayed.as_ref(), Some(report), "the record replays");
            }
        })
    });
    // The same 4,096 records appended one `append` each to a fresh
    // directory, as a cold `--store-dir` run writes them.
    let fresh = dir.join("append");
    group.bench_function("append_4k", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&fresh);
            let records = UnitRecords::in_dir(&fresh);
            for (key, report) in &written {
                records.append(key, report).expect("the record appends");
            }
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    serial_vs_parallel,
    telemetry_overhead,
    profile_overhead,
    checkpoint_load
);
criterion_main!(benches);
