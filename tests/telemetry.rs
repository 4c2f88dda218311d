//! The telemetry layer's end-to-end guarantees: metrics snapshots are
//! deterministic, the cache counters reconcile with the planner, each
//! runner counts only its own work, trace export covers every unit on
//! every worker track, and — above all — telemetry never changes
//! simulation output.

use eureka::obs;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, ProfileConfig, Runner, SimConfig, SimJob};
use obs::span::Spans;
use std::sync::Barrier;

/// Eureka P=4 whose first two layers wait for each other: two workers
/// must run them at once, so the units land on at least two worker
/// tracks however the pool is scheduled.
struct Rendezvous {
    inner: Box<dyn arch::Architecture>,
    name: String,
    /// The names of the first two layers.
    pair: [String; 2],
    met: Barrier,
}

impl arch::Architecture for Rendezvous {
    fn name(&self) -> &str {
        &self.name
    }

    fn simulate_layer(
        &self,
        gemm: &eureka_models::workload::LayerGemm,
        ctx: &arch::LayerCtx,
        cfg: &SimConfig,
    ) -> Result<eureka_sim::LayerReport, arch::SimError> {
        if self.pair.contains(&gemm.name) {
            self.met.wait();
        }
        self.inner.simulate_layer(gemm, ctx, cfg)
    }
}

/// `runner`'s counter `name` (0 before it is registered).
fn count(runner: &Runner, name: &str) -> u64 {
    runner.metrics().counter_value(name).unwrap_or(0)
}

/// Small sampling counts, so the suite stays fast.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 9,
        slice_samples: 9,
        act_samples: 9,
        ..SimConfig::paper_default()
    }
}

#[test]
fn metrics_snapshot_is_byte_identical_across_reruns() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let run = || {
        let runner = Runner::serial();
        runner.run(&job).expect("supported");
        runner
    };
    let first = run().metrics().snapshot_json(false);
    let runner = run();
    let second = runner.metrics().snapshot_json(false);
    // Timing metrics are excluded by design, so the deterministic
    // snapshot carries only counts — byte-identical across reruns.
    assert_eq!(first, second);
    assert!(first.contains("\"cache.hits\":0"), "{first}");
    assert!(!first.contains("exec_micros"), "timing excluded: {first}");
    // The full snapshot includes the timing histograms.
    let full = runner.metrics().snapshot_json(true);
    assert!(full.contains("\"unit.exec_micros\""), "{full}");
    assert!(full.contains("\"runner.worker_utilization\""), "{full}");
}

#[test]
fn cache_counters_reconcile_with_the_planner() {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let cfg = test_cfg();
    let a = arch::by_name("ampere").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let runner = Runner::with_jobs(4);
    runner.run(&job).expect("supported");
    runner.run(&job).expect("supported");

    let (hits, misses) = (count(&runner, "cache.hits"), count(&runner, "cache.misses"));
    let from_store = count(&runner, "runner.units_from_store");
    let planned = count(&runner, "runner.units_planned");
    assert_eq!(planned, 2 * w.layer_count() as u64);
    // Every planned unit either hit the cache, executed from the tile
    // store, or missed outright. Ampere never consults the tile store
    // (its 2:4 timing is closed-form), so units_from_store stays zero
    // and the miss count is exact.
    assert_eq!(hits + misses + from_store, planned);
    assert_eq!(misses, w.layer_count() as u64);
    assert_eq!(from_store, 0);
}

/// A profiled run counts its own units like a plain one, and the
/// reconciliation still holds after a plain run of the same job:
/// profiled units neither replay nor record, so the plain run misses on
/// every unit.
#[test]
fn profiled_runs_count_their_own_units() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, test_cfg());
    let runner = Runner::with_jobs(2);
    let layers = w.layer_count() as u64;
    let reconciles = |planned: u64| {
        let failures = count(&runner, "runner.failures.panic")
            + count(&runner, "runner.failures.sim_error")
            + count(&runner, "runner.failures.cancelled");
        assert_eq!(count(&runner, "runner.units_planned"), planned);
        assert_eq!(
            count(&runner, "cache.hits")
                + count(&runner, "checkpoint.hits")
                + count(&runner, "runner.units_from_store")
                + count(&runner, "cache.misses")
                + failures,
            planned
        );
    };
    runner
        .run_profiled(&job, &ProfileConfig::default())
        .expect("supported");
    reconciles(layers);
    runner.run(&job).expect("supported");
    reconciles(2 * layers);
    assert_eq!(count(&runner, "cache.misses"), 2 * layers);
    assert_eq!(
        count(&runner, "cache.inserts"),
        layers,
        "only the plain run records"
    );
}

/// Two runners working at once on two threads, each on a different
/// job: each runner's registry counts exactly its own plan.
#[test]
fn concurrent_runners_count_only_their_own_units() {
    let cfg = test_cfg();
    let mobilenet = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let resnet = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let (dense, eureka) = (arch::dense(), arch::eureka_p4());
    let jobs = [
        SimJob::new(&dense, &mobilenet, cfg),
        SimJob::new(&eureka, &resnet, cfg),
    ];
    assert_ne!(mobilenet.layer_count(), resnet.layer_count());
    let start = Barrier::new(jobs.len());
    let runners: Vec<Runner> = std::thread::scope(|scope| {
        let workers: Vec<_> = jobs
            .iter()
            .map(|job| {
                let start = &start;
                scope.spawn(move || {
                    let runner = Runner::with_jobs(2);
                    start.wait();
                    runner.run(job).expect("supported");
                    runner
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (runner, w) in runners.iter().zip([&mobilenet, &resnet]) {
        let layers = w.layer_count() as u64;
        assert_eq!(count(runner, "runner.units_planned"), layers);
        assert_eq!(count(runner, "cache.misses"), layers);
        assert_eq!(count(runner, "runner.jobs"), 1);
    }
}

/// `spans`' recorded spans named `name`.
fn spans_named(spans: &[obs::span::SpanEvent], name: &str) -> usize {
    spans.iter().filter(|e| e.name == name).count()
}

#[test]
fn trace_export_has_unit_spans_on_worker_tracks() {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let gemms = w.gemms();
    let a = Rendezvous {
        inner: arch::by_name("eureka-p4").expect("registered"),
        name: "Eureka P=4 rendezvous".into(),
        pair: [gemms[0].name.clone(), gemms[1].name.clone()],
        met: Barrier::new(2),
    };
    let job = SimJob::new(&a, &w, cfg);

    let runner = Runner::with_jobs(4).with_spans(Spans::recording());
    runner.run(&job).expect("supported");
    let (events, tracks) = runner.spans().take();

    assert_eq!(
        spans_named(&events, "unit.exec"),
        w.layer_count(),
        "one unit.exec span per planned unit"
    );
    for phase in ["runner.run_all", "runner.plan", "runner.reduce"] {
        assert_eq!(spans_named(&events, phase), 1, "{phase}");
    }
    assert_eq!(events.len(), w.layer_count() + 3, "no other span");
    let worker_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "unit.exec")
        .map(|e| e.tid)
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "units spread across worker tracks: {worker_tids:?}"
    );
    for tid in &worker_tids {
        assert!(tracks.contains_key(tid), "every track is named");
    }
    // And the Chrome-trace serialization is loadable syntax.
    let json = obs::chrome::spans_to_json(&events, &tracks);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"ph\":\"M\""));
}

/// Two runners working at once on two threads, each with its own span
/// collector: each trace holds exactly its own run.
#[test]
fn concurrent_runners_keep_their_spans_apart() {
    let cfg = test_cfg();
    let mobilenet = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let resnet = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let (dense, eureka) = (arch::dense(), arch::eureka_p4());
    let jobs = [
        SimJob::new(&dense, &mobilenet, cfg),
        SimJob::new(&eureka, &resnet, cfg),
    ];
    assert_ne!(mobilenet.layer_count(), resnet.layer_count());
    let start = Barrier::new(jobs.len());
    let traces: Vec<Vec<obs::span::SpanEvent>> = std::thread::scope(|scope| {
        let workers: Vec<_> = jobs
            .iter()
            .map(|job| {
                let start = &start;
                scope.spawn(move || {
                    let runner = Runner::with_jobs(2).with_spans(Spans::recording());
                    start.wait();
                    runner.run(job).expect("supported");
                    runner.spans().take().0
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (events, w) in traces.iter().zip([&mobilenet, &resnet]) {
        assert_eq!(spans_named(events, "unit.exec"), w.layer_count());
        assert_eq!(spans_named(events, "runner.run_all"), 1);
        assert_eq!(events.len(), w.layer_count() + 3, "no other span");
    }
}

#[test]
fn degraded_run_counters_reconcile_and_spans_flush() {
    use eureka_sim::faults::{FaultKind, FaultPlan, FaultyArch};
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let layers: Vec<String> = w.gemms().into_iter().map(|g| g.name).collect();
    let plan = FaultPlan::seeded(3, &layers, 3, FaultKind::Panic);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "degraded");

    let runner = Runner::with_jobs(4).with_spans(Spans::recording());
    let outcome = runner.run_outcome(&SimJob::new(&faulty, &w, cfg));
    let (events, _) = runner.spans().take();

    let failures = outcome.failures().len() as u64;
    assert_eq!(failures, 3, "all three planned panics surface");
    assert!(outcome.report().is_some(), "survivors are kept");

    // The degraded-run accounting invariant: every planned unit fires
    // exactly one of cache.hits, checkpoint.hits,
    // runner.units_from_store, cache.misses or runner.failures.*.
    let planned = count(&runner, "runner.units_planned");
    assert_eq!(planned, w.layer_count() as u64);
    let (hits, misses) = (count(&runner, "cache.hits"), count(&runner, "cache.misses"));
    let ckpt_hits = count(&runner, "checkpoint.hits");
    let ufs = count(&runner, "runner.units_from_store");
    assert_eq!(
        hits + ckpt_hits + ufs + misses + failures,
        planned,
        "hits {hits} + ckpt {ckpt_hits} + store-served {ufs} + misses {misses} + failures {failures} != planned"
    );
    assert_eq!(
        (
            count(&runner, "runner.failures.panic"),
            count(&runner, "runner.failures.sim_error")
        ),
        (3, 0)
    );

    // Units that panicked on a worker keep their spans: every planned
    // unit has its unit.exec span, and every failure its unit.failure
    // span.
    assert_eq!(
        spans_named(&events, "unit.exec"),
        w.layer_count(),
        "one unit.exec span per unit"
    );
    assert_eq!(
        spans_named(&events, "unit.failure"),
        3,
        "one unit.failure span per failed unit"
    );
    assert_eq!(spans_named(&events, "unit.retry"), 0, "no retry policy");
    assert_eq!(events.len(), w.layer_count() + 3 + 3, "no other span");
}

/// A runner reads its store directory once, under one `checkpoint.load`
/// span on its own trace.
#[test]
fn a_store_dir_load_is_one_span_on_the_runners_trace() {
    let dir = std::env::temp_dir().join(format!("eureka-tel-load-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let dense = arch::dense();
    let job = SimJob::new(&dense, &w, test_cfg());
    let run = || {
        let runner = Runner::with_jobs(2)
            .with_store_dir(&dir)
            .with_spans(Spans::recording());
        runner.run(&job).expect("supported");
        runner.run(&job).expect("supported");
        runner.spans().take().0
    };
    for events in [run(), run()] {
        assert_eq!(spans_named(&events, "checkpoint.load"), 1);
        assert_eq!(spans_named(&events, "runner.run_all"), 2);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A warm run counts the same at any worker count: each worker's queue
/// waits and replay counts reach the runner's metrics whole, one wait
/// per planned unit.
#[test]
fn warm_runs_count_the_same_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("eureka-tel-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let (dense, eureka) = (arch::dense(), arch::eureka_p4());
    let jobs = [
        SimJob::new(&dense, &w, test_cfg()),
        SimJob::new(&eureka, &w, test_cfg()),
    ];
    Runner::with_jobs(2).with_store_dir(&dir).run_all(&jobs);
    let warm = |workers| {
        let runner = Runner::with_jobs(workers).with_store_dir(&dir);
        runner.run_all(&jobs);
        let waits = runner
            .metrics()
            .histogram(
                "unit.queue_wait_micros",
                obs::metrics::Class::Timing,
                obs::metrics::TIME_BUCKETS_US,
            )
            .count();
        assert_eq!(waits, count(&runner, "runner.units_planned"));
        assert_eq!(waits, count(&runner, "checkpoint.hits"));
        runner.metrics().snapshot_json(false)
    };
    assert_eq!(warm(1), warm(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_does_not_change_simulation_output() {
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 16);
    let cfg = test_cfg();
    let a = arch::by_name("dstc").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let plain = Runner::with_jobs(4)
        .without_cache()
        .run(&job)
        .expect("supported");
    let traced_runner = Runner::with_jobs(4)
        .without_cache()
        .with_spans(Spans::recording());
    let traced = traced_runner.run(&job).expect("supported");

    assert_eq!(plain, traced, "tracing must not perturb results");
    let (events, _) = traced_runner.spans().take();
    assert_eq!(spans_named(&events, "unit.exec"), w.layer_count());
}

#[test]
fn telemetry_does_not_change_profiled_output() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 16);
    let cfg = test_cfg();
    let pcfg = ProfileConfig::default();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let (plain_report, plain_profile) = Runner::with_jobs(4)
        .run_profiled(&job, &pcfg)
        .expect("supported");
    let traced_runner = Runner::with_jobs(4).with_spans(Spans::recording());
    let (traced_report, traced_profile) =
        traced_runner.run_profiled(&job, &pcfg).expect("supported");

    assert_eq!(
        plain_report, traced_report,
        "tracing must not perturb reports"
    );
    assert_eq!(
        plain_profile, traced_profile,
        "tracing must not perturb profiles"
    );
    assert_eq!(
        plain_profile.to_json(),
        traced_profile.to_json(),
        "profile JSON is byte-identical with tracing on"
    );
    // Profiling reconciles even with the telemetry layer active.
    assert_eq!(
        traced_profile.total_attributed_cycles(),
        traced_report.total_cycles()
    );
    // A profiled job takes the plain drive path, spans included.
    let (events, _) = traced_runner.spans().take();
    assert_eq!(spans_named(&events, "unit.exec"), w.layer_count());
    for phase in ["runner.run_all", "runner.plan", "runner.reduce"] {
        assert_eq!(spans_named(&events, phase), 1, "{phase}");
    }
    assert_eq!(events.len(), w.layer_count() + 3, "no other span");
}

#[test]
fn per_arch_exec_histograms_carry_quantiles_in_the_full_snapshot() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let runner = Runner::serial();
    runner.run(&job).expect("supported");

    // The aggregate histogram and the per-arch breakdown ("Eureka P=4"
    // slugs to eureka_p_4) both appear in the full snapshot, each with
    // the p50/p90/p99 summary fields.
    let full = runner.metrics().snapshot_json(true);
    assert!(full.contains("\"unit.exec_micros\""), "{full}");
    assert!(full.contains("\"unit.exec_micros.eureka_p_4\""), "{full}");
    for q in ["\"p50\":", "\"p90\":", "\"p99\":"] {
        assert!(full.contains(q), "missing {q} in {full}");
    }
    // Execution wall time is Class::Timing: the deterministic snapshot
    // stays free of it, so rerun byte-identity is preserved.
    let det = runner.metrics().snapshot_json(false);
    assert!(!det.contains("unit.exec_micros"), "{det}");
}

/// The service ledger reconciles at quiescence: `service.served ==
/// completed + shed + cancelled + deadline_exceeded + failed`, with
/// every lifecycle path (accept, shed, cancel) counted exactly once.
#[test]
fn service_counters_reconcile_at_quiescence() {
    use eureka_sim::service::{JobService, JobSpec, ServiceConfig, SubmitError};

    let dir = std::env::temp_dir().join(format!("eureka-tel-svc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("sandbox dir");

    let mut cfg = ServiceConfig::new(dir.join("journal"));
    cfg.sim = test_cfg();
    cfg.queue_capacity = 1;
    cfg.hold = true;
    let svc = JobService::start(cfg);

    let spec = |retries: u32| {
        let mut s = JobSpec::new(
            Benchmark::MobileNetV1,
            PruningLevel::Moderate,
            32,
            "eureka-p4",
        );
        s.retries = retries;
        s
    };
    // One of each fate: `a` is cancelled while queued, `b` sheds on the
    // full queue, `c` completes.
    let a = svc.submit(spec(0)).expect("admitted");
    assert!(matches!(
        svc.submit(spec(1)),
        Err(SubmitError::Overloaded { capacity: 1 })
    ));
    assert!(svc.cancel(a), "queued jobs cancel immediately");
    let c = svc.submit(spec(2)).expect("slot freed by the cancel");
    svc.release();
    assert!(svc.wait_idle());

    let stats = svc.stats();
    assert_eq!(stats.served, 3, "{stats:?}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.deadline_exceeded, 0, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert!(stats.reconciled(), "{stats:?}");
    assert!(svc.outcome(c).is_some_and(|o| o.is_complete()));
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
