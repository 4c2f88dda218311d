//! The fault-tolerance contract, enforced end to end: a failing unit
//! degrades its job instead of aborting the sweep, degraded results are
//! bit-identical between serial and parallel execution, retry policies
//! only touch transient kinds, unit records round-trip through a store
//! directory, and the seeded verification matrix passes.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch::{self, SimError};
use eureka_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
use eureka_sim::{JobOutcome, RetryPolicy, Runner, SimConfig, SimJob};

/// `runner`'s counter `name` (0 before it is registered).
fn count(runner: &Runner, name: &str) -> u64 {
    runner.metrics().counter_value(name).unwrap_or(0)
}

/// `(hits, writes, errors)` of `runner`'s `checkpoint.*` counters.
fn checkpoint_counts(runner: &Runner) -> (u64, u64, u64) {
    (
        count(runner, "checkpoint.hits"),
        count(runner, "checkpoint.writes"),
        count(runner, "checkpoint.errors"),
    )
}

/// Small sampling counts, so the suite stays fast.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 16,
        slice_samples: 10,
        act_samples: 10,
        ..SimConfig::paper_default()
    }
}

#[test]
fn degraded_outcomes_are_identical_in_serial_and_parallel() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let layers: Vec<String> = w.gemms().into_iter().map(|g| g.name).collect();
    for (kind, tag) in [
        (FaultKind::Panic, "ft-eq-panic"),
        (FaultKind::Error, "ft-eq-error"),
    ] {
        let plan = FaultPlan::seeded(11, &layers, 3, kind);
        let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, tag);
        let job = SimJob::new(&faulty, &w, cfg);
        let serial = Runner::serial().without_cache().run_outcome(&job);
        let parallel = Runner::with_jobs(8).without_cache().run_outcome(&job);

        let (
            JobOutcome::Degraded {
                report: sr,
                failed_layers: sf,
            },
            JobOutcome::Degraded {
                report: pr,
                failed_layers: pf,
            },
        ) = (serial, parallel)
        else {
            panic!("{tag}: both modes must degrade");
        };
        assert_eq!(sr, pr, "{tag}: surviving reports must be bit-identical");
        assert_eq!(sf.len(), 3, "{tag}: all planned faults surface");
        let names = |f: &[eureka_sim::UnitFailure]| {
            f.iter().map(|u| u.layer_name.clone()).collect::<Vec<_>>()
        };
        assert_eq!(
            names(&sf),
            names(&pf),
            "{tag}: same failure sites, same order"
        );
        for (s, p) in sf.iter().zip(&pf) {
            assert_eq!(s.layer, p.layer);
            assert_eq!(s.kind.label(), p.kind.label());
            assert_eq!(s.rng_seed, p.rng_seed);
        }
    }
}

#[test]
fn run_all_surfaces_a_panicked_unit_as_a_typed_error() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let victim = w.gemms().into_iter().nth(1).expect("has layers").name;
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim.clone(),
        kind: FaultKind::Panic,
        fail_first: u32::MAX,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "ft-typed");
    let clean = arch::dense();
    let jobs = [SimJob::new(&faulty, &w, cfg), SimJob::new(&clean, &w, cfg)];
    let results = Runner::with_jobs(4).without_cache().run_all(&jobs);
    // The faulted job collapses to its first failure as a SimError...
    match &results[0] {
        Err(SimError::UnitPanic { layer, payload }) => {
            assert_eq!(layer, &victim);
            assert!(payload.contains("injected panic"), "{payload}");
        }
        other => panic!("expected UnitPanic, got {other:?}"),
    }
    // ...while its neighbour in the same batch is untouched.
    assert!(results[1].is_ok(), "sibling job must complete");
}

#[test]
fn unsupported_combinations_are_never_retried() {
    let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let s2ta = arch::by_name("s2ta").expect("registered");
    let job = SimJob::new(s2ta.as_ref(), &w, cfg);

    let runner = Runner::serial()
        .without_cache()
        .with_retry(RetryPolicy::transient(5));
    let outcome = runner.run_outcome(&job);
    assert!(
        matches!(outcome, JobOutcome::Failed { .. }),
        "a uniform refusal fails the whole job"
    );
    assert_eq!(
        (
            count(&runner, "runner.retries.attempts"),
            count(&runner, "runner.retries.recovered")
        ),
        (0, 0),
        "Unsupported is permanent: the retry budget must not be spent on it"
    );
    for f in outcome.failures() {
        assert_eq!(f.attempts, 1, "exactly one attempt per refused unit");
    }
}

#[test]
fn checkpoints_round_trip_through_the_runner() {
    let dir = std::env::temp_dir().join(format!("eureka-ft-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let layers = w.layer_count() as u64;

    // A fresh runner per run: the replay below can only be served from
    // the directory's records, exactly as a fresh process would.
    let first = Runner::serial().with_store_dir(&dir);
    let cold = first.run(&job).expect("supported");
    assert_eq!(
        checkpoint_counts(&first),
        (0, layers, 0),
        "one record per unit"
    );

    let second = Runner::serial().with_store_dir(&dir);
    let resumed = second.run(&job).expect("supported");
    assert_eq!(cold, resumed, "record replay must be bit-identical");
    assert_eq!(
        checkpoint_counts(&second),
        (layers, 0, 0),
        "every unit resumes from disk, and nothing new is written"
    );

    // A runner without unit records neither reads nor appends them.
    let third = Runner::serial().without_cache().with_store_dir(&dir);
    let rerun = third.run(&job).expect("supported");
    assert_eq!(cold, rerun);
    assert_eq!(checkpoint_counts(&third), (0, 0, 0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verification_fault_matrix_passes() {
    let out = eureka::verify::run_fault_matrix(42).expect("contract holds");
    assert!(out.contains("fault-tolerance contract holds"), "{out}");
}
