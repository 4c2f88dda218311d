//! The runner's determinism contract, enforced end to end: parallel
//! execution is bit-identical to serial execution for every architecture
//! in the registry, and cache replays are bit-identical to cold misses.
//! A runner's unit records, tile store and metrics are its own, shared
//! only with its clones, so the replay tests rerun on one runner and
//! read that runner's counts.
//!
//! The tile store takes part only in runs with a store directory, so the
//! tests that count its traffic attach one.
//!
//! Counter-assertion convention: on a *cold* run the split between
//! `cache.misses` and `runner.units_from_store` depends on which unit
//! computes a shared tile key first (schedule-dependent under a parallel
//! runner), so cold assertions check the sum. Against a *warm* tile
//! store every re-executed unit is guaranteed `units_from_store` — zero
//! tile computes can happen — so warm assertions are exact.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::arch;
use eureka_sim::{Runner, SimConfig, SimJob};
use std::path::PathBuf;

/// `runner`'s counter `name` (0 before it is registered).
fn count(runner: &Runner, name: &str) -> u64 {
    runner.metrics().counter_value(name).unwrap_or(0)
}

/// `(hits, misses)` of `runner`'s `cache.*` counters.
fn cache_counts(runner: &Runner) -> (u64, u64) {
    (count(runner, "cache.hits"), count(runner, "cache.misses"))
}

/// `runner`'s `runner.units_from_store`.
fn from_store(runner: &Runner) -> u64 {
    count(runner, "runner.units_from_store")
}

/// A fresh, empty store directory owned by one test.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eureka-runner-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small sampling counts, so the full registry sweep stays fast.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 10,
        slice_samples: 10,
        act_samples: 10,
        ..SimConfig::paper_default()
    }
}

#[test]
fn parallel_equals_serial_for_every_registry_arch() {
    // ResNet50 is the one benchmark every registry architecture supports
    // (S2TA has no structured-sparsity data for InceptionV3).
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    for name in arch::registry_names() {
        let a = arch::by_name(name).expect("registry name resolves");
        let job = SimJob::new(a.as_ref(), &w, cfg);
        let serial = Runner::serial().without_cache().run(&job);
        let parallel = Runner::with_jobs(8).without_cache().run(&job);
        assert_eq!(serial, parallel, "{name}: parallel must be bit-identical");
        assert!(serial.is_ok(), "{name} must support ResNet50");
    }
}

#[test]
fn parallel_equals_serial_on_unsupported_combinations() {
    // Error paths must agree too: the lowest-index failure wins in both
    // modes.
    let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let s2ta = arch::by_name("s2ta").expect("registered");
    let job = SimJob::new(s2ta.as_ref(), &w, cfg);
    let serial = Runner::serial().without_cache().run(&job);
    let parallel = Runner::with_jobs(8).without_cache().run(&job);
    assert!(serial.is_err());
    assert_eq!(serial, parallel);
}

#[test]
fn cache_hit_equals_cold_miss() {
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Conservative, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let layers = w.layer_count() as u64;

    // A fresh runner's counters start at zero, so the assertions below
    // are exact regardless of what ran earlier in the process.
    let dir = store_dir("hit");
    let runner = Runner::parallel().with_store_dir(&dir);
    let cold = runner.run(&job).expect("supported");
    let (hits_after_cold, misses_after_cold) = cache_counts(&runner);
    let ufs_after_cold = from_store(&runner);
    let warm = runner.clone().run(&job).expect("supported");
    let (hits_after_warm, misses_after_warm) = cache_counts(&runner);

    assert_eq!(cold, warm, "cache replay must be bit-identical");
    assert_eq!(hits_after_cold, 0, "a cold run hits nothing");
    assert_eq!(
        misses_after_cold + ufs_after_cold,
        layers,
        "cold run executes once per layer"
    );
    assert_eq!(
        misses_after_warm + from_store(&runner),
        layers,
        "warm run must not re-execute any unit"
    );
    assert_eq!(hits_after_warm, layers, "warm run must hit on every layer");

    // And a fresh runner without unit records recomputes to the same
    // report — with every re-executed unit served entirely by the tile
    // shards the first runner flushed: exact counts, because zero tile
    // computes can happen.
    let recompute = Runner::parallel().without_cache().with_store_dir(&dir);
    let recomputed = recompute.run(&job).expect("supported");
    assert_eq!(cold, recomputed);
    assert_eq!(
        count(&recompute, "runner.units_executed"),
        layers,
        "every unit re-executes"
    );
    assert_eq!(
        count(&recompute, "store.misses"),
        0,
        "zero tile simulations happen against a warm store"
    );
    assert!(count(&recompute, "store.hits") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_runners_are_honest_cold_starts() {
    let cfg = test_cfg();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 32);
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let layers = w.layer_count() as u64;

    let dir = store_dir("reset");
    let first_runner = Runner::parallel().with_store_dir(&dir);
    let first = first_runner.run(&job).expect("supported");
    let lookups = count(&first_runner, "store.lookups");
    let store_misses = count(&first_runner, "store.misses");
    assert!(lookups > 0, "a tile-timer arch resolves through the store");
    assert!(store_misses > 0, "a cold store computes tiles");

    // A fresh runner on a fresh directory is a genuine cold start: same
    // exact counter trajectory as the first run, nothing smuggled
    // across — neither the first runner's memory, its tile store, nor
    // its counts.
    let other = store_dir("reset-cold");
    let second_runner = Runner::parallel().with_store_dir(&other);
    let second = second_runner.run(&job).expect("supported");
    assert_eq!(first, second, "cold starts are bit-identical");
    let (hits, misses) = cache_counts(&second_runner);
    assert_eq!(hits, 0, "nothing survives to hit on");
    assert_eq!(misses + from_store(&second_runner), layers);
    assert_eq!(count(&second_runner, "store.lookups"), lookups);
    assert_eq!(
        count(&second_runner, "store.misses"),
        store_misses,
        "an honest cold start recomputes exactly the same tiles"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn default_runner_bypasses_the_tile_store_with_identical_reports() {
    let cfg = test_cfg();
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    let archs: Vec<_> = arch::registry_names()
        .iter()
        .map(|name| arch::by_name(name).expect("registry name resolves"))
        .collect();
    let jobs: Vec<_> = archs
        .iter()
        .map(|a| SimJob::new(a.as_ref(), &w, cfg))
        .collect();

    let plain = Runner::parallel();
    let default = plain.run_all(&jobs);
    assert!(
        default.iter().all(Result::is_ok),
        "ResNet50 runs everywhere"
    );
    assert_eq!(
        plain.metrics().counter_value("store.lookups"),
        None,
        "no tile store, and no store.* metrics, by default"
    );

    // A store directory switches the tile store on; cold (every unit
    // executes, tiles resolve through the store) and warm (a fresh
    // runner replays every unit from the directory's records), reports
    // stay identical.
    let dir = store_dir("default");
    let cold_runner = Runner::parallel().with_store_dir(&dir);
    let cold = cold_runner.run_all(&jobs);
    assert!(
        count(&cold_runner, "store.lookups") > 0,
        "the cold run resolved tiles"
    );
    assert_eq!(
        count(&cold_runner, "checkpoint.hits"),
        0,
        "the cold run replays nothing"
    );
    let warm_runner = Runner::parallel().with_store_dir(&dir);
    let warm = warm_runner.run_all(&jobs);
    assert_eq!(
        count(&warm_runner, "checkpoint.hits"),
        (jobs.len() * w.layer_count()) as u64,
        "the warm run replays every unit"
    );
    assert_eq!(default, cold, "a cold store run matches the default run");
    assert_eq!(default, warm, "a warm store run matches the default run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_differing_only_in_seed_do_not_share_cache_entries() {
    let cfg = test_cfg();
    let base = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let reseeded = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32)
        .with_seed(base.seed() ^ 0xDEAD_BEEF);
    assert_eq!(
        base.gemms(),
        reseeded.gemms(),
        "same layers, only seed differs"
    );
    let a = arch::by_name("eureka-p4").expect("registered");
    let layers = base.layer_count() as u64;

    let runner = Runner::parallel();
    let first = runner
        .run(&SimJob::new(a.as_ref(), &base, cfg))
        .expect("supported");
    let second = runner
        .run(&SimJob::new(a.as_ref(), &reseeded, cfg))
        .expect("supported");
    let (hits, misses) = cache_counts(&runner);
    assert_eq!(
        hits, 0,
        "a different seed must never hit the other's entries"
    );
    assert_eq!(
        misses + from_store(&runner),
        2 * layers,
        "both runs must fully re-execute"
    );
    // Different RNG streams really do produce different sampled timings.
    assert_ne!(
        first.total_cycles(),
        second.total_cycles(),
        "reseeding must change the sampled simulation"
    );

    // Replaying the reseeded job now hits every layer.
    let replay = runner
        .run(&SimJob::new(a.as_ref(), &reseeded, cfg))
        .expect("supported");
    assert_eq!(second, replay);
    let (hits_after_replay, misses_after_replay) = cache_counts(&runner);
    assert_eq!(hits_after_replay, layers);
    assert_eq!(
        misses_after_replay + from_store(&runner),
        2 * layers,
        "the replay re-executes nothing"
    );
}

#[test]
fn cache_hits_are_independent_of_arch_ordering() {
    let cfg = test_cfg();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let layers = w.layer_count() as u64;
    let dense = arch::by_name("dense").expect("registered");
    let eureka = arch::by_name("eureka-p4").expect("registered");

    // Warm the cache in one order...
    let runner = Runner::parallel();
    let d1 = runner
        .run(&SimJob::new(dense.as_ref(), &w, cfg))
        .expect("supported");
    let e1 = runner
        .run(&SimJob::new(eureka.as_ref(), &w, cfg))
        .expect("supported");
    let (hits_cold, misses_cold) = cache_counts(&runner);
    let ufs_cold = from_store(&runner);
    assert_eq!(hits_cold, 0, "distinct archs must not alias each other");
    assert_eq!(misses_cold + ufs_cold, 2 * layers);
    assert!(
        misses_cold >= layers,
        "dense never consults the tile store, so its units always miss"
    );

    // ...then replay in the opposite order: every layer hits, and the
    // reports are bit-identical to the cold runs.
    let e2 = runner
        .run(&SimJob::new(eureka.as_ref(), &w, cfg))
        .expect("supported");
    let d2 = runner
        .run(&SimJob::new(dense.as_ref(), &w, cfg))
        .expect("supported");
    let (hits_warm, misses_warm) = cache_counts(&runner);
    assert_eq!(
        hits_warm,
        2 * layers,
        "identical jobs hit regardless of order"
    );
    assert_eq!(
        misses_warm + from_store(&runner),
        2 * layers,
        "no recomputation on replay"
    );
    assert_eq!(d1, d2);
    assert_eq!(e1, e2);
}

#[test]
fn retried_unit_writes_cache_exactly_once_and_replays() {
    use eureka_sim::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
    use eureka_sim::RetryPolicy;
    let cfg = test_cfg();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let layers = w.layer_count() as u64;
    let victim = w.gemms().into_iter().nth(2).expect("has layers").name;
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim,
        kind: FaultKind::Panic,
        fail_first: 1,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "req-retry");

    let runner = Runner::parallel().with_retry(RetryPolicy::transient(2));
    let first = runner
        .run(&SimJob::new(&faulty, &w, cfg))
        .expect("retry must recover the transient panic");
    let (hits_cold, misses_cold) = cache_counts(&runner);
    let attempts = count(&runner, "runner.retries.attempts");
    let recovered = count(&runner, "runner.retries.recovered");
    assert_eq!(hits_cold, 0, "a cold run hits nothing");
    assert_eq!(
        misses_cold + from_store(&runner),
        layers,
        "the retried unit must be counted (and cached) exactly once"
    );
    assert_eq!(attempts, 1, "exactly one retry attempt");
    assert_eq!(recovered, 1, "exactly one recovery");

    // Replay: every unit hits, including the once-failed one. The fault
    // plan would fire again if the victim re-executed (its attempt
    // counter is NOT reset), so bit-identical success here also proves
    // cache hits never re-execute units.
    let replay = runner
        .clone()
        .with_retry(RetryPolicy::NONE)
        .run(&SimJob::new(&faulty, &w, cfg))
        .expect("replay from cache");
    assert_eq!(first, replay, "cached replay must be bit-identical");
    let (hits_warm, misses_warm) = cache_counts(&runner);
    assert_eq!(hits_warm, layers, "warm run must hit on every layer");
    assert_eq!(
        misses_warm + from_store(&runner),
        layers,
        "warm run must not re-execute any unit"
    );
}

#[test]
fn batch_submission_matches_individual_runs() {
    let w1 = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let w2 = Workload::new(Benchmark::ResNet50, PruningLevel::Conservative, 32);
    let cfg = test_cfg();
    let dense = arch::by_name("dense").expect("registered");
    let eureka = arch::by_name("eureka-p4").expect("registered");
    let jobs = [
        SimJob::new(dense.as_ref(), &w1, cfg),
        SimJob::new(eureka.as_ref(), &w2, cfg),
    ];
    let batched = Runner::parallel().run_all(&jobs);
    for (job, batched) in jobs.iter().zip(&batched) {
        let solo = Runner::serial().run(job);
        assert_eq!(&solo, batched);
    }
}
