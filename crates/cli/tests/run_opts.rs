//! Each `figure`/`simulate`/`profile` command builds one explicit runner
//! from its shared run flags, and every simulation of the command runs on
//! it: nothing a command parses outlives the command, and a setting such
//! as `--store-dir` reaches every run the command makes.

use eureka_cli::{parse, run};
use eureka_obs::json::{self, Value};
use eureka_sim::Runner;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The unit cache and the metrics registry are process-wide, so the tests
/// in this file take turns.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn jobs_flag_does_not_outlive_its_command() {
    let _turn = turn();
    let all_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Any count but the host's own, so a leaked value would show.
    let jobs = (all_cores + 2).to_string();
    let cmd = parse([
        "simulate",
        "--benchmark",
        "mobilenet",
        "--arch",
        "eureka-p4",
        "--batch",
        "4",
        "--fast",
        "--csv",
        "--jobs",
        &jobs,
        "--no-ledger",
        "--no-progress",
    ])
    .unwrap();
    let csv = run(&cmd).unwrap();
    assert!(csv.starts_with("layer,"), "{csv}");
    assert_eq!(Runner::parallel().effective_jobs(), all_cores);
}

#[test]
fn warm_store_dir_run_replays_every_unit_including_the_dense_baseline() {
    let _turn = turn();
    let dir = std::env::temp_dir().join(format!("eureka-run-opts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    let metrics = dir.join("metrics.json");
    let args = [
        "simulate",
        "--benchmark",
        "mobilenet",
        "--arch",
        "eureka-p4",
        "--batch",
        "4",
        "--fast",
        "--store-dir",
        store.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--no-ledger",
        "--no-progress",
    ];
    let counters = || {
        let text = std::fs::read_to_string(&metrics).unwrap();
        let snapshot = json::parse(&text).unwrap();
        move |name: &str| {
            snapshot
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64
        }
    };

    // The human report also runs the dense baseline behind its speedup.
    let cold = run(&parse(args).unwrap()).unwrap();
    assert!(cold.contains("speedup vs Dense"), "{cold}");
    assert!(counters()("runner.units_executed") > 0);

    // Drop every in-process tier, so the warm run can only replay from
    // the store directory.
    eureka_sim::runner::cache_reset();
    let warm = run(&parse(args).unwrap()).unwrap();
    assert_eq!(cold, warm, "a warm run must be bit-identical");
    let warm_counters = counters();
    assert_eq!(warm_counters("runner.units_executed"), 0);
    assert_eq!(
        warm_counters("checkpoint.hits"),
        warm_counters("runner.units_planned")
    );
    std::fs::remove_dir_all(&dir).ok();
}
