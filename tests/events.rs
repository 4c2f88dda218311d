//! The run-event stream's end-to-end guarantees (`eureka-events-v1`):
//! every emitted line is schema-valid, the deterministic projection is
//! byte-identical across `--jobs` settings and across reruns, failures
//! and retries surface as typed events, memoization sources are visible
//! per unit, each runner's stream lands only in its own sink, and —
//! above all — attaching a sink and the progress reporter changes no
//! report and no deterministic metric.

use eureka::obs;
use eureka::obs::events::Events;
use eureka::obs::metrics::Registry;
use eureka::obs::progress::Mode;
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::faults::{self, FaultKind, FaultPlan, FaultSpec, FaultyArch};
use eureka_sim::{arch, JobOutcome, RetryPolicy, Runner, SimConfig, SimJob};
use std::io::Write;
use std::sync::{Arc, Barrier, Mutex};

/// Small sampling counts, so the suite stays fast.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 11,
        slice_samples: 8,
        act_samples: 8,
        ..SimConfig::paper_default()
    }
}

/// An in-memory JSONL sink shareable across the `Box<dyn Write + Send>`
/// boundary an [`Events`] writer requires.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Sink {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `f` with an event handle writing into a fresh sink and returns
/// the captured stream.
fn capture<F: FnOnce(&Events)>(f: F) -> String {
    let sink = Sink::default();
    f(&Events::new(
        Some(Box::new(sink.clone())),
        Mode::Off,
        &Registry::new(),
    ));
    sink.contents()
}

fn count(stream: &str, kind: &str) -> usize {
    let needle = format!("\"event\":\"{kind}\"");
    stream.lines().filter(|l| l.contains(&needle)).count()
}

#[test]
fn deterministic_projection_is_identical_across_jobs_and_reruns() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let run = |jobs: usize| {
        capture(|events| {
            Runner::with_jobs(jobs)
                .with_events(events.clone())
                .run(&job)
                .expect("supported");
        })
    };
    let serial = run(1);
    let parallel = run(4);
    let rerun = run(1);

    // Every raw line is schema-valid, and the stream brackets the run.
    for stream in [&serial, &parallel, &rerun] {
        for (i, line) in stream.lines().enumerate() {
            obs::events::validate_line(line)
                .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
        }
        assert_eq!(count(stream, "run-started"), 1);
        assert_eq!(count(stream, "run-finished"), 1);
        assert_eq!(count(stream, "unit-planned"), w.layer_count());
        assert_eq!(count(stream, "unit-started"), w.layer_count());
        assert_eq!(count(stream, "unit-finished"), w.layer_count());
        assert_eq!(count(stream, "failure"), 0);
    }
    // The canonical comparison form is byte-identical regardless of
    // worker parallelism and across reruns; wall fields never leak in.
    let ps = obs::events::deterministic_projection(&serial).unwrap();
    let pp = obs::events::deterministic_projection(&parallel).unwrap();
    let pr = obs::events::deterministic_projection(&rerun).unwrap();
    assert_eq!(ps, pp, "projection must be --jobs invariant");
    assert_eq!(ps, pr, "projection must be rerun-stable");
    assert!(!ps.contains("\"wall\""));
    assert!(!ps.contains("t_us"));
    // In the serial stream, `seq` is dense in emission order.
    for (i, line) in serial.lines().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{i},")),
            "line {i} out of sequence: {line}"
        );
    }
}

#[test]
fn events_and_progress_have_zero_impact_on_reports_and_metrics() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p2").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    // Baseline: no sink, progress off.
    let plain = Runner::with_jobs(4);
    let plain_report = plain.run(&job).expect("supported");
    let plain_metrics = plain.metrics().snapshot_json(false);

    // Instrumented: a JSONL sink AND progress forced on, reading the
    // runner's own registry.
    let sink = Sink::default();
    let instr = Runner::with_jobs(4);
    let events = Events::new(Some(Box::new(sink.clone())), Mode::On, instr.metrics());
    let instr = instr.with_events(events);
    let instr_report = instr.run(&job).expect("supported");
    let instr_metrics = instr.metrics().snapshot_json(false);

    assert!(!sink.contents().is_empty(), "events were streamed");
    assert_eq!(
        plain_report, instr_report,
        "instrumented reports must be bit-identical"
    );
    assert_eq!(
        plain_metrics, instr_metrics,
        "deterministic metrics must be byte-identical"
    );
}

/// Two runners emitting at the same time, each into its own handle:
/// every stream holds exactly its own runner's events — the same
/// deterministic projection as that runner's solo run — and every
/// handle counts exactly the lines its stream holds.
#[test]
fn concurrent_runners_keep_their_sinks_apart() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let archs = [
        arch::by_name("eureka-p4").expect("registered"),
        arch::by_name("cnvlutin").expect("registered"),
    ];
    // Cache- and store-free runners compute every unit, so a unit's
    // `source` field is the same solo and side by side.
    let run = |a: &dyn arch::Architecture, events: &Events| {
        Runner::with_jobs(2)
            .without_cache()
            .without_store()
            .with_events(events.clone())
            .run(&SimJob::new(a, &w, cfg))
            .expect("supported");
    };
    let solo: Vec<String> = archs
        .iter()
        .map(|a| {
            let stream = capture(|events| run(a.as_ref(), events));
            obs::events::deterministic_projection(&stream).unwrap()
        })
        .collect();
    assert_ne!(solo[0], solo[1], "the two runs are distinguishable");

    let start = Barrier::new(archs.len());
    let side_by_side: Vec<(String, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = archs
            .iter()
            .map(|a| {
                let start = &start;
                let run = &run;
                scope.spawn(move || {
                    let sink = Sink::default();
                    let events =
                        Events::new(Some(Box::new(sink.clone())), Mode::Off, &Registry::new());
                    start.wait();
                    run(a.as_ref(), &events);
                    (sink.contents(), events.count())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("runner thread"))
            .collect()
    });
    for ((stream, count), want) in side_by_side.iter().zip(&solo) {
        assert_eq!(
            &obs::events::deterministic_projection(stream).unwrap(),
            want,
            "a concurrent runner's stream equals its solo run"
        );
        assert_eq!(stream.lines().count() as u64, *count);
    }
}

#[test]
fn failures_and_retries_surface_as_events() {
    faults::install_quiet_hook();
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let victim = w.gemms().into_iter().nth(2).expect("has layers").name;

    // One transient fault: the first attempt panics, the retry recovers.
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim.clone(),
        kind: FaultKind::Panic,
        fail_first: 1,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "ev-retry");
    let job = SimJob::new(&faulty, &w, cfg);
    let stream = capture(|events| {
        let outcome = Runner::serial()
            .without_cache()
            .with_retry(RetryPolicy::transient(3))
            .with_events(events.clone())
            .run_outcome(&job);
        assert!(matches!(outcome, JobOutcome::Complete(_)), "retry recovers");
    });
    assert_eq!(count(&stream, "retry"), 1);
    assert_eq!(count(&stream, "failure"), 0);
    assert!(stream.contains("\"attempt\":1"), "{stream}");
    assert!(stream.contains("\"failures\":0"), "{stream}");

    // A permanent fault with no retry budget degrades the job and emits
    // a typed failure event.
    let plan = FaultPlan::new(vec![FaultSpec {
        layer: victim.clone(),
        kind: FaultKind::Panic,
        fail_first: u32::MAX,
    }]);
    let faulty = FaultyArch::new(Box::new(arch::eureka_p4()), plan, "ev-fail");
    let job = SimJob::new(&faulty, &w, cfg);
    let stream = capture(|events| {
        let outcome = Runner::serial()
            .without_cache()
            .with_events(events.clone())
            .run_outcome(&job);
        assert!(matches!(outcome, JobOutcome::Degraded { .. }));
    });
    assert_eq!(count(&stream, "retry"), 0);
    assert_eq!(count(&stream, "failure"), 1);
    let failure_line = stream
        .lines()
        .find(|l| l.contains("\"event\":\"failure\""))
        .expect("failure event");
    assert!(
        failure_line.contains("\"kind\":\"panic\""),
        "{failure_line}"
    );
    assert!(failure_line.contains("\"attempts\":1"), "{failure_line}");
    assert!(stream.contains("\"failures\":1"), "{stream}");
}

#[test]
fn unit_source_classification_tracks_memoization() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let stream = capture(|events| {
        let runner = Runner::serial().with_events(events.clone());
        runner.run(&job).expect("supported");
        runner.run(&job).expect("supported");
    });
    // First pass computes; the repeat is served entirely from the unit
    // cache.
    let cache_hits = stream
        .lines()
        .filter(|l| l.contains("\"event\":\"unit-finished\"") && l.contains("\"source\":\"cache\""))
        .count();
    assert_eq!(cache_hits, w.layer_count(), "{stream}");
    assert_eq!(count(&stream, "unit-finished"), 2 * w.layer_count());
    // Cache replays report zero execution wall time.
    for line in stream
        .lines()
        .filter(|l| l.contains("\"source\":\"cache\""))
    {
        assert!(line.contains("\"exec_us\":0"), "{line}");
    }
}

#[test]
fn checkpoint_writes_surface_as_events() {
    let dir = std::env::temp_dir().join(format!("eureka-events-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("cnvlutin").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    // One `checkpoint-written` per appended record; a fresh runner per
    // run, so the rerun can only replay from the directory.
    let run = |events: &Events| {
        Runner::serial()
            .with_store_dir(&dir)
            .with_events(events.clone())
            .run(&job)
            .expect("supported");
    };
    let cold = capture(run);
    assert_eq!(count(&cold, "checkpoint-written"), w.layer_count());

    // A rerun replays every unit from the directory's records.
    let warm = capture(run);
    assert_eq!(count(&warm, "checkpoint-written"), 0);
    let replayed = warm
        .lines()
        .filter(|l| l.contains("\"source\":\"checkpoint\""))
        .count();
    assert_eq!(replayed, w.layer_count(), "{warm}");
    std::fs::remove_dir_all(&dir).ok();
}
