//! The four workloads, driven black-box through the `eureka` binary and
//! its Unix socket: only the argv and protocol surface are assumed, so
//! refactors behind them cannot break these measurements.

use crate::proc::{self, Daemon};
use crate::sched::{self, Spec};
use crate::stats::{ms, Samples, Tally};
use crate::trace::Trace;
use eureka_obs::json::{self, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `figure fig11` at paper sampling, every unit computed.
    Fig11Cold,
    /// The same sweep against a store filled during set-up.
    Fig11Warm,
    /// Open-loop distinct jobs against a fresh daemon.
    ServeFresh,
    /// Open-loop jobs from a cached hot set, with scrapes.
    ServeHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig11Cold,
        Workload::Fig11Warm,
        Workload::ServeFresh,
        Workload::ServeHot,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Cold => "fig11-cold",
            Workload::Fig11Warm => "fig11-warm",
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the daemon rather than figure runs.
    #[must_use]
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeFresh | Workload::ServeHot)
    }
}

/// Arrival rate of serve-fresh, jobs per second.
const FRESH_RATE: f64 = 15.0;
/// Arrival rate of serve-hot, jobs per second.
const HOT_RATE: f64 = 50.0;
/// Set-up repetitions whose median is `setup_s` (one store fill for
/// fig11-warm, which alone takes as long as a measured run).
const SETUP_REPS: usize = 3;
/// Minimum gap between two status polls of one job.
const POLL_GAP: Duration = Duration::from_millis(2);
/// serve-hot scrape cadence: `stats` every 100 ms, `metrics` every 1 s.
const STATS_EVERY: Duration = Duration::from_millis(100);
const METRICS_EVERY: Duration = Duration::from_secs(1);
/// Traced runs send `health` this often to time the bare round trip.
const HEALTH_EVERY: Duration = Duration::from_millis(100);
/// A job not terminal this long after it was due counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Every this-many-th completed serve job has its cycles re-derived.
const CYCLE_CHECK_EVERY: usize = 16;

/// Everything a pass needs to know about its run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The release `eureka` binary.
    pub eureka: PathBuf,
    /// This run's scratch directory (relative, so socket paths stay short).
    pub dir: PathBuf,
    /// The committed fig11 CSV every figure run must reproduce.
    pub reference: PathBuf,
    /// Seed of the serve job streams.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
}

/// What one pass of a workload observed.
#[derive(Debug, Default)]
pub struct Pass {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Failed checks that are not operations: set-up, reconciliation.
    pub problems: Vec<String>,
    /// Duration of each set-up repetition, s.
    pub setup_s: Samples,
    /// Latency of each successful operation, ms.
    pub op_ms: Samples,
    /// In traced serve passes: jobs inside and outside traced blocks.
    pub op_ms_traced: Samples,
    /// See [`Pass::op_ms_traced`].
    pub op_ms_untraced: Samples,
    /// Host CPU per operation, ms, of the figure processes or the daemon.
    pub cpu_ms_per_op: f64,
    /// Peak resident set of the figure processes or the daemon, MiB.
    pub peak_rss_mb: f64,
    /// serve: due time → submit acknowledgement, ms.
    pub submit_ms: Samples,
    /// serve: round trip of a `stats` or `metrics` scrape, ms.
    pub scrape_ms: Samples,
    /// serve, traced: round trip of `health`, ms.
    pub health_ms: Samples,
    /// serve: how late the generator sent each submit, ms.
    pub lateness_ms: Samples,
    /// serve: `status` polls sent.
    pub polls: u64,
    /// serve: connections opened during the measured phase.
    pub connections: u64,
    /// serve: length of the measured phase, s.
    pub window_s: f64,
    /// Counters the program reported about itself (a figure's
    /// `--metrics-out` or the daemon's `metrics` verb), under their
    /// Prometheus family names.
    pub counters: BTreeMap<String, f64>,
    /// fig11-warm: the store filled during set-up.
    pub store_dir: Option<PathBuf>,
}

impl Pass {
    /// No operation failed and every reconciliation held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// A program counter by registry name (`store.lookups`), 0 if absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(&prom_name(name)).copied().unwrap_or(0.0)
    }
}

/// The Prometheus family name the daemon exports registry metric `name` as.
fn prom_name(name: &str) -> String {
    format!("eureka_{}", name.replace(['.', '-'], "_"))
}

/// Traced serve passes alternate one-second blocks with and without
/// tracing; the difference is the overhead.
fn traced_block(index: u64) -> bool {
    index.is_multiple_of(2)
}

/// Runs `workload`'s pass. With `trace`, spans are recorded around every
/// operation in traced blocks and the program's own telemetry is read.
#[must_use]
pub fn run(workload: Workload, ctx: &Ctx, trace: Option<&mut Trace>) -> Pass {
    match workload {
        Workload::Fig11Cold => fig11(ctx, false, trace),
        Workload::Fig11Warm => fig11(ctx, true, trace),
        Workload::ServeFresh => serve(ctx, false, ctx.seconds, trace),
        Workload::ServeHot => serve(ctx, true, ctx.seconds, trace),
    }
}

// ---------------------------------------------------------------- fig11

fn figure_command(
    ctx: &Ctx,
    csv_out: &Path,
    fast: bool,
    store: Option<&Path>,
    metrics: Option<&Path>,
) -> std::io::Result<Command> {
    let mut cmd = Command::new(&ctx.eureka);
    cmd.args([
        "figure",
        "fig11",
        "--csv",
        "--jobs",
        "2",
        "--no-ledger",
        "--no-progress",
    ]);
    if fast {
        cmd.arg("--fast");
    }
    if let Some(dir) = store {
        cmd.arg("--store-dir").arg(dir);
    }
    if let Some(path) = metrics {
        cmd.arg("--metrics-out").arg(path);
    }
    cmd.stdin(Stdio::null())
        .stdout(std::fs::File::create(csv_out)?)
        .stderr(Stdio::null());
    Ok(cmd)
}

fn fig11(ctx: &Ctx, warm: bool, mut trace: Option<&mut Trace>) -> Pass {
    let mut pass = Pass::default();
    let reference = match std::fs::read(&ctx.reference) {
        Ok(bytes) => bytes,
        Err(e) => {
            pass.problems
                .push(format!("reference {}: {e}", ctx.reference.display()));
            Vec::new()
        }
    };
    let store = warm.then(|| ctx.dir.join("store"));
    pass.store_dir.clone_from(&store);

    // Set-up: the warm workload fills its store with one paper-sampling
    // run; the cold one pages the binary in with fast-sampling sweeps,
    // exercising the same code without touching any persistent state. So
    // `setup_s` on fig11-cold times `figure fig11 --fast`, as its
    // BENCHMARK.json entry says.
    for rep in 0..if warm { 1 } else { SETUP_REPS } {
        let csv = ctx.dir.join(format!("setup-{rep}.csv"));
        let run = figure_command(ctx, &csv, !warm, store.as_deref(), None)
            .and_then(|mut c| proc::run_sampled(&mut c));
        match run {
            Ok(r) if r.status.success() => pass.setup_s.push(r.wall.as_secs_f64()),
            Ok(r) => pass
                .problems
                .push(format!("set-up figure run exited with {}", r.status)),
            Err(e) => pass.problems.push(format!("set-up figure run: {e}")),
        }
        if warm && std::fs::read(&csv).ok().as_deref() != Some(reference.as_slice()) {
            pass.problems
                .push("the store-filling run's CSV differs from the reference".into());
        }
    }

    let start = Instant::now();
    let (mut cpu_ms, mut op) = (Samples::default(), 0u64);
    // A traced pass runs one figure, only to read its `--metrics-out`
    // counters: the process is black-box, so no span runs inside it and
    // there is no trace overhead to measure. The layer probes after it
    // are the traced run's point.
    let traced = trace.is_some();
    let more = |op: u64| op == 0 || (!traced && start.elapsed().as_secs_f64() < ctx.seconds);
    while more(op) {
        let csv = ctx.dir.join(format!("op-{op}.csv"));
        let metrics = traced.then(|| ctx.dir.join(format!("op-{op}.metrics.json")));
        let began = Instant::now();
        let run = figure_command(ctx, &csv, false, store.as_deref(), metrics.as_deref())
            .and_then(|mut c| proc::run_sampled(&mut c));
        let ok = match &run {
            Ok(r) => {
                r.status.success()
                    && std::fs::read(&csv).ok().as_deref() == Some(reference.as_slice())
            }
            Err(_) => false,
        };
        pass.tally.record(ok);
        if let (true, Ok(r)) = (ok, &run) {
            let wall = ms(r.wall);
            pass.op_ms.push(wall);
            cpu_ms.push(r.cpu_s * 1e3);
            pass.peak_rss_mb = pass.peak_rss_mb.max(r.peak_rss_mb);
        }
        if let (Some(t), Some(path)) = (trace.as_deref_mut(), &metrics) {
            t.close("e2e.figure", began, None, Some(op));
            read_metrics_out(path, &mut pass.counters);
        }
        op += 1;
    }
    pass.cpu_ms_per_op = cpu_ms.p50().unwrap_or(0.0);
    pass
}

/// Folds a `--metrics-out` snapshot's counters into `into`, under the
/// daemon's Prometheus names so both sources read alike.
fn read_metrics_out(path: &Path, into: &mut BTreeMap<String, f64>) {
    let Some(snapshot) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| json::parse(&t).ok())
    else {
        return;
    };
    if let Some(Value::Obj(pairs)) = snapshot.get("counters") {
        for (name, v) in pairs {
            if let Some(x) = v.as_f64() {
                into.insert(prom_name(name), x);
            }
        }
    }
}

// ---------------------------------------------------------------- serve

/// A job the submitter handed to the poller.
struct Submitted {
    index: usize,
    id: u64,
    due: Instant,
    traced: bool,
    span: u64,
}

/// How a submitted job ended, as the client saw it.
enum JobEnd {
    Completed {
        latency_ms: f64,
        cycles: Option<f64>,
        traced: bool,
    },
    Failed(String),
}

/// The poller thread's observations.
#[derive(Default)]
struct Polled {
    ends: Vec<(usize, JobEnd)>,
    scrape_ms: Samples,
    health_ms: Samples,
    polls: u64,
    connections: u64,
}

/// The serve workloads' job stream for `seed`: due offsets (s) and specs.
#[must_use]
pub fn serve_stream(seed: u64, hot: bool, seconds: f64) -> (Vec<f64>, Vec<Spec>) {
    let rate = if hot { HOT_RATE } else { FRESH_RATE };
    let due = sched::poisson(seed, rate, seconds);
    let specs = if hot {
        let set = sched::hot_set(seed);
        sched::hot_stream(seed, due.len())
            .into_iter()
            .map(|i| set[i].clone())
            .collect()
    } else {
        sched::fresh_specs(seed, due.len())
    };
    (due, specs)
}

/// Submits every spec and waits until all completed: the hot set's
/// warm-up, so measured hot jobs hit the daemon's unit cache. Requests
/// go out one poll gap apart, like the poller's: a request sent back to
/// back with the previous one races the daemon's idle sleep, and that
/// race alone would make the set-up time bimodal.
fn warm_up(socket: &Path, specs: &[Spec]) -> Result<(), String> {
    let mut ids = Vec::new();
    for spec in specs {
        std::thread::sleep(POLL_GAP);
        let v = proc::request(socket, &spec.submit_line())?;
        ids.push(
            v.get("job")
                .and_then(Value::as_f64)
                .filter(|_| proc::ok(&v))
                .ok_or("warm-up submit rejected")?,
        );
    }
    for id in ids {
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let v = proc::request(socket, &format!("{{\"cmd\":\"status\",\"job\":{id}}}"))?;
            match v.get("status").and_then(Value::as_str) {
                Some("completed") => break,
                Some("queued" | "running") if Instant::now() < deadline => {
                    std::thread::sleep(POLL_GAP)
                }
                other => return Err(format!("warm-up job {id} ended {other:?}")),
            }
        }
    }
    Ok(())
}

/// One serve pass: set-up, the open-loop measured phase, then the
/// correctness checks. `seconds` is the length of the arrival schedule.
#[must_use]
pub fn serve(ctx: &Ctx, hot: bool, seconds: f64, mut trace: Option<&mut Trace>) -> Pass {
    let mut pass = Pass::default();
    let (due, specs) = serve_stream(ctx.seed, hot, seconds);
    let hot_set = sched::hot_set(ctx.seed);
    let warm_jobs = if hot { hot_set.len() } else { 0 };

    // Set-up: start a daemon until `health` answers (and warm the hot set);
    // repeated, keeping the last daemon, so `setup_s` is a median.
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            if let Err(e) = previous.stop() {
                pass.problems.push(e);
            }
        }
        let began = Instant::now();
        let started =
            Daemon::start(&ctx.eureka, &ctx.dir.join(format!("serve-{rep}"))).and_then(|d| {
                if hot {
                    warm_up(d.socket(), &hot_set).map(|()| d)
                } else {
                    Ok(d)
                }
            });
        match started {
            Ok(d) => {
                pass.setup_s.push(began.elapsed().as_secs_f64());
                daemon = Some(d);
            }
            Err(e) => pass.problems.push(format!("set-up: {e}")),
        }
    }
    let Some(daemon) = daemon else {
        pass.tally.record(false);
        return pass;
    };
    let socket = daemon.socket().to_path_buf();
    let cpu_before = proc::cpu_state(daemon.pid()).map_or(0.0, |(_, s)| s);

    let origin = Instant::now();
    let (tx, rx) = mpsc::channel::<Submitted>();
    let mut ends: Vec<Option<JobEnd>> = (0..due.len()).map(|_| None).collect();
    let mut accepted = 0usize;
    let (polled, helper) = std::thread::scope(|s| {
        let helper_trace = trace.as_ref().map(|_| Trace::new(origin, 1));
        let poller = s.spawn(|| poll_jobs(&socket, rx, origin, hot, helper_trace));
        for (index, (&offset, spec)) in due.iter().zip(&specs).enumerate() {
            let due_at = origin + Duration::from_secs_f64(offset);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            pass.lateness_ms
                .push(ms(Instant::now().saturating_duration_since(due_at)));
            let traced = trace.is_some() && traced_block(offset as u64);
            let sent = Instant::now();
            let response = proc::request(&socket, &spec.submit_line());
            pass.connections += 1;
            // The job's own span closes in the poller once it is terminal.
            let span = match (traced, trace.as_deref_mut()) {
                (true, Some(t)) => {
                    let job = t.reserve();
                    t.close("cli.serve.submit", sent, Some(job), Some(index as u64));
                    job
                }
                _ => 0,
            };
            match response {
                Ok(v) if proc::ok(&v) => {
                    accepted += 1;
                    pass.submit_ms.push(ms(due_at.elapsed()));
                    let id = v.get("job").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                    let job = Submitted {
                        index,
                        id,
                        due: due_at,
                        traced,
                        span,
                    };
                    if tx.send(job).is_err() {
                        ends[index] = Some(JobEnd::Failed("poller stopped".into()));
                    }
                }
                Ok(v) => {
                    ends[index] = Some(JobEnd::Failed(format!("submit rejected: {}", v.to_json())))
                }
                Err(e) => ends[index] = Some(JobEnd::Failed(e)),
            }
        }
        drop(tx);
        poller.join().expect("the poller thread does not panic")
    });
    if let (Some(t), Some(h)) = (trace, helper) {
        t.absorb(h);
    }
    pass.window_s = origin.elapsed().as_secs_f64();
    pass.polls = polled.polls;
    pass.connections += polled.connections;
    pass.scrape_ms = polled.scrape_ms;
    pass.health_ms = polled.health_ms;
    for (index, end) in polled.ends {
        ends[index] = Some(end);
    }

    // End of the measured phase: the daemon's own view, then its
    // resources, then a SIGTERM drain.
    let stats = proc::request(&socket, r#"{"cmd":"stats"}"#);
    let metrics = proc::request(&socket, r#"{"cmd":"metrics"}"#);
    pass.peak_rss_mb = proc::peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    let cpu_s = proc::cpu_state(daemon.pid()).map_or(0.0, |(_, s)| s) - cpu_before;
    if let Err(e) = daemon.stop() {
        pass.problems.push(e);
    }
    match metrics
        .as_ref()
        .map(|v| v.get("text").and_then(Value::as_str))
    {
        Ok(Some(text)) => pass.counters = parse_prometheus(text),
        _ => pass.problems.push("final metrics scrape failed".into()),
    }

    // Correctness: every 16th completed job's cycles re-derived by the
    // CLI, then one tally entry per scheduled job.
    let mut expected: HashMap<&Spec, Result<f64, String>> = HashMap::new();
    let mut completed = 0usize;
    for (index, end) in ends.into_iter().enumerate() {
        let end = end.unwrap_or(JobEnd::Failed("never resolved".into()));
        let failure = match end {
            JobEnd::Completed {
                latency_ms,
                cycles,
                traced,
            } => {
                completed += 1;
                let check = (index % CYCLE_CHECK_EVERY == 0).then(|| {
                    let want = expected
                        .entry(&specs[index])
                        .or_insert_with(|| cli_cycles(ctx, &specs[index]));
                    match (want, cycles) {
                        (Ok(w), Some(c)) if *w == c => None,
                        (want, got) => Some(format!(
                            "job {index} {:?}: cycles {got:?}, CLI says {want:?}",
                            specs[index]
                        )),
                    }
                });
                let failure = check.flatten();
                if failure.is_none() {
                    pass.op_ms.push(latency_ms);
                    if traced {
                        pass.op_ms_traced.push(latency_ms);
                    } else {
                        pass.op_ms_untraced.push(latency_ms);
                    }
                }
                failure
            }
            JobEnd::Failed(why) => Some(format!("job {index}: {why}")),
        };
        pass.tally.record(failure.is_none());
        if let Some(why) = failure {
            if pass.problems.len() < 20 {
                pass.problems.push(why);
            }
        }
    }
    pass.cpu_ms_per_op = if completed > 0 {
        cpu_s * 1e3 / completed as f64
    } else {
        0.0
    };

    // The daemon's outcome classes must account for exactly the jobs it
    // accepted, every one of them completed.
    let want = (warm_jobs + accepted) as f64;
    match stats {
        Ok(v) => {
            let n = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(-1.0);
            let failed_classes = n("shed") + n("cancelled") + n("deadline_exceeded") + n("failed");
            if n("completed") != want || n("served") != want || failed_classes != 0.0 {
                pass.problems.push(format!(
                    "daemon stats do not reconcile: served {} completed {} other {failed_classes}, expected {want} completed",
                    n("served"),
                    n("completed")
                ));
            }
        }
        Err(e) => pass.problems.push(format!("final stats scrape: {e}")),
    }
    pass
}

/// The poller thread: polls each outstanding job's `status` every 2 ms
/// until it is terminal; scrapes `stats`/`metrics` (serve-hot, and traced
/// blocks) and sends `health` (traced blocks).
fn poll_jobs(
    socket: &Path,
    rx: Receiver<Submitted>,
    origin: Instant,
    hot: bool,
    mut trace: Option<Trace>,
) -> (Polled, Option<Trace>) {
    struct Pending {
        job: Submitted,
        /// When the next poll is due. The first is one gap after the
        /// acknowledgement too: an immediate poll would race the worker
        /// picking the job up, making the poll count per job (and with it
        /// the daemon's work) depend on scheduling luck.
        next: Instant,
    }
    let mut out = Polled::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut open = true;
    let (mut next_stats, mut next_metrics, mut next_health) = (origin, origin, origin);
    loop {
        loop {
            match rx.try_recv() {
                Ok(job) => pending.push(Pending {
                    job,
                    next: Instant::now() + POLL_GAP,
                }),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if !open && pending.is_empty() {
            return (out, trace);
        }
        let now = Instant::now();
        let traced_now = trace.is_some() && traced_block(now.duration_since(origin).as_secs());
        let scraping = hot || traced_now;
        let mut wake = now + Duration::from_millis(50);

        // Reads beside the writes: scrapes and health probes.
        let probes: [(&str, &str, &mut Instant, Duration, bool); 3] = [
            (
                "cli.serve.scrape.stats",
                r#"{"cmd":"stats"}"#,
                &mut next_stats,
                STATS_EVERY,
                scraping,
            ),
            (
                "cli.serve.scrape.metrics",
                r#"{"cmd":"metrics"}"#,
                &mut next_metrics,
                METRICS_EVERY,
                scraping,
            ),
            (
                "cli.serve.health",
                r#"{"cmd":"health"}"#,
                &mut next_health,
                HEALTH_EVERY,
                traced_now,
            ),
        ];
        let mut probed = false;
        for (name, line, next, every, enabled) in probes {
            if !enabled {
                continue;
            }
            if *next <= now && !probed {
                let sent = Instant::now();
                let ok = proc::request(socket, line).is_ok_and(|v| proc::ok(&v));
                out.connections += 1;
                let samples = if name == "cli.serve.health" {
                    &mut out.health_ms
                } else {
                    &mut out.scrape_ms
                };
                if ok {
                    samples.push(ms(sent.elapsed()));
                }
                if let Some(t) = trace.as_mut().filter(|_| traced_now) {
                    t.close(name, sent, None, None);
                }
                *next = Instant::now() + every;
                probed = true;
            }
            wake = wake.min(*next);
        }
        if probed {
            continue;
        }

        // The most overdue job's status poll.
        let due_now = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.next <= now)
            .min_by_key(|(_, p)| p.next);
        if let Some((slot, _)) = due_now {
            let p = &mut pending[slot];
            let sent = Instant::now();
            let response = proc::request(
                socket,
                &format!("{{\"cmd\":\"status\",\"job\":{}}}", p.job.id),
            );
            out.polls += 1;
            out.connections += 1;
            let seen = Instant::now();
            if let Some(t) = trace.as_mut().filter(|_| p.job.traced) {
                t.close(
                    "cli.serve.status",
                    sent,
                    Some(p.job.span),
                    Some(p.job.index as u64),
                );
            }
            let end = match response {
                Ok(v) => match v.get("status").and_then(Value::as_str) {
                    Some("queued" | "running") if seen.duration_since(p.job.due) < JOB_TIMEOUT => {
                        p.next = seen + POLL_GAP;
                        None
                    }
                    Some("completed") => Some(JobEnd::Completed {
                        latency_ms: ms(seen.duration_since(p.job.due)),
                        cycles: v.get("cycles").and_then(Value::as_f64),
                        traced: p.job.traced,
                    }),
                    _ => Some(JobEnd::Failed(format!("status {}", v.to_json()))),
                },
                Err(e) => Some(JobEnd::Failed(e)),
            };
            if let Some(end) = end {
                let job = pending.swap_remove(slot).job;
                if let (Some(t), true) = (trace.as_mut(), job.traced) {
                    t.close_as(job.span, "e2e.job", job.due, None, Some(job.index as u64));
                }
                out.ends.push((job.index, end));
            }
            continue;
        }
        if let Some(p) = pending.iter().min_by_key(|p| p.next) {
            wake = wake.min(p.next);
        }
        let wait = wake.saturating_duration_since(Instant::now());
        if open {
            match rx.recv_timeout(wait) {
                Ok(job) => pending.push(Pending {
                    job,
                    next: Instant::now() + POLL_GAP,
                }),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        } else {
            std::thread::sleep(wait);
        }
    }
}

/// Counter and histogram-summary samples of a Prometheus exposition.
#[must_use]
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Total cycles of `spec` as `eureka simulate --fast` reports them: the
/// reference the daemon's answer must equal.
fn cli_cycles(ctx: &Ctx, spec: &Spec) -> Result<f64, String> {
    let out = Command::new(&ctx.eureka)
        .args([
            "simulate",
            "--benchmark",
            spec.bench,
            "--pruning",
            spec.pruning,
            "--arch",
            spec.arch,
        ])
        .args([
            "--batch",
            &spec.batch.to_string(),
            "--fast",
            "--csv",
            "--jobs",
            "1",
            "--no-ledger",
            "--no-progress",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("eureka simulate: {e}"))?;
    if !out.status.success() {
        return Err(format!("eureka simulate exited with {}", out.status));
    }
    // Columns 2 and 3 of each layer row: compute and memory cycles.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .skip(1)
        .filter(|row| !row.is_empty())
        .map(|row| {
            let cols: Vec<&str> = row.split(',').collect();
            let cycles = |i: usize| cols.get(i).and_then(|c| c.parse::<f64>().ok());
            Some(cycles(1)? + cycles(2)?)
        })
        .sum::<Option<f64>>()
        .ok_or_else(|| "malformed simulate CSV".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_samples_parse_and_names_match_the_exporter() {
        let text = "# TYPE eureka_cache_hits counter\neureka_cache_hits 3\n\
                    eureka_service_e2e_us_completed_bucket{le=\"10\"} 1\n\
                    eureka_service_e2e_us_completed_sum 1500\n";
        let m = parse_prometheus(text);
        assert_eq!(m.get("eureka_cache_hits"), Some(&3.0));
        assert_eq!(m.get("eureka_service_e2e_us_completed_sum"), Some(&1500.0));
        assert_eq!(m.len(), 2);
        assert_eq!(
            prom_name("service.e2e_us.completed"),
            "eureka_service_e2e_us_completed"
        );
    }

    #[test]
    fn serve_streams_are_seeded_and_never_empty() {
        let (due, specs) = serve_stream(1, false, 10.0);
        assert_eq!(due.len(), specs.len());
        assert_eq!(serve_stream(1, false, 10.0).1, specs);
        let (due, specs) = serve_stream(1, true, 0.0);
        assert_eq!((due.len(), specs.len()), (1, 1));
    }
}
