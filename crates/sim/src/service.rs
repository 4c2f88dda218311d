//! Resident job service: admission control, deadlines, cancellation,
//! and crash recovery over the runner.
//!
//! A [`JobService`] owns a single worker thread and a bounded admission
//! queue. Submitting a [`JobSpec`] either admits it — journaled as
//! *accepted* ([`crate::journal`]) before anything else happens, so a
//! SIGKILL'd process replays it on restart — or rejects it with a typed
//! [`SubmitError`]: [`SubmitError::Overloaded`] when the queue is full
//! (load shedding, backpressure to the caller) or
//! [`SubmitError::Draining`] once a graceful drain has begun.
//!
//! Jobs execute one at a time under the full resilience stack: bounded
//! retries with seeded exponential backoff ([`crate::backoff`]),
//! cooperative cancellation and deadlines checked at unit boundaries
//! ([`crate::runner::CancelToken`]), unit records that every job shares
//! (one [`Runner`] built at start, whose store directory is read once
//! per daemon, so a replayed job never recomputes units it completed in
//! a previous life), and a terminal journal record when the job leaves
//! the system.
//!
//! Every lifecycle transition is written twice: to the always-armed
//! flight recorder ([`eureka_obs::flightrec`]: `job-admitted`,
//! `job-dequeued`, `job-finished`, `job-shed`) and to the `service.*`
//! counters. Monotonic admission / dequeue / start / finish timestamps
//! feed the timing-class latency histograms
//! `service.{queue_wait_us,exec_us,e2e_us}.<outcome>` (one per
//! [`OUTCOME_CLASSES`] entry). Latencies are recorded only at terminal
//! transitions — when the outcome class is finally known — and a job
//! is published as terminal (its status, and the service idle) only
//! after all of its records are written, so once [`JobService::wait_idle`]
//! returns each class's histogram `count` equals its counter exactly
//! ([`JobService::latency_counts`]), and the counters reconcile:
//!
//! ```text
//! service.served == service.completed + service.shed
//!                 + service.cancelled + service.deadline_exceeded
//!                 + service.failed
//! ```
//!
//! (`service.served` counts every admission — fresh, recovered, or
//! shed — *in this service's lifetime*; a crashed generation leaves a gap
//! that the next generation's recovery re-admissions close.)
//!
//! A service counts into the metrics registry of the runner it builds at
//! start ([`JobService::metrics`]), beside that runner's own `runner.*`
//! and `store.*` metrics, so two services in one process never mix
//! their counts.
//!
//! The wire protocol (JSON-lines over a Unix socket) lives in
//! [`handle_request`]; the socket accept loop itself is in the CLI,
//! which also owns the SIGTERM latch that triggers [`JobService::drain`].
//! The loop answers through [`respond`], which hands back the worker
//! wake of an admitted submit as a [`Wake`], so the reply is written
//! before the worker takes the CPU to run the job.

use crate::arch;
use crate::backoff::BackoffPolicy;
use crate::config::SimConfig;
use crate::journal::{Journal, JournalState};
use crate::outcome::{JobOutcome, RetryPolicy};
use crate::runner::{CancelToken, Runner, SimJob};
use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::applog::fnv1a64;
use eureka_obs::flightrec;
use eureka_obs::json::Value;
use eureka_obs::metrics::{self, Class, Counter, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spec format marker, the first `|`-field of [`JobSpec::canonical`].
const SPEC_HEADER: &str = "eureka-job v1";

/// One unit of admitted work: a benchmark × pruning × batch × arch
/// simulation request, plus its resilience envelope (deadline, retry
/// budget). The canonical rendering is the job's durable identity: it
/// names the journal entry, so resubmitting an identical spec after a
/// crash dedups onto the same record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The network to simulate.
    pub benchmark: Benchmark,
    /// The pruning level.
    pub pruning: PruningLevel,
    /// Batch size (≥ 1).
    pub batch: usize,
    /// Architecture registry name ([`crate::arch::by_name`]).
    pub arch: String,
    /// Per-job deadline in milliseconds, measured from execution start;
    /// `0` defers to [`ServiceConfig::default_deadline_ms`].
    pub deadline_ms: u64,
    /// Per-job retry budget: how many *re*-attempts each failed unit
    /// gets beyond its first try.
    pub retries: u32,
}

/// Stable kebab token for a benchmark (the CLI's primary alias).
fn benchmark_token(b: Benchmark) -> &'static str {
    match b {
        Benchmark::MobileNetV1 => "mobilenetv1",
        Benchmark::InceptionV3 => "inceptionv3",
        Benchmark::ResNet50 => "resnet50",
        Benchmark::BertSquad => "bert",
    }
}

fn benchmark_from_token(s: &str) -> Option<Benchmark> {
    Some(match s {
        "mobilenetv1" => Benchmark::MobileNetV1,
        "inceptionv3" => Benchmark::InceptionV3,
        "resnet50" => Benchmark::ResNet50,
        "bert" => Benchmark::BertSquad,
        _ => return None,
    })
}

fn pruning_from_token(s: &str) -> Option<PruningLevel> {
    Some(match s {
        "dense" => PruningLevel::Dense,
        "cons" => PruningLevel::Conservative,
        "mod" => PruningLevel::Moderate,
        _ => return None,
    })
}

impl JobSpec {
    /// A spec with the service-default deadline and retry budget.
    #[must_use]
    pub fn new(
        benchmark: Benchmark,
        pruning: PruningLevel,
        batch: usize,
        arch: impl Into<String>,
    ) -> Self {
        JobSpec {
            benchmark,
            pruning,
            batch,
            arch: arch.into(),
            deadline_ms: 0,
            retries: 0,
        }
    }

    /// Stable single-line rendering: the journal spec and the content
    /// key. Identical specs — across processes, across restarts —
    /// render identically.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "{SPEC_HEADER}|bench={}|pruning={}|batch={}|arch={}|deadline_ms={}|retries={}",
            benchmark_token(self.benchmark),
            self.pruning.label(),
            self.batch,
            self.arch,
            self.deadline_ms,
            self.retries,
        )
    }

    /// Inverse of [`JobSpec::canonical`]; `None` for anything
    /// malformed (unknown header, missing field, bad number). Does not
    /// check the architecture against the registry — that happens at
    /// submission, so a journal written by a newer binary still parses.
    #[must_use]
    pub fn parse(s: &str) -> Option<JobSpec> {
        let mut fields = s.split('|');
        if fields.next()? != SPEC_HEADER {
            return None;
        }
        let mut benchmark = None;
        let mut pruning = None;
        let mut batch = None;
        let mut arch = None;
        let mut deadline_ms = None;
        let mut retries = None;
        for field in fields {
            let (k, v) = field.split_once('=')?;
            match k {
                "bench" => benchmark = Some(benchmark_from_token(v)?),
                "pruning" => pruning = Some(pruning_from_token(v)?),
                "batch" => batch = Some(v.parse().ok()?),
                "arch" => arch = Some(v.to_string()),
                "deadline_ms" => deadline_ms = Some(v.parse().ok()?),
                "retries" => retries = Some(v.parse().ok()?),
                _ => return None,
            }
        }
        Some(JobSpec {
            benchmark: benchmark?,
            pruning: pruning?,
            batch: batch?,
            arch: arch?,
            deadline_ms: deadline_ms?,
            retries: retries?,
        })
    }

    /// 16-hex-digit content digest of the canonical spec (the journal
    /// file stem; also the `key` field of a `submit` response).
    #[must_use]
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full; the caller should back off and
    /// retry. Counted as shed load (`service.shed`).
    Overloaded {
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The service is draining (SIGTERM or an operator drain) and
    /// admits nothing new. Counted as shed load.
    Draining,
    /// The spec itself is unusable (unknown architecture, zero batch).
    /// Not counted as served: nothing was admitted or shed.
    Invalid(String),
    /// The write-ahead *accepted* record could not be written, so the
    /// durability promise cannot be made. Not counted as served.
    Journal(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded { capacity } => {
                write!(f, "overloaded: admission queue at capacity {capacity}")
            }
            SubmitError::Draining => write!(f, "draining: service admits no new jobs"),
            SubmitError::Invalid(why) => write!(f, "invalid job spec: {why}"),
            SubmitError::Journal(why) => write!(f, "journal write failed: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for the worker.
    Queued,
    /// Executing right now.
    Running,
    /// Every layer simulated successfully; the report is available.
    Completed,
    /// At least one layer failed permanently (retry budget exhausted).
    Failed,
    /// Cancelled by an operator before completing.
    Cancelled,
    /// Cooperatively stopped when its deadline passed.
    DeadlineExceeded,
}

impl JobStatus {
    /// Stable label (wire protocol, event fields, reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Whether the job has left the system.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Service tuning: queue bound, resilience defaults, storage roots.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission queue bound; submissions beyond it are shed with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to jobs whose spec says `0` (`0` = none).
    pub default_deadline_ms: u64,
    /// Backoff schedule between unit retry attempts.
    pub backoff: BackoffPolicy,
    /// Write-ahead journal directory (required: it is the crash story).
    pub journal_dir: PathBuf,
    /// Result-store directory, passed through to
    /// [`Runner::with_store_dir`]: each completed unit is appended to its
    /// records as it finishes, so a replayed job resumes instead of
    /// recomputing it; tile shards live beside them.
    pub store_dir: Option<PathBuf>,
    /// Runner worker threads per job (`0` = auto).
    pub jobs: usize,
    /// Simulator configuration applied to every job.
    pub sim: SimConfig,
    /// Start paused (test hook): queued jobs wait until
    /// [`JobService::release`], making overload and crash windows
    /// deterministic.
    pub hold: bool,
    /// Chaos hook: wrap every resolved architecture in a
    /// [`crate::faults::FaultyArch`] carrying this plan, under the
    /// given display tag (tags namespace the unit records, so injected
    /// runs never alias clean ones — and two generations sharing a tag
    /// *do* share a store directory's records, which the crash-recovery
    /// chaos scenarios rely on).
    pub fault: Option<(crate::faults::FaultPlan, String)>,
    /// Directory for flight-recorder dumps
    /// (`flightrec-<pid>.jsonl`, written by the `dump` protocol verb
    /// and the serve loop's crash/signal hooks).
    pub flightrec_dir: PathBuf,
}

impl ServiceConfig {
    /// Defaults: queue of 8, no default deadline, jittered exponential
    /// backoff (500 µs base, 50 ms cap), single-threaded runner, fast
    /// simulator profile.
    #[must_use]
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            queue_capacity: 8,
            default_deadline_ms: 0,
            backoff: BackoffPolicy::exponential(500, 50_000),
            journal_dir: journal_dir.into(),
            store_dir: None,
            jobs: 1,
            sim: SimConfig::fast(),
            hold: false,
            fault: None,
            flightrec_dir: PathBuf::from("results"),
        }
    }
}

/// Outcome classes, in the order [`JobService::latency_counts`] reports
/// them and [`ServiceStats::reconciled`] sums them. Every terminal
/// latency sample lands in exactly one class, so at quiescence each
/// class's histogram count equals its `service.*` counter.
pub const OUTCOME_CLASSES: &[&str] = &[
    "completed",
    "shed",
    "cancelled",
    "deadline_exceeded",
    "failed",
];

/// The three latency histograms of one outcome class.
struct ClassHists {
    /// `service.queue_wait_us.<class>`: admission → dequeue.
    queue_wait: Arc<Histogram>,
    /// `service.exec_us.<class>`: execution start → finish.
    exec: Arc<Histogram>,
    /// `service.e2e_us.<class>`: admission → terminal. Recorded for
    /// *every* terminal transition (shed requests record `0`: they
    /// leave at admission), so its count is the class's job count.
    e2e: Arc<Histogram>,
}

/// Handles to a service's metrics, registered at start in its runner's
/// registry: the `service.*` counters, and the per-outcome-class latency
/// histograms indexed like [`OUTCOME_CLASSES`] — [`Class::Timing`]
/// (wall-clock derived: excluded from the deterministic snapshot /
/// `metrics_digest` by design).
struct ServiceMetrics {
    registry: Registry,
    served: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    cancelled: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    failed: Arc<Counter>,
    recovered: Arc<Counter>,
    retried: Arc<Counter>,
    classes: [ClassHists; 5],
    /// The runner's `runner.retries.attempts`, read around each job.
    unit_retries: Arc<Counter>,
    /// `journal.errors`, registered once the service has read a journal
    /// log or failed to write one.
    journal_errors: OnceLock<Arc<Counter>>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> Self {
        let c = |name| registry.counter(name, Class::Deterministic);
        let class = |name: &str| {
            let h = |phase: &str| {
                registry.histogram(
                    &format!("service.{phase}.{name}"),
                    Class::Timing,
                    metrics::TIME_BUCKETS_US,
                )
            };
            ClassHists {
                queue_wait: h("queue_wait_us"),
                exec: h("exec_us"),
                e2e: h("e2e_us"),
            }
        };
        ServiceMetrics {
            registry: registry.clone(),
            served: c("service.served"),
            completed: c("service.completed"),
            shed: c("service.shed"),
            cancelled: c("service.cancelled"),
            deadline_exceeded: c("service.deadline_exceeded"),
            failed: c("service.failed"),
            recovered: c("service.recovered"),
            retried: c("service.retried"),
            classes: std::array::from_fn(|i| class(OUTCOME_CLASSES[i])),
            unit_retries: c("runner.retries.attempts"),
            journal_errors: OnceLock::new(),
        }
    }

    /// Adds `n` to `journal.errors`, registering it on the first call,
    /// so a service on a fresh journal directory exports no
    /// `journal.errors` until it has one to report.
    fn journal_errors(&self, n: u64) {
        self.journal_errors
            .get_or_init(|| {
                self.registry
                    .counter("journal.errors", Class::Deterministic)
            })
            .add(n);
    }
}

/// [`OUTCOME_CLASSES`] index of a *terminal* status (shed is not a
/// [`JobStatus`]; its index is 1 at the shed sites directly).
fn class_index(status: JobStatus) -> usize {
    match status {
        JobStatus::Completed => 0,
        JobStatus::Cancelled => 2,
        JobStatus::DeadlineExceeded => 3,
        _ => 4,
    }
}

/// A [`Duration`] in whole microseconds (saturating).
fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Snapshot of the `service.*` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStats {
    /// Admissions this process lifetime: fresh accepts + recovery
    /// re-admissions + shed submissions.
    pub served: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Submissions rejected for overload or drain.
    pub shed: u64,
    /// Jobs cancelled by an operator.
    pub cancelled: u64,
    /// Jobs stopped at their deadline.
    pub deadline_exceeded: u64,
    /// Jobs that failed permanently.
    pub failed: u64,
    /// Jobs replayed from the journal at startup.
    pub recovered: u64,
    /// Jobs that needed at least one unit retry.
    pub retried: u64,
}

impl ServiceStats {
    /// The ledger reconciliation invariant, valid at quiescence (no
    /// queued or running jobs, no crashed generation since the last
    /// metric reset).
    #[must_use]
    pub fn reconciled(&self) -> bool {
        self.served
            == self.completed + self.shed + self.cancelled + self.deadline_exceeded + self.failed
    }
}

/// SLA summary of one service lifetime against a latency budget:
/// sustained completed-jobs/sec, shed rate, and whether the service
/// saturated (p99 end-to-end latency over budget, or any load shed).
/// Written into the run ledger by `eureka serve --sla-budget-us` so
/// `bench diff` gates service-latency regressions like cycle
/// regressions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlaReport {
    /// The configured end-to-end latency budget (µs).
    pub budget_us: u64,
    /// Observed p99 end-to-end latency of *completed* jobs (µs).
    pub p99_e2e_us: u64,
    /// Completed jobs per wall-clock second over the service lifetime.
    pub jobs_per_sec: f64,
    /// Shed submissions / total served (0 when nothing was served).
    pub shed_rate: f64,
    /// `p99_e2e_us > budget_us || shed_rate > 0`: the service could not
    /// absorb its offered load within budget.
    pub saturated: bool,
}

/// The SLA summary for `service`'s current `service.*` state over
/// `elapsed` of service lifetime. Uses the completed class's e2e
/// histogram for p99, so call at quiescence (after drain) for exact
/// accounting.
#[must_use]
pub fn sla_report(service: &JobService, budget_us: u64, elapsed: Duration) -> SlaReport {
    let stats = service.stats();
    let p99_e2e_us = service.inner.metrics.classes[0].e2e.p99();
    #[allow(clippy::cast_precision_loss)]
    let jobs_per_sec = stats.completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    #[allow(clippy::cast_precision_loss)]
    let shed_rate = if stats.served == 0 {
        0.0
    } else {
        stats.shed as f64 / stats.served as f64
    };
    SlaReport {
        budget_us,
        p99_e2e_us,
        jobs_per_sec,
        shed_rate,
        saturated: p99_e2e_us > budget_us || shed_rate > 0.0,
    }
}

/// A finished job's latency breakdown, from its monotonic lifecycle
/// stamps (`None` for phases the job never reached — a queued job has
/// no exec time yet; a job cancelled in the queue never gets one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobTimeline {
    /// Admission → dequeue (for jobs cancelled while still queued:
    /// admission → cancellation).
    pub queue_wait_us: Option<u64>,
    /// Execution start → finish.
    pub exec_us: Option<u64>,
    /// Admission → terminal.
    pub e2e_us: Option<u64>,
}

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    outcome: Option<JobOutcome>,
    admitted_at: Instant,
    dequeued_at: Option<Instant>,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
}

struct ServiceState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
    draining: bool,
    stopping: bool,
    paused: bool,
    crashed: bool,
    running: Option<(u64, CancelToken)>,
}

struct ServiceInner {
    cfg: ServiceConfig,
    /// Every job runs on a clone of this runner, so all jobs share its
    /// unit records and its metrics registry.
    runner: Runner,
    metrics: ServiceMetrics,
    journal: Journal,
    state: Mutex<ServiceState>,
    work: Condvar,
    idle: Condvar,
}

/// The resident job service: one worker thread, a bounded queue, a
/// write-ahead journal. See the [module docs](self) for the lifecycle.
pub struct JobService {
    inner: Arc<ServiceInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl JobService {
    /// Starts the service: replays accepted-but-unfinished jobs from
    /// the journal (ticking `service.recovered` + `service.served` per
    /// replayed job), then spawns the worker thread.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        let journal = Journal::new(cfg.journal_dir.clone());
        let paused = cfg.hold;
        let mut runner = Runner::with_jobs(cfg.jobs).with_backoff(cfg.backoff);
        if let Some(dir) = &cfg.store_dir {
            runner = runner.with_store_dir(dir);
        }
        let metrics = ServiceMetrics::new(runner.metrics());
        let inner = Arc::new(ServiceInner {
            cfg,
            runner,
            metrics,
            journal,
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 1,
                draining: false,
                stopping: false,
                paused,
                crashed: false,
                running: None,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });

        // Crash recovery: re-admit every journaled job that never
        // reached a terminal state. Unfinished units recompute; units
        // the previous life completed replay from the store directory.
        let (recovered_specs, journal_errors) = inner.journal.recover();
        let m = &inner.metrics;
        if let Some(errors) = journal_errors {
            m.journal_errors(errors);
        }
        if !recovered_specs.is_empty() {
            let mut st = lock(&inner.state);
            for spec_text in recovered_specs {
                let Some(spec) = JobSpec::parse(&spec_text) else {
                    // Journaled by an incompatible version: count it as
                    // a journal error and move on, never abort startup.
                    m.journal_errors(1);
                    continue;
                };
                let id = st.next_id;
                st.next_id += 1;
                flightrec::record("job-admitted", id, fnv1a64(spec.canonical().as_bytes()));
                st.jobs.insert(
                    id,
                    JobRecord {
                        spec,
                        status: JobStatus::Queued,
                        outcome: None,
                        admitted_at: Instant::now(),
                        dequeued_at: None,
                        started_at: None,
                        finished_at: None,
                    },
                );
                st.queue.push_back(id);
                m.served.inc();
                m.recovered.inc();
            }
        }

        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("eureka-serve-worker".into())
            .spawn(move || worker_loop(&worker_inner))
            .expect("spawning the service worker thread");
        JobService {
            inner,
            worker: Some(worker),
        }
    }

    /// Submits a job. On admission the spec is journaled as *accepted*
    /// (write-ahead: the durable record exists before the job can run),
    /// queued, the worker woken, and its id returned.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is at capacity,
    /// [`SubmitError::Draining`] during a drain (both shed and counted),
    /// [`SubmitError::Invalid`] for unusable specs,
    /// [`SubmitError::Journal`] when the accepted record cannot be
    /// written.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let (id, wake) = self.admit(spec)?;
        drop(wake);
        Ok(id)
    }

    /// [`submit`](Self::submit) without the wake: the job is journaled
    /// and queued, and the worker is woken when the returned [`Wake`]
    /// drops.
    fn admit(&self, spec: JobSpec) -> Result<(u64, Wake<'_>), SubmitError> {
        let m = &self.inner.metrics;
        if spec.batch == 0 {
            return Err(SubmitError::Invalid("batch must be >= 1".into()));
        }
        if arch::by_name(&spec.arch).is_none() {
            return Err(SubmitError::Invalid(format!(
                "unknown architecture '{}'",
                spec.arch
            )));
        }
        let capacity = self.inner.cfg.queue_capacity;
        // A shed request leaves at admission: its end-to-end latency
        // sample is 0, recorded here so the shed class's histogram
        // count tracks `service.shed` exactly.
        let shed = || {
            m.served.inc();
            m.shed.inc();
            m.classes[1].e2e.record(0);
            flightrec::record("job-shed", 0, capacity as u64);
        };
        let mut st = lock(&self.inner.state);
        if st.draining || st.stopping {
            shed();
            return Err(SubmitError::Draining);
        }
        if st.queue.len() >= capacity {
            shed();
            return Err(SubmitError::Overloaded { capacity });
        }
        // Write-ahead: the accepted record must be durable before the
        // job exists anywhere else.
        if let Err(e) = self
            .inner
            .journal
            .record(&spec.canonical(), JournalState::Accepted)
        {
            return Err(SubmitError::Journal(e.to_string()));
        }
        let id = st.next_id;
        st.next_id += 1;
        flightrec::record("job-admitted", id, fnv1a64(spec.canonical().as_bytes()));
        st.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                outcome: None,
                admitted_at: Instant::now(),
                dequeued_at: None,
                started_at: None,
                finished_at: None,
            },
        );
        st.queue.push_back(id);
        m.served.inc();
        Ok((id, Wake(&self.inner.work)))
    }

    /// The job's current status; `None` for unknown ids.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        lock(&self.inner.state).jobs.get(&id).map(|r| r.status)
    }

    /// The job's outcome, once terminal (`None` before that, and for
    /// cancelled/deadline jobs whose run produced nothing).
    #[must_use]
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        lock(&self.inner.state)
            .jobs
            .get(&id)
            .and_then(|r| r.outcome.clone())
    }

    /// The job's latency breakdown from its lifecycle stamps; `None`
    /// for unknown ids. Phases the job has not reached are `None`
    /// inside the timeline.
    #[must_use]
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        let st = lock(&self.inner.state);
        let r = st.jobs.get(&id)?;
        let since = |later: Instant, earlier: Instant| us(later.saturating_duration_since(earlier));
        Some(JobTimeline {
            queue_wait_us: r
                .dequeued_at
                .or(r.finished_at) // cancelled in the queue: wait ended at the terminal
                .map(|t| since(t, r.admitted_at)),
            exec_us: match (r.started_at, r.finished_at) {
                (Some(s), Some(f)) => Some(since(f, s)),
                _ => None,
            },
            e2e_us: r.finished_at.map(|f| since(f, r.admitted_at)),
        })
    }

    /// Dumps the flight recorder to this service's configured dump
    /// directory ([`ServiceConfig::flightrec_dir`]), returning the path
    /// written.
    ///
    /// # Errors
    ///
    /// Stringified I/O failure from [`flightrec::dump_to`].
    pub fn dump_flightrec(&self) -> Result<PathBuf, String> {
        flightrec::dump_to(&self.inner.cfg.flightrec_dir).map_err(|e| e.to_string())
    }

    /// Cancels a job: a queued job is removed and recorded terminal
    /// immediately; a running job's token fires and the runner stops at
    /// the next unit boundary. Returns `false` for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let m = &self.inner.metrics;
        let mut st = lock(&self.inner.state);
        if let Some((running_id, token)) = &st.running {
            if *running_id == id {
                token.cancel();
                return true; // classified (and journaled) at run end
            }
        }
        let Some(record) = st.jobs.get_mut(&id) else {
            return false;
        };
        if record.status != JobStatus::Queued {
            return false;
        }
        record.status = JobStatus::Cancelled;
        // Terminal transition: the job left the system from the queue,
        // so its whole life was queue wait (no exec sample).
        let finished = Instant::now();
        record.finished_at = Some(finished);
        let waited = us(finished.saturating_duration_since(record.admitted_at));
        let spec = record.spec.canonical();
        st.queue.retain(|q| *q != id);
        drop(st);
        m.classes[2].queue_wait.record(waited);
        m.classes[2].e2e.record(waited);
        flightrec::record("job-finished", id, class_index(JobStatus::Cancelled) as u64);
        if self
            .inner
            .journal
            .record(&spec, JournalState::Cancelled)
            .is_err()
        {
            m.journal_errors(1);
        }
        m.cancelled.inc();
        true
    }

    /// Releases a held service ([`ServiceConfig::hold`]): the worker
    /// starts draining the queue.
    pub fn release(&self) {
        lock(&self.inner.state).paused = false;
        self.inner.work.notify_all();
    }

    /// Blocks until no job is queued or running (bounded wait; `false`
    /// on timeout). A held service is *not* released — callers that
    /// held it release it first.
    pub fn wait_idle(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut st = lock(&self.inner.state);
        while !(st.queue.is_empty() && st.running.is_none()) {
            if Instant::now() >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .idle
                .wait_timeout(st, Duration::from_millis(25))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        true
    }

    /// Graceful drain: stop admitting (subsequent submissions shed with
    /// [`SubmitError::Draining`]) and finish everything in flight. The
    /// store and journal need no extra
    /// flush — the runner flushes tiles after every job and journal
    /// records are individually atomic. Returns `false` if the drain
    /// timed out.
    pub fn drain(&self) -> bool {
        {
            let mut st = lock(&self.inner.state);
            st.draining = true;
            st.paused = false; // a held service still finishes its work
        }
        self.inner.work.notify_all();
        self.wait_idle()
    }

    /// Reads the `service.*` counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let m = &self.inner.metrics;
        ServiceStats {
            served: m.served.get(),
            completed: m.completed.get(),
            shed: m.shed.get(),
            cancelled: m.cancelled.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            failed: m.failed.get(),
            recovered: m.recovered.get(),
            retried: m.retried.get(),
        }
    }

    /// End-to-end latency sample counts per outcome class, in
    /// [`OUTCOME_CLASSES`] order. At quiescence these equal
    /// `[completed, shed, cancelled, deadline_exceeded, failed]` of
    /// [`JobService::stats`] exactly — the lifecycle reconciliation
    /// invariant the chaos harness asserts per scenario.
    #[must_use]
    pub fn latency_counts(&self) -> [u64; 5] {
        self.inner.metrics.classes.each_ref().map(|c| c.e2e.count())
    }

    /// The metrics registry this service and its runner count into.
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        self.inner.runner.metrics()
    }

    /// `(queued, running, draining)` — the health-endpoint snapshot.
    #[must_use]
    pub fn health(&self) -> (usize, bool, bool) {
        let st = lock(&self.inner.state);
        (st.queue.len(), st.running.is_some(), st.draining)
    }

    /// Graceful shutdown: drain, then stop and join the worker.
    pub fn shutdown(mut self) {
        let _ = self.drain();
        self.stop_worker();
    }

    /// Crash emulation (test hook): abandon everything *without*
    /// journaling terminal states — the in-process equivalent of
    /// SIGKILL. Queued and running jobs keep their *accepted* journal
    /// records, so a service restarted on the same journal directory
    /// replays them.
    pub fn crash(mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.crashed = true;
            st.stopping = true;
            if let Some((_, token)) = &st.running {
                token.cancel();
            }
        }
        self.inner.work.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }

    fn stop_worker(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.stopping = true;
            if let Some((_, token)) = &st.running {
                token.cancel();
            }
        }
        self.inner.work.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for JobService {
    /// Stops the worker without draining. Queued jobs keep their
    /// accepted journal records and replay on the next start; the
    /// running job (if any) is cancelled and journaled as such.
    fn drop(&mut self) {
        self.stop_worker();
    }
}

/// The worker: pops jobs one at a time, runs each under the full
/// resilience stack, records the terminal state.
fn worker_loop(inner: &ServiceInner) {
    let m = &inner.metrics;
    loop {
        // Claim the next job (or exit / go idle).
        let (id, spec, token, admitted_at, wait_us) = {
            let mut st = lock(&inner.state);
            loop {
                if st.stopping {
                    return;
                }
                if !st.paused {
                    if let Some(id) = st.queue.pop_front() {
                        let record = st
                            .jobs
                            .get_mut(&id)
                            .expect("invariant: every queued id has a record");
                        record.status = JobStatus::Running;
                        let dequeued = Instant::now();
                        record.dequeued_at = Some(dequeued);
                        let admitted_at = record.admitted_at;
                        let wait_us = us(dequeued.saturating_duration_since(admitted_at));
                        let spec = record.spec.clone();
                        let deadline_ms = if spec.deadline_ms > 0 {
                            spec.deadline_ms
                        } else {
                            inner.cfg.default_deadline_ms
                        };
                        let token = if deadline_ms > 0 {
                            CancelToken::with_deadline(Duration::from_millis(deadline_ms))
                        } else {
                            CancelToken::new()
                        };
                        st.running = Some((id, token.clone()));
                        break (id, spec, token, admitted_at, wait_us);
                    }
                    inner.idle.notify_all();
                }
                st = inner.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };

        flightrec::record("job-dequeued", id, wait_us);
        let started = Instant::now();

        // Run under retries + backoff + cancellation + shared records.
        // The worker is the only thread driving this service's runner,
        // so the retry-counter delta below is this job's.
        let retries_before = m.unit_retries.get();
        let outcome = run_job(inner, &spec, &token);
        let retried = m.unit_retries.get().saturating_sub(retries_before);

        // Emulating SIGKILL abandons the job exactly as a dead process
        // would leave it: accepted in the journal, nothing else (no
        // terminal latency sample either: the class is never known).
        let finished = Instant::now();
        {
            let mut st = lock(&inner.state);
            if st.crashed {
                st.running = None;
                return;
            }
        }
        let status = match &outcome {
            Some(o) if o.is_complete() => JobStatus::Completed,
            _ if token.cancelled_explicitly() => JobStatus::Cancelled,
            _ if token.deadline_exceeded() => JobStatus::DeadlineExceeded,
            _ => JobStatus::Failed,
        };

        // Write every record of the terminal transition before the job
        // is published as terminal: a caller that sees it finished (via
        // `status` or `wait_idle`) then reads complete `service.*`
        // counters and histograms. The outcome class is only known
        // here, so all three latency samples land now — keeping
        // per-class histogram counts in lockstep with the counters.
        let exec_us = us(finished.saturating_duration_since(started));
        let e2e_us = us(finished.saturating_duration_since(admitted_at));
        let class = &m.classes[class_index(status)];
        class.queue_wait.record(wait_us);
        class.exec.record(exec_us);
        class.e2e.record(e2e_us);
        flightrec::record("job-finished", id, class_index(status) as u64);
        let journal_state = match status {
            JobStatus::Completed => JournalState::Completed,
            JobStatus::Cancelled => JournalState::Cancelled,
            JobStatus::DeadlineExceeded => JournalState::DeadlineExceeded,
            _ => JournalState::Failed,
        };
        if inner
            .journal
            .record(&spec.canonical(), journal_state)
            .is_err()
        {
            m.journal_errors(1);
        }
        if retried > 0 {
            m.retried.inc();
        }
        match status {
            JobStatus::Completed => m.completed.inc(),
            JobStatus::Cancelled => m.cancelled.inc(),
            JobStatus::DeadlineExceeded => m.deadline_exceeded.inc(),
            _ => m.failed.inc(),
        }

        {
            let mut st = lock(&inner.state);
            if let Some(record) = st.jobs.get_mut(&id) {
                record.status = status;
                record.outcome = outcome;
                record.started_at = Some(started);
                record.finished_at = Some(finished);
            }
            st.running = None;
        }
        inner.idle.notify_all();
    }
}

/// A deferred wake of the service worker, handed out for an admitted
/// job by [`respond`]: dropping it wakes the worker. The socket loop
/// holds it until the submit's reply is written, so the worker does not
/// take the CPU from the reply.
#[must_use = "dropping a Wake wakes the worker at once"]
pub struct Wake<'s>(&'s Condvar);

impl Drop for Wake<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Executes one job's simulation. `None` when the architecture no
/// longer resolves (a journal replayed onto a binary without it).
fn run_job(inner: &ServiceInner, spec: &JobSpec, token: &CancelToken) -> Option<JobOutcome> {
    let arch = arch::by_name(&spec.arch)?;
    let arch: Box<dyn crate::arch::Architecture> = match &inner.cfg.fault {
        Some((plan, tag)) => Box::new(crate::faults::FaultyArch::new(arch, plan.clone(), tag)),
        None => arch,
    };
    let workload = Workload::new(spec.benchmark, spec.pruning, spec.batch);
    let runner = inner
        .runner
        .clone()
        .with_retry(RetryPolicy::transient(spec.retries + 1))
        .with_cancel(token.clone());
    let job = SimJob::new(arch.as_ref(), &workload, inner.cfg.sim);
    Some(runner.run_outcome(&job))
}

/// Handles one JSON-lines protocol request and renders the response
/// line. The second return is `true` when the connection loop should
/// shut the whole service down (`shutdown` command).
///
/// Commands: `submit` (inline fields or a canonical `spec` string),
/// `status`, `cancel`, `drain`, `health`, `stats` (counters plus
/// per-outcome-class queue-wait/exec/e2e latency quantiles), `metrics`
/// (the full registry as Prometheus text, embedded as a JSON string
/// field), `dump` (flight recorder → `flightrec-<pid>.jsonl`),
/// `shutdown`. Every response carries `"ok"`; failures add `"error"`.
#[must_use]
pub fn handle_request(service: &JobService, line: &str) -> (String, bool) {
    respond(service, line, &mut None)
}

/// [`handle_request`] with the worker wake deferred: a `submit` that
/// admits a job leaves its [`Wake`] in `wake` instead of waking the
/// worker, so the caller can send the reply first and drop the wake
/// after it.
#[must_use]
pub fn respond<'s>(
    service: &'s JobService,
    line: &str,
    wake: &mut Option<Wake<'s>>,
) -> (String, bool) {
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_json()
    };
    let err = |msg: &str| {
        (
            obj(vec![
                ("ok", Value::Bool(false)),
                ("error", Value::Str(msg.to_string())),
            ]),
            false,
        )
    };
    let Ok(req) = eureka_obs::json::parse(line) else {
        return err("malformed request: not JSON");
    };
    let Some(cmd) = req.get("cmd").and_then(Value::as_str) else {
        return err("malformed request: missing 'cmd'");
    };
    let job_id = |req: &Value| req.get("job").and_then(Value::as_f64).map(|n| n as u64);
    match cmd {
        "submit" => {
            let spec = if let Some(text) = req.get("spec").and_then(Value::as_str) {
                JobSpec::parse(text)
            } else {
                let field = |k: &str| req.get(k).and_then(Value::as_str);
                let num = |k: &str, default: u64| {
                    req.get(k)
                        .and_then(Value::as_f64)
                        .map_or(default, |n| n as u64)
                };
                match (
                    field("bench").and_then(benchmark_from_token),
                    field("pruning").and_then(pruning_from_token),
                    field("arch"),
                ) {
                    (Some(benchmark), Some(pruning), Some(arch)) => Some(JobSpec {
                        benchmark,
                        pruning,
                        batch: num("batch", 32) as usize,
                        arch: arch.to_string(),
                        deadline_ms: num("deadline_ms", 0),
                        retries: num("retries", 0) as u32,
                    }),
                    _ => None,
                }
            };
            let Some(spec) = spec else {
                return err("malformed submit: need 'spec' or bench/pruning/arch");
            };
            let key = spec.digest();
            match service.admit(spec) {
                Ok((id, admitted)) => {
                    *wake = Some(admitted);
                    (
                        obj(vec![
                            ("ok", Value::Bool(true)),
                            ("job", Value::Num(id as f64)),
                            ("key", Value::Str(key)),
                        ]),
                        false,
                    )
                }
                Err(SubmitError::Overloaded { capacity }) => (
                    obj(vec![
                        ("ok", Value::Bool(false)),
                        ("error", Value::Str("overloaded".into())),
                        ("capacity", Value::Num(capacity as f64)),
                    ]),
                    false,
                ),
                Err(e) => err(&e.to_string()),
            }
        }
        "status" => {
            let Some(id) = job_id(&req) else {
                return err("malformed status: missing 'job'");
            };
            let Some(status) = service.status(id) else {
                return err("unknown job");
            };
            let mut pairs = vec![
                ("ok", Value::Bool(true)),
                ("job", Value::Num(id as f64)),
                ("status", Value::Str(status.label().to_string())),
            ];
            if let Some(report) = service.outcome(id).as_ref().and_then(JobOutcome::report) {
                pairs.push(("cycles", Value::Num(report.total_cycles() as f64)));
            }
            (obj(pairs), false)
        }
        "cancel" => {
            let Some(id) = job_id(&req) else {
                return err("malformed cancel: missing 'job'");
            };
            (
                obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cancelled", Value::Bool(service.cancel(id))),
                ]),
                false,
            )
        }
        "drain" => {
            let ok = service.drain();
            (
                obj(vec![("ok", Value::Bool(ok)), ("drained", Value::Bool(ok))]),
                false,
            )
        }
        "health" => {
            let (queued, running, draining) = service.health();
            let stats = service.stats();
            (
                obj(vec![
                    ("ok", Value::Bool(true)),
                    ("queued", Value::Num(queued as f64)),
                    ("running", Value::Bool(running)),
                    ("draining", Value::Bool(draining)),
                    ("served", Value::Num(stats.served as f64)),
                ]),
                false,
            )
        }
        "stats" => {
            let (queued, running, draining) = service.health();
            let stats = service.stats();
            let lat = &service.inner.metrics;
            let hist = |h: &Histogram| {
                Value::Obj(vec![
                    ("count".into(), Value::Num(h.count() as f64)),
                    ("p50".into(), Value::Num(h.p50() as f64)),
                    ("p90".into(), Value::Num(h.p90() as f64)),
                    ("p99".into(), Value::Num(h.p99() as f64)),
                ])
            };
            let latency = Value::Obj(
                OUTCOME_CLASSES
                    .iter()
                    .zip(lat.classes.iter())
                    .map(|(name, class)| {
                        (
                            (*name).to_string(),
                            Value::Obj(vec![
                                ("queue_wait_us".into(), hist(&class.queue_wait)),
                                ("exec_us".into(), hist(&class.exec)),
                                ("e2e_us".into(), hist(&class.e2e)),
                            ]),
                        )
                    })
                    .collect(),
            );
            (
                obj(vec![
                    ("ok", Value::Bool(true)),
                    ("queued", Value::Num(queued as f64)),
                    ("running", Value::Bool(running)),
                    ("draining", Value::Bool(draining)),
                    ("served", Value::Num(stats.served as f64)),
                    ("completed", Value::Num(stats.completed as f64)),
                    ("shed", Value::Num(stats.shed as f64)),
                    ("cancelled", Value::Num(stats.cancelled as f64)),
                    (
                        "deadline_exceeded",
                        Value::Num(stats.deadline_exceeded as f64),
                    ),
                    ("failed", Value::Num(stats.failed as f64)),
                    ("recovered", Value::Num(stats.recovered as f64)),
                    ("retried", Value::Num(stats.retried as f64)),
                    ("latency", latency),
                ]),
                false,
            )
        }
        "metrics" => (
            obj(vec![
                ("ok", Value::Bool(true)),
                ("format", Value::Str("prometheus".into())),
                ("text", Value::Str(service.metrics().prometheus_text())),
            ]),
            false,
        ),
        "dump" => match service.dump_flightrec() {
            Ok(path) => {
                let recorded = flightrec::recorded_count();
                let retained = recorded.min(flightrec::CAPACITY as u64);
                let last = recorded.checked_sub(1);
                (
                    obj(vec![
                        ("ok", Value::Bool(true)),
                        ("path", Value::Str(path.display().to_string())),
                        ("records", Value::Num(retained as f64)),
                        (
                            "last_seq",
                            last.map_or(Value::Null, |s| Value::Num(s as f64)),
                        ),
                    ]),
                    false,
                )
            }
            Err(e) => err(&format!("flight recorder dump failed: {e}")),
        },
        "shutdown" => (obj(vec![("ok", Value::Bool(true))]), true),
        other => err(&format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sim() -> SimConfig {
        SimConfig {
            rowgroup_samples: 4,
            slice_samples: 4,
            act_samples: 4,
            ..SimConfig::fast()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eureka-service-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec() -> JobSpec {
        JobSpec::new(
            Benchmark::MobileNetV1,
            PruningLevel::Moderate,
            32,
            "eureka-p4",
        )
    }

    #[test]
    fn spec_canonical_round_trips() {
        let mut s = spec();
        s.deadline_ms = 250;
        s.retries = 3;
        assert_eq!(JobSpec::parse(&s.canonical()), Some(s.clone()));
        assert_eq!(s.digest().len(), 16);
        assert_eq!(JobSpec::parse("eureka-job v9|bench=bert"), None);
        assert_eq!(JobSpec::parse("not a spec"), None);
        assert_eq!(
            JobSpec::parse(
                "eureka-job v1|bench=nope|pruning=mod|batch=1|arch=a|deadline_ms=0|retries=0"
            ),
            None
        );
    }

    #[test]
    fn submit_validates_before_admitting() {
        let dir = tmp_dir("validate");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let mut bad_arch = spec();
        bad_arch.arch = "warp-drive".into();
        assert!(matches!(svc.submit(bad_arch), Err(SubmitError::Invalid(_))));
        let mut bad_batch = spec();
        bad_batch.batch = 0;
        assert!(matches!(
            svc.submit(bad_batch),
            Err(SubmitError::Invalid(_))
        ));
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn held_service_sheds_load_beyond_capacity_with_a_typed_error() {
        let dir = tmp_dir("overload");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.queue_capacity = 2;
        cfg.hold = true;
        let svc = JobService::start(cfg);
        assert!(svc.submit(spec()).is_ok());
        let mut second = spec();
        second.retries = 1; // distinct spec, distinct journal entry
        assert!(svc.submit(second).is_ok());
        let mut third = spec();
        third.retries = 2;
        assert_eq!(
            svc.submit(third),
            Err(SubmitError::Overloaded { capacity: 2 }),
            "the queue bound is enforced with backpressure, not buffering"
        );
        svc.release();
        assert!(svc.wait_idle(), "released service drains its queue");
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate_and_journaled() {
        let dir = tmp_dir("cancel");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.hold = true;
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert_eq!(svc.status(id), Some(JobStatus::Queued));
        assert!(svc.cancel(id));
        assert_eq!(svc.status(id), Some(JobStatus::Cancelled));
        assert!(!svc.cancel(id), "terminal jobs cannot be re-cancelled");
        assert!(!svc.cancel(999), "unknown ids are refused");
        // The terminal record exists: a restart replays nothing.
        let journal = Journal::new(dir.join("journal"));
        assert!(journal.recover().0.is_empty());
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_rejects_new_work_and_finishes_in_flight() {
        let dir = tmp_dir("drain");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert!(svc.drain(), "drain completes");
        assert_eq!(
            svc.submit(spec()),
            Err(SubmitError::Draining),
            "a draining service admits nothing"
        );
        assert_eq!(
            svc.status(id),
            Some(JobStatus::Completed),
            "in-flight work finishes during drain"
        );
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_restart_replays_exactly_the_unfinished_jobs() {
        let dir = tmp_dir("recover");
        let journal_dir = dir.join("journal");
        let mut cfg = ServiceConfig::new(&journal_dir);
        cfg.sim = tiny_sim();
        cfg.hold = true;
        let svc = JobService::start(cfg.clone());
        let mut b = spec();
        b.retries = 1;
        svc.submit(spec()).expect("admitted");
        svc.submit(b).expect("admitted");
        svc.crash(); // SIGKILL emulation: no terminal records

        let journal = Journal::new(&journal_dir);
        assert_eq!(journal.recover().0.len(), 2, "both jobs await replay");

        cfg.hold = false;
        let svc2 = JobService::start(cfg.clone());
        assert!(svc2.wait_idle(), "recovered jobs run to completion");
        let (queued, running, _) = svc2.health();
        assert_eq!((queued, running), (0, false));
        svc2.shutdown();
        assert!(
            journal.recover().0.is_empty(),
            "replayed jobs reached terminal states; a third start recovers nothing"
        );
        let svc3 = JobService::start(cfg);
        assert!(svc3.wait_idle());
        svc3.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_metrics_and_dump_verbs_expose_the_latency_pipeline() {
        let dir = tmp_dir("observe");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        cfg.flightrec_dir = dir.join("flightrec");
        let svc = JobService::start(cfg);
        let id = svc.submit(spec()).expect("admitted");
        assert!(svc.wait_idle());

        // Terminal stamps produce a coherent per-job timeline.
        let t = svc.timeline(id).expect("known job");
        let (wait, exec, e2e) = (
            t.queue_wait_us.expect("dequeued"),
            t.exec_us.expect("ran"),
            t.e2e_us.expect("finished"),
        );
        assert!(e2e >= exec, "end-to-end covers execution: {t:?}");
        assert!(e2e >= wait, "end-to-end covers queue wait: {t:?}");
        assert_eq!(svc.timeline(999), None);

        // `stats` carries counters plus per-class latency quantiles.
        let (resp, stop) = handle_request(&svc, r#"{"cmd":"stats"}"#);
        assert!(!stop);
        let v = eureka_obs::json::parse(&resp).expect("stats is one JSON line");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let latency = v.get("latency").expect("latency object");
        for class in OUTCOME_CLASSES {
            let c = latency
                .get(class)
                .unwrap_or_else(|| panic!("class {class}"));
            for phase in ["queue_wait_us", "exec_us", "e2e_us"] {
                let h = c.get(phase).unwrap_or_else(|| panic!("{class}.{phase}"));
                for field in ["count", "p50", "p90", "p99"] {
                    assert!(h.get(field).and_then(Value::as_f64).is_some());
                }
            }
        }
        let completed_count = latency
            .get("completed")
            .and_then(|c| c.get("e2e_us"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .expect("completed e2e count");
        assert!(completed_count >= 1.0, "this test completed a job");

        // `metrics` embeds the Prometheus exposition as a string field.
        let (resp, _) = handle_request(&svc, r#"{"cmd":"metrics"}"#);
        let v = eureka_obs::json::parse(&resp).expect("metrics is one JSON line");
        assert_eq!(v.get("format").and_then(Value::as_str), Some("prometheus"));
        let text = v.get("text").and_then(Value::as_str).expect("text");
        assert!(text.contains("# TYPE eureka_service_served counter"));
        assert!(text.contains("# TYPE eureka_service_e2e_us_completed histogram"));
        assert!(text.contains("eureka_service_e2e_us_completed_bucket{le=\"+Inf\"}"));

        // `dump` writes the flight recorder into the configured dir.
        let (resp, _) = handle_request(&svc, r#"{"cmd":"dump"}"#);
        let v = eureka_obs::json::parse(&resp).expect("dump is one JSON line");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let path = v.get("path").and_then(Value::as_str).expect("path");
        assert!(path.contains("flightrec-"), "{path}");
        let dumped = std::fs::read_to_string(path).expect("dump exists");
        assert!(
            dumped.lines().all(|l| l.contains("eureka-flightrec-v1")),
            "every dumped line carries the schema"
        );
        assert!(
            dumped.contains("job-admitted") && dumped.contains("job-finished"),
            "the job's lifecycle reached the recorder"
        );
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn protocol_round_trips_submit_status_health_and_shutdown() {
        let dir = tmp_dir("protocol");
        let mut cfg = ServiceConfig::new(dir.join("journal"));
        cfg.sim = tiny_sim();
        let svc = JobService::start(cfg);
        let (resp, stop) = handle_request(
            &svc,
            r#"{"cmd":"submit","bench":"mobilenetv1","pruning":"mod","batch":32,"arch":"eureka-p4"}"#,
        );
        assert!(!stop);
        assert!(resp.contains("\"ok\":true"), "submit accepted: {resp}");
        assert!(resp.contains("\"job\":1"));
        assert!(svc.wait_idle());
        let (resp, _) = handle_request(&svc, r#"{"cmd":"status","job":1}"#);
        assert!(
            resp.contains("\"status\":\"completed\"") && resp.contains("\"cycles\":"),
            "terminal status carries cycles: {resp}"
        );
        let (resp, _) = handle_request(&svc, r#"{"cmd":"health"}"#);
        assert!(resp.contains("\"queued\":0"));
        let (resp, _) = handle_request(&svc, "not json at all");
        assert!(resp.contains("\"ok\":false"));
        let (resp, _) = handle_request(&svc, r#"{"cmd":"warp"}"#);
        assert!(resp.contains("unknown command"));
        let (_, stop) = handle_request(&svc, r#"{"cmd":"shutdown"}"#);
        assert!(stop);
        svc.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
