//! The unified simulation drive path: explicit jobs, a plan/execute split,
//! parallel execution, fault isolation and a content-keyed result cache.
//!
//! Every consumer of the simulator — [`crate::engine`], the figure drivers
//! in `eureka-bench`, the ablation sweeps and the CLI — submits
//! [`SimJob`]s to a [`Runner`] instead of hand-rolling a serial loop over
//! `(architecture × workload × layer)`. A runner carries all of its
//! settings (workers, retries, unit records, store directory) as
//! fields: a caller builds one per command and passes it to every
//! simulation that command runs. The runner
//!
//! 1. **plans** each job into independent per-layer work units (`WorkUnit`)
//!    (every unit owns its forked [`DetRng`] stream, so units are
//!    order-independent by construction),
//! 2. **executes** the units — serially or fanned out across a scoped
//!    thread pool — consulting the runner's content-keyed unit records
//!    (in memory, and in its store directory when one is attached)
//!    first, and
//! 3. **reduces** the results back into [`JobOutcome`]s in layer-index
//!    order.
//!
//! [`Runner::run_profiled`] takes the same path: its units' executor also
//! returns each layer's cycle attribution, and they skip the unit records.
//!
//! # Determinism contract
//!
//! [`Runner::parallel`] output is bit-identical to [`Runner::serial`]
//! output: units are pure functions of their content key, the reduction
//! assembles layers by index (never by completion order), and no
//! floating-point accumulation crosses unit boundaries. The workspace
//! test-suite asserts `SimReport` equality across both modes for every
//! registry architecture. Fault handling preserves the contract: failures
//! are deterministic properties of a unit's inputs, every planned unit is
//! always executed (no early abort on failure), and outcomes are reduced
//! by index.
//!
//! # Failure model
//!
//! Each unit executes under [`std::panic::catch_unwind`]: a panic or
//! [`SimError`] becomes a typed [`UnitFailure`] instead of aborting the
//! sweep, optionally retried under a bounded deterministic
//! [`RetryPolicy`]. [`Runner::run_outcomes`] surfaces the full taxonomy
//! ([`JobOutcome::Complete`] / [`JobOutcome::Degraded`] /
//! [`JobOutcome::Failed`]); the legacy [`Runner::run_all`] collapses it
//! back to `Result`s. Failed units are never recorded, in memory or in
//! a store directory, so no later run can replay a poisoned result. See
//! DESIGN.md "Failure model & recovery".
//!
//! # Caching
//!
//! Figure sweeps re-simulate identical dense baselines dozens of times
//! (every speedup column divides by the same dense run). Units are
//! memoized behind a hash of their full content: architecture name, GEMM
//! descriptor, per-layer RNG stream, and every timing-relevant
//! [`SimConfig`] field. Architecture display names must therefore uniquely
//! identify simulation behaviour — an invariant the registry upholds and
//! [`Architecture::name`] documents. Cached replays are bit-identical to
//! cold misses because unit execution is deterministic.
//!
//! The memo is one tier, [`UnitRecords`] ([`crate::checkpoint`]), owned
//! by the runner and shared by its clones; two runners built apart never
//! share results. Without a store directory it is an in-memory map and
//! no key text is ever rendered. With [`Runner::with_store_dir`] the same
//! content key, rendered canonically as text, also names records in the
//! directory: they are read once, on the runner's first lookup that
//! misses memory, and every unit the runner computes is appended to the
//! directory's log with one write. So a killed sweep resumes and a warm
//! rerun replays bit-identically: a unit with a record never samples,
//! keys or times a tile. Memory hits count as `cache.hits`, directory
//! records as `checkpoint.hits`. Executing a unit renders its key text
//! at most once, into its worker's reused buffer, and only when a
//! directory is attached; the config segment is rendered once per job.
//!
//! Only with [`Runner::with_store_dir`] does a second, finer memoization
//! layer join in: the content-addressed tile store ([`crate::store`]).
//! Every unit that executes gets a [`TileBroker`] in its [`LayerCtx`];
//! it is disabled by default, so tile-timer architectures never key a sampled
//! tile — timing a tile costs less than canonicalizing and looking it
//! up. With a store directory the broker is enabled, and each sampled
//! tile that its worker's signature table misses resolves through it,
//! so tiles with equal canonical row-length signatures are simulated
//! once per store directory: the shard maps hold each record read or
//! computed, and a flush appends the new ones. It serves the units that do execute: those without a record
//! and every profiled unit. A unit whose tiles all came from the store still executes (its
//! RNG streams advance identically, keeping reports bit-identical to a
//! cold run) but performs
//! zero tile simulations; such units count toward
//! `runner.units_from_store` instead of `cache.misses`.
//!
//! # Telemetry
//!
//! The runner is fully instrumented through [`eureka_obs`]: every phase
//! opens a span (`runner.run_all`, `runner.plan`, `unit.exec`,
//! `runner.reduce`, plus zero-length `unit.retry` / `unit.failure`
//! markers) on the runner's [`Spans`] handle ([`Runner::with_spans`],
//! read back with [`Runner::spans`]; off by default) and updates the
//! runner's metrics registry
//! ([`Runner::metrics`]: `runner.*`, `cache.*`, `unit.*`, `checkpoint.*`,
//! `store.*` — see the table in `DESIGN.md`). A runner builds its
//! registry when it is built and shares it with its clones, so two
//! runners in one process never count into each other's metrics. For a
//! cache-enabled runner the deterministic counters reconcile as
//! `runner.units_planned == cache.hits + checkpoint.hits +
//! runner.units_from_store + cache.misses + runner.failures.*` — every
//! planned unit, profiled ones included, is accounted for exactly once,
//! even on degraded runs. Telemetry never feeds back into simulation:
//! spans cost one `None` check on an off handle, metric updates are
//! plain atomics, and no measured time influences any unit's result, so
//! instrumented output stays bit-identical to uninstrumented output.
//!
//! A runner built with [`Runner::with_events`] additionally emits the
//! `eureka-events-v1` stream into that one [`Events`] handle —
//! `run-started`, `unit-planned` per unit, `unit-started` /
//! `unit-finished` (with its `cache` / `checkpoint` / `store` /
//! `computed` source classification), `retry` / `failure`,
//! `checkpoint-written`, `store-flush`, `run-finished`. It is the only
//! emitter: a command's ledger reads the handle's count, and two
//! runners with their own handles never mix streams. Events are built
//! lazily — an off handle never constructs one — and feed nothing back
//! into simulation, so event-instrumented runs stay bit-identical too.

use crate::arch::{Architecture, LayerCtx, SimError};
use crate::backoff::BackoffPolicy;
use crate::checkpoint::UnitRecords;
use crate::config::SimConfig;
use crate::outcome::{FailureKind, JobOutcome, RetryPolicy, UnitFailure};
use crate::profile::{LayerProfile, ProfileConfig, SimProfile};
use crate::report::{LayerReport, SimReport};
use crate::scratch::ScratchPool;
use crate::store::{TileBroker, TileStore};
use eureka_models::{activation, workload::LayerGemm, GemmShape, Workload};
use eureka_obs::applog::fnv1a64;
use eureka_obs::events::{Event, Events};
use eureka_obs::metrics::{self, Class, Counter, Gauge, Histogram, Registry};
use eureka_obs::span::Spans;
use eureka_sparse::rng::DetRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One simulation request: an architecture applied to a workload under a
/// configuration.
#[derive(Clone, Copy)]
pub struct SimJob<'a> {
    /// The architecture to simulate.
    pub arch: &'a dyn Architecture,
    /// The workload to run.
    pub workload: &'a Workload,
    /// The simulator configuration.
    pub cfg: SimConfig,
}

impl<'a> SimJob<'a> {
    /// A job simulating `workload` on `arch` under `cfg`.
    #[must_use]
    pub fn new(arch: &'a dyn Architecture, workload: &'a Workload, cfg: SimConfig) -> Self {
        SimJob {
            arch,
            workload,
            cfg,
        }
    }
}

/// The smallest schedulable piece of a job: one layer of one workload on
/// one architecture. Its key holds every input of its execution: the
/// layer's GEMM and context are rebuilt from it ([`UnitKey::gemm`],
/// [`Runner::ctx`]) only when the unit executes, so a replayed unit
/// never builds them.
struct WorkUnit<'a> {
    /// The job the unit belongs to: its architecture and configuration.
    job: &'a SimJob<'a>,
    key: UnitKey,
    /// The job's rendered [`CfgKey`], shared by all its units.
    cfg_text: Arc<str>,
    /// Position in the batch's plan order — the stable `unit` coordinate
    /// every run event carries (deterministic: planning is serial).
    index: usize,
}

impl WorkUnit<'_> {
    /// Renders the unit's canonical key text ([`UnitKey::render`]) into
    /// `out`, replacing what it held.
    fn render(&self, out: &mut String) {
        self.key.render(&self.cfg_text, out);
    }

    /// The unit's canonical key text, in a string of its own.
    fn canonical(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }
}

/// Bit-exact content key of a work unit. Two units with equal keys are
/// guaranteed to produce equal [`LayerReport`]s, because unit execution is
/// a pure function of exactly these inputs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct UnitKey {
    /// Shared by every unit of a job.
    arch: Arc<str>,
    gemm_name: String,
    n: usize,
    k: usize,
    m: usize,
    unique_act_bytes: u64,
    weight_density: u64,
    clustered: bool,
    depthwise: bool,
    act_density: u64,
    s2ta_act_density: Option<u64>,
    s2ta_fil_density: Option<u64>,
    rng_seed: u64,
    rng_stream: u64,
    /// Shared by every unit of a job.
    cfg: Arc<CfgKey>,
}

impl UnitKey {
    /// Stable single-line text rendering of the full content key; names
    /// on-disk unit records, so it must be identical across processes
    /// and platforms for identical units (floats are rendered as raw
    /// bits, never formatted). Records outlive the binary that wrote
    /// them: any change that alters a unit's [`LayerReport`] for the same
    /// key (timing model, sampling, report fields) must bump the `v1|`
    /// tag, or `--store-dir` replays stale results.
    ///
    /// `cfg` is [`CfgKey::canonical`] of `self.cfg`, which every unit of
    /// a job shares. The key is written into `out`, which a worker reuses
    /// from unit to unit, field by field without formatting machinery.
    fn render(&self, cfg: &str, out: &mut String) {
        /// Appends `n` in decimal.
        fn dec(out: &mut String, mut n: u64) {
            let mut digits = [0; 20];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        }
        /// Appends raw bits as 16 hex digits.
        fn hex(out: &mut String, bits: u64) {
            let digits: [u8; 16] =
                std::array::from_fn(|i| b"0123456789abcdef"[(bits >> (60 - 4 * i)) as usize & 15]);
            out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
        }
        let bits = |out: &mut String, bits: Option<u64>| match bits {
            Some(b) => hex(out, b),
            None => out.push('-'),
        };
        let flag = |b: bool| if b { "true" } else { "false" };
        out.clear();
        // Room for the fixed fields at their usual widths.
        out.reserve(192 + self.arch.len() + self.gemm_name.len() + cfg.len());
        out.push_str("v1|arch=");
        out.push_str(&self.arch);
        out.push_str("|gemm=");
        out.push_str(&self.gemm_name);
        out.push_str("|nkm=");
        dec(out, self.n as u64);
        out.push('x');
        dec(out, self.k as u64);
        out.push('x');
        dec(out, self.m as u64);
        out.push_str("|uab=");
        dec(out, self.unique_act_bytes);
        out.push_str("|wd=");
        hex(out, self.weight_density);
        out.push_str("|cl=");
        out.push_str(flag(self.clustered));
        out.push_str("|dw=");
        out.push_str(flag(self.depthwise));
        out.push_str("|ad=");
        hex(out, self.act_density);
        out.push_str("|s2a=");
        bits(out, self.s2ta_act_density);
        out.push_str("|s2f=");
        bits(out, self.s2ta_fil_density);
        out.push_str("|seed=");
        hex(out, self.rng_seed);
        out.push_str("|stream=");
        dec(out, self.rng_stream);
        out.push('|');
        out.push_str(cfg);
    }

    /// The layer's GEMM, as planned: every field is in the key.
    fn gemm(&self) -> LayerGemm {
        LayerGemm {
            name: self.gemm_name.clone(),
            shape: GemmShape {
                n: self.n,
                k: self.k,
                m: self.m,
            },
            unique_act_bytes: self.unique_act_bytes,
            weight_density: f64::from_bits(self.weight_density),
            clustered: self.clustered,
            depthwise: self.depthwise,
        }
    }
}

/// The timing-relevant [`SimConfig`] fields, with floats as raw bits.
/// `include_attention_aux` is deliberately excluded: it only affects the
/// reduce step, never a unit's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CfgKey {
    tensor_cores: usize,
    sub_array_dim: usize,
    grid_rows: usize,
    grid_cols: usize,
    window: usize,
    bytes_per_cycle: u64,
    l2_act_residency: u64,
    ramp_fraction: u64,
    rowgroup_samples: usize,
    slice_samples: usize,
    act_samples: usize,
    row_density_sigma: u64,
    sparten_chunk_min_cycles: u64,
    dstc_crossbar_width: usize,
    detailed_memory: bool,
}

impl CfgKey {
    fn of(cfg: &SimConfig) -> Self {
        CfgKey {
            tensor_cores: cfg.tensor_cores,
            sub_array_dim: cfg.core.sub_array_dim,
            grid_rows: cfg.core.grid_rows,
            grid_cols: cfg.core.grid_cols,
            window: cfg.core.window,
            bytes_per_cycle: cfg.mem.bytes_per_cycle.to_bits(),
            l2_act_residency: cfg.mem.l2_act_residency.to_bits(),
            ramp_fraction: cfg.mem.ramp_fraction.to_bits(),
            rowgroup_samples: cfg.rowgroup_samples,
            slice_samples: cfg.slice_samples,
            act_samples: cfg.act_samples,
            row_density_sigma: cfg.row_density_sigma.to_bits(),
            sparten_chunk_min_cycles: cfg.sparten_chunk_min_cycles.to_bits(),
            dstc_crossbar_width: cfg.dstc_crossbar_width,
            detailed_memory: cfg.detailed_memory,
        }
    }

    /// Stable text rendering for [`UnitKey::render`], once per job.
    fn canonical(&self) -> String {
        format!(
            "cfg=tc{},sa{},gr{},gc{},w{},bpc{:016x},l2{:016x},rf{:016x},rg{},sl{},ac{},sg{:016x},sc{:016x},xw{},dm{}",
            self.tensor_cores,
            self.sub_array_dim,
            self.grid_rows,
            self.grid_cols,
            self.window,
            self.bytes_per_cycle,
            self.l2_act_residency,
            self.ramp_fraction,
            self.rowgroup_samples,
            self.slice_samples,
            self.act_samples,
            self.row_density_sigma,
            self.sparten_chunk_min_cycles,
            self.dstc_crossbar_width,
            self.detailed_memory,
        )
    }
}

/// Requested worker count when the runner should use every available core.
const AUTO: usize = 0;

/// A runner's metrics registry and handles to every runner metric in it,
/// registered when the runner is built. The `cache.*` / `checkpoint.*`
/// / `runner.units_*` / `runner.jobs` / `runner.failures.*` /
/// `runner.retries.*` counters are [`Class::Deterministic`]: on a fresh
/// runner they are byte-identical across reruns of the same work. The
/// wall-clock histograms and the utilization gauge are [`Class::Timing`]
/// and excluded from deterministic snapshots.
#[derive(Debug)]
struct Telemetry {
    metrics: Registry,
    jobs: Arc<Counter>,
    units_planned: Arc<Counter>,
    units_executed: Arc<Counter>,
    units_cached: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_inserts: Arc<Counter>,
    units_from_store: Arc<Counter>,
    failures_panic: Arc<Counter>,
    failures_sim: Arc<Counter>,
    failures_cancelled: Arc<Counter>,
    retries_attempts: Arc<Counter>,
    retries_recovered: Arc<Counter>,
    backoff_slept_us: Arc<Counter>,
    ckpt_hits: Arc<Counter>,
    ckpt_writes: Arc<Counter>,
    ckpt_errors: Arc<Counter>,
    exec_micros: Arc<Histogram>,
    queue_wait_micros: Arc<Histogram>,
    reduce_micros: Arc<Histogram>,
    exec_wall_micros: Arc<Histogram>,
    worker_utilization: Arc<Gauge>,
}

impl Telemetry {
    fn new() -> Self {
        let metrics = Registry::new();
        let c = |name| metrics.counter(name, Class::Deterministic);
        let h = |name| metrics.histogram(name, Class::Timing, metrics::TIME_BUCKETS_US);
        Telemetry {
            jobs: c("runner.jobs"),
            units_planned: c("runner.units_planned"),
            units_executed: c("runner.units_executed"),
            units_cached: c("runner.units_cached"),
            cache_hits: c("cache.hits"),
            cache_misses: c("cache.misses"),
            cache_inserts: c("cache.inserts"),
            units_from_store: c("runner.units_from_store"),
            failures_panic: c("runner.failures.panic"),
            failures_sim: c("runner.failures.sim_error"),
            failures_cancelled: c("runner.failures.cancelled"),
            retries_attempts: c("runner.retries.attempts"),
            retries_recovered: c("runner.retries.recovered"),
            // Deterministic: the slept total is a pure function of the
            // (deterministic) retry schedule and the backoff policy.
            backoff_slept_us: c("runner.backoff.slept_us"),
            ckpt_hits: c("checkpoint.hits"),
            ckpt_writes: c("checkpoint.writes"),
            ckpt_errors: c("checkpoint.errors"),
            exec_micros: h("unit.exec_micros"),
            queue_wait_micros: h("unit.queue_wait_micros"),
            reduce_micros: h("runner.reduce_micros"),
            exec_wall_micros: h("runner.exec_wall_micros"),
            worker_utilization: metrics.gauge("runner.worker_utilization", Class::Timing),
            metrics,
        }
    }

    /// The per-architecture unit execution-time histogram
    /// (`unit.exec_micros.<slug>`, [`Class::Timing`]), registered on
    /// first use. Slugs are the lowercased arch display name with every
    /// non-alphanumeric character mapped to `_` (e.g. `Eureka P=4` →
    /// `eureka_p_4`). Timing-class, so which architectures happened to
    /// run never changes a deterministic snapshot.
    fn arch_exec_histogram(&self, arch: &str) -> Arc<Histogram> {
        let slug: String = arch
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.metrics.histogram(
            &format!("unit.exec_micros.{slug}"),
            Class::Timing,
            metrics::TIME_BUCKETS_US,
        )
    }
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The `unit-planned` event of a unit of the `job`-th submitted job;
/// its `key` is the fnv1a64 digest of the unit's canonical content key,
/// as 16 hex digits.
fn unit_planned(unit: &WorkUnit<'_>, job: usize) -> Event {
    Event::new("unit-planned")
        .det_u64("unit", unit.index as u64)
        .det_u64("job", job as u64)
        .det_str("arch", &*unit.key.arch)
        .det_str("gemm", unit.key.gemm_name.clone())
        .det_str(
            "key",
            format!("{:016x}", fnv1a64(unit.canonical().as_bytes())),
        )
}

/// Where a successful unit's report came from, the `source` field of its
/// `unit-finished` event: the in-memory records, the store directory's,
/// or an execution whose sampled tiles the tile store all served
/// (`store`) or not (`computed`: at least one simulated, or none looked
/// up). The classification is deterministic: unit keys within a shipped
/// plan are distinct, so which memoization layer serves a unit never
/// depends on worker scheduling.
#[derive(Clone, Copy)]
enum Source {
    Cache,
    Checkpoint,
    Store,
    Computed,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Checkpoint => "checkpoint",
            Source::Store => "store",
            Source::Computed => "computed",
        }
    }
}

/// One worker's share of an execute phase, kept to itself so that
/// workers never contend on shared metrics per unit: its buffer for unit
/// record keys, its units' queue waits and busy time, and its successful
/// units per [`Source`].
struct Worker {
    key: String,
    waits: Histogram,
    busy_us: u64,
    finished: [u64; 4],
}

impl Worker {
    fn new() -> Self {
        Worker {
            key: String::new(),
            waits: Histogram::new(metrics::TIME_BUCKETS_US),
            busy_us: 0,
            finished: [0; 4],
        }
    }
}

/// A unit failure as seen by the execute phase, before the reduce phase
/// attaches job/layer coordinates.
#[derive(Clone, Debug)]
struct UnitError {
    kind: FailureKind,
    payload: String,
    attempts: u32,
}

/// One unit's result: its report and, on a profiled run, its layer's
/// cycle attribution (boxed, so a plain run's results stay small).
type UnitResult = Result<(LayerReport, Option<Box<LayerProfile>>), UnitError>;

/// Cooperative cancellation handle, checked by the runner at unit
/// boundaries (never mid-unit: a unit that has started always runs to
/// its own completion or failure, keeping unit results pure).
///
/// A token fires either *explicitly* — [`CancelToken::cancel`], from an
/// operator or a service drain — or *implicitly*, when its optional
/// deadline passes. Clones share the explicit flag (and carry the same
/// deadline), so the service can hold one end while the runner polls
/// the other. Once fired, a token never un-fires; units observed after
/// that fail with [`FailureKind::Cancelled`] and are never retried.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once `deadline` has elapsed from
    /// now (the job's admission into execution).
    #[must_use]
    pub fn with_deadline(deadline: std::time::Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + deadline),
        }
    }

    /// Fires the token explicitly. Idempotent; shared by all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] was called (deadline excluded).
    #[must_use]
    pub fn cancelled_explicitly(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Whether the deadline (if any) has passed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the token has fired, for either reason. Cheap enough to
    /// poll at every unit boundary.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled_explicitly() || self.deadline_exceeded()
    }
}

/// Executes [`SimJob`]s: plans per-layer units, runs them (optionally in
/// parallel, optionally memoized and persisted) under panic
/// isolation and a bounded retry policy, and reduces deterministically.
///
/// The parallel and serial modes produce bit-identical results; see the
/// [module docs](self) for the contract.
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    cached: bool,
    retry: RetryPolicy,
    backoff: BackoffPolicy,
    cancel: Option<CancelToken>,
    /// The unit records, with the store directory if one is attached:
    /// every run of this runner and of its clones shares them.
    records: Arc<UnitRecords>,
    /// The tile store of the store directory, shared like the records.
    tiles: Option<Arc<TileStore>>,
    /// Scratch sets for the units' hot loops, shared like the records:
    /// at most one set per concurrent worker, whose signature tables
    /// outlive every job this runner and its clones run (but not a
    /// change of store directory).
    scratch: ScratchPool,
    events: Events,
    /// The span collector, shared by the runner's clones.
    spans: Spans,
    /// The metrics registry, built with the runner and shared by its
    /// clones.
    telemetry: Arc<Telemetry>,
}

impl Runner {
    /// A runner executing units one at a time, in plan order.
    #[must_use]
    pub fn serial() -> Self {
        Runner::with_jobs(1)
    }

    /// A runner fanning units out across all available cores.
    #[must_use]
    pub fn parallel() -> Self {
        Runner::with_jobs(AUTO)
    }

    /// A runner with an explicit worker count (`0` = all available
    /// cores), in-memory unit records, a fresh metrics registry, and no
    /// retries, backoff, cancellation or store directory. Without a
    /// store directory the tile store stays out of the run: every
    /// sampled tile is timed directly, never keyed or looked up.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs,
            cached: true,
            retry: RetryPolicy::NONE,
            backoff: BackoffPolicy::NONE,
            cancel: None,
            records: Arc::default(),
            tiles: None,
            scratch: ScratchPool::default(),
            events: Events::default(),
            spans: Spans::default(),
            telemetry: Arc::new(Telemetry::new()),
        }
    }

    /// The metrics registry this runner and its clones count into
    /// (see the [module docs](self)).
    #[must_use]
    pub fn metrics(&self) -> &Registry {
        &self.telemetry.metrics
    }

    /// The span collector this runner and its clones record into (off
    /// unless set with [`Runner::with_spans`]).
    #[must_use]
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Disables unit records for this runner: every unit recomputes, and
    /// none is looked up or appended, even with a store directory (whose
    /// tile shards still serve).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cached = false;
        self
    }

    /// Sets this runner's retry policy for failed units.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets this runner's backoff schedule for retries: before attempt
    /// `n+1` of a unit, the worker sleeps
    /// [`BackoffPolicy::delay_us`]`(seed, n)` microseconds, where `seed`
    /// is derived from the unit's content key — deterministic across
    /// reruns, decorrelated across units. Backoff reshapes wall-clock
    /// time only; results stay bit-identical.
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Attaches a cooperative cancellation token, checked at every unit
    /// boundary: units observed after the token fires (explicit cancel
    /// or deadline) fail with [`FailureKind::Cancelled`] instead of
    /// executing, and are never retried. Units already executing always
    /// finish their attempt.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Detaches any store directory from this runner, with fresh
    /// in-memory unit records: no records from a directory, and every
    /// sampled tile is timed directly, with no tile store and no disk I/O.
    /// This is the default. Output is bit-identical either way — the
    /// store only removes redundant work.
    #[must_use]
    pub fn without_store(mut self) -> Self {
        self.records = Arc::default();
        self.tiles = None;
        self
    }

    /// Persists results under `dir`, for later runs — including fresh
    /// processes — to replay instead of recomputing, with fresh unit
    /// records rooted there ([`crate::checkpoint`]). Every unit the
    /// runner computes is appended to the directory's log as it
    /// finishes, so a killed run keeps its finished units; a recorded
    /// unit replays before any tile sampling, keying or timing runs. The
    /// runner reads the directory's records once, on its first lookup
    /// that misses memory. Tile outcomes go through a fresh
    /// [`TileStore`], shared with this runner's clones, whose shard maps
    /// load and append [`crate::store`] shard files beside them. It
    /// serves units without a record and [`Runner::run_profiled`], which
    /// bypasses unit records.
    #[must_use]
    pub fn with_store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        self.tiles = Some(Arc::new(TileStore::new(&dir, self.metrics().clone())));
        self.records = Arc::new(UnitRecords::in_dir(dir));
        // Signature tables answer for the store: an entry filled before
        // this store was attached would never reach it.
        self.scratch = ScratchPool::default();
        self
    }

    /// Emits this runner's `eureka-events-v1` stream into `events` (see
    /// the [module docs](self)). Results stay bit-identical.
    #[must_use]
    pub fn with_events(mut self, events: Events) -> Self {
        self.events = events;
        self
    }

    /// Records this runner's spans into `spans` (see the
    /// [module docs](self)). Results stay bit-identical.
    #[must_use]
    pub fn with_spans(mut self, spans: Spans) -> Self {
        self.spans = spans;
        self
    }

    /// The worker count this runner would use right now.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            AUTO => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Runs one job.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if the architecture cannot run
    /// the workload (e.g. S2TA on InceptionV3), or the first failure of a
    /// degraded run ([`SimError::UnitPanic`] for caught panics). Partial
    /// results are available via [`Runner::run_outcome`] instead.
    pub fn run(&self, job: &SimJob<'_>) -> Result<SimReport, SimError> {
        self.run_all(std::slice::from_ref(job))
            .pop()
            .expect("invariant: run_all returns exactly one result per submitted job")
    }

    /// Runs one job, surfacing the full [`JobOutcome`] taxonomy (partial
    /// results survive individual unit failures).
    #[must_use]
    pub fn run_outcome(&self, job: &SimJob<'_>) -> JobOutcome {
        self.run_outcomes(std::slice::from_ref(job))
            .pop()
            .expect("invariant: run_outcomes returns exactly one outcome per submitted job")
    }

    /// Runs a batch of jobs, fanning all their units out together, and
    /// returns one result per job in submission order. Degraded jobs
    /// collapse to their lowest-layer-index failure; use
    /// [`Runner::run_outcomes`] to keep partial results.
    pub fn run_all(&self, jobs: &[SimJob<'_>]) -> Vec<Result<SimReport, SimError>> {
        self.run_outcomes(jobs)
            .into_iter()
            .map(JobOutcome::into_result)
            .collect()
    }

    /// Runs a batch of jobs under fault isolation, returning one
    /// [`JobOutcome`] per job in submission order. Every planned unit is
    /// executed regardless of other units' failures, so the set of
    /// surviving layers — and their bit-exact reports — is deterministic
    /// and identical across serial and parallel modes.
    #[must_use]
    pub fn run_outcomes(&self, jobs: &[SimJob<'_>]) -> Vec<JobOutcome> {
        self.run_jobs(jobs, None)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// Runs one job with cycle-attribution profiling, returning the
    /// report and its [`SimProfile`].
    ///
    /// The job takes the plain drive path — plan, execute under this
    /// runner's retry policy, backoff, cancellation token and panic
    /// isolation, reduce — and each unit's executor also returns its
    /// layer's [`LayerProfile`]. The report is bit-identical to
    /// [`Runner::run`] on the same job (the profiled architecture paths
    /// consume identical RNG streams — asserted by the workspace
    /// test-suite for every registry architecture), and the profile is
    /// assembled in layer-index order, so its JSON export is
    /// byte-identical across serial and parallel runners. Profiled units
    /// bypass the unit records, which could not reconstruct row-level
    /// attribution, but count like plain executions (`cache.misses`,
    /// `runner.units_from_store` or a failure), so the reconciliation
    /// invariant holds. A store directory's tile store *does* serve
    /// them: tile outcomes carry everything the attribution needs.
    ///
    /// # Errors
    ///
    /// Returns the lowest-layer-index failure ([`SimError::Unsupported`]
    /// from the architecture, [`SimError::UnitPanic`] for caught panics,
    /// [`SimError::Cancelled`] once the runner's token has fired) —
    /// profiling has no degraded mode.
    pub fn run_profiled(
        &self,
        job: &SimJob<'_>,
        pcfg: &ProfileConfig,
    ) -> Result<(SimReport, SimProfile), SimError> {
        let (outcome, layers) = self
            .run_jobs(std::slice::from_ref(job), Some(pcfg))
            .pop()
            .expect("invariant: run_jobs returns exactly one result per submitted job");
        let report = outcome.into_result()?;
        let profile = SimProfile {
            arch: report.arch.clone(),
            workload: report.workload.clone(),
            layers,
        };
        Ok((report, profile))
    }

    /// The one drive path: plans every job into units, executes them
    /// (unit records first, unless profiling) and reduces each job's
    /// results into its outcome, plus — when `pcfg` asks for cycle
    /// attribution — its layers' profiles in layer order.
    fn run_jobs(
        &self,
        jobs: &[SimJob<'_>],
        pcfg: Option<&ProfileConfig>,
    ) -> Vec<(JobOutcome, Vec<LayerProfile>)> {
        let t = &self.telemetry;
        let _run_span = eureka_obs::span!(&self.spans, "runner.run_all", "{} job(s)", jobs.len());
        t.jobs.add(jobs.len() as u64);
        let run_started = Instant::now();
        self.events
            .emit(|| Event::new("run-started").wall_u64("jobs", jobs.len() as u64));
        // Plan: enumerate every job's per-layer units.
        let mut units = Vec::with_capacity(jobs.iter().map(|job| job.workload.layer_count()).sum());
        let mut ranges = Vec::with_capacity(jobs.len());
        {
            let _plan_span = eureka_obs::span!(&self.spans, "runner.plan");
            for (job_idx, job) in jobs.iter().enumerate() {
                let start = units.len();
                plan(job, &mut units);
                for unit in &units[start..] {
                    self.events.emit(|| unit_planned(unit, job_idx));
                }
                ranges.push(start..units.len());
            }
        }
        t.units_planned.add(units.len() as u64);
        if self.cached && pcfg.is_none() {
            self.records.reserve(units.len());
        }
        // Execute: serial order or index-claimed pool, records first.
        let mut results = self.execute(&units, pcfg);
        // Persist tile outcomes computed during this run before reducing,
        // so a crash in reduce still leaves the store warm.
        if let Some(store) = &self.tiles {
            store.flush();
            self.events.emit(|| Event::new("store-flush"));
        }
        // Reduce: reassemble per job, in layer-index order.
        let _reduce_span = eureka_obs::span!(&self.spans, "runner.reduce");
        let reduce_started = Instant::now();
        let out: Vec<_> = jobs
            .iter()
            .enumerate()
            .zip(ranges)
            .map(|((job_idx, job), range)| {
                let units = &units[range];
                reduce(
                    job,
                    job_idx,
                    units,
                    results.by_ref().take(units.len()),
                    pcfg.is_some(),
                )
            })
            .collect();
        t.reduce_micros.record(micros(reduce_started.elapsed()));
        self.events.emit(|| {
            let failures: usize = out.iter().map(|(o, _)| o.failures().len()).sum();
            Event::new("run-finished")
                .det_u64("units", units.len() as u64)
                .det_u64("failures", failures as u64)
                .wall_u64("jobs", jobs.len() as u64)
                .wall_u64("wall_us", micros(run_started.elapsed()))
        });
        out
    }

    /// The execute phase: runs every unit — on this thread, or on a
    /// scoped pool whose workers claim one unit at a time — and yields
    /// the results in unit order, whichever worker ran each. A worker
    /// keeps its results, in the order it claimed them, and counts into
    /// a [`Worker`] of its own, added to the runner's metrics once, when
    /// no unit is left.
    fn execute(
        &self,
        units: &[WorkUnit<'_>],
        pcfg: Option<&ProfileConfig>,
    ) -> impl Iterator<Item = UnitResult> {
        let t = &self.telemetry;
        let workers = self.effective_jobs().min(units.len());
        let wall = Instant::now();
        let busy_us = AtomicU64::new(0);
        let next = AtomicUsize::new(0);
        let work = || {
            let mut worker = Worker::new();
            let mut results = Vec::with_capacity(units.len().div_ceil(workers.max(1)));
            // One clock read per unit: a unit starts when the last ended.
            let mut now = Instant::now();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(i) else { break };
                let started = now;
                worker.waits.record(micros(started.duration_since(wall)));
                results.push((i, self.run_unit(unit, pcfg, &mut worker)));
                now = Instant::now();
                worker.busy_us += micros(now.duration_since(started));
            }
            self.count(&worker);
            busy_us.fetch_add(worker.busy_us, Ordering::Relaxed);
            results
        };
        let results: Vec<Vec<(usize, UnitResult)>> = if workers <= 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let pool: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                pool.into_iter()
                    .map(|worker| {
                        worker
                            .join()
                            .unwrap_or_else(|e| std::panic::resume_unwind(e))
                    })
                    .collect()
            })
        };
        let wall_us = micros(wall.elapsed());
        if !units.is_empty() {
            t.exec_wall_micros.record(wall_us);
            if wall_us > 0 {
                let busy = busy_us.load(Ordering::Relaxed) as f64;
                t.worker_utilization
                    .set(busy / (workers.max(1) as f64 * wall_us as f64));
            }
        }
        // Each worker claimed rising unit indices, so unit `i`'s result
        // leads one worker's remaining results.
        let mut results: Vec<_> = results
            .into_iter()
            .map(|r| r.into_iter().peekable())
            .collect();
        (0..units.len()).map(move |i| {
            let mut ran = results
                .iter_mut()
                .filter_map(|r| r.next_if(|&(unit, _)| unit == i));
            ran.next().expect("invariant: one worker ran every unit").1
        })
    }

    /// Adds what `worker` counted to the runner's metrics: its queue
    /// waits, and per [`Source`] of its successful units, `cache.hits`
    /// or `checkpoint.hits` with `runner.units_cached` for replays; for
    /// executions on a cached runner, `runner.units_from_store` when the
    /// store served every tile, `cache.misses` otherwise.
    fn count(&self, worker: &Worker) {
        let t = &self.telemetry;
        t.queue_wait_micros.merge(&worker.waits);
        let [cache, checkpoint, store, computed] = worker.finished;
        t.cache_hits.add(cache);
        t.ckpt_hits.add(checkpoint);
        t.units_cached.add(cache + checkpoint);
        if self.cached {
            t.units_from_store.add(store);
            t.cache_misses.add(computed);
        }
    }

    /// The layer context `unit` executes in, rebuilt from its key: the
    /// workload's densities, the layer's forked RNG stream, a fresh
    /// broker (wired to the tile store when one is attached, so it
    /// tallies this unit's lookups alone) and the runner's scratch pool.
    fn ctx(&self, unit: &WorkUnit<'_>) -> LayerCtx {
        let key = &unit.key;
        LayerCtx {
            act_density: f64::from_bits(key.act_density),
            s2ta_act_density: key.s2ta_act_density.map(f64::from_bits),
            s2ta_fil_density: key.s2ta_fil_density.map(f64::from_bits),
            rng: DetRng::new(key.rng_seed).fork(key.rng_stream),
            tiles: self
                .tiles
                .as_ref()
                .map_or_else(TileBroker::disabled, |store| {
                    TileBroker::enabled(Arc::clone(store))
                }),
            scratch: self.scratch.clone(),
        }
    }

    /// Executes one unit: the in-memory records first, then the store
    /// directory's (neither for a profiled unit), then real execution
    /// under panic isolation and the retry policy. Exactly one of
    /// `cache.hits`, `checkpoint.hits`, `runner.units_from_store`,
    /// `cache.misses` ([`Runner::finished`]) or `runner.failures.*`
    /// ([`Runner::failed`]) fires per call, for cached runners.
    fn run_unit(
        &self,
        unit: &WorkUnit<'_>,
        pcfg: Option<&ProfileConfig>,
        worker: &mut Worker,
    ) -> UnitResult {
        let t = &self.telemetry;
        let _span = eureka_obs::span!(
            &self.spans,
            "unit.exec",
            "{} {}",
            unit.key.arch,
            unit.key.gemm_name
        );
        self.events
            .emit(|| Event::new("unit-started").det_u64("unit", unit.index as u64));
        // Cooperative cancellation: the unit boundary is the only place
        // the runner looks at the token, so a unit either never starts
        // or runs to its own conclusion. Checked before the cache so a
        // cancelled job does zero work, not merely zero compute.
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                let payload = if token.cancelled_explicitly() {
                    "cancelled before execution"
                } else {
                    "deadline exceeded before execution"
                };
                return Err(self.failed(
                    unit,
                    UnitError {
                        kind: FailureKind::Cancelled,
                        payload: payload.to_string(),
                        attempts: 0,
                    },
                ));
            }
        }
        // A profiled unit neither replays nor records: a stored report
        // carries no row-level attribution.
        let records = (self.cached && pcfg.is_none()).then_some(self.records.as_ref());
        if let Some(records) = records {
            if let Some(hit) = records.get(&unit.key) {
                self.finished(worker, unit, Source::Cache, &hit, 0);
                return Ok((hit, None));
            }
            // The record key, rendered once, and only with a store
            // directory: the lookup and any append below read it.
            if records.dir().is_some() {
                unit.render(&mut worker.key);
                let stored = records.stored(&worker.key, &self.spans, |damaged| {
                    t.ckpt_errors.add(damaged);
                });
                if let Some(report) = stored {
                    self.finished(worker, unit, Source::Checkpoint, &report, 0);
                    return Ok((report, None));
                }
            }
        }
        let (gemm, ctx) = (unit.key.gemm(), self.ctx(unit));
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                t.retries_attempts.inc();
                let _retry = eureka_obs::span!(
                    &self.spans,
                    "unit.retry",
                    "{} {} attempt {}",
                    unit.key.arch,
                    unit.key.gemm_name,
                    attempt
                );
            }
            // A fresh tally per attempt: classification below must
            // reflect the final (successful) attempt only.
            ctx.tiles.reset_tally();
            let started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_unit(unit, &gemm, &ctx, pcfg)
            }));
            let exec_us = micros(started.elapsed());
            t.exec_micros.record(exec_us);
            t.arch_exec_histogram(&unit.key.arch).record(exec_us);
            t.units_executed.inc();
            let failure = match outcome {
                Ok(Ok((report, profile))) => {
                    if attempt > 1 {
                        t.retries_recovered.inc();
                    }
                    let (tile_lookups, tile_computes) = ctx.tiles.tally();
                    let source = if tile_lookups > 0 && tile_computes == 0 {
                        Source::Store
                    } else {
                        Source::Computed
                    };
                    // Of two workers racing on one key, only the first
                    // to insert appends its record.
                    if let Some(records) = records {
                        if records.insert(&unit.key, &report) {
                            t.cache_inserts.inc();
                            if records.dir().is_some() {
                                self.append(unit, &worker.key, &report);
                            }
                        }
                    }
                    self.finished(worker, unit, source, &report, exec_us);
                    return Ok((report, profile));
                }
                Ok(Err(e)) => UnitError {
                    payload: e.to_string(),
                    kind: FailureKind::Sim(e),
                    attempts: attempt,
                },
                Err(panic) => UnitError {
                    payload: panic_message(panic.as_ref()),
                    kind: FailureKind::Panic,
                    attempts: attempt,
                },
            };
            if !self.retry.should_retry(&failure.kind, attempt) {
                return Err(self.failed(unit, failure));
            }
            // Space the next attempt out: deterministic exponential
            // backoff seeded by the unit's content key, so the schedule
            // replays exactly and different units decorrelate.
            let delay_us = self
                .backoff
                .delay_us(unit.key.rng_seed ^ unit.key.rng_stream, attempt);
            self.events.emit(|| {
                Event::new("retry")
                    .det_u64("unit", unit.index as u64)
                    .det_u64("attempt", u64::from(attempt))
                    .det_str("kind", failure.kind.label())
                    .wall_u64("backoff_us", delay_us)
            });
            if delay_us > 0 {
                t.backoff_slept_us.add(delay_us);
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
        }
    }

    /// Records a unit's success: its `source` on `worker`, for
    /// [`Runner::count`], and its `unit-finished` event, whose `exec_us`
    /// is `0` for replays.
    fn finished(
        &self,
        worker: &mut Worker,
        unit: &WorkUnit<'_>,
        source: Source,
        report: &LayerReport,
        exec_us: u64,
    ) {
        worker.finished[source as usize] += 1;
        self.events.emit(|| {
            Event::new("unit-finished")
                .det_u64("unit", unit.index as u64)
                .det_str("source", source.label())
                .det_bool("ok", true)
                .det_u64("cycles", report.total_cycles())
                .wall_u64("exec_us", exec_us)
        });
    }

    /// Records a unit's final failure — its `runner.failures.*` counter,
    /// a `unit.failure` span and its `failure` event — and returns it.
    fn failed(&self, unit: &WorkUnit<'_>, failure: UnitError) -> UnitError {
        let t = &self.telemetry;
        match failure.kind {
            FailureKind::Panic => t.failures_panic.inc(),
            FailureKind::Sim(_) => t.failures_sim.inc(),
            FailureKind::Cancelled => t.failures_cancelled.inc(),
        }
        let _failure = eureka_obs::span!(
            &self.spans,
            "unit.failure",
            "{} {}: {} after {} attempt(s)",
            unit.key.arch,
            unit.key.gemm_name,
            failure.kind.label(),
            failure.attempts
        );
        self.events.emit(|| {
            Event::new("failure")
                .det_u64("unit", unit.index as u64)
                .det_str("kind", failure.kind.label())
                .det_u64("attempts", u64::from(failure.attempts))
                .det_str("payload", failure.payload.clone())
        });
        failure
    }

    /// Appends `unit`'s record to the store directory's log, ticking
    /// `checkpoint.writes` and emitting `checkpoint-written`, or ticking
    /// `checkpoint.errors` when the write fails (the result stays in
    /// memory).
    fn append(&self, unit: &WorkUnit<'_>, key: &str, report: &LayerReport) {
        let t = &self.telemetry;
        match self.records.append(key, report) {
            Ok(()) => {
                t.ckpt_writes.inc();
                self.events
                    .emit(|| Event::new("checkpoint-written").det_u64("unit", unit.index as u64));
            }
            Err(_) => t.ckpt_errors.inc(),
        }
    }
}

/// Best-effort rendering of a caught panic payload. `&str` and `String`
/// payloads (what `panic!` produces) render verbatim; the fault-injection
/// payload renders through its `Display`; anything else gets a
/// placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<crate::faults::InjectedPanic>() {
        p.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Plans one job into per-layer units appended to `units`: one key per
/// layer, with the job's architecture name and rendered config shared.
fn plan<'a>(job: &'a SimJob<'a>, units: &mut Vec<WorkUnit<'a>>) {
    let workload = job.workload;
    let bench = workload.benchmark();
    let arch: Arc<str> = job.arch.name().into();
    let act_density = workload.activation_density().to_bits();
    let s2ta_act_density = activation::s2ta_activation_density(bench).map(f64::to_bits);
    let s2ta_fil_density = activation::s2ta_filter_density(bench).map(f64::to_bits);
    let cfg_key = Arc::new(CfgKey::of(&job.cfg));
    let cfg_text: Arc<str> = cfg_key.canonical().into();
    for (i, gemm) in workload.gemms().into_iter().enumerate() {
        let key = UnitKey {
            arch: Arc::clone(&arch),
            gemm_name: gemm.name,
            n: gemm.shape.n,
            k: gemm.shape.k,
            m: gemm.shape.m,
            unique_act_bytes: gemm.unique_act_bytes,
            weight_density: gemm.weight_density.to_bits(),
            clustered: gemm.clustered,
            depthwise: gemm.depthwise,
            act_density,
            s2ta_act_density,
            s2ta_fil_density,
            rng_seed: workload.seed(),
            rng_stream: i as u64,
            cfg: Arc::clone(&cfg_key),
        };
        units.push(WorkUnit {
            job,
            key,
            cfg_text: Arc::clone(&cfg_text),
            index: units.len(),
        });
    }
}

/// The pure per-layer computation: architecture timing — with the layer's
/// [`LayerProfile`] when `pcfg` asks for cycle attribution (the profiled
/// paths consume identical RNG streams) — plus the measured cache-replay
/// residency when `detailed_memory` is on. That adjustment replaces the
/// analytic residency constant with one measured on the cache substrate,
/// re-derives the exposed cycles, and is mirrored into the profile so its
/// `memory` stall bucket keeps matching the report's `mem_cycles`.
fn execute_unit(
    unit: &WorkUnit<'_>,
    gemm: &LayerGemm,
    ctx: &LayerCtx,
    pcfg: Option<&ProfileConfig>,
) -> Result<(LayerReport, Option<Box<LayerProfile>>), SimError> {
    let SimJob { arch, cfg, .. } = unit.job;
    let (mut report, mut profile) = match pcfg {
        Some(pcfg) => {
            let (report, profile) = arch.simulate_layer_profiled(gemm, ctx, cfg, pcfg)?;
            (report, Some(Box::new(profile)))
        }
        None => (arch.simulate_layer(gemm, ctx, cfg)?, None),
    };
    if cfg.detailed_memory {
        let residency =
            crate::cachesim::replay_layer(gemm, cfg, crate::cachesim::CacheConfig::ampere_l2(), 96)
                .act_hit_rate;
        let mem = crate::config::MemoryConfig {
            l2_act_residency: residency,
            ..cfg.mem
        };
        report.mem_cycles = crate::memory::exposed_cycles(&report, &mem);
        if let Some(profile) = &mut profile {
            profile.mem_cycles = report.mem_cycles;
            profile.stalls.memory = report.mem_cycles;
        }
    }
    Ok((report, profile))
}

/// Assembles one job's unit results (in layer order) into a
/// [`JobOutcome`]: complete when every unit succeeded, degraded when some
/// survived, failed when none did. Surviving layers are exactly what a
/// fault-free run produces for them; failures carry full reproduction
/// coordinates (job, layer, kind, seed). Beside it come the surviving
/// layers' profiles, which a `profiled` run extends with the synthetic
/// attention layer's.
fn reduce(
    job: &SimJob<'_>,
    job_idx: usize,
    units: &[WorkUnit<'_>],
    results: impl Iterator<Item = UnitResult>,
    profiled: bool,
) -> (JobOutcome, Vec<LayerProfile>) {
    let mut layers = Vec::with_capacity(units.len() + 1);
    let mut profiles = Vec::new();
    let mut failures = Vec::new();
    for (layer_idx, (unit, result)) in units.iter().zip(results).enumerate() {
        match result {
            Ok((layer, profile)) => {
                layers.push(layer);
                profiles.extend(profile.map(|profile| *profile));
            }
            Err(e) => failures.push(UnitFailure {
                job: job_idx,
                layer: layer_idx,
                layer_name: unit.key.gemm_name.clone(),
                arch: unit.key.arch.to_string(),
                kind: e.kind,
                payload: e.payload,
                rng_seed: unit.key.rng_seed,
                attempts: e.attempts,
            }),
        }
    }
    if layers.is_empty() && !failures.is_empty() {
        return (JobOutcome::Failed { failures }, profiles);
    }
    // Weight-free attention matmuls run dense on every architecture: one
    // synthetic layer, when `include_attention_aux` asks for it and the
    // workload has any.
    let aux = job.workload.attention_aux_macs();
    if job.cfg.include_attention_aux && aux > 0 {
        let compute = (aux as f64 / job.cfg.total_macs() as f64).ceil() as u64;
        let aux = LayerReport {
            name: "attention-aux".into(),
            compute_cycles: compute,
            mem_cycles: (job.cfg.mem.ramp_fraction * compute as f64).ceil() as u64,
            mac_ops: aux,
            idle_mac_cycles: 0,
            ..LayerReport::default()
        };
        if profiled {
            profiles.push(LayerProfile::from_report(&aux));
        }
        layers.push(aux);
    }
    let report = SimReport {
        arch: job.arch.name().to_string(),
        workload: format!(
            "{} ({}, batch {})",
            job.workload.benchmark().name(),
            job.workload.pruning().label(),
            job.workload.batch()
        ),
        layers,
    };
    let outcome = if failures.is_empty() {
        JobOutcome::Complete(report)
    } else {
        JobOutcome::Degraded {
            report,
            failed_layers: failures,
        }
    };
    (outcome, profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch;
    use crate::faults::{FaultKind, FaultPlan, FaultSpec, FaultyArch};
    use eureka_models::{Benchmark, PruningLevel, Workload};

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            rowgroup_samples: 8,
            slice_samples: 8,
            act_samples: 8,
            ..SimConfig::paper_default()
        }
    }

    #[test]
    fn serial_and_parallel_agree_on_one_job() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p4();
        let job = SimJob::new(&a, &w, cfg);
        let serial = Runner::serial().without_cache().run(&job).unwrap();
        let parallel = Runner::with_jobs(4).without_cache().run(&job).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_all_preserves_submission_order() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let dense = arch::dense();
        let eureka = arch::eureka_p4();
        let jobs = [SimJob::new(&dense, &w, cfg), SimJob::new(&eureka, &w, cfg)];
        let out = Runner::with_jobs(3).run_all(&jobs);
        assert_eq!(out[0].as_ref().unwrap().arch, "Dense");
        assert_eq!(out[1].as_ref().unwrap().arch, "Eureka P=4");
    }

    #[test]
    fn unsupported_arch_errors_like_engine() {
        let w = Workload::new(Benchmark::InceptionV3, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let s2ta = arch::s2ta();
        let job = SimJob::new(&s2ta, &w, cfg);
        let serial = Runner::serial().run(&job);
        let parallel = Runner::with_jobs(4).run(&job);
        assert!(serial.is_err());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cache_counts_hits_and_returns_identical_results() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 16);
        let cfg = SimConfig {
            rowgroup_samples: 7, // distinctive: avoid collisions with other tests
            ..tiny_cfg()
        };
        let a = arch::ampere();
        let job = SimJob::new(&a, &w, cfg);
        let runner = Runner::serial();
        let cold = runner.run(&job).unwrap();
        let hits = || runner.metrics().counter_value("cache.hits");
        assert_eq!(hits(), Some(0));
        let warm = runner.clone().run(&job).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(
            hits(),
            Some(w.layer_count() as u64),
            "the clone replays every layer into the shared registry"
        );
    }

    #[test]
    fn attention_aux_reduces_identically_in_both_modes() {
        let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 8);
        let cfg = SimConfig {
            include_attention_aux: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let serial = Runner::serial().without_cache().run(&job).unwrap();
        let parallel = Runner::with_jobs(2).without_cache().run(&job).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.layers.iter().any(|l| l.name == "attention-aux"));
    }

    #[test]
    fn panicking_unit_degrades_instead_of_aborting() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let victim = w.gemms()[2].name.clone();
        let a = FaultyArch::new(
            Box::new(arch::dense()),
            FaultPlan::new(vec![FaultSpec {
                layer: victim.clone(),
                kind: FaultKind::Panic,
                fail_first: u32::MAX,
            }]),
            "runner-panic",
        );
        let job = SimJob::new(&a, &w, cfg);
        let outcome = Runner::serial().without_cache().run_outcome(&job);
        match &outcome {
            JobOutcome::Degraded {
                report,
                failed_layers,
            } => {
                assert_eq!(report.layers.len(), w.layer_count() - 1);
                assert_eq!(failed_layers.len(), 1);
                assert_eq!(failed_layers[0].layer, 2);
                assert_eq!(failed_layers[0].layer_name, victim);
                assert_eq!(failed_layers[0].kind, FailureKind::Panic);
                assert_eq!(failed_layers[0].rng_seed, w.seed());
                assert_eq!(failed_layers[0].attempts, 1);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // The legacy Result view surfaces the panic as a typed error.
        let err = outcome.into_result().unwrap_err();
        assert!(matches!(err, SimError::UnitPanic { ref layer, .. } if *layer == victim));
    }

    #[test]
    fn retry_recovers_transient_faults() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let victim = w.gemms()[0].name.clone();
        let a = FaultyArch::new(
            Box::new(arch::dense()),
            FaultPlan::new(vec![FaultSpec {
                layer: victim,
                kind: FaultKind::Error,
                fail_first: 1,
            }]),
            "runner-retry",
        );
        let job = SimJob::new(&a, &w, cfg);
        let pcfg = ProfileConfig::default();
        // Without retries the transient fault is fatal for its layer...
        let outcome = Runner::serial().without_cache().run_outcome(&job);
        assert!(!outcome.is_complete());
        a.reset_attempts();
        let profiled = Runner::serial().without_cache().run_profiled(&job, &pcfg);
        assert!(
            matches!(profiled, Err(SimError::Injected { .. })),
            "{profiled:?}"
        );
        // ...with one retry the whole job completes, profiled or not.
        let retrying = Runner::serial()
            .without_cache()
            .with_retry(RetryPolicy::transient(2));
        a.reset_attempts();
        let outcome = retrying.run_outcome(&job);
        assert!(outcome.is_complete(), "{outcome:?}");
        a.reset_attempts();
        let (report, profile) = retrying.run_profiled(&job, &pcfg).unwrap();
        assert_eq!(Some(&report), outcome.report());
        assert_eq!(profile.layers.len(), w.layer_count());
    }

    #[test]
    fn a_fired_token_cancels_a_profiled_run() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let a = arch::eureka_p4();
        let job = SimJob::new(&a, &w, tiny_cfg());
        let token = CancelToken::new();
        token.cancel();
        let runner = Runner::with_jobs(2).with_cancel(token);
        let profiled = runner.run_profiled(&job, &ProfileConfig::default());
        assert!(
            matches!(profiled, Err(SimError::Cancelled { .. })),
            "{profiled:?}"
        );
        let failures = runner.metrics().counter_value("runner.failures.cancelled");
        assert_eq!(failures, Some(w.layer_count() as u64));
    }

    #[test]
    fn profiled_run_does_not_perturb_the_report() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p4();
        let job = SimJob::new(&a, &w, cfg);
        let plain = Runner::serial().without_cache().run(&job).unwrap();
        let (profiled, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(plain, profiled, "profiling must not change the report");
        assert_eq!(profile.total_attributed_cycles(), profiled.total_cycles());
        assert_eq!(profile.idle_mac_cycles(), profiled.idle_mac_cycles());
    }

    #[test]
    fn profiles_are_identical_across_worker_counts() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = tiny_cfg();
        let a = arch::eureka_p2();
        let job = SimJob::new(&a, &w, cfg);
        let pcfg = ProfileConfig::default();
        let (r1, p1) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
        let (r4, p4) = Runner::with_jobs(4)
            .without_cache()
            .run_profiled(&job, &pcfg)
            .unwrap();
        assert_eq!(r1, r4);
        assert_eq!(p1, p4);
        assert_eq!(p1.to_json(), p4.to_json(), "JSON export is byte-stable");
    }

    #[test]
    fn profiled_run_includes_attention_aux_layer() {
        let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 8);
        let cfg = SimConfig {
            include_attention_aux: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let (report, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(report.layers.len(), profile.layers.len());
        let aux = profile.layers.last().unwrap();
        assert_eq!(aux.name, "attention-aux");
        assert_eq!(profile.total_attributed_cycles(), report.total_cycles());
    }

    #[test]
    fn profiled_run_mirrors_detailed_memory_adjustment() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let cfg = SimConfig {
            detailed_memory: true,
            ..tiny_cfg()
        };
        let a = arch::dense();
        let job = SimJob::new(&a, &w, cfg);
        let plain = Runner::serial().without_cache().run(&job).unwrap();
        let (profiled, profile) = Runner::serial()
            .without_cache()
            .run_profiled(&job, &ProfileConfig::default())
            .unwrap();
        assert_eq!(plain, profiled);
        for (l, p) in profiled.layers.iter().zip(&profile.layers) {
            assert_eq!(l.mem_cycles, p.mem_cycles);
            assert_eq!(l.mem_cycles, p.stalls.memory);
        }
    }

    #[test]
    fn canonical_keys_are_stable_and_distinct() {
        let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let a = arch::dense();
        let job = SimJob::new(&a, &w, tiny_cfg());
        let mut units = Vec::new();
        plan(&job, &mut units);
        let keys: Vec<String> = units.iter().map(WorkUnit::canonical).collect();
        let mut uniq = keys.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "every unit key is distinct");
        // Same plan, same keys (the stability stored records need).
        let mut units2 = Vec::new();
        plan(&job, &mut units2);
        let keys2: Vec<String> = units2.iter().map(WorkUnit::canonical).collect();
        assert_eq!(keys, keys2);
        assert!(keys[0].starts_with("v1|arch=Dense|"));
    }

    /// The rendering stored unit records are named by, spelled out with
    /// temporary strings: [`UnitKey::render`] must match it byte for byte.
    fn reference_key(key: &UnitKey) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "-".to_string(), |b| format!("{b:016x}"))
        }
        format!(
            "v1|arch={}|gemm={}|nkm={}x{}x{}|uab={}|wd={:016x}|cl={}|dw={}|ad={:016x}|s2a={}|s2f={}|seed={:016x}|stream={}|{}",
            key.arch,
            key.gemm_name,
            key.n,
            key.k,
            key.m,
            key.unique_act_bytes,
            key.weight_density,
            key.clustered,
            key.depthwise,
            key.act_density,
            opt(key.s2ta_act_density),
            opt(key.s2ta_fil_density),
            key.rng_seed,
            key.rng_stream,
            key.cfg.canonical(),
        )
    }

    #[test]
    fn rendered_keys_match_the_formatted_reference() {
        let s2ta = arch::s2ta();
        let dense = arch::dense();
        // MobileNetV1 has S2TA densities, InceptionV3 has none.
        let mobilenet = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
        let inception = Workload::new(Benchmark::InceptionV3, PruningLevel::Dense, 1);
        let jobs = [
            SimJob::new(&s2ta, &mobilenet, tiny_cfg()),
            SimJob::new(&dense, &inception, SimConfig::paper_default()),
        ];
        let mut units = Vec::new();
        for job in &jobs {
            plan(job, &mut units);
        }
        assert!(units.iter().any(|u| u.key.s2ta_act_density.is_some()));
        assert!(units.iter().any(|u| u.key.s2ta_fil_density.is_none()));
        for unit in &units {
            assert_eq!(unit.canonical(), reference_key(&unit.key));
        }
    }
}
