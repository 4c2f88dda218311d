//! Command parsing and execution for the `eureka` CLI.
//!
//! The binary in `src/main.rs` is a thin wrapper; everything here is
//! testable as a library:
//!
//! ```
//! use eureka_cli::{parse, Command};
//!
//! let cmd = parse(["simulate", "--benchmark", "resnet50", "--arch", "eureka-p4"])?;
//! assert!(matches!(cmd, Command::Simulate { .. }));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::events::Events;
use eureka_obs::log::Verbosity;
use eureka_obs::metrics::Registry;
use eureka_obs::progress;
use eureka_obs::span::Spans;
use eureka_sim::ledger::arch_row;
use eureka_sim::{arch, engine, JobSpec, RetryPolicy, Runner, SimConfig, SimJob};
use eureka_verify::VerifyOptions;

pub mod serve;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// List the architecture registry.
    Archs,
    /// Regenerate one of the paper's tables/figures.
    Figure {
        /// One of [`eureka_bench::FIGURES`].
        name: String,
        /// Emit CSV instead of the text table.
        csv: bool,
        /// Runner and sampling settings.
        run: RunOpts,
        /// Telemetry, events, progress and ledger settings.
        obs: ObsOpts,
    },
    /// Compile one layer's (synthetic) pruned weights to the offline
    /// format and report compression/cycle statistics.
    Compile {
        /// Benchmark name.
        benchmark: Benchmark,
        /// Layer name (e.g. `conv4_2/3x3`, `enc0/q`).
        layer: String,
        /// Compaction factor.
        factor: usize,
    },
    /// Emit a Chrome-tracing JSON of one layer's systolic schedule.
    Trace {
        /// Benchmark name.
        benchmark: Benchmark,
        /// Layer name.
        layer: String,
    },
    /// Simulate one workload on one architecture.
    Simulate {
        /// The workload and architecture (deadline and retry budget stay
        /// 0: `--retries` belongs to `run`).
        spec: JobSpec,
        /// Emit the per-layer CSV.
        csv: bool,
        /// Keep going past failed layers: emit the surviving layers plus
        /// a structured failure report instead of aborting.
        keep_going: bool,
        /// With `keep_going`, fail anyway once more than this many layers
        /// failed.
        max_failures: Option<u64>,
        /// Runner and sampling settings.
        run: RunOpts,
        /// Telemetry, events, progress and ledger settings.
        obs: ObsOpts,
    },
    /// Profile one workload on one architecture: cycle attribution
    /// (stall taxonomy, per-row heatmap, worst tiles, SUDS displacement)
    /// plus optional machine-readable exports.
    Profile {
        /// The workload and architecture (deadline and retry budget stay
        /// 0).
        spec: JobSpec,
        /// Write the profile JSON here (`-` = stdout).
        json_out: Option<String>,
        /// Write the per-row utilization heatmap CSV here (`-` = stdout).
        heatmap_out: Option<String>,
        /// Write the Chrome-trace occupancy tracks here (`-` = stdout).
        trace_out: Option<String>,
        /// Write the run's ledger record, of kind `bench`, here as the
        /// BENCH snapshot (`-` = stdout).
        bench_json: Option<String>,
        /// How many worst tiles to keep per layer.
        top_tiles: usize,
        /// Runner and sampling settings (no retries).
        run: RunOpts,
        /// Events, progress and ledger settings (no run trace or
        /// metrics export).
        obs: ObsOpts,
    },
    /// List the records of the run ledger's log, numbered from 1.
    BenchList {
        /// Ledger directory (default `results/ledger`).
        ledger_dir: Option<String>,
    },
    /// Compare two `eureka-ledger-v2` records field-by-field under a
    /// regression threshold; the run errors (exit non-zero) when any
    /// gated field regressed — the CI perf gate.
    BenchDiff {
        /// Baseline: a snapshot path, or `<ledger.log>#<N>`.
        baseline: String,
        /// Candidate: a snapshot path, or `<ledger.log>#<N>`.
        candidate: String,
        /// Regression threshold in percent.
        max_regress: f64,
    },
    /// Validate `eureka-events-v1` streams; with two or more, require
    /// identical deterministic projections.
    CheckEvents {
        /// The JSONL stream files.
        files: Vec<String>,
    },
    /// Run the differential verification suite (dense-GEMM oracle,
    /// brute-force SUDS checker, metamorphic invariants) over seeded
    /// random cases, or one of the suites `mode` names.
    Verify {
        /// Case budget, seed, architecture filter and corpus directory.
        opts: VerifyOptions,
        /// Which suite runs.
        mode: VerifyMode,
    },
    /// Run the resident job service on a Unix socket (JSON-lines
    /// protocol: submit/status/cancel/drain/health/shutdown).
    Serve(serve::ServeOpts),
    /// Submit one job to a running service and print the response.
    Submit {
        /// Unix socket path of the service.
        socket: String,
        /// The job.
        spec: JobSpec,
        /// Poll until the job reaches a terminal state.
        wait: bool,
    },
    /// Ask a running service to drain: finish in-flight work, admit
    /// nothing new.
    Drain {
        /// Unix socket path of the service.
        socket: String,
        /// Also shut the service down after the drain.
        shutdown: bool,
    },
    /// Print a running service's live counters and per-outcome-class
    /// latency quantiles (p50/p90/p99).
    Stats {
        /// Unix socket path of the service.
        socket: String,
        /// Print the raw JSON response line instead of the table.
        json: bool,
    },
}

/// Which suite `eureka verify` runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// Fuzz seeded random cases (the default).
    Fuzz,
    /// Replay this corpus directory instead of fuzzing.
    Replay(String),
    /// The seeded fault-injection matrix (panic, error, stall × serial,
    /// parallel).
    FaultMatrix,
    /// The service chaos harness (panics, stalls crossing deadlines,
    /// mid-job crash + journal replay, shard corruption, overload
    /// shedding).
    Chaos,
}

/// Usage text.
pub const USAGE: &str = "\
eureka — reproduction of the Eureka sparse tensor core (MICRO 2023)

USAGE:
  eureka help
  eureka archs
  eureka figure <table1|table2|fig09|fig11|fig12|fig13|fig14|ablations>
                  [--csv] [--fast] [--jobs <N>]
                  [--retries <N>] [--store-dir <dir>]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--trace-out <file>] [--metrics-out <file>] [-v|-vv]
  eureka simulate --benchmark <mobilenetv1|inceptionv3|resnet50|bert>
                  [--pruning <dense|cons|mod>] [--arch <name>]
                  [--batch <N>] [--csv] [--fast] [--jobs <N>]
                  [--keep-going] [--max-failures <N>] [--retries <N>]
                  [--store-dir <dir>]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--trace-out <file>] [--metrics-out <file>] [-v|-vv]
  eureka profile  --benchmark <name> [--pruning <level>] [--arch <name>]
                  [--batch <N>] [--fast] [--jobs <N>] [--top-tiles <N>]
                  [--store-dir <dir>]
                  [--events-out <file|->] [--progress|--no-progress]
                  [--ledger-dir <dir>|--no-ledger]
                  [--json <file|->] [--heatmap <file|->]
                  [--trace-out <file|->] [--bench-json <file|->] [-v|-vv]
  eureka bench    list [--ledger-dir <dir>]
  eureka bench    diff <baseline> <candidate> [--max-regress <pct>]
  eureka check    events <stream.jsonl>...
  eureka compile  --benchmark <name> --layer <layer-name> [--factor <P>]
  eureka trace    --benchmark <name> --layer <layer-name>   (Chrome-trace JSON)
  eureka verify   [--cases <N>] [--seed <S>] [--arch <name>]
                  [--corpus-dir <dir>] [--replay <dir>] [--fault-matrix]
                  [--chaos]
  eureka serve    [--socket <path>] [--journal-dir <dir>]
                  [--store-dir <dir>]
                  [--capacity <N>] [--deadline-ms <N>] [--jobs <N>] [--fast]
                  [--metrics-out <file>] [--flightrec-dir <dir>]
                  [--sla-budget-us <N>] [--ledger-dir <dir>|--no-ledger]
  eureka submit   --benchmark <name> [--pruning <level>] [--arch <name>]
                  [--batch <N>] [--deadline-ms <N>] [--retries <N>]
                  [--socket <path>] [--wait]
  eureka drain    [--socket <path>] [--shutdown]
  eureka stats    [--socket <path>] [--json]

FAULT TOLERANCE:
  --keep-going          don't abort on a failed layer: print the surviving
                        layers plus a structured failure report naming every
                        (job, layer, kind, seed) site (CSV mode keeps stdout
                        machine-readable; the report goes to stderr)
  --max-failures <N>    with --keep-going, still fail once more than N
                        layers failed
  --retries <N>         re-execute a failed unit up to N extra times
                        (deterministic; unsupported combinations are never
                        retried)

RESULT STORE:
  --store-dir <dir>     persist results across runs: a record of every
                        completed unit, appended to one log as the unit
                        finishes (so a killed run resumes where it
                        stopped), which a rerun replays before sampling a
                        single tile, plus canonical tile results
                        (content-addressed by row-length signature) for
                        units without a record and for `profile`; reports
                        stay byte-identical

TELEMETRY:
  --trace-out <file>    Chrome Trace Event JSON of the run (one track per
                        worker thread; open in chrome://tracing or Perfetto)
  --metrics-out <file>  JSON snapshot of the metrics registry (unit/cache/
                        store/failure/checkpoint counters, exec-time
                        histograms)
  -v / -vv              telemetry summary / per-layer breakdown on stderr

OBSERVABILITY:
  --events-out <file|-> stream the run-event JSONL (schema eureka-events-v1)
                        to a file or stdout ('-' suppresses the human report
                        to keep stdout machine-readable). Each line splits
                        deterministic fields (`det`: byte-identical across
                        reruns and --jobs settings) from wall-clock fields
                        (`wall`: seq, t_us, jobs). Compare streams with
                        `eureka check events`
  --progress            force the throttled stderr progress line on
  --no-progress         force it off (default: on only when stderr is a
                        terminal; the line never touches stdout, reports,
                        or the metrics registry)
  --ledger-dir <dir>    append the run's record (schema eureka-ledger-v2:
                        config key, git revision, metrics digest, per-arch
                        cycles, wall time, event count) to <dir>/ledger.log
                        as one sealed line; when omitted, defaults to
                        results/ledger iff that directory exists
  --no-ledger           skip the ledger append
  bench list            print the records of <dir>/ledger.log, numbered
  bench diff <a> <b>    field-by-field comparison of two records, each a
                        snapshot file or <ledger.log>#<N> (the N-th record
                        `bench list` shows): per-arch cycles gate
                        lower-is-better, speedups higher-is-better,
                        wall-clock fields are informational only; exits 1
                        when any gated field moves beyond --max-regress
                        percent (default 2), 2 on unusable input
  check events <f>...   validate event streams line by line (schema, kind,
                        det fields, a dense wall.seq); given two or more,
                        require identical deterministic projections
                        (sorted {event, det} lines) and name the first
                        projected line that differs

PROFILING (`eureka profile`):
  prints a ranked bottleneck report (stall taxonomy: compute / memory /
  pipeline-bubble / tail-drain; MAC utilization; heaviest layers with their
  worst tiles). The report is bit-identical to an unprofiled simulation.
  --json <file|->       byte-stable profile JSON (schema eureka-profile-v1)
  --heatmap <file|->    per-(layer,row) utilization heatmap CSV
  --trace-out <file|->  Chrome-trace occupancy tracks (one per systolic row)
  --bench-json <file|-> BENCH snapshot: the run's ledger record (kind
                        bench) as one line of JSON, with cycles, MAC
                        utilization and speedup-vs-dense for the standard
                        arch matrix plus the requested arch
  --top-tiles <N>       worst tiles kept per layer (default 5)
  at most one export may write to stdout ('-'); with a stdout export the
  human report is suppressed to keep stdout machine-readable

JOB SERVICE (`eureka serve`):
  a resident service on a Unix socket speaking a JSON-lines protocol
  (submit/status/cancel/drain/health/shutdown). Admission is bounded:
  beyond --capacity queued jobs, submissions shed with a typed
  'overloaded' rejection. Every accepted job is journaled write-ahead
  (schema eureka-journal v2) before it can run, so a SIGKILL'd server
  replays accepted-but-unfinished jobs on restart — with
  --store-dir, without recomputing units the previous life completed.
  Every job shares the daemon's unit records, read once per daemon. SIGTERM/SIGINT drain gracefully: in-flight work finishes,
  new work sheds, then the process exits. Failed units retry under
  seeded exponential backoff with jitter (deterministic per unit).
  --deadline-ms sets the default per-job deadline, enforced by
  cooperative cancellation at unit boundaries.
  submit --wait        poll until the job is terminal; exits non-zero
                       unless the job completed
  drain [--shutdown]   finish in-flight work and stop admitting; with
                       --shutdown the server process exits afterwards
  stats [--json]       live counters plus per-outcome-class latency
                       quantiles (queue-wait / exec / end-to-end p50,
                       p90, p99) over the `stats` wire verb
  --metrics-out <file> rewrite a Prometheus text exposition after every
                       connection and on exit (tmp + rename, so
                       scrapers never read a torn file); the `metrics`
                       wire verb returns the same text over the socket
  --flightrec-dir <dir> where the always-armed flight recorder (a
                       fixed-capacity in-memory ring of job lifecycle
                       records, schema eureka-flightrec-v1) dumps its
                       contents: after every connection that recorded
                       something new, on SIGTERM drain, on panic, and on the `dump` wire verb —
                       a SIGKILL'd daemon leaves a replayable
                       flightrec-<pid>.jsonl behind (default: results)
  --sla-budget-us <N>  print an exit SLA summary (completed-job p99
                       end-to-end latency vs the budget, jobs/sec,
                       shed rate, saturation flag) and append it to
                       the run ledger so `bench diff` gates
                       service-latency regressions
  verify --chaos       seeded service-layer fault schedules (worker
                       panics, stalls crossing deadlines, mid-job crash
                       + journal replay, journal/record-log corruption,
                       overload): the service must recover to a
                       consistent ledger with surviving results
                       bit-identical to a fault-free run

Run `eureka archs` for the architecture registry.";

fn parse_benchmark(s: &str) -> Result<Benchmark, String> {
    match s.to_ascii_lowercase().as_str() {
        "mobilenetv1" | "mobilenet" => Ok(Benchmark::MobileNetV1),
        "inceptionv3" | "inception" => Ok(Benchmark::InceptionV3),
        "resnet50" | "resnet" => Ok(Benchmark::ResNet50),
        "bert" | "bert-squad" | "bertsquad" => Ok(Benchmark::BertSquad),
        other => Err(format!("unknown benchmark '{other}'")),
    }
}

fn parse_pruning(s: &str) -> Result<PruningLevel, String> {
    match s.to_ascii_lowercase().as_str() {
        "dense" => Ok(PruningLevel::Dense),
        "cons" | "conservative" => Ok(PruningLevel::Conservative),
        "mod" | "moderate" => Ok(PruningLevel::Moderate),
        other => Err(format!("unknown pruning level '{other}'")),
    }
}

/// The arguments after a command word, consumed left to right.
struct Args<'a>(std::slice::Iter<'a, String>);

impl Args<'_> {
    /// The argument following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The argument following `flag`, parsed as a `T`.
    fn parsed<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }

    /// A `--jobs` worker count: a positive integer.
    fn jobs(&mut self) -> Result<usize, String> {
        match self.parsed("--jobs")? {
            0 => Err("--jobs must be positive".into()),
            n => Ok(n),
        }
    }
}

/// Feeds every argument of `args` to `handle`, which consumes any value
/// the flag takes and returns `Ok(false)` for a flag `cmd` does not know.
fn each_flag(
    args: &[String],
    cmd: &str,
    mut handle: impl FnMut(&str, &mut Args<'_>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut rest = Args(args.iter());
    while let Some(flag) = rest.0.next() {
        if !handle(flag, &mut rest)? {
            return Err(format!("unknown flag '{flag}' for {cmd}"));
        }
    }
    Ok(())
}

/// The run settings `figure`, `simulate` and `profile` share. They build
/// the command's one [`Runner`], which every simulation of the command
/// runs on, and its [`SimConfig`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOpts {
    /// Use reduced sampling.
    pub fast: bool,
    /// Simulation worker threads (`None` = all cores).
    pub jobs: Option<usize>,
    /// Extra attempts per failed work unit (0 = fail immediately).
    pub retries: u32,
    /// Persist unit records and canonical tile results under this
    /// directory, and replay the records found there.
    pub store_dir: Option<String>,
}

impl RunOpts {
    /// The simulator configuration: paper sampling, or reduced sampling
    /// with `--fast`.
    #[must_use]
    fn sim_config(&self) -> SimConfig {
        if self.fast {
            SimConfig::fast()
        } else {
            SimConfig::paper_default()
        }
    }

    /// The sampling label of ledger records and BENCH snapshots.
    fn sampling(&self) -> &'static str {
        if self.fast {
            "fast"
        } else {
            "paper"
        }
    }

    /// The command's runner: `--jobs` workers (default all cores),
    /// `--retries` extra attempts per unit, and the store directory.
    #[must_use]
    fn runner(&self) -> Runner {
        let mut runner = self
            .jobs
            .map_or_else(Runner::parallel, Runner::with_jobs)
            .with_retry(RetryPolicy::transient(self.retries.saturating_add(1)));
        if let Some(dir) = &self.store_dir {
            runner = runner.with_store_dir(dir);
        }
        runner
    }
}

/// The observability settings `figure`, `simulate` and `profile` share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsOpts {
    /// Diagnostic verbosity (0, 1 = `-v`, 2 = `-vv`).
    pub verbose: u8,
    /// Stream the run-event JSONL here (`-` = stdout).
    pub events_out: Option<String>,
    /// Progress-line policy (`None` = auto: on iff stderr is a tty).
    pub progress: Option<bool>,
    /// Append the run-ledger record under this directory.
    pub ledger_dir: Option<String>,
    /// Skip the run-ledger append entirely.
    pub no_ledger: bool,
    /// Write a Chrome-trace JSON of the run here (`figure`, `simulate`).
    pub trace_out: Option<String>,
    /// Write a metrics-registry JSON snapshot here (`figure`,
    /// `simulate`).
    pub metrics_out: Option<String>,
}

impl ObsOpts {
    /// The command's diagnostic verbosity, from `-v`/`-vv`.
    fn verbosity(&self) -> Verbosity {
        Verbosity(self.verbose)
    }

    /// Whether the event stream claims stdout, which suppresses the
    /// human report.
    fn events_to_stdout(&self) -> bool {
        self.events_out.as_deref() == Some("-")
    }

    /// The command's event sink: the `--events-out` JSONL writer (file,
    /// or stdout for `-`) and the progress policy, with the progress line
    /// reading `metrics`. Dropping its last clone flushes the file and
    /// ends the progress line.
    fn events(&self, metrics: &Registry) -> Result<Events, String> {
        let writer: Option<Box<dyn std::io::Write + Send>> = match self.events_out.as_deref() {
            None => None,
            Some("-") => Some(Box::new(std::io::stdout())),
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot open events file {path}: {e}"))?;
                Some(Box::new(std::io::BufWriter::new(file)))
            }
        };
        let progress = match self.progress {
            None => progress::Mode::Auto,
            Some(true) => progress::Mode::On,
            Some(false) => progress::Mode::Off,
        };
        Ok(Events::new(writer, progress, metrics))
    }
}

/// The shared flag groups of `figure`, `simulate` and `profile`, parsed
/// by one handler with one copy of each conflict rule.
struct SharedFlags {
    run: RunOpts,
    obs: ObsOpts,
    /// Whether the command also takes `--retries`, `--trace-out` and
    /// `--metrics-out` (`figure` and
    /// `simulate`; `profile` has an export of its own named
    /// `--trace-out`).
    full: bool,
}

impl SharedFlags {
    fn new(full: bool) -> Self {
        SharedFlags {
            run: RunOpts::default(),
            obs: ObsOpts::default(),
            full,
        }
    }

    /// Parses `flag` if it belongs to a shared group; `Ok(false)` if not.
    fn flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, String> {
        let (run, obs) = (&mut self.run, &mut self.obs);
        match flag {
            "--fast" => run.fast = true,
            "--jobs" => run.jobs = Some(args.jobs()?),
            "--store-dir" => run.store_dir = Some(args.value(flag)?),
            "-v" | "--verbose" => obs.verbose = obs.verbose.saturating_add(1),
            "-vv" => obs.verbose = obs.verbose.saturating_add(2),
            "--events-out" => obs.events_out = Some(args.value(flag)?),
            "--progress" => obs.progress = Some(true),
            "--no-progress" => obs.progress = Some(false),
            "--ledger-dir" => obs.ledger_dir = Some(args.value(flag)?),
            "--no-ledger" => obs.no_ledger = true,
            "--retries" if self.full => run.retries = args.parsed(flag)?,
            "--trace-out" if self.full => obs.trace_out = Some(args.value(flag)?),
            "--metrics-out" if self.full => obs.metrics_out = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the conflict rules; `csv` is whether the command's report
    /// claims stdout as CSV.
    fn finish(self, csv: bool) -> Result<(RunOpts, ObsOpts), String> {
        if self.obs.no_ledger && self.obs.ledger_dir.is_some() {
            return Err("--no-ledger conflicts with --ledger-dir".into());
        }
        if csv && self.obs.events_to_stdout() {
            return Err("--events-out - conflicts with --csv (both claim stdout)".into());
        }
        Ok((self.run, self.obs))
    }
}

/// The workload flags of `simulate`, `profile` and `submit`.
struct WorkloadFlags {
    benchmark: Option<Benchmark>,
    pruning: PruningLevel,
    arch: String,
    batch: usize,
}

impl WorkloadFlags {
    fn new() -> Self {
        WorkloadFlags {
            benchmark: None,
            pruning: PruningLevel::Moderate,
            arch: "eureka-p4".to_string(),
            batch: 32,
        }
    }

    /// Parses `flag` if it is a workload flag; `Ok(false)` if not.
    fn flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, String> {
        match flag {
            "--benchmark" => self.benchmark = Some(parse_benchmark(&args.value(flag)?)?),
            "--pruning" => self.pruning = parse_pruning(&args.value(flag)?)?,
            "--arch" => self.arch = args.value(flag)?,
            "--batch" => self.batch = args.parsed(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The job, whose benchmark `cmd` requires.
    fn spec(self, cmd: &str) -> Result<JobSpec, String> {
        let benchmark = self
            .benchmark
            .ok_or_else(|| format!("{cmd} requires --benchmark"))?;
        Ok(JobSpec::new(benchmark, self.pruning, self.batch, self.arch))
    }

    /// The job, checked for what `simulate` and `profile` require: a
    /// benchmark, a registry architecture and a positive batch.
    fn check(self, cmd: &str) -> Result<JobSpec, String> {
        let spec = self.spec(cmd)?;
        if arch::by_name(&spec.arch).is_none() {
            return Err(format!(
                "unknown architecture '{}'; run `eureka archs`",
                spec.arch
            ));
        }
        if spec.batch == 0 {
            return Err("--batch must be positive".into());
        }
        Ok(spec)
    }
}

/// The socket `serve`, `submit`, `drain` and `stats` default to.
const SOCKET: &str = "eureka.sock";

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags, or
/// malformed values.
pub fn parse<I, S>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "archs" => Ok(Command::Archs),
        "figure" => {
            let name = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("figure requires a name, e.g. `eureka figure fig11`")?
                .clone();
            if !eureka_bench::FIGURES.contains(&name.as_str()) {
                return Err(format!(
                    "unknown figure '{name}' (expected one of {:?})",
                    eureka_bench::FIGURES
                ));
            }
            let mut csv = false;
            let mut shared = SharedFlags::new(true);
            each_flag(&args[2..], "figure", |flag, rest| match flag {
                "--csv" => {
                    csv = true;
                    Ok(true)
                }
                _ => shared.flag(flag, rest),
            })?;
            let (run, obs) = shared.finish(csv)?;
            Ok(Command::Figure {
                name,
                csv,
                run,
                obs,
            })
        }
        "compile" => {
            let mut benchmark = None;
            let mut layer = None;
            let mut factor = 4usize;
            each_flag(&args[1..], "compile", |flag, rest| {
                match flag {
                    "--benchmark" => benchmark = Some(parse_benchmark(&rest.value(flag)?)?),
                    "--layer" => layer = Some(rest.value(flag)?),
                    "--factor" => factor = rest.parsed(flag)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if !(1..=16).contains(&factor) {
                return Err("--factor must be in 1..=16".into());
            }
            Ok(Command::Compile {
                benchmark: benchmark.ok_or("compile requires --benchmark")?,
                layer: layer.ok_or("compile requires --layer")?,
                factor,
            })
        }
        "trace" => {
            let mut benchmark = None;
            let mut layer = None;
            each_flag(&args[1..], "trace", |flag, rest| {
                match flag {
                    "--benchmark" => benchmark = Some(parse_benchmark(&rest.value(flag)?)?),
                    "--layer" => layer = Some(rest.value(flag)?),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Trace {
                benchmark: benchmark.ok_or("trace requires --benchmark")?,
                layer: layer.ok_or("trace requires --layer")?,
            })
        }
        "simulate" => {
            let mut workload = WorkloadFlags::new();
            let mut csv = false;
            let mut keep_going = false;
            let mut max_failures: Option<u64> = None;
            let mut shared = SharedFlags::new(true);
            each_flag(&args[1..], "simulate", |flag, rest| {
                match flag {
                    "--csv" => csv = true,
                    "--keep-going" => keep_going = true,
                    "--max-failures" => max_failures = Some(rest.parsed(flag)?),
                    _ => return Ok(workload.flag(flag, rest)? || shared.flag(flag, rest)?),
                }
                Ok(true)
            })?;
            let spec = workload.check("simulate")?;
            if max_failures.is_some() && !keep_going {
                return Err("--max-failures requires --keep-going".into());
            }
            let (run, obs) = shared.finish(csv)?;
            Ok(Command::Simulate {
                spec,
                csv,
                keep_going,
                max_failures,
                run,
                obs,
            })
        }
        "profile" => {
            let mut workload = WorkloadFlags::new();
            let mut json_out = None;
            let mut heatmap_out = None;
            let mut trace_out = None;
            let mut bench_json = None;
            let mut top_tiles = 5usize;
            let mut shared = SharedFlags::new(false);
            each_flag(&args[1..], "profile", |flag, rest| {
                match flag {
                    "--json" => json_out = Some(rest.value(flag)?),
                    "--heatmap" => heatmap_out = Some(rest.value(flag)?),
                    "--trace-out" => trace_out = Some(rest.value(flag)?),
                    "--bench-json" => bench_json = Some(rest.value(flag)?),
                    "--top-tiles" => top_tiles = rest.parsed(flag)?,
                    _ => return Ok(workload.flag(flag, rest)? || shared.flag(flag, rest)?),
                }
                Ok(true)
            })?;
            let spec = workload.check("profile")?;
            let stdout_exports = [
                &json_out,
                &heatmap_out,
                &trace_out,
                &bench_json,
                &shared.obs.events_out,
            ]
            .iter()
            .filter(|o| o.as_deref() == Some("-"))
            .count();
            if stdout_exports > 1 {
                return Err("at most one profile export may write to stdout ('-')".into());
            }
            let (run, obs) = shared.finish(false)?;
            Ok(Command::Profile {
                spec,
                json_out,
                heatmap_out,
                trace_out,
                bench_json,
                top_tiles,
                run,
                obs,
            })
        }
        "bench" => match args.get(1).map(String::as_str) {
            Some("list") => {
                let mut ledger_dir = None;
                each_flag(&args[2..], "bench list", |flag, rest| {
                    if flag != "--ledger-dir" {
                        return Ok(false);
                    }
                    ledger_dir = Some(rest.value(flag)?);
                    Ok(true)
                })?;
                Ok(Command::BenchList { ledger_dir })
            }
            Some("diff") => {
                let mut paths = Vec::new();
                let mut max_regress = 2.0f64;
                each_flag(&args[2..], "bench diff", |flag, rest| {
                    match flag {
                        "--max-regress" => {
                            max_regress = rest.parsed(flag)?;
                            if !max_regress.is_finite() || max_regress < 0.0 {
                                return Err("--max-regress must be a non-negative percent".into());
                            }
                        }
                        flag if flag.starts_with("--") => return Ok(false),
                        path => paths.push(path.to_string()),
                    }
                    Ok(true)
                })?;
                let [baseline, candidate] = <[String; 2]>::try_from(paths).map_err(|_| {
                    "bench diff requires exactly two snapshots: \
                     `eureka bench diff <baseline> <candidate>`"
                        .to_string()
                })?;
                Ok(Command::BenchDiff {
                    baseline,
                    candidate,
                    max_regress,
                })
            }
            _ => Err("bench requires a subcommand: `list` or `diff <a> <b>`".into()),
        },
        "check" => {
            if args.get(1).map(String::as_str) != Some("events") {
                return Err("check requires a subcommand: `events <stream.jsonl>...`".into());
            }
            let mut files = Vec::new();
            each_flag(&args[2..], "check events", |arg, _| {
                if arg.starts_with('-') {
                    return Ok(false);
                }
                files.push(arg.to_string());
                Ok(true)
            })?;
            if files.is_empty() {
                return Err("check events requires at least one stream file".into());
            }
            Ok(Command::CheckEvents { files })
        }
        "verify" => {
            let mut opts = VerifyOptions {
                cases: 200,
                ..VerifyOptions::default()
            };
            let mut replay = None;
            let mut fault_matrix = false;
            let mut chaos = false;
            each_flag(&args[1..], "verify", |flag, rest| {
                match flag {
                    "--cases" => opts.cases = rest.parsed(flag)?,
                    "--seed" => opts.seed = rest.parsed(flag)?,
                    "--arch" => opts.arch = Some(rest.value(flag)?),
                    "--corpus-dir" => opts.corpus_dir = Some(rest.value(flag)?.into()),
                    "--replay" => replay = Some(rest.value(flag)?),
                    "--fault-matrix" => fault_matrix = true,
                    "--chaos" => chaos = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if opts.cases == 0 && replay.is_none() && !fault_matrix {
                return Err("--cases must be positive".into());
            }
            if let Some(name) = &opts.arch {
                if arch::by_name(name).is_none() {
                    return Err(format!("unknown architecture '{name}'; run `eureka archs`"));
                }
            }
            // `--chaos` wins over `--fault-matrix`, which wins over
            // `--replay`.
            let mode = match (chaos, fault_matrix, replay) {
                (true, _, _) => VerifyMode::Chaos,
                (false, true, _) => VerifyMode::FaultMatrix,
                (false, false, Some(dir)) => VerifyMode::Replay(dir),
                (false, false, None) => VerifyMode::Fuzz,
            };
            Ok(Command::Verify { opts, mode })
        }
        "serve" => {
            let mut opts = serve::ServeOpts {
                socket: SOCKET.into(),
                journal_dir: "eureka-journal".into(),
                store_dir: None,
                capacity: 8,
                deadline_ms: 0,
                jobs: 1,
                fast: false,
                metrics_out: None,
                sla_budget_us: None,
                flightrec_dir: "results".into(),
                ledger_dir: None,
                no_ledger: false,
            };
            each_flag(&args[1..], "serve", |flag, rest| {
                match flag {
                    "--socket" => opts.socket = rest.value(flag)?,
                    "--journal-dir" => opts.journal_dir = rest.value(flag)?,
                    "--store-dir" => opts.store_dir = Some(rest.value(flag)?),
                    "--capacity" => match rest.parsed(flag)? {
                        0 => return Err("--capacity must be positive".into()),
                        capacity => opts.capacity = capacity,
                    },
                    "--deadline-ms" => opts.deadline_ms = rest.parsed(flag)?,
                    "--jobs" => opts.jobs = rest.jobs()?,
                    "--fast" => opts.fast = true,
                    "--metrics-out" => opts.metrics_out = Some(rest.value(flag)?),
                    "--sla-budget-us" => match rest.parsed(flag)? {
                        0 => return Err("--sla-budget-us must be positive".into()),
                        budget => opts.sla_budget_us = Some(budget),
                    },
                    "--flightrec-dir" => opts.flightrec_dir = rest.value(flag)?,
                    "--ledger-dir" => opts.ledger_dir = Some(rest.value(flag)?),
                    "--no-ledger" => opts.no_ledger = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Serve(opts))
        }
        "submit" => {
            let mut socket = SOCKET.to_string();
            let mut workload = WorkloadFlags::new();
            let mut deadline_ms = 0u64;
            let mut retries = 0u32;
            let mut wait = false;
            each_flag(&args[1..], "submit", |flag, rest| {
                match flag {
                    "--socket" => socket = rest.value(flag)?,
                    "--deadline-ms" => deadline_ms = rest.parsed(flag)?,
                    "--retries" => retries = rest.parsed(flag)?,
                    "--wait" => wait = true,
                    _ => return workload.flag(flag, rest),
                }
                Ok(true)
            })?;
            let spec = JobSpec {
                deadline_ms,
                retries,
                ..workload.spec("submit")?
            };
            Ok(Command::Submit { socket, spec, wait })
        }
        "drain" => {
            let mut socket = SOCKET.to_string();
            let mut shutdown = false;
            each_flag(&args[1..], "drain", |flag, rest| {
                match flag {
                    "--socket" => socket = rest.value(flag)?,
                    "--shutdown" => shutdown = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Drain { socket, shutdown })
        }
        "stats" => {
            let mut socket = SOCKET.to_string();
            let mut json = false;
            each_flag(&args[1..], "stats", |flag, rest| {
                match flag {
                    "--socket" => socket = rest.value(flag)?,
                    "--json" => json = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Stats { socket, json })
        }
        other => Err(format!("unknown command '{other}'; try `eureka help`")),
    }
}

/// Where to append the run ledger: an explicit `--ledger-dir` always
/// wins, `--no-ledger` always disables, and the `results/ledger`
/// default applies only when that directory already exists — so library
/// tests and checkouts without the results tree never grow one as a
/// side effect.
fn resolve_ledger_dir(ledger_dir: Option<&str>, no_ledger: bool) -> Option<std::path::PathBuf> {
    if no_ledger {
        return None;
    }
    match ledger_dir {
        Some(dir) => Some(std::path::PathBuf::from(dir)),
        None => {
            let default = std::path::Path::new("results/ledger");
            default.is_dir().then(|| default.to_path_buf())
        }
    }
}

/// What a `figure`, `simulate` or `profile` run hands back: its output
/// and what its run-ledger record says about it.
struct Outcome {
    out: String,
    label: String,
    archs: Vec<String>,
}

/// The run path `figure`, `simulate` and `profile` share: the command's
/// one runner, whose metrics registry every export reads, its event
/// sink and (for `--trace-out`) its span collector; `body`; the trace
/// export, which also runs when `body` fails, then the metrics export
/// and the run's ledger record of `kind`, appended to the ledger and
/// written to `snapshot` (a `--bench-json` path, `-` for stdout) as kind
/// `bench`; and no human output while the events claim stdout.
fn run_simulation(
    kind: &str,
    run: &RunOpts,
    obs: &ObsOpts,
    snapshot: Option<&str>,
    body: impl FnOnce(&Runner, SimConfig) -> Result<Outcome, String>,
) -> Result<String, String> {
    let verbosity = obs.verbosity();
    let mut runner = run.runner();
    if obs.trace_out.is_some() {
        runner = runner.with_spans(Spans::recording());
    }
    let metrics = runner.metrics().clone();
    let events = obs.events(&metrics)?;
    let runner = runner.with_events(events.clone());
    let started = std::time::Instant::now();
    let done = body(&runner, run.sim_config());
    if let Some(path) = &obs.trace_out {
        let (spans, tracks) = runner.spans().take();
        let json = eureka_obs::chrome::spans_to_json(&spans, &tracks);
        match std::fs::write(path, &json) {
            Ok(()) => eureka_obs::info!(verbosity, "trace: {} bytes to {path}", json.len()),
            Err(e) if done.is_ok() => return Err(format!("cannot write trace to {path}: {e}")),
            // A failed body's error outranks the trace's.
            Err(_) => {}
        }
    }
    let done = done?;
    if let Some(path) = &obs.metrics_out {
        let json = metrics.snapshot_json(true);
        std::fs::write(path, &json).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eureka_obs::info!(verbosity, "metrics: {} bytes to {path}", json.len());
    }
    eureka_obs::info!(verbosity, "{}", metrics.human_summary());
    // The record counts the command's events and digests the
    // deterministic metrics, so it is made after the run finished.
    let ledger_dir = resolve_ledger_dir(obs.ledger_dir.as_deref(), obs.no_ledger);
    let mut out = done.out;
    if ledger_dir.is_some() || snapshot.is_some() {
        let record = eureka_sim::LedgerRecord {
            // A BENCH snapshot is the record of kind `bench`.
            kind: if snapshot.is_some() { "bench" } else { kind }.to_string(),
            label: done.label,
            archs: done.archs,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            events: events.count(),
            metrics_digest: eureka_sim::ledger::metrics_digest(&metrics.snapshot_json(false)),
            sla: None,
        }
        .to_json();
        match snapshot {
            Some("-") => out.clone_from(&record),
            Some(path) => {
                std::fs::write(path, format!("{record}\n"))
                    .map_err(|e| format!("cannot write BENCH snapshot to {path}: {e}"))?;
                eureka_obs::info!(
                    verbosity,
                    "BENCH snapshot: {} bytes to {path}",
                    record.len() + 1
                );
            }
            None => {}
        }
        if let Some(dir) = ledger_dir {
            let path = eureka_sim::ledger::append(&dir, &record)?;
            eureka_obs::info!(verbosity, "ledger: appended to {}", path.display());
        }
    }
    Ok(if obs.events_to_stdout() {
        String::new()
    } else {
        out
    })
}

/// Logs `report`'s per-layer cycle breakdown at debug level (`-vv`):
/// one line per layer, on stderr, so machine-readable stdout stays
/// clean.
fn log_layers(report: &eureka_sim::SimReport, verbosity: Verbosity) {
    eureka_obs::debug!(
        verbosity,
        "{} on {}: {} layer(s)",
        report.arch,
        report.workload,
        report.layers.len()
    );
    for l in &report.layers {
        eureka_obs::debug!(
            verbosity,
            "  {:<24} compute {:>12} mem {:>10} macs {:>14} bytes {:>12}",
            l.name,
            l.compute_cycles,
            l.mem_cycles,
            l.mac_ops,
            l.total_bytes()
        );
    }
}

/// Canonical ledger label for a simulate/profile-shaped run.
fn run_label(spec: &JobSpec, run: &RunOpts) -> String {
    format!(
        "{}|{}|batch{}|{}|arch={}",
        spec.benchmark.name(),
        spec.pruning.label(),
        spec.batch,
        run.sampling(),
        spec.arch,
    )
}

/// A failed run: the message plus the process exit code. `bench diff`
/// distinguishes a missing/unreadable snapshot (code 2: an environment
/// or usage problem CI should treat as broken wiring) from a genuine
/// perf regression (code 1: the gate fired); everything else exits 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError {
    /// Human-readable description, printed to stderr.
    pub message: String,
    /// Process exit code (1 = failure/regression, 2 = unusable input).
    pub code: u8,
}

impl From<String> for RunError {
    fn from(message: String) -> Self {
        RunError { message, code: 1 }
    }
}

/// Compares two records under the regression gate. Load/parse problems
/// (missing file, malformed JSON, unknown schema, no such `#N` record)
/// exit 2; a regression past the threshold exits 1.
fn run_bench_diff(baseline: &str, candidate: &str, max_regress: f64) -> Result<String, RunError> {
    let load = |arg: &str| {
        eureka_sim::ledger::load_snapshot(arg).map_err(|e| RunError {
            message: format!("bench diff: unusable snapshot: {e}"),
            code: 2,
        })
    };
    let report = eureka_sim::ledger::diff(&load(baseline)?, &load(candidate)?, max_regress);
    let rendered = format!(
        "baseline : {baseline}\ncandidate: {candidate}\nthreshold: {max_regress}%\n{}",
        report.render()
    );
    // The regression gate: a failing diff is a failing command.
    if report.ok() {
        Ok(rendered)
    } else {
        Err(rendered.into())
    }
}

/// Validates each event stream in `files` and, given two or more,
/// requires their deterministic projections to equal the first's,
/// naming the first projected line that differs.
fn run_check_events(files: &[String]) -> Result<String, String> {
    let mut projections = Vec::with_capacity(files.len());
    for path in files {
        let stream =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let projection = eureka_obs::events::deterministic_projection(&stream)
            .map_err(|e| format!("{path}:{}: {}", e.line, e.reason))?;
        projections.push(projection);
    }
    let (base_path, base) = (&files[0], &projections[0]);
    for (path, other) in files.iter().zip(&projections).skip(1) {
        if other == base {
            continue;
        }
        let mut pairs = base.lines().zip(other.lines()).enumerate();
        return Err(match pairs.find(|(_, (a, b))| a != b) {
            Some((i, (a, b))) => format!(
                "deterministic projections differ at projected line {}:\n  {base_path}: {a}\n  {path}: {b}",
                i + 1
            ),
            None => format!(
                "deterministic projections differ in length: {base_path} has {} line(s), {path} has {}",
                base.lines().count(),
                other.lines().count()
            ),
        });
    }
    let mut out = format!("OK: {} stream(s) schema-valid", files.len());
    if files.len() > 1 {
        out.push_str(&format!(
            ", projections identical ({} events)",
            base.lines().count()
        ));
    }
    Ok(out)
}

/// Surfaces degradation counters of a run's `metrics` in the
/// human-readable end-of-run report: unit failures by kind, store shard
/// errors, checkpoint decode errors, retry-backoff sleep time. Healthy
/// runs (all zero) add nothing.
fn health_warning_lines(metrics: &Registry) -> String {
    let c = |name: &str| metrics.counter_value(name).unwrap_or(0);
    let mut out = String::new();
    let (panics, sims, cancelled) = (
        c("runner.failures.panic"),
        c("runner.failures.sim_error"),
        c("runner.failures.cancelled"),
    );
    if panics + sims + cancelled > 0 {
        out.push_str(&format!(
            "  unit failures  : {panics} panic, {sims} sim-error, {cancelled} cancelled\n"
        ));
    }
    let store_errors = c("store.errors");
    if store_errors > 0 {
        out.push_str(&format!(
            "  store errors   : {store_errors} (unreadable/unwritable shards; tiles recomputed)\n"
        ));
    }
    let ckpt_errors = c("checkpoint.errors");
    if ckpt_errors > 0 {
        out.push_str(&format!(
            "  ckpt errors    : {ckpt_errors} (corrupt entries skipped; units recomputed)\n"
        ));
    }
    let backoff_slept = c("runner.backoff.slept_us");
    if backoff_slept > 0 {
        out.push_str(&format!(
            "  backoff        : {backoff_slept} us slept across unit retries\n"
        ));
    }
    out
}

/// Executes a parsed command, returning the text to print; errors carry
/// the exit code the process should use.
///
/// # Errors
///
/// See [`RunError`]: unsupported combinations (e.g. S2TA on InceptionV3)
/// exit 1, as does a `bench diff` regression; an unusable `bench diff`
/// snapshot exits 2.
pub fn run(cmd: &Command) -> Result<String, RunError> {
    Ok(match cmd {
        Command::Help => USAGE.to_string(),
        Command::Archs => {
            let mut out = String::from("architectures:\n");
            for name in arch::registry_names() {
                let a = arch::by_name(name)
                    .expect("invariant: every registry name resolves to its architecture");
                out.push_str(&format!("  {name:<18} {}\n", a.name()));
            }
            out
        }
        Command::Figure {
            name,
            csv,
            run,
            obs,
        } => run_simulation("figure", run, obs, None, |runner, cfg| {
            let fig = eureka_bench::figure(name, runner, &cfg)
                .ok_or_else(|| format!("unknown figure '{name}'"))?;
            Ok(Outcome {
                out: if *csv { fig.to_csv() } else { fig.render() },
                label: format!("{name}|{}", run.sampling()),
                archs: Vec::new(),
            })
        })?,
        Command::Compile {
            benchmark,
            layer,
            factor,
        } => {
            use eureka_core::CompiledLayer;
            use eureka_sparse::{gen, rng::DetRng};
            let w = Workload::new(*benchmark, PruningLevel::Moderate, 1);
            let Some((idx, gemm)) = w
                .gemms()
                .into_iter()
                .enumerate()
                .find(|(_, g)| g.name == *layer)
            else {
                return Err(format!("{} has no layer named '{layer}'", benchmark.name()).into());
            };
            let mut rng = DetRng::new(w.seed() ^ idx as u64);
            // Bound the materialized matrix so big layers stay instant.
            let (n, k) = (gemm.shape.n.min(512), gemm.shape.k.min(4096));
            let pattern = if gemm.clustered {
                gen::clustered_pattern(n, k, gemm.weight_density, 16, 32, 0.2, &mut rng)
            } else {
                gen::uniform_pattern(n, k, gemm.weight_density, &mut rng)
            };
            let weights = gen::values_for_pattern(&pattern, &mut rng);
            let compiled =
                CompiledLayer::compile(&weights, 4, *factor).map_err(|e| e.to_string())?;
            let s = compiled.stats();
            let mut out = format!(
                "{} {layer} at {:.0}% density, compaction P={factor} \
                 (materialized {n}x{k}):\n",
                benchmark.name(),
                100.0 * gemm.weight_density
            );
            out.push_str(&format!(
                "  tiles            : {}\n",
                compiled.tiles().len()
            ));
            out.push_str(&format!("  non-zeros        : {}\n", s.nnz));
            out.push_str(&format!("  dense FP16 size  : {} bytes\n", s.dense_bytes));
            out.push_str(&format!("  encoded size     : {} bytes\n", s.encoded_bytes));
            out.push_str(&format!(
                "  ideal bit-packed : {} bytes ({:.1}x smaller than dense)\n",
                s.ideal_bits / 8,
                s.ideal_compression()
            ));
            out.push_str(&format!("  total tile cycles: {}\n", s.total_cycles));
            out
        }
        Command::Trace { benchmark, layer } => {
            use eureka_core::schedule::{schedule_grouped_steps, trace, SystolicConfig};
            use eureka_core::suds;
            use eureka_sim::arch::tile_samples_for_layer;
            let cfg = SimConfig::paper_default();
            let w = Workload::new(*benchmark, PruningLevel::Moderate, 32);
            let Some(gemm) = w.gemms().into_iter().find(|g| g.name == *layer) else {
                return Err(format!("{} has no layer named '{layer}'", benchmark.name()).into());
            };
            let times: Vec<u64> = tile_samples_for_layer(&gemm, &cfg, 0)
                .iter()
                .map(|t| suds::optimal_cycles(t) as u64)
                .collect();
            let sys = SystolicConfig::paper_default();
            let steps = schedule_grouped_steps(&times, &sys);
            trace::to_chrome_json(&steps, &sys)
        }
        Command::Simulate {
            spec,
            csv,
            keep_going,
            max_failures,
            run,
            obs,
        } => run_simulation("simulate", run, obs, None, |runner, cfg| {
            use eureka_sim::{render_failure_report, JobOutcome};
            let workload = Workload::new(spec.benchmark, spec.pruning, spec.batch);
            let a = arch::by_name(&spec.arch).ok_or_else(|| {
                format!("unknown architecture '{}'; run `eureka archs`", spec.arch)
            })?;
            let job = SimJob::new(a.as_ref(), &workload, cfg);
            let (report, failures) = match runner.run_outcome(&job) {
                JobOutcome::Complete(report) => (report, Vec::new()),
                JobOutcome::Degraded {
                    report,
                    failed_layers,
                } => {
                    if !*keep_going {
                        return Err(format!(
                            "{}(re-run with --keep-going to accept a partial report)\n",
                            render_failure_report(&failed_layers)
                        ));
                    }
                    let budget = max_failures.unwrap_or(u64::MAX);
                    if failed_layers.len() as u64 > budget {
                        return Err(format!(
                            "{}failure budget exceeded: {} failure(s) > --max-failures {budget}\n",
                            render_failure_report(&failed_layers),
                            failed_layers.len()
                        ));
                    }
                    (report, failed_layers)
                }
                JobOutcome::Failed { failures } => {
                    // A single uniform refusal (e.g. S2TA on InceptionV3)
                    // reads better as the plain SimError than as a
                    // per-layer failure report.
                    return Err(if failures.len() == 1 {
                        failures[0].to_sim_error().to_string()
                    } else {
                        render_failure_report(&failures)
                    });
                }
            };
            log_layers(&report, obs.verbosity());
            let mut done = Outcome {
                out: String::new(),
                label: run_label(spec, run),
                archs: vec![arch_row(&spec.arch, &report, None)],
            };
            if *csv {
                // Keep stdout machine-readable: survivors go to the CSV,
                // the failure report goes to stderr.
                if !failures.is_empty() {
                    eureka_obs::error!("{}", render_failure_report(&failures));
                }
                done.out = report.to_csv();
                return Ok(done);
            }
            let out = &mut done.out;
            out.push_str(&format!("{} on {}\n", report.arch, report.workload));
            out.push_str(&format!(
                "  total cycles   : {} ({:.3} ms at 1 GHz)\n",
                report.total_cycles(),
                report.runtime_ms(1.0)
            ));
            if failures.is_empty() {
                let dense = runner
                    .run(&SimJob::new(&arch::dense(), &workload, cfg))
                    .map_err(|e| e.to_string())?;
                let speedup = engine::speedup(&dense, &report);
                done.archs = vec![arch_row(&spec.arch, &report, Some(dense.total_cycles()))];
                out.push_str(&format!("  speedup vs Dense: {speedup:.2}x\n"));
            }
            out.push_str(&format!(
                "  throughput     : {:.0} inputs/s\n",
                report.throughput_per_s(spec.batch, 1.0)
            ));
            out.push_str(&format!(
                "  memory share   : {:.1}%\n",
                100.0 * report.mem_share()
            ));
            out.push_str(&format!(
                "  MAC utilization: {:.1}%\n",
                100.0 * report.mac_utilization()
            ));
            out.push_str(&health_warning_lines(runner.metrics()));
            if !failures.is_empty() {
                out.push_str(&format!(
                    "degraded run: {} of {} layer(s) missing\n{}",
                    failures.len(),
                    failures.len() + report.layers.len(),
                    render_failure_report(&failures)
                ));
            }
            Ok(done)
        })?,
        Command::Profile {
            spec,
            json_out,
            heatmap_out,
            trace_out,
            bench_json,
            top_tiles,
            run,
            obs,
        } => run_simulation("profile", run, obs, bench_json.as_deref(), |runner, cfg| {
            let workload = Workload::new(spec.benchmark, spec.pruning, spec.batch);
            let a = arch::by_name(&spec.arch).ok_or_else(|| {
                format!("unknown architecture '{}'; run `eureka archs`", spec.arch)
            })?;
            let pcfg = eureka_sim::ProfileConfig {
                top_tiles: *top_tiles,
            };
            let (report, profile) = runner
                .run_profiled(&SimJob::new(a.as_ref(), &workload, cfg), &pcfg)
                .map_err(|e| e.to_string())?;
            debug_assert_eq!(profile.total_attributed_cycles(), report.total_cycles());
            let mut stdout_payload: Option<String> = None;
            let mut emit = |path: &str, payload: String, what: &str| -> Result<(), String> {
                if path == "-" {
                    stdout_payload = Some(payload);
                    Ok(())
                } else {
                    std::fs::write(path, &payload)
                        .map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
                    eureka_obs::info!(obs.verbosity(), "{what}: {} bytes to {path}", payload.len());
                    Ok(())
                }
            };
            if let Some(path) = json_out {
                emit(path, profile.to_json(), "profile JSON")?;
            }
            if let Some(path) = heatmap_out {
                emit(path, profile.heatmap_csv(), "heatmap CSV")?;
            }
            if let Some(path) = trace_out {
                emit(path, profile.to_chrome_json(), "occupancy trace")?;
            }
            let archs = if bench_json.is_some() {
                // The standard snapshot matrix, plus the requested arch.
                // The requested arch's row is the profiled report (the
                // same bytes as a plain run); the others run as one batch.
                let mut names = vec!["dense", "ampere", "cnvlutin", "eureka-p2", "eureka-p4"];
                if !names.contains(&spec.arch.as_str()) {
                    names.push(&spec.arch);
                }
                let others: Vec<_> = names
                    .iter()
                    .filter(|name| **name != spec.arch)
                    .map(|name| {
                        arch::by_name(name)
                            .expect("invariant: the snapshot matrix only names registry entries")
                    })
                    .collect();
                let jobs: Vec<_> = others
                    .iter()
                    .map(|a| SimJob::new(a.as_ref(), &workload, cfg))
                    .collect();
                let plain = runner
                    .run_all(&jobs)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let mut plain = plain.iter();
                let reports: Vec<&eureka_sim::SimReport> = names
                    .iter()
                    .map(|name| {
                        if *name == spec.arch {
                            &report
                        } else {
                            plain.next().expect("invariant: one report per job")
                        }
                    })
                    .collect();
                // The matrix opens with dense, which anchors the speedups.
                let dense_cycles = reports[0].total_cycles();
                names
                    .iter()
                    .zip(reports)
                    .map(|(name, r)| arch_row(name, r, Some(dense_cycles)))
                    .collect()
            } else {
                vec![arch_row(&spec.arch, &report, None)]
            };
            Ok(Outcome {
                // At most one export claims stdout (parse checks it),
                // which suppresses the human report.
                out: stdout_payload.unwrap_or_else(|| profile.bottleneck_report(5)),
                label: run_label(spec, run),
                archs,
            })
        })?,
        Command::BenchList { ledger_dir } => {
            use eureka_obs::json::Value;
            let dir = std::path::Path::new(ledger_dir.as_deref().unwrap_or("results/ledger"));
            let log = dir.join(eureka_sim::ledger::LOG_FILE);
            let records = eureka_sim::ledger::read_log(&log)?;
            if records.is_empty() {
                return Ok(format!("no ledger records in {}\n", log.display()));
            }
            let mut out = format!(
                "{:>4} {:<17} {:<9} {:<44} {:<14} {:>12} {:>8} {:>10} {:>7}\n",
                "#", "key", "kind", "label", "git", "cycles", "speedup", "wall_ms", "events"
            );
            for (n, v) in records.iter().enumerate() {
                let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
                let opt_num = |v: Option<&Value>, k: &str, fmt: fn(f64) -> String| {
                    v.and_then(|v| v.get(k))
                        .and_then(Value::as_f64)
                        .map_or_else(|| "-".to_string(), fmt)
                };
                // A one-arch record shows its row; a matrix, its size.
                let rows = v.get("archs").and_then(Value::as_arr).unwrap_or(&[]);
                let row = if let [row] = rows { Some(row) } else { None };
                let cycles = if rows.len() > 1 {
                    format!("{} archs", rows.len())
                } else {
                    opt_num(row, "total_cycles", |c| format!("{c:.0}"))
                };
                out.push_str(&format!(
                    "{:>4} {:<17} {:<9} {:<44} {:<14} {:>12} {:>8} {:>10} {:>7}\n",
                    n + 1,
                    s("key"),
                    s("kind"),
                    s("label"),
                    s("git"),
                    cycles,
                    opt_num(row, "speedup_vs_dense", |sp| format!("{sp:.2}x")),
                    opt_num(Some(v), "wall_ms", |w| format!("{w:.1}")),
                    opt_num(Some(v), "events", |e| format!("{e:.0}")),
                ));
            }
            out.push_str(&format!("{} record(s)\n", records.len()));
            out
        }
        Command::BenchDiff {
            baseline,
            candidate,
            max_regress,
        } => return run_bench_diff(baseline, candidate, *max_regress),
        Command::CheckEvents { files } => run_check_events(files)?,
        Command::Verify { opts, mode } => match mode {
            VerifyMode::Fuzz => eureka_verify::run(opts)?,
            VerifyMode::Replay(dir) => eureka_verify::replay_corpus(std::path::Path::new(dir))?,
            VerifyMode::FaultMatrix => eureka_verify::run_fault_matrix(opts.seed)?,
            VerifyMode::Chaos => eureka_verify::run_chaos(opts.cases, opts.seed)?,
        },
        Command::Serve(opts) => serve::run_serve(opts)?,
        Command::Submit { socket, spec, wait } => serve::run_submit(socket, spec, *wait)?,
        Command::Drain { socket, shutdown } => serve::run_drain(socket, *shutdown)?,
        Command::Stats { socket, json } => serve::run_stats(socket, *json)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse(Vec::<String>::new()).unwrap(), Command::Help);
        assert_eq!(parse(["help"]).unwrap(), Command::Help);
        assert_eq!(parse(["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_figure() {
        let cmd = parse(["figure", "fig11", "--csv"]).unwrap();
        assert_eq!(
            cmd,
            Command::Figure {
                name: "fig11".into(),
                csv: true,
                run: RunOpts::default(),
                obs: ObsOpts::default(),
            }
        );
        assert!(parse(["figure", "fig99"]).is_err());
        assert!(parse(["figure"]).is_err());
        assert!(parse(["figure", "fig11", "--bogus"]).is_err());
    }

    #[test]
    fn parse_jobs_flag() {
        let cmd = parse(["figure", "fig11", "--jobs", "4"]).unwrap();
        assert_eq!(
            cmd,
            Command::Figure {
                name: "fig11".into(),
                csv: false,
                run: RunOpts {
                    jobs: Some(4),
                    ..RunOpts::default()
                },
                obs: ObsOpts::default(),
            }
        );
        let cmd = parse(["simulate", "--benchmark", "bert", "--jobs", "2"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate {
                run: RunOpts { jobs: Some(2), .. },
                ..
            }
        ));
        assert!(parse(["figure", "fig11", "--jobs"]).is_err());
        assert!(parse(["figure", "fig11", "--jobs", "0"]).is_err());
        assert!(parse(["simulate", "--benchmark", "bert", "--jobs", "x"]).is_err());
    }

    #[test]
    fn run_opts_build_the_commands_runner() {
        let runner = |args: &[&str]| match parse(args.iter().copied()).unwrap() {
            Command::Figure { run, .. }
            | Command::Simulate { run, .. }
            | Command::Profile { run, .. } => run.runner(),
            other => panic!("unexpected {other:?}"),
        };
        let all_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(runner(&["figure", "fig11"]).effective_jobs(), all_cores);
        let pinned = runner(&["profile", "--benchmark", "bert", "--jobs", "3"]);
        assert_eq!(pinned.effective_jobs(), 3);
        let fast = parse(["simulate", "--benchmark", "bert", "--fast"]).unwrap();
        assert!(
            matches!(fast, Command::Simulate { run, .. } if run.sim_config() == SimConfig::fast())
        );
    }

    #[test]
    fn parse_simulate_defaults_and_flags() {
        let cmd = parse(["simulate", "--benchmark", "bert"]).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                spec: JobSpec::new(
                    Benchmark::BertSquad,
                    PruningLevel::Moderate,
                    32,
                    "eureka-p4"
                ),
                csv: false,
                keep_going: false,
                max_failures: None,
                run: RunOpts::default(),
                obs: ObsOpts::default(),
            }
        );
        assert!(parse(["simulate"]).is_err());
        assert!(parse(["simulate", "--benchmark", "vgg"]).is_err());
        assert!(parse(["simulate", "--benchmark", "bert", "--arch", "nope"]).is_err());
        assert!(parse(["simulate", "--benchmark", "bert", "--batch", "0"]).is_err());
        assert!(parse(["simulate", "--benchmark", "bert", "--batch"]).is_err());
    }

    #[test]
    fn parse_and_run_compile() {
        let cmd = parse([
            "compile",
            "--benchmark",
            "resnet50",
            "--layer",
            "conv2_0/3x3",
        ])
        .unwrap();
        assert!(matches!(cmd, Command::Compile { factor: 4, .. }));
        let out = run(&cmd).unwrap();
        assert!(out.contains("ideal bit-packed"), "{out}");
        assert!(out.contains("smaller than dense"));
        // Unknown layer is a clean error.
        let bad = parse(["compile", "--benchmark", "resnet50", "--layer", "nope"]).unwrap();
        assert!(run(&bad).is_err());
        // Factor validation.
        assert!(parse([
            "compile",
            "--benchmark",
            "resnet50",
            "--layer",
            "conv1",
            "--factor",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn parse_and_run_trace() {
        let cmd = parse(["trace", "--benchmark", "resnet50", "--layer", "conv4_2/3x3"]).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.starts_with('['));
        assert!(out.contains("\"ph\":\"X\""));
        let bad = parse(["trace", "--benchmark", "resnet50", "--layer", "zzz"]).unwrap();
        assert!(run(&bad).is_err());
        assert!(parse(["trace", "--benchmark", "resnet50"]).is_err());
    }

    #[test]
    fn run_archs_lists_registry() {
        let out = run(&Command::Archs).unwrap();
        for name in arch::registry_names() {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn run_simulate_fast() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "resnet50",
            "--arch",
            "ampere",
            "--fast",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("speedup vs Dense"));
        assert!(out.contains("Ampere/STC"));
    }

    #[test]
    fn run_simulate_unsupported_combination() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "inception",
            "--arch",
            "s2ta",
            "--fast",
        ])
        .unwrap();
        let err = run(&cmd).unwrap_err().message;
        assert!(err.contains("S2TA"), "{err}");
    }

    #[test]
    fn parse_telemetry_flags() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "bert",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.json",
            "-v",
        ])
        .unwrap();
        match cmd {
            Command::Simulate { obs, .. } => {
                assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
                assert_eq!(obs.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(obs.verbose, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(["figure", "fig11", "-vv", "--metrics-out", "m.json"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Figure {
                obs: ObsOpts {
                    verbose: 2,
                    metrics_out: Some(_),
                    ..
                },
                ..
            }
        ));
        assert!(parse(["simulate", "--benchmark", "bert", "--trace-out"]).is_err());
        assert!(parse(["figure", "fig11", "--metrics-out"]).is_err());
    }

    #[test]
    fn run_simulate_writes_trace_and_metrics() {
        // Span recording is process-global; one test drives it.
        let dir = std::env::temp_dir().join(format!("eureka-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.json");
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        run(&cmd).unwrap();
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.starts_with('[') && t.trim_end().ends_with(']'));
        assert!(t.contains("\"name\":\"unit.exec\""), "unit spans present");
        assert!(t.contains("\"ph\":\"M\""), "thread_name metadata present");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"cache.hits\""), "{m}");
        assert!(m.contains("\"runner.units_planned\""), "{m}");
        assert!(m.contains("\"unit.exec_micros\""), "{m}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_simulate_csv() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "dense",
            "--fast",
            "--csv",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.starts_with("layer,compute_cycles"));
        assert_eq!(out.lines().count(), 28); // header + 27 layers
    }

    #[test]
    fn parse_profile_defaults_and_flags() {
        let cmd = parse(["profile", "--benchmark", "mobilenetv1"]).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                spec: JobSpec::new(
                    Benchmark::MobileNetV1,
                    PruningLevel::Moderate,
                    32,
                    "eureka-p4"
                ),
                json_out: None,
                heatmap_out: None,
                trace_out: None,
                bench_json: None,
                top_tiles: 5,
                run: RunOpts::default(),
                obs: ObsOpts::default(),
            }
        );
        let cmd = parse([
            "profile",
            "--benchmark",
            "resnet50",
            "--arch",
            "eureka-p2",
            "--fast",
            "--jobs",
            "2",
            "--top-tiles",
            "3",
            "--json",
            "p.json",
            "--heatmap",
            "-",
            "--bench-json",
            "b.json",
            "--trace-out",
            "t.json",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Profile {
                run: RunOpts {
                    fast: true,
                    jobs: Some(2),
                    ..
                },
                top_tiles: 3,
                ref trace_out,
                obs: ObsOpts { trace_out: None, .. },
                ..
            } if trace_out.as_deref() == Some("t.json")
        ));
        assert!(parse(["profile"]).is_err());
        assert!(parse(["profile", "--benchmark", "bert", "--arch", "nope"]).is_err());
        assert!(parse(["profile", "--benchmark", "bert", "--batch", "0"]).is_err());
        assert!(parse(["profile", "--benchmark", "bert", "--bogus"]).is_err());
        // At most one stdout export.
        assert!(parse([
            "profile",
            "--benchmark",
            "bert",
            "--json",
            "-",
            "--heatmap",
            "-"
        ])
        .is_err());
    }

    #[test]
    fn run_profile_human_report() {
        let cmd = parse([
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("where the cycles go"), "{out}");
        assert!(out.contains("MAC utilization"), "{out}");
        assert!(out.contains("heaviest layers"), "{out}");
        assert!(out.contains("worst tile"), "{out}");
    }

    #[test]
    fn run_profile_json_stdout_is_deterministic() {
        let args = [
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--json",
            "-",
        ];
        let a = run(&parse(args).unwrap()).unwrap();
        let b = run(&parse(args).unwrap()).unwrap();
        assert_eq!(a, b, "profile JSON must be byte-identical across runs");
        assert!(a.starts_with("{\"schema\":\"eureka-profile-v1\""));
        // And across worker counts.
        let mut serial: Vec<String> = args.iter().map(ToString::to_string).collect();
        serial.extend(["--jobs".to_string(), "1".to_string()]);
        let s = run(&parse(serial).unwrap()).unwrap();
        assert_eq!(a, s, "profile JSON must not depend on --jobs");
    }

    #[test]
    fn run_profile_writes_exports() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("p.json");
        let heatmap = dir.join("h.csv");
        let trace = dir.join("t.json");
        let bench = dir.join("b.json");
        let cmd = parse([
            "profile",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--fast",
            "--json",
            json.to_str().unwrap(),
            "--heatmap",
            heatmap.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            "--bench-json",
            bench.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("where the cycles go"), "{out}");
        let p = std::fs::read_to_string(&json).unwrap();
        assert!(p.starts_with("{\"schema\":\"eureka-profile-v1\""));
        let h = std::fs::read_to_string(&heatmap).unwrap();
        assert!(h.starts_with("layer,row,busy,bubble,drain,utilization"));
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("systolic row 0"), "{t}");
        let b = std::fs::read_to_string(&bench).unwrap();
        assert!(b.starts_with("{\"schema\":\"eureka-ledger-v2\""), "{b}");
        assert!(b.contains("\"kind\":\"bench\""), "{b}");
        assert!(b.contains("\"speedup_vs_dense\""), "{b}");
        for name in ["dense", "ampere", "cnvlutin", "eureka-p2", "eureka-p4"] {
            assert!(b.contains(&format!("\"name\":\"{name}\"")), "{b}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_verify_defaults_and_flags() {
        assert_eq!(
            parse(["verify"]).unwrap(),
            Command::Verify {
                opts: VerifyOptions {
                    cases: 200,
                    seed: 42,
                    arch: None,
                    corpus_dir: None,
                },
                mode: VerifyMode::Fuzz,
            }
        );
        assert_eq!(
            parse([
                "verify",
                "--cases",
                "17",
                "--seed",
                "9",
                "--arch",
                "eureka-p2",
                "--corpus-dir",
                "corpus",
            ])
            .unwrap(),
            Command::Verify {
                opts: VerifyOptions {
                    cases: 17,
                    seed: 9,
                    arch: Some("eureka-p2".into()),
                    corpus_dir: Some("corpus".into()),
                },
                mode: VerifyMode::Fuzz,
            }
        );
        assert!(parse(["verify", "--cases", "0"]).is_err());
        assert!(parse(["verify", "--arch", "nope"]).is_err());
        assert!(parse(["verify", "--bogus"]).is_err());
        // Replaying needs no cases.
        assert_eq!(
            parse(["verify", "--cases", "0", "--replay", "tests/corpus"]).unwrap(),
            Command::Verify {
                opts: VerifyOptions {
                    cases: 0,
                    ..VerifyOptions::default()
                },
                mode: VerifyMode::Replay("tests/corpus".into()),
            }
        );
        // The suites rank chaos, then the fault matrix, then a replay.
        assert!(matches!(
            parse(["verify", "--replay", "c", "--fault-matrix", "--chaos"]).unwrap(),
            Command::Verify {
                mode: VerifyMode::Chaos,
                ..
            }
        ));
        assert!(matches!(
            parse(["verify", "--replay", "c", "--fault-matrix"]).unwrap(),
            Command::Verify {
                mode: VerifyMode::FaultMatrix,
                ..
            }
        ));
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "bert",
            "--keep-going",
            "--max-failures",
            "3",
            "--retries",
            "2",
        ])
        .unwrap();
        match cmd {
            Command::Simulate {
                keep_going,
                max_failures,
                run,
                ..
            } => {
                assert!(keep_going);
                assert_eq!(max_failures, Some(3));
                assert_eq!(run.retries, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Validation: each dependent flag needs its anchor.
        assert_eq!(
            parse_err(SIMULATE, &["--max-failures", "1"]),
            "--max-failures requires --keep-going"
        );
        assert!(parse(["simulate", "--benchmark", "bert", "--retries", "x"]).is_err());
        // Figures accept retries (no keep-going: figures aggregate, a
        // missing layer would corrupt the table).
        let cmd = parse(["figure", "fig11", "--retries", "1"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Figure {
                run: RunOpts { retries: 1, .. },
                ..
            }
        ));
        assert_eq!(
            parse_err(FIGURE, &["--keep-going"]),
            "unknown flag '--keep-going' for figure"
        );
        // Profiles take neither the fault-tolerance flags nor a metrics
        // export.
        for flag in [&["--retries", "1"][..], &["--metrics-out", "m.json"]] {
            assert_eq!(
                parse_err(PROFILE, flag),
                format!("unknown flag '{}' for profile", flag[0])
            );
        }
        // Verify gains --fault-matrix, which needs no case budget.
        assert!(matches!(
            parse(["verify", "--cases", "0", "--fault-matrix"]).unwrap(),
            Command::Verify {
                opts: VerifyOptions { cases: 0, .. },
                mode: VerifyMode::FaultMatrix,
            }
        ));
    }

    #[test]
    fn parse_store_dir_flag() {
        let cmd = parse(["simulate", "--benchmark", "bert", "--store-dir", "tiles"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate { ref run, .. }
                if run.store_dir.as_deref() == Some("tiles")
        ));
        let cmd = parse(["profile", "--benchmark", "bert"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Profile {
                run: RunOpts {
                    store_dir: None,
                    ..
                },
                ..
            }
        ));
        let cmd = parse(["figure", "fig11", "--store-dir", "t"]).unwrap();
        assert!(matches!(cmd, Command::Figure { ref run, .. }
                if run.store_dir.as_deref() == Some("t")));
    }

    #[test]
    fn run_simulate_store_dir_persists_tiles_and_warm_run_is_identical() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args: Vec<String> = [
            "simulate",
            "--benchmark",
            "inception",
            "--arch",
            "eureka-p2",
            "--batch",
            "7",
            "--fast",
            "--csv",
            "--store-dir",
            dir.to_str().unwrap(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        // Each command builds its own runner, so the warm run below
        // starts with an empty hot tier and can only be served from disk.
        let cold = run(&parse(args.clone()).unwrap()).unwrap();
        let files_with = |ext: &str| -> Vec<std::path::PathBuf> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == ext))
                .collect()
        };
        assert!(!files_with("tiles").is_empty(), "tile shards written");
        let units = files_with("units");
        assert!(!units.is_empty(), "unit records written beside them");
        // Without the unit records the warm run re-executes every unit
        // and can only be served by the tile shards.
        for unit in units {
            std::fs::remove_file(unit).unwrap();
        }
        let warm = run(&parse(args).unwrap()).unwrap();
        assert_eq!(cold, warm, "a store-warmed run must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_observability_flags() {
        let cmd = parse([
            "simulate",
            "--benchmark",
            "bert",
            "--events-out",
            "ev.jsonl",
            "--no-progress",
            "--ledger-dir",
            "ld",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate { ref obs, .. } if *obs == ObsOpts {
                events_out: Some("ev.jsonl".into()),
                progress: Some(false),
                ledger_dir: Some("ld".into()),
                ..ObsOpts::default()
            }
        ));
        let cmd = parse(["figure", "fig11", "--progress", "--no-ledger"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Figure {
                obs: ObsOpts {
                    progress: Some(true),
                    no_ledger: true,
                    ..
                },
                ..
            }
        ));
        // Conflicts.
        for cmd in [FIGURE, SIMULATE, PROFILE] {
            assert_eq!(
                parse_err(cmd, &["--ledger-dir", "d", "--no-ledger"]),
                "--no-ledger conflicts with --ledger-dir"
            );
        }
        for cmd in [FIGURE, SIMULATE] {
            assert_eq!(
                parse_err(cmd, &["--csv", "--events-out", "-"]),
                "--events-out - conflicts with --csv (both claim stdout)"
            );
        }
        assert_eq!(
            parse_err(PROFILE, &["--csv"]),
            "unknown flag '--csv' for profile"
        );
        // Events to stdout count toward profile's one-stdout-export rule.
        assert_eq!(
            parse_err(PROFILE, &["--json", "-", "--events-out", "-"]),
            "at most one profile export may write to stdout ('-')"
        );
        assert!(parse(["profile", "--benchmark", "bert", "--events-out", "-"]).is_ok());
    }

    /// The parse error of the command line `cmd` followed by `flags`.
    fn parse_err(cmd: &[&str], flags: &[&str]) -> String {
        parse(cmd.iter().chain(flags).copied()).unwrap_err()
    }

    const FIGURE: &[&str] = &["figure", "fig11"];
    const SIMULATE: &[&str] = &["simulate", "--benchmark", "bert"];
    const PROFILE: &[&str] = &["profile", "--benchmark", "bert"];

    #[test]
    fn help_is_the_pinned_usage_text() {
        // The argv surface is an interface: a deliberate change to USAGE
        // updates this pin, an accidental one fails here.
        let help = run(&parse(["help"]).unwrap()).unwrap();
        assert_eq!(help, USAGE);
        assert_eq!(
            (help.len(), eureka_obs::applog::fnv1a64(help.as_bytes())),
            (9935, 0xd995_e23a_e6c3_5164)
        );
    }

    /// Argv that satisfies each `USAGE` synopsis's required arguments and
    /// the anchors its dependent flags need (`--max-failures` needs
    /// `--keep-going`), keyed by the synopsis's command words.
    const SYNOPSIS_BASES: &[(&str, &[&str])] = &[
        ("help", &["help"]),
        ("archs", &["archs"]),
        ("figure", &["figure", "fig11"]),
        (
            "simulate",
            &["simulate", "--benchmark", "bert", "--keep-going"],
        ),
        ("profile", &["profile", "--benchmark", "bert"]),
        ("bench list", &["bench", "list"]),
        ("bench diff", &["bench", "diff", "a.json", "b.json"]),
        ("check events", &["check", "events", "a.jsonl"]),
        (
            "compile",
            &["compile", "--benchmark", "bert", "--layer", "enc0/q"],
        ),
        (
            "trace",
            &["trace", "--benchmark", "bert", "--layer", "enc0/q"],
        ),
        ("verify", &["verify"]),
        ("serve", &["serve"]),
        ("submit", &["submit", "--benchmark", "bert"]),
        ("drain", &["drain"]),
        ("stats", &["stats"]),
    ];

    /// The words of each synopsis under `USAGE:`, continuation lines
    /// included; brackets and every `|` outside a `<…>` split words.
    fn synopses() -> Vec<Vec<String>> {
        let body = USAGE.split_once("USAGE:\n").unwrap().1;
        let mut out: Vec<String> = Vec::new();
        for line in body.split_once("\n\n").unwrap().0.lines() {
            match line.strip_prefix("  eureka ") {
                Some(start) => out.push(start.to_string()),
                None => *out.last_mut().unwrap() += line,
            }
        }
        out.iter()
            .map(|synopsis| {
                let mut depth = 0;
                let spaced: String = synopsis
                    .chars()
                    .map(|c| match c {
                        '<' | '>' => {
                            depth += if c == '<' { 1 } else { -1 };
                            c
                        }
                        '[' | ']' => ' ',
                        '|' if depth == 0 => ' ',
                        c => c,
                    })
                    .collect();
                spaced.split_whitespace().map(String::from).collect()
            })
            .collect()
    }

    #[test]
    fn every_usage_flag_parses_for_its_command() {
        let synopses = synopses();
        assert_eq!(synopses.len(), SYNOPSIS_BASES.len(), "{synopses:?}");
        for words in &synopses {
            let (_, base) = SYNOPSIS_BASES
                .iter()
                .find(|(key, _)| key.split(' ').eq(words.iter().take(key.split(' ').count())))
                .unwrap_or_else(|| panic!("no argv base for `eureka {}`", words.join(" ")));
            for (i, flag) in words.iter().enumerate() {
                if !flag.starts_with('-') {
                    continue;
                }
                let mut argv: Vec<&str> = base.to_vec();
                argv.push(flag);
                if words.get(i + 1).is_some_and(|w| w.starts_with('<')) {
                    argv.push(match flag.as_str() {
                        "--benchmark" => "bert",
                        "--pruning" => "mod",
                        "--arch" => "eureka-p4",
                        _ => "1",
                    });
                }
                if let Err(e) = parse(argv.iter().copied()) {
                    panic!(
                        "USAGE lists `{}`, which fails to parse: {e}",
                        argv.join(" ")
                    );
                }
            }
        }
    }

    #[test]
    fn usage_names_exactly_the_figures() {
        let figure = synopses().into_iter().find(|w| w[0] == "figure").unwrap();
        let names = figure[1].trim_start_matches('<').trim_end_matches('>');
        assert!(names.split('|').eq(eureka_bench::FIGURES));
    }

    #[test]
    fn parse_bench_subcommands() {
        assert_eq!(
            parse(["bench", "list"]).unwrap(),
            Command::BenchList { ledger_dir: None }
        );
        assert_eq!(
            parse(["bench", "list", "--ledger-dir", "d"]).unwrap(),
            Command::BenchList {
                ledger_dir: Some("d".into())
            }
        );
        assert_eq!(
            parse(["bench", "diff", "a.json", "b.json"]).unwrap(),
            Command::BenchDiff {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                max_regress: 2.0,
            }
        );
        assert_eq!(
            parse(["bench", "diff", "a.json", "b.json", "--max-regress", "5"]).unwrap(),
            Command::BenchDiff {
                baseline: "a.json".into(),
                candidate: "b.json".into(),
                max_regress: 5.0,
            }
        );
        assert!(parse(["bench"]).is_err());
        assert!(parse(["bench", "frobnicate"]).is_err());
        assert!(parse(["bench", "diff", "a.json"]).is_err());
        assert!(parse(["bench", "diff", "a", "b", "c"]).is_err());
        assert!(parse(["bench", "diff", "a", "b", "--max-regress", "-1"]).is_err());
        assert!(parse(["bench", "list", "--bogus"]).is_err());
    }

    #[test]
    fn parse_check_events() {
        assert_eq!(
            parse(["check", "events", "a.jsonl", "b.jsonl"]).unwrap(),
            Command::CheckEvents {
                files: vec!["a.jsonl".into(), "b.jsonl".into()]
            }
        );
        assert!(parse(["check"]).is_err());
        assert!(parse(["check", "metrics", "m.json"]).is_err());
        assert!(parse(["check", "events"]).is_err());
        assert!(parse(["check", "events", "a.jsonl", "--project"])
            .is_err_and(|e| e.contains("unknown flag '--project'")));
    }

    #[test]
    fn run_check_events_verdicts() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // One stream line per (event, det fields), numbered densely.
        let write = |name: &str, events: &[(&str, &str)]| {
            let path = dir.join(name).to_str().unwrap().to_string();
            let lines: String = events
                .iter()
                .enumerate()
                .map(|(seq, (kind, det))| {
                    format!(
                        "{{\"schema\":\"eureka-events-v1\",\"event\":\"{kind}\",\
                         \"det\":{{{det}}},\"wall\":{{\"seq\":{seq},\"t_us\":{}}}}}\n",
                        7 * seq
                    )
                })
                .collect();
            std::fs::write(&path, lines).unwrap();
            path
        };
        let check = |files: &[&str]| {
            run(&Command::CheckEvents {
                files: files.iter().map(|f| f.to_string()).collect(),
            })
        };
        let a = write(
            "a.jsonl",
            &[
                ("run-started", ""),
                ("unit-started", "\"unit\":0"),
                ("unit-started", "\"unit\":1"),
            ],
        );
        // The same events in another emission order project identically.
        let b = write(
            "b.jsonl",
            &[
                ("run-started", ""),
                ("unit-started", "\"unit\":1"),
                ("unit-started", "\"unit\":0"),
            ],
        );
        assert_eq!(
            check(&[&a, &b]).unwrap(),
            "OK: 2 stream(s) schema-valid, projections identical (3 events)"
        );
        assert_eq!(check(&[&a]).unwrap(), "OK: 1 stream(s) schema-valid");

        let edited = write(
            "edited.jsonl",
            &[
                ("run-started", ""),
                ("unit-started", "\"unit\":0"),
                ("unit-started", "\"unit\":7"),
            ],
        );
        let e = check(&[&a, &edited]).unwrap_err().message;
        assert!(e.contains("differ at projected line 3"), "{e}");
        assert!(
            e.contains(&format!(
                "{edited}: {{\"event\":\"unit-started\",\"det\":{{\"unit\":7}}}}"
            )),
            "{e}"
        );

        let unknown = write(
            "unknown.jsonl",
            &[("run-started", ""), ("unit-bogus", "\"unit\":0")],
        );
        let e = check(&[&a, &unknown]).unwrap_err().message;
        assert!(
            e.starts_with(&format!("{unknown}:2: unknown event kind")),
            "{e}"
        );

        let missing = dir.join("missing.jsonl");
        let e = check(&[&a, missing.to_str().unwrap()]).unwrap_err().message;
        assert!(e.starts_with("cannot read"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A bench record whose one row has `cycles` total cycles.
    fn bench_record(cycles: u64) -> String {
        format!(
            "{{\"schema\":\"eureka-ledger-v2\",\"key\":\"00\",\"kind\":\"bench\",\
             \"label\":\"m\",\"archs\":[{{\"name\":\"eureka-p4\",\
             \"total_cycles\":{cycles},\"speedup_vs_dense\":3.5}}]}}"
        )
    }

    fn bench_diff(baseline: &str, candidate: &str) -> Result<String, RunError> {
        run(&Command::BenchDiff {
            baseline: baseline.into(),
            candidate: candidate.into(),
            max_regress: 2.0,
        })
    }

    #[test]
    fn run_bench_list_empty_and_diff_gate() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Empty ledger lists cleanly.
        let out = run(&Command::BenchList {
            ledger_dir: Some(dir.join("ledger").to_str().unwrap().into()),
        })
        .unwrap();
        assert!(out.contains("no ledger records"), "{out}");
        // Identical snapshots pass the gate; an injected regression fails
        // it with a run error (non-zero exit), not a usage error.
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&good, bench_record(250_000)).unwrap();
        std::fs::write(&bad, bench_record(300_000)).unwrap();
        let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());
        let ok = bench_diff(good, good).unwrap();
        assert!(ok.contains("OK: no regressions"), "{ok}");
        let err = bench_diff(good, bad).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(err.message.contains("REGRESSION"), "{}", err.message);
        assert!(err.message.contains("total_cycles"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_diff_addresses_ledger_records_by_number() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-addr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = dir.join("ledger");
        let record = |cycles| eureka_sim::LedgerRecord {
            kind: "simulate".into(),
            label: "m".into(),
            archs: vec![format!(
                "{{\"name\":\"eureka-p4\",\"total_cycles\":{cycles}}}"
            )],
            wall_ms: 1.0,
            events: 0,
            metrics_digest: "0".into(),
            sla: None,
        };
        for cycles in [100, 100, 200] {
            eureka_sim::ledger::append(&ledger, &record(cycles).to_json()).unwrap();
        }
        let listing = run(&Command::BenchList {
            ledger_dir: Some(ledger.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(listing.contains("3 record(s)"), "{listing}");
        assert!(listing
            .lines()
            .nth(3)
            .unwrap()
            .trim_start()
            .starts_with("3 "));
        let log = ledger.join(eureka_sim::ledger::LOG_FILE);
        let at = |n: &str| format!("{}#{n}", log.display());
        assert!(bench_diff(&at("1"), &at("2")).is_ok());
        let err = bench_diff(&at("2"), &at("3")).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        // Out of range, not a number, and a `#` against a plain snapshot
        // file are unusable input: exit 2.
        let snapshot = dir.join("snapshot.json");
        std::fs::write(&snapshot, bench_record(100)).unwrap();
        for bad in [
            at("0"),
            at("4"),
            at("one"),
            at(""),
            format!("{}#1", snapshot.display()),
        ] {
            let err = bench_diff(&bad, &at("1")).unwrap_err();
            assert_eq!(err.code, 2, "{bad}: {}", err.message);
            assert!(err.message.contains("unusable snapshot"), "{}", err.message);
        }
        // The log itself is not a snapshot file.
        assert_eq!(
            bench_diff(&log.display().to_string(), &at("1"))
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_simulate_with_events_and_ledger() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("run.jsonl");
        let ledger_path = dir.join("ledger");
        let cmd = parse([
            "simulate",
            "--benchmark",
            "mobilenet",
            "--arch",
            "eureka-p4",
            "--batch",
            "4",
            "--fast",
            "--no-progress",
            "--events-out",
            events_path.to_str().unwrap(),
            "--ledger-dir",
            ledger_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("total cycles"), "{out}");
        // Every emitted line is schema-valid, and the stream brackets the
        // run with run-started/run-finished.
        let stream = std::fs::read_to_string(&events_path).unwrap();
        assert!(stream.lines().count() > 2, "events were streamed");
        for line in stream.lines() {
            eureka_obs::events::validate_line(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        }
        assert!(stream.contains("\"event\":\"run-started\""));
        assert!(stream.contains("\"event\":\"run-finished\""));
        // The ledger recorded the run with the emitted-event count.
        let records =
            eureka_sim::ledger::read_log(&ledger_path.join(eureka_sim::ledger::LOG_FILE)).unwrap();
        assert_eq!(records.len(), 1);
        let v = &records[0];
        use eureka_obs::json::Value;
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("simulate"));
        assert_eq!(
            v.get("events").and_then(Value::as_f64),
            Some(stream.lines().count() as f64)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_verify_single_arch() {
        let cmd = parse([
            "verify",
            "--cases",
            "3",
            "--seed",
            "7",
            "--arch",
            "eureka-p4",
        ])
        .unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("eureka-p4"), "{out}");
        assert!(out.contains("all architectures verified"), "{out}");
    }

    #[test]
    fn run_verify_replays_committed_corpus() {
        let cmd = parse(["verify", "--replay", "../../tests/corpus"]).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("all pass"), "{out}");
    }

    #[test]
    fn parse_service_commands() {
        assert_eq!(
            parse(["serve"]).unwrap(),
            Command::Serve(serve::ServeOpts {
                socket: "eureka.sock".into(),
                journal_dir: "eureka-journal".into(),
                store_dir: None,
                capacity: 8,
                deadline_ms: 0,
                jobs: 1,
                fast: false,
                metrics_out: None,
                sla_budget_us: None,
                flightrec_dir: "results".into(),
                ledger_dir: None,
                no_ledger: false,
            })
        );
        assert_eq!(
            parse([
                "serve",
                "--socket",
                "/tmp/e.sock",
                "--journal-dir",
                "j",
                "--store-dir",
                "s",
                "--capacity",
                "3",
                "--deadline-ms",
                "500",
                "--jobs",
                "2",
                "--fast",
                "--metrics-out",
                "m.prom",
                "--sla-budget-us",
                "250000",
                "--flightrec-dir",
                "fr",
                "--ledger-dir",
                "l",
                "--no-ledger",
            ])
            .unwrap(),
            Command::Serve(serve::ServeOpts {
                socket: "/tmp/e.sock".into(),
                journal_dir: "j".into(),
                store_dir: Some("s".into()),
                capacity: 3,
                deadline_ms: 500,
                jobs: 2,
                fast: true,
                metrics_out: Some("m.prom".into()),
                sla_budget_us: Some(250_000),
                flightrec_dir: "fr".into(),
                ledger_dir: Some("l".into()),
                no_ledger: true,
            })
        );
        assert!(parse(["serve", "--capacity", "0"]).is_err());
        assert!(parse(["serve", "--sla-budget-us", "0"]).is_err());
        assert!(parse(["serve", "--bogus"]).is_err());

        assert_eq!(
            parse([
                "submit",
                "--benchmark",
                "mobilenetv1",
                "--deadline-ms",
                "250",
                "--retries",
                "2",
                "--wait",
            ])
            .unwrap(),
            Command::Submit {
                socket: "eureka.sock".into(),
                spec: JobSpec {
                    benchmark: Benchmark::MobileNetV1,
                    pruning: PruningLevel::Moderate,
                    arch: "eureka-p4".into(),
                    batch: 32,
                    deadline_ms: 250,
                    retries: 2,
                },
                wait: true,
            }
        );
        assert!(parse(["submit"]).is_err(), "submit requires --benchmark");

        assert_eq!(
            parse(["drain", "--socket", "/tmp/e.sock", "--shutdown"]).unwrap(),
            Command::Drain {
                socket: "/tmp/e.sock".into(),
                shutdown: true,
            }
        );
        assert_eq!(
            parse(["stats", "--socket", "/tmp/e.sock", "--json"]).unwrap(),
            Command::Stats {
                socket: "/tmp/e.sock".into(),
                json: true,
            }
        );
        assert_eq!(
            parse(["stats"]).unwrap(),
            Command::Stats {
                socket: "eureka.sock".into(),
                json: false,
            }
        );
        assert!(parse(["stats", "--bogus"]).is_err());
        // Chaos rides the verify umbrella.
        assert!(matches!(
            parse(["verify", "--chaos", "--cases", "7"]).unwrap(),
            Command::Verify {
                opts: VerifyOptions { cases: 7, .. },
                mode: VerifyMode::Chaos,
            }
        ));
    }

    #[test]
    fn bench_diff_exit_codes_distinguish_bad_input_from_regression() {
        let dir = std::env::temp_dir().join(format!("eureka-cli-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let worse = dir.join("worse.json");
        std::fs::write(&base, bench_record(100)).unwrap();
        std::fs::write(&worse, bench_record(200)).unwrap();

        let diff = |a: &std::path::Path, b: &std::path::Path| {
            bench_diff(&a.display().to_string(), &b.display().to_string())
        };

        // A missing snapshot is broken wiring, not a regression: exit 2.
        let err = diff(&dir.join("nope.json"), &base).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("unusable snapshot"), "{}", err.message);
        // Malformed JSON too.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let err = diff(&garbage, &base).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);

        // A genuine regression fires the gate: exit 1.
        let err = diff(&base, &worse).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(err.message.contains("total_cycles"), "{}", err.message);

        // The unregressed direction passes.
        assert!(diff(&base, &base).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_surfaces_failure_and_store_counters_only_when_nonzero() {
        use eureka_obs::metrics::Class;
        let metrics = Runner::serial().metrics().clone();
        assert_eq!(
            health_warning_lines(&metrics),
            "",
            "healthy runs stay silent"
        );
        let c = |name| metrics.counter(name, Class::Deterministic);
        c("runner.failures.panic").add(2);
        c("store.errors").add(3);
        c("checkpoint.errors").inc();
        c("runner.backoff.slept_us").add(1_500);
        let warnings = health_warning_lines(&metrics);
        assert!(warnings.contains("unit failures  : 2 panic"), "{warnings}");
        assert!(warnings.contains("store errors   : 3"), "{warnings}");
        assert!(warnings.contains("ckpt errors    : 1"), "{warnings}");
        assert!(
            warnings.contains("backoff        : 1500 us slept"),
            "{warnings}"
        );
    }
}
