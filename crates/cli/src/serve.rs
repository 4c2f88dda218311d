//! The `eureka serve` / `submit` / `drain` / `stats` front ends: a
//! Unix-socket transport around [`eureka_sim::service`].
//!
//! The service itself is transport-free (`handle_request` maps one
//! JSON request line to one response line); this module owns the
//! socket listener, the SIGTERM/SIGINT drain loop, and the client
//! side. The listener blocks in `accept`; on SIGTERM/SIGINT a small
//! waker thread connects to the daemon's own socket so the loop sees
//! the termination latch. The server additionally owns the
//! observability exhaust: a Prometheus text exposition rewritten after
//! every connection (`--metrics-out`), the always-armed flight recorder,
//! whose new records are appended to its per-process log after every
//! connection and on drain (compacted to the ring past a size bound, and
//! dumped whole on panic), and the exit-time SLA summary appended to the
//! run ledger (`--sla-budget-us`) so `bench diff` gates service-latency
//! regressions. Everything socket-shaped is Unix-only; on other targets
//! the commands fail with a clear message instead of failing to
//! compile.

use eureka_sim::JobSpec;

/// Parsed `eureka serve` configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOpts {
    /// Unix socket path to listen on.
    pub socket: String,
    /// Write-ahead job journal directory.
    pub journal_dir: String,
    /// Result store directory: unit records, shared by every job and
    /// kept across restarts, and tile shards.
    pub store_dir: Option<String>,
    /// Admission queue bound.
    pub capacity: usize,
    /// Default per-job deadline in ms (0 = none).
    pub deadline_ms: u64,
    /// Simulation worker threads per job.
    pub jobs: usize,
    /// Reduced sampling for served jobs.
    pub fast: bool,
    /// Rewrite a Prometheus text exposition here after every
    /// connection and on exit.
    pub metrics_out: Option<String>,
    /// End-to-end latency budget in µs; arms the exit SLA summary and
    /// its run-ledger record.
    pub sla_budget_us: Option<u64>,
    /// Flight-recorder dump directory.
    pub flightrec_dir: String,
    /// Run-ledger directory for the SLA record.
    pub ledger_dir: Option<String>,
    /// Skip the SLA ledger append.
    pub no_ledger: bool,
}

#[cfg(unix)]
mod imp {
    use super::ServeOpts;
    use eureka_obs::metrics::Registry;
    use eureka_sim::service::{self, respond, ServiceConfig};
    use eureka_sim::{JobService, JobSpec, SimConfig};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    pub fn run_serve(opts: &ServeOpts) -> Result<String, String> {
        let started = Instant::now();
        let cfg = service_config(opts);
        eureka_obs::flightrec::reset();
        install_panic_dump(PathBuf::from(&opts.flightrec_dir));
        let service = JobService::start(cfg);
        eureka_signal::install_termination_latch();

        // A stale socket from a SIGKILL'd predecessor would refuse the
        // bind; the journal (not the socket) is the durable state.
        let socket = Path::new(&opts.socket);
        if socket.exists() {
            std::fs::remove_file(socket)
                .map_err(|e| format!("cannot remove stale socket {}: {e}", socket.display()))?;
        }
        let listener = UnixListener::bind(socket)
            .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
        spawn_termination_waker(socket.to_path_buf())?;

        let mut shutdown_requested = false;
        while !shutdown_requested && !eureka_signal::termination_requested() {
            let (stream, _) = listener
                .accept()
                .map_err(|e| format!("accept failed: {e}"))?;
            shutdown_requested = serve_connection(&service, stream);
            // Refresh the on-disk exhaust while the daemon is alive, so a
            // later SIGKILL still leaves a recent scrape and every
            // recorder record behind.
            export_observability(opts, &service);
        }

        // SIGTERM/SIGINT or a `shutdown` request: finish in-flight
        // work, shed everything new, then leave. Journal records and
        // store tiles are already durable (written in-line), so the
        // drain needs no extra flush.
        let drained = service.drain();
        export_observability(opts, &service);
        std::fs::remove_file(socket).ok();
        let stats = service.stats();
        let mut out = format!(
            "serve: {}; served={} completed={} shed={} cancelled={} \
             deadline_exceeded={} failed={} recovered={}\n",
            if drained {
                "drained"
            } else {
                "drain timed out"
            },
            stats.served,
            stats.completed,
            stats.shed,
            stats.cancelled,
            stats.deadline_exceeded,
            stats.failed,
            stats.recovered,
        );
        if let Some(budget) = opts.sla_budget_us {
            let sla = service::sla_report(&service, budget, started.elapsed());
            out.push_str(&format!(
                "sla: budget={}us p99_e2e={}us jobs_per_sec={:.2} shed_rate={:.3} saturated={}\n",
                sla.budget_us, sla.p99_e2e_us, sla.jobs_per_sec, sla.shed_rate, sla.saturated
            ));
            append_sla_ledger(opts, sla, started, service.metrics())?;
        }
        service.shutdown();
        Ok(out)
    }

    /// Chains a flight-recorder dump in front of the default panic
    /// hook, so even an aborting daemon leaves its last-moments record
    /// on disk before the backtrace prints.
    fn install_panic_dump(dir: PathBuf) {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = eureka_obs::flightrec::dump_to(&dir);
            previous(info);
        }));
    }

    /// Wakes the blocking `accept` once SIGTERM/SIGINT sets the latch.
    /// The latch handler restarts interrupted syscalls (SA_RESTART), so
    /// the signal alone never returns `accept`; one self-connection
    /// does, and the loop then re-checks the latch.
    fn spawn_termination_waker(socket: PathBuf) -> Result<(), String> {
        std::thread::Builder::new()
            .name("serve-waker".into())
            .spawn(move || {
                while !eureka_signal::termination_requested() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = UnixStream::connect(socket);
            })
            .map(drop)
            .map_err(|e| format!("cannot spawn the termination waker: {e}"))
    }

    /// Best-effort refresh of the observability exhaust: the
    /// Prometheus exposition (written atomically, so scrapers never read
    /// a torn file) and the flight recorder's export, which appends only
    /// the records since the last one. Failures degrade to an error
    /// line on stderr — the daemon's job is serving, not exporting.
    fn export_observability(opts: &ServeOpts, service: &JobService) {
        if let Some(path) = &opts.metrics_out {
            let text = service.metrics().prometheus_text();
            if let Err(e) = eureka_obs::atomic::write_atomic(Path::new(path), text.as_bytes()) {
                eureka_obs::error!("serve: cannot write metrics to {path}: {e}");
            }
        }
        if let Err(e) = eureka_obs::flightrec::export(Path::new(&opts.flightrec_dir)) {
            eureka_obs::error!("serve: flight recorder export failed: {e}");
        }
    }

    /// Appends the exit-time SLA record (kind `serve`) to the run
    /// ledger, with the digest of the service's `metrics`, so `bench
    /// diff` can gate p99/throughput/shed-rate regressions between
    /// service runs.
    fn append_sla_ledger(
        opts: &ServeOpts,
        sla: eureka_sim::SlaReport,
        started: Instant,
        metrics: &Registry,
    ) -> Result<(), String> {
        let Some(dir) = crate::resolve_ledger_dir(opts.ledger_dir.as_deref(), opts.no_ledger)
        else {
            return Ok(());
        };
        let record = eureka_sim::LedgerRecord {
            kind: "serve".to_string(),
            label: format!(
                "serve|capacity{}|deadline{}ms|{}",
                opts.capacity,
                opts.deadline_ms,
                if opts.fast { "fast" } else { "paper" },
            ),
            archs: Vec::new(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            // A service process emits no run events.
            events: 0,
            metrics_digest: eureka_sim::ledger::metrics_digest(&metrics.snapshot_json(false)),
            sla: Some(sla),
        };
        eureka_sim::ledger::append(&dir, &record.to_json())?;
        Ok(())
    }

    /// One client connection: JSON lines in, JSON lines out. Returns
    /// `true` when the client asked the whole service to shut down.
    /// A submit's reply goes out before the worker is woken: the woken
    /// worker would otherwise run the job on the CPU still writing it.
    fn serve_connection(service: &JobService, stream: UnixStream) -> bool {
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return false,
        };
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let mut wake = None;
            let (mut response, shutdown) = respond(service, &line, &mut wake);
            response.push('\n');
            let sent = writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.flush());
            drop(wake);
            if sent.is_err() {
                break;
            }
            if shutdown {
                return true;
            }
        }
        false
    }

    fn service_config(opts: &ServeOpts) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(PathBuf::from(&opts.journal_dir));
        cfg.queue_capacity = opts.capacity;
        cfg.default_deadline_ms = opts.deadline_ms;
        cfg.jobs = opts.jobs;
        cfg.sim = if opts.fast {
            SimConfig::fast()
        } else {
            SimConfig::paper_default()
        };
        cfg.store_dir = opts.store_dir.as_ref().map(PathBuf::from);
        cfg.flightrec_dir = PathBuf::from(&opts.flightrec_dir);
        cfg
    }

    /// Sends one request line and reads one response line.
    pub fn request(socket: &str, line: &str) -> Result<String, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {socket}: {e} (is the service running?)"))?;
        stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("socket error: {e}"))?;
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if response.is_empty() {
            return Err("the service closed the connection without responding".into());
        }
        Ok(response.trim_end().to_string())
    }

    pub fn run_submit(socket: &str, spec: &JobSpec, wait: bool) -> Result<String, String> {
        use eureka_obs::json::{self, Value};
        let request_line = format!(
            "{{\"cmd\":\"submit\",\"spec\":\"{}\"}}",
            json::escape(&spec.canonical())
        );
        let response = request(socket, &request_line)?;
        let v = json::parse(&response).map_err(|e| format!("malformed response: {e}"))?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("submit rejected: {response}"));
        }
        if !wait {
            return Ok(response);
        }
        let id = v
            .get("job")
            .and_then(Value::as_f64)
            .ok_or("malformed response: missing job id")? as u64;
        // Cached jobs finish in well under a millisecond: poll early,
        // then back off to the 50 ms cap for long simulations.
        let mut poll = Duration::from_millis(2);
        loop {
            std::thread::sleep(poll);
            poll = (poll * 2).min(Duration::from_millis(50));
            let status_line = request(socket, &format!("{{\"cmd\":\"status\",\"job\":{id}}}"))?;
            let sv = json::parse(&status_line).map_err(|e| format!("malformed response: {e}"))?;
            match sv.get("status").and_then(Value::as_str) {
                Some("queued" | "running") => {}
                Some("completed") => return Ok(status_line),
                Some(_) => return Err(format!("job did not complete: {status_line}")),
                None => return Err(format!("malformed status response: {status_line}")),
            }
        }
    }

    pub fn run_drain(socket: &str, shutdown: bool) -> Result<String, String> {
        let response = request(socket, "{\"cmd\":\"drain\"}")?;
        if shutdown {
            // The shutdown response may not arrive if the server exits
            // promptly after draining; the drain response above is the
            // acknowledgement that matters.
            let _ = request(socket, "{\"cmd\":\"shutdown\"}");
        }
        Ok(response)
    }

    pub fn run_stats(socket: &str, json: bool) -> Result<String, String> {
        let response = request(socket, "{\"cmd\":\"stats\"}")?;
        if json {
            return Ok(response);
        }
        render_stats(&response)
    }

    /// Renders the `stats` response for humans: the ledger counters,
    /// then per-outcome-class latency quantiles. Histograms that never
    /// fired are omitted — a healthy quiet service prints a short
    /// report, not a wall of zeros.
    fn render_stats(response: &str) -> Result<String, String> {
        use eureka_obs::json::{self, Value};
        let v = json::parse(response).map_err(|e| format!("malformed response: {e}"))?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("stats rejected: {response}"));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let flag = |key: &str| v.get(key).and_then(Value::as_bool).unwrap_or(false);
        let mut out = format!(
            "service  : queued={} running={} draining={}\n\
             outcomes : served={} completed={} shed={} cancelled={} \
             deadline_exceeded={} failed={}\n\
             recovery : recovered={} retried={}\n",
            num("queued"),
            flag("running"),
            flag("draining"),
            num("served"),
            num("completed"),
            num("shed"),
            num("cancelled"),
            num("deadline_exceeded"),
            num("failed"),
            num("recovered"),
            num("retried"),
        );
        out.push_str(
            "latency (us):      class phase             count      p50      p90      p99\n",
        );
        let Some(latency) = v.get("latency") else {
            return Ok(out);
        };
        for class in service::OUTCOME_CLASSES {
            let Some(phases) = latency.get(class) else {
                continue;
            };
            for phase in ["queue_wait_us", "exec_us", "e2e_us"] {
                let Some(h) = phases.get(phase) else { continue };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let field = |key: &str| h.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
                if field("count") == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {class:<18} {phase:<14} {:>8} {:>8} {:>8} {:>8}\n",
                    field("count"),
                    field("p50"),
                    field("p90"),
                    field("p99"),
                ));
            }
        }
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn render_stats_skips_silent_histograms_and_rejects_errors() {
            let response = concat!(
                "{\"ok\":true,\"queued\":1,\"running\":true,\"draining\":false,",
                "\"served\":3,\"completed\":2,\"shed\":1,\"cancelled\":0,",
                "\"deadline_exceeded\":0,\"failed\":0,\"recovered\":0,\"retried\":0,",
                "\"latency\":{",
                "\"completed\":{\"queue_wait_us\":{\"count\":2,\"p50\":10,\"p90\":50,\"p99\":50},",
                "\"exec_us\":{\"count\":2,\"p50\":100,\"p90\":500,\"p99\":500},",
                "\"e2e_us\":{\"count\":2,\"p50\":100,\"p90\":500,\"p99\":500}},",
                "\"failed\":{\"e2e_us\":{\"count\":0,\"p50\":0,\"p90\":0,\"p99\":0}}}}"
            );
            let out = super::render_stats(response).expect("well-formed stats render");
            assert!(out.contains("served=3 completed=2 shed=1"), "{out}");
            assert!(
                out.lines()
                    .any(|l| l.trim_start().starts_with("completed") && l.contains("e2e_us")),
                "{out}"
            );
            assert!(
                !out.lines().any(|l| l.trim_start().starts_with("failed")),
                "zero-count histograms are omitted: {out}"
            );

            let err = super::render_stats("{\"ok\":false,\"error\":\"nope\"}").unwrap_err();
            assert!(err.contains("stats rejected"), "{err}");
            assert!(super::render_stats("not json").is_err());
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::ServeOpts;
    use eureka_sim::JobSpec;

    const UNSUPPORTED: &str = "the job service requires Unix domain sockets";

    pub fn run_serve(_opts: &ServeOpts) -> Result<String, String> {
        Err(UNSUPPORTED.into())
    }

    pub fn run_submit(_socket: &str, _spec: &JobSpec, _wait: bool) -> Result<String, String> {
        Err(UNSUPPORTED.into())
    }

    pub fn run_drain(_socket: &str, _shutdown: bool) -> Result<String, String> {
        Err(UNSUPPORTED.into())
    }

    pub fn run_stats(_socket: &str, _json: bool) -> Result<String, String> {
        Err(UNSUPPORTED.into())
    }
}

/// Runs the resident service until SIGTERM/SIGINT or a client
/// `shutdown`, then drains and reports the final ledger counts (plus
/// the SLA summary when `--sla-budget-us` is set).
///
/// # Errors
///
/// Socket bind/IO failures, or any platform without Unix sockets.
pub fn run_serve(opts: &ServeOpts) -> Result<String, String> {
    imp::run_serve(opts)
}

/// Submits one job to a running service; with `wait`, polls until the
/// job is terminal and fails unless it completed.
///
/// # Errors
///
/// Connection failures, rejections (overloaded/draining/invalid), or a
/// waited-on job that ended cancelled, deadline-exceeded, or failed.
pub fn run_submit(socket: &str, spec: &JobSpec, wait: bool) -> Result<String, String> {
    imp::run_submit(socket, spec, wait)
}

/// Asks a running service to drain (and optionally shut down).
///
/// # Errors
///
/// Connection failures.
pub fn run_drain(socket: &str, shutdown: bool) -> Result<String, String> {
    imp::run_drain(socket, shutdown)
}

/// Fetches a running service's live counters and per-outcome-class
/// latency quantiles; `json` returns the raw response line, otherwise
/// a human-readable table.
///
/// # Errors
///
/// Connection failures or a malformed/rejected response.
pub fn run_stats(socket: &str, json: bool) -> Result<String, String> {
    imp::run_stats(socket, json)
}
