//! `eureka serve` over a real Unix socket: an idle daemon still answers,
//! and both SIGTERM and the `shutdown` verb stop it cleanly. The accept
//! loop blocks, so a SIGTERM drain depends on the termination waker; if
//! the waker is missing the daemon never exits and this test fails on
//! its timeout instead of hanging. A burst of submits checks that the
//! worker wake deferred past each reply is never lost.
#![cfg(unix)]

use eureka_models::{Benchmark, PruningLevel};
use eureka_obs::json::{self, Value};
use eureka_sim::{JobSpec, Journal};

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Generous bound on start-up and on the drain; the benchmark, not this
/// test, measures latency.
const PATIENCE: Duration = Duration::from_secs(10);

/// A fresh working directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "eureka-serve-socket-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon, killed on drop if the test fails before it exits.
struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

impl Daemon {
    /// Starts `eureka serve --fast --no-ledger` plus `extra` with `dir`
    /// as its working directory (socket, journal and flight recorder
    /// take their defaults there) and returns once `health` answers.
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        let log = dir.join("serve.log");
        let out = std::fs::File::create(&log).expect("create serve.log");
        let err = out.try_clone().expect("clone serve.log");
        let child = Command::new(env!("CARGO_BIN_EXE_eureka"))
            .args(["serve", "--fast", "--no-ledger"])
            .args(extra)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .expect("spawn eureka serve");
        let mut daemon = Daemon {
            child,
            socket: dir.join("eureka.sock"),
            log,
        };
        let deadline = Instant::now() + PATIENCE;
        while !daemon.healthy() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                panic!(
                    "eureka serve exited during start-up ({status}): {}",
                    daemon.log()
                );
            }
            assert!(
                Instant::now() < deadline,
                "no health answer within {PATIENCE:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon
    }

    fn healthy(&self) -> bool {
        request(&self.socket, r#"{"cmd":"health"}"#).is_some_and(|r| r.contains("\"ok\":true"))
    }

    fn log(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Waits for the daemon to exit, failing the test past [`PATIENCE`].
    fn wait(&mut self) -> ExitStatus {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.child.try_wait().expect("wait for eureka serve") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "eureka serve still running {PATIENCE:?} after the stop request: {}",
                self.log()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request line over a fresh connection; `None` on any transport
/// failure (the daemon may not be listening yet).
fn request(socket: &Path, line: &str) -> Option<String> {
    let mut stream = UnixStream::connect(socket).ok()?;
    stream.set_read_timeout(Some(PATIENCE)).ok()?;
    stream.write_all(format!("{line}\n").as_bytes()).ok()?;
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).ok()?;
    Some(response)
}

/// Starts a daemon, lets it go idle, stops it with `stop`, and checks the
/// clean-exit contract: status 0, a drain report, and no socket left.
fn idle_daemon_stops_cleanly(tag: &str, stop: impl FnOnce(&Daemon)) {
    let dir = TempDir::new(tag);
    let mut daemon = Daemon::start(&dir.0, &[]);
    // Idle long enough that the loop is parked in `accept`.
    std::thread::sleep(Duration::from_millis(100));
    assert!(daemon.healthy(), "an idle daemon must still answer health");

    stop(&daemon);
    let status = daemon.wait();
    let log = daemon.log();
    assert!(status.success(), "eureka serve exited with {status}: {log}");
    assert!(log.contains("serve: drained"), "no drain report: {log}");
    assert!(!daemon.socket.exists(), "socket not removed: {log}");
}

#[test]
fn sigterm_drains_an_idle_daemon() {
    idle_daemon_stops_cleanly("sigterm", |daemon| {
        let sent = Command::new("kill")
            .args(["-TERM", &daemon.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success(), "kill -TERM failed: {sent}");
    });
}

#[test]
fn shutdown_verb_stops_an_idle_daemon() {
    idle_daemon_stops_cleanly("shutdown", |daemon| {
        let response = request(&daemon.socket, r#"{"cmd":"shutdown"}"#);
        assert!(response.is_some(), "no response to shutdown");
    });
}

#[test]
fn back_to_back_submits_all_complete_and_leave_no_pending_journal() {
    let dir = TempDir::new("burst");
    // Room for the whole burst: a shed submit is not what this tests.
    let mut daemon = Daemon::start(&dir.0, &["--capacity", "32"]);
    let ids: Vec<u64> = (0..20)
        .map(|retries| {
            let mut spec = JobSpec::new(
                Benchmark::MobileNetV1,
                PruningLevel::Moderate,
                32,
                "eureka-p4",
            );
            spec.retries = retries; // distinct specs, distinct journal records
            let line = format!(r#"{{"cmd":"submit","spec":"{}"}}"#, spec.canonical());
            let response = request(&daemon.socket, &line).expect("submit answered");
            json::parse(&response)
                .ok()
                .and_then(|v| v.get("job").and_then(Value::as_f64))
                .unwrap_or_else(|| panic!("not admitted: {response}")) as u64
        })
        .collect();

    let deadline = Instant::now() + PATIENCE * 6;
    for id in ids {
        loop {
            let status = request(&daemon.socket, &format!(r#"{{"cmd":"status","job":{id}}}"#))
                .expect("status answered");
            if status.contains(r#""status":"completed""#) {
                break;
            }
            assert!(
                status.contains(r#""status":"queued""#) || status.contains(r#""status":"running""#),
                "job {id} did not complete: {status}"
            );
            assert!(
                Instant::now() < deadline,
                "job {id} still {status} — a lost worker wake?"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let drained = request(&daemon.socket, r#"{"cmd":"drain"}"#).expect("drain answered");
    assert!(drained.contains(r#""drained":true"#), "{drained}");
    let journal_dir = dir.0.join("eureka-journal");
    assert_eq!(
        Journal::new(&journal_dir).recover(),
        (Vec::new(), Some(0)),
        "a drained daemon leaves nothing to replay"
    );
    let log = std::fs::read_to_string(journal_dir.join("journal.log")).expect("journal log");
    assert_eq!(
        log.lines().count(),
        1 + 2 * 20,
        "a header, then an accepted and a completed record per spec"
    );
    let files: Vec<_> = std::fs::read_dir(&journal_dir)
        .expect("journal dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(files, ["journal.log"], "the journal is one log file");

    request(&daemon.socket, r#"{"cmd":"shutdown"}"#).expect("shutdown answered");
    let status = daemon.wait();
    assert!(status.success(), "eureka serve exited with {status}");
}

#[test]
fn a_failed_metrics_export_is_logged_as_an_error() {
    let dir = TempDir::new("export-error");
    let blocker = dir.0.join("not-a-dir");
    std::fs::write(&blocker, "a regular file").expect("write the blocking file");
    let target = blocker.join("metrics.prom");
    let mut daemon = Daemon::start(&dir.0, &["--metrics-out", target.to_str().unwrap()]);
    assert!(daemon.healthy(), "a failed export must not stop serving");
    request(&daemon.socket, r#"{"cmd":"shutdown"}"#).expect("shutdown answered");
    let status = daemon.wait();
    let log = daemon.log();
    assert!(status.success(), "eureka serve exited with {status}: {log}");
    let want = format!("error: serve: cannot write metrics to {}", target.display());
    assert!(log.contains(&want), "no export error in: {log}");
}
