//! Child processes of a run: CPU and memory readings from `/proc`, the
//! daemon guard, and the serve protocol's one-connection-per-request
//! client.

use eureka_obs::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100
/// per second for every architecture.
const TICKS_PER_S: f64 = 100.0;

/// How often a figure process is sampled for its memory high-water mark.
const POLL: Duration = Duration::from_millis(10);

/// `(state, user + system CPU seconds)` of a live or zombie process.
#[must_use]
pub fn cpu_state(pid: u32) -> Option<(char, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its `)`.
    let fields: Vec<&str> = stat
        .get(stat.rfind(')')? + 1..)?
        .split_whitespace()
        .collect();
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((state, (utime + stime) as f64 / TICKS_PER_S))
}

/// Peak resident set size (`VmHWM`) in MiB; `None` once the process has
/// released its memory.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One finished child process, as observed from outside.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Spawn to exit, to within one poll interval.
    pub wall: Duration,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size seen while it ran.
    pub peak_rss_mb: f64,
    /// Exit status.
    pub status: ExitStatus,
}

/// Runs `cmd` to completion, sampling its memory high-water mark every
/// 10 ms and its CPU time as it exits. The child is reaped only after its
/// zombie has been read, so the CPU reading covers all of its threads.
///
/// # Errors
///
/// Spawn or wait failures.
pub fn run_sampled(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let (mut cpu_s, mut peak) = (0.0, 0.0f64);
    loop {
        std::thread::sleep(POLL);
        match cpu_state(pid) {
            Some((state, cpu)) => {
                cpu_s = cpu;
                if state == 'Z' {
                    break;
                }
                if let Some(mb) = peak_rss_mb(pid) {
                    peak = peak.max(mb);
                }
            }
            None => break,
        }
    }
    let wall = start.elapsed();
    let status = child.wait()?;
    Ok(ChildRun {
        wall,
        cpu_s,
        peak_rss_mb: peak,
        status,
    })
}

/// Sends one request line over a fresh connection and parses the one
/// response line, as `eureka submit` does.
///
/// # Errors
///
/// Connection, transport or parse failures, rendered for the run report.
pub fn request(socket: &Path, line: &str) -> Result<Value, String> {
    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    json::parse(response.trim_end()).map_err(|e| format!("malformed response {response:?}: {e}"))
}

/// Whether a protocol response carries `"ok": true`.
#[must_use]
pub fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// A running `eureka serve`. Dropping it SIGTERM-drains the daemon and
/// waits for it to exit (killing it if the drain stalls); during a panic
/// it is killed outright. Either way no daemon outlives the run.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

/// How long a SIGTERM drain may take before the daemon is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

impl Daemon {
    /// Starts `eureka serve` with its socket, journal, flight recorder
    /// and log under `dir`, and returns once `health` answers.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits or stays silent for 30 s.
    pub fn start(eureka: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log"))
            .map_err(|e| format!("create serve.log: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("serve.log: {e}"))?;
        let socket = dir.join("s.sock");
        let child = Command::new(eureka)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .arg("--flightrec-dir")
            .arg(dir.join("flightrec"))
            .args(["--capacity", "64", "--jobs", "1", "--fast", "--no-ledger"])
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err)
            .spawn()
            .map_err(|e| format!("spawn {} serve: {e}", eureka.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if request(&daemon.socket, r#"{"cmd":"health"}"#).is_ok_and(|v| ok(&v)) {
                return Ok(daemon);
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("eureka serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("eureka serve did not answer health within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's socket.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// SIGTERM-drains the daemon and waits for it.
    ///
    /// # Errors
    ///
    /// A drain that fails or stalls past the timeout (the daemon is then
    /// killed).
    pub fn stop(mut self) -> Result<(), String> {
        match self.child.take() {
            Some(child) => terminate(child),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if std::thread::panicking() {
                let _ = child.kill();
                let _ = child.wait();
            } else {
                let _ = terminate(child);
            }
        }
    }
}

fn terminate(mut child: Child) -> Result<(), String> {
    let signalled = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .is_ok_and(|s| s.success());
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while signalled && Instant::now() < deadline {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("eureka serve drain failed: {status}")),
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("wait for eureka serve: {e}")),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err("eureka serve did not drain after SIGTERM; killed".into())
}
