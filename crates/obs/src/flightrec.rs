//! Crash-safe flight recorder (`eureka-flightrec-v1`).
//!
//! A fixed-capacity, allocation-free ring buffer holding the most
//! recent job-lifecycle records, **armed always**: unlike a run's
//! event sink ([`crate::events::Events`]), which is off unless a
//! command attaches one, the recorder captures every record so a post-mortem of a crashed or
//! overloaded daemon is possible without having opted into anything.
//! Recording is one short mutex-guarded write into a pre-allocated
//! slot — no allocation, no I/O, no formatting on the hot path.
//!
//! Each record carries a process-monotonic `seq` (total records ever,
//! not a ring index — gaps in a dump mean overwritten history, never
//! lost writes), a `t_us` offset from recorder start, a `&'static`
//! kind label shared with the event schema (`job-admitted`,
//! `job-dequeued`, `job-finished`, ...), the job id, and one
//! kind-specific `value` (content-key hash for admissions, queue-wait
//! µs for dequeues, outcome class for finishes).
//!
//! The records go to one JSONL file per process,
//! `flightrec-<pid>.jsonl`. The serve loop calls [`export`] after every
//! connection: it appends, as one [`crate::applog`] line batch, only the
//! records recorded since the last export. The first export, and any
//! that grows the file past [`COMPACT_BYTES`], compacts it to the ring's
//! records through [`dump_to`]. [`dump_to`] is the full rewrite, through
//! [`crate::atomic::write_atomic`], for the panic hook and the `dump`
//! verb too. Either way a reader never sees a torn line, and a SIGKILL
//! leaves every exported record on disk.

use crate::applog::AppLog;
use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Schema identifier stamped on every dumped line.
pub const SCHEMA: &str = "eureka-flightrec-v1";

/// Ring capacity: how many recent records a dump can hold.
pub const CAPACITY: usize = 512;

/// File size past which an [`export`] compacts the file to the ring: at
/// about 100 bytes a line, one compaction per ~10k records.
pub const COMPACT_BYTES: u64 = 1 << 20;

/// One recorded lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Process-monotonic sequence number (assigned at record time).
    pub seq: u64,
    /// Microseconds since the recorder started (first use or [`reset`]).
    pub t_us: u64,
    /// Lifecycle kind label (shared with the `eureka-events-v1` kinds).
    pub kind: &'static str,
    /// Job id (`0` when the record is not tied to an admitted job).
    pub job: u64,
    /// Kind-specific detail: content-key hash for admissions,
    /// queue-wait µs for dequeues, outcome class for finishes,
    /// queue capacity for sheds.
    pub value: u64,
}

struct Ring {
    /// Pre-allocated slots; the record with `seq` lives in slot
    /// `seq % CAPACITY`, written in place once full (no allocation after
    /// the ring fills).
    slots: Vec<FlightRecord>,
    /// Total records ever recorded (`seq` source; `len = min(total, CAPACITY)`).
    total: u64,
    /// Records below this `seq` are in this process's file already.
    exported: u64,
    start: Instant,
}

impl Ring {
    /// The retained records from `seq` on, oldest to newest.
    fn since(&self, seq: u64) -> impl Iterator<Item = FlightRecord> + '_ {
        let oldest = self.total - self.slots.len() as u64;
        (seq.max(oldest)..self.total).map(|seq| self.slots[(seq % CAPACITY as u64) as usize])
    }
}

fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            slots: Vec::with_capacity(CAPACITY),
            total: 0,
            exported: 0,
            start: Instant::now(),
        })
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

/// Records one lifecycle transition. Always armed; the cost is one
/// mutex acquisition and one slot write.
pub fn record(kind: &'static str, job: u64, value: u64) {
    let mut r = ring();
    let t_us = u64::try_from(r.start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let rec = FlightRecord {
        seq: r.total,
        t_us,
        kind,
        job,
        value,
    };
    let slot = (r.total % CAPACITY as u64) as usize;
    r.total += 1;
    if slot == r.slots.len() {
        r.slots.push(rec);
    } else {
        r.slots[slot] = rec;
    }
}

/// Total records ever recorded (monotonic; survives ring wraparound).
#[must_use]
pub fn recorded_count() -> u64 {
    ring().total
}

/// Clears the ring and restarts the `t_us` clock (tests; serve start).
pub fn reset() {
    let mut r = ring();
    r.slots.clear();
    r.total = 0;
    r.exported = 0;
    r.start = Instant::now();
}

/// The retained records from `seq` on as JSONL, and the total recorded.
fn render_since(seq: u64) -> (String, u64) {
    let r = ring();
    let mut out = String::new();
    for rec in r.since(seq) {
        let _ = writeln!(
            out,
            "{{\"schema\":\"{SCHEMA}\",\"seq\":{},\"t_us\":{},\"kind\":\"{}\",\"job\":{},\"value\":{}}}",
            rec.seq,
            rec.t_us,
            crate::json::escape(rec.kind),
            rec.job,
            rec.value,
        );
    }
    (out, r.total)
}

/// The retained records as JSONL, oldest to newest.
#[must_use]
pub fn dump_jsonl() -> String {
    render_since(0).0
}

/// The dump path this process writes under `dir`.
#[must_use]
pub fn dump_path(dir: &Path) -> PathBuf {
    dir.join(format!("flightrec-{}.jsonl", std::process::id()))
}

/// Dumps the ring atomically to `flightrec-<pid>.jsonl` under `dir`
/// (created if missing) through [`crate::atomic::write_atomic`], so a
/// concurrent reader — or a crash mid-dump — never sees a torn file, and
/// marks every record exported. Returns the path written.
///
/// # Errors
///
/// Propagates directory-creation, write, or rename failures.
pub fn dump_to(dir: &Path) -> io::Result<PathBuf> {
    let target = dump_path(dir);
    let (text, total) = render_since(0);
    crate::atomic::write_atomic(&target, text.as_bytes())?;
    ring().exported = total;
    Ok(target)
}

/// Appends to `flightrec-<pid>.jsonl` under `dir`, with one write, the
/// records recorded since the last export or dump; a no-op when there
/// are none. The first export, and one that grows the file past
/// [`COMPACT_BYTES`], rewrites it as the ring instead ([`dump_to`]), so
/// a stale file of an earlier process with this pid is replaced and the
/// file stays bounded. One process exports to one directory.
///
/// # Errors
///
/// Propagates the append's or the dump's I/O failures; the records then
/// go out with the next export.
pub fn export(dir: &Path) -> io::Result<()> {
    let exported = ring().exported;
    let (text, total) = render_since(exported);
    if text.is_empty() {
        return Ok(());
    }
    if exported == 0 || AppLog::new(dump_path(dir)).append(text.as_bytes())? > COMPACT_BYTES {
        return dump_to(dir).map(drop);
    }
    ring().exported = total;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn snapshot() -> Vec<FlightRecord> {
        ring().since(0).collect()
    }

    /// The recorder is process-global; serialize the tests that reset it.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn records_in_order_with_dense_seqs() {
        let _gate = exclusive();
        reset();
        record("job-admitted", 1, 0xabc);
        record("job-dequeued", 1, 42);
        record("job-finished", 1, 0);
        assert_eq!(recorded_count(), 3);
        let snap = snapshot();
        assert_eq!(snap.len(), 3);
        for (i, rec) in snap.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
        assert_eq!(snap[0].kind, "job-admitted");
        assert_eq!(snap[0].value, 0xabc);
        assert_eq!(snap[1].value, 42);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn ring_keeps_the_most_recent_capacity_records() {
        let _gate = exclusive();
        reset();
        let n = CAPACITY as u64 + 37;
        for i in 0..n {
            record("job-admitted", i, i);
        }
        assert_eq!(recorded_count(), n);
        let snap = snapshot();
        assert_eq!(snap.len(), CAPACITY, "ring holds exactly CAPACITY");
        // Oldest retained seq is total - CAPACITY; newest is total - 1.
        assert_eq!(snap[0].seq, n - CAPACITY as u64);
        assert_eq!(snap.last().unwrap().seq, n - 1);
        assert!(
            snap.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "retained seqs stay consecutive across wraparound"
        );
        reset();
    }

    #[test]
    fn dump_is_schema_valid_jsonl_and_atomic_on_disk() {
        let _gate = exclusive();
        reset();
        record("job-admitted", 7, 0xfeed);
        record("job-shed", 0, 8);
        let dir =
            std::env::temp_dir().join(format!("eureka-flightrec-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dump_to(&dir).expect("dump");
        assert_eq!(path, dump_path(&dir));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
            assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
            assert_eq!(
                v.get("seq").and_then(Value::as_f64),
                Some(i as f64),
                "seqs dense from the oldest retained record"
            );
            assert!(v.get("kind").and_then(Value::as_str).is_some());
        }
        assert!(lines[0].contains("\"job\":7"));
        // Re-dumping replaces the file in place (rename, same path).
        record("job-finished", 7, 0);
        let again = dump_to(&dir).expect("second dump");
        assert_eq!(again, path);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }

    #[test]
    fn exports_append_only_new_records_and_compact_past_the_bound() {
        let _gate = exclusive();
        reset();
        let dir =
            std::env::temp_dir().join(format!("eureka-flightrec-export-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let read = || std::fs::read_to_string(dump_path(&dir)).unwrap();
        // A stale file of an earlier process with this pid is replaced.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dump_path(&dir), "stale\n").unwrap();
        record("job-admitted", 1, 0xfeed);
        export(&dir).unwrap();
        assert_eq!(read(), dump_jsonl());
        record("job-dequeued", 1, 5);
        record("job-finished", 1, 0);
        export(&dir).unwrap();
        assert_eq!(
            read(),
            dump_jsonl(),
            "the export appended the two new lines"
        );
        // A dump in between leaves nothing for the export to repeat.
        record("job-shed", 0, 8);
        dump_to(&dir).unwrap();
        export(&dir).unwrap();
        assert_eq!(read(), dump_jsonl());

        // Exports across wraparound keep every line in seq order, and the
        // file stays within the bound plus one export.
        for _ in 0..30 {
            for i in 0..CAPACITY as u64 {
                record("job-admitted", i, i);
            }
            export(&dir).unwrap();
        }
        let text = read();
        assert!(text.len() as u64 <= COMPACT_BYTES + dump_jsonl().len() as u64);
        assert!(text.ends_with(&dump_jsonl()), "the ring is the file's tail");
        let seqs: Vec<f64> = text
            .lines()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("seq")
                    .and_then(Value::as_f64)
                    .unwrap()
            })
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[1] == w[0] + 1.0),
            "seqs are dense"
        );
        std::fs::remove_dir_all(&dir).ok();
        reset();
    }
}
