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
//! [`dump_to`] renders the ring oldest-to-newest as JSONL and writes it
//! through [`crate::atomic::write_atomic`], the writer the journal's
//! compaction and the tile store use too, so a reader never observes a
//! torn dump. The serve loop
//! dumps after every connection that recorded something new and on
//! SIGTERM/panic; a SIGKILL leaves
//! the last complete dump on disk.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Schema identifier stamped on every dumped line.
pub const SCHEMA: &str = "eureka-flightrec-v1";

/// Ring capacity: how many recent records a dump can hold.
pub const CAPACITY: usize = 512;

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
    /// Pre-allocated slots; written in place once full (no allocation
    /// after the ring fills).
    slots: Vec<FlightRecord>,
    /// Next slot index to (over)write.
    next: usize,
    /// Total records ever recorded (`seq` source; `len = min(total, CAPACITY)`).
    total: u64,
    start: Instant,
}

fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            slots: Vec::with_capacity(CAPACITY),
            next: 0,
            total: 0,
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
    r.total += 1;
    if r.slots.len() < CAPACITY {
        r.slots.push(rec);
        r.next = r.slots.len() % CAPACITY;
    } else {
        let next = r.next;
        r.slots[next] = rec;
        r.next = (next + 1) % CAPACITY;
    }
}

/// Total records ever recorded (monotonic; survives ring wraparound).
#[must_use]
pub fn recorded_count() -> u64 {
    ring().total
}

/// The most recent record's sequence number, `None` when empty.
#[must_use]
pub fn last_seq() -> Option<u64> {
    let r = ring();
    r.total.checked_sub(1)
}

/// The retained records, oldest to newest (at most [`CAPACITY`]).
#[must_use]
pub fn snapshot() -> Vec<FlightRecord> {
    let r = ring();
    let mut out = Vec::with_capacity(r.slots.len());
    if r.slots.len() < CAPACITY {
        out.extend_from_slice(&r.slots);
    } else {
        out.extend_from_slice(&r.slots[r.next..]);
        out.extend_from_slice(&r.slots[..r.next]);
    }
    out
}

/// Clears the ring and restarts the `t_us` clock (tests; serve start).
pub fn reset() {
    let mut r = ring();
    r.slots.clear();
    r.next = 0;
    r.total = 0;
    r.start = Instant::now();
}

fn render_line(rec: &FlightRecord, out: &mut String) {
    out.push_str("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"seq\":");
    out.push_str(&rec.seq.to_string());
    out.push_str(",\"t_us\":");
    out.push_str(&rec.t_us.to_string());
    out.push_str(",\"kind\":\"");
    out.push_str(&crate::json::escape(rec.kind));
    out.push_str("\",\"job\":");
    out.push_str(&rec.job.to_string());
    out.push_str(",\"value\":");
    out.push_str(&rec.value.to_string());
    out.push_str("}\n");
}

/// The retained records as JSONL, oldest to newest.
#[must_use]
pub fn dump_jsonl() -> String {
    let mut out = String::new();
    for rec in snapshot() {
        render_line(&rec, &mut out);
    }
    out
}

/// The dump path this process writes under `dir`.
#[must_use]
pub fn dump_path(dir: &Path) -> PathBuf {
    dir.join(format!("flightrec-{}.jsonl", std::process::id()))
}

/// Dumps the ring atomically to `flightrec-<pid>.jsonl` under `dir`
/// (created if missing) through [`crate::atomic::write_atomic`], so a
/// concurrent reader — or a crash mid-dump — never sees a torn file.
/// Returns the path written.
///
/// # Errors
///
/// Propagates directory-creation, write, or rename failures.
pub fn dump_to(dir: &Path) -> std::io::Result<PathBuf> {
    let target = dump_path(dir);
    crate::atomic::write_atomic(&target, dump_jsonl().as_bytes())?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// The recorder is process-global; serialize the tests that reset it.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn records_in_order_with_dense_seqs() {
        let _gate = exclusive();
        reset();
        assert_eq!(last_seq(), None);
        record("job-admitted", 1, 0xabc);
        record("job-dequeued", 1, 42);
        record("job-finished", 1, 0);
        assert_eq!(recorded_count(), 3);
        assert_eq!(last_seq(), Some(2));
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
}
