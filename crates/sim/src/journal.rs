//! Write-ahead job journal for the resident service.
//!
//! Every job the service *accepts* is recorded here before any work
//! happens, and its terminal state is recorded when the job leaves the
//! system. If the server is SIGKILL'd mid-run, a restarting service
//! calls [`Journal::recover`] and replays exactly the jobs that were
//! accepted but never reached a terminal state — completed work is not
//! duplicated (its terminal record survived), and unfinished units
//! inside a replayed job are further deduplicated by the store
//! directory's unit records, which are keyed by unit content.
//!
//! The journal is one append-only log, `<dir>/journal.log`: a header
//! line, then one line per record, each written with a single `write`
//! to a handle kept open for the journal's lifetime. The last record
//! for a spec wins. Every record carries the FNV-1a hash of the rest of
//! its line, so a torn tail, or a record glued onto one by a later
//! append, fails its checksum and is skipped (and counted, for the
//! service's `journal.errors`), never misread. There is no fsync: a record survives a
//! SIGKILL once its `write` returns.
//!
//! ```text
//! eureka-journal v2
//! <fnv1a64 of the rest, 16 hex> <accepted|completed|cancelled|failed|deadline-exceeded> <escaped canonical job spec>
//! ```
//!
//! The log stays bounded: when the journal opens it (on its first
//! record) and whenever it grows past a fixed size, it is rewritten
//! atomically as the header plus one `accepted` record per pending
//! spec.

use crate::checkpoint::{escape, unescape};
use crate::hash::fnv1a64;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Format marker; bump on incompatible changes. A log with a foreign
/// header is skipped (with an error tick), never misread.
const HEADER: &str = "eureka-journal v2";

/// The log's file name inside the journal directory.
const LOG: &str = "journal.log";

/// Longest record line (without its `\n`) the journal writes or reads;
/// records are one short line, so anything past this is corruption.
const MAX_ENTRY_BYTES: usize = 1 << 16;

/// Log size past which a record compacts it: at about 100 bytes a
/// record, one compaction per ~10k records.
const COMPACT_BYTES: u64 = 1 << 20;

/// Lifecycle state of a journaled job. `Accepted` is the only
/// non-terminal state: recovery replays exactly the `Accepted` entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalState {
    /// Admitted to the queue; work may or may not have started.
    Accepted,
    /// Ran to completion; results are in the store/checkpoints.
    Completed,
    /// Cancelled by an operator before completing.
    Cancelled,
    /// Exhausted its retry budget or hit a permanent fault.
    Failed,
    /// Cooperatively stopped when its deadline passed.
    DeadlineExceeded,
}

impl JournalState {
    /// Stable on-disk label (also the event/metric suffix).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JournalState::Accepted => "accepted",
            JournalState::Completed => "completed",
            JournalState::Cancelled => "cancelled",
            JournalState::Failed => "failed",
            JournalState::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Inverse of [`label`](Self::label).
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        Some(match label {
            "accepted" => JournalState::Accepted,
            "completed" => JournalState::Completed,
            "cancelled" => JournalState::Cancelled,
            "failed" => JournalState::Failed,
            "deadline-exceeded" => JournalState::DeadlineExceeded,
            _ => return None,
        })
    }

    /// Whether the job has left the system (no replay on recovery).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JournalState::Accepted)
    }
}

/// An append-only job log (`<dir>/journal.log`).
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    /// The append handle, opened (after a compaction) by the first
    /// record, and its byte length.
    log: Mutex<Option<(File, u64)>>,
}

impl Journal {
    /// A journal rooted at `dir` (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Journal {
            dir: dir.into(),
            log: Mutex::new(None),
        }
    }

    /// The journal's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG)
    }

    /// Appends a record of `spec` at `state` with one `write`; it
    /// supersedes every earlier record for the same spec.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, compaction or write failures, and
    /// rejects specs containing NUL or too long to read back. The
    /// service treats a failed *accept* record as an admission failure
    /// (the durability promise would be a lie), but failed terminal
    /// records as non-fatal (worst case the job is replayed once).
    pub fn record(&self, spec: &str, state: JournalState) -> io::Result<()> {
        let line = encode(spec, state);
        if line.len() > MAX_ENTRY_BYTES || spec.contains('\0') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal record would not read back (NUL or oversized spec)",
            ));
        }
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let (file, len) = match log.as_mut() {
            Some(open) => open,
            None => log.insert(self.compact()?),
        };
        if let Err(e) = file.write_all(line.as_bytes()) {
            // A partial line may be on disk: reopening compacts it away
            // before the next record, so nothing is glued onto it.
            *log = None;
            return Err(e);
        }
        *len += line.len() as u64;
        if *len > COMPACT_BYTES {
            // The record is written; a failed compaction only leaves the
            // handle closed, and the next record retries it.
            *log = self.compact().ok();
        }
        Ok(())
    }

    /// Rewrites the log with one atomic write as the header plus one
    /// `accepted` record per pending spec, and opens it for appending.
    /// Bad lines are dropped here without a tick: [`recover`] counted
    /// those it saw, and the rest come from writes that already failed.
    ///
    /// [`recover`]: Self::recover
    fn compact(&self) -> io::Result<(File, u64)> {
        let mut text = format!("{HEADER}\n");
        for spec in self.replay()?.map_or_else(Vec::new, |r| r.pending()) {
            text.push_str(&encode(&spec, JournalState::Accepted));
        }
        let path = self.log_path();
        eureka_obs::atomic::write_atomic(&path, text.as_bytes())?;
        let file = File::options().append(true).open(&path)?;
        Ok((file, text.len() as u64))
    }

    /// Reads and replays the log; `None` when there is none yet.
    fn replay(&self) -> io::Result<Option<Replay>> {
        match std::fs::read(self.log_path()) {
            Ok(bytes) => Ok(Some(Replay::of(&bytes))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Replays the log and returns the specs of every job that was
    /// accepted but never reached a terminal state, sorted for
    /// deterministic replay order, and the number of errors met (`None`
    /// when there is no log yet). Fail-soft: an unreadable log, and each
    /// bad line (torn, checksum mismatch, unknown state, NUL-bearing,
    /// non-UTF-8 or oversized), is one error and is skipped — recovery
    /// never aborts.
    #[must_use]
    pub fn recover(&self) -> (Vec<String>, Option<u64>) {
        let replay = match self.replay() {
            Ok(Some(replay)) => replay,
            Ok(None) => return (Vec::new(), None), // no journal yet: nothing to replay
            Err(_) => Replay {
                errors: 1,
                ..Replay::default()
            },
        };
        (replay.pending(), Some(replay.errors))
    }

    /// Number of distinct specs recorded in the log.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.replay().ok().flatten().map_or(0, |r| r.last.len())
    }

    /// Number of `.job` files the one-file-per-spec v1 journal left in
    /// the directory. The log never reads them.
    pub(crate) fn v1_entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "job"))
                .count()
        })
    }
}

/// One record line: `<checksum> <state> <escaped spec>\n`.
fn encode(spec: &str, state: JournalState) -> String {
    let rest = format!("{} {}", state.label(), escape(spec));
    format!("{:016x} {rest}\n", fnv1a64(rest.as_bytes()))
}

/// Parses one record line (without its `\n`); `None` for a bad line.
fn decode(line: &[u8]) -> Option<(String, JournalState)> {
    if line.len() > MAX_ENTRY_BYTES {
        return None;
    }
    let line = std::str::from_utf8(line).ok()?;
    if line.contains('\0') {
        return None;
    }
    let (sum, rest) = line.split_once(' ')?;
    if sum.len() != 16
        || !sum.bytes().all(|b| b.is_ascii_hexdigit())
        || u64::from_str_radix(sum, 16).ok()? != fnv1a64(rest.as_bytes())
    {
        return None;
    }
    let (state, spec) = rest.split_once(' ')?;
    Some((unescape(spec).into_owned(), JournalState::parse(state)?))
}

/// A replayed log: each spec's last state, and the bad lines skipped.
#[derive(Debug, Default, PartialEq)]
struct Replay {
    last: BTreeMap<String, JournalState>,
    errors: u64,
}

impl Replay {
    fn of(bytes: &[u8]) -> Replay {
        let mut replay = Replay::default();
        if bytes.is_empty() {
            return replay;
        }
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        if lines.next() != Some(format!("{HEADER}\n").as_bytes()) {
            replay.errors = 1; // foreign or torn header: read nothing
            return replay;
        }
        for line in lines {
            match line.strip_suffix(b"\n").and_then(decode) {
                Some((spec, state)) => {
                    replay.last.insert(spec, state);
                }
                None => replay.errors += 1,
            }
        }
        replay
    }

    /// Specs whose last record is `accepted`, sorted.
    fn pending(&self) -> Vec<String> {
        self.last
            .iter()
            .filter(|(_, state)| !state.is_terminal())
            .map(|(spec, _)| spec.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("eureka-journal-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Journal::new(dir)
    }

    fn append(j: &Journal, bytes: &[u8]) {
        File::options()
            .append(true)
            .open(j.log_path())
            .and_then(|mut f| f.write_all(bytes))
            .expect("append to journal.log");
    }

    /// A line with a valid checksum over arbitrary bytes, so only the
    /// check under test can reject it.
    fn checksummed(rest: &[u8]) -> Vec<u8> {
        let mut line = format!("{:016x} ", fnv1a64(rest)).into_bytes();
        line.extend_from_slice(rest);
        line.push(b'\n');
        line
    }

    #[test]
    fn state_labels_round_trip() {
        for state in [
            JournalState::Accepted,
            JournalState::Completed,
            JournalState::Cancelled,
            JournalState::Failed,
            JournalState::DeadlineExceeded,
        ] {
            assert_eq!(JournalState::parse(state.label()), Some(state));
            assert_eq!(state.is_terminal(), state != JournalState::Accepted);
        }
        assert_eq!(JournalState::parse("exploded"), None);
    }

    #[test]
    fn accepted_jobs_replay_and_terminal_jobs_do_not() {
        let j = tmp_journal("replay");
        assert_eq!(
            j.recover(),
            (Vec::new(), None),
            "no journal replays nothing"
        );
        j.record("job-b", JournalState::Accepted).unwrap();
        j.record("job-a", JournalState::Accepted).unwrap();
        j.record("job-c", JournalState::Accepted).unwrap();
        j.record("job-c", JournalState::Completed).unwrap();
        assert_eq!(
            j.recover().0,
            vec!["job-a".to_string(), "job-b".to_string()],
            "only accepted-not-terminal jobs replay, in sorted order"
        );
        j.record("job-a", JournalState::Failed).unwrap();
        j.record("job-b", JournalState::DeadlineExceeded).unwrap();
        assert!(j.recover().0.is_empty(), "terminal states end the story");
        assert_eq!(j.entry_count(), 3);
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn the_last_record_for_a_spec_wins() {
        let j = tmp_journal("idem");
        j.record("same spec", JournalState::Accepted).unwrap();
        j.record("same spec", JournalState::Completed).unwrap();
        j.record("same spec", JournalState::Accepted).unwrap();
        assert_eq!(j.entry_count(), 1, "one spec, one entry");
        assert_eq!(j.recover(), (vec!["same spec".to_string()], Some(0)));
        let files: Vec<_> = std::fs::read_dir(j.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, [LOG], "the journal is one file");
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn specs_with_newlines_and_backslashes_survive() {
        let j = tmp_journal("escape");
        let weird = "spec\nwith\\newline and \\n literal";
        j.record(weird, JournalState::Accepted).unwrap();
        assert_eq!(j.recover(), (vec![weird.to_string()], Some(0)));
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn unreadable_specs_are_refused_at_write() {
        let j = tmp_journal("refuse");
        assert!(j.record("nul\0spec", JournalState::Accepted).is_err());
        let huge = "x".repeat(MAX_ENTRY_BYTES);
        assert!(j.record(&huge, JournalState::Accepted).is_err());
        assert!(j.recover().0.is_empty());
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn corrupt_entries_are_skipped_with_an_error_tick() {
        let j = tmp_journal("corrupt");
        j.record("healthy", JournalState::Accepted).unwrap();

        let mut bad = b"garbage\n".to_vec();
        bad.extend(checksummed(b"accepted nul\0spec"));
        bad.extend(checksummed(b"accepted \xff\xfe"));
        bad.extend(checksummed(b"exploded x"));
        bad.extend(b"0123456789abcdef accepted mismatch\n");
        let mut oversized = b"accepted ".to_vec();
        oversized.resize(MAX_ENTRY_BYTES, b'x');
        bad.extend(checksummed(&oversized));
        bad.extend(&encode("torn", JournalState::Accepted).as_bytes()[..20]);
        append(&j, &bad);

        let log = std::fs::read(j.log_path()).unwrap();
        assert_eq!(Replay::of(&log).errors, 7, "one error per bad line");
        assert_eq!(
            j.recover(),
            (vec!["healthy".to_string()], Some(7)),
            "recovery skips corruption, counts each corrupt line and keeps the healthy entry"
        );
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn a_foreign_header_is_read_as_nothing() {
        let mut log = b"eureka-journal v1\n".to_vec();
        log.extend(encode("spec", JournalState::Accepted).as_bytes());
        let replay = Replay::of(&log);
        assert!(replay.last.is_empty());
        assert_eq!(replay.errors, 1);
    }

    /// Records `(spec, state)` in order and returns the log bytes plus
    /// the byte offset at which each record's line ends.
    fn log_of(records: &[(&str, JournalState)]) -> (Vec<u8>, Vec<usize>) {
        let mut log = format!("{HEADER}\n").into_bytes();
        let mut ends = Vec::new();
        for (spec, state) in records {
            log.extend(encode(spec, *state).as_bytes());
            ends.push(log.len());
        }
        (log, ends)
    }

    #[test]
    fn truncation_at_every_byte_loses_at_most_the_torn_record() {
        use JournalState::{Accepted, Cancelled, Completed};
        let records = [
            ("a", Accepted),
            ("b", Accepted),
            ("a", Completed),
            ("spec with\nnewline", Accepted),
            ("c", Accepted),
            ("b", Cancelled),
            ("a", Accepted),
            ("c", Completed),
        ];
        let (log, ends) = log_of(&records);
        let header = HEADER.len() + 1;
        for cut in 0..=log.len() {
            let replay = Replay::of(&log[..cut]);
            // Oracle: fold exactly the records whose line is complete.
            let mut want = BTreeMap::new();
            for ((spec, state), end) in records.iter().zip(&ends) {
                if *end <= cut {
                    want.insert((*spec).to_string(), *state);
                }
            }
            assert_eq!(replay.last, want, "cut at byte {cut}");
            let torn = cut != 0 && cut != header && !ends.contains(&cut);
            assert_eq!(replay.errors, u64::from(torn), "cut at byte {cut}");
        }
    }

    #[test]
    fn a_record_glued_onto_a_torn_line_fails_its_checksum() {
        let torn = encode("first", JournalState::Accepted);
        let next = encode("second", JournalState::Accepted);
        for cut in 1..torn.len() {
            let mut log = format!("{HEADER}\n").into_bytes();
            log.extend(&torn.as_bytes()[..cut]);
            log.extend(next.as_bytes());
            let replay = Replay::of(&log);
            assert!(replay.last.is_empty(), "cut at byte {cut}: {replay:?}");
            assert_eq!(replay.errors, 1, "cut at byte {cut}");
        }
    }

    #[test]
    fn compaction_keeps_the_pending_set_and_bounds_the_log() {
        let j = tmp_journal("compact");
        for i in 0..40 {
            j.record(&format!("job-{i}"), JournalState::Accepted)
                .unwrap();
            if i % 3 == 0 {
                j.record(&format!("job-{i}"), JournalState::Completed)
                    .unwrap();
            }
        }
        let (pending, _) = j.recover();
        assert_eq!(pending.len(), 26);
        drop(j.compact().unwrap());
        assert_eq!(j.recover().0, pending, "compaction keeps the pending set");
        assert_eq!(j.entry_count(), pending.len(), "and drops finished specs");

        // Churn one spec far past the bound: the log never keeps more
        // than the bound plus one record.
        let line = encode("churn", JournalState::Completed).len() as u64;
        for _ in 0..COMPACT_BYTES / line {
            j.record("churn", JournalState::Accepted).unwrap();
            j.record("churn", JournalState::Completed).unwrap();
        }
        let size = std::fs::metadata(j.log_path()).unwrap().len();
        assert!(size <= COMPACT_BYTES + line, "log grew to {size} bytes");
        assert_eq!(j.recover().0, pending, "churn leaves the pending set alone");
        std::fs::remove_dir_all(j.dir()).ok();
    }
}
