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
//! The journal is one [`applog`] log, `<dir>/journal.log`: a header
//! line, then one sealed line per record. The last record for a spec
//! wins, and a damaged line is skipped and counted (the service's
//! `journal.errors`), never misread.
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

use eureka_obs::applog::{self, AppLog};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Format marker; bump on incompatible changes. A log with a foreign
/// header is skipped (with an error tick), never misread.
const HEADER: &str = "eureka-journal v2";

/// The log's file name inside the journal directory.
const LOG: &str = "journal.log";

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
    path: PathBuf,
    /// The log, opened (after a compaction) by the first record.
    log: Mutex<Option<AppLog>>,
}

impl Journal {
    /// A journal rooted at `dir` (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Journal {
            path: dir.into().join(LOG),
            log: Mutex::new(None),
        }
    }

    /// Appends a record of `spec` at `state` with one `write`; it
    /// supersedes every earlier record for the same spec.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, compaction or write failures. The
    /// service treats a failed *accept* record as an admission failure
    /// (the durability promise would be a lie), but failed terminal
    /// records as non-fatal (worst case the job is replayed once).
    pub fn record(&self, spec: &str, state: JournalState) -> io::Result<()> {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let len = match log.as_mut() {
            Some(open) => open,
            None => log.insert(self.compact()?),
        }
        .append(encode(spec, state).as_bytes())?;
        if len > COMPACT_BYTES {
            // The record is written; a failed compaction only leaves the
            // log unopened, and the next record retries it.
            *log = self.compact().ok();
        }
        Ok(())
    }

    /// Rewrites the log with one atomic write as the header plus one
    /// `accepted` record per pending spec. Bad lines are dropped here
    /// without a tick: [`recover`] counted those it saw, and the rest
    /// come from writes that already failed.
    ///
    /// [`recover`]: Self::recover
    fn compact(&self) -> io::Result<AppLog> {
        let mut text = format!("{HEADER}\n");
        for spec in self.replay()?.0 {
            text.push_str(&encode(&spec, JournalState::Accepted));
        }
        let mut log = AppLog::new(&self.path);
        log.rewrite(text.as_bytes())?;
        Ok(log)
    }

    /// Replays the log: the specs whose last record is `accepted`,
    /// sorted, and the number of bad lines (`None` when there is no log).
    fn replay(&self) -> io::Result<(Vec<String>, Option<u64>)> {
        let mut last = BTreeMap::new();
        let errors = applog::replay(&self.path, Some(HEADER), |_| {
            |payload: &str| {
                decode(payload)
                    .map(|(spec, state)| last.insert(spec, state))
                    .is_some()
            }
        })?;
        let pending = last
            .into_iter()
            .filter(|(_, state)| !state.is_terminal())
            .map(|(spec, _)| spec)
            .collect();
        Ok((pending, errors))
    }

    /// Replays the log and returns the specs of every job that was
    /// accepted but never reached a terminal state, sorted for
    /// deterministic replay order, and the number of errors met (`None`
    /// when there is no log yet). Fail-soft: an unreadable log, and each
    /// bad line (torn, unsealed or of an unknown state), is one error and
    /// is skipped — recovery never aborts.
    #[must_use]
    pub fn recover(&self) -> (Vec<String>, Option<u64>) {
        self.replay().unwrap_or((Vec::new(), Some(1)))
    }
}

/// One sealed record line: `<seal> <state> <escaped spec>\n`.
fn encode(spec: &str, state: JournalState) -> String {
    applog::seal(&format!("{} {}", state.label(), applog::escape(spec)))
}

/// Parses one record's payload; `None` for a bad one.
fn decode(payload: &str) -> Option<(String, JournalState)> {
    let (state, spec) = payload.split_once(' ')?;
    Some((
        applog::unescape(spec).into_owned(),
        JournalState::parse(state)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_journal(tag: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("eureka-journal-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Journal::new(dir)
    }

    fn dir(j: &Journal) -> &std::path::Path {
        j.path.parent().unwrap()
    }

    fn append(j: &Journal, bytes: &[u8]) {
        std::fs::File::options()
            .append(true)
            .open(&j.path)
            .and_then(|mut f| f.write_all(bytes))
            .expect("append to journal.log");
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
    fn records_are_byte_identical_v2_lines() {
        let line = encode("eureka-job v1|arch=Eureka P=4", JournalState::Accepted);
        let rest = "accepted eureka-job v1|arch=Eureka P=4";
        assert_eq!(
            line,
            format!("{:016x} {rest}\n", applog::fnv1a64(rest.as_bytes()))
        );
        assert_eq!(
            decode(&line[17..line.len() - 1]),
            Some((
                "eureka-job v1|arch=Eureka P=4".to_string(),
                JournalState::Accepted
            ))
        );
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
        std::fs::remove_dir_all(dir(&j)).ok();
    }

    #[test]
    fn the_last_record_for_a_spec_wins() {
        let j = tmp_journal("idem");
        j.record("same spec", JournalState::Accepted).unwrap();
        j.record("same spec", JournalState::Completed).unwrap();
        j.record("same spec", JournalState::Accepted).unwrap();
        assert_eq!(j.recover(), (vec!["same spec".to_string()], Some(0)));
        let files: Vec<_> = std::fs::read_dir(dir(&j))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, [LOG], "the journal is one file");
        std::fs::remove_dir_all(dir(&j)).ok();
    }

    #[test]
    fn specs_with_newlines_and_backslashes_survive() {
        let j = tmp_journal("escape");
        let weird = "spec\nwith\\newline and \\n literal";
        j.record(weird, JournalState::Accepted).unwrap();
        assert_eq!(j.recover(), (vec![weird.to_string()], Some(0)));
        std::fs::remove_dir_all(dir(&j)).ok();
    }

    #[test]
    fn bad_records_are_skipped_with_an_error_tick() {
        let j = tmp_journal("corrupt");
        j.record("healthy", JournalState::Accepted).unwrap();
        let mut bad = b"garbage\n0123456789abcdef accepted mismatch\n".to_vec();
        bad.extend(applog::seal("exploded x").into_bytes());
        bad.extend(applog::seal("accepted-no-spec").into_bytes());
        append(&j, &bad);
        assert_eq!(
            j.recover(),
            (vec!["healthy".to_string()], Some(4)),
            "recovery skips each bad line, counts it and keeps the healthy entry"
        );
        std::fs::remove_dir_all(dir(&j)).ok();
    }

    #[test]
    fn a_foreign_header_is_read_as_nothing() {
        let j = tmp_journal("foreign");
        std::fs::create_dir_all(dir(&j)).unwrap();
        let mut log = b"eureka-journal v1\n".to_vec();
        log.extend(encode("spec", JournalState::Accepted).as_bytes());
        std::fs::write(&j.path, log).unwrap();
        assert_eq!(j.recover(), (Vec::new(), Some(1)));
        j.record("next", JournalState::Accepted).unwrap();
        assert_eq!(
            j.recover(),
            (vec!["next".to_string()], Some(0)),
            "the first record compacts the foreign log away"
        );
        std::fs::remove_dir_all(dir(&j)).ok();
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
        let lines = std::fs::read_to_string(&j.path).unwrap().lines().count();
        assert_eq!(lines, 1 + pending.len(), "and drops finished specs");

        // Churn one spec far past the bound: the log never keeps more
        // than the bound plus one record.
        let line = encode("churn", JournalState::Completed).len() as u64;
        for _ in 0..COMPACT_BYTES / line {
            j.record("churn", JournalState::Accepted).unwrap();
            j.record("churn", JournalState::Completed).unwrap();
        }
        let size = std::fs::metadata(&j.path).unwrap().len();
        assert!(size <= COMPACT_BYTES + line, "log grew to {size} bytes");
        assert_eq!(j.recover().0, pending, "churn leaves the pending set alone");
        std::fs::remove_dir_all(dir(&j)).ok();
    }
}
