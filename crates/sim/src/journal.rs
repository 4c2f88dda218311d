//! Write-ahead job journal for the resident service.
//!
//! Every job the service *accepts* is recorded here before any work
//! happens, and its terminal state is recorded when the job leaves the
//! system. If the server is SIGKILL'd mid-run, a restarting service
//! calls [`Journal::recover`] and replays exactly the jobs that were
//! accepted but never reached a terminal state — completed work is not
//! duplicated (its terminal record survived), and unfinished units
//! inside a replayed job are further deduplicated by the checkpoint
//! store, which is keyed by unit content.
//!
//! The format mirrors the checkpoint store deliberately: one file per
//! job named by the FNV-1a hash of the job's canonical spec, written
//! with the same atomic temp-file + rename discipline, read with the
//! same fail-soft policy (a malformed entry ticks `journal.errors` and
//! is skipped, never aborts recovery).
//!
//! ```text
//! eureka-journal v1
//! spec <escaped canonical job spec>
//! state <accepted|completed|cancelled|failed|deadline-exceeded>
//! ```

use crate::checkpoint::{escape, unescape};
use crate::hash::fnv1a64;
use eureka_obs::metrics::{self, Class};
use std::path::{Path, PathBuf};

/// Format marker; bump on incompatible changes. Entries with a foreign
/// header are skipped (with an error tick), never misread.
const HEADER: &str = "eureka-journal v1";

/// Largest journal entry `recover` will read; entries are two short
/// lines, so anything past this is corruption.
const MAX_ENTRY_BYTES: u64 = 1 << 20;

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

/// A directory of per-job journal entries (`{fnv:016x}.job` files).
#[derive(Clone, Debug)]
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// A journal rooted at `dir` (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Journal { dir: dir.into() }
    }

    /// The journal's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content-keyed path for a job spec, like the checkpoint store's
    /// unit files: resubmitting an identical spec reuses one entry.
    #[must_use]
    pub fn path_for(&self, spec: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.job", fnv1a64(spec.as_bytes())))
    }

    /// Records `spec` at `state`, atomically replacing any previous
    /// record for the same spec (temp file + rename: a crash mid-write
    /// leaves the prior record readable, never a torn one).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, or rename failures. The
    /// service treats a failed *accept* record as an admission failure
    /// (the durability promise would be a lie), but failed terminal
    /// records as non-fatal (worst case the job is replayed once).
    pub fn record(&self, spec: &str, state: JournalState) -> std::io::Result<()> {
        let text = format!("{HEADER}\nspec {}\nstate {}\n", escape(spec), state.label());
        eureka_obs::atomic::write_atomic(&self.path_for(spec), text.as_bytes())
    }

    /// Parses one journal entry.
    fn decode(text: &str) -> Option<(String, JournalState)> {
        let mut lines = text.lines();
        if lines.next()? != HEADER {
            return None;
        }
        let spec = unescape(lines.next()?.strip_prefix("spec ")?).into_owned();
        let state = JournalState::parse(lines.next()?.strip_prefix("state ")?)?;
        if lines.next().is_some() {
            return None;
        }
        Some((spec, state))
    }

    /// Scans the journal and returns the specs of every job that was
    /// accepted but never reached a terminal state, sorted for
    /// deterministic replay order. Fail-soft: entries that are
    /// oversized, NUL-bearing, non-UTF-8, or malformed tick
    /// `journal.errors` and are skipped — recovery never aborts.
    #[must_use]
    pub fn recover(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new(); // no journal yet: nothing to replay
        };
        let errors = metrics::counter("journal.errors", Class::Deterministic);
        let mut pending = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|x| x != "job") {
                continue; // in-flight temporaries, foreign files
            }
            if entry
                .metadata()
                .map(|m| m.len() > MAX_ENTRY_BYTES)
                .unwrap_or(true)
            {
                errors.inc();
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                errors.inc();
                continue;
            };
            let decoded = std::str::from_utf8(&bytes)
                .ok()
                .filter(|text| !text.contains('\0'))
                .and_then(Self::decode);
            match decoded {
                Some((spec, JournalState::Accepted)) => pending.push(spec),
                Some((_, _terminal)) => {}
                None => errors.inc(),
            }
        }
        pending.sort();
        pending
    }

    /// Number of entries currently on disk (`.job` files only).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "job"))
            .count()
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
        assert!(j.recover().is_empty(), "empty journal replays nothing");
        j.record("job-b", JournalState::Accepted).unwrap();
        j.record("job-a", JournalState::Accepted).unwrap();
        j.record("job-c", JournalState::Accepted).unwrap();
        j.record("job-c", JournalState::Completed).unwrap();
        assert_eq!(
            j.recover(),
            vec!["job-a".to_string(), "job-b".to_string()],
            "only accepted-not-terminal jobs replay, in sorted order"
        );
        j.record("job-a", JournalState::Failed).unwrap();
        j.record("job-b", JournalState::DeadlineExceeded).unwrap();
        assert!(j.recover().is_empty(), "terminal states end the story");
        assert_eq!(j.entry_count(), 3);
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn records_are_content_keyed_and_idempotent() {
        let j = tmp_journal("idem");
        j.record("same spec", JournalState::Accepted).unwrap();
        j.record("same spec", JournalState::Accepted).unwrap();
        assert_eq!(j.entry_count(), 1, "one spec, one file");
        assert_eq!(j.recover(), vec!["same spec".to_string()]);
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn specs_with_newlines_and_backslashes_survive() {
        let j = tmp_journal("escape");
        let weird = "spec\nwith\\newline and \\n literal";
        j.record(weird, JournalState::Accepted).unwrap();
        assert_eq!(j.recover(), vec![weird.to_string()]);
        std::fs::remove_dir_all(j.dir()).ok();
    }

    #[test]
    fn corrupt_entries_are_skipped_with_an_error_tick() {
        let j = tmp_journal("corrupt");
        j.record("healthy", JournalState::Accepted).unwrap();
        let errors = || metrics::counter("journal.errors", Class::Deterministic).get();

        std::fs::write(j.dir().join("0000000000000001.job"), "garbage\n").unwrap();
        std::fs::write(j.dir().join("0000000000000002.job"), b"eureka\0journal").unwrap();
        std::fs::write(j.dir().join("0000000000000003.job"), [0xff, 0xfe]).unwrap();
        std::fs::write(
            j.dir().join("0000000000000004.job"),
            format!("{HEADER}\nspec x\nstate exploded\n"),
        )
        .unwrap();
        let big = vec![b'x'; (MAX_ENTRY_BYTES + 1) as usize];
        std::fs::write(j.dir().join("0000000000000005.job"), big).unwrap();

        let before = errors();
        assert_eq!(
            j.recover(),
            vec!["healthy".to_string()],
            "recovery skips corruption and keeps the healthy entry"
        );
        assert!(
            errors() >= before + 5,
            "each corrupt entry ticks journal.errors"
        );
        std::fs::remove_dir_all(j.dir()).ok();
    }
}
