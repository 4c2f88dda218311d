//! Per-unit result records: persist completed work-unit results so an
//! interrupted run can resume, and a warm rerun can replay whole units,
//! without recomputing.
//!
//! Each successfully executed unit is serialized to one record keyed by
//! the unit's canonical content key (the same identity the in-memory
//! cache uses, rendered as a stable string). A resuming runner consults
//! the directory before executing a unit and replays the stored
//! [`LayerReport`] bit-identically — every field is an exact integer or
//! string, so the text round-trip is lossless. Records are laid out one
//! of two ways:
//!
//! * **per unit** ([`CheckpointStore::new`], `--checkpoint-dir`): one
//!   `<fnv1a64(key)>.unit` file, written as soon as its unit completes,
//!   so a killed run keeps every unit it finished;
//! * **batched** ([`CheckpointStore::batched`], `--store-dir`): the
//!   records a run computes are staged and written by
//!   [`CheckpointStore::flush`] as one `<fnv1a64(bytes)>.units` file
//!   beside the tile shards. A run creates one file instead of one per
//!   unit: on a 2-vCPU VM (ext4), creating a paper Figure 11 sweep's
//!   4,240 per-unit files right after a similar directory was deleted
//!   cost 1–3 s of kernel time and raised the sweep's median wall time
//!   from 5.5 s to 7.2 s. A run killed before its flush leaves no
//!   records.
//!
//! # Crash safety
//!
//! Files are written through [`eureka_obs::atomic::write_atomic`], so a unit
//! killed mid-write never leaves a readable (and thus never a poisonous)
//! entry. Failed units are never written at all. On load, the stored key
//! line is compared against the requesting unit's canonical key: a
//! mismatch (hash collision, stale directory from an incompatible run) is
//! treated as a miss, never as data.

use crate::hash::fnv1a64;
use crate::report::{LayerReport, OpCounts};
use eureka_obs::metrics::{self, Class};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Largest checkpoint entry `load` will even read. Real entries are a
/// few hundred bytes; anything bigger is filesystem corruption or a
/// foreign file that collided with our name, and slurping it would
/// trade a bounded recompute for an unbounded allocation.
const MAX_ENTRY_BYTES: u64 = 1 << 20;

/// Largest batch file (`*.units`) a batched store will read: room for
/// over a million records, and still a bound on the allocation.
const MAX_BATCH_BYTES: u64 = 1 << 30;

/// Format marker; bump when the serialization changes incompatibly.
/// Readers ignore entries with any other header, so mixing versions in
/// one directory degrades to recomputation, never to wrong data.
/// (v2 added `bubble_cycles` as the ninth field; v1 entries are
/// recomputed.)
const HEADER: &str = "eureka-checkpoint v2";

/// Escapes newlines and backslashes so arbitrary layer names fit the
/// line-oriented format. Shared with the job journal, which uses the
/// same line-oriented envelope.
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Serializes one completed unit (its canonical key plus its report) to
/// the checkpoint text format.
#[must_use]
pub fn encode(key: &str, report: &LayerReport) -> String {
    let o = &report.ops;
    format!(
        "{HEADER}\nkey {}\nname {}\nfields {} {} {} {} {} {} {} {} {}\nops {} {} {} {} {} {} {} {}\n",
        escape(key),
        escape(&report.name),
        report.compute_cycles,
        report.mem_cycles,
        report.mac_ops,
        report.idle_mac_cycles,
        report.bubble_cycles,
        report.weight_bytes,
        report.act_bytes,
        report.out_bytes,
        report.metadata_bytes,
        o.mux2,
        o.mux4,
        o.mux8,
        o.mux16,
        o.csa,
        o.crossbar,
        o.prefix,
        o.buffer,
    )
}

/// Parses a checkpoint entry, returning the report only if the text is
/// well-formed **and** its key line matches `expected_key` exactly.
/// Anything else — truncation, version skew, a hash collision — is `None`
/// (a recompute, never a wrong replay).
#[must_use]
pub fn decode(text: &str, expected_key: &str) -> Option<LayerReport> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let key = lines.next()?.strip_prefix("key ")?;
    if unescape(key) != expected_key {
        return None;
    }
    let name = unescape(lines.next()?.strip_prefix("name ")?);
    let fields: Vec<u64> = lines
        .next()?
        .strip_prefix("fields ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let ops: Vec<u64> = lines
        .next()?
        .strip_prefix("ops ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() != 9 || ops.len() != 8 || lines.next().is_some() {
        return None;
    }
    Some(LayerReport {
        name,
        compute_cycles: fields[0],
        mem_cycles: fields[1],
        mac_ops: fields[2],
        idle_mac_cycles: fields[3],
        bubble_cycles: fields[4],
        weight_bytes: fields[5],
        act_bytes: fields[6],
        out_bytes: fields[7],
        metadata_bytes: fields[8],
        ops: OpCounts {
            mux2: ops[0],
            mux4: ops[1],
            mux8: ops[2],
            mux16: ops[3],
            csa: ops[4],
            crossbar: ops[5],
            prefix: ops[6],
            buffer: ops[7],
        },
    })
}

/// [`decode`] for a record whose key is not known in advance: the key
/// comes from the record's own key line.
fn decode_keyed(text: &str) -> Option<(String, LayerReport)> {
    let key = unescape(text.lines().nth(1)?.strip_prefix("key ")?);
    let report = decode(text, &key)?;
    Some((key, report))
}

/// A directory of unit records, per unit or batched (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// `Some` for the batched layout; clones share the staged records.
    batch: Option<Arc<Batch>>,
}

/// The batched layout's state.
#[derive(Debug, Default)]
struct Batch {
    /// Every record in the directory's `*.units` files, read on the
    /// first load.
    on_disk: OnceLock<HashMap<String, LayerReport>>,
    /// Encoded records stored since the last flush, by unit key (so a
    /// flushed batch's bytes do not depend on completion order). Every
    /// update is one map operation, so a poisoned lock still guards a
    /// valid map.
    staged: Mutex<BTreeMap<String, String>>,
}

impl Batch {
    fn staged(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, String>> {
        self.staged.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Every decodable record in `dir`'s `*.units` files. Fail-soft like
/// [`CheckpointStore::load`]: an oversized or unreadable file, and each
/// malformed record, ticks `checkpoint.errors`; the records around a
/// damaged one still load.
fn read_batches(dir: &Path) -> HashMap<String, LayerReport> {
    let errors = metrics::counter("checkpoint.errors", Class::Deterministic);
    let header_line = format!("{HEADER}\n");
    let mut records = HashMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return records; // no directory yet: nothing stored
    };
    for path in entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "units"))
    {
        let text = std::fs::metadata(&path)
            .ok()
            .filter(|m| m.len() <= MAX_BATCH_BYTES)
            .and_then(|_| std::fs::read(&path).ok())
            .and_then(|bytes| String::from_utf8(bytes).ok());
        let Some(text) = text else {
            errors.inc();
            continue;
        };
        // A record runs from its header line to the next one, so damage
        // stays inside the record it hit.
        let mut starts: Vec<usize> = text
            .match_indices(&header_line)
            .map(|(i, _)| i)
            .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
            .collect();
        if starts.first() != Some(&0) {
            starts.insert(0, 0);
        }
        starts.push(text.len());
        for span in starts.windows(2) {
            let record = &text[span[0]..span[1]];
            match decode_keyed(record) {
                Some((key, report)) if record.ends_with('\n') && !record.contains('\0') => {
                    records.insert(key, report);
                }
                _ => errors.inc(),
            }
        }
    }
    records
}

impl CheckpointStore {
    /// A per-unit store rooted at `dir` (created on first write).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            dir: dir.into(),
            batch: None,
        }
    }

    /// A batched store rooted at `dir` (created on first flush): stored
    /// records reach the disk only through [`CheckpointStore::flush`].
    #[must_use]
    pub fn batched(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            dir: dir.into(),
            batch: Some(Arc::default()),
        }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.unit", fnv1a64(key.as_bytes())))
    }

    /// Loads the completed result for `key`, if a valid entry exists.
    ///
    /// Fail-soft, mirroring the tile store's policy: a missing file is a
    /// plain miss, but a file that exists and is unusable — oversized,
    /// NUL-bearing, non-UTF-8, truncated, or otherwise undecodable —
    /// ticks `checkpoint.errors` and is *also* a miss. Resume never
    /// aborts on a corrupt directory; it recomputes the damaged units.
    /// A batched store reads all its batch files on the first load,
    /// ticking the counter once per damaged record, and answers from
    /// memory after that.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<LayerReport> {
        if let Some(batch) = &self.batch {
            let on_disk = batch.on_disk.get_or_init(|| read_batches(&self.dir));
            return on_disk.get(key).cloned();
        }
        let path = self.path_for(key);
        let oversized = std::fs::metadata(&path)
            .map(|m| m.len() > MAX_ENTRY_BYTES)
            .unwrap_or(false);
        if oversized {
            metrics::counter("checkpoint.errors", Class::Deterministic).inc();
            return None;
        }
        // Absent (or racily deleted) file: a plain miss, not an error.
        let bytes = std::fs::read(&path).ok()?;
        let report = std::str::from_utf8(&bytes)
            .ok()
            .filter(|text| !text.contains('\0'))
            .and_then(|text| decode(text, key));
        if report.is_none() {
            metrics::counter("checkpoint.errors", Class::Deterministic).inc();
        }
        report
    }

    /// Persists a completed unit result atomically: a crash mid-write
    /// leaves no readable entry. A batched store only stages the record
    /// for the next [`CheckpointStore::flush`].
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, write, or rename failures; callers
    /// should treat these as non-fatal (the run still holds the result in
    /// memory).
    pub fn store(&self, key: &str, report: &LayerReport) -> std::io::Result<()> {
        let text = encode(key, report);
        match &self.batch {
            Some(batch) => {
                batch.staged().insert(key.to_string(), text);
                Ok(())
            }
            None => eureka_obs::atomic::write_atomic(&self.path_for(key), text.as_bytes()),
        }
    }

    /// Writes a batched store's staged records as one `*.units` file,
    /// named by the hash of its bytes (so rewriting an equal batch is
    /// idempotent). A no-op for the per-unit layout, which writes as it
    /// goes, and when nothing is staged.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the records stay staged.
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(batch) = &self.batch else {
            return Ok(());
        };
        let mut staged = batch.staged();
        if staged.is_empty() {
            return Ok(());
        }
        let text: String = staged.values().map(String::as_str).collect();
        let path = self
            .dir
            .join(format!("{:016x}.units", fnv1a64(text.as_bytes())));
        eureka_obs::atomic::write_atomic(&path, text.as_bytes())?;
        staged.clear();
        Ok(())
    }

    /// Number of per-unit entries currently on disk (`.unit` files
    /// only; in-flight temporaries and batches are excluded).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "unit"))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerReport {
        LayerReport {
            name: "conv4_2/3x3".into(),
            compute_cycles: 123,
            mem_cycles: 45,
            mac_ops: 6789,
            idle_mac_cycles: 10,
            bubble_cycles: 9,
            weight_bytes: 11,
            act_bytes: 12,
            out_bytes: 13,
            metadata_bytes: 14,
            ops: OpCounts {
                mux2: 1,
                mux4: 2,
                mux8: 3,
                mux16: 4,
                csa: 5,
                crossbar: 6,
                prefix: 7,
                buffer: 8,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let r = sample();
        let text = encode("some|key", &r);
        assert_eq!(decode(&text, "some|key"), Some(r));
    }

    #[test]
    fn decode_rejects_wrong_key_truncation_and_version_skew() {
        let r = sample();
        let text = encode("k1", &r);
        assert_eq!(decode(&text, "k2"), None, "key mismatch is a miss");
        let truncated = &text[..text.len() / 2];
        assert_eq!(decode(truncated, "k1"), None, "truncation is a miss");
        let skewed = text.replace("v2", "v9");
        assert_eq!(decode(&skewed, "k1"), None, "version skew is a miss");
        let trailing = format!("{text}junk\n");
        assert_eq!(decode(&trailing, "k1"), None, "trailing data is a miss");
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut r = sample();
        r.name = "weird\\name\nwith newline".into();
        let text = encode("key\nwith\\newline", &r);
        assert_eq!(decode(&text, "key\nwith\\newline"), Some(r));
    }

    #[test]
    fn store_and_load_via_directory() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-test-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        assert_eq!(store.load("k"), None, "empty store misses");
        assert_eq!(store.entry_count(), 0);
        let r = sample();
        store.store("k", &r).expect("store writes");
        assert_eq!(store.load("k"), Some(r));
        assert_eq!(store.entry_count(), 1);
        assert_eq!(store.load("other"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_records_flush_as_one_file_and_survive_a_damaged_neighbour() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-batch-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::batched(&dir);
        let mut r = sample();
        for key in ["a", "b", "c"] {
            r.name = format!("layer-{key}");
            store.store(key, &r).expect("staging cannot fail");
        }
        assert!(!dir.exists(), "nothing reaches the disk before a flush");
        store.flush().expect("flush writes");
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "one file per flush: {files:?}");
        assert!(files[0].extension().is_some_and(|x| x == "units"));

        // Damage the middle record: its neighbours still load.
        let text = std::fs::read_to_string(&files[0]).unwrap();
        let damaged = text.replace("layer-b\nfields", "layer-b\nfieldz");
        assert_ne!(damaged, text);
        std::fs::write(&files[0], damaged).unwrap();
        let errors = || metrics::counter("checkpoint.errors", Class::Deterministic).get();
        let before = errors();
        let fresh = CheckpointStore::batched(&dir);
        assert_eq!(fresh.load("a").map(|r| r.name), Some("layer-a".into()));
        assert_eq!(fresh.load("b"), None, "the damaged record is a miss");
        assert_eq!(fresh.load("c").map(|r| r.name), Some("layer-c".into()));
        assert!(errors() > before, "damage ticks checkpoint.errors");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_are_skipped_with_an_error_tick_not_an_abort() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-corrupt-{}", std::process::id()));
        let store = CheckpointStore::new(&dir);
        let r = sample();
        store.store("good", &r).expect("store writes");
        let errors = || metrics::counter("checkpoint.errors", Class::Deterministic).get();

        // Truncated entry: load misses and ticks the error counter.
        let before = errors();
        let text = encode("trunc", &r);
        std::fs::write(store.path_for("trunc"), &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load("trunc"), None, "truncated entry is a miss");
        assert!(errors() > before, "truncation ticks checkpoint.errors");

        // NUL bytes (torn write on some filesystems): skipped.
        let before = errors();
        std::fs::write(store.path_for("nul"), b"eureka\0checkpoint").unwrap();
        assert_eq!(store.load("nul"), None, "NUL-bearing entry is a miss");
        assert!(errors() > before);

        // Non-UTF-8 garbage: skipped.
        let before = errors();
        std::fs::write(store.path_for("bin"), [0xff, 0xfe, 0x80, 0x80]).unwrap();
        assert_eq!(store.load("bin"), None, "non-UTF-8 entry is a miss");
        assert!(errors() > before);

        // Oversized file: never even read into memory.
        let before = errors();
        let big = vec![b'x'; (MAX_ENTRY_BYTES + 1) as usize];
        std::fs::write(store.path_for("big"), big).unwrap();
        assert_eq!(store.load("big"), None, "oversized entry is a miss");
        assert!(errors() > before);

        // The valid neighbour is untouched by the carnage.
        assert_eq!(store.load("good"), Some(r), "healthy entries still load");
        // And a plain absence stays a silent miss.
        let before = errors();
        assert_eq!(store.load("absent"), None);
        assert_eq!(errors(), before, "a missing file is not an error");

        std::fs::remove_dir_all(&dir).ok();
    }
}
