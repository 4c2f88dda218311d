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
//! # Loading
//!
//! One parser reads every record, whether [`decode`] checks a per-unit
//! file against the key it was asked for or a batched store loads its
//! batches. A batched store reads all its `*.units` files once, on its
//! first lookup (a `checkpoint.load` span), in one pass per file: a
//! well-formed record ends where the next header line starts, its
//! numbers parse into fixed arrays, a key or name without an escape is
//! unescaped without a copy, and the map is sized once from the file's
//! line count. Only the decoded map stays resident, and records the
//! store flushes join it, so a store that lives as long as its runner
//! never rereads its directory. On a 2-vCPU VM, a fresh process loads
//! the paper Figure 11 sweep's batch (4,240 records, 2.0 MB) in ~9 ms;
//! the `checkpoint/load_4k` bench times a 4,096-record batch.
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
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Undoes [`escape`]. A line without a backslash is borrowed as it is,
/// so the common escape-free key or name costs no copy.
pub(crate) fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
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
    Cow::Owned(out)
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
    let (key, report, rest) = parse(text)?;
    (rest.is_empty() && unescape(key) == expected_key).then_some(report)
}

/// The one record parser, behind [`decode`] and the batch loader: the
/// record at the start of `text` — its key line (still escaped) and its
/// report — and the text after it. Lines end at `\n` alone, so a key or
/// name holding a `\r` reads back as written.
fn parse(text: &str) -> Option<(&str, LayerReport, &str)> {
    let mut rest = text;
    if next_line(&mut rest) != HEADER {
        return None;
    }
    let key = next_line(&mut rest).strip_prefix("key ")?;
    let name = unescape(next_line(&mut rest).strip_prefix("name ")?).into_owned();
    let fields: [u64; 9] = numbers(next_line(&mut rest).strip_prefix("fields ")?)?;
    let ops: [u64; 8] = numbers(next_line(&mut rest).strip_prefix("ops ")?)?;
    let report = LayerReport {
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
    };
    Some((key, report, rest))
}

/// Splits the first line off `text`, leaving the rest in it.
fn next_line<'a>(text: &mut &'a str) -> &'a str {
    let (line, rest) = text.split_once('\n').unwrap_or((text, ""));
    *text = rest;
    line
}

/// Exactly `N` space-separated integers.
fn numbers<const N: usize>(line: &str) -> Option<[u64; N]> {
    let mut out = [0; N];
    let mut parts = line.split(' ');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

/// A directory of unit records, per unit or batched (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// `Some` for the batched layout; clones share its records.
    batch: Option<Arc<Batch>>,
}

/// The batched layout's state.
#[derive(Debug, Default)]
struct Batch {
    /// Every record in the directory's `*.units` files, read on the
    /// first load. Read-only after that, so lookups take no lock.
    on_disk: OnceLock<HashMap<String, LayerReport>>,
    /// Records this store flushed after that load, so a long-lived store
    /// reads its directory once and still replays its own records.
    flushed: Mutex<HashMap<String, LayerReport>>,
    /// Records stored since the last flush, by unit key (so a flushed
    /// batch's bytes do not depend on completion order).
    staged: Mutex<BTreeMap<String, LayerReport>>,
}

/// Locks `m`. Every update of the batch maps is one map operation, so a
/// poisoned lock still guards a valid map.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every decodable record in `dir`'s `*.units` files, parsed in one pass
/// per file and keyed by their unescaped keys. Fail-soft like
/// [`CheckpointStore::load`]: an oversized or unreadable file, and each
/// malformed record, ticks `checkpoint.errors`; the records around a
/// damaged one still load. A file's text is dropped once it is parsed,
/// so only the decoded map stays resident.
fn read_batches(dir: &Path) -> HashMap<String, LayerReport> {
    let _span = eureka_obs::span!("checkpoint.load");
    let errors = metrics::counter("checkpoint.errors", Class::Deterministic);
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
        errors.add(parse_batch(&text, &mut records));
    }
    records
}

/// Parses one batch file's text into `records`, returning the number of
/// damaged records. A record runs from its header line to the next one,
/// so damage stays inside the record it hit. A well-formed record ends
/// where the next header starts, so the text is read once; only damage
/// makes the parser search for the next header line.
fn parse_batch(text: &str, records: &mut HashMap<String, LayerReport>) -> u64 {
    let header_line = format!("{HEADER}\n");
    let next_header = format!("\n{header_line}");
    // Five lines a well-formed record: size the map once.
    records.reserve(line_count(text) / 5);
    let mut damaged = 0;
    let mut rest = text;
    loop {
        let parsed =
            parse(rest).filter(|(_, _, after)| after.is_empty() || after.starts_with(&header_line));
        let end = match &parsed {
            Some((_, _, after)) => rest.len() - after.len(),
            None => rest
                .find(&next_header)
                .map_or(rest.len(), |newline| newline + 1),
        };
        let record = &rest[..end];
        match parsed {
            Some((key, report, _)) if record.ends_with('\n') && !record.contains('\0') => {
                records.insert(unescape(key).into_owned(), report);
            }
            _ => damaged += 1,
        }
        rest = &rest[end..];
        if rest.is_empty() {
            return damaged;
        }
    }
}

/// The number of `\n` bytes in `text`, tallied 255 bytes at a time in a
/// `u8`, which the compiler vectorizes.
fn line_count(text: &str) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
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
    /// memory after that, for every clone of the store.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<LayerReport> {
        if let Some(batch) = &self.batch {
            let on_disk = batch.on_disk.get_or_init(|| read_batches(&self.dir));
            if let Some(report) = on_disk.get(key) {
                return Some(report.clone());
            }
            return lock(&batch.flushed).get(key).cloned();
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
        match &self.batch {
            Some(batch) => {
                lock(&batch.staged).insert(key.to_string(), report.clone());
                Ok(())
            }
            None => eureka_obs::atomic::write_atomic(
                &self.path_for(key),
                encode(key, report).as_bytes(),
            ),
        }
    }

    /// Writes a batched store's staged records as one `*.units` file,
    /// named by the hash of its bytes (so rewriting an equal batch is
    /// idempotent), and moves them into the loaded records, so later
    /// loads through any clone of this store replay them from memory. A
    /// no-op for the per-unit layout, which writes as it goes, and when
    /// nothing is staged.
    ///
    /// # Errors
    ///
    /// Propagates the write failure; the records stay staged.
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(batch) = &self.batch else {
            return Ok(());
        };
        let mut staged = lock(&batch.staged);
        if staged.is_empty() {
            return Ok(());
        }
        let text: String = staged
            .iter()
            .map(|(key, report)| encode(key, report))
            .collect();
        let path = self
            .dir
            .join(format!("{:016x}.units", fnv1a64(text.as_bytes())));
        eureka_obs::atomic::write_atomic(&path, text.as_bytes())?;
        drop(text); // the batch text never sits beside the records
        let flushed = std::mem::take(&mut *staged);
        // Before the first load, that load reads the new file instead.
        if batch.on_disk.get().is_some() {
            lock(&batch.flushed).extend(flushed);
        }
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
    use proptest::prelude::*;

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
    fn line_count_counts_every_newline() {
        assert_eq!(line_count(""), 0);
        assert_eq!(line_count(&"\n".repeat(1000)), 1000, "no chunk overflows");
        assert_eq!(line_count("é\nx\n\ny"), 3);
    }

    #[test]
    fn flushed_records_replay_from_memory_without_a_reread() {
        let dir = std::env::temp_dir().join(format!("eureka-ckpt-kept-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::batched(&dir);
        assert_eq!(
            store.load("k"),
            None,
            "the first load reads an empty directory"
        );
        let r = sample();
        store.store("k", &r).expect("staging cannot fail");
        store.flush().expect("flush writes");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            store.clone().load("k"),
            Some(r),
            "clones share the flushed record"
        );
        assert_eq!(
            CheckpointStore::batched(&dir).load("k"),
            None,
            "a fresh store rereads"
        );
    }

    /// Characters that stress the line format: backslashes, newlines,
    /// carriage returns, spaces, the key separator and non-ASCII text.
    const ALPHABET: [char; 10] = ['a', 'n', '\\', '\n', '\r', ' ', '|', 'é', '→', '0'];

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Distinct keys, each with a report named and numbered by the draw.
    fn records() -> impl Strategy<Value = BTreeMap<String, LayerReport>> {
        prop::collection::vec((text(), text(), any::<u64>()), 1..6).prop_map(|drawn| {
            drawn
                .into_iter()
                .map(|(key, name, cycles)| {
                    let report = LayerReport {
                        name,
                        compute_cycles: cycles,
                        ..sample()
                    };
                    (key, report)
                })
                .collect()
        })
    }

    /// A fresh directory per property case.
    fn case_dir(tag: &str) -> PathBuf {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eureka-ckpt-{tag}-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Stages and flushes `records` into one batch file under `dir`,
    /// returning its path.
    fn write_batch(dir: &Path, records: &BTreeMap<String, LayerReport>) -> PathBuf {
        let store = CheckpointStore::batched(dir);
        for (key, report) in records {
            store.store(key, report).expect("staging cannot fail");
        }
        store.flush().expect("flush writes");
        let files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "one batch per flush");
        files[0].clone()
    }

    /// Text a damaged batch may gain: line breaks, header lines, NULs
    /// and stray bytes.
    const SNIPPETS: [&str; 6] = ["", "\n", "eureka-checkpoint v2\n", "\0", "x", "é"];

    /// The batch split spelled out: every header line at a line start
    /// begins a record, and so does the text; each record must parse as
    /// a whole.
    fn reference_batch(text: &str) -> (HashMap<String, LayerReport>, u64) {
        let header_line = format!("{HEADER}\n");
        let mut starts: Vec<usize> = text
            .match_indices(&header_line)
            .map(|(i, _)| i)
            .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
            .collect();
        if starts.first() != Some(&0) {
            starts.insert(0, 0);
        }
        starts.push(text.len());
        let (mut records, mut damaged) = (HashMap::new(), 0);
        for span in starts.windows(2) {
            let record = &text[span[0]..span[1]];
            match parse(record) {
                Some((key, report, "")) if record.ends_with('\n') && !record.contains('\0') => {
                    records.insert(unescape(key).into_owned(), report);
                }
                _ => damaged += 1,
            }
        }
        (records, damaged)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn escaped_keys_and_names_round_trip_through_a_flushed_batch(records in records()) {
            let dir = case_dir("roundtrip");
            write_batch(&dir, &records);
            let fresh = CheckpointStore::batched(&dir);
            for (key, report) in &records {
                prop_assert_eq!(fresh.load(key).as_ref(), Some(report));
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn a_truncated_last_record_is_a_miss_and_never_a_wrong_report(records in records()) {
            let dir = case_dir("truncated");
            let file = write_batch(&dir, &records);
            let bytes = std::fs::read(&file).unwrap();
            let (last_key, last) = records.iter().next_back().unwrap();
            let last_start = bytes.len() - encode(last_key, last).len();
            let header_end = last_start + HEADER.len() + 1;
            let previous = records.keys().nth_back(1);
            for cut in last_start..bytes.len() {
                std::fs::write(&file, &bytes[..cut]).unwrap();
                // A cut inside a multi-byte character leaves no valid
                // UTF-8, so the whole file is skipped. A cut inside the
                // last header line leaves no record boundary there, so
                // the record before it takes the damage too.
                let readable = std::str::from_utf8(&bytes[..cut]).is_ok();
                let split = cut == last_start || cut >= header_end;
                let fresh = CheckpointStore::batched(&dir);
                for (key, report) in &records {
                    let intact = key != last_key && (split || Some(key) != previous);
                    let want = (readable && intact).then_some(report);
                    prop_assert_eq!(fresh.load(key).as_ref(), want, "cut at byte {}", cut);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn damage_stays_inside_the_header_delimited_record_it_hit(
            records in records(),
            edits in prop::collection::vec((any::<u64>(), 0..SNIPPETS.len(), 0usize..4), 1..4),
        ) {
            let mut text: String = records.iter().map(|(k, r)| encode(k, r)).collect();
            for (at, snippet, cut) in edits {
                let mut at = (at % (text.len() as u64 + 1)) as usize;
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + cut).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                text.replace_range(at..end, SNIPPETS[snippet]);
            }
            let mut got = HashMap::new();
            let damaged = parse_batch(&text, &mut got);
            let (want, want_damaged) = reference_batch(&text);
            prop_assert_eq!(got, want);
            prop_assert_eq!(damaged, want_damaged);
        }

        #[test]
        fn decode_replays_only_under_the_written_key(key in text(), other in text(), name in text()) {
            prop_assume!(key != other);
            let report = LayerReport { name, ..sample() };
            let text = encode(&key, &report);
            prop_assert_eq!(decode(&text, &other), None);
            prop_assert_eq!(decode(&text, &key), Some(report));
        }
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
