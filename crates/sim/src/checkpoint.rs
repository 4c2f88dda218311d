//! Unit records: the one memo tier of completed work-unit results.
//!
//! A [`UnitRecords`] holds every unit result its runner (and the
//! runner's clones) computed, in memory, keyed by the unit's content
//! key. Without a store directory that is all it is: lookups and
//! inserts hash the structured key, and no key text is ever rendered.
//! With one ([`UnitRecords::in_dir`], `--store-dir`), the records also
//! outlive the process:
//!
//! * **Loading.** The directory's records are read once, on the first
//!   lookup that misses memory (a `checkpoint.load` span): every
//!   `*.units` file, one pass each ([`load`]). Only the decoded map stays
//!   resident; the `checkpoint/load_4k` bench loads 4,096 records in
//!   ~7.5 ms on a 2-vCPU VM.
//! * **Appending.** Each newly computed unit is appended to
//!   `<dir>/records.units` with one `write`, to a handle opened on the
//!   first append and kept behind a mutex. A killed run keeps every unit
//!   it finished, and a run that computes nothing creates no file.
//!   Appending a Figure 11 sweep's 4,240 records took 9–12 ms on the same
//!   VM; 4,240 tmp+rename files took 134–261 ms.
//!
//! Records are keyed by the unit's canonical key text, and every field
//! is an exact integer or string, so a replay is bit-identical:
//!
//! ```text
//! eureka-checkpoint v2
//! key <escaped canonical unit key>
//! name <escaped layer name>
//! fields <9 integers>
//! ops <8 integers>
//! ```
//!
//! # Crash safety
//!
//! A record is one `write` to a file opened for appending, so runners
//! sharing a directory never interleave records, and a record survives a
//! SIGKILL once its write returns. Failed units are never recorded. An
//! append that finds the log ending inside a line (a write torn by a
//! kill) first writes `\n\n`, which ends the torn line and keeps the torn
//! record from ever parsing as whole. Appends hold an exclusive advisory
//! lock on the log and loads a shared one, so neither that check nor a
//! load ever sees another runner's record half-written. Every line that starts with
//! `eureka-checkpoint ` begins a record, whatever its version, so a
//! record written under another version is one damaged record and the
//! records on either side of it still load. The runner counts each
//! damaged record as a `checkpoint.errors` tick on load; it costs
//! exactly its unit's recomputation, and a record only ever replays
//! under its full key.

use crate::report::{LayerReport, OpCounts};
use crate::runner::UnitKey;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Largest `*.units` file the loader will read: room for over a million
/// records, and still a bound on the allocation.
const MAX_FILE_BYTES: u64 = 1 << 30;

/// Format marker; bump when the serialization changes incompatibly.
/// Readers ignore records with any other header, so mixing versions in
/// one directory degrades to recomputation, never to wrong data.
/// (v2 added `bubble_cycles` as the ninth field; v1 records are
/// recomputed.)
const HEADER: &str = "eureka-checkpoint v2";

/// What every record's first line starts with, in any version: the
/// record boundary.
const BOUNDARY: &str = "eureka-checkpoint ";

/// The append log's file name inside the store directory.
const LOG: &str = "records.units";

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
/// one record.
fn encode(key: &str, report: &LayerReport) -> String {
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

/// The one record parser: the record at the start of `text` — its key
/// line (still escaped) and its report — and the text after it. Lines
/// end at `\n` alone, so a key or name holding a `\r` reads back as
/// written.
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

/// Every decodable record in `dir`'s `*.units` files, keyed by their
/// unescaped keys, and the number of damaged records. A missing
/// directory holds nothing and is no damage; an oversized or unreadable
/// file counts as one damaged record. Bytes that are not UTF-8 damage
/// only the record they sit in. A file's bytes are dropped once they are
/// parsed, so only the decoded map stays resident.
#[must_use]
pub fn load(dir: &Path) -> (HashMap<String, LayerReport>, u64) {
    let _span = eureka_obs::span!("checkpoint.load");
    let (mut records, mut damaged) = (HashMap::new(), 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (records, damaged); // no directory yet: nothing stored
    };
    for path in entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "units"))
    {
        let Some(bytes) = read_log(&path) else {
            damaged += 1;
            continue;
        };
        // Only a file holding bytes that are not UTF-8 pays for the
        // lossy copy, where each invalid sequence becomes a U+FFFD that
        // damages its record.
        let text = std::str::from_utf8(&bytes)
            .map_or_else(|_| String::from_utf8_lossy(&bytes), Cow::Borrowed);
        damaged += parse_records(&text, &mut records);
    }
    (records, damaged)
}

/// The bytes of the `*.units` file at `path`, read under a shared lock so
/// that no append is half-way through; `None` when it cannot be read or
/// is larger than [`MAX_FILE_BYTES`].
fn read_log(path: &Path) -> Option<Vec<u8>> {
    let mut file = File::open(path).ok()?;
    file.lock_shared().ok()?;
    let len = file.metadata().ok()?.len();
    if len > MAX_FILE_BYTES {
        return None;
    }
    let mut bytes = Vec::with_capacity(usize::try_from(len).ok()?);
    file.read_to_end(&mut bytes).ok()?;
    Some(bytes)
}

/// Parses one file's text into `records`, returning the number of
/// damaged records (none in an empty file, such as a log created by an
/// append that has not written yet). A record runs from its boundary line (one starting
/// with [`BOUNDARY`], in any version) to the next one, so damage stays
/// inside the record it hit. A well-formed record ends where the next
/// boundary starts, so the text is read once; only damage makes the
/// parser search for the next boundary line.
fn parse_records(text: &str, records: &mut HashMap<String, LayerReport>) -> u64 {
    let next_boundary = format!("\n{BOUNDARY}");
    // Five lines a well-formed record: size the map once.
    records.reserve(line_count(text) / 5);
    let mut damaged = 0;
    let mut rest = text;
    while !rest.is_empty() {
        let parsed =
            parse(rest).filter(|(_, _, after)| after.is_empty() || after.starts_with(BOUNDARY));
        let end = match &parsed {
            Some((_, _, after)) => rest.len() - after.len(),
            None => rest
                .find(&next_boundary)
                .map_or(rest.len(), |newline| newline + 1),
        };
        let record = &rest[..end];
        match parsed {
            Some((key, report, _)) if whole(record) => {
                records.insert(unescape(key).into_owned(), report);
            }
            _ => damaged += 1,
        }
        rest = &rest[end..];
    }
    damaged
}

/// Whether a parsed record's text is whole: it ends its last line and
/// holds no NUL (a torn write on some filesystems) and no U+FFFD (bytes
/// that were not UTF-8).
fn whole(record: &str) -> bool {
    record.ends_with('\n')
        && !record.contains('\0')
        && !record.contains(char::REPLACEMENT_CHARACTER)
}

/// The number of `\n` bytes in `text`, tallied 255 bytes at a time in a
/// `u8`, which the compiler vectorizes.
fn line_count(text: &str) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// Locks `m`. Every update under these locks is one map insert or one
/// write, so a poisoned lock still guards a valid value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One runner's unit records: an in-memory map, plus a store
/// directory's records and append log when one is attached (see the
/// [module docs](self)). A runner holds it behind an `Arc` that its
/// clones share.
#[derive(Debug, Default)]
pub struct UnitRecords {
    dir: Option<PathBuf>,
    /// Every result computed through this tier. Records replayed from
    /// the directory stay in `stored` alone, so none is held twice.
    memory: Mutex<HashMap<UnitKey, LayerReport>>,
    /// The directory's records, by canonical key text, read by the first
    /// [`UnitRecords::stored`]. Read-only after that, so lookups take no
    /// lock.
    stored: OnceLock<HashMap<String, LayerReport>>,
    /// The append handle of `<dir>/records.units`, opened by the first
    /// [`UnitRecords::append`].
    log: Mutex<Option<File>>,
}

impl UnitRecords {
    /// Records that also persist under `dir` (created on first append).
    #[must_use]
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        UnitRecords {
            dir: Some(dir.into()),
            ..UnitRecords::default()
        }
    }

    /// The store directory, if one is attached.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The in-memory result for `key`.
    pub(crate) fn get(&self, key: &UnitKey) -> Option<LayerReport> {
        lock(&self.memory).get(key).cloned()
    }

    /// Grows the map for `additional` more units at once, so no insert
    /// of a run rehashes it.
    pub(crate) fn reserve(&self, additional: usize) {
        lock(&self.memory).reserve(additional);
    }

    /// Remembers `report` under `key`, copying both before taking the
    /// lock that every worker shares. `false` when the key was already
    /// held, so of two workers racing on one key only one appends.
    pub(crate) fn insert(&self, key: &UnitKey, report: &LayerReport) -> bool {
        let (key, report) = (key.clone(), report.clone());
        lock(&self.memory).insert(key, report).is_none()
    }

    /// The directory's record for the canonical key text `key`; `None`
    /// without a directory. The first call loads the directory and hands
    /// the number of damaged records to `damaged`; later calls, through
    /// any clone of the runner, answer from memory and never call it.
    pub fn stored(&self, key: &str, damaged: impl FnOnce(u64)) -> Option<&LayerReport> {
        let dir = self.dir.as_deref()?;
        self.stored
            .get_or_init(|| {
                let (records, count) = load(dir);
                damaged(count);
                records
            })
            .get(key)
    }

    /// Appends the record of `report` under the canonical key text `key`
    /// to `<dir>/records.units` with one `write`, under the log's
    /// exclusive lock; a no-op without a directory. Each append first
    /// checks the log's last byte, so a partial record — a failed write
    /// of this runner or a killed one of another process — is closed
    /// off before the next record.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, open, lock or write failures;
    /// callers treat them as non-fatal (the result stays in memory).
    /// After a failed write the handle is reopened.
    pub fn append(&self, key: &str, report: &LayerReport) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut record = encode(key, report);
        let mut log = lock(&self.log);
        let file = match log.as_mut() {
            Some(file) => file,
            None => log.insert(open_log(dir)?),
        };
        file.lock()?;
        let written = ends_mid_line(file).and_then(|torn| {
            if torn {
                record.insert_str(0, "\n\n");
            }
            file.write_all(record.as_bytes())
        });
        let _ = file.unlock();
        if written.is_err() {
            *log = None;
        }
        written
    }
}

/// Opens `<dir>/records.units` for appending, creating both.
fn open_log(dir: &Path) -> io::Result<File> {
    std::fs::create_dir_all(dir)?;
    File::options()
        .read(true)
        .append(true)
        .create(true)
        .open(dir.join(LOG))
}

/// Whether the log ends inside a line (a write torn by a kill).
fn ends_mid_line(file: &mut File) -> io::Result<bool> {
    let mut last = [b'\n'];
    if file.seek(SeekFrom::End(0))? > 0 {
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
    }
    Ok(last != [b'\n'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// A fresh directory per test or property case.
    fn case_dir(tag: &str) -> PathBuf {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eureka-ckpt-{tag}-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Appends `records` to the log under `dir` through a fresh tier,
    /// returning the log's path.
    fn write_log(dir: &Path, records: &BTreeMap<String, LayerReport>) -> PathBuf {
        let tier = UnitRecords::in_dir(dir);
        for (key, report) in records {
            tier.append(key, report).expect("append writes");
        }
        dir.join(LOG)
    }

    #[test]
    fn line_count_counts_every_newline() {
        assert_eq!(line_count(""), 0);
        assert_eq!(line_count(&"\n".repeat(1000)), 1000, "no chunk overflows");
        assert_eq!(line_count("é\nx\n\ny"), 3);
    }

    #[test]
    fn appends_go_to_one_log_and_a_lookup_creates_nothing() {
        let dir = case_dir("log");
        let tier = UnitRecords::in_dir(&dir);
        assert_eq!(
            tier.stored("k", |_| {}),
            None,
            "an absent directory is empty"
        );
        assert!(!dir.exists(), "a lookup creates no directory");
        let mut r = sample();
        for key in ["a", "b", "c"] {
            r.name = format!("layer-{key}");
            tier.append(key, &r).expect("append writes");
        }
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files, [dir.join(LOG)], "one log for every record");
        assert_eq!(
            tier.stored("a", |_| {}),
            None,
            "the directory was read once"
        );
        let fresh = UnitRecords::in_dir(&dir);
        assert_eq!(
            fresh.stored("b", |_| {}).map(|r| r.name.as_str()),
            Some("layer-b")
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            fresh.stored("c", |_| {}).is_some(),
            "loaded records stay resident"
        );
    }

    #[test]
    fn damaged_records_are_counted_and_skipped_and_an_absent_directory_is_no_damage() {
        let dir = case_dir("corrupt");
        let (records, damaged) = load(&dir);
        assert!(records.is_empty());
        assert_eq!(damaged, 0, "a missing directory is not an error");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG), "").unwrap();
        assert_eq!(load(&dir).1, 0, "nor is an empty log");

        let r = sample();
        let good = |key: &str| encode(key, &r).into_bytes();
        let skewed = |key: &str| encode(key, &r).replace("v2", "v9").into_bytes();
        // A foreign version at the start of the log.
        let mut log = skewed("skew");
        log.extend(good("before"));
        // Truncated: a record cut mid-line, closed by the next header.
        let cut = good("trunc");
        log.extend_from_slice(&cut[..cut.len() / 2]);
        log.push(b'\n');
        // Trailing junk after a record.
        log.extend(good("junk"));
        log.extend(b"junk\n");
        // A NUL (a torn write on some filesystems) inside a record.
        log.extend(
            encode("nul", &r)
                .replacen("name ", "name \0", 1)
                .into_bytes(),
        );
        // Bytes that are not UTF-8 inside a record's name.
        let mut bin = good("bin");
        let at = bin.windows(5).position(|w| w == b"name ").unwrap() + 5;
        bin.splice(at..at, [0xff, 0xfe, 0x80]);
        log.extend(bin);
        log.extend(good("after"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG), &log).unwrap();

        let (records, damaged) = load(&dir);
        assert_eq!(
            damaged, 5,
            "truncated, skewed, junk-trailed, NUL and non-UTF-8"
        );
        let mut keys: Vec<&str> = records.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["after", "before"], "healthy records still load");
        assert_eq!(records["after"], r);

        // A foreign version between two good records is a record of its
        // own: both neighbours load.
        let mut log = good("first");
        log.extend(skewed("between"));
        log.extend(good("last"));
        std::fs::write(dir.join(LOG), &log).unwrap();
        let (records, damaged) = load(&dir);
        assert_eq!(damaged, 1, "only the foreign version is damaged");
        let mut keys: Vec<&str> = records.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["first", "last"]);
        std::fs::remove_dir_all(&dir).ok();
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

    /// Text a damaged log may gain: line breaks, header lines of this
    /// and another version, NULs, replacement characters and stray bytes.
    const SNIPPETS: [&str; 8] = [
        "",
        "\n",
        "eureka-checkpoint v2\n",
        "eureka-checkpoint v9\n",
        "\0",
        "\u{fffd}",
        "x",
        "é",
    ];

    /// The record split spelled out: every line starting with the
    /// boundary, in any version, begins a record, and so does a text that
    /// is not empty; each record must parse as a whole.
    fn reference_records(text: &str) -> (HashMap<String, LayerReport>, u64) {
        let mut starts: Vec<usize> = text
            .match_indices(BOUNDARY)
            .map(|(i, _)| i)
            .filter(|&i| i == 0 || text.as_bytes()[i - 1] == b'\n')
            .collect();
        if !text.is_empty() && starts.first() != Some(&0) {
            starts.insert(0, 0);
        }
        starts.push(text.len());
        let (mut records, mut damaged) = (HashMap::new(), 0);
        for span in starts.windows(2) {
            let record = &text[span[0]..span[1]];
            match parse(record) {
                Some((key, report, "")) if whole(record) => {
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
        fn escaped_keys_and_names_round_trip_through_the_log(records in records()) {
            let dir = case_dir("roundtrip");
            write_log(&dir, &records);
            let fresh = UnitRecords::in_dir(&dir);
            for (key, report) in &records {
                prop_assert_eq!(fresh.stored(key, |_| {}), Some(report));
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// A kill mid-append leaves the last record torn at any byte: it
        /// never replays, the records before it do, and so does every
        /// record a later run appends after it.
        #[test]
        fn a_torn_last_record_is_a_miss_and_never_a_wrong_report(records in records()) {
            let dir = case_dir("truncated");
            let log = write_log(&dir, &records);
            let bytes = std::fs::read(&log).unwrap();
            let (last_key, last) = records.iter().next_back().unwrap();
            let last_start = bytes.len() - encode(last_key, last).len();
            let boundary_end = last_start + BOUNDARY.len();
            let previous = records.keys().nth_back(1);
            let later = LayerReport { name: "later".into(), ..sample() };
            for cut in last_start..bytes.len() {
                std::fs::write(&log, &bytes[..cut]).unwrap();
                UnitRecords::in_dir(&dir).append("later|key", &later).unwrap();
                // A cut inside the last record's boundary text leaves no
                // boundary there, so the record before it takes the
                // damage too; once the boundary text is kept, the torn
                // record is a record of its own.
                let split = cut == last_start || cut >= boundary_end;
                let fresh = UnitRecords::in_dir(&dir);
                for (key, report) in &records {
                    let intact = key != last_key && (split || Some(key) != previous);
                    prop_assert_eq!(fresh.stored(key, |_| {}), intact.then_some(report), "cut at byte {}", cut);
                }
                prop_assert_eq!(fresh.stored("later|key", |_| {}), Some(&later), "cut at byte {}", cut);
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
            let damaged = parse_records(&text, &mut got);
            let (want, want_damaged) = reference_records(&text);
            prop_assert_eq!(got, want);
            prop_assert_eq!(damaged, want_damaged);
        }
    }
}
