//! Unit records: the one memo tier of completed work-unit results.
//!
//! A [`UnitRecords`] holds every unit result its runner (and the
//! runner's clones) computed, in memory, keyed by the unit's content
//! key. Without a store directory that is all it is: lookups and
//! inserts hash the structured key, and no key text is ever rendered.
//! With one ([`UnitRecords::in_dir`], `--store-dir`), the records also
//! outlive the process, as the lines of one [`applog`] log,
//! `<dir>/records-v3.units`:
//!
//! * **Loading.** The log is read once, whole, under its shared lock,
//!   on the first lookup that misses memory (a `checkpoint.load` span),
//!   into one buffer that stays resident: the records are indexed where
//!   they lie, and no decoded copy sits beside the text. The buffer is
//!   cut into runs of lines that every worker looking a record up claims
//!   one at a time, checking each line's seal and its 17-number decode
//!   and hashing its key ([`BuildHasher::hash_one`]); the first worker
//!   done indexes each key's last record, in log order, and counts the
//!   damage once. On one thread the `checkpoint/load_4k` bench loads
//!   4,096 records in 2.7–4.0 ms on a shared 2-vCPU VM (the decoded map
//!   it replaced: 6.0–10.3 ms in the same runs).
//! * **Replaying.** A lookup hashes the canonical key text, compares the
//!   full key with the record's, and only then decodes the report from
//!   the text. The `checkpoint/replay_4k` bench looks 4,096 keys up in
//!   1.4–2.1 ms on the same VM.
//! * **Appending.** Each newly computed unit is appended with one
//!   `write`, to a handle opened on the first append and kept behind a
//!   mutex. A killed run keeps every unit it finished, and a run that
//!   computes nothing creates no file. The `checkpoint/append_4k` bench
//!   appends 4,096 records in 17.7–21.0 ms on the same VM (v2: 16.3–18.9).
//!
//! Records are keyed by the unit's canonical key text, and every field
//! is an exact integer or string, so a replay is bit-identical. A record
//! is one sealed line (format v3; tabs separate the escaped fields):
//!
//! ```text
//! <fnv1a64 of the rest, 16 hex> v3 <escaped canonical unit key>\t<escaped layer name>\t<9 fields and 8 op counts>
//! ```
//!
//! Failed units are never recorded. A record that does not unseal or
//! parse — torn, damaged, or of another version — is one damaged record:
//! the runner counts it as a `checkpoint.errors` tick on load, it costs
//! exactly its unit's recomputation, and a record only ever replays
//! under its full key. The log's name carries its version: the
//! five-line v2 `records.units` of earlier builds is neither read nor
//! appended to (a store directory is a cache, so its units are
//! recomputed once).

use crate::report::LayerReport;
use crate::runner::UnitKey;
use eureka_obs::applog::{self, escape, unescape, AppLog};
use eureka_obs::span::Spans;
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The log's file name inside the store directory.
const LOG: &str = "records-v3.units";

// A `u32` offset reaches any byte of a log `applog::read` accepts.
const _: () = assert!(applog::MAX_BYTES <= u32::MAX as u64);

/// Log bytes one worker checks per claim: about 200 records, so the
/// workers of a run share a log of a few MB evenly, and a claim costs
/// nothing next to its checks.
const CHUNK: usize = 64 << 10;

/// The 17 integers a record carries after its key and name, in order:
/// 9 [`LayerReport`] scalar fields, then its 8 op counts.
fn numbers(r: &mut LayerReport) -> [&mut u64; 17] {
    let o = &mut r.ops;
    [
        &mut r.compute_cycles,
        &mut r.mem_cycles,
        &mut r.mac_ops,
        &mut r.idle_mac_cycles,
        &mut r.bubble_cycles,
        &mut r.weight_bytes,
        &mut r.act_bytes,
        &mut r.out_bytes,
        &mut r.metadata_bytes,
        &mut o.mux2,
        &mut o.mux4,
        &mut o.mux8,
        &mut o.mux16,
        &mut o.csa,
        &mut o.crossbar,
        &mut o.prefix,
        &mut o.buffer,
    ]
}

/// Serializes one completed unit (its canonical key plus its report) to
/// one sealed line.
fn encode(key: &str, report: &LayerReport) -> String {
    let mut payload = format!("v3 {}\t{}\t", escape(key), escape(&report.name));
    let mut report = report.clone();
    for (i, n) in numbers(&mut report).into_iter().enumerate() {
        let _ = write!(payload, "{}{n}", if i == 0 { "" } else { " " });
    }
    applog::seal(&payload)
}

/// A record payload's escaped key and name fields and its numbers
/// field; `None` unless it is a v3 record with all three.
fn fields(payload: &str) -> Option<(&str, &str, &str)> {
    let rest = payload.strip_prefix("v3 ")?;
    let key = applog::find(rest.as_bytes(), b'\t')?;
    let name = key + 1 + applog::find(&rest.as_bytes()[key + 1..], b'\t')?;
    Some((&rest[..key], &rest[key + 1..name], &rest[name + 1..]))
}

/// The 17 numbers of a record's numbers `field`, space-separated; `None`
/// for any other count or a number `str::parse::<u64>` would refuse
/// (each is an optional `+` and decimal digits that fit). Read byte by
/// byte, at half the cost of `parse`, since every record read or
/// replayed decodes them.
fn values(field: &[u8]) -> Option<[u64; 17]> {
    let mut parts = field.split(|&b| b == b' ');
    let mut values = [0_u64; 17];
    for value in &mut values {
        let part = parts.next()?;
        let digits = part.strip_prefix(b"+").unwrap_or(part);
        if digits.is_empty() {
            return None;
        }
        for &b in digits {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            *value = (*value).checked_mul(10)?.checked_add(u64::from(digit))?;
        }
    }
    parts.next().is_none().then_some(values)
}

/// The report a record's escaped `name` and its `values` describe.
fn report(name: &str, values: [u64; 17]) -> LayerReport {
    let mut report = LayerReport {
        name: unescape(name).into_owned(),
        ..LayerReport::default()
    };
    for (slot, n) in numbers(&mut report).into_iter().zip(values) {
        *slot = n;
    }
    report
}

/// A checked record in the resident log text, as byte offsets: its key
/// field, the tab after it and the end of its payload.
#[derive(Clone, Copy, Debug)]
struct Record {
    key: u32,
    tab: u32,
    end: u32,
}

impl Record {
    /// The record's unescaped key.
    fn key(self, text: &[u8]) -> Option<Cow<'_, str>> {
        let field = &text[self.key as usize..self.tab as usize];
        std::str::from_utf8(field).ok().map(unescape)
    }

    /// Whether the record's full key is `key`: byte for byte, unless
    /// the record's key field holds an escape.
    fn is(self, text: &[u8], key: &str) -> bool {
        let field = &text[self.key as usize..self.tab as usize];
        if field.contains(&b'\\') {
            self.key(text).is_some_and(|k| k == key)
        } else {
            field == key.as_bytes()
        }
    }

    /// The record's report.
    fn report(self, text: &[u8]) -> Option<LayerReport> {
        let rest = &text[self.tab as usize + 1..self.end as usize];
        let tab = applog::find(rest, b'\t')?;
        let name = std::str::from_utf8(&rest[..tab]).ok()?;
        Some(report(name, values(&rest[tab + 1..])?))
    }
}

/// A hasher for map keys that are hashes already: it passes the `u64`
/// through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 hashes are map keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One run of the log's lines, checked: the key hash and place of each
/// intact record, in line order, and the number of damaged lines.
#[derive(Debug, Default)]
struct Part {
    records: Vec<(u64, Record)>,
    damaged: u64,
}

/// Where each key's last record lies in the resident text.
#[derive(Debug, Default)]
struct Index {
    /// The last record of each key, by the key's hash.
    last: HashMap<u64, Record, BuildHasherDefault<Prehashed>>,
    /// Records whose key hash another key took first in `last`, in log
    /// order: empty but for a 64-bit hash collision.
    collided: Vec<(u64, Record)>,
}

impl Index {
    /// Adds `record` of `text`, whose key hashes to `hash`, after every
    /// record added so far: it replaces an earlier record of its key.
    fn insert(&mut self, text: &[u8], hash: u64, record: Record) {
        match self.last.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(record);
            }
            Entry::Occupied(mut slot) => {
                if slot.get().key(text) == record.key(text) {
                    slot.insert(record);
                } else {
                    self.collided.push((hash, record));
                }
            }
        }
    }

    /// The last record of `text` under the full key `key`, which hashes
    /// to `hash`.
    fn find(&self, text: &[u8], hash: u64, key: &str) -> Option<Record> {
        let collided = self.collided.iter().rev().filter(|(h, _)| *h == hash);
        let mut candidates = self
            .last
            .get(&hash)
            .into_iter()
            .chain(collided.map(|(_, r)| r));
        candidates.find(|record| record.is(text, key)).copied()
    }

    /// Every key's last record.
    fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let collided = self.collided.iter().map(|(_, record)| record);
        self.last.values().chain(collided).copied()
    }
}

/// A store directory's log, resident as read: the text, the runs of
/// lines that workers claim one at a time and check, each run's
/// checked [`Part`], and the [`Index`] built from them once all are in.
#[derive(Debug)]
struct Resident {
    text: Vec<u8>,
    /// One damaged record when the log could not be read.
    unreadable: u64,
    /// Key hashes, for the index and for lookups.
    hasher: RandomState,
    runs: Vec<Range<usize>>,
    claimed: AtomicUsize,
    parts: Vec<OnceLock<Part>>,
    index: OnceLock<Index>,
}

impl Resident {
    /// `dir`'s log, read under its shared lock; empty when there is
    /// none, and one damaged record when it cannot be read.
    fn read(dir: &Path) -> Self {
        match applog::read(&dir.join(LOG)) {
            Ok(text) => Resident::new(text.unwrap_or_default(), 0, CHUNK),
            Err(_) => Resident::new(Vec::new(), 1, CHUNK),
        }
    }

    /// `text` split into runs of at least `chunk` bytes.
    fn new(text: Vec<u8>, unreadable: u64, chunk: usize) -> Self {
        let runs = applog::split(&text, chunk);
        Resident {
            parts: runs.iter().map(|_| OnceLock::new()).collect(),
            runs,
            text,
            unreadable,
            hasher: RandomState::new(),
            claimed: AtomicUsize::new(0),
            index: OnceLock::new(),
        }
    }

    /// Claims runs one at a time and checks each — seals, UTF-8 and the
    /// 17-number decode — until none is left. Any number of threads may
    /// call it at once.
    fn check(&self) {
        loop {
            let i = self.claimed.fetch_add(1, Ordering::Relaxed);
            let Some(run) = self.runs.get(i) else { return };
            let mut records = Vec::with_capacity(run.len() / 256);
            let damaged = applog::unseal_lines(&self.text[run.clone()], |at, payload| {
                let Some((key, _, field)) = fields(payload) else {
                    return false;
                };
                if values(field.as_bytes()).is_none() {
                    return false;
                }
                let start = run.start + at + "v3 ".len();
                let record = Record {
                    key: start as u32,
                    tab: (start + key.len()) as u32,
                    end: (run.start + at + payload.len()) as u32,
                };
                records.push((self.hasher.hash_one(&*unescape(key)), record));
                true
            });
            if self.parts[i].set(Part { records, damaged }).is_err() {
                unreachable!("run {i} claimed twice");
            }
        }
    }

    /// Checks runs beside any other caller, then the index: the first
    /// caller to reach it builds it from every run's part, in log order,
    /// and hands the damage count to `damaged`; later callers wait for it.
    fn index(&self, damaged: impl FnOnce(u64)) -> &Index {
        self.check();
        self.index.get_or_init(|| {
            let parts: Vec<&Part> = self.parts.iter().map(OnceLock::wait).collect();
            let mut index = Index::default();
            let records = parts.iter().map(|part| part.records.len()).sum();
            index.last.reserve(records);
            for &(hash, record) in parts.iter().flat_map(|part| &part.records) {
                index.insert(&self.text, hash, record);
            }
            damaged(self.unreadable + parts.iter().map(|part| part.damaged).sum::<u64>());
            index
        })
    }

    /// The report of the last record under the full key `key`, once the
    /// index is built.
    fn get(&self, index: &Index, key: &str) -> Option<LayerReport> {
        let hash = self.hasher.hash_one(key);
        index.find(&self.text, hash, key)?.report(&self.text)
    }

    /// Every key's last record, decoded.
    fn records(&self, index: &Index) -> HashMap<String, LayerReport> {
        index
            .records()
            .filter_map(|record| {
                let key = record.key(&self.text)?.into_owned();
                Some((key, record.report(&self.text)?))
            })
            .collect()
    }
}

/// Every decodable record in `dir`'s log, keyed by their unescaped keys,
/// and the number of damaged records. A missing directory or log holds
/// nothing and is no damage; an unreadable or oversized log counts as
/// one damaged record. The same reader as a runner's lookups
/// ([`UnitRecords::stored`]), on one thread, decoded into a map.
#[must_use]
pub fn load(dir: &Path) -> (HashMap<String, LayerReport>, u64) {
    let resident = Resident::read(dir);
    let mut damaged = 0;
    let index = resident.index(|count| damaged = count);
    (resident.records(index), damaged)
}

/// Locks `m`. Every update under these locks is one map insert or one
/// append, so a poisoned lock still guards a valid value.
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
    /// Whether `memory` holds anything, so that a run's lookups skip its
    /// lock while it is empty, as it is all through a warm run.
    remembered: AtomicBool,
    /// The directory's log, read by the first [`UnitRecords::stored`]
    /// and indexed in place. Read-only once indexed, so lookups take no
    /// lock.
    stored: OnceLock<Resident>,
    /// `<dir>/records-v3.units`, opened by the first [`UnitRecords::append`].
    log: Option<Mutex<AppLog>>,
}

impl UnitRecords {
    /// Records that also persist under `dir` (created on first append).
    #[must_use]
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        UnitRecords {
            log: Some(Mutex::new(AppLog::new(dir.join(LOG)))),
            dir: Some(dir),
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
        if !self.remembered.load(Ordering::Acquire) {
            return None;
        }
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
        let fresh = lock(&self.memory).insert(key, report).is_none();
        self.remembered.store(true, Ordering::Release);
        fresh
    }

    /// The directory's record for the canonical key text `key`; `None`
    /// without a directory. The first call reads the directory's log
    /// under a `checkpoint.load` span on `spans`; every call until the
    /// log is indexed checks runs of its lines beside the others, and the
    /// one that builds the index hands the number of damaged records to
    /// `damaged`. Later calls, through any clone of the runner, look the
    /// key up in place and never call it.
    pub fn stored(
        &self,
        key: &str,
        spans: &Spans,
        damaged: impl FnOnce(u64),
    ) -> Option<LayerReport> {
        let dir = self.dir.as_deref()?;
        let mut span = None;
        let resident = self.stored.get_or_init(|| {
            span = Some(eureka_obs::span!(spans, "checkpoint.load"));
            Resident::read(dir)
        });
        let index = match resident.index.get() {
            Some(index) => index,
            None => resident.index(damaged),
        };
        drop(span);
        resident.get(index, key)
    }

    /// Appends the record of `report` under the canonical key text `key`
    /// to the directory's log with one `write`; a no-op without a
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates the log's directory-creation, open, lock or write
    /// failures; callers treat them as non-fatal (the result stays in
    /// memory).
    pub fn append(&self, key: &str, report: &LayerReport) -> io::Result<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let record = encode(key, report);
        lock(log).append(record.as_bytes()).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OpCounts;
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

    #[test]
    fn appends_go_to_one_log_and_a_lookup_creates_nothing() {
        let dir = case_dir("log");
        let tier = UnitRecords::in_dir(&dir);
        assert_eq!(
            tier.stored("k", &Spans::default(), |_| {}),
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
            tier.stored("a", &Spans::default(), |_| {}),
            None,
            "the directory was read once"
        );
        let fresh = UnitRecords::in_dir(&dir);
        assert_eq!(
            fresh.stored("b", &Spans::default(), |_| {}).map(|r| r.name),
            Some("layer-b".to_string())
        );
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            fresh.stored("c", &Spans::default(), |_| {}).is_some(),
            "loaded records stay resident"
        );
    }

    #[test]
    fn foreign_records_are_damaged_and_a_v2_log_is_never_read() {
        let dir = case_dir("foreign");
        assert_eq!(
            load(&dir),
            (HashMap::new(), 0),
            "a missing directory is no damage"
        );
        let r = sample();
        let good = encode("good", &r);
        let payload = &good[17..good.len() - 1];
        let mut log = good.clone();
        for foreign in [
            payload.replacen("v3 ", "v9 ", 1),
            payload.replacen('\t', " ", 1),
            format!("{payload} 99"),
            format!("{payload}\textra"),
            payload.replacen("123", "x", 1),
        ] {
            log.push_str(&applog::seal(&foreign));
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG), log).unwrap();
        let v2 = "eureka-checkpoint v2\nkey old\nname n\nfields 1 2 3 4 5 6 7 8 9\nops 1 2 3 4 5 6 7 8\n";
        std::fs::write(dir.join("records.units"), v2).unwrap();
        let (records, damaged) = load(&dir);
        assert_eq!(damaged, 5, "each foreign line is one damaged record");
        assert_eq!(records, HashMap::from([("good".to_string(), r.clone())]));

        UnitRecords::in_dir(&dir).append("next", &r).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("records.units")).unwrap(),
            v2,
            "a v2 log is never appended to"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `(key, report)` records whose names and cycles tell them apart.
    fn numbered(keys: &[&str]) -> Vec<(String, LayerReport)> {
        keys.iter()
            .enumerate()
            .map(|(i, key)| {
                let report = LayerReport {
                    name: format!("layer {i}"),
                    compute_cycles: i as u64,
                    ..sample()
                };
                (key.to_string(), report)
            })
            .collect()
    }

    /// What a reader must make of `text`: each whole line that `written`
    /// encodes replays, the last per key winning, and every other line —
    /// an unfinished last one too — is one damaged record.
    fn oracle(
        text: &[u8],
        written: &[(String, LayerReport)],
    ) -> (HashMap<String, LayerReport>, u64) {
        let (mut records, mut damaged) = (HashMap::new(), 0);
        for line in text.split_inclusive(|&b| b == b'\n') {
            match written
                .iter()
                .find(|(k, r)| encode(k, r).as_bytes() == line)
            {
                Some((key, report)) => drop(records.insert(key.clone(), report.clone())),
                None => damaged += 1,
            }
        }
        (records, damaged)
    }

    /// What `workers` threads make of `text` cut into runs of `chunk`
    /// bytes: each joins the check and asks for the index at once.
    fn read_with(text: &[u8], chunk: usize, workers: usize) -> (HashMap<String, LayerReport>, u64) {
        let resident = Resident::new(text.to_vec(), 0, chunk);
        let damaged = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| resident.index(|n| lock(&damaged).push(n)));
            }
        });
        let damaged = damaged.into_inner().unwrap();
        assert_eq!(damaged.len(), 1, "one worker hands the damage over");
        let index = resident.index.get().expect("the index is built");
        (resident.records(index), damaged[0])
    }

    /// One to four workers, with a split at every byte, read what one
    /// reader of the whole log reads: the same records, the last per key
    /// winning across runs, and each damaged line — a torn one, a NUL
    /// one, one with bytes that are not UTF-8, an unfinished last one —
    /// counted once, at the start or the end of a run alike.
    #[test]
    fn workers_and_split_points_never_change_what_is_read() {
        let written = numbered(&["a", "b", "tab\tand\\slash", "a", "c", "b", "d"]);
        let mut text = Vec::new();
        for (i, (key, report)) in written.iter().enumerate() {
            text.extend(encode(key, report).into_bytes());
            match i {
                1 => {
                    let torn = encode("torn", &sample());
                    text.extend(&torn.as_bytes()[..torn.len() / 2]);
                    text.push(b'\n');
                }
                3 => text.extend(
                    encode("nul", &sample())
                        .replacen("nul", "\0\0\0", 1)
                        .into_bytes(),
                ),
                4 => {
                    let mut bytes = encode("bytes", &sample()).into_bytes();
                    bytes[20] = 0xff;
                    text.extend(bytes);
                }
                _ => {}
            }
        }
        text.extend(&encode("unfinished", &sample()).as_bytes()[..40]);
        let want = oracle(&text, &written);
        assert_eq!(want.1, 4);
        assert_eq!(
            want.0["a"].name, "layer 3",
            "the later record of a key wins"
        );
        assert_eq!(want.0["b"].name, "layer 5");
        for chunk in 1..=text.len() + 1 {
            assert_eq!(
                read_with(&text, chunk, 1 + chunk % 4),
                want,
                "runs of {chunk} bytes"
            );
        }
        for workers in 1..=4 {
            for chunk in [1, 97, CHUNK] {
                assert_eq!(read_with(&text, chunk, workers), want, "{workers} workers");
            }
        }
    }

    /// A kill mid-append leaves an 8-record log cut at any byte: a load
    /// replays exactly its complete lines and counts a torn one.
    #[test]
    fn truncation_at_every_byte_replays_exactly_the_complete_lines() {
        let dir = case_dir("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let written = numbered(&["k0", "k1", "k\t2", "k3", "k1", "k5", "k6", "k7"]);
        let text: Vec<u8> = written
            .iter()
            .flat_map(|(key, report)| encode(key, report).into_bytes())
            .collect();
        for cut in 0..=text.len() {
            std::fs::write(dir.join(LOG), &text[..cut]).unwrap();
            assert_eq!(
                load(&dir),
                oracle(&text[..cut], &written),
                "cut at byte {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Keys whose hashes collide each keep their own last record.
    #[test]
    fn colliding_key_hashes_keep_every_key_apart() {
        let written = numbered(&["x", "y", "x", "y"]);
        let mut text = Vec::new();
        for (key, report) in &written {
            text.extend(encode(key, report).into_bytes());
        }
        let mut records = Vec::new();
        applog::unseal_lines(&text, |at, payload| {
            let key = fields(payload).unwrap().0;
            let start = at + 3;
            records.push(Record {
                key: start as u32,
                tab: (start + key.len()) as u32,
                end: (at + payload.len()) as u32,
            });
            true
        });
        let mut index = Index::default();
        for &record in &records {
            index.insert(&text, 7, record);
        }
        let found = |key| {
            index
                .find(&text, 7, key)
                .map(|r| r.report(&text).unwrap().name)
        };
        assert_eq!(found("x").as_deref(), Some("layer 2"));
        assert_eq!(found("y").as_deref(), Some("layer 3"));
        assert_eq!(found("z"), None);
        assert_eq!(index.find(&text, 8, "x").map(|r| r.end), None);
    }

    /// Characters that stress the line format: backslashes, newlines,
    /// tabs, carriage returns, spaces, the key separator and non-ASCII
    /// text.
    const ALPHABET: [char; 11] = ['a', 'n', 't', '\\', '\n', '\t', '\r', ' ', '|', 'é', '0'];

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

    /// Number tokens at and past the edges of what `str::parse::<u64>`
    /// accepts, and separators that break a field.
    const TOKENS: [&str; 12] = [
        "0",
        "42",
        "+7",
        "00012",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "+",
        "",
        "1 ",
        "\t9",
        "x",
    ];

    /// The numbers field as `str::parse` reads it: the reference for
    /// [`values`].
    fn parsed(field: &str) -> Option<[u64; 17]> {
        let mut parts = field.split(' ');
        let mut values = [0; 17];
        for value in &mut values {
            *value = parts.next()?.parse().ok()?;
        }
        parts.next().is_none().then_some(values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The byte parser reads exactly what `str::parse` reads, so a
        /// record is damaged exactly when it was before.
        #[test]
        fn numbers_decode_as_str_parse_does(
            tokens in prop::collection::vec(0..TOKENS.len(), 16..18),
            plain in any::<bool>(),
        ) {
            // Mostly plain numbers, so that whole fields decode too.
            let field = tokens
                .iter()
                .map(|&i| if plain { TOKENS[i % 4] } else { TOKENS[i] })
                .collect::<Vec<_>>()
                .join(" ");
            prop_assert_eq!(values(field.as_bytes()), parsed(&field), "{:?}", field);
        }

        #[test]
        fn escaped_keys_and_names_round_trip_through_the_log(records in records()) {
            let dir = case_dir("roundtrip");
            let tier = UnitRecords::in_dir(&dir);
            for (key, report) in &records {
                tier.append(key, report).expect("append writes");
            }
            let fresh = UnitRecords::in_dir(&dir);
            for (key, report) in &records {
                prop_assert_eq!(fresh.stored(key, &Spans::default(), |_| {}), Some(report.clone()));
            }
            prop_assert_eq!(load(&dir).1, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
