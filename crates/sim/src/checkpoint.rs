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
//! * **Loading.** The log is read once, on the first lookup that misses
//!   memory (a `checkpoint.load` span), and each line is parsed where it
//!   lies ([`load`]). Only the decoded map stays resident; the
//!   `checkpoint/load_4k` bench loads 4,096 records in 6.6–7.6 ms on a
//!   shared 2-vCPU VM (5.5–5.9 ms for v2's unsealed records).
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
use std::collections::HashMap;
use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The log's file name inside the store directory.
const LOG: &str = "records-v3.units";

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

/// Parses one record's payload: its unescaped key and its report; `None`
/// for a foreign one.
fn decode(payload: &str) -> Option<(String, LayerReport)> {
    let mut fields = payload.strip_prefix("v3 ")?.split('\t');
    let (key, name) = (fields.next()?, fields.next()?);
    let mut report = LayerReport {
        name: unescape(name).into_owned(),
        ..LayerReport::default()
    };
    let mut parts = fields.next()?.split(' ');
    for slot in numbers(&mut report) {
        *slot = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() || fields.next().is_some() {
        return None;
    }
    Some((unescape(key).into_owned(), report))
}

/// Every decodable record in `dir`'s log, keyed by their unescaped keys,
/// and the number of damaged records. A missing directory or log holds
/// nothing and is no damage; an unreadable or oversized log counts as
/// one damaged record. The log is read a block at a time, so only the
/// decoded map is ever resident.
#[must_use]
pub fn load(dir: &Path) -> (HashMap<String, LayerReport>, u64) {
    let mut records = HashMap::new();
    let damaged = applog::replay(&dir.join(LOG), None, |lines| {
        records.reserve(lines);
        |payload: &str| {
            decode(payload)
                .map(|(key, report)| records.insert(key, report))
                .is_some()
        }
    });
    (records, damaged.map_or(1, Option::unwrap_or_default))
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
    /// The directory's records, by canonical key text, read by the first
    /// [`UnitRecords::stored`]. Read-only after that, so lookups take no
    /// lock.
    stored: OnceLock<HashMap<String, LayerReport>>,
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
    /// without a directory. The first call loads the directory under a
    /// `checkpoint.load` span on `spans` and hands the number of damaged
    /// records to `damaged`; later calls, through any clone of the
    /// runner, answer from memory and never call it.
    pub fn stored(
        &self,
        key: &str,
        spans: &Spans,
        damaged: impl FnOnce(u64),
    ) -> Option<&LayerReport> {
        let dir = self.dir.as_deref()?;
        self.stored
            .get_or_init(|| {
                let _span = eureka_obs::span!(spans, "checkpoint.load");
                let (records, count) = load(dir);
                damaged(count);
                records
            })
            .get(key)
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
            fresh
                .stored("b", &Spans::default(), |_| {})
                .map(|r| r.name.as_str()),
            Some("layer-b")
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn escaped_keys_and_names_round_trip_through_the_log(records in records()) {
            let dir = case_dir("roundtrip");
            let tier = UnitRecords::in_dir(&dir);
            for (key, report) in &records {
                tier.append(key, report).expect("append writes");
            }
            let fresh = UnitRecords::in_dir(&dir);
            for (key, report) in &records {
                prop_assert_eq!(fresh.stored(key, &Spans::default(), |_| {}), Some(report));
            }
            prop_assert_eq!(load(&dir).1, 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
