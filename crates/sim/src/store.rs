//! Tile-level content-addressed result store: the memoization layer
//! beneath the runner's unit records, active only for runners with a store
//! directory ([`crate::Runner::with_store_dir`]).
//!
//! The paper's timing model is tile-granular, and identical sparsity
//! tiles recur constantly — across layers, across workloads, across
//! architectures that share a timer, and across *processes* in a sweep
//! campaign. This module caches one [`TileOutcome`] per canonical
//! [`TileKey`] in one map per shard of a [`DiskTier`]: 16 shard files
//! under a store directory, keyed by the low nibble of the key's FNV-1a
//! hash. Each shard holds, in memory, the records read from its file
//! (once, on first touch) and the records computed since the last flush.
//! A lookup takes its key's shard lock, checks both, and on a miss runs
//! the caller's closure under that same lock, so concurrent requests for
//! one missing key compute it once and hit/miss counts depend only on the
//! multiset of keys, not on scheduling. The files follow the checkpoint
//! layer's durability discipline: versioned `eureka-tilestore v1` header,
//! atomic tmp+rename creation with append-only growth (see
//! [`DiskTier::flush`]), strict record verification on load (a malformed
//! or misplaced record is a miss and a `store.errors` tick, never data
//! and never a panic).
//!
//! Keys canonicalize via [`eureka_sparse::canon`]: permutation-invariant
//! timers collapse row orderings, order-sensitive timers keep them, and
//! uniform-latency timers (dense, 2:4) are not keyed at all. The store
//! returns bit-identical outcomes for equal keys by construction — every
//! timer is a pure integer function of the canonical signature — which is
//! what lets a warm store skip `suds::optimize` entirely without
//! perturbing any report.
//!
//! A [`TileStore`] is the `store.*` counters over one [`DiskTier`]; a
//! runner builds it in [`crate::Runner::with_store_dir`] and shares it
//! with its clones. Within
//! one process, keying and looking a tile up costs more than timing it,
//! so a runner without a store directory has no tile store and plants
//! disabled brokers: its tiles are never keyed.
//!
//! The store sits behind each worker's signature tables
//! ([`crate::arch::onesided::SignatureTables`]): a sampled tile at the
//! paper geometry reads its timer's table first, and only a table miss
//! renders a key and comes here. A table entry is filled only through a
//! lookup of its key, so each table hit stands for a store hit; the
//! one-sided engine adds a layer's table hits to the counters in one
//! batch (`TileBroker::count_hits`). The counters, each unit's source
//! and the shard records are therefore what keying every tile gives.
//!
//! # Metrics
//!
//! `store.lookups/hits/misses/inserts/errors`, all
//! [`Class::Deterministic`], in the runner's registry, registered on the
//! store's first lookup or error; `lookups == hits + misses` always, and
//! on a fully warmed store `hits == lookups` with `misses == 0`.

use eureka_obs::metrics::{Class, Counter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use eureka_obs::applog::fnv1a64;

/// Format marker for shard files; bump on incompatible record changes.
/// Readers treat any other header as an empty shard (recompute, never
/// wrong data), so mixed-version directories degrade gracefully.
const HEADER: &str = "eureka-tilestore v1";

/// Number of shard files a disk tier spreads records across.
///
/// Was 256 (low byte of the key hash); 16 keeps flush and load I/O
/// proportional to the data instead of the shard count — on the
/// benchmark workloads a few thousand records were spread
/// one-or-two-per-file across 256 files, making every flush and cold
/// load syscall-bound. The low *nibble* of the same FNV-1a hash picks
/// the shard, so files `00.tiles`..`0f.tiles` written by the 256-shard
/// scheme still hold only keys whose low nibble matches and remain
/// readable; files `10.tiles`..`ff.tiles` are simply never consulted
/// (their records recompute — degraded, never wrong).
const SHARDS: usize = 16;

/// Canonical content key of one timed tile: timer discipline (including
/// any timer parameter, e.g. the multistep reach) plus the canonical
/// row-length signature. Whitespace-free, so it embeds directly in the
/// line-oriented shard format.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileKey(String);

impl TileKey {
    /// Assembles a key from a timer discipline tag and a canonical
    /// row-length token (see [`eureka_sparse::canon::lens_token`]).
    ///
    /// # Panics
    ///
    /// Panics if either part contains whitespace — keys name records in
    /// a space-separated on-disk format.
    #[must_use]
    pub fn new(discipline: &str, lens_token: &str) -> Self {
        let mut text = String::with_capacity(4 + discipline.len() + lens_token.len());
        TileKey::encode_into(discipline, lens_token, &mut text);
        TileKey(text)
    }

    /// Writes the key text (`v1|discipline|lens_token`) into a reusable
    /// buffer — the zero-allocation form of [`TileKey::new`] for hot
    /// loops that resolve through [`TileBroker::resolve_str`]. The buffer
    /// is cleared first; the rendered text is byte-identical to
    /// `TileKey::new(discipline, lens_token).as_str()`.
    ///
    /// # Panics
    ///
    /// Panics if either part contains whitespace — keys name records in
    /// a space-separated on-disk format.
    pub fn encode_into(discipline: &str, lens_token: &str, out: &mut String) {
        assert!(
            !discipline.contains(char::is_whitespace) && !lens_token.contains(char::is_whitespace),
            "tile keys must be whitespace-free"
        );
        out.clear();
        out.push_str("v1|");
        out.push_str(discipline);
        out.push('|');
        out.push_str(lens_token);
    }

    /// The key's stable text form.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Which of the `SHARDS` shard files holds this key.
    #[must_use]
    pub fn shard(&self) -> usize {
        shard_of(&self.0)
    }
}

/// `TileKey` hashes, compares and orders exactly like its text form, so
/// map lookups can run on a borrowed `&str` without materializing a key.
impl std::borrow::Borrow<str> for TileKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Which of the [`SHARDS`] shard files holds the key with text `key`.
fn shard_of(key: &str) -> usize {
    (fnv1a64(key.as_bytes()) & (SHARDS as u64 - 1)) as usize
}

/// The result of timing one canonical tile: everything both the plain
/// and the profiled simulation paths consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileOutcome {
    /// Sub-array cycles for the tile (the timer's `k`, floored at 1).
    pub cycles: u64,
    /// SUDS-displaced element count (0 for non-SUDS timers).
    pub displaced: u64,
    /// The SUDS plan's base row, when the timer produces one (feeds the
    /// profiler's crossbar-rotation histogram).
    pub base_row: Option<usize>,
    /// Non-zeros in the tile — determined by the canonical signature, so
    /// it is safe to carry in a content-addressed record.
    pub nnz: u64,
}

/// Handles to the `store.*` counters.
struct StoreTelemetry {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    errors: Arc<Counter>,
}

impl StoreTelemetry {
    fn new(metrics: &Registry) -> Self {
        let c = |name| metrics.counter(name, Class::Deterministic);
        StoreTelemetry {
            lookups: c("store.lookups"),
            hits: c("store.hits"),
            misses: c("store.misses"),
            inserts: c("store.inserts"),
            errors: c("store.errors"),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Same poisoning policy as the runner: a caught unit panic must not
    // wedge the store for the rest of the process.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A runner's tile store: the `store.*` counters over the disk tier of
/// its store directory.
pub struct TileStore {
    disk: DiskTier,
    metrics: Registry,
    /// The `store.*` counters, registered on first use, so a run that
    /// never looks a tile up adds no `store.*` names to its snapshot.
    tel: OnceLock<StoreTelemetry>,
}

impl std::fmt::Debug for TileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileStore")
            .field("dir", &self.disk.dir)
            .finish_non_exhaustive()
    }
}

impl TileStore {
    /// A store over the disk tier rooted at `dir`, counting into
    /// `metrics`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, metrics: Registry) -> Self {
        TileStore {
            disk: DiskTier::new(dir),
            metrics,
            tel: OnceLock::new(),
        }
    }

    fn tel(&self) -> &StoreTelemetry {
        self.tel.get_or_init(|| StoreTelemetry::new(&self.metrics))
    }

    /// Resolves the key with text `key` through the disk tier, calling
    /// `compute` on a miss ([`DiskTier`] runs it at most once per key,
    /// under the key's shard lock). Returns the outcome and whether
    /// `compute` ran. Updates the `store.*` counters; exactly one of
    /// hit/miss fires per call, and misses also count an insert.
    pub fn lookup_or_compute_str(
        &self,
        key: &str,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, bool) {
        let t = self.tel();
        t.lookups.inc();
        let (out, computed, errors) = self.disk.lookup_or_compute(key, compute);
        t.errors.add(errors);
        if computed {
            t.misses.inc();
            t.inserts.inc();
        } else {
            t.hits.inc();
        }
        (out, computed)
    }

    /// Counts `n` lookups answered before they reached this store, by a
    /// worker's signature table, as `n` lookups and `n` hits: a table
    /// entry is filled only through a lookup of its key here, so each
    /// of them would have hit.
    pub(crate) fn count_hits(&self, n: u64) {
        if n > 0 {
            let t = self.tel();
            t.lookups.add(n);
            t.hits.add(n);
        }
    }

    /// Persists the tiles computed since the last flush
    /// ([`DiskTier::flush`]), counting failed shard writes as
    /// `store.errors`.
    pub fn flush(&self) {
        let errors = self.disk.flush();
        if errors > 0 {
            self.tel().errors.add(errors);
        }
    }
}

/// One shard's in-memory state: records read from disk (lazily, once)
/// and records computed this run but not yet flushed.
#[derive(Default)]
struct Shard {
    loaded: Option<HashMap<TileKey, TileOutcome>>,
    dirty: BTreeMap<TileKey, TileOutcome>,
}

/// The persistent tier: a directory of up to `SHARDS` shard files.
pub struct DiskTier {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 16 shards of record maps are noise; the directory identifies
        // the tier.
        f.debug_struct("DiskTier").field("dir", &self.dir).finish()
    }
}

impl DiskTier {
    /// A tier rooted at `dir` (created on first flush).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTier {
            dir: dir.into(),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// The tier's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("{idx:02x}.tiles"))
    }

    /// Looks the key with text `key` up in its shard, reading the shard
    /// file on first access. Dirty (not yet flushed) records are visible
    /// too.
    #[must_use]
    pub fn lookup_str(&self, key: &str) -> Option<TileOutcome> {
        let idx = shard_of(key);
        self.find(&mut lock(&self.shards[idx]), idx, key).0
    }

    /// Looks `key` up like [`lookup_str`](Self::lookup_str) and on a miss
    /// stages `compute()` for the next flush, all under one hold of the
    /// key's shard lock, so concurrent callers of one missing key compute
    /// it once. A panicking `compute` leaves the shard as it was. Returns
    /// the outcome, whether `compute` ran, and the damaged records found
    /// if the lookup read the shard file.
    fn lookup_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, bool, u64) {
        let idx = shard_of(key);
        let mut shard = lock(&self.shards[idx]);
        let (found, errors) = self.find(&mut shard, idx, key);
        if let Some(out) = found {
            return (out, false, errors);
        }
        let out = compute();
        shard.dirty.insert(TileKey(key.to_string()), out);
        (out, true, errors)
    }

    /// `key`'s record in `shard` (number `idx`): a dirty one first, then
    /// the file's, plus the damaged records found if this read the file.
    fn find(&self, shard: &mut Shard, idx: usize, key: &str) -> (Option<TileOutcome>, u64) {
        if let Some(out) = shard.dirty.get(key) {
            return (Some(*out), 0);
        }
        let errors = self.load(shard, idx);
        let loaded = shard.loaded.as_ref().expect("loaded above");
        (loaded.get(key).copied(), errors)
    }

    /// Reads shard `idx`'s file into `shard` on first access, returning
    /// the number of damaged records it held (0 once loaded).
    fn load(&self, shard: &mut Shard, idx: usize) -> u64 {
        if shard.loaded.is_some() {
            return 0;
        }
        let (map, damaged) = self.read_shard(idx);
        shard.loaded = Some(map);
        damaged
    }

    /// Stages a freshly computed record under the key with text `key` for
    /// the next [`DiskTier::flush`].
    pub fn record_str(&self, key: &str, out: TileOutcome) {
        lock(&self.shards[shard_of(key)])
            .dirty
            .insert(TileKey(key.to_string()), out);
    }

    /// Persists dirty records. A shard whose file is already readable
    /// (valid header on load) gets the new records *appended*, so flush
    /// cost is proportional to what this run computed, not to the store
    /// size — the profiler traced most of a cold benchmark run's wall
    /// clock to whole-shard rewrites here. A shard with no readable file
    /// yet (missing, empty, or a failed header check) is written whole
    /// via the atomic tmp+rename path, which also repairs a corrupt file
    /// on the next flush. Records already on disk are never rewritten —
    /// outcomes are pure functions of the key, so re-recording equal
    /// content leaves the shard bytes untouched. Returns the number of
    /// shards that failed to write (their records stay dirty for a
    /// later flush) plus damaged records read on the way.
    pub fn flush(&self) -> u64 {
        let mut errors = 0;
        for idx in 0..SHARDS {
            let mut shard = lock(&self.shards[idx]);
            if shard.dirty.is_empty() {
                continue;
            }
            errors += self.load(&mut shard, idx);
            let loaded = shard.loaded.as_ref().expect("loaded above");
            // Sorted (BTreeMap order), deduplicated against disk: the
            // appended bytes are deterministic per flush batch.
            let mut text = String::new();
            let mut fresh = 0usize;
            for (k, v) in shard
                .dirty
                .iter()
                .filter(|(k, v)| loaded.get(*k) != Some(*v))
            {
                text.push_str(&encode_record(k, *v));
                text.push('\n');
                fresh += 1;
            }
            let written = if fresh == 0 {
                true
            } else if loaded.is_empty() {
                // Nothing readable on disk: write the shard whole,
                // atomically (header first, then the records).
                let mut whole = String::from(HEADER);
                whole.push('\n');
                whole.push_str(&text);
                eureka_obs::atomic::write_atomic(&self.shard_path(idx), whole.as_bytes()).is_ok()
            } else {
                // Readable shard on disk: append only the new records.
                // A crash mid-append at worst truncates the final line,
                // which the strict record check skips on the next load.
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(self.shard_path(idx))
                    .and_then(|mut f| std::io::Write::write_all(&mut f, text.as_bytes()))
                    .is_ok()
            };
            if written {
                let dirty = std::mem::take(&mut shard.dirty);
                let loaded = shard.loaded.as_mut().expect("loaded above");
                for (k, v) in dirty {
                    loaded.insert(k, v);
                }
            } else {
                errors += 1;
            }
        }
        errors
    }

    /// Parses shard `idx` from disk, returning its records and the
    /// number of damaged ones. Never panics: a missing file is an empty
    /// shard; a bad header discards the shard (one error); a malformed
    /// record, or one whose key does not belong in this shard (collision
    /// damage, manual tampering), is skipped as one error.
    fn read_shard(&self, idx: usize) -> (HashMap<TileKey, TileOutcome>, u64) {
        let mut map = HashMap::new();
        let Ok(text) = std::fs::read_to_string(self.shard_path(idx)) else {
            return (map, 0);
        };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return (map, 1);
        }
        let mut errors = 0;
        for line in lines {
            match decode_record(line) {
                Some((key, out)) if key.shard() == idx => {
                    // Duplicate keys: last record wins (append-crash
                    // recovery keeps the newest write).
                    map.insert(key, out);
                }
                _ => errors += 1,
            }
        }
        (map, errors)
    }

    /// Total records across all shard files currently on disk (reads the
    /// files; intended for tests and tooling, not the hot path).
    #[must_use]
    pub fn records_on_disk(&self) -> usize {
        (0..SHARDS).map(|idx| self.read_shard(idx).0.len()).sum()
    }
}

/// `key cycles displaced base_row|- nnz` on one line.
fn encode_record(key: &TileKey, out: TileOutcome) -> String {
    let base = out
        .base_row
        .map_or_else(|| "-".to_string(), |b| b.to_string());
    format!(
        "{} {} {} {} {}",
        key.as_str(),
        out.cycles,
        out.displaced,
        base,
        out.nnz
    )
}

/// Strict inverse of [`encode_record`]: exactly five fields, all
/// numerics parse, the key carries the `v1|` version tag. `None` on any
/// deviation.
fn decode_record(line: &str) -> Option<(TileKey, TileOutcome)> {
    let mut parts = line.split(' ');
    let key = parts.next()?;
    if !key.starts_with("v1|") || key.is_empty() {
        return None;
    }
    let cycles = parts.next()?.parse().ok()?;
    let displaced = parts.next()?.parse().ok()?;
    let base = parts.next()?;
    let base_row = if base == "-" {
        None
    } else {
        Some(base.parse().ok()?)
    };
    let nnz = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((
        TileKey(key.to_string()),
        TileOutcome {
            cycles,
            displaced,
            base_row,
            nnz,
        },
    ))
}

/// The tile-resolution handle planted in each work unit's
/// [`crate::arch::LayerCtx`]. Disabled brokers compute directly (ad-hoc
/// simulation call sites and runners without a store directory); enabled
/// brokers resolve through their runner's [`TileStore`] while tallying
/// per-unit lookup/compute counts so the runner can classify the unit.
#[derive(Clone, Debug, Default)]
pub struct TileBroker {
    inner: Option<Arc<BrokerInner>>,
}

#[derive(Debug)]
struct BrokerInner {
    store: Arc<TileStore>,
    lookups: AtomicU64,
    computes: AtomicU64,
}

impl TileBroker {
    /// A broker that always computes (no store participation).
    #[must_use]
    pub fn disabled() -> Self {
        TileBroker::default()
    }

    /// A broker resolving through `store`, with a fresh per-unit tally.
    #[must_use]
    pub fn enabled(store: Arc<TileStore>) -> Self {
        TileBroker {
            inner: Some(Arc::new(BrokerInner {
                store,
                lookups: AtomicU64::new(0),
                computes: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this broker resolves through the store. Callers skip
    /// keying a tile when it does not: a disabled broker computes every
    /// tile, so a key would never be read.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves one tile: through the store when enabled and the timer
    /// is content-addressable (`key` is `Some`, e.g. a scratch buffer
    /// filled by [`TileKey::encode_into`]), by calling `compute`
    /// otherwise. An owned key is only built when the store has never
    /// seen this canonical tile.
    pub fn resolve_str(
        &self,
        key: Option<&str>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        let (Some(inner), Some(key)) = (&self.inner, key) else {
            return compute();
        };
        inner.lookups.fetch_add(1, Ordering::Relaxed);
        let (out, computed) = inner.store.lookup_or_compute_str(key, compute);
        if computed {
            inner.computes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Tallies `n` lookups that a signature table answered as store
    /// hits ([`TileStore::count_hits`]); a disabled broker counts
    /// nothing.
    pub(crate) fn count_hits(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.lookups.fetch_add(n, Ordering::Relaxed);
            inner.store.count_hits(n);
        }
    }

    /// `(lookups, computes)` this broker has tallied.
    #[must_use]
    pub fn tally(&self) -> (u64, u64) {
        self.inner.as_ref().map_or((0, 0), |i| {
            (
                i.lookups.load(Ordering::Relaxed),
                i.computes.load(Ordering::Relaxed),
            )
        })
    }

    /// Zeroes the tally (the runner resets between retry attempts, so a
    /// unit's classification reflects its final attempt only).
    pub fn reset_tally(&self) {
        if let Some(i) = &self.inner {
            i.lookups.store(0, Ordering::Relaxed);
            i.computes.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(cycles: u64) -> TileOutcome {
        TileOutcome {
            cycles,
            displaced: cycles / 2,
            base_row: Some(3),
            nnz: cycles * 4,
        }
    }

    fn key(n: u64) -> TileKey {
        TileKey::new("test", &format!("{n},{},{},{}", n + 1, n + 2, n + 3))
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("eureka-tilestore-{tag}-{}", std::process::id()))
    }

    #[test]
    fn record_round_trips_and_rejects_malformed_lines() {
        let k = key(9);
        for o in [
            out(7),
            TileOutcome {
                base_row: None,
                ..out(7)
            },
        ] {
            let line = encode_record(&k, o);
            assert_eq!(decode_record(&line), Some((k.clone(), o)));
        }
        for bad in [
            "",
            "v1|test|1,2,3,4 1 2",           // too few fields
            "v1|test|1,2,3,4 1 2 - 5 extra", // too many fields
            "v1|test|1,2,3,4 x 2 - 5",       // non-numeric
            "v0|test|1,2,3,4 1 2 - 5",       // version skew in the key
            "plain 1 2 - 5",                 // no version tag
        ] {
            assert_eq!(decode_record(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn disk_tier_round_trips_through_flush() {
        let dir = tmp("roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.lookup_str(key(1).as_str()), None);
        tier.record_str(key(1).as_str(), out(5));
        tier.record_str(key(2).as_str(), out(6));
        assert_eq!(
            tier.lookup_str(key(1).as_str()),
            Some(out(5)),
            "dirty records visible"
        );
        tier.flush();
        // A fresh tier over the same directory sees the flushed records.
        let fresh = DiskTier::new(&dir);
        assert_eq!(fresh.lookup_str(key(1).as_str()), Some(out(5)));
        assert_eq!(fresh.lookup_str(key(2).as_str()), Some(out(6)));
        assert_eq!(fresh.records_on_disk(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_is_idempotent_and_byte_stable() {
        let dir = tmp("stable");
        std::fs::remove_dir_all(&dir).ok();
        let tier = DiskTier::new(&dir);
        for i in 0..20 {
            tier.record_str(key(i).as_str(), out(i + 1));
        }
        tier.flush();
        let snapshot: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        // Re-record identical content and flush again: identical bytes.
        let again = DiskTier::new(&dir);
        for i in 0..20 {
            again.record_str(key(i).as_str(), out(i + 1));
        }
        again.flush();
        for (p, bytes) in snapshot {
            assert_eq!(std::fs::read(&p).unwrap(), bytes, "{p:?} changed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_misplaced_records_are_skipped_not_data() {
        let dir = tmp("corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(3);
        // Hand-write k's shard with one good record, one truncated line,
        // and one record whose key belongs in a different shard.
        let stray = (4..)
            .map(key)
            .find(|s| s.shard() != k.shard())
            .expect("a key hashing to another shard exists");
        let shard_file = dir.join(format!("{:02x}.tiles", k.shard()));
        let text = format!(
            "{HEADER}\n{}\ngarbage line\n{}\n",
            encode_record(&k, out(9)),
            encode_record(&stray, out(1)),
        );
        std::fs::write(&shard_file, text).unwrap();
        let tier = DiskTier::new(&dir);
        assert_eq!(
            tier.lookup_str(k.as_str()),
            Some(out(9)),
            "good record survives"
        );
        assert_eq!(
            tier.lookup_str(stray.as_str()),
            None,
            "misplaced record is rejected"
        );
        // A shard with a skewed header is entirely ignored.
        std::fs::write(&shard_file, "eureka-tilestore v9\nwhatever\n").unwrap();
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.lookup_str(k.as_str()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_never_panics() {
        let dir = tmp("truncated");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let k = key(5);
        let full = format!("{HEADER}\n{}\n", encode_record(&k, out(2)));
        for cut in 0..full.len() {
            std::fs::write(dir.join(format!("{:02x}.tiles", k.shard())), &full[..cut]).unwrap();
            let tier = DiskTier::new(&dir);
            let _ = tier.lookup_str(k.as_str()); // any Option is fine; panicking is not
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_misses_of_one_key_compute_once() {
        let dir = tmp("dedup");
        std::fs::remove_dir_all(&dir).ok();
        let metrics = Registry::new();
        let store = TileStore::new(&dir, metrics.clone());
        assert_eq!(
            metrics.counter_value("store.lookups"),
            None,
            "no lookup yet"
        );
        let k = key(1);
        let computes = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        let computed: Vec<bool> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (o, computed) = store.lookup_or_compute_str(k.as_str(), || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Widen the window in which a second caller
                            // could slip past an unlocked check.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            out(1)
                        });
                        assert_eq!(o, out(1));
                        computed
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "one compute per key");
        assert_eq!(computed.iter().filter(|c| **c).count(), 1);
        assert_eq!(metrics.counter_value("store.lookups"), Some(8));
        assert_eq!(metrics.counter_value("store.misses"), Some(1));
        assert_eq!(metrics.counter_value("store.inserts"), Some(1));
        assert_eq!(metrics.counter_value("store.hits"), Some(7));
        // Flushed tiles serve a fresh store from disk.
        store.flush();
        let fresh = TileStore::new(&dir, Registry::new());
        let served = fresh.lookup_or_compute_str(k.as_str(), || unreachable!("on disk"));
        assert_eq!(served, (out(1), false));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broker_tallies_lookups_and_computes() {
        let broker = TileBroker::enabled(Arc::new(TileStore::new(tmp("broker"), Registry::new())));
        let k = TileKey::new("tally", "1,2,3");
        broker.resolve_str(Some(k.as_str()), || out(8));
        broker.resolve_str(Some(k.as_str()), || out(8));
        broker.resolve_str(None, || out(8)); // uniform timer: not tallied
        let (lookups, computes) = broker.tally();
        assert_eq!(lookups, 2);
        assert_eq!(computes, 1, "only the first resolve computes");
        broker.reset_tally();
        assert_eq!(broker.tally(), (0, 0));
        assert_eq!(TileBroker::disabled().tally(), (0, 0));
    }
}
