//! Tile-level content-addressed result store: the memoization layer
//! beneath the runner's unit cache.
//!
//! The paper's timing model is tile-granular, and identical sparsity
//! tiles recur constantly — across layers, across workloads, across
//! architectures that share a timer, and across *processes* in a sweep
//! campaign. This module caches one [`TileOutcome`] per canonical
//! [`TileKey`] in two tiers:
//!
//! * a **hot tier**: a process-wide striped hash map, always consulted
//!   first. Concurrent requests for the same missing key deduplicate —
//!   exactly one computes, the rest block on the entry — so hit/miss
//!   counts depend only on the multiset of keys, not on scheduling;
//! * a **disk tier** ([`DiskTier`]): 16 shard files under a store
//!   directory, keyed by the low nibble of the key's FNV-1a hash,
//!   following the checkpoint layer's durability discipline — versioned
//!   `eureka-tilestore v1` header, atomic tmp+rename creation with
//!   append-only growth (see [`DiskTier::flush`]), strict record
//!   verification on load (a malformed or misplaced record is a
//!   miss and a `store.errors` tick, never data and never a panic).
//!
//! Keys canonicalize via [`eureka_sparse::canon`]: permutation-invariant
//! timers collapse row orderings, order-sensitive timers keep them, and
//! uniform-latency timers (dense, 2:4) are not keyed at all. The store
//! returns bit-identical outcomes for equal keys by construction — every
//! timer is a pure integer function of the canonical signature — which is
//! what lets a warm store skip `suds::optimize` entirely without
//! perturbing any report.
//!
//! # Metrics
//!
//! `store.lookups/hits/misses/inserts/evictions/errors`, all
//! [`Class::Deterministic`]; `lookups == hits + misses` always, and on a
//! fully warmed store `hits == lookups` with `misses == 0`.

use eureka_obs::metrics::{self, Class, Counter};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::hash::fnv1a64;

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

/// Stripe count of the hot tier's hash map.
const STRIPES: usize = 16;

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

fn stripe_of(key: &str) -> usize {
    // Use different bits than `shard_of` so one shard's keys still
    // spread across hot-tier stripes.
    ((fnv1a64(key.as_bytes()) >> 8) as usize) % STRIPES
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

/// Where a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Present in the hot tier (or computed concurrently by another
    /// worker — the entry deduplicates).
    Hot,
    /// Loaded from a disk shard and promoted to the hot tier.
    Disk,
    /// Missing everywhere: the caller's closure simulated it.
    Computed,
}

/// `&'static` handles to the `store.*` counters.
struct StoreTelemetry {
    lookups: &'static Counter,
    hits: &'static Counter,
    misses: &'static Counter,
    inserts: &'static Counter,
    evictions: &'static Counter,
    errors: &'static Counter,
}

fn stel() -> &'static StoreTelemetry {
    static TEL: OnceLock<StoreTelemetry> = OnceLock::new();
    TEL.get_or_init(|| StoreTelemetry {
        lookups: metrics::counter("store.lookups", Class::Deterministic),
        hits: metrics::counter("store.hits", Class::Deterministic),
        misses: metrics::counter("store.misses", Class::Deterministic),
        inserts: metrics::counter("store.inserts", Class::Deterministic),
        evictions: metrics::counter("store.evictions", Class::Deterministic),
        errors: metrics::counter("store.errors", Class::Deterministic),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Same poisoning policy as the runner: a caught unit panic must not
    // wedge the store for the rest of the process.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One hot-tier entry. The `OnceLock` is the deduplication point:
/// whichever caller reaches an unset entry first initializes it (from
/// disk or by computing); concurrent callers block and then read it.
type Cell = Arc<OnceLock<TileOutcome>>;

/// The process-wide hot tier plus the `store.*` counters' bookkeeping.
pub struct TileStore {
    stripes: Vec<Mutex<HashMap<TileKey, Cell>>>,
    entries: AtomicUsize,
    /// Hot-tier capacity in entries; 0 = unbounded (the default).
    capacity: AtomicUsize,
}

impl TileStore {
    fn new() -> Self {
        TileStore {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            entries: AtomicUsize::new(0),
            capacity: AtomicUsize::new(0),
        }
    }

    /// Resolves `key`: hot tier first, then `disk` (promoting hits),
    /// then `compute` — which runs at most once per key process-wide,
    /// with concurrent requesters blocking on the in-flight entry.
    /// Updates the `store.*` counters; exactly one of hit/miss fires per
    /// call, and misses also count an insert.
    pub fn lookup_or_compute(
        &self,
        key: &TileKey,
        disk: Option<&DiskTier>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, Served) {
        self.lookup_or_compute_str(key.as_str(), disk, compute)
    }

    /// [`lookup_or_compute`](Self::lookup_or_compute) over the key's text
    /// form. The hot path: an owned [`TileKey`] is only materialized when
    /// the key is genuinely new to the hot tier (first sight of a
    /// canonical tile), so steady-state resolution performs no
    /// allocation.
    pub fn lookup_or_compute_str(
        &self,
        key: &str,
        disk: Option<&DiskTier>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> (TileOutcome, Served) {
        let t = stel();
        t.lookups.inc();
        let cell = {
            let mut map = lock(&self.stripes[stripe_of(key)]);
            match map.get(key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Cell::default();
                    map.insert(TileKey(key.to_string()), Arc::clone(&cell));
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    cell
                }
            }
        };
        let mut served = Served::Hot;
        let out = *cell.get_or_init(|| {
            if let Some(d) = disk {
                if let Some(hit) = d.lookup_str(key) {
                    served = Served::Disk;
                    return hit;
                }
            }
            served = Served::Computed;
            let out = compute();
            if let Some(d) = disk {
                d.record_str(key, out);
            }
            out
        });
        match served {
            Served::Hot | Served::Disk => t.hits.inc(),
            Served::Computed => {
                t.misses.inc();
                t.inserts.inc();
                self.maybe_evict(key);
            }
        }
        (out, served)
    }

    /// Bounds the hot tier to `capacity` entries (0 = unbounded).
    /// Eviction only reclaims memory: evicted keys recompute (or reload
    /// from disk) with identical results, so correctness is unaffected.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Evicts settled entries (never `keep`) while over capacity.
    fn maybe_evict(&self, keep: &str) {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 || self.entries.load(Ordering::Relaxed) <= cap {
            return;
        }
        let t = stel();
        for stripe in &self.stripes {
            if self.entries.load(Ordering::Relaxed) <= cap {
                break;
            }
            let mut map = lock(stripe);
            let victims: Vec<TileKey> = map
                .iter()
                .filter(|(k, cell)| k.as_str() != keep && cell.get().is_some())
                .map(|(k, _)| k.clone())
                .collect();
            for victim in victims {
                if self.entries.load(Ordering::Relaxed) <= cap {
                    break;
                }
                map.remove(&victim);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                t.evictions.inc();
            }
        }
    }

    /// Number of hot-tier entries (including in-flight ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the hot tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every hot-tier entry (cold-start measurements).
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut map = lock(stripe);
            let n = map.len();
            map.clear();
            self.entries.fetch_sub(n, Ordering::Relaxed);
        }
    }
}

/// The process-wide hot tier.
pub fn global() -> &'static TileStore {
    static STORE: OnceLock<TileStore> = OnceLock::new();
    STORE.get_or_init(TileStore::new)
}

/// `(lookups, hits, misses, inserts)` of the `store.*` counters.
#[must_use]
pub fn store_stats() -> (u64, u64, u64, u64) {
    let t = stel();
    (
        t.lookups.get(),
        t.hits.get(),
        t.misses.get(),
        t.inserts.get(),
    )
}

/// Zeroes every `store.*` counter, clears the hot tier, and resets all
/// registered disk tiers to their on-disk state (flushing dirty records
/// first, so nothing is lost). Called by [`crate::runner::cache_reset`].
pub fn store_reset() {
    let t = stel();
    for tier in disk_registry_snapshot() {
        tier.flush();
        tier.drop_loaded();
    }
    global().clear();
    t.lookups.reset();
    t.hits.reset();
    t.misses.reset();
    t.inserts.reset();
    t.evictions.reset();
    t.errors.reset();
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
        // 256 shards of record maps are noise; the directory identifies
        // the tier.
        f.debug_struct("DiskTier").field("dir", &self.dir).finish()
    }
}

impl DiskTier {
    /// A tier rooted at `dir` (created on first flush). Prefer
    /// [`disk_tier_for`], which shares loaded shards per directory.
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

    /// Looks `key` up in its shard, reading the shard file on first
    /// access. Dirty (not yet flushed) records are visible too.
    #[must_use]
    pub fn lookup(&self, key: &TileKey) -> Option<TileOutcome> {
        self.lookup_str(key.as_str())
    }

    /// [`lookup`](Self::lookup) over the key's text form (no owned key
    /// needed).
    #[must_use]
    pub fn lookup_str(&self, key: &str) -> Option<TileOutcome> {
        let idx = shard_of(key);
        let mut shard = lock(&self.shards[idx]);
        if let Some(out) = shard.dirty.get(key) {
            return Some(*out);
        }
        if shard.loaded.is_none() {
            shard.loaded = Some(self.read_shard(idx));
        }
        shard.loaded.as_ref().and_then(|m| m.get(key)).copied()
    }

    /// Stages a freshly computed record for the next [`DiskTier::flush`].
    pub fn record(&self, key: &TileKey, out: TileOutcome) {
        self.record_str(key.as_str(), out);
    }

    /// [`record`](Self::record) over the key's text form; the owned key
    /// is materialized here, once, on the cold path.
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
    /// content leaves the shard bytes untouched. IO failures count as
    /// `store.errors` and leave the records dirty for a later flush.
    pub fn flush(&self) {
        for idx in 0..SHARDS {
            let mut shard = lock(&self.shards[idx]);
            if shard.dirty.is_empty() {
                continue;
            }
            if shard.loaded.is_none() {
                shard.loaded = Some(self.read_shard(idx));
            }
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
                stel().errors.inc();
            }
        }
    }

    /// Forgets all loaded (but not dirty) shard state, so the next
    /// lookup re-reads the files — the cold-start path [`store_reset`]
    /// uses after flushing.
    fn drop_loaded(&self) {
        for shard in &self.shards {
            lock(shard).loaded = None;
        }
    }

    /// Parses shard `idx` from disk. Never panics: a missing file is an
    /// empty shard; a bad header discards the shard; a malformed record,
    /// or one whose key does not belong in this shard (collision damage,
    /// manual tampering), is skipped with a `store.errors` tick.
    fn read_shard(&self, idx: usize) -> HashMap<TileKey, TileOutcome> {
        let mut map = HashMap::new();
        let Ok(text) = std::fs::read_to_string(self.shard_path(idx)) else {
            return map;
        };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            stel().errors.inc();
            return map;
        }
        for line in lines {
            match decode_record(line) {
                Some((key, out)) if key.shard() == idx => {
                    // Duplicate keys: last record wins (append-crash
                    // recovery keeps the newest write).
                    map.insert(key, out);
                }
                _ => stel().errors.inc(),
            }
        }
        map
    }

    /// Total records across all shard files currently on disk (reads the
    /// files; intended for tests and tooling, not the hot path).
    #[must_use]
    pub fn records_on_disk(&self) -> usize {
        (0..SHARDS).map(|idx| self.read_shard(idx).len()).sum()
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

/// Per-directory registry of disk tiers, so every runner pointed at one
/// `--store-dir` shares loaded shards (and [`store_reset`] can reach
/// them all).
fn disk_registry() -> &'static Mutex<HashMap<PathBuf, Arc<DiskTier>>> {
    static REG: OnceLock<Mutex<HashMap<PathBuf, Arc<DiskTier>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn disk_registry_snapshot() -> Vec<Arc<DiskTier>> {
    lock(disk_registry()).values().cloned().collect()
}

/// The shared [`DiskTier`] for `dir`, created on first use.
#[must_use]
pub fn disk_tier_for(dir: &Path) -> Arc<DiskTier> {
    let mut reg = lock(disk_registry());
    Arc::clone(
        reg.entry(dir.to_path_buf())
            .or_insert_with(|| Arc::new(DiskTier::new(dir))),
    )
}

/// The tile-resolution handle planted in each work unit's
/// [`crate::arch::LayerCtx`]. Disabled brokers compute directly (ad-hoc
/// simulation call sites); enabled brokers resolve through the global
/// hot tier (and the unit's disk tier, when configured) while tallying
/// per-unit lookup/compute counts so the runner can classify the unit.
#[derive(Clone, Debug, Default)]
pub struct TileBroker {
    inner: Option<Arc<BrokerInner>>,
}

#[derive(Debug)]
struct BrokerInner {
    disk: Option<Arc<DiskTier>>,
    lookups: AtomicU64,
    computes: AtomicU64,
}

impl TileBroker {
    /// A broker that always computes (no store participation).
    #[must_use]
    pub fn disabled() -> Self {
        TileBroker::default()
    }

    /// A store-backed broker with a fresh per-unit tally.
    #[must_use]
    pub fn enabled(disk: Option<Arc<DiskTier>>) -> Self {
        TileBroker {
            inner: Some(Arc::new(BrokerInner {
                disk,
                lookups: AtomicU64::new(0),
                computes: AtomicU64::new(0),
            })),
        }
    }

    /// Resolves one tile: through the store when enabled and the timer
    /// is content-addressable (`key` is `Some`), by calling `compute`
    /// otherwise.
    pub fn resolve(
        &self,
        key: Option<TileKey>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        self.resolve_str(key.as_ref().map(TileKey::as_str), compute)
    }

    /// [`resolve`](Self::resolve) over a borrowed key text (e.g. a
    /// scratch buffer filled by [`TileKey::encode_into`]) — the
    /// zero-allocation hot path: an owned key is only built when the
    /// store has never seen this canonical tile.
    pub fn resolve_str(
        &self,
        key: Option<&str>,
        compute: impl FnOnce() -> TileOutcome,
    ) -> TileOutcome {
        let (Some(inner), Some(key)) = (&self.inner, key) else {
            return compute();
        };
        inner.lookups.fetch_add(1, Ordering::Relaxed);
        let (out, served) = global().lookup_or_compute_str(key, inner.disk.as_deref(), compute);
        if served == Served::Computed {
            inner.computes.fetch_add(1, Ordering::Relaxed);
        }
        out
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
        assert_eq!(tier.lookup(&key(1)), None);
        tier.record(&key(1), out(5));
        tier.record(&key(2), out(6));
        assert_eq!(tier.lookup(&key(1)), Some(out(5)), "dirty records visible");
        tier.flush();
        // A fresh tier over the same directory sees the flushed records.
        let fresh = DiskTier::new(&dir);
        assert_eq!(fresh.lookup(&key(1)), Some(out(5)));
        assert_eq!(fresh.lookup(&key(2)), Some(out(6)));
        assert_eq!(fresh.records_on_disk(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_is_idempotent_and_byte_stable() {
        let dir = tmp("stable");
        std::fs::remove_dir_all(&dir).ok();
        let tier = DiskTier::new(&dir);
        for i in 0..20 {
            tier.record(&key(i), out(i + 1));
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
            again.record(&key(i), out(i + 1));
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
        assert_eq!(tier.lookup(&k), Some(out(9)), "good record survives");
        assert_eq!(tier.lookup(&stray), None, "misplaced record is rejected");
        // A shard with a skewed header is entirely ignored.
        std::fs::write(&shard_file, "eureka-tilestore v9\nwhatever\n").unwrap();
        let tier = DiskTier::new(&dir);
        assert_eq!(tier.lookup(&k), None);
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
            let _ = tier.lookup(&k); // any Option is fine; panicking is not
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_tier_deduplicates_and_capacity_evicts() {
        let store = TileStore::new();
        let computes = AtomicUsize::new(0);
        let compute = || {
            computes.fetch_add(1, Ordering::Relaxed);
            out(1)
        };
        let (o1, s1) = store.lookup_or_compute(&key(1), None, compute);
        let (o2, s2) = store.lookup_or_compute(&key(1), None, compute);
        assert_eq!((o1, s1), (out(1), Served::Computed));
        assert_eq!((o2, s2), (out(1), Served::Hot));
        assert_eq!(computes.load(Ordering::Relaxed), 1, "one compute per key");
        store.set_capacity(4);
        for i in 10..40 {
            store.lookup_or_compute(&key(i), None, || out(i));
        }
        assert!(store.len() <= 5, "capacity bounds the hot tier");
        // Evicted keys recompute with identical results.
        let (o, _) = store.lookup_or_compute(&key(12), None, || out(12));
        assert_eq!(o, out(12));
    }

    #[test]
    fn broker_tallies_lookups_and_computes() {
        let broker = TileBroker::enabled(None);
        let k = TileKey::new("tally", "1,2,3");
        broker.resolve(Some(k.clone()), || out(8));
        broker.resolve(Some(k.clone()), || out(8));
        broker.resolve(None, || out(8)); // uniform timer: not tallied
        let (lookups, computes) = broker.tally();
        assert_eq!(lookups, 2);
        assert!(computes <= 1, "at most the first resolve computes");
        broker.reset_tally();
        assert_eq!(broker.tally(), (0, 0));
        assert_eq!(TileBroker::disabled().tally(), (0, 0));
    }
}
