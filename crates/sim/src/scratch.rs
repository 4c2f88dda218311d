//! Reusable per-worker scratch buffers for the simulation hot loops.
//!
//! The one-sided engine touches tens of thousands of sampled tiles per
//! layer; before this module each tile allocated its mask vector, its
//! canonical row-length signature, the signature's text token, and the
//! store key string — five short-lived heap allocations per sample. A
//! [`Scratch`] bundles those buffers so a worker recycles one set across
//! every tile (and every layer) it simulates.
//!
//! Ownership rules:
//!
//! * The pool hands out whole [`Scratch`] values, never shares one —
//!   a checked-out scratch is exclusively owned by its [`ScratchGuard`]
//!   until dropped, so no synchronization guards the buffers themselves.
//! * Buffers carry no information between checkouts: every user must
//!   fill (or clear) a buffer before reading it. The `_into` helpers in
//!   `eureka_sparse::canon` and [`crate::store::TileKey::encode_into`]
//!   all clear their destination first, making stale content harmless.
//!   The one exception is [`Scratch::tables`]: its entries are pure
//!   functions of a timer and a row-length signature, kept on purpose
//!   so each signature is timed once per set.
//! * A [`crate::Runner`] holds one pool, which its clones share, so a
//!   run keeps at most one set per concurrent worker however many jobs
//!   it runs. [`LayerCtx`](crate::arch::LayerCtx) carries a
//!   [`ScratchPool`] clone (cheap: one `Arc`). Architectures that don't
//!   opt in simply never touch it; the `Default` pool works standalone,
//!   so ad-hoc call sites constructing a `LayerCtx` by hand need no
//!   setup.

use crate::arch::onesided::SignatureTables;
use eureka_core::schedule::GroupingBuffers;
use eureka_sparse::TilePattern;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, PoisonError};

/// Reusable buffers for one in-flight layer simulation.
#[derive(Debug)]
pub struct Scratch {
    /// Sampled tile row masks (`sample_masks_into`).
    pub masks: Vec<u64>,
    /// The sampled tile itself, rebuilt in place per sample.
    pub tile: TilePattern,
    /// Canonical row-length signature (`canonical_lens_into`).
    pub lens: Vec<usize>,
    /// Rendered signature token (`lens_token_into`).
    pub token: String,
    /// Full store-key text (`TileKey::encode_into`).
    pub key: String,
    /// Timer discipline tag (only parameterized timers render into it).
    pub tag: String,
    /// Per-sample resolved tile times feeding the systolic schedule.
    pub times: Vec<u64>,
    /// The sampled timers' signature tables: unlike the buffers, these
    /// carry entries across checkouts.
    pub tables: SignatureTables,
    /// The offline scheduler's working set.
    pub grouping: GroupingBuffers,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            masks: Vec::new(),
            // A 1x1 placeholder; every user rebuilds via reset_from_rows.
            tile: TilePattern::from_rows(&[0], 1).expect("trivial tile shape"),
            lens: Vec::new(),
            token: String::new(),
            key: String::new(),
            tag: String::new(),
            times: Vec::new(),
            tables: SignatureTables::default(),
            grouping: GroupingBuffers::default(),
        }
    }
}

/// A shared pool of [`Scratch`] sets. Cloning shares the pool; each
/// [`acquire`](Self::acquire) checks one set out exclusively.
#[derive(Clone, Debug, Default)]
pub struct ScratchPool {
    free: Arc<Mutex<Vec<Scratch>>>,
}

impl ScratchPool {
    /// Checks a scratch set out of the pool (allocating a fresh one only
    /// when the pool is empty — at most once per concurrent worker).
    /// Dropping the guard returns the set for reuse.
    #[must_use]
    pub fn acquire(&self) -> ScratchGuard<'_> {
        let scratch = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        ScratchGuard {
            pool: self,
            scratch: Some(scratch),
        }
    }
}

/// Exclusive ownership of one [`Scratch`] until drop.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: Option<Scratch>,
}

impl Deref for ScratchGuard<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_sets() {
        let pool = ScratchPool::default();
        {
            let mut g = pool.acquire();
            g.times.extend([1, 2, 3]);
            g.key.push_str("v1|x|1");
        }
        // The recycled set keeps its capacity; content is stale by
        // contract (users clear before reading).
        let g = pool.acquire();
        assert!(g.times.capacity() >= 3);
        drop(g);
        assert_eq!(pool.free.lock().unwrap().len(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_sets() {
        let pool = ScratchPool::default();
        let a = pool.acquire();
        let b = pool.acquire();
        drop(a);
        drop(b);
        assert_eq!(pool.free.lock().unwrap().len(), 2);
    }
}
