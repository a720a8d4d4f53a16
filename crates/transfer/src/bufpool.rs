//! Recycled chunk buffers for the byte-moving path.
//!
//! Every flow needs a chunk-sized staging buffer. Allocating a fresh
//! `vec![0; chunk_size]` per flow (and re-allocating on event-model
//! admission) puts the allocator on the data path — exactly the kind of
//! per-transfer overhead the paper's performance argument (§7) says a
//! software appliance must shed. The [`BufPool`] checks out fixed-size
//! [`PooledBuf`]s and recycles them on drop, so steady-state transfers
//! perform **zero buffer allocations per flow** once the pool is warm.
//!
//! ## Poisoning
//!
//! In debug builds a buffer is filled with `0xA5` when it returns to the
//! pool. A flow that holds onto a slice past its buffer's return reads
//! poison instead of silently-correct stale bytes, so use-after-return
//! bugs surface in tests rather than production.
//!
//! ## Metrics
//!
//! `bufpool.reuse` / `bufpool.fresh` count checkouts served from the free
//! list versus fresh allocations; `bufpool.outstanding` gauges buffers
//! currently checked out. A steady-state assertion is simply
//! `reuse > 0 && fresh == warmup`.

use nest_obs::{Counter, Gauge, Obs};
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Debug-build poison byte written into buffers on return to the pool.
pub const POISON: u8 = 0xA5;

/// Point-in-time counters for a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Checkouts served by recycling a returned buffer.
    pub reuse: u64,
    /// Checkouts that had to allocate.
    pub fresh: u64,
    /// Buffers currently checked out.
    pub outstanding: i64,
    /// Buffers parked on the free list.
    pub idle: usize,
}

/// Obs instrument handles, resolved once at registration.
struct PoolInstruments {
    reuse: Arc<Counter>,
    fresh: Arc<Counter>,
    outstanding: Arc<Gauge>,
}

struct PoolInner {
    chunk_size: usize,
    /// Bound on parked (idle) buffers; returns beyond this are dropped.
    max_idle: usize,
    free: Mutex<Vec<Vec<u8>>>,
    reuse: AtomicU64,
    fresh: AtomicU64,
    outstanding: AtomicI64,
    /// Written once by [`BufPool::register_obs`], then read lock-free on
    /// every checkout and return.
    instruments: OnceLock<PoolInstruments>,
}

impl PoolInner {
    fn note_return(&self, mut data: Vec<u8>) {
        // nestlint: allow(atomic-ordering): single-cell balance; the fetch_sub return value is the read, no other memory rides on it
        let after = self.outstanding.fetch_sub(1, Ordering::Relaxed) - 1;
        // Return-matching: every return must pair with a checkout. A
        // negative outstanding count means a buffer came back twice (or
        // from a foreign pool) — silent double-recycling corrupts flows.
        nest_check::invariant!(
            after >= 0,
            "bufpool outstanding went negative ({}): buffer returned without a matching checkout",
            after
        );
        if let Some(i) = self.instruments.get() {
            i.outstanding.dec();
        }
        if data.len() != self.chunk_size {
            return; // foreign-sized buffer: never recycle
        }
        if cfg!(debug_assertions) {
            data.fill(POISON);
        }
        let mut free = self.free.lock();
        if free.len() < self.max_idle {
            free.push(data);
        }
        nest_check::invariant!(
            free.len() <= self.max_idle,
            "bufpool free list ({}) exceeds max_idle ({})",
            free.len(),
            self.max_idle
        );
    }
}

/// A fixed-chunk-size buffer pool. Clone-cheap (`Arc` inside); buffers
/// return themselves on [`PooledBuf`] drop.
#[derive(Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufPool")
            .field("chunk_size", &self.inner.chunk_size)
            .field("max_idle", &self.inner.max_idle)
            .field("reuse", &s.reuse)
            .field("fresh", &s.fresh)
            .field("outstanding", &s.outstanding)
            .finish()
    }
}

impl BufPool {
    /// Creates a pool of `chunk_size`-byte buffers keeping at most
    /// `max_idle` parked (with `max_idle == 0` nothing is ever parked).
    pub fn new(chunk_size: usize, max_idle: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                chunk_size: chunk_size.max(1),
                max_idle,
                free: Mutex::named("transfer.bufpool.free", 400, Vec::new()),
                reuse: AtomicU64::new(0),
                fresh: AtomicU64::new(0),
                outstanding: AtomicI64::new(0),
                instruments: OnceLock::new(),
            }),
        }
    }

    /// The chunk size this pool vends.
    pub fn chunk_size(&self) -> usize {
        self.inner.chunk_size
    }

    /// Registers `bufpool.{reuse,fresh,outstanding}` on an observability
    /// registry, back-filling counts accumulated before registration.
    /// The first registration wins; later ones are ignored.
    pub fn register_obs(&self, obs: &Obs) {
        self.inner.instruments.get_or_init(|| {
            let m = &obs.metrics;
            let inst = PoolInstruments {
                reuse: m.counter("bufpool.reuse"),
                fresh: m.counter("bufpool.fresh"),
                outstanding: m.gauge("bufpool.outstanding"),
            };
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            inst.reuse.add(self.inner.reuse.load(Ordering::Relaxed));
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            inst.fresh.add(self.inner.fresh.load(Ordering::Relaxed));
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            let outstanding = self.inner.outstanding.load(Ordering::Relaxed);
            inst.outstanding.set(outstanding);
            inst
        });
    }

    /// Current counters.
    pub fn stats(&self) -> BufPoolStats {
        BufPoolStats {
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            reuse: self.inner.reuse.load(Ordering::Relaxed),
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            fresh: self.inner.fresh.load(Ordering::Relaxed),
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            outstanding: self.inner.outstanding.load(Ordering::Relaxed),
            idle: self.inner.free.lock().len(),
        }
    }

    /// Checks out a chunk buffer, recycling a parked one when available.
    pub fn checkout(&self) -> PooledBuf {
        let recycled = self.inner.free.lock().pop();
        let reused = recycled.is_some();
        // nestlint: allow(transfer-alloc): the pool's own cold-path allocation — every other site recycles through here
        let data = recycled.unwrap_or_else(|| vec![0; self.inner.chunk_size]);
        if reused {
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            self.inner.reuse.fetch_add(1, Ordering::Relaxed);
        } else {
            // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
            self.inner.fresh.fetch_add(1, Ordering::Relaxed);
        }
        // nestlint: allow(atomic-ordering): single-cell statistic; atomicity alone carries the count
        self.inner.outstanding.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = self.inner.instruments.get() {
            if reused {
                i.reuse.inc();
            } else {
                i.fresh.inc();
            }
            i.outstanding.inc();
        }
        PooledBuf {
            data: Some(data),
            pool: Some(Arc::clone(&self.inner)),
        }
    }
}

/// A chunk buffer that returns itself to its pool on drop. Derefs to
/// `[u8]`; the flow uses it exactly like the `Vec<u8>` it replaces.
pub struct PooledBuf {
    data: Option<Vec<u8>>,
    pool: Option<Arc<PoolInner>>,
}

impl PooledBuf {
    /// A free-standing buffer with no pool behind it (callers that build
    /// flows without a [`BufPool`], e.g. unit tests and one-off pumps).
    pub fn detached(chunk_size: usize) -> Self {
        Self {
            // nestlint: allow(transfer-alloc): detached buffers are for pool-less one-off pumps, not the hot path
            data: Some(vec![0; chunk_size.max(1)]),
            pool: None,
        }
    }

    /// Whether this buffer recycles into a pool on drop.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.data.as_deref().expect("buffer present until drop")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.data.as_deref_mut().expect("buffer present until drop")
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.data.as_ref().map(Vec::len).unwrap_or(0))
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let (Some(data), Some(pool)) = (self.data.take(), self.pool.take()) {
            pool.note_return(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_returned_buffer() {
        let pool = BufPool::new(1024, 4);
        let a = pool.checkout();
        assert_eq!(a.len(), 1024);
        drop(a);
        let b = pool.checkout();
        let s = pool.stats();
        assert_eq!(s.fresh, 1);
        assert_eq!(s.reuse, 1);
        assert_eq!(s.outstanding, 1);
        drop(b);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn zero_max_idle_never_parks_never_leaks() {
        let pool = BufPool::new(64, 0);
        drop(pool.checkout());
        drop(pool.checkout());
        let s = pool.stats();
        assert_eq!(s.fresh, 2);
        assert_eq!(s.reuse, 0);
        assert_eq!(s.idle, 0);
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn max_idle_bounds_parked_buffers() {
        let pool = BufPool::new(16, 1);
        let a = pool.checkout();
        let b = pool.checkout();
        drop(a);
        drop(b);
        assert_eq!(pool.stats().idle, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn returned_buffers_are_poisoned() {
        let pool = BufPool::new(8, 2);
        let mut a = pool.checkout();
        a.fill(7);
        drop(a);
        let b = pool.checkout();
        assert!(b.iter().all(|&x| x == POISON), "expected poison, got {b:?}");
    }

    #[test]
    fn detached_buffer_has_no_pool() {
        let b = PooledBuf::detached(32);
        assert!(!b.is_pooled());
        assert_eq!(b.len(), 32);
    }

    #[test]
    fn obs_registration_backfills() {
        let pool = BufPool::new(16, 2);
        drop(pool.checkout());
        let obs = nest_obs::Obs::default();
        pool.register_obs(&obs);
        assert_eq!(obs.metrics.counter("bufpool.fresh").get(), 1);
        drop(pool.checkout());
        assert_eq!(obs.metrics.counter("bufpool.reuse").get(), 1);
    }
}
