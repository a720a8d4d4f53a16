//! LRU cache of open file handles for the disk-backed data path.
//!
//! The paper's performance case (§7) is that a software-only appliance can
//! approach kernel-server throughput. Opening, seeking and closing a file
//! for **every 64 KiB chunk** forfeits that: steady-state GET/PUT paid
//! three to four syscalls of pure overhead per chunk. This cache keeps an
//! open [`File`] per hot [`VPath`] and serves chunk I/O with positional
//! `pread`/`pwrite` (`std::os::unix::fs::FileExt`) — zero redundant
//! syscalls per chunk, and the handle is shared (`Arc<File>`) so
//! concurrent readers of one file need only one descriptor.
//!
//! ## Staleness
//!
//! A cached descriptor pins an *inode*, not a *name*. After `remove`,
//! `rename` or a recreate, the name may point at different bytes (or
//! nothing), so the backend explicitly [`HandleCache::invalidate`]s every
//! affected path on metadata mutations. Insertions are epoch-guarded: a
//! handle opened before an invalidation that raced with it is used for
//! its one operation but never cached, so a stale descriptor can never be
//! re-served.
//!
//! ## Striping
//!
//! The hot lookup path is striped by path hash: every entry for one path
//! lives in exactly one cell (all cells share the
//! `storage.handlecache.state` lock class), so chunk I/O on distinct hot
//! files stops serializing on one mutex. The invalidation epoch stays
//! global (a lock-free atomic, bumped and checked under the owning cell's
//! lock), which keeps the insert-vs-invalidate race protocol exactly as
//! before for same-path races and merely conservative — a spurious
//! use-once — for cross-path ones. Eviction becomes per-cell LRU with a
//! per-cell slice of the capacity; the global descriptor bound still
//! holds because the per-cell caps sum to at most the configured
//! capacity. Small capacities collapse to a single cell so eviction
//! order stays exactly LRU when the cache is tiny.
//!
//! ## Sizing
//!
//! Capacity bounds open descriptors (floor 1); eviction is
//! least-recently-used within a cell.

use crate::namespace::VPath;
use nest_obs::{Counter, Gauge, Obs};
use parking_lot::{shard_hash, ShardedMutex};
use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Point-in-time counters for the cache (see also the
/// `handlecache.{hits,misses,evictions,open_fds}` instruments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandleCacheStats {
    /// Chunk operations served by an already-open descriptor.
    pub hits: u64,
    /// Operations that had to open the file.
    pub misses: u64,
    /// Handles closed to make room under the capacity bound.
    pub evictions: u64,
    /// Descriptors currently held open by the cache.
    pub open: u64,
}

/// One cached handle. `writable` records the open mode: read-only opens
/// (a fallback for files we cannot open read-write) never serve writes.
struct Entry {
    file: Arc<File>,
    writable: bool,
    /// Monotonic last-use stamp for LRU eviction.
    stamp: u64,
}

/// Per-cell state: the entries whose paths hash here, plus this cell's
/// share of the counters (summed at [`HandleCache::stats`] time).
struct CacheState {
    entries: HashMap<VPath, Entry>,
    /// Monotonic use counter backing this cell's LRU stamps.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Obs instrument handles, resolved once at registration.
struct CacheInstruments {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    open_fds: Arc<Gauge>,
}

/// The handle cache. Cheap to share (`Arc` internally not required — the
/// backend owns it); state sits behind short-held per-path-stripe
/// mutexes, and the actual I/O happens outside the lock on the cloned
/// `Arc<File>`.
pub struct HandleCache {
    capacity: usize,
    /// Each cell evicts once it holds this many entries; the caps sum to
    /// ≤ `capacity`, preserving the global descriptor bound.
    per_cell_capacity: usize,
    cells: ShardedMutex<CacheState>,
    /// The invalidation epoch. Bumped (under the affected path's cell
    /// lock) by every invalidation; insertions captured under an older
    /// epoch are dropped instead of cached (see module docs). Also read
    /// lock-free by the zero-copy send path, which revalidates its lease
    /// against the epoch once per `sendfile` span without touching any
    /// cache mutex (or the lock shim's contention instrumentation).
    epoch_fast: AtomicU64,
    /// Descriptors currently cached, maintained under the cell locks.
    /// Mirrored here so the `open_fds` gauge can be kept current without
    /// summing every cell on each miss.
    open_count: AtomicI64,
    /// Written once by [`HandleCache::register_obs`], then read lock-free
    /// on every lookup, insert and invalidation.
    instruments: OnceLock<CacheInstruments>,
}

impl std::fmt::Debug for HandleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("HandleCache")
            .field("capacity", &self.capacity)
            .field("open", &s.open)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// What a lookup resolved to: a cached handle plus the epoch under which a
/// replacement may be inserted.
///
/// Public (rather than crate-private) so `nest-model` scenarios can drive
/// the lookup → open → insert protocol directly under the interleaving
/// explorer; the backend remains the only production caller.
pub enum Lookup {
    /// Cache hit: use this handle.
    Hit(Arc<File>),
    /// Miss: open the file yourself, then offer it back via
    /// [`HandleCache::insert`] with this epoch.
    Miss { epoch: u64 },
}

/// Default stripe count for the hot lookup path (matching the storage
/// layer's [`crate::lot::DEFAULT_LOT_SHARDS`]).
pub const DEFAULT_HANDLE_CACHE_SHARDS: usize = crate::lot::DEFAULT_LOT_SHARDS;

impl HandleCache {
    /// Creates a cache bounding open descriptors to `capacity` (raised to
    /// at least 1), striped [`DEFAULT_HANDLE_CACHE_SHARDS`] ways.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_HANDLE_CACHE_SHARDS)
    }

    /// Creates a cache with an explicit stripe count (`1` = the
    /// single-mutex ablation). Small capacities collapse to one cell so
    /// per-cell capacities stay meaningful (≥ 4) and tiny caches keep
    /// exact global LRU order.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let effective = if capacity >= 4 * shards { shards } else { 1 };
        Self {
            capacity,
            per_cell_capacity: capacity / effective,
            cells: ShardedMutex::new("storage.handlecache.state", 340, effective, |_| {
                CacheState {
                    entries: HashMap::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                }
            }),
            epoch_fast: AtomicU64::new(0),
            open_count: AtomicI64::new(0),
            instruments: OnceLock::new(),
        }
    }

    /// Registers the `handlecache.{hits,misses,evictions,open_fds}`
    /// instruments on an observability registry and back-fills any counts
    /// accumulated before registration. The first registration wins;
    /// later ones are ignored.
    pub fn register_obs(&self, obs: &Obs) {
        self.instruments.get_or_init(|| {
            let m = &obs.metrics;
            let inst = CacheInstruments {
                hits: m.counter("handlecache.hits"),
                misses: m.counter("handlecache.misses"),
                evictions: m.counter("handlecache.evictions"),
                open_fds: m.gauge("handlecache.open_fds"),
            };
            let s = self.stats();
            inst.hits.add(s.hits);
            inst.misses.add(s.misses);
            inst.evictions.add(s.evictions);
            inst.open_fds.set(s.open as i64);
            inst
        });
    }

    /// Current counters (cells are read one at a time; exact once
    /// concurrent chunk I/O quiesces).
    pub fn stats(&self) -> HandleCacheStats {
        let mut out = HandleCacheStats::default();
        self.cells.for_each_cell(|_, st| {
            out.hits += st.hits;
            out.misses += st.misses;
            out.evictions += st.evictions;
            out.open += st.entries.len() as u64;
        });
        out
    }

    /// Looks up a handle for `path`. `need_write` demands a handle opened
    /// read-write; a cached read-only handle is treated as a miss (and
    /// replaced on insert).
    ///
    /// Public as the model-harness surface (see [`Lookup`]); production
    /// chunk I/O reaches this only through the backend.
    pub fn lookup(&self, path: &VPath, need_write: bool) -> Lookup {
        let mut st = self.cells.lock(shard_hash(path));
        st.tick += 1;
        let tick = st.tick;
        if let Some(e) = st.entries.get_mut(path) {
            if e.writable || !need_write {
                e.stamp = tick;
                let file = Arc::clone(&e.file);
                st.hits += 1;
                drop(st);
                if let Some(i) = self.instruments.get() {
                    i.hits.inc();
                }
                return Lookup::Hit(file);
            }
            // Read-only handle but a write is needed: drop it; the caller
            // reopens read-write and re-inserts.
            st.entries.remove(path);
            // open_count mirrors the entry map the cell lock orders.
            // nestlint: allow(atomic-ordering): gauge statistic only
            self.open_count.fetch_sub(1, Ordering::Relaxed);
        }
        st.misses += 1;
        // Captured under the cell lock: a same-path invalidation either
        // already bumped the epoch (so the insert will be dropped) or
        // serializes behind this cell lock.
        let epoch = self.epoch_fast.load(Ordering::Acquire);
        drop(st);
        if let Some(i) = self.instruments.get() {
            i.misses.inc();
            // nestlint: allow(atomic-ordering): sloppy gauge read.
            i.open_fds.set(self.open_count.load(Ordering::Relaxed));
        }
        Lookup::Miss { epoch }
    }

    /// Offers a freshly opened handle for caching. Dropped (not cached) if
    /// an invalidation happened since the `epoch` captured at lookup — the
    /// open may have raced a rename/remove and observed a name that no
    /// longer means the same file.
    ///
    /// Public as the model-harness surface (see [`Lookup`]); production
    /// chunk I/O reaches this only through the backend.
    pub fn insert(&self, path: &VPath, file: Arc<File>, writable: bool, epoch: u64) {
        let mut st = self.cells.lock(shard_hash(path));
        // Same-path invalidations serialize on this cell lock, so an
        // unchanged epoch proves no invalidation of *this* path landed
        // since lookup. A bump by an unrelated path costs only a
        // use-once open — conservative, never stale.
        if self.epoch_fast.load(Ordering::Acquire) != epoch {
            return; // raced an invalidation: use-once, never cache
        }
        st.tick += 1;
        let tick = st.tick;
        let mut evicted = 0u64;
        let replacing = st.entries.contains_key(path);
        while !replacing && st.entries.len() >= self.per_cell_capacity {
            // LRU eviction: linear scan is fine — capacity is small (it
            // bounds *open descriptors*, typically ≤ a few hundred split
            // across cells) and we only scan on insert-at-capacity, never
            // per chunk.
            let Some(victim) = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(p, _)| p.clone())
            else {
                break;
            };
            st.entries.remove(&victim);
            st.evictions += 1;
            evicted += 1;
        }
        let prev = st.entries.insert(
            path.clone(),
            Entry {
                file,
                writable,
                stamp: tick,
            },
        );
        let delta = 1 - evicted as i64 - prev.is_some() as i64;
        // The cell lock orders the entry mutations this delta mirrors.
        // nestlint: allow(atomic-ordering): gauge statistic only
        let open = self.open_count.fetch_add(delta, Ordering::Relaxed) + delta;
        // The cache's whole point is bounding open descriptors: an insert
        // must never leave more cached FDs in this cell than its share of
        // the capacity (the per-cell caps sum to ≤ the global bound).
        nest_check::invariant!(
            st.entries.len() <= self.per_cell_capacity,
            "handlecache cell holds {} open FDs, per-cell capacity is {}",
            st.entries.len(),
            self.per_cell_capacity
        );
        drop(st);
        if evicted > 0 || open > 0 {
            if let Some(i) = self.instruments.get() {
                i.evictions.add(evicted);
                i.open_fds.set(open);
            }
        }
    }

    /// Records hits for chunk spans served through a reused
    /// [`crate::backend::ReadLease`]. The zero-copy path resolves its
    /// descriptor once per lease and then streams spans without calling
    /// [`HandleCache::lookup`]; without this, sendfile flows undercount
    /// hits relative to the pooled path (which records one hit per chunk)
    /// and `handlecache.hits` stops being comparable across the two.
    pub fn note_lease_hits(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.cells.lock_idx(0).hits += n;
        if let Some(i) = self.instruments.get() {
            i.hits.add(n);
        }
    }

    /// The current invalidation epoch. A raw-FD lease handed out of the
    /// cache (see [`crate::backend::ReadLease`]) captures this value; the
    /// lease is *current* only while the epoch is unchanged. Any metadata
    /// mutation bumps the epoch, so a zero-copy sender re-checking its
    /// lease per span can never keep streaming an inode whose name has
    /// been removed, renamed, or truncated under it.
    ///
    /// Lock-free: the check runs once per zero-copy span on the engine
    /// thread, and must not serialize against chunk I/O taking a cache
    /// stripe. An invalidation racing the read is indistinguishable from
    /// one landing just after it — the lease's `Arc<File>` keeps the
    /// inode alive either way, exactly as a pooled read racing the same
    /// rename would.
    pub fn epoch(&self) -> u64 {
        self.epoch_fast.load(Ordering::Acquire)
    }

    /// Drops any cached handle for `path` and bumps the epoch so in-flight
    /// opens of the same name cannot be cached. Must be called on every
    /// operation that changes what the *name* means: remove, rename (both
    /// ends), truncate, recreate, abort cleanup.
    pub fn invalidate(&self, path: &VPath) {
        let mut st = self.cells.lock(shard_hash(path));
        // Bumped while holding the path's cell so a same-path insert can
        // never interleave between the bump and the removal.
        self.epoch_fast.fetch_add(1, Ordering::AcqRel);
        if st.entries.remove(path).is_some() {
            // nestlint: allow(atomic-ordering): gauge statistic only.
            self.open_count.fetch_sub(1, Ordering::Relaxed);
        }
        drop(st);
        if let Some(i) = self.instruments.get() {
            // nestlint: allow(atomic-ordering): sloppy gauge read.
            i.open_fds.set(self.open_count.load(Ordering::Relaxed));
        }
    }

    /// Drops every cached handle (e.g. wholesale namespace changes). The
    /// epoch is bumped before the sweep, so an insert racing the sweep
    /// either captured its epoch earlier (dropped by the guard) or after
    /// the bump (a legitimately fresh post-invalidation entry).
    pub fn invalidate_all(&self) {
        self.epoch_fast.fetch_add(1, Ordering::AcqRel);
        self.cells.for_each_cell(|_, st| {
            let n = st.entries.len() as i64;
            st.entries.clear();
            // nestlint: allow(atomic-ordering): gauge statistic only.
            self.open_count.fetch_sub(n, Ordering::Relaxed);
        });
        if let Some(i) = self.instruments.get() {
            // nestlint: allow(atomic-ordering): sloppy gauge read.
            i.open_fds.set(self.open_count.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn tmpfile(dir: &std::path::Path, name: &str, content: &[u8]) -> std::path::PathBuf {
        let p = dir.join(name);
        let mut f = File::create(&p).unwrap();
        f.write_all(content).unwrap();
        p
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nest-hcache-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let dir = tempdir("hit");
        let host = tmpfile(&dir, "f", b"abc");
        let c = HandleCache::new(4);
        let path = vp("/f");
        let Lookup::Miss { epoch } = c.lookup(&path, false) else {
            panic!("expected miss");
        };
        c.insert(&path, Arc::new(File::open(&host).unwrap()), false, epoch);
        assert!(matches!(c.lookup(&path, false), Lookup::Hit(_)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.open), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let dir = tempdir("lru");
        let c = HandleCache::new(2);
        for name in ["a", "b", "c"] {
            let host = tmpfile(&dir, name, b"x");
            let path = vp(&format!("/{}", name));
            let Lookup::Miss { epoch } = c.lookup(&path, false) else {
                panic!("miss expected");
            };
            c.insert(&path, Arc::new(File::open(&host).unwrap()), false, epoch);
        }
        let s = c.stats();
        assert_eq!(s.open, 2);
        assert_eq!(s.evictions, 1);
        // "a" was the LRU victim.
        assert!(matches!(c.lookup(&vp("/a"), false), Lookup::Miss { .. }));
        assert!(matches!(c.lookup(&vp("/c"), false), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidation_races_block_insert() {
        let dir = tempdir("race");
        let host = tmpfile(&dir, "f", b"abc");
        let c = HandleCache::new(4);
        let path = vp("/f");
        let Lookup::Miss { epoch } = c.lookup(&path, false) else {
            panic!("miss expected");
        };
        // An invalidation lands between the open and the insert.
        c.invalidate(&path);
        c.insert(&path, Arc::new(File::open(&host).unwrap()), false, epoch);
        assert!(matches!(c.lookup(&path, false), Lookup::Miss { .. }));
        assert_eq!(c.stats().open, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_lookup_rejects_readonly_handle() {
        let dir = tempdir("ro");
        let host = tmpfile(&dir, "f", b"abc");
        let c = HandleCache::new(4);
        let path = vp("/f");
        let Lookup::Miss { epoch } = c.lookup(&path, false) else {
            panic!("miss expected");
        };
        c.insert(&path, Arc::new(File::open(&host).unwrap()), false, epoch);
        // A writer must not receive the read-only handle.
        assert!(matches!(c.lookup(&path, true), Lookup::Miss { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn striped_cache_keeps_bound_and_hits() {
        // Large enough capacity to actually stripe (capacity ≥ 4×shards):
        // the per-cell caps must still sum to ≤ the global bound, and
        // every inserted path must hit from its own cell.
        let dir = tempdir("striped");
        let c = HandleCache::with_shards(32, 4);
        assert_eq!(c.cells.shards(), 4);
        for i in 0..64 {
            let name = format!("f{}", i);
            let host = tmpfile(&dir, &name, b"x");
            let path = vp(&format!("/{}", name));
            let Lookup::Miss { epoch } = c.lookup(&path, false) else {
                panic!("miss expected");
            };
            c.insert(&path, Arc::new(File::open(&host).unwrap()), false, epoch);
            assert!(matches!(c.lookup(&path, false), Lookup::Hit(_)));
        }
        let s = c.stats();
        assert!(s.open <= 32, "open {} exceeds capacity", s.open);
        assert_eq!(s.hits, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_capacity_collapses_to_one_cell() {
        // Capacity below 4×shards must fall back to a single cell so LRU
        // order stays globally exact.
        let c = HandleCache::with_shards(2, 8);
        assert_eq!(c.cells.shards(), 1);
        let c = HandleCache::with_shards(64, 8);
        assert_eq!(c.cells.shards(), 8);
    }
}
