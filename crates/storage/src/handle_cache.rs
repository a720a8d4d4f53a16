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
//! ## Locking
//!
//! The whole cache — entries, LRU clock and counters — sits behind one
//! `storage.handlecache.state` mutex, taken once per call and never held
//! across I/O. Eviction is exact global LRU over the full capacity. The
//! invalidation epoch is bumped under that lock and also read lock-free
//! by the zero-copy lease check (see [`HandleCache::epoch`]).
//!
//! ## Sizing
//!
//! Capacity bounds open descriptors (floor 1).

use crate::namespace::VPath;
use nest_obs::{Counter, Gauge, Obs};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Everything behind the cache lock.
struct CacheState {
    entries: HashMap<VPath, Entry>,
    /// Monotonic use counter backing the LRU stamps.
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
/// backend owns it); state sits behind one short-held mutex, and the
/// actual I/O happens outside the lock on the cloned `Arc<File>`.
pub struct HandleCache {
    capacity: usize,
    state: Mutex<CacheState>,
    /// The invalidation epoch. Bumped (under the cache lock) by every
    /// invalidation; insertions captured under an older epoch are
    /// dropped instead of cached (see module docs). Also read
    /// lock-free by the zero-copy send path, which revalidates its lease
    /// against the epoch once per `sendfile` span without touching any
    /// cache mutex (or the lock shim's contention instrumentation).
    epoch_fast: AtomicU64,
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

impl HandleCache {
    /// Creates a cache bounding open descriptors to `capacity` (raised to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::named(
                "storage.handlecache.state",
                340,
                CacheState {
                    entries: HashMap::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                },
            ),
            epoch_fast: AtomicU64::new(0),
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

    /// Current counters.
    pub fn stats(&self) -> HandleCacheStats {
        let st = self.state.lock();
        HandleCacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            open: st.entries.len() as u64,
        }
    }

    /// Looks up a handle for `path`. `need_write` demands a handle opened
    /// read-write; a cached read-only handle is treated as a miss (and
    /// replaced on insert).
    ///
    /// Public as the model-harness surface (see [`Lookup`]); production
    /// chunk I/O reaches this only through the backend.
    pub fn lookup(&self, path: &VPath, need_write: bool) -> Lookup {
        let mut st = self.state.lock();
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
        }
        st.misses += 1;
        // Captured under the cache lock: an invalidation either already
        // bumped the epoch (so the insert will be dropped) or serializes
        // behind this lock.
        let epoch = self.epoch_fast.load(Ordering::Acquire);
        let open = st.entries.len() as i64;
        drop(st);
        if let Some(i) = self.instruments.get() {
            i.misses.inc();
            i.open_fds.set(open);
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
        let mut st = self.state.lock();
        // Invalidations serialize on this lock, so an unchanged epoch
        // proves no invalidation landed since lookup. A bump by an
        // unrelated path costs only a use-once open — conservative,
        // never stale.
        if self.epoch_fast.load(Ordering::Acquire) != epoch {
            return; // raced an invalidation: use-once, never cache
        }
        st.tick += 1;
        let tick = st.tick;
        let mut evicted = 0u64;
        let replacing = st.entries.contains_key(path);
        while !replacing && st.entries.len() >= self.capacity {
            // LRU eviction: linear scan is fine — capacity is small (it
            // bounds *open descriptors*, typically ≤ a few hundred) and we
            // only scan on insert-at-capacity, never per chunk.
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
        st.entries.insert(
            path.clone(),
            Entry {
                file,
                writable,
                stamp: tick,
            },
        );
        // The cache's whole point is bounding open descriptors: an insert
        // must never leave more cached FDs than the capacity.
        nest_check::invariant!(
            st.entries.len() <= self.capacity,
            "handlecache holds {} open FDs, capacity is {}",
            st.entries.len(),
            self.capacity
        );
        let open = st.entries.len() as i64;
        drop(st);
        if let Some(i) = self.instruments.get() {
            i.evictions.add(evicted);
            i.open_fds.set(open);
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
        self.state.lock().hits += n;
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
    /// thread, and must not serialize against chunk I/O taking the cache
    /// lock. An invalidation racing the read is indistinguishable from
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
        let mut st = self.state.lock();
        // Bumped while holding the lock so an insert can never interleave
        // between the bump and the removal.
        self.epoch_fast.fetch_add(1, Ordering::AcqRel);
        st.entries.remove(path);
        let open = st.entries.len() as i64;
        drop(st);
        if let Some(i) = self.instruments.get() {
            i.open_fds.set(open);
        }
    }

    /// Drops every cached handle (e.g. wholesale namespace changes) and
    /// bumps the epoch, so no open that raced the sweep is cached.
    pub fn invalidate_all(&self) {
        let mut st = self.state.lock();
        self.epoch_fast.fetch_add(1, Ordering::AcqRel);
        st.entries.clear();
        drop(st);
        if let Some(i) = self.instruments.get() {
            i.open_fds.set(0);
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
    fn cache_holds_whole_capacity_then_evicts_lru() {
        // Every one of `capacity` slots is usable: 128 distinct hot paths
        // all stay open, and the 129th insert evicts exactly one handle —
        // the least recently used, not the first inserted.
        let dir = tempdir("capacity");
        let c = HandleCache::new(128);
        let path = |i: usize| vp(&format!("/f{}", i));
        let open = |i: usize| {
            let host = tmpfile(&dir, &format!("f{}", i), b"x");
            let Lookup::Miss { epoch } = c.lookup(&path(i), false) else {
                panic!("miss expected for /f{}", i);
            };
            c.insert(&path(i), Arc::new(File::open(&host).unwrap()), false, epoch);
        };
        for i in 0..128 {
            open(i);
        }
        assert_eq!(c.stats().evictions, 0);
        // Touch newest-first, so /f127 becomes the least recently used.
        for i in (0..128).rev() {
            assert!(
                matches!(c.lookup(&path(i), false), Lookup::Hit(_)),
                "/f{} evicted",
                i
            );
        }
        assert_eq!(c.stats().evictions, 0);
        open(128);
        let s = c.stats();
        assert_eq!((s.evictions, s.open), (1, 128));
        assert!(matches!(c.lookup(&path(127), false), Lookup::Miss { .. }));
        for i in (0..127).chain([128]) {
            assert!(
                matches!(c.lookup(&path(i), false), Lookup::Hit(_)),
                "/f{} evicted",
                i
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
