//! The actuating memory tier: a bounded, lot-aware RAM cache of small
//! whole objects under the storage manager.
//!
//! The paper's gray-box cache model only *predicts* OS cache residency to
//! inform scheduling. This module closes the loop for the objects where a
//! user-level copy pays: those one transfer chunk serves. A resident copy
//! saves a GET its per-request backend work (the descriptor lookup and
//! the read) and goes out in one `writev` with its reply header. A larger
//! object gains nothing from it: `sendfile` already moves its bytes out of
//! the page cache with one copy, while a promotion would add a second
//! copy and an allocation as big as the object, hold the bytes in RAM
//! twice, and give up `sendfile` on every hit. So larger objects always
//! stream from the backend, and the backend's page cache is their memory
//! tier.
//!
//! Design points:
//!
//! * **Strict byte accounting.** Resident bytes never exceed the
//!   configured budget; `ram_tier_bytes(0)` disables the tier entirely
//!   and is the byte-identical ablation baseline.
//! * **Model-driven promotion.** An object is promoted after its
//!   `PROMOTE_HITS`-th access inside `PROMOTE_WINDOW_SECS`; when the
//!   transfer layer's [`CacheModel`] already predicts the object
//!   resident (a residency *hint*), the first access suffices — the
//!   model has effectively pre-counted the hits.
//! * **Lot-aware demotion.** Entries backed by an unexpired (guaranteed)
//!   lot are demoted only under *global* pressure — when the guaranteed
//!   working set alone no longer fits the budget. Best-effort traffic can
//!   never push a guaranteed resident out.
//! * **Small whole objects, never the only copy.** Objects up to the
//!   per-object cap, `min(budget / 4, MAX_OBJECT_BYTES)`, cache whole;
//!   larger ones are never admitted, whatever the residency hint says.
//!   Every resident is a copy of bytes already on the backend: writes go
//!   to the backend and then invalidate the copy, so a crash loses cache,
//!   never data.
//! * **Promotion tickets.** A promotion reads the backend with no tier
//!   lock held. [`MemTier::record_access`] leaves a ticket in the path's
//!   access entry, [`MemTier::invalidate`] removes that entry, and
//!   [`MemTier::insert`] admits the object only if it removes a matching
//!   ticket. Because every mutation path invalidates *after* changing the
//!   backend, a promotion that may have read replaced bytes always finds
//!   its ticket gone and caches nothing.
//! * **One consumer.** Whole-object GET admission
//!   (`StorageManager::begin_get`) is the only caller that counts
//!   accesses and promotes, and whole-object GETs are the only reads a
//!   resident copy serves. Block reads go to the backend, whose handle
//!   cache and the kernel page cache already serve them.
//!
//! Locking: the tier state sits behind one mutex, `storage.memtier`,
//! rank 335 — above the lot table (300) and below the handle cache (340)
//! per the DESIGN.md §11 order. The tier never calls into the lot manager
//! or the backend while holding its lock: lot classification is computed
//! by the caller beforehand, and promotion I/O happens outside.

use crate::namespace::VPath;
use nest_obs::metrics::{Counter, Gauge};
use nest_obs::Obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Promote an object on this many accesses inside the window.
pub const PROMOTE_HITS: u32 = 2;

/// The access-counting window (seconds of the storage clock).
pub const PROMOTE_WINDOW_SECS: u64 = 300;

/// The largest object the tier admits, whatever its budget: one transfer
/// chunk (the transfer manager's default `chunk_size`), so a tier hit
/// leaves in a single `writev` with its reply header. Anything larger
/// streams from the page cache by `sendfile`; see the module docs.
pub const MAX_OBJECT_BYTES: u64 = 64 << 10;

/// A point-in-time copy of the tier's counters, for tests and ads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTierStats {
    /// Resident bytes.
    pub bytes: u64,
    /// Resident objects.
    pub objects: u64,
    /// Accesses served (or servable) from the tier.
    pub hits: u64,
    /// Accesses that fell through to the backend.
    pub misses: u64,
    /// Objects loaded into the tier.
    pub promotions: u64,
    /// Cold entries dropped to make room under the byte budget.
    pub demotions: u64,
    /// Entries removed for coherence (write/remove/rename/truncate).
    pub evictions: u64,
}

/// Permission to promote one path, issued by [`MemTier::record_access`].
/// [`MemTier::insert`] honours it only while no invalidation of the path
/// has happened since it was issued.
#[derive(Debug)]
pub struct PromotionTicket(u64);

#[derive(Debug)]
struct Entry {
    data: Arc<Vec<u8>>,
    guaranteed: bool,
    last_tick: u64,
    /// Hits served since promotion — the coldness key for demotion.
    /// Freshly promoted entries start at 0, so a one-shot scan that
    /// promotes its tail can only displace other scan entries, never a
    /// resident with a demonstrated hit history (scan resistance).
    hit_count: u64,
}

#[derive(Debug, Clone, Copy)]
struct AccessStat {
    count: u32,
    window_start: u64,
    /// The outstanding promotion ticket, if any.
    ticket: Option<u64>,
}

struct TierState {
    entries: HashMap<VPath, Entry>,
    access: HashMap<VPath, AccessStat>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    promotions: u64,
    demotions: u64,
    evictions: u64,
}

/// Instrument handles, resolved once at [`MemTier::register_obs`] and
/// updated at mutation time (same pattern as the handle cache).
struct Instruments {
    bytes: Arc<Gauge>,
    objects: Arc<Gauge>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    promotions: Arc<Counter>,
    demotions: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// The bounded in-memory storage tier. `budget == 0` disables every code
/// path — the ablation baseline does no bookkeeping at all.
pub struct MemTier {
    budget: u64,
    /// Largest object admitted (whole): `min(budget / 4, MAX_OBJECT_BYTES)`.
    max_object_bytes: u64,
    state: Mutex<TierState>,
    /// Written once by [`MemTier::register_obs`], then read lock-free on
    /// every access, insert and invalidation.
    instruments: OnceLock<Instruments>,
}

impl std::fmt::Debug for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTier")
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl MemTier {
    /// Creates a tier bounded to `budget` bytes (0 disables).
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            max_object_bytes: (budget / 4).clamp(1, MAX_OBJECT_BYTES),
            state: Mutex::named(
                "storage.memtier",
                335,
                TierState {
                    entries: HashMap::new(),
                    access: HashMap::new(),
                    tick: 0,
                    bytes: 0,
                    hits: 0,
                    misses: 0,
                    promotions: 0,
                    demotions: 0,
                    evictions: 0,
                },
            ),
            instruments: OnceLock::new(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether the tier participates at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Registers the `memtier.*` instruments and back-fills any counts
    /// accumulated before registration. The first registration wins;
    /// later ones are ignored.
    pub fn register_obs(&self, obs: &Obs) {
        if !self.enabled() {
            return;
        }
        // Held across the publish so no count lands between the back-fill
        // and the instruments becoming visible.
        let st = self.state.lock();
        self.instruments.get_or_init(|| {
            let inst = Instruments {
                bytes: obs.metrics.gauge("memtier.bytes"),
                objects: obs.metrics.gauge("memtier.objects"),
                hits: obs.metrics.counter("memtier.hits"),
                misses: obs.metrics.counter("memtier.misses"),
                promotions: obs.metrics.counter("memtier.promotions"),
                demotions: obs.metrics.counter("memtier.demotions"),
                evictions: obs.metrics.counter("memtier.evictions"),
            };
            inst.bytes.set(st.bytes as i64);
            inst.objects.set(st.entries.len() as i64);
            inst.hits.add(st.hits);
            inst.misses.add(st.misses);
            inst.promotions.add(st.promotions);
            inst.demotions.add(st.demotions);
            inst.evictions.add(st.evictions);
            inst
        });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemTierStats {
        if !self.enabled() {
            return MemTierStats::default();
        }
        let st = self.state.lock();
        MemTierStats {
            bytes: st.bytes,
            objects: st.entries.len() as u64,
            hits: st.hits,
            misses: st.misses,
            promotions: st.promotions,
            demotions: st.demotions,
            evictions: st.evictions,
        }
    }

    /// Records a GET-granular access to `path` and decides promotion.
    /// Counts a hit when the object is resident, a miss otherwise. Returns
    /// a ticket when the caller should read the object (exactly `size`
    /// bytes) and [`MemTier::insert`] it: on the [`PROMOTE_HITS`]-th
    /// access inside the window, or immediately when `resident_hint` says
    /// the cache model already predicts the object hot. Objects larger
    /// than the per-object cap, `min(budget / 4, MAX_OBJECT_BYTES)`, are
    /// never promoted: the cap is checked before the hint is consulted,
    /// so a hot big object still streams from the backend.
    pub fn record_access(
        &self,
        path: &VPath,
        size: u64,
        resident_hint: bool,
        now: u64,
    ) -> Option<PromotionTicket> {
        if !self.enabled() {
            return None;
        }
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        if let Some(e) = st.entries.get_mut(path) {
            e.last_tick = tick;
            e.hit_count += 1;
            st.hits += 1;
            self.with_instruments(|i| i.hits.inc());
            return None;
        }
        st.misses += 1;
        self.with_instruments(|i| i.misses.inc());
        if size == 0 || size > self.max_object_bytes {
            return None;
        }
        let stat = st.access.entry(path.clone()).or_insert(AccessStat {
            count: 0,
            window_start: now,
            ticket: None,
        });
        if now.saturating_sub(stat.window_start) > PROMOTE_WINDOW_SECS {
            stat.count = 0;
            stat.window_start = now;
        }
        stat.count += 1;
        if stat.count >= PROMOTE_HITS || resident_hint {
            // The count restarts; the ticket waits for `insert` (or an
            // invalidation) to consume it.
            *stat = AccessStat {
                count: 0,
                window_start: now,
                ticket: Some(tick),
            };
            return Some(PromotionTicket(tick));
        }
        if st.access.len() > 64 * 1024 {
            // Bound the access table: drop stats whose window lapsed
            // (abandoned tickets included).
            st.access
                .retain(|_, s| now.saturating_sub(s.window_start) <= PROMOTE_WINDOW_SECS);
        }
        None
    }

    /// The whole object, when resident — the transfer layer wraps this in
    /// a `MemSource`. Counts no hit and refreshes no recency: the GET's
    /// [`MemTier::record_access`] already did both.
    pub fn object(&self, path: &VPath) -> Option<Arc<Vec<u8>>> {
        if !self.enabled() {
            return None;
        }
        let st = self.state.lock();
        st.entries.get(path).map(|e| Arc::clone(&e.data))
    }

    /// Loads a whole object read from the backend under `ticket`.
    /// `guaranteed` classifies the entry for demotion. The insert is
    /// dropped when the ticket is stale (the path was invalidated since
    /// it was issued, so `data` may predate a write), when the object
    /// exceeds the per-object cap (whatever the ticket says), or when
    /// room cannot be made without violating the lot rule: best-effort
    /// entries never demote guaranteed residents.
    pub fn insert(&self, path: &VPath, data: Vec<u8>, guaranteed: bool, ticket: PromotionTicket) {
        if !self.enabled() || data.len() as u64 > self.max_object_bytes {
            return;
        }
        let mut st = self.state.lock();
        match st.access.get(path) {
            Some(a) if a.ticket == Some(ticket.0) => {
                st.access.remove(path);
            }
            // Tickets are issued only for non-resident paths and an insert
            // consumes its ticket, so a current ticket means no entry.
            _ => return,
        }
        if !Self::make_room(&mut st, data.len() as u64, self.budget, guaranteed) {
            self.sync_gauges(&st);
            return;
        }
        st.tick += 1;
        let tick = st.tick;
        st.bytes += data.len() as u64;
        st.promotions += 1;
        self.with_instruments(|i| i.promotions.inc());
        st.entries.insert(
            path.clone(),
            Entry {
                data: Arc::new(data),
                guaranteed,
                last_tick: tick,
                hit_count: 0,
            },
        );
        self.sync_gauges(&st);
    }

    /// Drops any resident copy of `path`, and any outstanding promotion
    /// ticket for it, for coherence (write, remove, rename, truncate,
    /// recreate, abort). Callers invalidate *after* changing the backend.
    pub fn invalidate(&self, path: &VPath) {
        if !self.enabled() {
            return;
        }
        let mut st = self.state.lock();
        st.access.remove(path);
        if let Some(old) = st.entries.remove(path) {
            st.bytes -= old.data.len() as u64;
            st.evictions += 1;
            self.with_instruments(|i| i.evictions.inc());
            self.sync_gauges(&st);
        }
    }

    /// Resident bytes currently classified guaranteed (for tests).
    pub fn guaranteed_bytes(&self) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let st = self.state.lock();
        st.entries
            .values()
            .filter(|e| e.guaranteed)
            .map(|e| e.data.len() as u64)
            .sum()
    }

    /// Demotes cold entries until `need` more bytes fit in `budget`.
    /// Best-effort inserts (`guaranteed == false`) may only demote other
    /// best-effort entries; guaranteed inserts demote best-effort first
    /// and touch guaranteed residents only under global pressure. Returns
    /// false (leaving room unmade) when the lot rule forbids enough
    /// demotion.
    fn make_room(st: &mut TierState, need: u64, budget: u64, guaranteed: bool) -> bool {
        if st.bytes + need <= budget {
            return true;
        }
        // Cold-first within a class: fewest hits since promotion, then
        // least recently used. Recency alone thrashes under Zipf traffic —
        // every tail promotion arrives with the newest tick and would
        // displace a demonstrably hot resident.
        let mut victims: Vec<(VPath, u64, u64, bool)> = st
            .entries
            .iter()
            .map(|(p, e)| (p.clone(), e.hit_count, e.last_tick, e.guaranteed))
            .collect();
        // Best-effort victims first (coldest first), then — only for a
        // guaranteed insert — guaranteed victims (coldest first).
        victims.sort_by_key(|(_, hits, tick, g)| (*g, *hits, *tick));
        let mut planned: Vec<VPath> = Vec::new();
        let mut freed = 0u64;
        for (p, _, _, victim_guaranteed) in victims {
            if st.bytes - freed + need <= budget {
                break;
            }
            if victim_guaranteed && !guaranteed {
                // A best-effort object must never push out a guaranteed
                // resident — give up instead.
                return false;
            }
            freed += st.entries[&p].data.len() as u64;
            planned.push(p);
        }
        if st.bytes - freed + need > budget {
            return false;
        }
        for p in planned {
            let e = st.entries.remove(&p).expect("planned victim present");
            st.bytes -= e.data.len() as u64;
            st.demotions += 1;
        }
        true
    }

    fn with_instruments(&self, f: impl FnOnce(&Instruments)) {
        if let Some(i) = self.instruments.get() {
            f(i);
        }
    }

    fn sync_gauges(&self, st: &TierState) {
        if let Some(i) = self.instruments.get() {
            i.bytes.set(st.bytes as i64);
            i.objects.set(st.entries.len() as i64);
            // Demotions are batch-counted here rather than per victim.
            let counted = i.demotions.get();
            if st.demotions > counted {
                i.demotions.add(st.demotions - counted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn obj(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    /// Promotes `data` under `path` the way the manager does: a hinted
    /// access issues the ticket, the insert redeems it.
    fn promote(t: &MemTier, path: &str, data: Vec<u8>, guaranteed: bool) {
        if let Some(ticket) = t.record_access(&vp(path), data.len() as u64, true, 0) {
            t.insert(&vp(path), data, guaranteed, ticket);
        }
    }

    #[test]
    fn disabled_tier_is_inert() {
        let t = MemTier::new(0);
        assert!(!t.enabled());
        assert!(t.record_access(&vp("/a"), 10, true, 0).is_none());
        t.insert(&vp("/a"), obj(10, 1), false, PromotionTicket(0));
        assert!(t.object(&vp("/a")).is_none());
        assert_eq!(t.stats(), MemTierStats::default());
    }

    #[test]
    fn promotes_on_second_access_within_window() {
        let t = MemTier::new(1024);
        assert!(t.record_access(&vp("/f"), 100, false, 10).is_none());
        assert!(t.record_access(&vp("/f"), 100, false, 20).is_some());
    }

    #[test]
    fn window_lapse_resets_the_count() {
        let t = MemTier::new(1024);
        assert!(t.record_access(&vp("/f"), 100, false, 0).is_none());
        // Second access far outside the window starts a fresh count.
        assert!(t
            .record_access(&vp("/f"), 100, false, PROMOTE_WINDOW_SECS + 1)
            .is_none());
    }

    #[test]
    fn residency_hint_promotes_immediately() {
        let t = MemTier::new(1024);
        assert!(t.record_access(&vp("/hot"), 100, true, 0).is_some());
    }

    #[test]
    fn hit_and_miss_accounting() {
        let t = MemTier::new(1024);
        promote(&t, "/f", obj(100, 7), false);
        assert!(t.record_access(&vp("/f"), 100, false, 1).is_none());
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes, 100);
        assert_eq!(s.objects, 1);
    }

    #[test]
    fn budget_is_strict_and_demotes_cold_first() {
        let t = MemTier::new(400);
        for (p, fill) in [("/a", 1), ("/b", 2), ("/c", 3), ("/d", 4)] {
            promote(&t, p, obj(100, fill), false);
        }
        // A GET hit on /a leaves /b the coldest.
        assert!(t.record_access(&vp("/a"), 100, false, 0).is_none());
        promote(&t, "/e", obj(100, 5), false);
        let s = t.stats();
        assert_eq!(s.bytes, 400);
        assert_eq!(s.demotions, 1);
        assert!(t.object(&vp("/b")).is_none(), "coldest entry demoted");
        assert!(t.object(&vp("/a")).is_some());
        assert!(t.object(&vp("/e")).is_some());
    }

    #[test]
    fn best_effort_never_demotes_guaranteed() {
        let t = MemTier::new(400);
        for p in ["/g1", "/g2", "/g3", "/g4"] {
            promote(&t, p, obj(100, 1), true);
        }
        // A full tier of guaranteed residents: the best-effort insert is
        // refused, guaranteed residents untouched.
        promote(&t, "/be", obj(100, 3), false);
        assert!(t.object(&vp("/be")).is_none());
        assert_eq!(t.guaranteed_bytes(), 400);
        assert_eq!(t.stats().demotions, 0);
    }

    #[test]
    fn guaranteed_insert_demotes_best_effort_then_guaranteed() {
        let t = MemTier::new(400);
        promote(&t, "/be", obj(100, 1), false);
        for p in ["/g1", "/g2", "/g3"] {
            promote(&t, p, obj(100, 2), true);
        }
        // Guaranteed insert: the best-effort victim goes first.
        promote(&t, "/g4", obj(100, 3), true);
        assert!(t.object(&vp("/be")).is_none());
        assert!(t.object(&vp("/g1")).is_some());
        // Global pressure: a further guaranteed insert may demote the
        // coldest guaranteed resident.
        promote(&t, "/g5", obj(100, 4), true);
        assert!(t.object(&vp("/g5")).is_some());
        assert!(t.object(&vp("/g1")).is_none());
        assert!(t.object(&vp("/g2")).is_some());
        assert_eq!(t.stats().bytes, 400);
    }

    #[test]
    fn invalidate_drops_and_counts_eviction() {
        let t = MemTier::new(1024);
        promote(&t, "/f", obj(100, 1), false);
        t.invalidate(&vp("/f"));
        assert_eq!(t.stats().bytes, 0);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn invalidation_between_access_and_insert_voids_the_ticket() {
        // The promotion read the old bytes; a writer then replaced them
        // on the backend and invalidated. The late insert must not cache.
        let t = MemTier::new(1024);
        let ticket = t.record_access(&vp("/f"), 100, true, 0).expect("hinted");
        t.invalidate(&vp("/f"));
        t.insert(&vp("/f"), obj(100, 1), false, ticket);
        assert!(t.object(&vp("/f")).is_none());
        assert_eq!(t.stats().bytes, 0);
        // Only the newest ticket is honoured.
        let old = t.record_access(&vp("/f"), 100, true, 0).expect("hinted");
        let new = t.record_access(&vp("/f"), 100, true, 0).expect("hinted");
        t.insert(&vp("/f"), obj(100, 1), false, old);
        assert!(t.object(&vp("/f")).is_none());
        t.insert(&vp("/f"), obj(100, 2), false, new);
        assert_eq!(t.object(&vp("/f")).unwrap().as_slice(), &[2u8; 100]);
    }

    #[test]
    fn oversized_objects_are_refused() {
        let t = MemTier::new(100);
        // Exactly budget / 4 is admitted whole; one byte more is not.
        assert!(t.record_access(&vp("/big"), 26, true, 0).is_none());
        promote(&t, "/max", obj(25, 1), true);
        assert_eq!(t.object(&vp("/max")).unwrap().len(), 25);
        // The insert enforces the cap too, whatever the ticket said.
        let ticket = t.record_access(&vp("/huge"), 25, true, 0).expect("hinted");
        t.insert(&vp("/huge"), obj(200, 1), true, ticket);
        assert!(t.object(&vp("/huge")).is_none());
        assert_eq!(t.stats().bytes, 25);
    }

    #[test]
    fn objects_over_one_chunk_are_refused_on_any_budget() {
        let t = MemTier::new(64 << 20);
        // The cap holds before the residency hint is consulted.
        assert!(t
            .record_access(&vp("/big"), MAX_OBJECT_BYTES + 1, true, 0)
            .is_none());
        let ticket = t
            .record_access(&vp("/chunk"), MAX_OBJECT_BYTES, true, 0)
            .expect("exactly one chunk is admitted");
        // The insert enforces the cap too, whatever the ticket said.
        t.insert(
            &vp("/chunk"),
            obj(MAX_OBJECT_BYTES as usize + 1, 1),
            true,
            ticket,
        );
        assert!(t.object(&vp("/chunk")).is_none());
        assert_eq!(t.stats().bytes, 0);
        promote(&t, "/max", obj(MAX_OBJECT_BYTES as usize, 2), false);
        assert_eq!(t.stats().bytes, MAX_OBJECT_BYTES);
    }

    #[test]
    fn stats_backfill_on_late_obs_registration() {
        let t = MemTier::new(1024);
        promote(&t, "/f", obj(100, 1), false);
        let obs = Obs::new();
        t.register_obs(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.count("memtier.misses"), 1);
        assert_eq!(snap.count("memtier.promotions"), 1);
    }
}
