//! Per-named-lock acquisition statistics.
//!
//! Every named lock ([`crate::Mutex::named`] / [`crate::RwLock::named`])
//! shares one statistics cell per *name* — a name identifies a lock
//! *class* (à la Linux lockdep), not an instance, so `storage.lot` is one
//! row no matter how many appliances a test process spins up. Cells are
//! leaked `'static` allocations: the set of distinct names is small and
//! fixed at compile time, and a `'static` borrow lets each lock instance
//! cache its cell in a `OnceLock` and update it with plain relaxed
//! atomics — the steady-state cost of being named is two `Instant::now()`
//! calls and a handful of uncontended atomic adds per acquisition.
//!
//! The table itself is guarded by a `std::sync::Mutex`, **not** a shim
//! lock, so the statistics layer can never recurse into itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The shared statistics cell for one lock class.
#[derive(Debug)]
pub struct LockStats {
    /// The static name given at the construction site.
    pub name: &'static str,
    /// Documentation rank from the canonical lock-rank table (DESIGN.md
    /// §11); lower ranks are acquired first on any rank-consistent path.
    pub rank: u16,
    /// Dense node id used by the lock-order graph.
    pub(crate) id: u32,
    pub(crate) acquires: AtomicU64,
    pub(crate) contended: AtomicU64,
    pub(crate) wait_ns: AtomicU64,
    pub(crate) hold_ns: AtomicU64,
}

impl LockStats {
    pub(crate) fn note_contended(&self) {
        self.contended.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_wait(&self, ns: u64) {
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
    }
    pub(crate) fn note_acquire(&self) {
        self.acquires.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_hold(&self, ns: u64) {
        self.hold_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one lock class's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockStatSnapshot {
    /// Lock-class name.
    pub name: &'static str,
    /// Rank from the canonical table (first registration wins).
    pub rank: u16,
    /// Total acquisitions (lock / read / write / condvar reacquire).
    pub acquires: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Total nanoseconds spent blocked waiting to acquire.
    pub wait_ns: u64,
    /// Total nanoseconds the lock was held (per-guard, summed).
    pub hold_ns: u64,
}

static TABLE: OnceLock<Mutex<BTreeMap<&'static str, &'static LockStats>>> = OnceLock::new();
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

fn table() -> &'static Mutex<BTreeMap<&'static str, &'static LockStats>> {
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Resolves (registering on first use) the shared cell for `name`.
/// The first registration's `rank` wins; later constructions of the same
/// class reuse the cell regardless of the rank they pass.
pub(crate) fn cell_for(name: &'static str, rank: u16) -> &'static LockStats {
    let mut t = table().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(cell) = t.get(name) {
        return cell;
    }
    let cell: &'static LockStats = Box::leak(Box::new(LockStats {
        name,
        rank,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        acquires: AtomicU64::new(0),
        contended: AtomicU64::new(0),
        wait_ns: AtomicU64::new(0),
        hold_ns: AtomicU64::new(0),
    }));
    t.insert(name, cell);
    cell
}

/// A consistent, name-sorted snapshot of every registered lock class.
pub fn snapshot() -> Vec<LockStatSnapshot> {
    let t = table().lock().unwrap_or_else(PoisonError::into_inner);
    t.values()
        .map(|c| LockStatSnapshot {
            name: c.name,
            rank: c.rank,
            acquires: c.acquires.load(Ordering::Relaxed),
            contended: c.contended.load(Ordering::Relaxed),
            wait_ns: c.wait_ns.load(Ordering::Relaxed),
            hold_ns: c.hold_ns.load(Ordering::Relaxed),
        })
        .collect()
}

/// True for lock classes that only exist inside test or model-checker
/// harnesses — they never run in production, so contention surfaces must
/// not report them.
fn harness_class(name: &str) -> bool {
    name.starts_with("test.") || name.starts_with("model.")
}

/// The production lock class with the most total blocked time (`wait_ns`;
/// ties broken by contended count, then name), or `None` when no class
/// has ever contended. Raw contended counts overweight cheap fast-path
/// bounces, so the ranking key is time lost, not bounce count.
/// `test.*`/`model.*` harness classes are excluded. Feeds the discovery
/// ClassAd's `LockContentionTop` attribute.
pub fn most_contended() -> Option<LockStatSnapshot> {
    snapshot()
        .into_iter()
        .filter(|s| s.contended > 0 && !harness_class(s.name))
        .max_by(|a, b| {
            a.wait_ns
                .cmp(&b.wait_ns)
                .then(a.contended.cmp(&b.contended))
                .then(b.name.cmp(a.name))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_contended_ranks_by_wait_not_bounce_count() {
        // Many cheap bounces on one class, fewer but far costlier blocks
        // on another: the ranking must pick the class that lost the most
        // time. (Names avoid the excluded `test.`/`model.` prefixes; this
        // crate's own test binary is the only reader of these rows.)
        let bouncy = cell_for("zz.lockstats.bouncy", 1);
        for _ in 0..1000 {
            bouncy.note_contended();
            bouncy.note_wait(10);
        }
        let waity = cell_for("zz.lockstats.waity", 2);
        waity.note_contended();
        waity.note_wait(1_000_000_000);
        let top = most_contended().expect("contended classes exist");
        assert_eq!(top.name, "zz.lockstats.waity");
    }

    #[test]
    fn harness_classes_never_surface() {
        let t = cell_for("test.lockstats.loud", 3);
        let m = cell_for("model.lockstats.loud", 4);
        for c in [t, m] {
            c.note_contended();
            c.note_wait(u64::MAX / 4);
        }
        if let Some(top) = most_contended() {
            assert!(
                !harness_class(top.name),
                "harness class leaked: {}",
                top.name
            );
        }
    }
}
