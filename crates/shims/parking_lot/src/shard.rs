//! Lock striping over the shim's named [`Mutex`]: N cells, one class.
//!
//! A [`ShardedMutex`] spreads one logical table over `N` independently
//! locked cells so that operations touching different shards stop
//! serializing on a single mutex. Every cell is constructed with the
//! *same* class name and rank, which keeps the rest of the concurrency
//! lab working unchanged across shards:
//!
//! * **Contention statistics** — all cells charge one `lock.<class>.*`
//!   stats cell (a name identifies a class, not an instance), so the
//!   before/after contention profile of a sharding refactor stays
//!   directly comparable.
//! * **Lock-order detection** — the cells share one rank, and same-class
//!   nesting is exempt from the order detector, so multi-cell holds are
//!   legal *provided they are acquired in ascending cell index*. Every
//!   multi-cell path in this module ([`ShardedMutex::lock_all`]) does so;
//!   wrapper modules locking a subset of cells must follow the same
//!   ascending-index discipline (that is the only deadlock rule).
//! * **Model-checker hooks** — each cell is an ordinary named [`Mutex`],
//!   so under the `model` feature the scheduler interposes on every cell
//!   acquisition exactly as it does for unsharded locks.
//!
//! Shard selection is by caller-supplied hash ([`ShardedMutex::lock`]),
//! typically [`shard_hash`] of the table key. `shards = 1` degenerates to
//! a plain mutex and is the seed-equivalent ablation configuration.
//!
//! Raw cell access ([`ShardedMutex::shard_cell`] /
//! [`ShardedMutex::lock_idx`]) exists for wrapper modules that own the
//! sharding discipline (ordered subset locking, sequential aggregation).
//! Production code outside a wrapper module must go through the wrapper;
//! the `sharded-bypass` nest-lint rule enforces this.

use crate::{Mutex, MutexGuard};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Hashes a shard key with the std `DefaultHasher`. Deterministic within
/// a process, which is all shard selection needs.
pub fn shard_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// A fixed set of same-class mutex cells striping one logical table.
pub struct ShardedMutex<T> {
    cells: Vec<Mutex<T>>,
}

impl<T> ShardedMutex<T> {
    /// Builds `shards` cells (clamped to at least 1), all in lock class
    /// `name` at rank `rank`; `init` produces each cell's initial value
    /// from its index.
    pub fn new(
        name: &'static str,
        rank: u16,
        shards: usize,
        mut init: impl FnMut(usize) -> T,
    ) -> Self {
        let shards = shards.max(1);
        Self {
            cells: (0..shards)
                .map(|i| Mutex::named(name, rank, init(i)))
                .collect(),
        }
    }

    /// Number of cells.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The cell index a hash selects.
    pub fn shard_for(&self, hash: u64) -> usize {
        (hash % self.cells.len() as u64) as usize
    }

    /// Locks the cell selected by `hash`.
    pub fn lock(&self, hash: u64) -> MutexGuard<'_, T> {
        self.cells[self.shard_for(hash)].lock()
    }

    /// Locks cell `idx` directly. Wrapper-module use only: a caller
    /// holding multiple cells must acquire them in ascending index order.
    pub fn lock_idx(&self, idx: usize) -> MutexGuard<'_, T> {
        self.cells[idx].lock()
    }

    /// The raw cell at `idx`. Wrapper-module use only (see module docs);
    /// flagged by the `sharded-bypass` lint elsewhere.
    pub fn shard_cell(&self, idx: usize) -> &Mutex<T> {
        &self.cells[idx]
    }

    /// Locks every cell in ascending index order and returns all guards.
    /// The ascending order is what makes concurrent `lock_all` calls (and
    /// concurrent ordered subset locks) deadlock-free.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, T>> {
        self.cells.iter().map(Mutex::lock).collect()
    }

    /// Runs `f` over every cell *sequentially* (one cell locked at a
    /// time) — the aggregation pattern for sloppy snapshots that do not
    /// need a cross-cell atomic view.
    pub fn for_each_cell<R>(&self, mut f: impl FnMut(usize, &mut T) -> R) -> Vec<R> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| f(i, &mut c.lock()))
            .collect()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ShardedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMutex")
            .field("shards", &self.cells.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstats;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn shards_partition_and_sum() {
        let s = Arc::new(ShardedMutex::new("test.shard.sum", 1, 4, |_| 0u64));
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    *s.lock(shard_hash(&(t * 1000 + i))) += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = s.for_each_cell(|_, v| *v).into_iter().sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn one_stats_class_across_cells() {
        let s = ShardedMutex::new("test.shard.one-class", 2, 8, |_| ());
        for i in 0..8 {
            drop(s.lock_idx(i));
        }
        let rows: Vec<_> = lockstats::snapshot()
            .into_iter()
            .filter(|r| r.name == "test.shard.one-class")
            .collect();
        assert_eq!(rows.len(), 1, "cells must share one class row");
        assert!(rows[0].acquires >= 8);
    }

    #[test]
    fn lock_all_holds_every_cell() {
        let s = ShardedMutex::new("test.shard.lock-all", 3, 3, |i| i);
        let guards = s.lock_all();
        assert_eq!(guards.len(), 3);
        for (i, g) in guards.iter().enumerate() {
            assert_eq!(**g, i);
        }
        // While all cells are held, try_lock on any cell fails.
        assert!(s.shard_cell(1).try_lock().is_none());
        drop(guards);
        assert!(s.shard_cell(1).try_lock().is_some());
    }

    #[test]
    fn single_shard_degenerates_to_plain_mutex() {
        let s = ShardedMutex::new("test.shard.single", 4, 0, |_| 7u32);
        assert_eq!(s.shards(), 1);
        assert_eq!(s.shard_for(u64::MAX), 0);
        assert_eq!(*s.lock(123), 7);
    }

    #[test]
    fn shard_hash_is_stable() {
        assert_eq!(shard_hash("a"), shard_hash("a"));
        let s = ShardedMutex::new("test.shard.stable", 5, 16, |_| ());
        let h = shard_hash(&42u64);
        assert_eq!(s.shard_for(h), s.shard_for(h));
    }
}
