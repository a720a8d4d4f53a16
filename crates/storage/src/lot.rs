//! Lots: guaranteed storage space (paper §5).
//!
//! "Each lot is defined by four characteristics: owner, capacity, duration,
//! and files." When a lot's duration expires its files are not deleted;
//! the lot becomes **best-effort** and its space is reclaimed only when
//! needed to create a new lot. Files may span multiple lots when they do
//! not fit in one.
//!
//! Beyond the paper's 2002 release this module also implements two of its
//! announced extensions: **group lots** (owner may be a group) and a choice
//! of best-effort **reclamation policies** (the paper says "we are currently
//! investigating different selection policies for reclaiming this space").
//!
//! Time is passed in explicitly (seconds) so the same code runs under the
//! real clock and under the simulation substrate.

use crate::namespace::VPath;
use parking_lot::{shard_hash, MutexGuard, ShardedMutex};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// A lot identifier, unique within one NeST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LotId(pub u64);

impl fmt::Display for LotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lot-{}", self.0)
    }
}

/// Who owns a lot: a user, or (extension) a group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LotOwner {
    /// An individual user, as in the paper's 2002 release.
    User(String),
    /// A group lot — the paper's "next release" feature.
    Group(String),
}

impl LotOwner {
    /// True when `user` (with `groups` memberships) may use this lot.
    pub fn usable_by(&self, user: &str, groups: &std::collections::HashSet<String>) -> bool {
        match self {
            LotOwner::User(u) => u == user,
            LotOwner::Group(g) => groups.contains(g),
        }
    }
}

impl fmt::Display for LotOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotOwner::User(u) => write!(f, "user:{}", u),
            LotOwner::Group(g) => write!(f, "group:{}", g),
        }
    }
}

/// A storage-space guarantee.
#[derive(Debug, Clone)]
pub struct Lot {
    /// Unique id.
    pub id: LotId,
    /// Owner (user or group).
    pub owner: LotOwner,
    /// Guaranteed capacity in bytes.
    pub capacity: u64,
    /// Absolute expiry time (seconds). After this the lot is best-effort.
    pub expires_at: u64,
    /// Bytes currently stored in this lot.
    pub used: u64,
    /// Last time (seconds) data in this lot was read or written, for the
    /// LRU reclamation policy.
    pub last_access: u64,
    /// Files with bytes allocated in this lot, and how many bytes each has
    /// here (a file may span lots).
    pub files: BTreeMap<VPath, u64>,
}

impl Lot {
    /// True once the duration has elapsed.
    pub fn is_expired(&self, now: u64) -> bool {
        now >= self.expires_at
    }

    /// Uncommitted capacity.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

/// How best-effort (expired) lots are chosen for reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// Longest-expired first (the natural FIFO on expiry).
    ExpiredFirst,
    /// Largest occupied space first (frees the most per eviction).
    LargestFirst,
    /// Least recently accessed first.
    Lru,
}

/// Errors from lot operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LotError {
    /// No lot with that id.
    NoSuchLot(LotId),
    /// Creating or writing would exceed guaranteed space even after
    /// reclaiming every best-effort lot.
    InsufficientSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes available after maximal reclamation.
        available: u64,
    },
    /// The named user may not use this lot.
    NotOwner,
    /// Writes are not accepted into an expired (best-effort) lot.
    Expired(LotId),
    /// The user has no lot at all (file creation requires one).
    NoLot(String),
}

impl fmt::Display for LotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LotError::NoSuchLot(id) => write!(f, "no such lot {}", id),
            LotError::InsufficientSpace {
                requested,
                available,
            } => write!(
                f,
                "insufficient guaranteed space: requested {}, available {}",
                requested, available
            ),
            LotError::NotOwner => write!(f, "caller does not own this lot"),
            LotError::Expired(id) => write!(f, "lot {} has expired (best-effort)", id),
            LotError::NoLot(user) => write!(f, "user {} holds no lot", user),
        }
    }
}

impl std::error::Error for LotError {}

/// The outcome of an operation that may have evicted best-effort lots:
/// the paths whose backing store should now be deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Files to delete from the physical backend.
    pub files: Vec<VPath>,
    /// The reclaimed lots.
    pub lots: Vec<LotId>,
}

/// A key of the lot table whose current state one journal record carries
/// (see [`LotManager::render_keys`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LotKey<'a> {
    /// A lot's header, or its tombstone once the lot is gone.
    Lot(LotId),
    /// Every charge of one path.
    Path(&'a VPath),
}

/// Default stripe count for the lot table (and the other sharded tables
/// that follow its lead). `1` is the seed-equivalent ablation.
pub const DEFAULT_LOT_SHARDS: usize = 8;

/// The lot table and its accounting, striped over N cells keyed by lot
/// id (cell `id % N`); each file's span record lives in the cell its
/// *path* hashes to, so the per-chunk hot paths (`charge_file`,
/// `release_file`, `touch_file`, `stat`) lock only the cells they touch.
///
/// Cross-cell discipline (all cells share the one `storage.lot` class):
/// * multi-cell operations lock cells in **ascending index order**;
/// * the owner index (`storage.lot.owners`, rank 303) is only ever
///   locked *after* cells, or alone — `charge_file` reads it and drops
///   the guard before touching any cell;
/// * `committed` is a **sloppy upper bound** on Σ active capacities +
///   Σ best-effort used. Silent expiry only converts an active lot's
///   contribution from `capacity` to `used ≤ capacity`, so a counter
///   that is never decremented outside the all-cells slow path stays
///   ≥ the true commitment — a CAS-add admission against it can admit a
///   lot the true state couldn't hold only if the counter were *under*
///   the truth, which it never is. Ops that hold every cell (create's
///   reclaim path, terminate, renew, restore) recompute it exactly; the
///   error is therefore bounded by the bytes expired-or-released since
///   the last all-cells operation, and errs only toward refusing the
///   fast path.
///
/// Invariants (checked under `nest_check::enforcing()`):
/// * Σ active capacities + Σ best-effort used ≤ total capacity — every
///   active lot can always be filled to its capacity (verified on the
///   all-cells paths; per-cell paths verify the per-lot invariants of
///   every lot they touch);
/// * each lot's `used` equals the sum of its per-file allocations;
/// * a lot's `used` never exceeds its `capacity`.
pub struct LotManager {
    total_capacity: u64,
    policy: ReclaimPolicy,
    /// Never reused; monotonic. Allocation order still gives rising ids.
    next_id: AtomicU64,
    /// Sloppy upper bound on Σ active capacities + Σ best-effort used;
    /// see the struct docs for the safety argument.
    committed: AtomicU64,
    cells: ShardedMutex<LotCell>,
    /// owner key (`user:<u>` / `group:<g>`) → lot ids, so `charge_file`
    /// finds a user's lots without scanning every cell. Maintained under
    /// the owning lot's cell lock; readers re-validate under cell locks.
    owners: ShardedMutex<HashMap<String, Vec<LotId>>>,
}

/// One stripe of the lot table.
struct LotCell {
    /// Lots whose id maps here (`id % shards`).
    lots: HashMap<LotId, Lot>,
    /// Span records for files whose *path* hashes here (orders spans for
    /// release). A span's lots may live in other cells.
    file_spans: HashMap<VPath, Vec<LotId>>,
}

fn owner_key(owner: &LotOwner) -> String {
    owner.to_string()
}

impl LotManager {
    /// Creates a manager over `total_capacity` bytes of physical storage
    /// with the default stripe count.
    pub fn new(total_capacity: u64, policy: ReclaimPolicy) -> Self {
        Self::with_shards(total_capacity, policy, DEFAULT_LOT_SHARDS)
    }

    /// Creates a manager with an explicit stripe count (`1` = the
    /// single-mutex ablation).
    pub fn with_shards(total_capacity: u64, policy: ReclaimPolicy, shards: usize) -> Self {
        Self {
            total_capacity,
            policy,
            next_id: AtomicU64::new(1),
            committed: AtomicU64::new(0),
            cells: ShardedMutex::new("storage.lot", 300, shards, |_| LotCell {
                lots: HashMap::new(),
                file_spans: HashMap::new(),
            }),
            owners: ShardedMutex::new("storage.lot.owners", 303, shards, |_| HashMap::new()),
        }
    }

    /// Stripe count.
    pub fn shards(&self) -> usize {
        self.cells.shards()
    }

    /// The cell a lot id maps to.
    fn cell_of(&self, id: LotId) -> usize {
        (id.0 % self.cells.shards() as u64) as usize
    }

    /// The cell a file path's span record maps to.
    fn cell_of_path(&self, path: &VPath) -> usize {
        self.cells.shard_for(shard_hash(path))
    }

    /// Locks the given cells in ascending index order (deduplicated).
    fn lock_cells(&self, mut idxs: Vec<usize>) -> Vec<(usize, MutexGuard<'_, LotCell>)> {
        idxs.sort_unstable();
        idxs.dedup();
        idxs.into_iter()
            .map(|i| (i, self.cells.lock_idx(i)))
            .collect()
    }

    /// Adds `id` under `key` in the owner index. Callers hold the lot's
    /// cell, so the cells → owners order (ranks 300 → 303) is preserved.
    fn owner_add(&self, key: &str, id: LotId) {
        self.owners
            .lock(shard_hash(key))
            .entry(key.to_owned())
            .or_default()
            .push(id);
    }

    /// Removes `id` under `key` in the owner index (same ordering note).
    fn owner_remove(&self, key: &str, id: LotId) {
        let mut g = self.owners.lock(shard_hash(key));
        if let Some(ids) = g.get_mut(key) {
            ids.retain(|l| *l != id);
            if ids.is_empty() {
                g.remove(key);
            }
        }
    }

    /// Total physical capacity under management.
    pub fn total_capacity(&self) -> u64 {
        self.total_capacity
    }

    /// Sum of active (unexpired) lot capacities — space that is promised.
    /// Cells are read one at a time; concurrent mutators make this a
    /// sloppy (but quiescently exact) gauge, which is all its consumers
    /// (ads, stats surfaces) need.
    pub fn guaranteed(&self, now: u64) -> u64 {
        self.cells
            .for_each_cell(|_, c| {
                c.lots
                    .values()
                    .filter(|l| !l.is_expired(now))
                    .map(|l| l.capacity)
                    .sum::<u64>()
            })
            .into_iter()
            .sum()
    }

    /// Space available for new guarantees after maximal reclamation
    /// (sloppy, like [`LotManager::guaranteed`]).
    pub fn reservable(&self, now: u64) -> u64 {
        self.total_capacity.saturating_sub(self.guaranteed(now))
    }

    /// Σ `used` over every lot, and the number of lots: one cell at a
    /// time, cloning nothing (sloppy, like [`LotManager::guaranteed`]).
    pub(crate) fn occupancy(&self) -> (u64, usize) {
        self.cells
            .for_each_cell(|_, c| (c.lots.values().map(|l| l.used).sum::<u64>(), c.lots.len()))
            .into_iter()
            .fold((0, 0), |(used, n), (u, k)| (used + u, n + k))
    }

    /// Creates a lot of `capacity` bytes lasting `duration` seconds,
    /// reclaiming best-effort lots if needed. Returns the new lot id and
    /// any evictions the caller must apply to the backend.
    ///
    /// Fast path: a CAS-add against the sloppy `committed` upper bound
    /// admits the lot touching only its own cell. The CAS runs while the
    /// cell is held, so the all-cells slow path (which excludes every
    /// cell holder) can never observe a reservation that is not yet in a
    /// cell — that is what makes its exact recomputation safe to store.
    pub fn create(
        &self,
        owner: LotOwner,
        capacity: u64,
        duration: u64,
        now: u64,
    ) -> Result<(LotId, Evicted), LotError> {
        // Monotonic id tick; uniqueness is all that is required.
        // nestlint: allow(atomic-ordering): nothing synchronizes on it
        let id = LotId(self.next_id.fetch_add(1, Ordering::Relaxed));
        {
            let mut cell = self.cells.lock_idx(self.cell_of(id));
            // `committed` is a sloppy upper bound; the cell lock held
            // across the CAS provides the ordering (see struct docs).
            // nestlint: allow(atomic-ordering): ordered by the cell lock
            let mut c = self.committed.load(Ordering::Relaxed);
            loop {
                if c.saturating_add(capacity) > self.total_capacity {
                    break; // sloppy bound says full: take the exact path
                }
                match self.committed.compare_exchange_weak(
                    c,
                    c + capacity,
                    // nestlint: allow(atomic-ordering): see the load above.
                    Ordering::Relaxed,
                    // nestlint: allow(atomic-ordering): see the load above.
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let key = owner_key(&owner);
                        cell.lots.insert(
                            id,
                            Lot {
                                id,
                                owner,
                                capacity,
                                expires_at: now.saturating_add(duration),
                                used: 0,
                                last_access: now,
                                files: BTreeMap::new(),
                            },
                        );
                        self.owner_add(&key, id);
                        cell.debug_assert_cell_invariants();
                        return Ok((id, Evicted::default()));
                    }
                    Err(v) => c = v,
                }
            }
        }
        self.create_slow(id, owner, capacity, duration, now)
    }

    /// The exact admission path: hold every cell, reclaim best-effort
    /// lots until the new one fits, and store the recomputed `committed`.
    fn create_slow(
        &self,
        id: LotId,
        owner: LotOwner,
        capacity: u64,
        duration: u64,
        now: u64,
    ) -> Result<(LotId, Evicted), LotError> {
        let mut guards: Vec<(usize, MutexGuard<'_, LotCell>)> =
            self.cells.lock_all().into_iter().enumerate().collect();
        let (active_cap, best_used) = committed_parts(&guards, now);
        // Reclaiming every best-effort lot frees at most `best_used`, so a
        // lot that would not fit even then is refused before any victim
        // is evicted: a failed creation changes nothing.
        if active_cap.saturating_add(capacity) > self.total_capacity {
            // The failed admission still knows the exact state: correct
            // the sloppy bound before reporting.
            self.committed
                // nestlint: allow(atomic-ordering): all cells held
                .store(active_cap + best_used, Ordering::Relaxed);
            return Err(LotError::InsufficientSpace {
                requested: capacity,
                available: self.total_capacity.saturating_sub(active_cap),
            });
        }
        let mut evicted = Evicted::default();
        let (active_cap, best_used) = loop {
            let (active_cap, best_used) = committed_parts(&guards, now);
            if active_cap + best_used + capacity <= self.total_capacity {
                break (active_cap, best_used);
            }
            let victim = self
                .pick_victim(&guards, now)
                .expect("a best-effort lot remains while best-effort bytes do");
            self.evict_locked(&mut guards, victim, &mut evicted);
        };
        let key = owner_key(&owner);
        cell_mut(&mut guards, self.cell_of(id)).lots.insert(
            id,
            Lot {
                id,
                owner,
                capacity,
                expires_at: now.saturating_add(duration),
                used: 0,
                last_access: now,
                files: BTreeMap::new(),
            },
        );
        self.owner_add(&key, id);
        self.committed
            // nestlint: allow(atomic-ordering): all cells held
            .store(active_cap + best_used + capacity, Ordering::Relaxed);
        self.debug_assert_invariants(&guards, now);
        Ok((id, evicted))
    }

    /// Extends a lot's duration ("users are allowed to indefinitely renew").
    /// Re-activation re-promises capacity, so this is an all-cells exact
    /// path (renewals are administrative, not per-chunk).
    pub fn renew(&self, id: LotId, extra: u64, now: u64) -> Result<(), LotError> {
        let mut guards: Vec<(usize, MutexGuard<'_, LotCell>)> =
            self.cells.lock_all().into_iter().enumerate().collect();
        // Renewing an expired lot re-activates it only if the guarantee
        // invariant still holds with its capacity re-promised.
        let mut active_cap = 0u64;
        let mut best_effort_used = 0u64;
        for (_, g) in &guards {
            for l in g.lots.values().filter(|l| l.id != id) {
                if l.is_expired(now) {
                    best_effort_used += l.used;
                } else {
                    active_cap += l.capacity;
                }
            }
        }
        let total = self.total_capacity;
        let lot = cell_mut(&mut guards, self.cell_of(id))
            .lots
            .get_mut(&id)
            .ok_or(LotError::NoSuchLot(id))?;
        if lot.is_expired(now) {
            if active_cap + best_effort_used + lot.capacity > total {
                return Err(LotError::InsufficientSpace {
                    requested: lot.capacity,
                    available: total.saturating_sub(active_cap + best_effort_used),
                });
            }
            lot.expires_at = now.saturating_add(extra);
        } else {
            lot.expires_at = lot.expires_at.saturating_add(extra);
        }
        let (a, b) = committed_parts(&guards, now);
        // nestlint: allow(atomic-ordering): all cells held
        self.committed.store(a + b, Ordering::Relaxed);
        Ok(())
    }

    /// Terminates a lot. Its files' allocations here are dropped; files
    /// whose *entire* allocation was in this lot are returned for deletion.
    /// All-cells: the lot's files may have span records anywhere, and the
    /// exact recomputation of `committed` is only safe holding every cell.
    pub fn terminate(&self, id: LotId) -> Result<Evicted, LotError> {
        let mut guards: Vec<(usize, MutexGuard<'_, LotCell>)> =
            self.cells.lock_all().into_iter().enumerate().collect();
        if !cell_mut(&mut guards, self.cell_of(id))
            .lots
            .contains_key(&id)
        {
            return Err(LotError::NoSuchLot(id));
        }
        let mut evicted = Evicted::default();
        self.evict_locked(&mut guards, id, &mut evicted);
        // No clock here, so the survivors' expiry state is unknowable —
        // but `committed` only needs to stay an upper bound, and the most
        // conservative reading treats every survivor as active (counting
        // full capacity). Recompute on that basis.
        let worst_case: u64 = guards
            .iter()
            .flat_map(|(_, g)| g.lots.values())
            .map(|l| l.capacity.max(l.used))
            .sum();
        // nestlint: allow(atomic-ordering): all cells held
        self.committed.store(worst_case, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Looks up a lot snapshot. Single-cell.
    pub fn stat(&self, id: LotId) -> Result<Lot, LotError> {
        self.cells
            .lock_idx(self.cell_of(id))
            .lots
            .get(&id)
            .cloned()
            .ok_or(LotError::NoSuchLot(id))
    }

    /// All lots usable by a user with the given group memberships.
    /// Sequential per-cell scan (listing is not a hot path).
    pub fn lots_for(&self, user: &str, groups: &std::collections::HashSet<String>) -> Vec<Lot> {
        let mut lots: Vec<Lot> = self
            .cells
            .for_each_cell(|_, c| {
                c.lots
                    .values()
                    .filter(|l| l.owner.usable_by(user, groups))
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        lots.sort_by_key(|l| l.id);
        lots
    }

    /// Charges `bytes` for `path` against the user's active lots, spanning
    /// lots when one alone cannot hold the file (paper: "a file may span
    /// multiple lots if it cannot fit within a single one"). Returns the
    /// lots charged, whose `last_access` the charge also stamped.
    ///
    /// Locks only the cells holding the user's candidate lots plus the
    /// path's span cell (ascending); the owner index is read and released
    /// *before* any cell is taken, and candidates are re-validated under
    /// the cell locks, so a lot terminated in between is simply skipped.
    pub fn charge_file(
        &self,
        user: &str,
        groups: &std::collections::HashSet<String>,
        path: &VPath,
        bytes: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        // Candidate ids from the owner index, guard dropped before any
        // cell lock (cells → owners is the only permitted nesting).
        let mut candidates: Vec<LotId> = Vec::new();
        {
            let ukey = format!("user:{}", user);
            if let Some(ids) = self.owners.lock(shard_hash(&ukey)).get(&ukey) {
                candidates.extend_from_slice(ids);
            }
        }
        for g in groups {
            let gkey = format!("group:{}", g);
            if let Some(ids) = self.owners.lock(shard_hash(&gkey)).get(&gkey) {
                candidates.extend_from_slice(ids);
            }
        }
        candidates.sort();
        candidates.dedup();

        let pidx = self.cell_of_path(path);
        let mut needed: Vec<usize> = candidates.iter().map(|id| self.cell_of(*id)).collect();
        needed.push(pidx);
        let mut guards = self.lock_cells(needed);

        // Re-validate under the cell locks.
        let mut usable: Vec<LotId> = Vec::new();
        let mut any: Option<LotId> = None;
        for id in &candidates {
            if let Some(lot) = cell_ref(&guards, self.cell_of(*id)).lots.get(id) {
                if lot.owner.usable_by(user, groups) {
                    any = Some(any.map_or(*id, |a| a.min(*id)));
                    if !lot.is_expired(now) {
                        usable.push(*id);
                    }
                }
            }
        }
        if usable.is_empty() {
            return Err(match any {
                // Only expired lots remain; writes are refused.
                Some(id) => LotError::Expired(id),
                None => LotError::NoLot(user.to_owned()),
            });
        }
        let available: u64 = usable
            .iter()
            .map(|id| cell_ref(&guards, self.cell_of(*id)).lots[id].free())
            .sum();
        if bytes > available {
            return Err(LotError::InsufficientSpace {
                requested: bytes,
                available,
            });
        }
        // Greedy span across lots in id order.
        let mut remaining = bytes;
        let mut charged: Vec<LotId> = Vec::new();
        for id in usable {
            if remaining == 0 {
                break;
            }
            let idx = self.cell_of(id);
            let lot = cell_mut(&mut guards, idx).lots.get_mut(&id).unwrap();
            let take = lot.free().min(remaining);
            if take == 0 {
                continue;
            }
            lot.used += take;
            lot.last_access = now;
            *lot.files.entry(path.clone()).or_insert(0) += take;
            remaining -= take;
            charged.push(id);
        }
        debug_assert_eq!(remaining, 0);
        let spans = cell_mut(&mut guards, pidx)
            .file_spans
            .entry(path.clone())
            .or_default();
        for id in &charged {
            if !spans.contains(id) {
                spans.push(*id);
            }
        }
        for (_, g) in &guards {
            g.debug_assert_cell_invariants();
        }
        Ok(charged)
    }

    /// Releases all of a file's charges (on delete or truncate-to-zero).
    /// Returns the number of bytes released.
    ///
    /// Optimistic cross-cell protocol: peek the span under the path's
    /// cell alone, then lock the full needed set (ascending) and
    /// re-verify — if a concurrent charge widened the span, widen the
    /// lock set and retry.
    pub fn release_file(&self, path: &VPath) -> u64 {
        let pidx = self.cell_of_path(path);
        let mut needed: Vec<usize> = {
            let g = self.cells.lock_idx(pidx);
            let Some(span) = g.file_spans.get(path) else {
                return 0;
            };
            let mut n: Vec<usize> = span.iter().map(|id| self.cell_of(*id)).collect();
            n.push(pidx);
            n.sort_unstable();
            n.dedup();
            n
        };
        loop {
            let mut guards = self.lock_cells(needed.clone());
            let Some(span) = cell_ref(&guards, pidx).file_spans.get(path) else {
                return 0;
            };
            let mut now_needed: Vec<usize> = span.iter().map(|id| self.cell_of(*id)).collect();
            now_needed.push(pidx);
            now_needed.sort_unstable();
            now_needed.dedup();
            if now_needed.iter().any(|i| !needed.contains(i)) {
                needed = now_needed;
                continue; // guards drop; retry with the wider set
            }
            let released = self.unfile_locked(&mut guards, path);
            // Releasing a span must leave every touched lot conserving
            // bytes (the expiry-dependent guarantee check needs a clock
            // and is re-verified on the next exact-path operation).
            for (_, g) in &guards {
                g.debug_assert_cell_invariants();
            }
            return released;
        }
    }

    /// Records an access to the lots backing `path` (for LRU reclamation).
    /// Advisory: the span is peeked under the path cell and each backing
    /// cell is updated one at a time.
    pub fn touch_file(&self, path: &VPath, now: u64) {
        let span = {
            let g = self.cells.lock_idx(self.cell_of_path(path));
            match g.file_spans.get(path) {
                Some(s) => s.clone(),
                None => return,
            }
        };
        let mut by_cell: Vec<usize> = span.iter().map(|id| self.cell_of(*id)).collect();
        by_cell.sort_unstable();
        by_cell.dedup();
        for idx in by_cell {
            let mut g = self.cells.lock_idx(idx);
            for id in span.iter().filter(|id| self.cell_of(**id) == idx) {
                if let Some(lot) = g.lots.get_mut(id) {
                    lot.last_access = now;
                }
            }
        }
    }

    /// The bytes charged to `path` across its lots, and whether any
    /// unexpired lot backs it. Per-chunk on the write path, so it clones
    /// no lot: like [`LotManager::touch_file`], the span is peeked under
    /// the path cell and each backing lot is read under its own cell.
    pub fn file_charge(&self, path: &VPath, now: u64) -> (u64, bool) {
        let span = match self
            .cells
            .lock_idx(self.cell_of_path(path))
            .file_spans
            .get(path)
        {
            Some(s) => s.clone(),
            None => return (0, false),
        };
        let mut bytes = 0;
        let mut guaranteed = false;
        for id in span {
            if let Some(lot) = self.cells.lock_idx(self.cell_of(id)).lots.get(&id) {
                if let Some(b) = lot.files.get(path) {
                    bytes += b;
                    guaranteed |= !lot.is_expired(now);
                }
            }
        }
        (bytes, guaranteed)
    }

    /// Snapshot of every lot, for ad publication and `lot_list`.
    /// Sequential per-cell collection.
    pub fn all_lots(&self) -> Vec<Lot> {
        let mut lots: Vec<Lot> = self
            .cells
            .for_each_cell(|_, c| c.lots.values().cloned().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect();
        lots.sort_by_key(|l| l.id);
        lots
    }

    // -- persistence ---------------------------------------------------------

    /// Serializes the lot table to a line format for persistence:
    ///
    /// ```text
    /// lot <id> <user|group> <name> <capacity> <expires> <last_access>
    /// file <lot-id> <bytes> <path>
    /// ```
    ///
    /// Reservations must survive appliance restarts for the guarantee to
    /// mean anything; the paper got this for free from kernel quotas.
    pub fn snapshot(&self) -> String {
        // All cells held (ascending) so the snapshot is a consistent cut.
        let guards = self.cells.lock_all();
        let mut lots: Vec<&Lot> = guards.iter().flat_map(|g| g.lots.values()).collect();
        lots.sort_by_key(|l| l.id);
        let mut out = String::new();
        for lot in lots {
            write_lot_line(&mut out, lot);
            for (path, bytes) in &lot.files {
                let _ = writeln!(out, "file {} {} {}", lot.id.0, bytes, path);
            }
        }
        out
    }

    /// Renders the *current* state of `keys` in the snapshot's grammar
    /// plus two tombstones — the payload of one lot-journal record:
    ///
    /// ```text
    /// -lot <id>          the lot is gone, with every charge it held
    /// unfile <path>      drop every charge of the path; then, per charge,
    /// lot …              the backing lot's header (an upsert that keeps
    /// file <lot> <b> <p> its files) and the charge itself
    /// ```
    ///
    /// A path's record is rendered under its span cell and every backing
    /// lot's cell at once, so it is one consistent state of that path.
    /// A lot header already written for a path key is not repeated.
    pub fn render_keys(&self, keys: &[LotKey<'_>], out: &mut String) {
        let mut headers = Vec::new();
        for key in keys {
            match *key {
                LotKey::Lot(id) if headers.contains(&id) => {}
                LotKey::Lot(id) => match self.cells.lock_idx(self.cell_of(id)).lots.get(&id) {
                    Some(lot) => write_lot_line(out, lot),
                    None => {
                        let _ = writeln!(out, "-lot {}", id.0);
                    }
                },
                LotKey::Path(path) => self.render_path(path, out, &mut headers),
            }
        }
    }

    fn render_path(&self, path: &VPath, out: &mut String, headers: &mut Vec<LotId>) {
        let pidx = self.cell_of_path(path);
        let mut needed = vec![pidx];
        loop {
            let guards = self.lock_cells(needed.clone());
            let span = cell_ref(&guards, pidx)
                .file_spans
                .get(path)
                .cloned()
                .unwrap_or_default();
            let mut want: Vec<usize> = span.iter().map(|id| self.cell_of(*id)).collect();
            want.push(pidx);
            if want.iter().any(|i| !needed.contains(i)) {
                needed = want;
                continue; // guards drop; retry holding the span's cells too
            }
            let _ = writeln!(out, "unfile {path}");
            for id in span {
                let Some(lot) = cell_ref(&guards, self.cell_of(id)).lots.get(&id) else {
                    continue;
                };
                if let Some(bytes) = lot.files.get(path) {
                    write_lot_line(out, lot);
                    headers.push(id);
                    let _ = writeln!(out, "file {} {} {}", id.0, bytes, path);
                }
            }
            return;
        }
    }

    /// Rebuilds a manager from a [`LotManager::snapshot`], optionally
    /// followed by lot-journal payloads ([`LotManager::render_keys`]):
    /// one parser replays the lines in order. Unparseable lines are
    /// skipped (a corrupt line must not brick the appliance). Charges are
    /// replayed unchecked, since a journal may carry a path's new charge
    /// before another path's release that made room for it; a lot still
    /// over capacity at the end keeps its files in path order while they
    /// fit. Lots that would violate the guarantee invariant against
    /// `total_capacity` *as of `now`* are dropped (expired lots count only
    /// their stored bytes, exactly as in the live invariant).
    pub fn restore(text: &str, total_capacity: u64, policy: ReclaimPolicy, now: u64) -> Self {
        Self::restore_with_shards(text, total_capacity, policy, now, DEFAULT_LOT_SHARDS)
    }

    /// [`LotManager::restore`] with an explicit stripe count.
    pub fn restore_with_shards(
        text: &str,
        total_capacity: u64,
        policy: ReclaimPolicy,
        now: u64,
        shards: usize,
    ) -> Self {
        let manager = Self::with_shards(total_capacity, policy, shards);
        {
            let mut guards: Vec<(usize, MutexGuard<'_, LotCell>)> =
                manager.cells.lock_all().into_iter().enumerate().collect();
            let mut max_id = 0u64;
            for line in text.lines() {
                match parse_line(line) {
                    Some(Line::Lot(lot)) => {
                        max_id = max_id.max(lot.id.0);
                        manager.upsert_locked(&mut guards, lot);
                    }
                    Some(Line::DropLot(id)) => {
                        max_id = max_id.max(id.0);
                        manager.drop_lot_locked(&mut guards, id);
                    }
                    Some(Line::File(id, bytes, path)) => {
                        manager.charge_locked(&mut guards, id, bytes, path);
                    }
                    Some(Line::Unfile(path)) => {
                        manager.unfile_locked(&mut guards, &path);
                    }
                    None => {}
                }
            }
            manager.trim_overfull_locked(&mut guards);
            // Enforce the guarantee invariant: drop newest lots until the
            // snapshot fits the (possibly reduced) capacity.
            loop {
                let (active_cap, best_used) = committed_parts(&guards, now);
                if active_cap + best_used <= total_capacity {
                    manager
                        .committed
                        // nestlint: allow(atomic-ordering): restore is single-threaded
                        .store(active_cap + best_used, Ordering::Relaxed);
                    break;
                }
                let victim = guards
                    .iter()
                    .flat_map(|(_, g)| g.lots.keys())
                    .max()
                    .copied();
                match victim {
                    Some(id) => {
                        let mut ev = Evicted::default();
                        manager.evict_locked(&mut guards, id, &mut ev);
                    }
                    None => break,
                }
            }
            // nestlint: allow(atomic-ordering): restore is single-threaded
            manager.next_id.store(max_id + 1, Ordering::Relaxed);
        }
        manager
    }

    /// Replays a `lot` line: inserts the lot, or updates an existing
    /// lot's header and keeps its files. Caller holds every cell.
    fn upsert_locked(&self, guards: &mut [(usize, MutexGuard<'_, LotCell>)], lot: Lot) {
        let id = lot.id;
        let cell = cell_mut(guards, self.cell_of(id));
        match cell.lots.get_mut(&id) {
            Some(old) => {
                old.capacity = lot.capacity;
                old.expires_at = lot.expires_at;
                old.last_access = lot.last_access;
            }
            None => {
                let key = owner_key(&lot.owner);
                cell.lots.insert(id, lot);
                self.owner_add(&key, id);
            }
        }
    }

    /// Replays `-lot <id>`: removes the lot and every charge it held
    /// (other lots' charges of the same paths stay). Caller holds every
    /// cell.
    fn drop_lot_locked(&self, guards: &mut [(usize, MutexGuard<'_, LotCell>)], id: LotId) {
        let Some(lot) = cell_mut(guards, self.cell_of(id)).lots.remove(&id) else {
            return;
        };
        self.owner_remove(&owner_key(&lot.owner), id);
        for path in lot.files.keys() {
            self.unspan_locked(guards, path, id);
        }
    }

    /// Removes lot `id` from `path`'s span, and the span once it is empty.
    fn unspan_locked(
        &self,
        guards: &mut [(usize, MutexGuard<'_, LotCell>)],
        path: &VPath,
        id: LotId,
    ) {
        let spans = &mut cell_mut(guards, self.cell_of_path(path)).file_spans;
        if let Some(span) = spans.get_mut(path) {
            span.retain(|l| *l != id);
            if span.is_empty() {
                spans.remove(path);
            }
        }
    }

    /// Replays a `file` line: adds the charge to an existing lot, with no
    /// capacity check (see [`LotManager::restore`]). Caller holds every
    /// cell.
    fn charge_locked(
        &self,
        guards: &mut [(usize, MutexGuard<'_, LotCell>)],
        id: LotId,
        bytes: u64,
        path: VPath,
    ) {
        let Some(lot) = cell_mut(guards, self.cell_of(id)).lots.get_mut(&id) else {
            return;
        };
        lot.used = lot.used.saturating_add(bytes);
        let charge = lot.files.entry(path.clone()).or_insert(0);
        *charge = charge.saturating_add(bytes);
        let span = cell_mut(guards, self.cell_of_path(&path))
            .file_spans
            .entry(path)
            .or_default();
        if !span.contains(&id) {
            span.push(id);
        }
    }

    /// Drops every charge of `path` and returns the bytes released. Caller
    /// holds the path's cell and every cell its span touches.
    fn unfile_locked(&self, guards: &mut [(usize, MutexGuard<'_, LotCell>)], path: &VPath) -> u64 {
        let Some(span) = cell_mut(guards, self.cell_of_path(path))
            .file_spans
            .remove(path)
        else {
            return 0;
        };
        let mut released = 0;
        for id in span {
            if let Some(lot) = cell_mut(guards, self.cell_of(id)).lots.get_mut(&id) {
                if let Some(bytes) = lot.files.remove(path) {
                    lot.used = lot.used.saturating_sub(bytes);
                    released += bytes;
                }
            }
        }
        released
    }

    /// A replayed lot left over its capacity keeps its files in path
    /// order while they fit; the rest lose their charge in it. Caller
    /// holds every cell.
    fn trim_overfull_locked(&self, guards: &mut [(usize, MutexGuard<'_, LotCell>)]) {
        let mut overflow: Vec<(LotId, Vec<VPath>)> = Vec::new();
        for (_, g) in guards.iter() {
            for lot in g.lots.values().filter(|l| l.used > l.capacity) {
                let mut kept = 0u64;
                let mut dropped = Vec::new();
                for (path, bytes) in &lot.files {
                    match kept.checked_add(*bytes).filter(|k| *k <= lot.capacity) {
                        Some(k) => kept = k,
                        None => dropped.push(path.clone()),
                    }
                }
                overflow.push((lot.id, dropped));
            }
        }
        for (id, paths) in overflow {
            for path in paths {
                let lot = cell_mut(guards, self.cell_of(id))
                    .lots
                    .get_mut(&id)
                    .expect("collected from a held cell");
                let bytes = lot.files.remove(&path).unwrap_or(0);
                lot.used = lot.used.saturating_sub(bytes);
                self.unspan_locked(guards, &path, id);
            }
        }
    }

    /// Reclamation victim per policy, across every (held) cell.
    fn pick_victim(&self, guards: &[(usize, MutexGuard<'_, LotCell>)], now: u64) -> Option<LotId> {
        let candidates: Vec<&Lot> = guards
            .iter()
            .flat_map(|(_, g)| g.lots.values())
            .filter(|l| l.is_expired(now))
            .collect();
        match self.policy {
            ReclaimPolicy::ExpiredFirst => candidates
                .iter()
                .min_by_key(|l| (l.expires_at, l.id))
                .map(|l| l.id),
            ReclaimPolicy::LargestFirst => candidates
                .iter()
                .max_by_key(|l| (l.used, std::cmp::Reverse(l.id)))
                .map(|l| l.id),
            ReclaimPolicy::Lru => candidates
                .iter()
                .min_by_key(|l| (l.last_access, l.id))
                .map(|l| l.id),
        }
    }

    /// Evicts a lot. Caller holds **every** cell (a lot's files may have
    /// span records in any of them).
    fn evict_locked(
        &self,
        guards: &mut [(usize, MutexGuard<'_, LotCell>)],
        id: LotId,
        evicted: &mut Evicted,
    ) {
        let Some(lot) = cell_mut(guards, self.cell_of(id)).lots.remove(&id) else {
            return;
        };
        self.owner_remove(&owner_key(&lot.owner), id);
        evicted.lots.push(id);
        for (path, _bytes) in lot.files {
            // Remove this lot from the file's span; if it was the file's
            // only backing, the file loses its guarantee and is deleted.
            let pidx = self.cell_of_path(&path);
            let remaining = {
                let pc = cell_mut(guards, pidx);
                match pc.file_spans.get_mut(&path) {
                    None => continue,
                    Some(span) => {
                        span.retain(|l| *l != id);
                        span.clone()
                    }
                }
            };
            if remaining.is_empty() {
                cell_mut(guards, pidx).file_spans.remove(&path);
                evicted.files.push(path);
            } else {
                // Partially backed file: remaining spans keep their
                // bytes; the evicted portion is gone. Physical
                // truncation is the storage manager's job; we surface
                // the file as evicted so it is handled conservatively.
                evicted.files.push(path.clone());
                // Drop the file's remaining charges too: a partially
                // deleted file is useless.
                let rest = cell_mut(guards, pidx)
                    .file_spans
                    .remove(&path)
                    .unwrap_or_default();
                for other in rest {
                    if let Some(l) = cell_mut(guards, self.cell_of(other)).lots.get_mut(&other) {
                        if let Some(b) = l.files.remove(&path) {
                            l.used = l.used.saturating_sub(b);
                        }
                    }
                }
            }
        }
    }

    /// The full invariant suite; caller holds every cell.
    fn debug_assert_invariants(&self, guards: &[(usize, MutexGuard<'_, LotCell>)], now: u64) {
        if nest_check::enforcing() {
            let (active_cap, best_used) = committed_parts(guards, now);
            nest_check::invariant!(
                active_cap + best_used <= self.total_capacity,
                "lot guarantee: active capacity {} + best-effort used {} > total {}",
                active_cap,
                best_used,
                self.total_capacity
            );
            for (_, g) in guards {
                g.debug_assert_cell_invariants();
            }
        }
    }
}

/// (Σ active capacities, Σ best-effort used) across the held cells.
fn committed_parts(guards: &[(usize, MutexGuard<'_, LotCell>)], now: u64) -> (u64, u64) {
    let mut active_cap = 0u64;
    let mut best_used = 0u64;
    for (_, g) in guards {
        for l in g.lots.values() {
            if l.is_expired(now) {
                best_used += l.used;
            } else {
                active_cap += l.capacity;
            }
        }
    }
    (active_cap, best_used)
}

/// Appends a lot's header line: `lot <id> <user|group> <name> <capacity>
/// <expires> <last_access>`.
fn write_lot_line(out: &mut String, lot: &Lot) {
    let (kind, name) = match &lot.owner {
        LotOwner::User(u) => ("user", u),
        LotOwner::Group(g) => ("group", g),
    };
    let _ = writeln!(
        out,
        "lot {} {} {} {} {} {}",
        lot.id.0, kind, name, lot.capacity, lot.expires_at, lot.last_access
    );
}

/// One line of the lot-table grammar ([`LotManager::render_keys`]).
enum Line {
    Lot(Lot),
    DropLot(LotId),
    File(LotId, u64, VPath),
    Unfile(VPath),
}

fn parse_line(line: &str) -> Option<Line> {
    if let Some(path) = line.strip_prefix("unfile ") {
        return VPath::parse(path).ok().map(Line::Unfile);
    }
    if let Some(rest) = line.strip_prefix("file ") {
        // The path is the remainder, spaces and all.
        let mut it = rest.splitn(3, ' ');
        let id = LotId(it.next()?.parse().ok()?);
        let bytes = it.next()?.parse().ok()?;
        return Some(Line::File(id, bytes, VPath::parse(it.next()?).ok()?));
    }
    if let Some(id) = line.strip_prefix("-lot ") {
        return Some(Line::DropLot(LotId(id.parse().ok()?)));
    }
    let mut it = line.strip_prefix("lot ")?.split_whitespace();
    let id = LotId(it.next()?.parse().ok()?);
    let kind = it.next()?;
    let name = it.next()?.to_owned();
    let owner = match kind {
        "user" => LotOwner::User(name),
        "group" => LotOwner::Group(name),
        _ => return None,
    };
    Some(Line::Lot(Lot {
        id,
        owner,
        capacity: it.next()?.parse().ok()?,
        expires_at: it.next()?.parse().ok()?,
        used: 0,
        last_access: it.next()?.parse().ok()?,
        files: BTreeMap::new(),
    }))
}

/// The guard for cell `idx` in a held (index, guard) set, mutably.
fn cell_mut<'a, 'g>(
    guards: &'a mut [(usize, MutexGuard<'g, LotCell>)],
    idx: usize,
) -> &'a mut LotCell {
    &mut guards
        .iter_mut()
        .find(|(i, _)| *i == idx)
        .expect("cell locked")
        .1
}

/// The guard for cell `idx` in a held (index, guard) set, shared.
fn cell_ref<'a, 'g>(guards: &'a [(usize, MutexGuard<'g, LotCell>)], idx: usize) -> &'a LotCell {
    &guards
        .iter()
        .find(|(i, _)| *i == idx)
        .expect("cell locked")
        .1
}

impl LotCell {
    /// Byte conservation for every lot in this cell: committed bytes
    /// equal the sum of per-file charges, and never exceed capacity.
    /// (The global guarantee inequality needs every cell and a clock; it
    /// is checked on the all-cells paths.)
    fn debug_assert_cell_invariants(&self) {
        if nest_check::enforcing() {
            for lot in self.lots.values() {
                nest_check::invariant!(
                    lot.used <= lot.capacity,
                    "lot {} used {} exceeds capacity {}",
                    lot.id,
                    lot.used,
                    lot.capacity
                );
                let file_sum: u64 = lot.files.values().sum();
                nest_check::invariant!(
                    lot.used == file_sum,
                    "lot {} byte conservation: used {} != sum(file charges) {}",
                    lot.id,
                    lot.used,
                    file_sum
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn no_groups() -> HashSet<String> {
        HashSet::new()
    }

    fn user(name: &str) -> LotOwner {
        LotOwner::User(name.to_owned())
    }

    #[test]
    fn create_within_capacity() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (a, ev) = lm.create(user("alice"), 400, 100, 0).unwrap();
        assert!(ev.lots.is_empty());
        let (b, _) = lm.create(user("bob"), 600, 100, 0).unwrap();
        assert_ne!(a, b);
        assert_eq!(lm.guaranteed(0), 1000);
        assert_eq!(lm.reservable(0), 0);
    }

    #[test]
    fn create_beyond_capacity_fails() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        lm.create(user("a"), 800, 100, 0).unwrap();
        match lm.create(user("b"), 300, 100, 0) {
            Err(LotError::InsufficientSpace {
                requested: 300,
                available: 200,
            }) => {}
            other => panic!("unexpected: {:?}", other),
        }
    }

    #[test]
    fn charge_and_release_file() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (id, _) = lm.create(user("alice"), 500, 100, 0).unwrap();
        lm.charge_file("alice", &no_groups(), &vp("/f"), 200, 1)
            .unwrap();
        assert_eq!(lm.stat(id).unwrap().used, 200);
        assert_eq!(lm.release_file(&vp("/f")), 200);
        assert_eq!(lm.stat(id).unwrap().used, 0);
        // Double release is a no-op.
        assert_eq!(lm.release_file(&vp("/f")), 0);
    }

    #[test]
    fn file_spans_multiple_lots() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (a, _) = lm.create(user("alice"), 300, 100, 0).unwrap();
        let (b, _) = lm.create(user("alice"), 300, 100, 0).unwrap();
        // 500 bytes does not fit in either lot alone.
        lm.charge_file("alice", &no_groups(), &vp("/big"), 500, 1)
            .unwrap();
        assert_eq!(lm.stat(a).unwrap().used, 300);
        assert_eq!(lm.stat(b).unwrap().used, 200);
        assert_eq!(lm.release_file(&vp("/big")), 500);
    }

    #[test]
    fn overfull_single_lot_rejected_even_with_spare_elsewhere() {
        // The paper's noted quota-implementation caveat does NOT apply to
        // NeST-managed lots: spanning handles it. But a user with no active
        // lot capacity at all must be refused.
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        lm.create(user("alice"), 100, 100, 0).unwrap();
        match lm.charge_file("alice", &no_groups(), &vp("/f"), 150, 1) {
            Err(LotError::InsufficientSpace {
                requested: 150,
                available: 100,
            }) => {}
            other => panic!("unexpected: {:?}", other),
        }
    }

    #[test]
    fn no_lot_no_write() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        match lm.charge_file("ghost", &no_groups(), &vp("/f"), 1, 0) {
            Err(LotError::NoLot(u)) => assert_eq!(u, "ghost"),
            other => panic!("unexpected: {:?}", other),
        }
    }

    #[test]
    fn expired_lot_refuses_writes_but_keeps_files() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (id, _) = lm.create(user("alice"), 500, 10, 0).unwrap();
        lm.charge_file("alice", &no_groups(), &vp("/f"), 100, 1)
            .unwrap();
        // Past expiry: writes fail, data still accounted.
        match lm.charge_file("alice", &no_groups(), &vp("/g"), 1, 11) {
            Err(LotError::Expired(e)) => assert_eq!(e, id),
            other => panic!("unexpected: {:?}", other),
        }
        assert_eq!(lm.stat(id).unwrap().used, 100);
    }

    #[test]
    fn best_effort_space_reclaimed_for_new_lot() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (old, _) = lm.create(user("alice"), 900, 10, 0).unwrap();
        lm.charge_file("alice", &no_groups(), &vp("/old"), 900, 1)
            .unwrap();
        // At t=20 the lot is best-effort; its 900 bytes linger...
        assert_eq!(lm.stat(old).unwrap().used, 900);
        // ...until bob needs a 500-byte guarantee.
        let (_, evicted) = lm.create(user("bob"), 500, 100, 20).unwrap();
        assert_eq!(evicted.lots, vec![old]);
        assert_eq!(evicted.files, vec![vp("/old")]);
        assert!(lm.stat(old).is_err());
    }

    #[test]
    fn expired_lot_untouched_when_space_suffices() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (old, _) = lm.create(user("alice"), 300, 10, 0).unwrap();
        lm.charge_file("alice", &no_groups(), &vp("/keep"), 300, 1)
            .unwrap();
        let (_, evicted) = lm.create(user("bob"), 500, 100, 20).unwrap();
        assert!(evicted.lots.is_empty());
        assert_eq!(lm.stat(old).unwrap().used, 300);
    }

    #[test]
    fn reclaim_policy_largest_first() {
        let lm = LotManager::new(1000, ReclaimPolicy::LargestFirst);
        let (small, _) = lm.create(user("a"), 200, 10, 0).unwrap();
        let (big, _) = lm.create(user("b"), 700, 10, 0).unwrap();
        lm.charge_file("a", &no_groups(), &vp("/s"), 100, 1)
            .unwrap();
        lm.charge_file("b", &no_groups(), &vp("/b"), 600, 1)
            .unwrap();
        // Both expired at t=20. Need 400: evicting the largest (600) is
        // enough; the small one survives.
        let (_, ev) = lm.create(user("c"), 400, 100, 20).unwrap();
        assert_eq!(ev.lots, vec![big]);
        assert!(lm.stat(small).is_ok());
    }

    #[test]
    fn reclaim_policy_lru() {
        let lm = LotManager::new(1000, ReclaimPolicy::Lru);
        let (a, _) = lm.create(user("a"), 450, 10, 0).unwrap();
        let (b, _) = lm.create(user("b"), 450, 10, 0).unwrap();
        lm.charge_file("a", &no_groups(), &vp("/a"), 450, 1)
            .unwrap();
        lm.charge_file("b", &no_groups(), &vp("/b"), 450, 2)
            .unwrap();
        // Touch a's file later: b becomes the LRU victim.
        lm.touch_file(&vp("/a"), 5);
        let (_, ev) = lm.create(user("c"), 400, 100, 20).unwrap();
        assert_eq!(ev.lots, vec![b]);
        assert!(lm.stat(a).is_ok());
    }

    #[test]
    fn renew_extends_active_and_reactivates_expired() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (id, _) = lm.create(user("a"), 500, 10, 0).unwrap();
        lm.renew(id, 10, 5).unwrap();
        assert_eq!(lm.stat(id).unwrap().expires_at, 20);
        // Expired at t=30; renewal re-activates since space is free.
        lm.renew(id, 50, 30).unwrap();
        assert_eq!(lm.stat(id).unwrap().expires_at, 80);
        assert!(!lm.stat(id).unwrap().is_expired(40));
    }

    #[test]
    fn renew_expired_fails_when_space_promised_away() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (old, _) = lm.create(user("a"), 600, 10, 0).unwrap();
        // old expires; bob grabs the space.
        lm.create(user("b"), 600, 100, 20).unwrap();
        match lm.renew(old, 100, 21) {
            Err(LotError::InsufficientSpace { .. }) => {}
            other => panic!("unexpected: {:?}", other),
        }
    }

    #[test]
    fn terminate_returns_files_for_deletion() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (id, _) = lm.create(user("a"), 500, 100, 0).unwrap();
        lm.charge_file("a", &no_groups(), &vp("/f1"), 100, 1)
            .unwrap();
        lm.charge_file("a", &no_groups(), &vp("/f2"), 100, 1)
            .unwrap();
        let ev = lm.terminate(id).unwrap();
        assert_eq!(ev.lots, vec![id]);
        let mut files = ev.files.clone();
        files.sort();
        assert_eq!(files, vec![vp("/f1"), vp("/f2")]);
        assert!(matches!(lm.terminate(id), Err(LotError::NoSuchLot(_))));
    }

    #[test]
    fn group_lot_usable_by_members() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        lm.create(LotOwner::Group("wind".into()), 500, 100, 0)
            .unwrap();
        let mut groups = HashSet::new();
        groups.insert("wind".to_owned());
        lm.charge_file("alice", &groups, &vp("/shared"), 100, 1)
            .unwrap();
        // Non-member refused.
        match lm.charge_file("mallory", &no_groups(), &vp("/x"), 1, 1) {
            Err(LotError::NoLot(_)) => {}
            other => panic!("unexpected: {:?}", other),
        }
    }

    #[test]
    fn spanned_file_fully_dropped_when_one_backing_lot_evicted() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (a, _) = lm.create(user("u"), 300, 10, 0).unwrap();
        let (_b, _) = lm.create(user("u"), 300, 1000, 0).unwrap();
        lm.charge_file("u", &no_groups(), &vp("/span"), 500, 1)
            .unwrap();
        // Lot a expires; creating a big new lot must evict it, and the
        // spanned file is surfaced for deletion with all charges dropped.
        let (_, ev) = lm.create(user("v"), 500, 100, 20).unwrap();
        assert_eq!(ev.lots, vec![a]);
        assert_eq!(ev.files, vec![vp("/span")]);
        assert_eq!(lm.release_file(&vp("/span")), 0);
    }

    #[test]
    fn explicit_shard_counts_preserve_semantics() {
        // The same scenario must behave identically at 1 shard (the
        // ablation) and at a count that forces cross-cell spans.
        for shards in [1usize, 4] {
            let lm = LotManager::with_shards(1000, ReclaimPolicy::ExpiredFirst, shards);
            assert_eq!(lm.shards(), shards);
            let (a, _) = lm.create(user("u"), 300, 100, 0).unwrap();
            let (b, _) = lm.create(user("u"), 300, 100, 0).unwrap();
            // Ids 1 and 2 land in different cells at 4 shards; the span
            // crosses them.
            lm.charge_file("u", &no_groups(), &vp("/big"), 500, 1)
                .unwrap();
            assert_eq!(lm.stat(a).unwrap().used, 300);
            assert_eq!(lm.stat(b).unwrap().used, 200);
            assert_eq!(lm.release_file(&vp("/big")), 500);
            assert_eq!(lm.stat(a).unwrap().used, 0);
            assert_eq!(lm.guaranteed(1), 600);
        }
    }

    #[test]
    fn concurrent_create_terminate_never_overcommits() {
        use std::sync::Arc;
        let lm = Arc::new(LotManager::with_shards(
            1000,
            ReclaimPolicy::ExpiredFirst,
            4,
        ));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    // 8 threads × 100 bytes ≤ 1000: admission must never
                    // spuriously fail (the sloppy bound may divert to the
                    // exact path, but the exact path must admit).
                    let (id, _) = lm.create(user(&format!("u{}", t)), 100, 100, 0).unwrap();
                    lm.terminate(id).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.all_lots().len(), 0);
        assert_eq!(lm.reservable(0), 1000);
        // The sloppy bound self-corrects on the exact paths: a full-size
        // lot is admissible again after the churn.
        let (id, _) = lm.create(user("final"), 1000, 100, 0).unwrap();
        lm.terminate(id).unwrap();
    }

    #[test]
    fn lots_for_lists_in_id_order() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (a, _) = lm.create(user("u"), 100, 100, 0).unwrap();
        let (b, _) = lm.create(user("u"), 100, 100, 0).unwrap();
        lm.create(user("other"), 100, 100, 0).unwrap();
        let mine = lm.lots_for("u", &no_groups());
        assert_eq!(mine.iter().map(|l| l.id).collect::<Vec<_>>(), vec![a, b]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `file_charge` and `occupancy` agree with the whole-table folds
        /// they replaced after every op of a create / charge / release /
        /// renew / terminate / expire / restore sequence, striped and not.
        #[test]
        fn file_charge_matches_the_all_lots_fold(
            ops in prop::collection::vec((0u8..7, 0usize..4, 1u64..300), 1..60),
        ) {
            let paths: Vec<VPath> = (0..4).map(|i| vp(&format!("/f{i}"))).collect();
            for shards in [1usize, 8] {
                let policy = ReclaimPolicy::ExpiredFirst;
                let mut lm = LotManager::with_shards(2000, policy, shards);
                let mut now = 0u64;
                for &(op, i, n) in &ops {
                    let who = ["u0", "u1"][i % 2];
                    let nth = lm.all_lots().get(i).map(|l| l.id);
                    match (op, nth) {
                        (0, _) => {
                            let _ = lm.create(user(who), n * 2, n / 4 + 1, now);
                        }
                        (1, _) => {
                            let _ = lm.charge_file(who, &no_groups(), &paths[i], n, now);
                        }
                        (2, _) => {
                            lm.release_file(&paths[i]);
                        }
                        (3, Some(id)) => {
                            let _ = lm.renew(id, n, now);
                        }
                        (4, Some(id)) => {
                            let _ = lm.terminate(id);
                        }
                        (5, _) => now += n / 4,
                        (6, _) => {
                            let snap = lm.snapshot();
                            lm = LotManager::restore_with_shards(&snap, 2000, policy, now, shards);
                        }
                        _ => {}
                    }
                    // The references: the folds over every cloned lot.
                    let lots = lm.all_lots();
                    prop_assert_eq!(
                        lm.occupancy(),
                        (lots.iter().map(|l| l.used).sum::<u64>(), lots.len())
                    );
                    for path in &paths {
                        let bytes = lots.iter().filter_map(|l| l.files.get(path)).sum();
                        let backed = lots
                            .iter()
                            .any(|l| !l.is_expired(now) && l.files.contains_key(path));
                        prop_assert_eq!(
                            lm.file_charge(path, now),
                            (bytes, backed),
                            "{} at {} shards after op {}", path, shards, op
                        );
                    }
                }
            }
        }

        /// Replaying a snapshot plus the records of every later mutation,
        /// each rendered from live state for the keys it touched, rebuilds
        /// the live table byte for byte — through spans, evictions,
        /// terminations and expiry.
        #[test]
        fn journal_replay_matches_live_state(
            ops in prop::collection::vec((0u8..6, 0usize..4, 1u64..300), 1..60),
        ) {
            let paths: Vec<VPath> = (0..4).map(|i| vp(&format!("/f{i}"))).collect();
            for shards in [1usize, 8] {
                let lm = LotManager::with_shards(2000, ReclaimPolicy::Lru, shards);
                lm.create(user("u0"), 300, 1000, 0).unwrap();
                let base = lm.snapshot();
                let mut journal = String::new();
                let mut now = 0u64;
                for &(op, i, n) in &ops {
                    let who = ["u0", "u1"][i % 2];
                    let nth = lm.all_lots().get(i).map(|l| l.id);
                    let evicted = |id: LotId, ev: Evicted, out: &mut String| {
                        let mut keys = vec![LotKey::Lot(id)];
                        keys.extend(ev.lots.iter().map(|l| LotKey::Lot(*l)));
                        keys.extend(ev.files.iter().map(LotKey::Path));
                        lm.render_keys(&keys, out);
                    };
                    match (op, nth) {
                        (0, _) => {
                            if let Ok((id, ev)) = lm.create(user(who), n * 2, n / 4 + 1, now) {
                                evicted(id, ev, &mut journal);
                            }
                        }
                        (1, _) => {
                            if let Ok(charged) = lm.charge_file(who, &no_groups(), &paths[i], n, now) {
                                let mut keys = vec![LotKey::Path(&paths[i])];
                                keys.extend(charged.into_iter().map(LotKey::Lot));
                                lm.render_keys(&keys, &mut journal);
                            }
                        }
                        (2, _) => {
                            lm.release_file(&paths[i]);
                            lm.render_keys(&[LotKey::Path(&paths[i])], &mut journal);
                        }
                        (3, Some(id)) if lm.renew(id, n, now).is_ok() => {
                            lm.render_keys(&[LotKey::Lot(id)], &mut journal);
                        }
                        (4, Some(id)) => {
                            if let Ok(ev) = lm.terminate(id) {
                                evicted(id, ev, &mut journal);
                            }
                        }
                        (5, _) => now += n / 4,
                        _ => {}
                    }
                }
                let replayed = LotManager::restore_with_shards(
                    &format!("{base}{journal}"),
                    2000,
                    ReclaimPolicy::Lru,
                    now,
                    shards,
                );
                prop_assert_eq!(replayed.snapshot(), lm.snapshot(), "at {} shards", shards);
            }
        }
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn snapshot_restore_roundtrip() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        let (a, _) = lm
            .create(LotOwner::User("alice".into()), 400, 100, 5)
            .unwrap();
        let (b, _) = lm
            .create(LotOwner::Group("wind".into()), 300, 200, 6)
            .unwrap();
        let groups: HashSet<String> = ["wind".to_owned()].into();
        lm.charge_file(
            "alice",
            &HashSet::new(),
            &VPath::parse("/f1").unwrap(),
            150,
            7,
        )
        .unwrap();
        lm.charge_file("bob", &groups, &VPath::parse("/f2").unwrap(), 100, 8)
            .unwrap();

        let snap = lm.snapshot();
        let restored = LotManager::restore(&snap, 1000, ReclaimPolicy::ExpiredFirst, 0);

        let la = restored.stat(a).unwrap();
        assert_eq!(la.capacity, 400);
        assert_eq!(la.used, 150);
        assert_eq!(la.expires_at, 105);
        let lb = restored.stat(b).unwrap();
        assert_eq!(lb.owner, LotOwner::Group("wind".into()));
        assert_eq!(lb.used, 100);
        // File spans survive: releasing /f1 frees lot a.
        assert_eq!(restored.release_file(&VPath::parse("/f1").unwrap()), 150);
        assert_eq!(restored.stat(a).unwrap().used, 0);
        // Fresh ids continue past the snapshot's.
        let (c, _) = restored
            .create(LotOwner::User("carol".into()), 100, 10, 0)
            .unwrap();
        assert!(c.0 > b.0);
    }

    #[test]
    fn restore_skips_garbage_lines() {
        let text = "lot 1 user alice 100 50 0\nTOTALLY BROKEN\nfile 1 40 /x\nfile 99 10 /orphan\n";
        let lm = LotManager::restore(text, 1000, ReclaimPolicy::ExpiredFirst, 0);
        assert_eq!(lm.stat(LotId(1)).unwrap().used, 40);
        assert_eq!(lm.all_lots().len(), 1);
    }

    #[test]
    fn restore_enforces_reduced_capacity() {
        let lm = LotManager::new(1000, ReclaimPolicy::ExpiredFirst);
        lm.create(LotOwner::User("a".into()), 600, 100, 0).unwrap();
        lm.create(LotOwner::User("b".into()), 350, 100, 0).unwrap();
        let snap = lm.snapshot();
        // Restore onto a smaller disk: the newest lot is dropped.
        let small = LotManager::restore(&snap, 700, ReclaimPolicy::ExpiredFirst, 0);
        assert_eq!(small.all_lots().len(), 1);
        assert_eq!(small.all_lots()[0].capacity, 600);
    }

    #[test]
    fn empty_snapshot_restores_empty() {
        let lm = LotManager::restore("", 500, ReclaimPolicy::Lru, 0);
        assert!(lm.all_lots().is_empty());
        assert_eq!(lm.total_capacity(), 500);
    }
}
