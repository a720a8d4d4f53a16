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
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Write as _};

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
    pub fn usable_by(&self, user: &str, groups: &HashSet<String>) -> bool {
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

/// The lot table and its accounting, behind one `storage.lot` lock.
///
/// Every public method takes the lock once, so it reads and leaves one
/// consistent table: admission computes the commitment exactly, and a
/// journal record renders all its keys as of one instant.
///
/// Invariants (checked under `nest_check::enforcing()`):
/// * Σ active capacities + Σ best-effort used ≤ total capacity — every
///   active lot can always be filled to its capacity;
/// * each lot's `used` equals the sum of its per-file allocations;
/// * a lot's `used` never exceeds its `capacity`.
pub struct LotManager {
    total_capacity: u64,
    policy: ReclaimPolicy,
    table: Mutex<LotTable>,
}

/// Everything behind the lock.
struct LotTable {
    lots: HashMap<LotId, Lot>,
    /// The lots holding a charge of each path, in charge order.
    spans: HashMap<VPath, Vec<LotId>>,
    /// Each owner's lots, so a charge finds them without a scan.
    owners: HashMap<LotOwner, Vec<LotId>>,
    /// The next id to hand out. Ids only grow while the table lives, and a
    /// refused creation still takes one; a restore starts after the
    /// highest id it replays.
    next_id: u64,
}

impl LotManager {
    /// Creates a manager over `total_capacity` bytes of physical storage.
    pub fn new(total_capacity: u64, policy: ReclaimPolicy) -> Self {
        let table = LotTable {
            lots: HashMap::new(),
            spans: HashMap::new(),
            owners: HashMap::new(),
            next_id: 1,
        };
        Self {
            total_capacity,
            policy,
            table: Mutex::named("storage.lot", 300, table),
        }
    }

    /// Total physical capacity under management.
    pub fn total_capacity(&self) -> u64 {
        self.total_capacity
    }

    /// Sum of active (unexpired) lot capacities — space that is promised.
    pub fn guaranteed(&self, now: u64) -> u64 {
        self.table.lock().committed(now).0
    }

    /// Space available for new guarantees after maximal reclamation.
    pub fn reservable(&self, now: u64) -> u64 {
        self.total_capacity.saturating_sub(self.guaranteed(now))
    }

    /// Σ `used` over every lot, and the number of lots, cloning nothing.
    pub(crate) fn occupancy(&self) -> (u64, usize) {
        let t = self.table.lock();
        (t.lots.values().map(|l| l.used).sum(), t.lots.len())
    }

    /// Creates a lot of `capacity` bytes lasting `duration` seconds,
    /// reclaiming best-effort lots if needed. Returns the new lot id and
    /// any evictions the caller must apply to the backend.
    pub fn create(
        &self,
        owner: LotOwner,
        capacity: u64,
        duration: u64,
        now: u64,
    ) -> Result<(LotId, Evicted), LotError> {
        let mut t = self.table.lock();
        let id = LotId(t.next_id);
        t.next_id += 1;
        // Reclaiming every best-effort lot frees at most their used bytes,
        // so a lot that would not fit even then is refused before any
        // victim is evicted: a failed creation changes nothing but the
        // id counter.
        let (active, _) = t.committed(now);
        if active.saturating_add(capacity) > self.total_capacity {
            return Err(LotError::InsufficientSpace {
                requested: capacity,
                available: self.total_capacity.saturating_sub(active),
            });
        }
        let mut evicted = Evicted::default();
        loop {
            let (active, best_effort) = t.committed(now);
            if active + best_effort + capacity <= self.total_capacity {
                break;
            }
            let victim = t
                .victim(self.policy, now)
                .expect("a best-effort lot remains while best-effort bytes do");
            t.evict(victim, &mut evicted);
        }
        t.insert(Lot {
            id,
            owner,
            capacity,
            expires_at: now.saturating_add(duration),
            used: 0,
            last_access: now,
            files: BTreeMap::new(),
        });
        self.debug_assert_invariants(&t, now);
        Ok((id, evicted))
    }

    /// Extends a lot's duration ("users are allowed to indefinitely renew").
    /// Renewing an expired lot re-promises its capacity, so it succeeds
    /// only if the guarantee still holds with that capacity counted.
    pub fn renew(&self, id: LotId, extra: u64, now: u64) -> Result<(), LotError> {
        let mut t = self.table.lock();
        let (active, best_effort) = t.committed(now);
        let lot = t.lots.get_mut(&id).ok_or(LotError::NoSuchLot(id))?;
        if !lot.is_expired(now) {
            lot.expires_at = lot.expires_at.saturating_add(extra);
        } else {
            // Everyone else's commitment: this lot counts its bytes now.
            let others = active + best_effort - lot.used;
            if others + lot.capacity > self.total_capacity {
                return Err(LotError::InsufficientSpace {
                    requested: lot.capacity,
                    available: self.total_capacity.saturating_sub(others),
                });
            }
            lot.expires_at = now.saturating_add(extra);
        }
        self.debug_assert_invariants(&t, now);
        Ok(())
    }

    /// Terminates a lot. Its files lose every charge they hold, in this
    /// lot and any other, and are returned for deletion.
    pub fn terminate(&self, id: LotId) -> Result<Evicted, LotError> {
        let mut t = self.table.lock();
        if !t.lots.contains_key(&id) {
            return Err(LotError::NoSuchLot(id));
        }
        let mut evicted = Evicted::default();
        t.evict(id, &mut evicted);
        Ok(evicted)
    }

    /// Looks up a lot snapshot.
    pub fn stat(&self, id: LotId) -> Result<Lot, LotError> {
        let t = self.table.lock();
        t.lots.get(&id).cloned().ok_or(LotError::NoSuchLot(id))
    }

    /// All lots usable by a user with the given group memberships, in id
    /// order.
    pub fn lots_for(&self, user: &str, groups: &HashSet<String>) -> Vec<Lot> {
        let t = self.table.lock();
        let mut lots: Vec<Lot> = t
            .lots
            .values()
            .filter(|l| l.owner.usable_by(user, groups))
            .cloned()
            .collect();
        lots.sort_by_key(|l| l.id);
        lots
    }

    /// Charges `bytes` for `path` against the user's active lots, spanning
    /// lots when one alone cannot hold the file (paper: "a file may span
    /// multiple lots if it cannot fit within a single one"). Returns the
    /// lots charged, whose `last_access` the charge also stamped.
    pub fn charge_file(
        &self,
        user: &str,
        groups: &HashSet<String>,
        path: &VPath,
        bytes: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        let mut t = self.table.lock();
        let charged = t.charge(user, groups, path, bytes, now)?;
        self.debug_assert_invariants(&t, now);
        Ok(charged)
    }

    /// Charges `path` up to `end` bytes in all: what its lots already hold
    /// counts, and only the rest is charged, as by
    /// [`LotManager::charge_file`]. Reading the charge and adding to it
    /// under one acquisition is what makes two writes growing one file
    /// charge the larger end between them, not the sum of their growths.
    /// Returns the lots charged — none when the charge already reaches
    /// `end`.
    pub fn charge_file_to(
        &self,
        user: &str,
        groups: &HashSet<String>,
        path: &VPath,
        end: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        let mut t = self.table.lock();
        let (held, _) = t.charge_of(path, now);
        if end <= held {
            return Ok(Vec::new());
        }
        let charged = t.charge(user, groups, path, end - held, now)?;
        self.debug_assert_invariants(&t, now);
        Ok(charged)
    }

    /// Releases all of a file's charges (on delete or truncate-to-zero).
    /// Returns the number of bytes released.
    pub fn release_file(&self, path: &VPath) -> u64 {
        self.table.lock().unfile(path)
    }

    /// Records an access to the lots backing `path` (for LRU reclamation).
    pub fn touch_file(&self, path: &VPath, now: u64) {
        let mut t = self.table.lock();
        let LotTable { lots, spans, .. } = &mut *t;
        for id in spans.get(path).into_iter().flatten() {
            if let Some(lot) = lots.get_mut(id) {
                lot.last_access = now;
            }
        }
    }

    /// The bytes charged to `path` across its lots, and whether any
    /// unexpired lot backs it. Per-chunk on the write path, so it clones
    /// no lot.
    pub fn file_charge(&self, path: &VPath, now: u64) -> (u64, bool) {
        self.table.lock().charge_of(path, now)
    }

    /// Snapshot of every lot in id order, for ad publication and
    /// `lot_list`.
    pub fn all_lots(&self) -> Vec<Lot> {
        let t = self.table.lock();
        t.sorted().into_iter().cloned().collect()
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
        let t = self.table.lock();
        let mut out = String::new();
        for lot in t.sorted() {
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
    /// The whole record renders under one acquisition, so it is one
    /// consistent state of all its keys. A lot header already written for
    /// a path key is not repeated.
    pub fn render_keys(&self, keys: &[LotKey<'_>], out: &mut String) {
        let t = self.table.lock();
        let mut headers = Vec::new();
        for key in keys {
            match *key {
                LotKey::Lot(id) if headers.contains(&id) => {}
                LotKey::Lot(id) => match t.lots.get(&id) {
                    Some(lot) => write_lot_line(out, lot),
                    None => {
                        let _ = writeln!(out, "-lot {}", id.0);
                    }
                },
                LotKey::Path(path) => {
                    let _ = writeln!(out, "unfile {path}");
                    for id in t.spans.get(path).into_iter().flatten() {
                        let Some(lot) = t.lots.get(id) else {
                            continue;
                        };
                        if let Some(bytes) = lot.files.get(path) {
                            write_lot_line(out, lot);
                            headers.push(*id);
                            let _ = writeln!(out, "file {} {} {}", id.0, bytes, path);
                        }
                    }
                }
            }
        }
    }

    /// Rebuilds a manager from a [`LotManager::snapshot`], optionally
    /// followed by lot-journal payloads ([`LotManager::render_keys`]):
    /// one parser replays the lines in order. Returns the manager and the
    /// number of lines that did not parse, which are skipped — a corrupt
    /// line must not brick the appliance, but it must not vanish unseen
    /// either. Charges are replayed unchecked, since a journal may carry a
    /// path's new charge before another path's release that made room for
    /// it; a lot still over capacity at the end keeps its files in path
    /// order while they fit. Lots that would violate the guarantee
    /// invariant against `total_capacity` *as of `now`* are dropped,
    /// newest first (expired lots count only their stored bytes, exactly
    /// as in the live invariant).
    pub fn restore(
        text: &str,
        total_capacity: u64,
        policy: ReclaimPolicy,
        now: u64,
    ) -> (Self, u64) {
        let manager = Self::new(total_capacity, policy);
        let mut unparsed = 0;
        {
            let mut t = manager.table.lock();
            let mut max_id = 0u64;
            for line in text.lines().filter(|l| !l.is_empty()) {
                match parse_line(line) {
                    Some(Line::Lot(lot)) => {
                        max_id = max_id.max(lot.id.0);
                        t.upsert(lot);
                    }
                    Some(Line::DropLot(id)) => {
                        max_id = max_id.max(id.0);
                        t.remove_lot(id);
                    }
                    Some(Line::File(id, bytes, path)) => t.replay_charge(id, bytes, path),
                    Some(Line::Unfile(path)) => {
                        t.unfile(&path);
                    }
                    None => unparsed += 1,
                }
            }
            t.trim_overfull();
            loop {
                let (active, best_effort) = t.committed(now);
                if active + best_effort <= total_capacity {
                    break;
                }
                let Some(newest) = t.lots.keys().max().copied() else {
                    break;
                };
                t.evict(newest, &mut Evicted::default());
            }
            t.next_id = max_id + 1;
            manager.debug_assert_invariants(&t, now);
        }
        (manager, unparsed)
    }

    /// The full invariant suite.
    fn debug_assert_invariants(&self, t: &LotTable, now: u64) {
        if !nest_check::enforcing() {
            return;
        }
        let (active, best_effort) = t.committed(now);
        nest_check::invariant!(
            active + best_effort <= self.total_capacity,
            "lot guarantee: active capacity {} + best-effort used {} > total {}",
            active,
            best_effort,
            self.total_capacity
        );
        for lot in t.lots.values() {
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

impl LotTable {
    /// (Σ active capacities, Σ best-effort used).
    fn committed(&self, now: u64) -> (u64, u64) {
        let mut active = 0u64;
        let mut best_effort = 0u64;
        for l in self.lots.values() {
            if l.is_expired(now) {
                best_effort += l.used;
            } else {
                active += l.capacity;
            }
        }
        (active, best_effort)
    }

    /// Every lot, in id order.
    fn sorted(&self) -> Vec<&Lot> {
        let mut lots: Vec<&Lot> = self.lots.values().collect();
        lots.sort_by_key(|l| l.id);
        lots
    }

    fn insert(&mut self, lot: Lot) {
        self.owners
            .entry(lot.owner.clone())
            .or_default()
            .push(lot.id);
        self.lots.insert(lot.id, lot);
    }

    /// Removes a lot and the charges it held; other lots' charges of the
    /// same paths stay.
    fn remove_lot(&mut self, id: LotId) -> Option<Lot> {
        let lot = self.lots.remove(&id)?;
        if let Some(ids) = self.owners.get_mut(&lot.owner) {
            ids.retain(|l| *l != id);
            if ids.is_empty() {
                self.owners.remove(&lot.owner);
            }
        }
        for path in lot.files.keys() {
            self.unspan(path, id);
        }
        Some(lot)
    }

    /// Removes lot `id` from `path`'s span, and the span once it is empty.
    fn unspan(&mut self, path: &VPath, id: LotId) {
        if let Some(span) = self.spans.get_mut(path) {
            span.retain(|l| *l != id);
            if span.is_empty() {
                self.spans.remove(path);
            }
        }
    }

    /// Evicts a lot. Every file it backs is handed back for deletion and
    /// loses its charges in other lots too: a partially deleted file is
    /// useless.
    fn evict(&mut self, id: LotId, evicted: &mut Evicted) {
        let Some(lot) = self.remove_lot(id) else {
            return;
        };
        evicted.lots.push(id);
        for path in lot.files.into_keys() {
            self.unfile(&path);
            evicted.files.push(path);
        }
    }

    /// Reclamation victim per policy among the best-effort lots.
    fn victim(&self, policy: ReclaimPolicy, now: u64) -> Option<LotId> {
        let expired = self.lots.values().filter(|l| l.is_expired(now));
        let victim = match policy {
            ReclaimPolicy::ExpiredFirst => expired.min_by_key(|l| (l.expires_at, l.id)),
            ReclaimPolicy::LargestFirst => {
                expired.max_by_key(|l| (l.used, std::cmp::Reverse(l.id)))
            }
            ReclaimPolicy::Lru => expired.min_by_key(|l| (l.last_access, l.id)),
        };
        victim.map(|l| l.id)
    }

    /// See [`LotManager::charge_file`].
    fn charge(
        &mut self,
        user: &str,
        groups: &HashSet<String>,
        path: &VPath,
        bytes: u64,
        now: u64,
    ) -> Result<Vec<LotId>, LotError> {
        let mut mine: Vec<LotId> = std::iter::once(LotOwner::User(user.to_owned()))
            .chain(groups.iter().map(|g| LotOwner::Group(g.clone())))
            .filter_map(|owner| self.owners.get(&owner))
            .flatten()
            .copied()
            .collect();
        mine.sort_unstable();
        let usable: Vec<LotId> = mine
            .iter()
            .copied()
            .filter(|id| !self.lots[id].is_expired(now))
            .collect();
        if usable.is_empty() {
            return Err(match mine.first() {
                // Only expired lots remain; writes are refused.
                Some(id) => LotError::Expired(*id),
                None => LotError::NoLot(user.to_owned()),
            });
        }
        let available: u64 = usable.iter().map(|id| self.lots[id].free()).sum();
        if bytes > available {
            return Err(LotError::InsufficientSpace {
                requested: bytes,
                available,
            });
        }
        // Greedy span across lots in id order.
        let mut remaining = bytes;
        let mut charged = Vec::new();
        for id in usable {
            let lot = self.lots.get_mut(&id).expect("indexed lot");
            let take = lot.free().min(remaining);
            if take == 0 {
                continue;
            }
            lot.used += take;
            lot.last_access = now;
            *lot.files.entry(path.clone()).or_insert(0) += take;
            remaining -= take;
            charged.push(id);
            let span = self.spans.entry(path.clone()).or_default();
            if !span.contains(&id) {
                span.push(id);
            }
        }
        Ok(charged)
    }

    /// See [`LotManager::file_charge`].
    fn charge_of(&self, path: &VPath, now: u64) -> (u64, bool) {
        let mut bytes = 0;
        let mut guaranteed = false;
        for id in self.spans.get(path).into_iter().flatten() {
            if let Some(lot) = self.lots.get(id) {
                if let Some(b) = lot.files.get(path) {
                    bytes += b;
                    guaranteed |= !lot.is_expired(now);
                }
            }
        }
        (bytes, guaranteed)
    }

    /// Drops every charge of `path` and returns the bytes released.
    fn unfile(&mut self, path: &VPath) -> u64 {
        let Some(span) = self.spans.remove(path) else {
            return 0;
        };
        let mut released = 0;
        for id in span {
            if let Some(lot) = self.lots.get_mut(&id) {
                if let Some(bytes) = lot.files.remove(path) {
                    lot.used = lot.used.saturating_sub(bytes);
                    released += bytes;
                }
            }
        }
        released
    }

    /// Replays a `lot` line: inserts the lot, or updates an existing
    /// lot's header and keeps its files.
    fn upsert(&mut self, lot: Lot) {
        match self.lots.get_mut(&lot.id) {
            Some(old) => {
                old.capacity = lot.capacity;
                old.expires_at = lot.expires_at;
                old.last_access = lot.last_access;
            }
            None => self.insert(lot),
        }
    }

    /// Replays a `file` line: adds the charge to an existing lot, with no
    /// capacity check (see [`LotManager::restore`]).
    fn replay_charge(&mut self, id: LotId, bytes: u64, path: VPath) {
        let Some(lot) = self.lots.get_mut(&id) else {
            return;
        };
        lot.used = lot.used.saturating_add(bytes);
        let charge = lot.files.entry(path.clone()).or_insert(0);
        *charge = charge.saturating_add(bytes);
        let span = self.spans.entry(path).or_default();
        if !span.contains(&id) {
            span.push(id);
        }
    }

    /// A replayed lot left over its capacity keeps its files in path
    /// order while they fit; the rest lose their charge in it.
    fn trim_overfull(&mut self) {
        let mut overflow: Vec<(LotId, VPath)> = Vec::new();
        for lot in self.lots.values().filter(|l| l.used > l.capacity) {
            let mut kept = 0u64;
            for (path, bytes) in &lot.files {
                match kept.checked_add(*bytes).filter(|k| *k <= lot.capacity) {
                    Some(k) => kept = k,
                    None => overflow.push((lot.id, path.clone())),
                }
            }
        }
        for (id, path) in overflow {
            let lot = self.lots.get_mut(&id).expect("collected above");
            let bytes = lot.files.remove(&path).unwrap_or(0);
            lot.used = lot.used.saturating_sub(bytes);
            self.unspan(&path, id);
        }
    }
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
    fn concurrent_create_terminate_never_overcommits() {
        use std::sync::Arc;
        let lm = Arc::new(LotManager::new(1000, ReclaimPolicy::ExpiredFirst));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    // 8 threads × 100 bytes ≤ 1000: admission must never
                    // spuriously fail.
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
        // A full-size lot is admissible again after the churn.
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
        /// renew / terminate / expire / restore sequence.
        #[test]
        fn file_charge_matches_the_all_lots_fold(
            ops in prop::collection::vec((0u8..7, 0usize..4, 1u64..300), 1..60),
        ) {
            let paths: Vec<VPath> = (0..4).map(|i| vp(&format!("/f{i}"))).collect();
            let policy = ReclaimPolicy::ExpiredFirst;
            let mut lm = LotManager::new(2000, policy);
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
                        lm = LotManager::restore(&snap, 2000, policy, now).0;
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
                        "{} after op {}", path, op
                    );
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
            let lm = LotManager::new(2000, ReclaimPolicy::Lru);
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
            let text = format!("{base}{journal}");
            let (replayed, unparsed) = LotManager::restore(&text, 2000, ReclaimPolicy::Lru, now);
            prop_assert_eq!(unparsed, 0);
            prop_assert_eq!(replayed.snapshot(), lm.snapshot());
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
        let (restored, _) = LotManager::restore(&snap, 1000, ReclaimPolicy::ExpiredFirst, 0);

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
        let text =
            "lot 1 user alice 100 50 0\nTOTALLY BROKEN\n\nfile 1 40 /x\nfile 99 10 /orphan\n";
        let (lm, unparsed) = LotManager::restore(text, 1000, ReclaimPolicy::ExpiredFirst, 0);
        // The broken line is counted; a blank line and a charge of a lot
        // that is gone are not garbage.
        assert_eq!(unparsed, 1);
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
        let (small, _) = LotManager::restore(&snap, 700, ReclaimPolicy::ExpiredFirst, 0);
        assert_eq!(small.all_lots().len(), 1);
        assert_eq!(small.all_lots()[0].capacity, 600);
    }

    #[test]
    fn empty_snapshot_restores_empty() {
        let (lm, unparsed) = LotManager::restore("", 500, ReclaimPolicy::Lru, 0);
        assert_eq!(unparsed, 0);
        assert!(lm.all_lots().is_empty());
        assert_eq!(lm.total_capacity(), 500);
    }
}
