//! The storage manager façade (paper §2.1, §5).
//!
//! "The storage manager has four main responsibilities: virtualizing and
//! controlling the physical storage of the machine, directly executing
//! non-transfer requests, implementing and enforcing access control, and
//! managing guaranteed storage space in the form of lots."
//!
//! Every operation here is synchronous and thread-safe; the dispatcher
//! serializes macro-requests, and data transfers are only *admitted* here
//! (`begin_put`/`begin_get`/`begin_write`) before being handed to the
//! transfer manager.

use crate::acl::{request_ad, AccessRight, AclEntry, AclTable, Principal};
use crate::backend::{FileKind, FileStat, StorageBackend};
use crate::lot::{Evicted, Lot, LotError, LotId, LotKey, LotManager, LotOwner, ReclaimPolicy};
use crate::lot_journal::LotJournal;
use crate::namespace::{PathError, VPath};
use nest_classad::{ClassAd, Value};
use nest_obs::{Counter, Gauge, Histogram, Obs};
use nest_proto::request::NestError;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Errors surfaced to protocol handlers.
#[derive(Debug)]
pub enum StorageError {
    /// Access denied by the ACL.
    Denied,
    /// Lot / space-guarantee failure.
    Lot(LotError),
    /// Invalid virtual path.
    Path(PathError),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Denied => write!(f, "permission denied"),
            StorageError::Lot(e) => write!(f, "lot error: {}", e),
            StorageError::Path(e) => write!(f, "path error: {}", e),
            StorageError::Io(e) => write!(f, "io error: {}", e),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<LotError> for StorageError {
    fn from(e: LotError) -> Self {
        StorageError::Lot(e)
    }
}

impl From<PathError> for StorageError {
    fn from(e: PathError) -> Self {
        StorageError::Path(e)
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Maps storage-layer failures onto the protocol-independent error
/// classes. Living here (rather than as a free function in the
/// dispatcher) means every caller — dispatcher, NFS handler, tests — gets
/// the same mapping through plain `?` / `.into()` conversion.
impl From<&StorageError> for NestError {
    fn from(e: &StorageError) -> Self {
        match e {
            StorageError::Denied => NestError::Denied,
            StorageError::Path(_) => NestError::BadRequest,
            StorageError::Lot(LotError::InsufficientSpace { .. }) => NestError::NoSpace,
            StorageError::Lot(LotError::NoLot(_)) => NestError::NoSpace,
            StorageError::Lot(LotError::Expired(_)) => NestError::NoSpace,
            StorageError::Lot(LotError::NotOwner) => NestError::Denied,
            StorageError::Lot(LotError::NoSuchLot(_)) => NestError::NotFound,
            StorageError::Io(e) => match e.kind() {
                io::ErrorKind::NotFound => NestError::NotFound,
                io::ErrorKind::AlreadyExists => NestError::Exists,
                io::ErrorKind::DirectoryNotEmpty | io::ErrorKind::InvalidInput => {
                    NestError::Invalid
                }
                _ => NestError::Internal,
            },
        }
    }
}

impl From<StorageError> for NestError {
    fn from(e: StorageError) -> Self {
        (&e).into()
    }
}

/// A convenience result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// One object in an S3-style listing: a `/`-joined key relative to the
/// listing root, plus its size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectEntry {
    /// Key relative to the listing root (no leading slash).
    pub key: String,
    /// Object size in bytes.
    pub size: u64,
}

/// The result of [`StorageManager::list_objects`]: matching objects plus
/// the delimiter-rolled-up common prefixes, both sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectListing {
    /// Objects whose keys matched the prefix (and contain no delimiter
    /// past it).
    pub objects: Vec<ObjectEntry>,
    /// Distinct key prefixes rolled up at the delimiter.
    pub common_prefixes: Vec<String>,
}

/// Clock abstraction so lot expiry works identically under the real clock
/// and the simulation substrate.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Returns a clock reading wall time as Unix seconds.
pub fn system_clock() -> Clock {
    Arc::new(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    })
}

/// Instrument handles for the storage layer, obtained once at
/// construction so the hot path never touches the registry map.
///
/// Metric catalog (all under `storage.`):
/// * `storage.meta_us` — latency histogram for synchronous metadata
///   operations (mkdir/rmdir/list/stat/remove/rename).
/// * `storage.read_us` / `storage.write_us` — backend chunk I/O latency.
/// * `storage.denied` — ACL denials.
/// * `storage.reclaim.events` / `storage.reclaim.files` — best-effort lot
///   reclamation passes and the files they evicted.
/// * `storage.lot.capacity_bytes` / `.guaranteed_bytes` /
///   `.committed_bytes` / `.count` — lot occupancy gauges, refreshed by
///   [`StorageManager::refresh_gauges`].
/// * `storage.lot.journal.appends` / `.compactions` / `.corrupt_records`
///   — lot-journal records written, snapshots rewritten, and, at restart,
///   complete records that failed their checksum plus lines that did not
///   parse.
struct StorageMetrics {
    meta_us: Arc<Histogram>,
    read_us: Arc<Histogram>,
    write_us: Arc<Histogram>,
    denied: Arc<Counter>,
    reclaim_events: Arc<Counter>,
    reclaim_files: Arc<Counter>,
    lot_capacity: Arc<Gauge>,
    lot_guaranteed: Arc<Gauge>,
    lot_committed: Arc<Gauge>,
    lot_count: Arc<Gauge>,
    journal_appends: Arc<Counter>,
    journal_compactions: Arc<Counter>,
    journal_corrupt: Arc<Counter>,
}

impl StorageMetrics {
    fn new(obs: &Obs) -> Self {
        let m = &obs.metrics;
        Self {
            meta_us: m.histogram("storage.meta_us"),
            read_us: m.histogram("storage.read_us"),
            write_us: m.histogram("storage.write_us"),
            denied: m.counter("storage.denied"),
            reclaim_events: m.counter("storage.reclaim.events"),
            reclaim_files: m.counter("storage.reclaim.files"),
            lot_capacity: m.gauge("storage.lot.capacity_bytes"),
            lot_guaranteed: m.gauge("storage.lot.guaranteed_bytes"),
            lot_committed: m.gauge("storage.lot.committed_bytes"),
            lot_count: m.gauge("storage.lot.count"),
            journal_appends: m.counter("storage.lot.journal.appends"),
            journal_compactions: m.counter("storage.lot.journal.compactions"),
            journal_corrupt: m.counter("storage.lot.journal.corrupt_records"),
        }
    }
}

/// The storage manager.
pub struct StorageManager {
    backend: Arc<dyn StorageBackend>,
    acl: AclTable,
    lots: LotManager,
    clock: Clock,
    /// When false, writes bypass lot accounting entirely (used for the
    /// Figure 6 quota-overhead comparison and for open deployments).
    enforce_lots: bool,
    /// Kept so persisted lot state can be restored with the same policy.
    reclaim_policy: ReclaimPolicy,
    /// Instrument handles; `None` runs fully uninstrumented.
    metrics: Option<StorageMetrics>,
    /// Where every lot mutation is journaled (disk-backed appliances).
    journal: Option<LotJournal>,
}

impl StorageManager {
    /// Builds a storage manager over a backend with `capacity` bytes under
    /// lot management.
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        acl: AclTable,
        capacity: u64,
        policy: ReclaimPolicy,
    ) -> Self {
        Self {
            backend,
            acl,
            lots: LotManager::new(capacity, policy),
            clock: system_clock(),
            enforce_lots: true,
            reclaim_policy: policy,
            metrics: None,
            journal: None,
        }
    }

    /// Registers this manager's instruments on an observability domain.
    /// The handles are resolved once; steady-state updates are plain
    /// atomics.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.metrics = Some(StorageMetrics::new(obs));
        self.refresh_gauges();
        self
    }

    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b0).
    pub fn with_ram_tier(self, _bytes: u64) -> Self {
        self
    }

    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b0).
    pub fn with_residency_hint<F: ?Sized>(self, _hint: Arc<F>) -> Self {
        self
    }

    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b).
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Keeps the lot table at `store` (`<root>.lots`, with its journal
    /// beside it) — reservations must survive appliance restarts. Restores
    /// the table a previous run left there, from the snapshot plus every
    /// intact journal record, then compacts once; from here on every lot
    /// mutation is journaled before the method making it returns. Lines
    /// of the snapshot or of an intact record that do not parse are
    /// logged and counted as corrupt records, like records that fail
    /// their checksum. Call after [`Self::with_obs`].
    pub fn with_lot_store(mut self, store: &Path) -> io::Result<Self> {
        let (journal, recovered) = LotJournal::open(store)?;
        let (lots, unparsed) = LotManager::restore(
            &recovered.text,
            self.lots.total_capacity(),
            self.reclaim_policy,
            self.now(),
        );
        if unparsed > 0 {
            eprintln!(
                "nest: {}: {unparsed} unparseable lot table lines skipped",
                store.display()
            );
        }
        self.lots = lots;
        journal.compact(&self.lots)?;
        if let Some(m) = &self.metrics {
            m.journal_corrupt.add(recovered.corrupt_records + unparsed);
            m.journal_compactions.inc();
        }
        self.journal = Some(journal);
        Ok(self)
    }

    /// Rewrites the lot snapshot and empties the journal (a no-op without
    /// a lot store).
    pub fn checkpoint_lots(&self) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        journal.compact(&self.lots)?;
        if let Some(m) = &self.metrics {
            m.journal_compactions.inc();
        }
        Ok(())
    }

    /// Appends the current state of `keys` to the lot journal (a no-op
    /// without a lot store).
    fn journal(&self, keys: &[LotKey<'_>]) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let compacted = journal.append(&self.lots, keys)?;
        if let Some(m) = &self.metrics {
            m.journal_appends.inc();
            if compacted {
                m.journal_compactions.inc();
            }
        }
        Ok(())
    }

    /// Replaces the clock (used by tests and the simulator).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Disables lot enforcement (quota-off mode).
    pub fn with_lots_disabled(mut self) -> Self {
        self.enforce_lots = false;
        self
    }

    /// Whether lot enforcement is active.
    pub fn lots_enforced(&self) -> bool {
        self.enforce_lots
    }

    /// The ACL table (for administration).
    pub fn acl(&self) -> &AclTable {
        &self.acl
    }

    /// The lot manager (for inspection).
    pub fn lot_manager(&self) -> &LotManager {
        &self.lots
    }

    /// Direct backend access (used by the transfer manager's data path
    /// after a transfer has been admitted).
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Ignored (always `None`); delete in the benchmark-only PR for
    /// ROADMAP 1(b0).
    pub fn tier_object(&self, _path: &VPath) -> Option<Arc<Vec<u8>>> {
        None
    }

    /// Records descriptor-reuse hits for zero-copy lease spans; see
    /// [`StorageBackend::note_lease_hits`].
    pub fn note_lease_hits(&self, n: u64) {
        self.backend.note_lease_hits(n);
    }

    fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Total bytes currently charged against lots (the ad's
    /// `LotBytesCommitted`).
    pub fn committed_bytes(&self) -> u64 {
        self.lots.occupancy().0
    }

    /// Refreshes the lot-occupancy gauges from the lot manager. Cheap
    /// enough to call before every snapshot and after every lot mutation;
    /// a no-op when the manager is uninstrumented.
    pub fn refresh_gauges(&self) {
        let Some(m) = &self.metrics else {
            return;
        };
        let (used, count) = self.lots.occupancy();
        m.lot_capacity.set(self.lots.total_capacity() as i64);
        m.lot_guaranteed
            .set(self.lots.guaranteed(self.now()) as i64);
        m.lot_committed.set(used as i64);
        m.lot_count.set(count as i64);
    }

    /// Records a metadata-operation latency sample.
    fn note_meta(&self, start: Instant) {
        if let Some(m) = &self.metrics {
            m.meta_us.record(start.elapsed());
        }
    }

    fn authorize(
        &self,
        who: &Principal,
        right: AccessRight,
        path: &VPath,
        protocol: &str,
        op: &str,
    ) -> Result<()> {
        if self.acl.check(who, right, path, &request_ad(protocol, op)) {
            Ok(())
        } else {
            if let Some(m) = &self.metrics {
                m.denied.inc();
            }
            Err(StorageError::Denied)
        }
    }

    /// Deletes what a lot operation on `lot` evicted, then journals `lot`
    /// together with every lot and path the eviction touched.
    fn apply_evictions(&self, lot: LotId, evicted: &Evicted) -> io::Result<()> {
        for path in &evicted.files {
            // Best-effort deletion of reclaimed files; a missing file only
            // means the client deleted it first.
            let _ = self.backend.remove(path);
        }
        if let Some(m) = &self.metrics {
            if !evicted.files.is_empty() {
                m.reclaim_events.inc();
                m.reclaim_files.add(evicted.files.len() as u64);
            }
        }
        self.refresh_gauges();
        let keys: Vec<LotKey<'_>> = std::iter::once(lot)
            .chain(evicted.lots.iter().copied().filter(|id| *id != lot))
            .map(LotKey::Lot)
            .chain(evicted.files.iter().map(LotKey::Path))
            .collect();
        self.journal(&keys)
    }

    // -- directory / metadata operations (executed synchronously) ---------

    /// Creates a directory.
    pub fn mkdir(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<()> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Insert, path, protocol, "mkdir")?;
            Ok(self.backend.mkdir(path)?)
        })();
        self.note_meta(t);
        r
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<()> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Delete, path, protocol, "rmdir")?;
            Ok(self.backend.rmdir(path)?)
        })();
        self.note_meta(t);
        r
    }

    /// Lists a directory.
    pub fn list(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<Vec<String>> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Lookup, path, protocol, "list")?;
            let mut names = self.backend.list(path)?;
            names.sort();
            Ok(names)
        })();
        self.note_meta(t);
        r
    }

    /// Object-store style listing (S3 ListObjectsV2 over the virtual
    /// namespace): walks the subtree under `root`, reporting every file as
    /// a `/`-joined key relative to `root`. Keys are filtered by `prefix`;
    /// with a `delimiter`, everything after the first delimiter past the
    /// prefix collapses into a common prefix (S3's "virtual folders").
    /// Authorization is a single Lookup check at `root` — the bucket is
    /// the unit of access, exactly as a lot is the unit of space.
    pub fn list_objects(
        &self,
        who: &Principal,
        protocol: &str,
        root: &VPath,
        prefix: &str,
        delimiter: Option<&str>,
    ) -> Result<ObjectListing> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Lookup, root, protocol, "list")?;
            let mut out = ObjectListing::default();
            self.walk_objects(root, "", prefix, delimiter, &mut out)?;
            out.objects.sort_by(|a, b| a.key.cmp(&b.key));
            out.common_prefixes.sort();
            out.common_prefixes.dedup();
            Ok(out)
        })();
        self.note_meta(t);
        r
    }

    fn walk_objects(
        &self,
        dir: &VPath,
        rel: &str,
        prefix: &str,
        delimiter: Option<&str>,
        out: &mut ObjectListing,
    ) -> Result<()> {
        let mut names = self.backend.list(dir)?;
        names.sort();
        for name in names {
            let key = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            let child = dir.join(&name)?;
            let st = self.backend.stat(&child)?;
            match st.kind {
                FileKind::File => {
                    if !key.starts_with(prefix) {
                        continue;
                    }
                    match delimiter.and_then(|d| key[prefix.len()..].find(d).map(|i| (i, d))) {
                        Some((i, d)) => {
                            let cut = prefix.len() + i + d.len();
                            out.common_prefixes.push(key[..cut].to_owned());
                        }
                        None => out.objects.push(ObjectEntry { key, size: st.size }),
                    }
                }
                FileKind::Dir => {
                    // Prune subtrees that can't contain matching keys, and
                    // collapse whole subtrees that fall past a delimiter.
                    let dir_key = format!("{key}/");
                    if dir_key.starts_with(prefix) {
                        // Search the slash-terminated form so an *empty*
                        // directory still rolls up to its common prefix
                        // (an empty bucket must appear in ListBuckets).
                        // `prefix == dir_key` leaves no remainder; `get`
                        // sidesteps the out-of-range slice.
                        let roll = dir_key
                            .get(prefix.len()..)
                            .and_then(|rest| delimiter.and_then(|d| rest.find(d).map(|i| (i, d))));
                        if let Some((i, d)) = roll {
                            let cut = prefix.len() + i + d.len();
                            out.common_prefixes.push(dir_key[..cut].to_owned());
                            continue;
                        }
                        self.walk_objects(&child, &key, prefix, delimiter, out)?;
                    } else if prefix.starts_with(&dir_key) {
                        self.walk_objects(&child, &key, prefix, delimiter, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Stats a path.
    pub fn stat(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<FileStat> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Lookup, path, protocol, "stat")?;
            Ok(self.backend.stat(path)?)
        })();
        self.note_meta(t);
        r
    }

    /// Deletes a file, releasing its lot charges.
    pub fn remove(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<()> {
        let t = Instant::now();
        let r = (|| {
            self.authorize(who, AccessRight::Delete, path, protocol, "remove")?;
            self.backend.remove(path)?;
            if self.enforce_lots {
                self.lots.release_file(path);
                self.journal(&[LotKey::Path(path)])?;
            }
            Ok(())
        })();
        self.note_meta(t);
        r
    }

    /// Renames a file or directory, carrying lot charges with it.
    pub fn rename(&self, who: &Principal, protocol: &str, from: &VPath, to: &VPath) -> Result<()> {
        let t = Instant::now();
        let r = self.rename_inner(who, protocol, from, to);
        self.note_meta(t);
        r
    }

    fn rename_inner(
        &self,
        who: &Principal,
        protocol: &str,
        from: &VPath,
        to: &VPath,
    ) -> Result<()> {
        self.authorize(who, AccessRight::Delete, from, protocol, "rename")?;
        self.authorize(who, AccessRight::Insert, to, protocol, "rename")?;
        self.backend.rename(from, to)?;
        if self.enforce_lots {
            // Re-key the lot charge: release and re-charge under the new
            // name is unsafe (could fail); instead the lot manager keys by
            // path, so we emulate a move by releasing and recharging only
            // in the accounting (always succeeds because the bytes were
            // already charged).
            let bytes = self.lots.release_file(from);
            if bytes > 0 {
                // Recharge under the new path against the same owner's
                // lots; tolerate failure by restoring nothing (data is
                // still within the user's total charge envelope).
                let groups = who.groups.clone();
                let charged = self
                    .lots
                    .charge_file(&who.user, &groups, to, bytes, self.now())
                    .unwrap_or_default();
                self.journal(&path_keys(&[from, to], &charged))?;
            }
        }
        Ok(())
    }

    // -- transfer admission (paper §2.2) ----------------------------------

    /// Admits an incoming file transfer: checks ACLs, charges the lot, and
    /// creates the file. Called synchronously by the dispatcher before the
    /// transfer manager takes over the data flow.
    pub fn begin_put(
        &self,
        who: &Principal,
        protocol: &str,
        path: &VPath,
        size_hint: u64,
    ) -> Result<()> {
        let exists = self.backend.stat(path).is_ok();
        let right = if exists {
            AccessRight::Write
        } else {
            AccessRight::Insert
        };
        self.authorize(who, right, path, protocol, "put")?;
        let r = self.put_admitted(who, path, size_hint, exists);
        // The old charge may be gone even when the new one failed.
        let journaled = if self.enforce_lots {
            let charged = r.as_deref().unwrap_or_default();
            self.journal(&path_keys(&[path], charged))
        } else {
            Ok(())
        };
        r.map(drop).and(journaled.map_err(StorageError::Io))
    }

    /// [`Self::begin_put`] past its ACL check; returns the lots charged.
    fn put_admitted(
        &self,
        who: &Principal,
        path: &VPath,
        size_hint: u64,
        exists: bool,
    ) -> Result<Vec<LotId>> {
        // Overwrite semantics: the old version's charge is released before
        // the new hint is charged, so an in-place overwrite of a
        // lot-filling file succeeds.
        if exists && self.enforce_lots {
            self.lots.release_file(path);
        }
        let mut charged = Vec::new();
        if self.enforce_lots && size_hint > 0 {
            charged = self
                .lots
                .charge_file(&who.user, &who.groups, path, size_hint, self.now())?;
        }
        if exists {
            self.backend.truncate(path, 0)?;
        } else if let Err(e) = self.backend.create(path) {
            if self.enforce_lots && size_hint > 0 {
                self.lots.release_file(path);
            }
            return Err(e.into());
        }
        Ok(charged)
    }

    /// Aborts an admitted PUT whose transfer failed: best-effort removal of
    /// the partial file and release of its lot charge, so a failed transfer
    /// leaves neither stray data nor a residual charge against the user's
    /// lot. Safe to call whether or not any chunks were written; errors from
    /// the backend (e.g. the file was never created) are swallowed because
    /// abort runs on an already-failed path.
    pub fn abort_put(&self, path: &VPath) {
        let _ = self.backend.remove(path);
        if self.enforce_lots {
            self.lots.release_file(path);
            let _ = self.journal(&[LotKey::Path(path)]);
        }
        self.refresh_gauges();
    }

    /// Truncates an admitted PUT's partial bytes for a retry from offset
    /// zero (the transfer layer's `reset` path).
    pub fn truncate_for_retry(&self, path: &VPath) -> Result<()> {
        Ok(self.backend.truncate(path, 0)?)
    }

    /// Sets a file's size (NFS SETATTR): checks the Write right, then
    /// truncates. Truncating to zero releases the file's lot charge.
    pub fn truncate(&self, who: &Principal, protocol: &str, path: &VPath, size: u64) -> Result<()> {
        self.authorize(who, AccessRight::Write, path, protocol, "truncate")?;
        self.backend.truncate(path, size)?;
        if size == 0 && self.enforce_lots {
            self.lots.release_file(path);
            self.journal(&[LotKey::Path(path)])?;
        }
        Ok(())
    }

    /// Admits a write into part of an existing file (an NFS block write):
    /// checks the Write right. [`Self::write_chunk`] then charges growth.
    pub fn begin_write(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<()> {
        self.authorize(who, AccessRight::Write, path, protocol, "write")
    }

    /// Admits an outgoing transfer of a whole object or of part of it (an
    /// NFS block read): checks the Read right and returns the file size.
    /// Touches the backing lots for LRU accounting.
    pub fn begin_get(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<u64> {
        self.authorize(who, AccessRight::Read, path, protocol, "get")?;
        let st = self.backend.stat(path)?;
        if st.kind != FileKind::File {
            return Err(StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a file",
            )));
        }
        if self.enforce_lots {
            self.lots.touch_file(path, self.now());
        }
        Ok(st.size)
    }

    /// Writes a chunk during an admitted transfer, charging lots for growth
    /// beyond the admission hint (streaming protocols do not always know
    /// the final size up front). The charge grows to the chunk's end in
    /// one lot-table call, so racing writes that extend one file charge
    /// its final size, not the sum of their growths.
    pub fn write_chunk(
        &self,
        who: &Principal,
        path: &VPath,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        if self.enforce_lots {
            let current = self.backend.stat(path).map(|s| s.size).unwrap_or(0);
            let new_end = offset + data.len() as u64;
            if new_end > current {
                let lots =
                    self.lots
                        .charge_file_to(&who.user, &who.groups, path, new_end, self.now())?;
                if !lots.is_empty() {
                    self.journal(&path_keys(&[path], &lots))?;
                }
            }
        }
        let t = Instant::now();
        let r = self.backend.write_at(path, offset, data);
        if let Some(m) = &self.metrics {
            m.write_us.record(t.elapsed());
        }
        Ok(r?)
    }

    /// Reads a chunk from the backend during an admitted transfer.
    pub fn read_chunk(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let t = Instant::now();
        let r = self.backend.read_at(path, offset, buf);
        if let Some(m) = &self.metrics {
            m.read_us.record(t.elapsed());
        }
        Ok(r?)
    }

    /// Grants a raw-descriptor read lease for an *already admitted* GET
    /// (same trust boundary as [`Self::read_chunk`]: authorization
    /// happened in [`Self::begin_get`]). `None`
    /// when the backend has no descriptors to lend — the caller falls back
    /// to `read_chunk`.
    pub fn read_lease(&self, path: &VPath) -> Option<crate::backend::ReadLease> {
        self.backend.read_lease(path)
    }

    /// The backend's lease-invalidation epoch; see
    /// [`StorageBackend::lease_epoch`].
    pub fn lease_epoch(&self) -> Option<u64> {
        self.backend.lease_epoch()
    }

    // -- lot operations (reachable via Chirp only, per the paper) ----------

    /// Administrative lot grant, bypassing the caller-identity checks —
    /// how "system administrators ... make a set of default lots for
    /// users" (including the anonymous user backing NFS/HTTP/FTP writes).
    pub fn admin_grant_lot(&self, owner: LotOwner, capacity: u64, duration: u64) -> Result<LotId> {
        let (id, evicted) = self.lots.create(owner, capacity, duration, self.now())?;
        self.apply_evictions(id, &evicted)?;
        Ok(id)
    }

    /// Creates a lot for a user. Requires authentication (anonymous
    /// principals may not hold lots).
    pub fn lot_create(&self, who: &Principal, capacity: u64, duration: u64) -> Result<LotId> {
        if who.is_anonymous() {
            return Err(StorageError::Denied);
        }
        let (id, evicted) = self.lots.create(
            LotOwner::User(who.user.clone()),
            capacity,
            duration,
            self.now(),
        )?;
        self.apply_evictions(id, &evicted)?;
        Ok(id)
    }

    /// Creates a group lot (administrators or group members).
    pub fn lot_create_group(
        &self,
        who: &Principal,
        group: &str,
        capacity: u64,
        duration: u64,
    ) -> Result<LotId> {
        if who.is_anonymous() || !who.groups.contains(group) {
            return Err(StorageError::Denied);
        }
        let (id, evicted) = self.lots.create(
            LotOwner::Group(group.to_owned()),
            capacity,
            duration,
            self.now(),
        )?;
        self.apply_evictions(id, &evicted)?;
        Ok(id)
    }

    /// Renews a lot the caller may use.
    pub fn lot_renew(&self, who: &Principal, id: LotId, extra: u64) -> Result<()> {
        self.check_lot_owner(who, id)?;
        self.lots.renew(id, extra, self.now())?;
        Ok(self.journal(&[LotKey::Lot(id)])?)
    }

    /// Terminates a lot the caller may use, deleting its files.
    pub fn lot_terminate(&self, who: &Principal, id: LotId) -> Result<()> {
        self.check_lot_owner(who, id)?;
        let evicted = self.lots.terminate(id)?;
        Ok(self.apply_evictions(id, &evicted)?)
    }

    /// Stats a lot.
    pub fn lot_stat(&self, who: &Principal, id: LotId) -> Result<Lot> {
        self.check_lot_owner(who, id)?;
        Ok(self.lots.stat(id)?)
    }

    /// Lists the caller's lots.
    pub fn lot_list(&self, who: &Principal) -> Vec<Lot> {
        self.lots.lots_for(&who.user, &who.groups)
    }

    fn check_lot_owner(&self, who: &Principal, id: LotId) -> Result<()> {
        let lot = self.lots.stat(id)?;
        if lot.owner.usable_by(&who.user, &who.groups) {
            Ok(())
        } else {
            Err(StorageError::Denied)
        }
    }

    // -- ACL administration ------------------------------------------------

    /// Replaces a directory's ACL (requires the Admin right there).
    pub fn set_acl(
        &self,
        who: &Principal,
        protocol: &str,
        dir: &VPath,
        entries: Vec<AclEntry>,
    ) -> Result<()> {
        self.authorize(who, AccessRight::Admin, dir, protocol, "setacl")?;
        self.acl.set_acl(dir.clone(), entries);
        Ok(())
    }

    /// Reads the effective ACL for a path (requires Lookup).
    pub fn get_acl(&self, who: &Principal, protocol: &str, path: &VPath) -> Result<Vec<AclEntry>> {
        self.authorize(who, AccessRight::Lookup, path, protocol, "getacl")?;
        Ok(self.acl.effective_acl(path))
    }

    // -- resource publication (paper §2.1: dispatcher publishes a ClassAd) --

    /// Builds the storage ad NeST publishes into the discovery system.
    pub fn storage_ad(&self, name: &str, protocols: &[&str]) -> ClassAd {
        let now = self.now();
        let mut ad = ClassAd::new();
        ad.insert_value("Type", Value::str("Storage"));
        ad.insert_value("Name", Value::str(name));
        ad.insert_value("TotalSpace", Value::Int(self.lots.total_capacity() as i64));
        ad.insert_value(
            "GuaranteedSpace",
            Value::Int(self.lots.guaranteed(now) as i64),
        );
        ad.insert_value("FreeSpace", Value::Int(self.lots.reservable(now) as i64));
        ad.insert_value(
            "UsedSpace",
            Value::Int(self.backend.used_bytes().unwrap_or(0) as i64),
        );
        ad.insert_value(
            "Protocols",
            Value::List(protocols.iter().map(|p| Value::str(*p)).collect()),
        );
        ad.insert(
            "Requirements",
            nest_classad::parse_expr(
                "other.Type == \"StorageRequest\" && other.NeedSpace <= my.FreeSpace",
            )
            .expect("static expression parses"),
        );
        ad
    }
}

/// Journal keys for `paths` and the lots a charge of them stamped: a
/// charge changes its lots' `last_access` even when a racing release
/// leaves the path backed by none of them.
fn path_keys<'a>(paths: &[&'a VPath], charged: &[LotId]) -> Vec<LotKey<'a>> {
    paths
        .iter()
        .map(|p| LotKey::Path(p))
        .chain(charged.iter().copied().map(LotKey::Lot))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Who;
    use crate::backend::MemBackend;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn open_manager(capacity: u64) -> StorageManager {
        StorageManager::new(
            Arc::new(MemBackend::new()),
            AclTable::open_by_default(),
            capacity,
            ReclaimPolicy::ExpiredFirst,
        )
    }

    fn alice() -> Principal {
        Principal::user("alice")
    }

    #[test]
    fn mkdir_list_stat_remove_cycle() {
        let sm = open_manager(1 << 20);
        let who = alice();
        sm.mkdir(&who, "chirp", &vp("/d")).unwrap();
        sm.lot_create(&who, 1000, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/d/f"), 5).unwrap();
        sm.write_chunk(&who, &vp("/d/f"), 0, b"hello").unwrap();
        assert_eq!(sm.list(&who, "chirp", &vp("/d")).unwrap(), ["f"]);
        assert_eq!(sm.stat(&who, "chirp", &vp("/d/f")).unwrap().size, 5);
        sm.remove(&who, "chirp", &vp("/d/f")).unwrap();
        sm.rmdir(&who, "chirp", &vp("/d")).unwrap();
    }

    #[test]
    fn list_objects_prefix_and_delimiter_semantics() {
        let sm = open_manager(1 << 20);
        let who = alice();
        sm.lot_create(&who, 1 << 16, 3600).unwrap();
        sm.mkdir(&who, "s3", &vp("/b")).unwrap();
        sm.mkdir(&who, "s3", &vp("/b/logs")).unwrap();
        sm.mkdir(&who, "s3", &vp("/b/logs/2026")).unwrap();
        for (path, len) in [
            ("/b/top.txt", 3usize),
            ("/b/logs/app.log", 5),
            ("/b/logs/2026/jan.log", 7),
        ] {
            sm.begin_put(&who, "s3", &vp(path), len as u64).unwrap();
            sm.write_chunk(&who, &vp(path), 0, &vec![b'x'; len])
                .unwrap();
        }

        // Flat recursive listing: every file as a slash-joined key.
        let all = sm.list_objects(&who, "s3", &vp("/b"), "", None).unwrap();
        let keys: Vec<&str> = all.objects.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(keys, ["logs/2026/jan.log", "logs/app.log", "top.txt"]);
        assert_eq!(all.objects[2].size, 3);
        assert!(all.common_prefixes.is_empty());

        // Delimiter rolls the subtree up into one common prefix.
        let rolled = sm
            .list_objects(&who, "s3", &vp("/b"), "", Some("/"))
            .unwrap();
        let keys: Vec<&str> = rolled.objects.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(keys, ["top.txt"]);
        assert_eq!(rolled.common_prefixes, ["logs/"]);

        // Prefix descends into the subtree; delimiter applies past it.
        let under = sm
            .list_objects(&who, "s3", &vp("/b"), "logs/", Some("/"))
            .unwrap();
        let keys: Vec<&str> = under.objects.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(keys, ["logs/app.log"]);
        assert_eq!(under.common_prefixes, ["logs/2026/"]);

        // A prefix that matches nothing returns an empty listing.
        let none = sm
            .list_objects(&who, "s3", &vp("/b"), "zzz", Some("/"))
            .unwrap();
        assert!(none.objects.is_empty() && none.common_prefixes.is_empty());
    }

    #[test]
    fn acl_denies_across_operations() {
        let backend = Arc::new(MemBackend::new());
        let acl = AclTable::new();
        acl.set_acl(
            VPath::root(),
            vec![AclEntry::new(Who::User("alice".into()), "rl")],
        );
        let sm = StorageManager::new(backend, acl, 1 << 20, ReclaimPolicy::ExpiredFirst);
        let who = alice();
        // alice can look but not insert.
        assert!(matches!(
            sm.mkdir(&who, "chirp", &vp("/d")),
            Err(StorageError::Denied)
        ));
        assert!(sm.list(&who, "chirp", &VPath::root()).is_ok());
        // bob can do nothing.
        let bob = Principal::user("bob");
        assert!(matches!(
            sm.list(&bob, "chirp", &VPath::root()),
            Err(StorageError::Denied)
        ));
    }

    #[test]
    fn put_requires_lot_when_enforced() {
        let sm = open_manager(1000);
        let who = alice();
        match sm.begin_put(&who, "chirp", &vp("/f"), 100) {
            Err(StorageError::Lot(LotError::NoLot(_))) => {}
            other => panic!("unexpected: {:?}", other.map(|_| ())),
        }
        sm.lot_create(&who, 500, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/f"), 100).unwrap();
    }

    #[test]
    fn put_without_enforcement_needs_no_lot() {
        let sm = open_manager(1000).with_lots_disabled();
        let who = alice();
        sm.begin_put(&who, "chirp", &vp("/f"), 100).unwrap();
        sm.write_chunk(&who, &vp("/f"), 0, &[7; 100]).unwrap();
    }

    #[test]
    fn streaming_growth_charges_incrementally() {
        let sm = open_manager(1000);
        let who = alice();
        sm.lot_create(&who, 300, 3600).unwrap();
        // Admit with no size hint, then stream 3 chunks of 100.
        sm.begin_put(&who, "ftp", &vp("/s"), 0).unwrap();
        for i in 0..3u64 {
            sm.write_chunk(&who, &vp("/s"), i * 100, &[1; 100]).unwrap();
        }
        // A fourth chunk exceeds the 300-byte lot.
        match sm.write_chunk(&who, &vp("/s"), 300, &[1; 100]) {
            Err(StorageError::Lot(LotError::InsufficientSpace { .. })) => {}
            other => panic!("unexpected: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn remove_releases_lot_space() {
        let sm = open_manager(1000);
        let who = alice();
        let lot = sm.lot_create(&who, 300, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/f"), 300).unwrap();
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 300);
        sm.remove(&who, "chirp", &vp("/f")).unwrap();
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 0);
        // Space is usable again.
        sm.begin_put(&who, "chirp", &vp("/g"), 300).unwrap();
    }

    #[test]
    fn overwrite_put_releases_old_charge() {
        let sm = open_manager(1000);
        let who = alice();
        let lot = sm.lot_create(&who, 300, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/f"), 200).unwrap();
        sm.write_chunk(&who, &vp("/f"), 0, &[1; 200]).unwrap();
        // Overwrite with a new 250-byte version: old 200 released first.
        sm.begin_put(&who, "chirp", &vp("/f"), 250).unwrap();
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 250);
        assert_eq!(sm.stat(&who, "chirp", &vp("/f")).unwrap().size, 0);
    }

    #[test]
    fn anonymous_cannot_hold_lots() {
        let sm = open_manager(1000);
        assert!(matches!(
            sm.lot_create(&Principal::anonymous(), 10, 10),
            Err(StorageError::Denied)
        ));
    }

    #[test]
    fn lot_operations_respect_ownership() {
        let sm = open_manager(1000);
        let a = alice();
        let b = Principal::user("bob");
        let id = sm.lot_create(&a, 100, 3600).unwrap();
        assert!(matches!(sm.lot_stat(&b, id), Err(StorageError::Denied)));
        assert!(matches!(
            sm.lot_renew(&b, id, 10),
            Err(StorageError::Denied)
        ));
        assert!(matches!(
            sm.lot_terminate(&b, id),
            Err(StorageError::Denied)
        ));
        sm.lot_terminate(&a, id).unwrap();
    }

    #[test]
    fn lot_terminate_deletes_backing_files() {
        let sm = open_manager(1000);
        let who = alice();
        let id = sm.lot_create(&who, 500, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/f"), 100).unwrap();
        sm.write_chunk(&who, &vp("/f"), 0, &[9; 100]).unwrap();
        sm.lot_terminate(&who, id).unwrap();
        assert!(sm.stat(&who, "chirp", &vp("/f")).is_err());
    }

    #[test]
    fn expiry_under_injected_clock() {
        let now = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&now);
        let sm = open_manager(1000).with_clock(Arc::new(move || n2.load(Ordering::Relaxed)));
        let who = alice();
        let id = sm.lot_create(&who, 600, 10).unwrap();
        sm.begin_put(&who, "chirp", &vp("/data"), 600).unwrap();
        sm.write_chunk(&who, &vp("/data"), 0, &[1; 600]).unwrap();
        // Advance past expiry: data still readable (best-effort)...
        now.store(20, Ordering::Relaxed);
        assert_eq!(sm.begin_get(&who, "chirp", &vp("/data")).unwrap(), 600);
        // ...until bob's new lot forces reclamation.
        let bob = Principal::user("bob");
        sm.lot_create(&bob, 600, 100).unwrap();
        assert!(sm.begin_get(&who, "chirp", &vp("/data")).is_err());
        assert!(sm.lot_stat(&who, id).is_err());
    }

    #[test]
    fn begin_get_rejects_directories() {
        let sm = open_manager(1000);
        let who = alice();
        sm.mkdir(&who, "chirp", &vp("/d")).unwrap();
        assert!(sm.begin_get(&who, "chirp", &vp("/d")).is_err());
    }

    #[test]
    fn storage_ad_reflects_state() {
        let sm = open_manager(10_000);
        let who = alice();
        sm.lot_create(&who, 4_000, 3600).unwrap();
        let ad = sm.storage_ad("turkey", &["chirp", "nfs"]);
        assert_eq!(ad.eval("TotalSpace"), Value::Int(10_000));
        assert_eq!(ad.eval("GuaranteedSpace"), Value::Int(4_000));
        assert_eq!(ad.eval("FreeSpace"), Value::Int(6_000));
        // The ad matches a fitting request and rejects an oversized one.
        let mut req = ClassAd::new();
        req.insert_value("Type", Value::str("StorageRequest"));
        req.insert_value("NeedSpace", Value::Int(5_000));
        assert!(nest_classad::matches(&ad, &req));
        req.insert_value("NeedSpace", Value::Int(50_000));
        assert!(!nest_classad::matches(&ad, &req));
    }

    #[test]
    fn set_acl_requires_admin() {
        let backend = Arc::new(MemBackend::new());
        let acl = AclTable::new();
        acl.set_acl(
            VPath::root(),
            vec![
                AclEntry::new(Who::User("root".into()), "all"),
                AclEntry::new(Who::User("alice".into()), "rl"),
            ],
        );
        let sm = StorageManager::new(backend, acl, 1000, ReclaimPolicy::ExpiredFirst);
        let entries = vec![AclEntry::new(Who::Everyone, "rl")];
        assert!(matches!(
            sm.set_acl(&alice(), "chirp", &VPath::root(), entries.clone()),
            Err(StorageError::Denied)
        ));
        sm.set_acl(&Principal::user("root"), "chirp", &VPath::root(), entries)
            .unwrap();
        // Now everyone can look.
        assert!(sm
            .get_acl(&Principal::user("carol"), "chirp", &vp("/x"))
            .is_ok());
    }

    #[test]
    fn storage_errors_map_to_protocol_classes() {
        use crate::namespace::PathError;
        let cases: Vec<(StorageError, NestError)> = vec![
            (StorageError::Denied, NestError::Denied),
            (
                StorageError::Path(PathError::Escapes),
                NestError::BadRequest,
            ),
            (
                StorageError::Lot(LotError::NoLot("ghost".into())),
                NestError::NoSpace,
            ),
            (StorageError::Lot(LotError::NotOwner), NestError::Denied),
            (
                StorageError::Lot(LotError::NoSuchLot(LotId(9))),
                NestError::NotFound,
            ),
            (
                StorageError::Io(io::Error::from(io::ErrorKind::NotFound)),
                NestError::NotFound,
            ),
            (
                StorageError::Io(io::Error::from(io::ErrorKind::AlreadyExists)),
                NestError::Exists,
            ),
            (
                StorageError::Io(io::Error::from(io::ErrorKind::InvalidInput)),
                NestError::Invalid,
            ),
            (
                StorageError::Io(io::Error::from(io::ErrorKind::Other)),
                NestError::Internal,
            ),
        ];
        for (se, ne) in cases {
            assert_eq!(NestError::from(&se), ne, "{:?}", se);
        }
    }

    #[test]
    fn instrumented_manager_reports_latencies_and_occupancy() {
        let obs = nest_obs::Obs::new();
        let sm = open_manager(10_000).with_obs(&obs);
        let who = alice();
        sm.lot_create(&who, 4_000, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/f"), 1_000).unwrap();
        sm.write_chunk(&who, &vp("/f"), 0, &[1; 1_000]).unwrap();
        let mut buf = [0u8; 16];
        sm.read_chunk(&vp("/f"), 0, &mut buf).unwrap();
        sm.stat(&who, "chirp", &vp("/f")).unwrap();
        sm.refresh_gauges();
        let snap = obs.snapshot();
        assert_eq!(snap.count("storage.lot.capacity_bytes"), 10_000);
        assert_eq!(snap.count("storage.lot.guaranteed_bytes"), 4_000);
        assert_eq!(snap.count("storage.lot.committed_bytes"), 1_000);
        assert_eq!(snap.count("storage.lot.count"), 1);
        assert!(snap.latency_count("storage.meta_us") >= 1);
        assert!(snap.latency_count("storage.read_us") >= 1);
        assert!(snap.latency_count("storage.write_us") >= 1);
    }

    #[test]
    fn abort_put_releases_lot_charge() {
        let sm = open_manager(1000);
        let who = alice();
        let lot = sm.lot_create(&who, 600, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/doomed"), 500).unwrap();
        sm.write_chunk(&who, &vp("/doomed"), 0, &[9; 500]).unwrap();
        sm.abort_put(&vp("/doomed"));
        assert!(sm.stat(&who, "chirp", &vp("/doomed")).is_err());
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 0);
    }

    #[test]
    fn rename_moves_lot_charge() {
        let sm = open_manager(1000);
        let who = alice();
        let lot = sm.lot_create(&who, 300, 3600).unwrap();
        sm.begin_put(&who, "chirp", &vp("/old"), 100).unwrap();
        sm.write_chunk(&who, &vp("/old"), 0, &[1; 100]).unwrap();
        sm.rename(&who, "chirp", &vp("/old"), &vp("/new")).unwrap();
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 100);
        sm.remove(&who, "chirp", &vp("/new")).unwrap();
        assert_eq!(sm.lot_stat(&who, lot).unwrap().used, 0);
    }
}
