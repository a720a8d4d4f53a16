//! # nest-storage
//!
//! The NeST **storage manager** (paper §5). Its three roles, quoted from the
//! paper, are to "implement access control, virtualize the storage
//! namespace, and provide mechanisms for guaranteeing storage space."
//!
//! * [`namespace`] — virtual paths: every protocol-visible path is
//!   normalized and confined to the appliance's virtual root, so NeST can
//!   run over any physical storage element.
//! * [`backend`] — pluggable physical storage: a local filesystem directory
//!   ([`backend::LocalFsBackend`]) or main memory
//!   ([`backend::MemBackend`]). The paper uses the local filesystem and
//!   names raw disk and memory as planned alternatives.
//! * [`handle_cache`] — an LRU of open file descriptors keyed by virtual
//!   path, so steady-state chunk transfers pay zero `open(2)` calls
//!   (paper §7: approaching kernel-server performance in user space).
//! * [`acl`] — AFS-style access control lists built on ClassAds, enforced
//!   identically across every protocol.
//! * [`lot`] — storage-space guarantees: a *lot* has an owner, capacity,
//!   duration and a set of files; expired lots become *best-effort* (their
//!   files linger until space is reclaimed for new lots).
//! * [`lot_journal`] — lot state that survives a crash: a snapshot file
//!   plus an append-only, checksummed journal of every lot mutation.
//! * [`mem_tier`] — the actuating memory tier: a bounded, lot-aware RAM
//!   cache under the manager, promoting hot objects so they serve at
//!   memory speed regardless of OS page-cache churn.
//! * [`quota`] — the user-level quota accounting on which lots are
//!   implemented, mirroring the paper's use of the kernel quota system.
//! * [`manager`] — the [`manager::StorageManager`] façade the dispatcher
//!   calls: synchronous, serialized execution of all non-transfer requests.
//!
//! Storage-manager operations are synchronous by design: the paper notes
//! they complete in milliseconds, and the dispatcher serializes them.

pub mod acl;
pub mod backend;
pub mod handle_cache;
pub mod lot;
pub mod lot_journal;
pub mod manager;
pub mod mem_tier;
pub mod namespace;
pub mod quota;

pub use acl::{AccessRight, AclEntry, AclTable, Principal};
pub use backend::{FileKind, FileStat, LocalFsBackend, MemBackend, ReadLease, StorageBackend};
pub use handle_cache::{HandleCache, HandleCacheStats};
pub use lot::{Lot, LotError, LotId, LotKey, LotManager, ReclaimPolicy};
pub use lot_journal::{atomic_replace, LotJournal};
pub use manager::{ObjectEntry, ObjectListing, StorageError, StorageManager};
pub use mem_tier::{MemTier, MemTierStats};
pub use namespace::{PathError, VPath};
pub use quota::QuotaTable;
