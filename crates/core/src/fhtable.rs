//! NFS file-handle table: opaque 32-byte handles ↔ virtual paths.
//!
//! Handles carry a 64-bit id and a generation tag. When a path is removed
//! and its id later reused, the generation differs and stale handles are
//! answered with `NFSERR_STALE`, as a correct NFS server must.
//!
//! ## Locking
//!
//! Both directions of the map, the id allocator and the generation tag
//! sit behind one `core.fhtable` mutex, taken once per call. Ids are
//! never reused.

use nest_proto::nfs::FileHandle;
use nest_storage::VPath;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Everything behind the table lock.
#[derive(Debug)]
struct Table {
    by_path: HashMap<VPath, u64>,
    by_id: HashMap<u64, (VPath, u64)>,
    /// Next id to allocate; ids are never reused.
    next_id: u64,
    /// Generation tag for newly allocated handles; bumped on every
    /// `forget` so recreated paths get distinguishable handles.
    generation: u64,
}

/// The handle table.
#[derive(Debug)]
pub struct FhTable {
    table: Mutex<Table>,
}

impl Default for FhTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FhTable {
    /// Creates a table whose id 1 is the root directory.
    pub fn new() -> Self {
        Self {
            table: Mutex::named(
                "core.fhtable",
                110,
                Table {
                    by_path: HashMap::from([(VPath::root(), 1)]),
                    by_id: HashMap::from([(1, (VPath::root(), 1))]),
                    next_id: 2,
                    generation: 1,
                },
            ),
        }
    }

    /// The root handle (what MOUNT returns).
    pub fn root(&self) -> FileHandle {
        FileHandle::from_id(1, 1)
    }

    /// Returns (allocating if needed) the handle for a path.
    pub fn handle_for(&self, path: &VPath) -> FileHandle {
        let mut t = self.table.lock();
        if let Some(&id) = t.by_path.get(path) {
            let generation = t.by_id.get(&id).map_or(0, |e| e.1);
            return FileHandle::from_id(id, generation);
        }
        let (id, generation) = (t.next_id, t.generation);
        t.next_id += 1;
        t.by_path.insert(path.clone(), id);
        t.by_id.insert(id, (path.clone(), generation));
        FileHandle::from_id(id, generation)
    }

    /// Resolves a handle to its path; `None` for unknown or stale
    /// handles.
    pub fn resolve(&self, fh: &FileHandle) -> Option<VPath> {
        let t = self.table.lock();
        let (path, generation) = t.by_id.get(&fh.id())?;
        if *generation != fh.generation() {
            return None;
        }
        Some(path.clone())
    }

    /// Forgets a path (on remove/rmdir); its handles become stale.
    pub fn forget(&self, path: &VPath) {
        let mut t = self.table.lock();
        if let Some(id) = t.by_path.remove(path) {
            t.by_id.remove(&id);
        }
        // Bump the generation so a recreated file at the same path gets a
        // distinguishable handle even if ids were ever reused.
        t.generation += 1;
    }

    /// Re-keys a path (on rename), keeping the same handle valid.
    pub fn rename(&self, from: &VPath, to: &VPath) {
        let mut t = self.table.lock();
        if let Some(id) = t.by_path.remove(from) {
            t.by_path.insert(to.clone(), id);
            if let Some(entry) = t.by_id.get_mut(&id) {
                entry.0 = to.clone();
            }
        }
    }

    /// The 32-bit file id NFS attributes report for a path.
    pub fn fileid(&self, path: &VPath) -> u32 {
        (self.handle_for(path).id() & 0xFFFF_FFFF) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn root_is_stable() {
        let t = FhTable::new();
        assert_eq!(t.root(), t.handle_for(&VPath::root()));
        assert_eq!(t.resolve(&t.root()), Some(VPath::root()));
    }

    #[test]
    fn same_path_same_handle() {
        let t = FhTable::new();
        let a = t.handle_for(&vp("/f"));
        let b = t.handle_for(&vp("/f"));
        assert_eq!(a, b);
        let c = t.handle_for(&vp("/g"));
        assert_ne!(a, c);
    }

    #[test]
    fn forget_makes_handles_stale() {
        let t = FhTable::new();
        let fh = t.handle_for(&vp("/f"));
        t.forget(&vp("/f"));
        assert_eq!(t.resolve(&fh), None);
        // A recreated file gets a fresh handle that resolves.
        let fh2 = t.handle_for(&vp("/f"));
        assert_ne!(fh, fh2);
        assert_eq!(t.resolve(&fh2), Some(vp("/f")));
    }

    #[test]
    fn rename_keeps_handle_valid() {
        let t = FhTable::new();
        let fh = t.handle_for(&vp("/old"));
        t.rename(&vp("/old"), &vp("/new"));
        assert_eq!(t.resolve(&fh), Some(vp("/new")));
        assert_eq!(t.handle_for(&vp("/new")), fh);
    }

    #[test]
    fn fileid_is_stable() {
        let t = FhTable::new();
        assert_eq!(t.fileid(&vp("/x")), t.fileid(&vp("/x")));
        assert_ne!(t.fileid(&vp("/x")), t.fileid(&vp("/y")));
    }

    #[test]
    fn many_handles_survive_rename_and_forget() {
        // The full protocol — allocate, resolve, rename, forget-staleness
        // — over many paths at once.
        let t = FhTable::new();
        let handles: Vec<_> = (0..32)
            .map(|i| t.handle_for(&vp(&format!("/f{}", i))))
            .collect();
        for (i, fh) in handles.iter().enumerate() {
            assert_eq!(t.resolve(fh), Some(vp(&format!("/f{}", i))));
        }
        for i in 0..32 {
            t.rename(&vp(&format!("/f{}", i)), &vp(&format!("/g{}", i)));
        }
        for (i, fh) in handles.iter().enumerate() {
            assert_eq!(t.resolve(fh), Some(vp(&format!("/g{}", i))));
        }
        t.forget(&vp("/g0"));
        assert_eq!(t.resolve(&handles[0]), None);
        assert_eq!(t.resolve(&handles[1]), Some(vp("/g1")));
    }

    #[test]
    fn concurrent_allocation_yields_unique_ids() {
        use std::sync::Arc;
        let t = Arc::new(FhTable::new());
        let mut joins = Vec::new();
        for thread in 0..8 {
            let t = Arc::clone(&t);
            joins.push(std::thread::spawn(move || {
                (0..64)
                    .map(|i| t.handle_for(&vp(&format!("/t{}/f{}", thread, i))).id())
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate handle ids allocated");
    }
}
