//! Pluggable physical storage beneath the virtual namespace.
//!
//! The paper: "the storage manager has been designed to virtualize different
//! types of physical storage"; the 2002 implementation used the local
//! filesystem, with raw disk and memory as planned alternatives. We provide
//! the local filesystem ([`LocalFsBackend`]) and memory ([`MemBackend`]);
//! both present the same chunk-oriented [`StorageBackend`] trait so the rest
//! of NeST is oblivious to the physical medium.

use crate::handle_cache::{HandleCache, HandleCacheStats, Lookup};
use crate::namespace::VPath;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What kind of object a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// Metadata for a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
}

/// A shared open descriptor handed out for the zero-copy read path,
/// stamped with the handle cache's invalidation epoch at grant time.
///
/// The transfer layer may feed `file`'s raw fd straight into
/// `sendfile(2)` only while the lease is *current*: the holder must
/// compare `epoch` against [`StorageBackend::lease_epoch`] before every
/// use and re-acquire on mismatch, because a metadata mutation
/// (`remove`/`rename`/`truncate`/recreate) bumps the epoch precisely when
/// a cached descriptor may no longer describe the named file.
#[derive(Debug, Clone)]
pub struct ReadLease {
    /// The shared open handle. I/O through it must be positional.
    pub file: Arc<fs::File>,
    /// The backend's invalidation epoch when the lease was granted.
    pub epoch: u64,
}

/// The physical storage interface. Chunk-oriented (`read_at`/`write_at`)
/// rather than handle-oriented so that block protocols (NFS) map directly
/// and the transfer manager can move data in scheduler-quantum-sized chunks.
pub trait StorageBackend: Send + Sync + 'static {
    /// Creates an empty file; fails if it exists or the parent is missing.
    fn create(&self, path: &VPath) -> io::Result<()>;

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (0 at or past EOF).
    fn read_at(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes `data` at `offset`, extending (and zero-filling any gap in)
    /// the file as needed.
    fn write_at(&self, path: &VPath, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Truncates (or extends with zeros) to exactly `size` bytes.
    fn truncate(&self, path: &VPath, size: u64) -> io::Result<()>;

    /// Removes a file.
    fn remove(&self, path: &VPath) -> io::Result<()>;

    /// Renames a file or directory; fails if the destination exists.
    fn rename(&self, from: &VPath, to: &VPath) -> io::Result<()>;

    /// Creates a directory; parent must exist.
    fn mkdir(&self, path: &VPath) -> io::Result<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &VPath) -> io::Result<()>;

    /// Lists directory entries (names only, unsorted order unspecified).
    fn list(&self, path: &VPath) -> io::Result<Vec<String>>;

    /// Stats a path.
    fn stat(&self, path: &VPath) -> io::Result<FileStat>;

    /// Total bytes of file data stored (for ad publication).
    fn used_bytes(&self) -> io::Result<u64>;

    /// Grants a raw-descriptor read lease for the zero-copy path, or
    /// `None` when the medium has no descriptors (memory backends) or the
    /// file cannot be opened. Default: no zero-copy capability.
    fn read_lease(&self, _path: &VPath) -> Option<ReadLease> {
        None
    }

    /// The current lease-invalidation epoch, or `None` when the backend
    /// never grants leases. A [`ReadLease`] is current iff its stamped
    /// epoch equals this value.
    fn lease_epoch(&self) -> Option<u64> {
        None
    }

    /// Records `n` chunk spans served through a reused [`ReadLease`]
    /// without a per-chunk lookup, so descriptor-reuse accounting stays
    /// comparable between the pooled and zero-copy paths. Default: no-op
    /// (backends without leases have nothing to count).
    fn note_lease_hits(&self, _n: u64) {}
}

// ---------------------------------------------------------------------------
// Memory backend
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum MemNode {
    File(Vec<u8>),
    Dir,
}

/// An in-memory backend: a map from virtual path to node. Useful for tests
/// and for the paper's "physical memory" storage option.
#[derive(Debug)]
pub struct MemBackend {
    nodes: RwLock<BTreeMap<VPath, MemNode>>,
}

impl Default for MemBackend {
    fn default() -> Self {
        Self {
            nodes: RwLock::named("storage.backend.memfs", 330, BTreeMap::new()),
        }
    }
}

impl MemBackend {
    /// Creates an empty memory backend (the root directory always exists).
    pub fn new() -> Self {
        Self::default()
    }

    fn parent_exists(nodes: &BTreeMap<VPath, MemNode>, path: &VPath) -> bool {
        match path.parent() {
            None => true, // the root itself
            Some(p) if p.is_root() => true,
            Some(p) => matches!(nodes.get(&p), Some(MemNode::Dir)),
        }
    }
}

impl StorageBackend for MemBackend {
    fn create(&self, path: &VPath) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        if path.is_root() || nodes.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"));
        }
        if !Self::parent_exists(&nodes, path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "parent missing"));
        }
        nodes.insert(path.clone(), MemNode::File(Vec::new()));
        Ok(())
    }

    fn read_at(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let nodes = self.nodes.read();
        match nodes.get(path) {
            Some(MemNode::File(data)) => {
                let off = offset.min(data.len() as u64) as usize;
                let n = buf.len().min(data.len() - off);
                buf[..n].copy_from_slice(&data[off..off + n]);
                Ok(n)
            }
            Some(MemNode::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "is a directory",
            )),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn write_at(&self, path: &VPath, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        match nodes.get_mut(path) {
            Some(MemNode::File(contents)) => {
                let end = offset as usize + data.len();
                if contents.len() < end {
                    contents.resize(end, 0);
                }
                contents[offset as usize..end].copy_from_slice(data);
                Ok(())
            }
            Some(MemNode::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "is a directory",
            )),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn truncate(&self, path: &VPath, size: u64) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        match nodes.get_mut(path) {
            Some(MemNode::File(contents)) => {
                contents.resize(size as usize, 0);
                Ok(())
            }
            Some(MemNode::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "is a directory",
            )),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn remove(&self, path: &VPath) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        match nodes.get(path) {
            Some(MemNode::File(_)) => {
                nodes.remove(path);
                Ok(())
            }
            Some(MemNode::Dir) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "is a directory",
            )),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn rename(&self, from: &VPath, to: &VPath) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        if nodes.contains_key(to) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"));
        }
        if !Self::parent_exists(&nodes, to) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "parent missing"));
        }
        // Renaming a directory moves its whole subtree.
        let is_dir = matches!(nodes.get(from), Some(MemNode::Dir));
        let node = nodes
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        if is_dir {
            let children: Vec<VPath> = nodes
                .keys()
                .filter(|k| k.starts_with(from))
                .cloned()
                .collect();
            for child in children {
                let rel: Vec<String> = child.components()[from.depth()..].to_vec();
                let mut new_path = to.clone();
                for c in rel {
                    new_path = new_path.join(&c).expect("component already validated");
                }
                let v = nodes.remove(&child).unwrap();
                nodes.insert(new_path, v);
            }
        }
        nodes.insert(to.clone(), node);
        Ok(())
    }

    fn mkdir(&self, path: &VPath) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        if path.is_root() || nodes.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"));
        }
        if !Self::parent_exists(&nodes, path) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "parent missing"));
        }
        nodes.insert(path.clone(), MemNode::Dir);
        Ok(())
    }

    fn rmdir(&self, path: &VPath) -> io::Result<()> {
        let mut nodes = self.nodes.write();
        match nodes.get(path) {
            Some(MemNode::Dir) => {
                let has_children = nodes.keys().any(|k| k != path && k.starts_with(path));
                if has_children {
                    return Err(io::Error::new(
                        io::ErrorKind::DirectoryNotEmpty,
                        "directory not empty",
                    ));
                }
                nodes.remove(path);
                Ok(())
            }
            Some(MemNode::File(_)) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a directory",
            )),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such dir")),
        }
    }

    fn list(&self, path: &VPath) -> io::Result<Vec<String>> {
        let nodes = self.nodes.read();
        if !path.is_root() && !matches!(nodes.get(path), Some(MemNode::Dir)) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such dir"));
        }
        let depth = path.depth();
        Ok(nodes
            .keys()
            .filter(|k| k.depth() == depth + 1 && k.starts_with(path))
            .map(|k| k.file_name().unwrap().to_owned())
            .collect())
    }

    fn stat(&self, path: &VPath) -> io::Result<FileStat> {
        if path.is_root() {
            return Ok(FileStat {
                kind: FileKind::Dir,
                size: 0,
            });
        }
        let nodes = self.nodes.read();
        match nodes.get(path) {
            Some(MemNode::File(data)) => Ok(FileStat {
                kind: FileKind::File,
                size: data.len() as u64,
            }),
            Some(MemNode::Dir) => Ok(FileStat {
                kind: FileKind::Dir,
                size: 0,
            }),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such path")),
        }
    }

    fn used_bytes(&self) -> io::Result<u64> {
        let nodes = self.nodes.read();
        Ok(nodes
            .values()
            .map(|n| match n {
                MemNode::File(d) => d.len() as u64,
                MemNode::Dir => 0,
            })
            .sum())
    }
}

// ---------------------------------------------------------------------------
// Local filesystem backend
// ---------------------------------------------------------------------------

/// A backend rooted at a host directory. Virtual paths map beneath the root;
/// [`VPath`]'s invariants guarantee they cannot escape it.
///
/// Chunk I/O goes through an LRU [`HandleCache`] of open descriptors
/// (default capacity [`DEFAULT_HANDLE_CACHE_CAPACITY`]): steady-state
/// reads and writes are a single positional `pread`/`pwrite` on an
/// already-open, shared handle — no open, no seek, no close per chunk.
/// Every metadata mutation (`remove`, `rename`, `truncate`, recreate)
/// invalidates affected handles so a cached descriptor can never serve a
/// deleted file or clobber a renamed one. The [`MemBackend`] has no
/// descriptors and therefore bypasses the cache entirely.
#[derive(Debug)]
pub struct LocalFsBackend {
    root: PathBuf,
    handles: HandleCache,
}

/// Default bound on descriptors the handle cache keeps open.
pub const DEFAULT_HANDLE_CACHE_CAPACITY: usize = 128;

impl LocalFsBackend {
    /// Creates a backend rooted at `root`, creating the directory if absent.
    pub fn new(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            handles: HandleCache::new(DEFAULT_HANDLE_CACHE_CAPACITY),
        })
    }

    /// Bounds the handle cache to `capacity` open descriptors (at least
    /// one) — fd-budget sizing for hosts with tight fd limits.
    pub fn with_handle_cache_capacity(mut self, capacity: usize) -> Self {
        self.handles = HandleCache::new(capacity);
        self
    }

    /// Registers the `handlecache.*` instruments on an observability
    /// registry.
    pub fn with_obs(self, obs: &nest_obs::Obs) -> Self {
        self.handles.register_obs(obs);
        self
    }

    /// Handle-cache counters (hits/misses/evictions/open descriptors).
    pub fn handle_cache_stats(&self) -> HandleCacheStats {
        self.handles.stats()
    }

    fn host_path(&self, path: &VPath) -> PathBuf {
        let mut p = self.root.clone();
        for c in path.components() {
            p.push(c);
        }
        p
    }

    /// Resolves a (possibly cached) open handle for `path`. Misses open
    /// read-write when possible so one descriptor serves both directions;
    /// read lookups fall back to read-only for unwritable files. The
    /// returned handle is shared — I/O must be positional.
    fn handle_for(&self, path: &VPath, need_write: bool) -> io::Result<Arc<fs::File>> {
        match self.handles.lookup(path, need_write) {
            Lookup::Hit(file) => Ok(file),
            Lookup::Miss { epoch } => {
                let host = self.host_path(path);
                let (file, writable) =
                    // nestlint: allow(backend-open): this is the one open that feeds the handle cache
                    match fs::OpenOptions::new().read(true).write(true).open(&host) {
                        Ok(f) => (f, true),
                        Err(e) if !need_write && e.kind() == io::ErrorKind::PermissionDenied => {
                            // nestlint: allow(backend-open): read-only retry for unwritable files, still inserted into the cache
                            (fs::File::open(&host)?, false)
                        }
                        Err(e) => return Err(e),
                    };
                let file = Arc::new(file);
                self.handles
                    .insert(path, Arc::clone(&file), writable, epoch);
                Ok(file)
            }
        }
    }
}

/// Positional full-buffer read with short-read looping (`pread` on Unix;
/// a per-call handle with seek elsewhere, since shared seeks would race).
fn read_at_handle(file: &fs::File, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let mut filled = 0;
        while filled < buf.len() {
            match file.read_at(&mut buf[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        let mut filled = 0;
        while filled < buf.len() {
            match f.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }
}

/// Positional full-buffer write (`pwrite` on Unix). Writing past EOF
/// extends the file; skipped ranges read back as zeros, matching the
/// trait's sparse-write contract.
fn write_at_handle(file: &fs::File, offset: u64, data: &[u8]) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(data, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(data)
    }
}

impl StorageBackend for LocalFsBackend {
    fn create(&self, path: &VPath) -> io::Result<()> {
        // nestlint: allow(backend-open): create_new is a metadata op; it invalidates the cache below
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.host_path(path))
            .map(|_| ())?;
        // The name now means a brand-new (empty) file; no descriptor
        // opened under the old meaning may be cached.
        self.handles.invalidate(path);
        Ok(())
    }

    fn read_at(&self, path: &VPath, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let file = self.handle_for(path, false)?;
        read_at_handle(&file, offset, buf)
    }

    fn write_at(&self, path: &VPath, offset: u64, data: &[u8]) -> io::Result<()> {
        let file = self.handle_for(path, true)?;
        write_at_handle(&file, offset, data)
    }

    fn truncate(&self, path: &VPath, size: u64) -> io::Result<()> {
        // nestlint: allow(backend-open): truncate is a metadata op; it invalidates the cache below
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.host_path(path))?;
        f.set_len(size)?;
        // Conservative: a truncate usually precedes an overwrite; drop any
        // cached descriptor so the rewrite starts from a fresh lookup.
        self.handles.invalidate(path);
        Ok(())
    }

    fn remove(&self, path: &VPath) -> io::Result<()> {
        fs::remove_file(self.host_path(path))?;
        // A cached descriptor would pin the unlinked inode and happily
        // serve deleted bytes — drop it, and fence racing opens.
        self.handles.invalidate(path);
        Ok(())
    }

    fn rename(&self, from: &VPath, to: &VPath) -> io::Result<()> {
        let dst = self.host_path(to);
        if dst.exists() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"));
        }
        fs::rename(self.host_path(from), dst)?;
        // Both names changed meaning: `from` no longer exists and `to` is
        // a different inode than any descriptor cached under it.
        self.handles.invalidate(from);
        self.handles.invalidate(to);
        Ok(())
    }

    fn mkdir(&self, path: &VPath) -> io::Result<()> {
        fs::create_dir(self.host_path(path))
    }

    fn rmdir(&self, path: &VPath) -> io::Result<()> {
        fs::remove_dir(self.host_path(path))
    }

    fn list(&self, path: &VPath) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.host_path(path))? {
            let entry = entry?;
            out.push(entry.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    fn stat(&self, path: &VPath) -> io::Result<FileStat> {
        let md = fs::metadata(self.host_path(path))?;
        Ok(FileStat {
            kind: if md.is_dir() {
                FileKind::Dir
            } else {
                FileKind::File
            },
            size: if md.is_dir() { 0 } else { md.len() },
        })
    }

    fn read_lease(&self, path: &VPath) -> Option<ReadLease> {
        // Capture the epoch *before* resolving the handle: an invalidation
        // racing in between then makes the lease read as stale (forcing a
        // harmless re-acquire) rather than falsely current.
        let epoch = self.handles.epoch();
        let file = self.handle_for(path, false).ok()?;
        Some(ReadLease { file, epoch })
    }

    fn lease_epoch(&self) -> Option<u64> {
        Some(self.handles.epoch())
    }

    fn note_lease_hits(&self, n: u64) {
        self.handles.note_lease_hits(n);
    }

    fn used_bytes(&self) -> io::Result<u64> {
        fn walk(dir: &Path) -> io::Result<u64> {
            let mut total = 0;
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let md = entry.metadata()?;
                if md.is_dir() {
                    total += walk(&entry.path())?;
                } else {
                    total += md.len();
                }
            }
            Ok(total)
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    /// Exercises the full backend contract; run against both backends.
    fn backend_contract(b: &dyn StorageBackend) {
        // create / stat / write / read
        b.mkdir(&vp("/dir")).unwrap();
        b.create(&vp("/dir/file")).unwrap();
        assert_eq!(
            b.stat(&vp("/dir/file")).unwrap(),
            FileStat {
                kind: FileKind::File,
                size: 0
            }
        );
        b.write_at(&vp("/dir/file"), 0, b"hello world").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(b.read_at(&vp("/dir/file"), 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        // read past EOF
        assert_eq!(b.read_at(&vp("/dir/file"), 100, &mut buf).unwrap(), 0);
        // sparse write zero-fills the gap
        b.write_at(&vp("/dir/file"), 20, b"x").unwrap();
        assert_eq!(b.stat(&vp("/dir/file")).unwrap().size, 21);
        let mut gap = [9u8; 2];
        b.read_at(&vp("/dir/file"), 12, &mut gap).unwrap();
        assert_eq!(gap, [0, 0]);
        // truncate
        b.truncate(&vp("/dir/file"), 5).unwrap();
        assert_eq!(b.stat(&vp("/dir/file")).unwrap().size, 5);
        // list
        b.create(&vp("/dir/second")).unwrap();
        let mut names = b.list(&vp("/dir")).unwrap();
        names.sort();
        assert_eq!(names, ["file", "second"]);
        // rename
        b.rename(&vp("/dir/second"), &vp("/dir/renamed")).unwrap();
        assert!(b.stat(&vp("/dir/second")).is_err());
        assert!(b.stat(&vp("/dir/renamed")).is_ok());
        // rename onto existing fails
        assert!(b.rename(&vp("/dir/renamed"), &vp("/dir/file")).is_err());
        // rmdir refuses non-empty
        assert!(b.rmdir(&vp("/dir")).is_err());
        b.remove(&vp("/dir/file")).unwrap();
        b.remove(&vp("/dir/renamed")).unwrap();
        b.rmdir(&vp("/dir")).unwrap();
        assert!(b.stat(&vp("/dir")).is_err());
        // double create fails
        b.create(&vp("/f")).unwrap();
        assert!(b.create(&vp("/f")).is_err());
        // create under missing parent fails
        assert!(b.create(&vp("/missing/f")).is_err());
        // remove of missing fails
        assert!(b.remove(&vp("/nothing")).is_err());
        b.remove(&vp("/f")).unwrap();
        assert_eq!(b.used_bytes().unwrap(), 0);
    }

    #[test]
    fn mem_backend_contract() {
        backend_contract(&MemBackend::new());
    }

    #[test]
    fn localfs_backend_contract() {
        let dir = std::env::temp_dir().join(format!("nest-backend-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = LocalFsBackend::new(&dir).unwrap();
        backend_contract(&b);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_rename_moves_subtree() {
        let b = MemBackend::new();
        b.mkdir(&vp("/a")).unwrap();
        b.mkdir(&vp("/a/sub")).unwrap();
        b.create(&vp("/a/sub/f")).unwrap();
        b.write_at(&vp("/a/sub/f"), 0, b"data").unwrap();
        b.rename(&vp("/a"), &vp("/b")).unwrap();
        assert_eq!(b.stat(&vp("/b/sub/f")).unwrap().size, 4);
        assert!(b.stat(&vp("/a")).is_err());
    }

    #[test]
    fn mem_used_bytes_tracks_content() {
        let b = MemBackend::new();
        b.create(&vp("/x")).unwrap();
        b.write_at(&vp("/x"), 0, &[0u8; 1000]).unwrap();
        assert_eq!(b.used_bytes().unwrap(), 1000);
        b.truncate(&vp("/x"), 100).unwrap();
        assert_eq!(b.used_bytes().unwrap(), 100);
    }

    #[test]
    fn root_always_exists() {
        let b = MemBackend::new();
        assert_eq!(b.stat(&VPath::root()).unwrap().kind, FileKind::Dir);
        assert!(b.list(&VPath::root()).unwrap().is_empty());
    }
}
