//! Integration tests for the FD handle cache behind [`LocalFsBackend`].
//!
//! The cache must be invisible: every namespace mutation (rename, remove,
//! truncate, aborted PUT) has to invalidate cached handles so that no read
//! or write ever lands on a stale file object. And in steady state it must
//! actually work: chunked reads of a hot file open the file once.

use nest_storage::acl::{AclTable, Principal};
use nest_storage::backend::{LocalFsBackend, StorageBackend};
use nest_storage::lot::ReclaimPolicy;
use nest_storage::manager::StorageManager;
use nest_storage::namespace::VPath;
use std::path::PathBuf;
use std::sync::Arc;

/// Unique scratch dir per test (no tempfile crate in the container).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nest-hcache-it-{}-{}-{}",
        tag,
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn backend(tag: &str) -> LocalFsBackend {
    LocalFsBackend::new(scratch(tag)).unwrap()
}

fn vp(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

fn write_file(b: &LocalFsBackend, path: &VPath, data: &[u8]) {
    b.create(path).unwrap();
    b.write_at(path, 0, data).unwrap();
}

fn read_all(b: &LocalFsBackend, path: &VPath, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    let n = b.read_at(path, 0, &mut buf).unwrap();
    buf.truncate(n);
    buf
}

#[test]
fn rename_invalidates_both_names() {
    let b = backend("rename");
    let a = vp("/a.dat");
    let c = vp("/c.dat");
    write_file(&b, &a, b"old-a");
    // Warm the cache for the source name.
    assert_eq!(read_all(&b, &a, 16), b"old-a");

    b.rename(&a, &c).unwrap();

    // Destination reads the moved bytes (no stale-miss on the new name).
    assert_eq!(read_all(&b, &c, 16), b"old-a");
    // A new file created under the old name must not be served from the
    // pre-rename handle.
    write_file(&b, &a, b"new-a!");
    assert_eq!(read_all(&b, &a, 16), b"new-a!");
    // And the old name is genuinely a different file now.
    assert_eq!(read_all(&b, &c, 16), b"old-a");
}

#[test]
fn remove_then_recreate_does_not_serve_stale_handle() {
    let b = backend("remove");
    let f = vp("/f.dat");
    write_file(&b, &f, b"first version");
    assert_eq!(read_all(&b, &f, 32), b"first version");

    b.remove(&f).unwrap();
    assert!(b.read_at(&f, 0, &mut [0u8; 4]).is_err());

    write_file(&b, &f, b"second");
    assert_eq!(read_all(&b, &f, 32), b"second");
}

#[test]
fn truncate_mid_transfer_is_seen_by_cached_reader() {
    let b = backend("trunc");
    let f = vp("/big.dat");
    let payload = vec![0x5Au8; 4096];
    write_file(&b, &f, &payload);

    // Simulate a chunked GET in progress: first chunk read caches the FD.
    let mut chunk = vec![0u8; 1024];
    assert_eq!(b.read_at(&f, 0, &mut chunk).unwrap(), 1024);

    // Concurrent admin truncates the file under the transfer.
    b.truncate(&f, 512).unwrap();

    // Reads past the new EOF must observe the truncation, not stale cache.
    assert_eq!(b.read_at(&f, 1024, &mut chunk).unwrap(), 0);
    assert_eq!(b.read_at(&f, 0, &mut chunk).unwrap(), 512);
    // Truncate-extend back out: the zero fill is visible too.
    b.truncate(&f, 2048).unwrap();
    assert_eq!(b.read_at(&f, 0, &mut chunk).unwrap(), 1024);
    assert!(chunk[512..1024].iter().all(|&x| x == 0));
}

#[test]
fn abort_put_drops_partial_file_and_cached_handle() {
    let backend: Arc<dyn StorageBackend> = Arc::new(self::backend("abort"));
    let mgr = StorageManager::new(
        Arc::clone(&backend),
        AclTable::open_by_default(),
        1 << 20,
        ReclaimPolicy::Lru,
    )
    .with_lots_disabled();
    let who = Principal::user("alice");
    let f = vp("/partial.dat");

    // Admit a PUT and stream a couple of chunks (these cache the FD).
    mgr.begin_put(&who, "gridftp", &f, 4096).unwrap();
    mgr.write_chunk(&who, &f, 0, b"chunk-one").unwrap();
    mgr.write_chunk(&who, &f, 9, b"chunk-two").unwrap();

    // The transfer fails; abort must remove the partial file.
    mgr.abort_put(&f);
    assert!(backend.stat(&f).is_err());

    // A retry of the PUT starts from a clean slate — no resurrected bytes
    // from a stale cached handle.
    mgr.begin_put(&who, "gridftp", &f, 16).unwrap();
    mgr.write_chunk(&who, &f, 0, b"fresh").unwrap();
    let mut buf = vec![0u8; 64];
    let n = mgr.read_chunk(&f, 0, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"fresh");
}

#[test]
fn steady_state_chunked_read_opens_once() {
    let b = backend("steady");
    let f = vp("/hot.dat");
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    write_file(&b, &f, &payload);

    let before = b.handle_cache_stats();
    // A 64 KiB GET in 8 KiB NFS-block chunks: 8 reads, 1 open.
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 8192];
    let mut off = 0u64;
    loop {
        let n = b.read_at(&f, off, &mut chunk).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&chunk[..n]);
        off += n as u64;
    }
    assert_eq!(out, payload);

    let after = b.handle_cache_stats();
    // At most one open for the whole chunked read (the write that staged
    // the file may already have cached the handle); every chunk hits.
    assert!(after.misses - before.misses <= 1, "stats: {after:?}");
    assert!(after.hits - before.hits >= 8, "stats: {after:?}");
    assert!(after.open >= 1);
}

#[test]
fn capacity_zero_is_floored_to_one_descriptor() {
    let b = LocalFsBackend::new(scratch("floor"))
        .unwrap()
        .with_handle_cache_capacity(0);
    for name in ["/f.dat", "/g.dat"] {
        let f = vp(name);
        write_file(&b, &f, name.as_bytes());
        assert_eq!(read_all(&b, &f, 16), name.as_bytes());
        assert!(b.handle_cache_stats().open <= 1);
    }
}

#[test]
fn eviction_keeps_fd_count_bounded() {
    let b = LocalFsBackend::new(scratch("evict"))
        .unwrap()
        .with_handle_cache_capacity(4);
    for i in 0..32 {
        let f = vp(&format!("/f{i}.dat"));
        write_file(&b, &f, b"x");
        assert_eq!(read_all(&b, &f, 4), b"x");
    }
    let st = b.handle_cache_stats();
    assert!(st.open <= 4, "stats: {st:?}");
    assert!(st.evictions > 0);
}
