//! Byte-equivalence and fault properties of the zero-copy GET path
//! (DESIGN.md §14). The contract under test: for every size, the
//! `sendfile` fast path and the pooled-buffer loop put *exactly* the same
//! bytes on the wire; a throttled socket (short writes) corrupts neither;
//! and a mid-transfer capability withdrawal demotes the flow to the
//! pooled loop without dropping, duplicating, or reordering a byte.

#![cfg(unix)]

use nest::core::dispatcher::{BackendSource, SocketSink};
use nest::obs::Obs;
use nest::storage::{
    AclTable, LocalFsBackend, ReclaimPolicy, StorageBackend, StorageManager, VPath,
};
use nest::transfer::fault::{FaultBudget, FaultingSource, RetryPolicy};
use nest::transfer::flow::{DataSink, FlowMeta};
use nest::transfer::manager::{ModelSelection, SchedPolicy, TransferConfig, TransferManager};
use nest::transfer::ModelKind;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const CHUNK: usize = 64 * 1024;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nest-zc-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pattern(len: u64) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn storage_with(dir: &Path, files: &[(String, Vec<u8>)]) -> Arc<StorageManager> {
    let backend = Arc::new(
        LocalFsBackend::new(dir)
            .unwrap()
            .with_handle_cache_capacity(64),
    );
    for (name, body) in files {
        let p = VPath::parse(name).unwrap();
        backend.create(&p).unwrap();
        backend.write_at(&p, 0, body).unwrap();
    }
    Arc::new(
        StorageManager::new(
            backend as Arc<dyn StorageBackend>,
            AclTable::open_by_default(),
            u64::MAX / 4,
            ReclaimPolicy::Lru,
        )
        .with_lots_disabled(),
    )
}

/// A transfer engine and the registry its instruments land on.
struct Engine {
    tm: TransferManager,
    obs: Arc<Obs>,
}

fn engine() -> Engine {
    let obs = Obs::new();
    let tm = TransferManager::new(TransferConfig {
        policy: SchedPolicy::Fcfs,
        model: ModelSelection::Fixed(ModelKind::Events),
        chunk_size: CHUNK,
        obs: Some(Arc::clone(&obs)),
        ..TransferConfig::default()
    });
    Engine { tm, obs }
}

/// Runs one GET over a real TCP connection and returns every byte the
/// client side received (header + body). `grant_fd` decides whether the
/// sink lends its descriptor: without it the flow has no `sendfile`
/// capability and runs the pooled loop — the reference side. `drip`
/// throttles the reader to small reads with pauses, filling the sender's
/// socket buffer so the write side sees genuine short writes / partial
/// `sendfile` returns.
fn socket_get(
    engine: &Engine,
    storage: &Arc<StorageManager>,
    path: &str,
    len: u64,
    head: &[u8],
    grant_fd: bool,
    drip: bool,
) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reader = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut out = Vec::new();
        if drip {
            let mut buf = [0u8; 4096];
            loop {
                match conn.read(&mut buf).unwrap() {
                    0 => break,
                    n => out.extend_from_slice(&buf[..n]),
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        } else {
            conn.read_to_end(&mut out).unwrap();
        }
        out
    });
    let stream = TcpStream::connect(addr).unwrap();
    let fd = stream.as_raw_fd();
    let mut sink = SocketSink::new(stream, head.to_vec()).with_coalesce_counter(
        engine
            .obs
            .metrics
            .counter("transfer.zerocopy.writev_coalesced"),
    );
    if grant_fd {
        sink = sink.with_raw_fd(fd);
    }
    let src = BackendSource::new(Arc::clone(storage), VPath::parse(path).unwrap(), 0, len);
    let meta = FlowMeta::new(engine.tm.next_flow_id(), "get", Some(len));
    let moved = engine
        .tm
        .submit(meta, Box::new(src), Box::new(sink))
        .wait()
        .unwrap();
    assert_eq!(moved, len, "flow must move the full range");
    reader.join().unwrap()
}

/// With and without the sink's descriptor granted, the wire bytes are
/// indistinguishable at every size that straddles a chunk or syscall
/// boundary.
#[test]
fn sendfile_and_pooled_paths_are_byte_identical() {
    let sizes: [u64; 6] = [
        0,
        1,
        CHUNK as u64 - 1,
        CHUNK as u64,
        CHUNK as u64 + 1,
        3 * 1024 * 1024 + 123,
    ];
    let dir = scratch("equiv");
    let files: Vec<(String, Vec<u8>)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| (format!("/f{i}.dat"), pattern(n)))
        .collect();
    let storage = storage_with(&dir, &files);
    let fast = engine();
    let slow = engine();

    for (i, &n) in sizes.iter().enumerate() {
        let path = format!("/f{i}.dat");
        let head = format!("HEAD {n}\r\n\r\n").into_bytes();
        let mut expect = head.clone();
        expect.extend_from_slice(&files[i].1);
        let via_fast = socket_get(&fast, &storage, &path, n, &head, true, false);
        let via_slow = socket_get(&slow, &storage, &path, n, &head, false, false);
        assert!(via_fast == expect, "sendfile path diverged at size {n}");
        assert!(via_slow == expect, "pooled path diverged at size {n}");
    }

    // The large transfers genuinely took the kernel path…
    let snap = fast.obs.snapshot();
    assert!(
        snap.count("transfer.zerocopy.sendfile_flows") >= 1,
        "fast path never engaged"
    );
    // …and nothing was demoted: every capability stayed granted.
    assert_eq!(snap.count("transfer.zerocopy.fallbacks"), 0);
    // Header+first-chunk coalescing fired for each non-empty body.
    assert!(snap.count("transfer.zerocopy.writev_coalesced") >= 5);
    // Without the descriptor the fast path was never touched at all.
    let snap = slow.obs.snapshot();
    assert_eq!(snap.count("transfer.zerocopy.sendfile_flows"), 0);
    assert_eq!(snap.count("transfer.zerocopy.fallbacks"), 0);

    fast.tm.shutdown();
    slow.tm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that drains in 4 KiB sips keeps the sender's socket buffer
/// full, so both the pooled `write_all` loop and the `sendfile` loop see
/// short writes mid-body. Nothing may be dropped or reordered.
#[test]
fn throttled_socket_short_writes_corrupt_neither_path() {
    let n: u64 = 3 * 1024 * 1024;
    let dir = scratch("drip");
    let files = vec![("/slow.dat".to_owned(), pattern(n))];
    let storage = storage_with(&dir, &files);
    let head = b"HEAD drip\r\n\r\n".to_vec();
    let mut expect = head.clone();
    expect.extend_from_slice(&files[0].1);

    for grant_fd in [true, false] {
        let e = engine();
        let got = socket_get(&e, &storage, "/slow.dat", n, &head, grant_fd, true);
        assert!(
            got == expect,
            "grant_fd({grant_fd}) corrupted a throttled stream"
        );
        // Each side ran the path it claims to exercise.
        let engaged = e.obs.snapshot().count("transfer.zerocopy.sendfile_flows");
        assert_eq!(engaged >= 1, grant_fd, "grant_fd({grant_fd})");
        e.tm.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retryable sink with a raw descriptor: writes land in a local file
/// (sendfile to a regular file is legal on Linux), and `reset` truncates
/// so a transient mid-flow fault can replay from byte 0.
struct FileSink {
    file: std::fs::File,
}

impl DataSink for FileSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        Ok(())
    }

    fn raw_fd(&mut self) -> Option<std::os::unix::io::RawFd> {
        Some(self.file.as_raw_fd())
    }
}

/// Mid-transfer capability withdrawal: the flow engages the fast path,
/// the source then revokes its window and injects one transient read
/// fault. The flow must demote, retry, and deliver the exact bytes — no
/// partial output, no duplicated prefix — while the fallback counter
/// records the demotion.
#[test]
fn mid_transfer_withdrawal_falls_back_without_corruption() {
    let n: u64 = 2 * 1024 * 1024;
    let dir = scratch("fault");
    let files = vec![("/wobbly.dat".to_owned(), pattern(n))];
    let storage = storage_with(&dir, &files);
    let Engine { tm, obs } = engine();

    let inner = BackendSource::new(
        Arc::clone(&storage),
        VPath::parse("/wobbly.dat").unwrap(),
        0,
        n,
    );
    // Withdraw the window (and arm one transient fault) after 256 KiB.
    let src = FaultingSource::new(
        inner,
        256 * 1024,
        io::ErrorKind::ConnectionReset,
        FaultBudget::Times(1),
    );
    let out_path = dir.join("sunk.dat");
    let sink = FileSink {
        file: std::fs::File::create(&out_path).unwrap(),
    };
    let meta = FlowMeta::new(tm.next_flow_id(), "get", Some(n))
        .with_retry(RetryPolicy::standard().with_seed(0x2c));
    let moved = tm
        .submit(meta, Box::new(src), Box::new(sink))
        .wait()
        .unwrap();
    assert_eq!(moved, n);

    // Exact bytes: reset truncated the engaged-path prefix, the replay
    // rewrote the whole range once.
    let got = std::fs::read(&out_path).unwrap();
    assert!(got == files[0].1, "fallback+retry corrupted the output");

    let snap = obs.snapshot();
    assert!(
        snap.count("transfer.zerocopy.fallbacks") >= 1,
        "withdrawal must be counted as a fallback"
    );
    assert!(snap.count("transfer.retries") >= 1);
    assert_eq!(snap.count("transfer.failures"), 0);

    tm.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
