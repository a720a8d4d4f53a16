//! Zero-copy primitives for the byte-moving layer.
//!
//! The chunked GET path (DESIGN.md §10) is copy-dominated once the handle
//! cache removes the open/close storm: every chunk is `pread` into a
//! staging buffer and written back out, two kernel/user crossings per
//! chunk. This module removes the staging copy the way GridFTP's data
//! channel does, with a fallback ladder so the pooled path remains the
//! universal slow lane:
//!
//! 1. [`transmit`] — `sendfile(2)` from a file descriptor straight to a
//!    socket (or, when `sendfile` refuses the fd pair, `copy_file_range`),
//!    looping on `EINTR`/`EAGAIN`/short counts.
//! 2. [`write_all_vectored2`] — `writev`-style coalescing of a protocol
//!    header and the first body chunk into one syscall, for the reply
//!    writers that cannot hand over a raw fd.
//! 3. The pooled-buffer loop in [`crate::flow::Flow::step`] — engaged when
//!    neither endpoint exposes a raw fd, or when the kernel reports the
//!    pair unsupported ([`is_unsupported`]).
//!
//! The raw syscall bindings follow the repo's `poll_sys` idiom: std already
//! links libc, so a two-line `extern "C"` block needs no external crate.

use std::io::{self, IoSlice, Write};

/// Largest span a single [`transmit`] call will request from the kernel.
/// `sendfile` caps one call at `0x7fff_f000` bytes; staying under it keeps
/// return-value arithmetic trivially in range.
const MAX_SYSCALL_SPAN: u64 = 0x7fff_f000;

#[cfg(target_os = "linux")]
mod sys {
    //! Minimal `sendfile(2)`/`copy_file_range(2)` bindings (Linux
    //! signatures; std already links libc).
    use std::os::unix::io::RawFd;

    extern "C" {
        pub fn sendfile(out_fd: RawFd, in_fd: RawFd, offset: *mut i64, count: usize) -> isize;
        pub fn copy_file_range(
            fd_in: RawFd,
            off_in: *mut i64,
            fd_out: RawFd,
            off_out: *mut i64,
            len: usize,
            flags: u32,
        ) -> isize;
    }

    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    extern "C" {
        pub fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub const EINTR: i32 = 4;
    pub const EAGAIN: i32 = 11;
    /// Errnos that mean "this fd pair cannot take this path" rather than
    /// "the transfer failed": the caller falls back to the pooled loop.
    pub const UNSUPPORTED: &[i32] = &[
        9,  // EBADF
        18, // EXDEV
        22, // EINVAL
        29, // ESPIPE
        38, // ENOSYS
        95, // EOPNOTSUPP
    ];
}

/// Nanoseconds of CPU time the calling thread has consumed
/// (`CLOCK_THREAD_CPUTIME_ID`). The transfer engine samples this around
/// each scheduling pass to account bytes moved against appliance CPU
/// spent — the efficiency ratio the zero-copy path improves, which
/// loopback wall-clock throughput cannot show because the in-host
/// receiver's copy serializes with the sender (DESIGN.md §14). Returns 0
/// where the clock is unavailable.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = sys::Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, exclusively borrowed Timespec; the
        // syscall writes only into it and the clock id is a constant.
        if unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as u64 * 1_000_000_000 + ts.nsec as u64;
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    0
}

/// Whether an error from [`transmit`] means the fd pair is unsupported
/// (fall back to the pooled-buffer loop) rather than a real I/O failure.
pub fn is_unsupported(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Unsupported
}

/// Moves up to `count` bytes from `in_fd` (a mmap-able file, read at
/// `offset`) to `out_fd` (typically a socket) without staging through
/// userspace. Tries `sendfile(2)` first and `copy_file_range(2)` when the
/// kernel rejects the pair; loops on `EINTR`, short counts, and
/// zero-progress `EAGAIN`. Returns the bytes moved — `0` means the input
/// hit end-of-file before `offset + 1`. An [`io::ErrorKind::Unsupported`]
/// error means neither syscall accepts this fd pair and no bytes moved;
/// the caller must fall back.
#[cfg(target_os = "linux")]
pub fn transmit(
    in_fd: std::os::unix::io::RawFd,
    out_fd: std::os::unix::io::RawFd,
    offset: u64,
    count: u64,
) -> io::Result<u64> {
    let mut off = offset as i64;
    let mut moved: u64 = 0;
    let mut use_cfr = false;
    while moved < count {
        let want = (count - moved).min(MAX_SYSCALL_SPAN) as usize;
        // SAFETY: both fds are open for the duration of the call (held
        // by the caller), `off` is a valid exclusively borrowed offset,
        // and `want` never exceeds the remaining byte count.
        let rc = unsafe {
            if use_cfr {
                sys::copy_file_range(in_fd, &mut off, out_fd, std::ptr::null_mut(), want, 0)
            } else {
                sys::sendfile(out_fd, in_fd, &mut off, want)
            }
        };
        if rc > 0 {
            moved += rc as u64;
            continue;
        }
        if rc == 0 {
            return Ok(moved); // EOF on the input file
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(sys::EINTR) => continue,
            Some(sys::EAGAIN) => {
                if moved > 0 {
                    return Ok(moved);
                }
                // The appliance's sockets are blocking, so this is a
                // theoretical path; yield briefly rather than spin.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Some(e) if sys::UNSUPPORTED.contains(&e) => {
                if moved > 0 {
                    // The pair worked and then stopped (e.g. the socket
                    // changed under us); report progress and let the next
                    // step re-probe or fall back.
                    return Ok(moved);
                }
                if !use_cfr {
                    use_cfr = true; // next rung of the ladder
                    continue;
                }
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("zero-copy unsupported for this fd pair: {err}"),
                ));
            }
            _ => {
                return if moved > 0 { Ok(moved) } else { Err(err) };
            }
        }
    }
    Ok(moved)
}

/// Writes `head` then `body` through one coalesced `writev`-style call,
/// looping on short counts and `Interrupted` until both are fully on the
/// wire. This is the header+first-chunk coalescing primitive for reply
/// writers: one syscall instead of two for small responses.
pub fn write_all_vectored2(w: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<()> {
    let total = head.len() + body.len();
    let mut bufs = [IoSlice::new(head), IoSlice::new(body)];
    let mut slices: &mut [IoSlice<'_>] = &mut bufs;
    let mut written = 0usize;
    while written < total {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write coalesced reply",
                ))
            }
            Ok(n) => {
                written += n;
                IoSlice::advance_slices(&mut slices, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call and ignores the
    /// vectored fast path, so coalescing must survive short counts.
    struct ShortWriter {
        cap: usize,
        out: Vec<u8>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_survives_short_counts() {
        let mut w = ShortWriter {
            cap: 3,
            out: Vec::new(),
        };
        write_all_vectored2(&mut w, b"HEADER:", b"body bytes").unwrap();
        assert_eq!(w.out, b"HEADER:body bytes");
    }

    #[test]
    fn vectored_write_handles_empty_sides() {
        let mut w = ShortWriter {
            cap: 64,
            out: Vec::new(),
        };
        write_all_vectored2(&mut w, b"", b"just-body").unwrap();
        write_all_vectored2(&mut w, b"just-head", b"").unwrap();
        write_all_vectored2(&mut w, b"", b"").unwrap();
        assert_eq!(w.out, b"just-bodyjust-head");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn transmit_moves_file_bytes_to_a_socket() {
        use std::io::Read;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("nest-zc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transmit.dat");
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &body).unwrap();
        let file = std::fs::File::open(&path).unwrap();

        let (tx, rx) = UnixStream::pair().unwrap();
        let reader = std::thread::spawn(move || {
            let mut rx = rx;
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        // Offset-based: skip the first 5 bytes, then move the rest.
        let moved = transmit(file.as_raw_fd(), tx.as_raw_fd(), 5, body.len() as u64).unwrap();
        assert_eq!(moved, body.len() as u64 - 5); // EOF-limited, not count-limited
        drop(tx);
        assert_eq!(reader.join().unwrap(), &body[5..]);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn transmit_rejects_nonsensical_pairs_as_unsupported() {
        use std::io::Write as _;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        // Source is a socket, not an mmap-able file: sendfile and
        // copy_file_range both refuse, surfacing the fallback signal.
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(b"some bytes").unwrap();
        let (out, _keep) = UnixStream::pair().unwrap();
        let err = transmit(a.as_raw_fd(), out.as_raw_fd(), 0, 4).unwrap_err();
        assert!(is_unsupported(&err), "got {err:?}");
    }
}
