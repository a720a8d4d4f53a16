//! The server child process: spawn, address discovery, `/proc` sampling,
//! and tear-down that survives panics.

use crate::json::parse_flat_object;
use crate::ops::Front;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where the benchmark may write: `<benchmark dir>/out`. `cargo run` sets
/// `CARGO_MANIFEST_DIR` at run time; a binary started by hand falls back to
/// the directory it was built from.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest_dir.join("out")
}

/// A fresh directory under `out/scratch`, removed again when dropped — also
/// on a panic or an early return, so a failing run leaves nothing behind.
pub struct ScratchDir(PathBuf);

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    pub fn create(label: &str) -> io::Result<ScratchDir> {
        // A unique-name tick: nothing else is published through it.
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("scratch")
            .join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `nestmark serve` child over a fresh scratch directory.
///
/// The appliance persists `<root>.lots` / `<root>.acls` as *siblings* of its
/// storage root, so each instance gets its own scratch **parent** directory
/// and removes all of it afterwards: a stale `.lots` beside a wiped root
/// would make the default-lot grant fail and double-charge re-uploads.
pub struct Appliance {
    child: Child,
    stdin: Option<ChildStdin>,
    addrs: BTreeMap<String, SocketAddr>,
    /// Declared last: removed only after `Drop` has reaped the child.
    _scratch: ScratchDir,
}

impl Appliance {
    pub fn spawn(label: &str) -> io::Result<Appliance> {
        let scratch = ScratchDir::create(label)?;
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .arg("--root")
            .arg(scratch.path().join("root"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        // From here on Drop kills the child.
        let mut app = Appliance {
            child,
            stdin,
            addrs: BTreeMap::new(),
            _scratch: scratch,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let fields = parse_flat_object(&line).ok_or_else(|| {
            io::Error::other(format!("server child printed no address line: {line:?}"))
        })?;
        for (name, value) in fields {
            if let Ok(addr) = value.parse() {
                app.addrs.insert(name, addr);
            }
        }
        Ok(app)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A front's TCP address (`nfs` is NFS over TCP).
    pub fn addr(&self, front: Front) -> io::Result<SocketAddr> {
        self.named_addr(front.name())
    }

    /// The RPC endpoint over UDP (the in-tree MOUNT client is UDP-only).
    pub fn nfs_udp_addr(&self) -> io::Result<SocketAddr> {
        self.named_addr("nfs_udp")
    }

    fn named_addr(&self, name: &str) -> io::Result<SocketAddr> {
        self.addrs
            .get(name)
            .copied()
            .ok_or_else(|| io::Error::other(format!("server child bound no {name} front")))
    }

    /// Closes the child's stdin (its drain signal) and waits for it to exit;
    /// kills it if it does not drain within ten seconds. The scratch tree
    /// goes when `self` is dropped on the way out.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait()? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    self.child.kill()?;
                    break self.child.wait()?;
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "server child exited with {status}"
            )))
        }
    }
}

impl Drop for Appliance {
    /// Panic / early-return path (and a no-op after [`Appliance::stop`]):
    /// never leave a server behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, which is
/// 100 on every Linux ABI this benchmark runs on).
const USER_HZ: f64 = 100.0;

/// CPU milliseconds a process has consumed: user + system, including
/// children it has already reaped (the appliance's process concurrency
/// model stages flows through short-lived workers).
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 * 1000.0 / USER_HZ)
        .ok_or_else(|| io::Error::other(format!("unparseable /proc/{pid}/stat")))
}

fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name start at field 3 (state);
    // utime, stime, cutime, cstime are fields 14–17.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum()
}

/// Peak resident set (`VmHWM`) of a process in MB (10^6 bytes).
pub fn rss_peak_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_kb(&status, "VmHWM:")
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host facts recorded next to every result.
pub fn host_facts(scratch_probe: &Path) -> Vec<(String, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The mount whose mount point is the longest prefix of the scratch path.
    let probe = scratch_probe
        .canonicalize()
        .unwrap_or_else(|_| scratch_probe.to_path_buf());
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            probe
                .starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype);
    vec![
        ("nproc".into(), nproc.to_string()),
        ("kernel".into(), read("/proc/sys/kernel/osrelease")),
        ("scratch_fs".into(), fs),
        ("network".into(), "loopback, page-cache-resident".to_owned()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_sums_user_system_and_reaped_children() {
        // A command name with spaces and parentheses must not shift fields.
        let stat = "4242 (nest mark) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    120 30 7 3 20 0 9 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(160));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_peak_rss_is_found() {
        let status = "Name:\tnestmark\nVmPeak:\t  900 kB\nVmHWM:\t   81920 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(81920));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }
}
