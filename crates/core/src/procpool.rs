//! The real process-model launcher (paper §4.1).
//!
//! Rust's standard library cannot pass sockets between processes (no
//! `SCM_RIGHTS`), so the process model relays each transfer's bytes
//! *through* a child worker process: every chunk the flow reads from its
//! source is written to the worker's stdin and read back from its stdout
//! before it reaches the sink. The data genuinely crosses a process
//! boundary, so the model pays real pipe-copy and context-switch costs —
//! the properties the adaptive selector measures. (See the substitution
//! table in `DESIGN.md`.)
//!
//! The worker is the system `cat`, and workers are persistent. A flow
//! checks one out of the idle list, spawning one only when none is idle,
//! and streams through it chunk by chunk in its own pooled buffer. The
//! worker goes back on the list only after a clean finish; an error, a
//! cancel or a deadline kills and reaps it, so no worker carries bytes from
//! one flow into the next. When the launcher's last reference drops, the
//! idle workers are killed and reaped. If `cat` cannot be spawned (e.g. a
//! stripped container), flows run in-process.

use nest_transfer::concurrency::{
    run_flow_with, run_pooled, Completion, ModelKind, ProcessLauncher, WORKER_MAX_IDLE,
};
use nest_transfer::flow::Flow;
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Launches flows through persistent child worker processes.
#[derive(Debug, Default)]
pub struct SubprocessLauncher {
    workers: Arc<Workers>,
}

impl SubprocessLauncher {
    /// Creates a launcher. No worker is spawned until the first flow.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProcessLauncher for SubprocessLauncher {
    fn launch(&self, flow: Flow, on_done: Box<dyn FnOnce(Completion) + Send>) {
        let workers = Arc::clone(&self.workers);
        run_pooled(move || {
            let completion = workers.run(flow, Instant::now());
            // Let go before reporting: once the engine has the last
            // completion it may drop the launcher, and that drop must be
            // the one that reaps the idle workers.
            drop(workers);
            on_done(completion);
        });
    }
}

/// The idle list, shared by the launcher and its in-flight flows.
#[derive(Debug)]
struct Workers {
    idle: Mutex<Vec<Worker>>,
}

impl Default for Workers {
    fn default() -> Self {
        Self {
            idle: Mutex::named("core.procpool.idle", 420, Vec::new()),
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for worker in self.idle.get_mut().drain(..) {
            worker.kill();
        }
    }
}

impl Workers {
    /// Runs one flow with the shared retry, cancel, deadline and abort
    /// semantics of [`run_flow_with`], which checks cancel and deadline
    /// before every chunk.
    fn run(&self, flow: Flow, start: Instant) -> Completion {
        let mut worker = self.checkout();
        let relayed = worker.is_some();
        let completion = run_flow_with(flow, ModelKind::Processes, start, |flow| {
            if relayed && worker.is_none() {
                // A retry after a failed attempt: a fresh worker.
                worker = self.checkout();
            }
            let step = match &mut worker {
                Some(w) => flow.step_through(|chunk| w.relay(chunk)),
                // `cat` cannot be spawned here: the chunk stays in-process.
                None => flow.step_through(|_| Ok(())),
            };
            if step.is_err() {
                // Whatever the pipes hold belongs to the failed attempt.
                if let Some(w) = worker.take() {
                    w.kill();
                }
            }
            step
        });
        if let Some(w) = worker {
            if completion.result.is_ok() {
                self.put_back(w);
            } else {
                w.kill(); // cancelled or past its deadline
            }
        }
        completion
    }

    /// An idle worker that is still alive, or a fresh one; `None` when
    /// `cat` cannot be spawned.
    fn checkout(&self) -> Option<Worker> {
        loop {
            let Some(mut w) = self.idle.lock().pop() else {
                return Worker::spawn();
            };
            if w.alive() {
                return Some(w);
            }
            w.kill();
        }
    }

    fn put_back(&self, worker: Worker) {
        let mut idle = self.idle.lock();
        if idle.len() < WORKER_MAX_IDLE {
            idle.push(worker);
        } else {
            drop(idle);
            worker.kill();
        }
    }
}

/// One `cat` child and its pipes.
#[derive(Debug)]
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    /// Bytes written to stdin before they are read back: the stdin pipe's
    /// capacity, so each write lands whole in the pipe the previous piece
    /// left empty and never waits on `cat`.
    piece: usize,
}

impl Worker {
    fn spawn() -> Option<Self> {
        let mut child = Command::new("cat")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .ok()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let piece = pipe_capacity(&stdin);
        Some(Self {
            child,
            stdin,
            stdout,
            piece,
        })
    }

    /// Sends `chunk` through the worker and reads it back in place, one
    /// piece at a time.
    fn relay(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        for piece in chunk.chunks_mut(self.piece) {
            self.stdin.write_all(piece)?;
            self.stdout.read_exact(piece)?;
        }
        Ok(())
    }

    /// Whether the process is still running: an idle worker can be killed
    /// from outside. A dead one is reaped by the check.
    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Largest relay piece: the default Linux pipe capacity.
const MAX_PIECE: usize = 64 * 1024;

/// The capacity of the pipe behind `pipe` (`F_GETPIPE_SZ`), at most
/// [`MAX_PIECE`]. Pipes are 64 KiB by default, but a user over
/// `pipe-user-pages-soft` gets smaller ones; a piece larger than the pipe
/// would leave the write waiting on `cat` while `cat` waits on a stdout
/// nobody reads yet.
#[cfg(target_os = "linux")]
fn pipe_capacity(pipe: &impl std::os::unix::io::AsRawFd) -> usize {
    const F_GETPIPE_SZ: i32 = 1032;
    extern "C" {
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    }
    // SAFETY: `pipe` owns an open descriptor for the duration of the call,
    // and F_GETPIPE_SZ takes no argument and writes no memory.
    let bytes = unsafe { fcntl(pipe.as_raw_fd(), F_GETPIPE_SZ) };
    if bytes > 0 {
        (bytes as usize).min(MAX_PIECE)
    } else {
        4096
    }
}

/// POSIX guarantees a pipe holds at least `PIPE_BUF` bytes.
#[cfg(not(target_os = "linux"))]
fn pipe_capacity<T>(_pipe: &T) -> usize {
    512
}

#[cfg(test)]
mod tests {
    use super::*;
    use nest_transfer::fault::{FaultBudget, FaultingSource};
    use nest_transfer::flow::{DataSink, DataSource, FlowId, FlowMeta, PatternSource};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn launch(launcher: &SubprocessLauncher, flow: Flow) -> Completion {
        let (tx, rx) = mpsc::channel();
        launcher.launch(flow, Box::new(move |c| tx.send(c).unwrap()));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("flow completes")
    }

    fn pattern_flow(id: u64, len: u64, chunk: usize) -> Flow {
        Flow::new(
            FlowMeta::new(FlowId(id), "test", Some(len)),
            Box::new(PatternSource::new(len)),
            Box::new(Vec::new()),
            chunk,
        )
    }

    /// A sink that forwards every chunk to the test.
    struct Tap(mpsc::Sender<Vec<u8>>);
    impl DataSink for Tap {
        fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
            let _ = self.0.send(data.to_vec());
            Ok(())
        }
    }

    /// The bytes a pattern source of `len` produces.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    /// A flow into a [`Tap`] and the receiving end of it.
    fn tapped_flow(id: u64, len: u64, chunk: usize) -> (Flow, mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = mpsc::channel();
        let flow = Flow::new(
            FlowMeta::new(FlowId(id), "test", Some(len)),
            Box::new(PatternSource::new(len)),
            Box::new(Tap(tx)),
            chunk,
        );
        (flow, rx)
    }

    /// Process ids of the idle workers, most recently parked last.
    fn idle_pids(launcher: &SubprocessLauncher) -> Vec<u32> {
        let idle = launcher.workers.idle.lock();
        idle.iter().map(|w| w.child.id()).collect()
    }

    /// Whether `pid` still names a live (not yet reaped) `cat`.
    fn cat_exists(pid: u32) -> bool {
        std::fs::read_to_string(format!("/proc/{pid}/comm")).is_ok_and(|c| c.trim() == "cat")
    }

    #[test]
    fn data_traverses_worker_process() {
        let launcher = SubprocessLauncher::new();
        let c = launch(&launcher, pattern_flow(1, 200_000, 8192));
        assert_eq!(c.model, ModelKind::Processes);
        assert!(c.result.is_ok(), "{:?}", c.result);
        assert_eq!(c.bytes, 200_000);
        assert!(!c.zc_engaged);
    }

    #[test]
    fn empty_flow_through_process() {
        let launcher = SubprocessLauncher::new();
        let c = launch(&launcher, pattern_flow(2, 0, 8192));
        assert!(c.result.is_ok());
        assert_eq!(c.bytes, 0);
    }

    #[test]
    fn chunks_larger_than_the_pipe_relay_exactly() {
        // 1 MiB chunks are 16 pipe capacities: the relay must alternate
        // write and read piece by piece or it deadlocks.
        let launcher = SubprocessLauncher::new();
        let (flow, rx) = tapped_flow(3, 4 << 20, 1 << 20);
        let c = launch(&launcher, flow);
        assert!(c.result.is_ok(), "{:?}", c.result);
        let got: Vec<u8> = rx.try_iter().flatten().collect();
        assert_eq!(got, pattern(4 << 20));
    }

    /// Yields chunk `k + 1` only after the sink has received chunk `k`, and
    /// fails if that does not happen before the flow's deadline.
    struct Lockstep {
        acks: mpsc::Receiver<()>,
        sent: u32,
        chunks: u32,
        deadline: Instant,
    }
    impl DataSource for Lockstep {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.sent == self.chunks {
                return Ok(0);
            }
            if self.sent > 0 {
                let left = self.deadline.saturating_duration_since(Instant::now());
                self.acks.recv_timeout(left).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "the sink never saw the previous chunk: the flow was staged, not streamed",
                    )
                })?;
            }
            self.sent += 1;
            buf.fill(self.sent as u8);
            Ok(buf.len())
        }
    }
    struct Acking(mpsc::Sender<()>);
    impl DataSink for Acking {
        fn write_chunk(&mut self, _data: &[u8]) -> io::Result<()> {
            let _ = self.0.send(());
            Ok(())
        }
    }

    #[test]
    fn process_model_streams_instead_of_staging() {
        let launcher = SubprocessLauncher::new();
        let budget = Duration::from_secs(5);
        let (tx, acks) = mpsc::channel();
        let source = Lockstep {
            acks,
            sent: 0,
            chunks: 4,
            deadline: Instant::now() + budget,
        };
        let flow = Flow::new(
            FlowMeta::new(FlowId(4), "test", Some(4 * 4096)).with_deadline(budget),
            Box::new(source),
            Box::new(Acking(tx)),
            4096,
        );
        let c = launch(&launcher, flow);
        assert!(c.result.is_ok(), "{:?}", c.result);
        assert_eq!(c.bytes, 4 * 4096);
    }

    /// An endless source, one small chunk per 5 ms.
    struct Slow;
    impl DataSource for Slow {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(5));
            let n = buf.len().min(1024);
            buf[..n].fill(9);
            Ok(n)
        }
    }
    /// Reports every chunk it receives, and whether the flow aborted it.
    struct Watched {
        wrote: mpsc::Sender<()>,
        aborted: Arc<AtomicBool>,
    }
    impl DataSink for Watched {
        fn write_chunk(&mut self, _data: &[u8]) -> io::Result<()> {
            let _ = self.wrote.send(());
            Ok(())
        }
        fn abort(&mut self) {
            self.aborted.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn cancel_stops_a_process_flow_mid_stream() {
        let launcher = SubprocessLauncher::new();
        let aborted = Arc::new(AtomicBool::new(false));
        let (wrote, chunks) = mpsc::channel();
        let meta = FlowMeta::new(FlowId(5), "test", None);
        let cancel = meta.clone();
        let sink = Watched {
            wrote,
            aborted: Arc::clone(&aborted),
        };
        let flow = Flow::new(meta, Box::new(Slow), Box::new(sink), 4096);
        let (tx, rx) = mpsc::channel();
        launcher.launch(flow, Box::new(move |c| tx.send(c).unwrap()));
        for _ in 0..3 {
            chunks
                .recv_timeout(Duration::from_secs(5))
                .expect("chunks reach the sink while the flow runs");
        }
        let asked = Instant::now();
        cancel.request_cancel();
        let c = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("a cancelled flow stops within a bounded time");
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "{:?}",
            asked.elapsed()
        );
        assert_eq!(c.result.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert!(c.aborted);
        assert!(aborted.load(Ordering::SeqCst), "sink not aborted");
        assert!(
            idle_pids(&launcher).is_empty(),
            "cancelled flow's worker reused"
        );
    }

    #[test]
    fn deadline_stops_a_process_flow_mid_stream() {
        let launcher = SubprocessLauncher::new();
        let meta = FlowMeta::new(FlowId(6), "test", None).with_deadline(Duration::from_millis(40));
        let flow = Flow::new(meta, Box::new(Slow), Box::new(Vec::new()), 4096);
        let c = launch(&launcher, flow);
        assert_eq!(c.result.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(idle_pids(&launcher).is_empty());
    }

    #[test]
    fn sequential_flows_share_one_worker() {
        let launcher = SubprocessLauncher::new();
        let mut seen = Vec::new();
        for id in 0..8 {
            let (flow, rx) = tapped_flow(id, 100_000, 8192);
            assert!(launch(&launcher, flow).result.is_ok());
            assert_eq!(
                rx.try_iter().flatten().collect::<Vec<u8>>(),
                pattern(100_000)
            );
            seen.push(idle_pids(&launcher));
        }
        let first = seen[0].clone();
        assert_eq!(first.len(), 1);
        assert!(seen.iter().all(|idle| *idle == first), "{seen:?}");
    }

    #[test]
    fn an_idle_worker_killed_from_outside_is_replaced() {
        let launcher = SubprocessLauncher::new();
        assert!(launch(&launcher, pattern_flow(1, 10_000, 4096))
            .result
            .is_ok());
        let [pid] = idle_pids(&launcher)[..] else {
            panic!("one idle worker expected");
        };
        let status = Command::new("kill").args(["-9", &pid.to_string()]).status();
        assert!(status.is_ok_and(|s| s.success()));
        // Wait until the kernel has made it a zombie, so the checkout's
        // liveness check is what sees the death.
        let stat = format!("/proc/{pid}/stat");
        let until = Instant::now() + Duration::from_secs(5);
        while !std::fs::read_to_string(&stat).is_ok_and(|s| s.contains(") Z ")) {
            assert!(Instant::now() < until, "worker {pid} never died");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (flow, rx) = tapped_flow(2, 300_000, 65536);
        let c = launch(&launcher, flow);
        assert!(c.result.is_ok(), "{:?}", c.result);
        assert_eq!(
            rx.try_iter().flatten().collect::<Vec<u8>>(),
            pattern(300_000)
        );
        let idle = idle_pids(&launcher);
        assert_eq!(idle.len(), 1);
        assert_ne!(idle[0], pid);
        assert!(!cat_exists(pid), "dead worker {pid} not reaped");
    }

    #[test]
    fn a_failed_flow_never_returns_its_worker() {
        let launcher = SubprocessLauncher::new();
        assert!(launch(&launcher, pattern_flow(1, 10_000, 4096))
            .result
            .is_ok());
        let [pid] = idle_pids(&launcher)[..] else {
            panic!("one idle worker expected");
        };
        let failing = Flow::new(
            FlowMeta::new(FlowId(2), "test", Some(100_000)),
            Box::new(FaultingSource::new(
                PatternSource::new(100_000),
                20_000,
                io::ErrorKind::PermissionDenied,
                FaultBudget::Always,
            )),
            Box::new(Vec::new()),
            4096,
        );
        let c = launch(&launcher, failing);
        assert_eq!(
            c.result.unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );
        assert!(idle_pids(&launcher).is_empty());
        assert!(!cat_exists(pid), "failed flow's worker {pid} still running");
    }

    /// Reports its first read (its flow holds a worker by then) and holds
    /// it until the gate opens.
    struct Gated {
        started: mpsc::Sender<()>,
        gate: Arc<AtomicBool>,
        inner: PatternSource,
    }
    impl DataSource for Gated {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let _ = self.started.send(());
            while !self.gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.read_chunk(buf)
        }
    }

    #[test]
    fn no_worker_outlives_the_launcher() {
        let launcher = SubprocessLauncher::new();
        // Three flows at once hold three workers; all park afterwards.
        let gate = Arc::new(AtomicBool::new(false));
        let (started, reads) = mpsc::channel();
        let (tx, done) = mpsc::channel();
        for id in 0..3 {
            let source = Gated {
                started: started.clone(),
                gate: Arc::clone(&gate),
                inner: PatternSource::new(8192),
            };
            let flow = Flow::new(
                FlowMeta::new(FlowId(id), "test", Some(8192)),
                Box::new(source),
                Box::new(Vec::new()),
                4096,
            );
            let tx = tx.clone();
            launcher.launch(flow, Box::new(move |c| tx.send(c).unwrap()));
        }
        for _ in 0..3 {
            reads.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        gate.store(true, Ordering::SeqCst);
        for _ in 0..3 {
            assert!(done
                .recv_timeout(Duration::from_secs(30))
                .unwrap()
                .result
                .is_ok());
        }
        let pids = idle_pids(&launcher);
        assert_eq!(pids.len(), 3, "{pids:?}");
        assert!(pids.iter().all(|&p| cat_exists(p)));
        drop(launcher);
        for pid in pids {
            assert!(!cat_exists(pid), "worker {pid} outlived the launcher");
        }
    }
}
