//! The three concurrency models (paper §4.1).
//!
//! "NeST currently supports three models of concurrency (threads, processes,
//! and events)... there is no single standard for concurrency across
//! operating systems: on some platforms, the best choice is to use threads,
//! on others, processes, and in other cases, events."
//!
//! * **Events** — a single engine thread interleaves all flows chunk by
//!   chunk under the active [`crate::sched::Scheduler`]. Cheapest dispatch,
//!   no context switches; serialized I/O.
//! * **Threads** — each transfer is pumped to completion on its own OS
//!   thread, taken from a cached worker pool ([`run_pooled`]): a thread is
//!   spawned only when none is parked. Pays a hand-off and context
//!   switches; overlaps I/O.
//! * **Processes** — transfers dispatched to worker *processes*. Rust's
//!   standard library cannot pass file descriptors between processes, so
//!   the launcher is pluggable ([`ProcessLauncher`]): `nest-core` provides
//!   persistent child worker processes that relay each chunk over pipes,
//!   and the default in-crate launcher emulates the model's cost profile
//!   (per-dispatch process overhead) on the worker pool. The simulation
//!   substrate costs the model directly.
//!
//! Neither external model creates an OS thread or a process per flow: both
//! are hosted on the same worker pool.

use crate::fault::{cancelled_error, classify, deadline_error, ErrorClass, FailureKind};
use crate::flow::{Flow, StepOutcome};
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use parking_lot::Mutex;
use std::fmt;
use std::io;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// The available concurrency models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Each transfer pumped on its own pooled OS thread.
    Threads,
    /// Worker processes (or an emulation; see [`ProcessLauncher`]).
    Processes,
    /// Single-threaded event loop.
    Events,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::Threads => write!(f, "threads"),
            ModelKind::Processes => write!(f, "processes"),
            ModelKind::Events => write!(f, "events"),
        }
    }
}

/// What an executor reports when a flow completes.
#[derive(Debug)]
pub struct Completion {
    /// The finished flow's metadata.
    pub meta: crate::flow::FlowMeta,
    /// Bytes moved (by the final attempt, on failure).
    pub bytes: u64,
    /// Wall-clock duration from dispatch to completion.
    pub elapsed: Duration,
    /// Which model ran the flow.
    pub model: ModelKind,
    /// The I/O outcome.
    pub result: io::Result<()>,
    /// Transient-failure retries consumed before the final outcome.
    pub retries: u32,
    /// Whether terminal-failure sink cleanup ([`crate::flow::DataSink::abort`])
    /// was performed.
    pub aborted: bool,
    /// Failure category when `result` is `Err` (I/O vs deadline vs
    /// cancellation), so the engine's instruments stay exact.
    pub failure: Option<FailureKind>,
    /// Whether any bytes moved through the zero-copy (`sendfile`) path.
    pub zc_engaged: bool,
    /// Whether the flow attempted zero-copy and was demoted to the pooled
    /// loop (capability withdrawn or fd pair unsupported).
    pub zc_fell_back: bool,
}

/// Launches a flow under the process model.
///
/// The default [`EmulatedProcessLauncher`] runs the flow on a pooled worker
/// thread after paying a configurable per-dispatch overhead, reproducing
/// the model's cost profile. `nest-core` provides a launcher backed by real
/// child worker processes.
pub trait ProcessLauncher: Send + Sync + 'static {
    /// Runs the flow to completion, invoking `on_done` with the outcome.
    fn launch(&self, flow: Flow, on_done: Box<dyn FnOnce(Completion) + Send>);
}

/// Thread-backed emulation of the process model with explicit dispatch
/// overhead (process creation is the model's defining cost).
pub struct EmulatedProcessLauncher {
    /// Simulated per-dispatch process-creation cost.
    pub dispatch_overhead: Duration,
}

impl EmulatedProcessLauncher {
    /// Creates a launcher with the given per-dispatch overhead.
    pub fn new(dispatch_overhead: Duration) -> Self {
        Self { dispatch_overhead }
    }
}

impl Default for EmulatedProcessLauncher {
    fn default() -> Self {
        // A fork+exec on 2002-era hardware was on the order of a
        // millisecond; modern machines are faster but the *relative* cost
        // versus threads/events is what matters to the adaptation logic.
        Self::new(Duration::from_micros(500))
    }
}

impl ProcessLauncher for EmulatedProcessLauncher {
    fn launch(&self, flow: Flow, on_done: Box<dyn FnOnce(Completion) + Send>) {
        let overhead = self.dispatch_overhead;
        run_pooled(move || {
            let start = Instant::now();
            if !overhead.is_zero() {
                std::thread::sleep(overhead);
            }
            let completion = run_flow(flow, ModelKind::Processes, start);
            on_done(completion);
        });
    }
}

/// One attempt's outcome, distinguished so the retry loop knows what is
/// retryable.
enum PumpEnd {
    Finished,
    Cancelled,
    Deadline,
    Io(io::Error),
}

/// Pumps a flow with `step`, honoring the cancellation token and the
/// absolute deadline between chunks.
fn pump(
    flow: &mut Flow,
    deadline: Option<Instant>,
    step: &mut impl FnMut(&mut Flow) -> io::Result<StepOutcome>,
) -> PumpEnd {
    loop {
        if flow.meta.is_cancelled() {
            return PumpEnd::Cancelled;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return PumpEnd::Deadline;
        }
        match step(flow) {
            Ok(StepOutcome::Moved(_)) => continue,
            Ok(StepOutcome::Finished) => return PumpEnd::Finished,
            Err(e) => return PumpEnd::Io(e),
        }
    }
}

/// Runs a flow to completion on the current thread, producing a completion
/// record. Shared by the thread and process executors.
///
/// This is the external models' failure domain: transient I/O errors are
/// retried (with backoff) within the flow's
/// [`crate::fault::RetryPolicy`] budget as long as both endpoints can be
/// replayed; the cancellation token and deadline are honored between
/// chunks; and a terminal failure aborts the sink so partial output is
/// cleaned up.
pub fn run_flow(flow: Flow, model: ModelKind, start: Instant) -> Completion {
    run_flow_with(flow, model, start, Flow::step)
}

/// [`run_flow`] with the chunk mover supplied by the caller. The process
/// model passes one that relays every chunk through a worker process
/// ([`Flow::step_through`]); retry, cancellation, deadline and abort
/// semantics are the same for every mover.
pub fn run_flow_with(
    mut flow: Flow,
    model: ModelKind,
    start: Instant,
    mut step: impl FnMut(&mut Flow) -> io::Result<StepOutcome>,
) -> Completion {
    let deadline = flow.meta.deadline.map(|d| start + d);
    let policy = flow.meta.retry.clone();
    let mut retries = 0u32;
    let done = |flow: &Flow, result: io::Result<()>, retries, aborted, failure| Completion {
        bytes: flow.moved(),
        meta: flow.meta.clone(),
        elapsed: start.elapsed(),
        model,
        result,
        retries,
        aborted,
        failure,
        zc_engaged: flow.zc_engaged(),
        zc_fell_back: flow.zc_fell_back(),
    };
    loop {
        match pump(&mut flow, deadline, &mut step) {
            PumpEnd::Finished => return done(&flow, Ok(()), retries, false, None),
            PumpEnd::Cancelled => {
                flow.abort();
                return done(
                    &flow,
                    Err(cancelled_error()),
                    retries,
                    true,
                    Some(FailureKind::Cancelled),
                );
            }
            PumpEnd::Deadline => {
                flow.abort();
                return done(
                    &flow,
                    Err(deadline_error()),
                    retries,
                    true,
                    Some(FailureKind::DeadlineExceeded),
                );
            }
            PumpEnd::Io(e) => {
                let backoff = policy.backoff(retries + 1);
                let within_deadline = deadline.is_none_or(|d| Instant::now() + backoff < d);
                if classify(e.kind()) == ErrorClass::Transient
                    && policy.allows_retry(retries)
                    && within_deadline
                    && flow.reset_for_retry().is_ok()
                {
                    retries += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    continue;
                }
                flow.abort();
                return done(&flow, Err(e), retries, true, Some(FailureKind::Io));
            }
        }
    }
}

/// Runs a flow under the thread model, on a pooled worker thread.
pub fn launch_thread(flow: Flow, on_done: Box<dyn FnOnce(Completion) + Send>) {
    run_pooled(move || {
        let start = Instant::now();
        let completion = run_flow(flow, ModelKind::Threads, start);
        on_done(completion);
    });
}

/// Runs `job` on a thread of the process-wide worker pool — the host of
/// every thread- and process-model flow. A thread is spawned only when
/// none is parked.
pub fn run_pooled(job: impl FnOnce() + Send + 'static) {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new).run(Box::new(job));
}

/// Idle threads the worker pool keeps parked. A burst of concurrent
/// external flows beyond this spawns threads that exit after their flow
/// instead of parking: the buffer pool's `POOL_MAX_IDLE` rule, and like it
/// a constant, not a setting. `nest-core`'s process workers use the same
/// bound.
pub const WORKER_MAX_IDLE: usize = 16;

type Job = Box<dyn FnOnce() + Send>;

/// A job and the channel of the worker it is handed to. The sender travels
/// with the job, so a parked worker holds no sender of its own: when the
/// pool's idle list goes away, every parked worker's `recv` fails and its
/// thread ends.
struct Dispatch {
    job: Job,
    home: Sender<Dispatch>,
}

/// Senders of the parked workers' channels, most recently parked last.
type IdleList = Mutex<Vec<Sender<Dispatch>>>;

/// A cached pool of worker threads. Idle threads park on their own
/// channel; running a job hands it to the most recently parked thread, or
/// spawns one when none is parked. A thread that finishes its job parks
/// again unless [`WORKER_MAX_IDLE`] already are, in which case it exits.
struct WorkerPool {
    idle: Arc<IdleList>,
}

impl WorkerPool {
    fn new() -> Self {
        Self {
            idle: Arc::new(Mutex::named("transfer.workers.idle", 410, Vec::new())),
        }
    }

    fn run(&self, mut job: Job) {
        loop {
            let Some(home) = self.idle.lock().pop() else {
                break;
            };
            // A send fails only if that worker has already ended.
            match home.clone().send(Dispatch { job, home }) {
                Ok(()) => return,
                Err(SendError(back)) => job = back.job,
            }
        }
        let idle = Arc::downgrade(&self.idle);
        let (home, inbox) = unbounded();
        std::thread::Builder::new()
            .name("nest-transfer-worker".into())
            .spawn(move || work(job, home, inbox, idle))
            .expect("spawn transfer worker");
    }
}

/// A pooled thread's life: run the job, park, and run whatever is handed
/// over next, until the idle list is full or the pool is gone.
fn work(mut job: Job, mut home: Sender<Dispatch>, inbox: Receiver<Dispatch>, idle: Weak<IdleList>) {
    loop {
        job();
        let Some(list) = idle.upgrade() else {
            return;
        };
        {
            let mut parked = list.lock();
            if parked.len() >= WORKER_MAX_IDLE {
                return;
            }
            parked.push(home);
        }
        drop(list);
        match inbox.recv() {
            Ok(next) => (job, home) = (next.job, next.home),
            Err(_) => return,
        }
    }
}

/// A shared handle to a process launcher.
pub type SharedProcessLauncher = Arc<dyn ProcessLauncher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowMeta, PatternSource};
    use std::sync::mpsc;

    fn test_flow(id: u64, len: u64) -> Flow {
        Flow::new(
            FlowMeta::new(FlowId(id), "test", Some(len)),
            Box::new(PatternSource::new(len)),
            Box::new(Vec::new()),
            4096,
        )
    }

    #[test]
    fn thread_model_completes_flow() {
        let (tx, rx) = mpsc::channel();
        launch_thread(
            test_flow(1, 100_000),
            Box::new(move |c| tx.send(c).unwrap()),
        );
        let c = rx.recv().unwrap();
        assert_eq!(c.bytes, 100_000);
        assert_eq!(c.model, ModelKind::Threads);
        assert!(c.result.is_ok());
    }

    #[test]
    fn emulated_process_model_pays_overhead() {
        let launcher = EmulatedProcessLauncher::new(Duration::from_millis(20));
        let (tx, rx) = mpsc::channel();
        launcher.launch(test_flow(2, 10), Box::new(move |c| tx.send(c).unwrap()));
        let c = rx.recv().unwrap();
        assert_eq!(c.model, ModelKind::Processes);
        assert!(
            c.elapsed >= Duration::from_millis(20),
            "elapsed {:?} below dispatch overhead",
            c.elapsed
        );
    }

    /// Waits until `n` threads are parked in `pool`.
    fn wait_parked(pool: &WorkerPool, n: usize) {
        let until = Instant::now() + Duration::from_secs(10);
        while pool.idle.lock().len() < n {
            assert!(Instant::now() < until, "workers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_jobs_reuse_one_parked_thread() {
        let pool = WorkerPool::new();
        let (tx, rx) = mpsc::channel();
        let mut ran_on = Vec::new();
        for _ in 0..10 {
            let tx = tx.clone();
            pool.run(Box::new(move || {
                tx.send(std::thread::current().id()).unwrap()
            }));
            ran_on.push(rx.recv().unwrap());
            // The job reports before its thread parks; wait for the park.
            wait_parked(&pool, 1);
        }
        assert!(ran_on.iter().all(|t| *t == ran_on[0]), "{ran_on:?}");
    }

    #[test]
    fn at_most_max_idle_threads_stay_parked() {
        let pool = WorkerPool::new();
        let jobs = WORKER_MAX_IDLE + 4;
        // Every job waits for all the others: `jobs` threads at once.
        let all = Arc::new(std::sync::Barrier::new(jobs));
        let (tx, rx) = mpsc::channel();
        for _ in 0..jobs {
            let (all, tx) = (Arc::clone(&all), tx.clone());
            pool.run(Box::new(move || {
                all.wait();
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..jobs {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        wait_parked(&pool, WORKER_MAX_IDLE);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.idle.lock().len(), WORKER_MAX_IDLE);
    }

    #[test]
    fn parked_threads_end_with_their_pool() {
        /// Reports when the thread holding it ends.
        struct OnExit(mpsc::Sender<()>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        let pool = WorkerPool::new();
        let (tx, exited) = mpsc::channel();
        pool.run(Box::new(move || {
            EXIT.with(|e| *e.borrow_mut() = Some(OnExit(tx)))
        }));
        wait_parked(&pool, 1);
        assert!(exited.try_recv().is_err());
        drop(pool);
        exited
            .recv_timeout(Duration::from_secs(10))
            .expect("parked thread ends once its pool is gone");
    }

    #[test]
    fn model_kind_display() {
        assert_eq!(ModelKind::Threads.to_string(), "threads");
        assert_eq!(ModelKind::Processes.to_string(), "processes");
        assert_eq!(ModelKind::Events.to_string(), "events");
    }

    #[test]
    fn run_flow_reports_errors() {
        struct FailingSource;
        impl crate::flow::DataSource for FailingSource {
            fn read_chunk(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "boom"))
            }
        }
        let flow = Flow::new(
            FlowMeta::new(FlowId(3), "test", None),
            Box::new(FailingSource),
            Box::new(Vec::new()),
            1024,
        );
        let c = run_flow(flow, ModelKind::Events, Instant::now());
        assert!(c.result.is_err());
        assert_eq!(c.bytes, 0);
    }
}
