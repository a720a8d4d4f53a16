//! The transfer manager façade (paper §2.1, §4).
//!
//! "All file data transfer operations are managed asynchronously by the
//! transfer manager after they have been synchronously approved by the
//! storage manager."
//!
//! The manager owns an engine thread. Event-model flows are interleaved on
//! that thread, chunk by chunk, under the configured scheduling policy;
//! thread-model flows are dispatched to the worker pool and their
//! completions fed back. A single [`crate::adaptive::AdaptiveSelector`]
//! (when enabled) assigns each incoming transfer to a model and learns from
//! completions.

use crate::adaptive::AdaptiveSelector;
use crate::bufpool::BufPool;
use crate::concurrency::{launch_thread, Completion, ModelKind};
use crate::fault::{cancelled_error, classify, deadline_error, ErrorClass, FailureKind};
use crate::flow::{DataSink, DataSource, Flow, FlowId, FlowMeta, StepOutcome};
use crate::sched::{CacheAwareScheduler, FcfsScheduler, Scheduler, StrideScheduler};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use nest_obs::{Counter, EwmaMeter, Gauge, Histogram, Obs};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which scheduling policy the event engine applies (paper §4.2).
#[derive(Debug, Clone)]
pub enum SchedPolicy {
    /// First-come, first-served (the default).
    Fcfs,
    /// Proportional share between protocol classes via stride scheduling.
    Proportional {
        /// `(class, tickets)` pairs; ratios are bandwidth ratios.
        tickets: Vec<(String, u32)>,
        /// Work-conserving (2002 behavior) or idle-waiting (the paper's
        /// in-progress extension).
        work_conserving: bool,
    },
    /// Cache-aware: predicted-resident files first.
    CacheAware,
}

/// How transfers are assigned to concurrency models.
#[derive(Debug, Clone)]
pub enum ModelSelection {
    /// Every transfer uses one fixed model.
    Fixed(ModelKind),
    /// The adaptive selector distributes and then biases (paper §4.1).
    Adaptive(Vec<ModelKind>),
}

/// Transfer manager configuration.
pub struct TransferConfig {
    /// Scheduling policy for the event engine.
    pub policy: SchedPolicy,
    /// Concurrency-model selection.
    pub model: ModelSelection,
    /// Chunk size for event-model interleaving.
    pub chunk_size: usize,
    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b).
    pub process_launcher: Arc<dyn Any + Send + Sync>,
    /// Observability registry; `None` leaves the engine uninstrumented
    /// (zero overhead on the data path).
    pub obs: Option<Arc<Obs>>,
    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b).
    pub shards: usize,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            policy: SchedPolicy::Fcfs,
            model: ModelSelection::Adaptive(vec![ModelKind::Threads, ModelKind::Events]),
            chunk_size: 64 * 1024,
            process_launcher: Arc::new(()),
            obs: None,
            shards: 8,
        }
    }
}

/// Instrument handles owned by the engine thread (paper §5: "what is this
/// appliance doing, and how fast is it doing it?").
///
/// Metric names:
/// - `transfer.bytes_total`, `transfer.completed`, `transfer.failures`,
///   `transfer.model.switches` — counters
/// - `transfer.model.{events,threads}` — finished flows
///   (successes and failures) per concurrency model: the mix the adaptive
///   selector produced
/// - `transfer.retries`, `transfer.aborted`, `transfer.deadline_exceeded`,
///   `transfer.cancelled` — failure-domain counters (retry attempts,
///   sink-abort cleanups, deadline expiries, cancellations)
/// - `transfer.bandwidth_bps` — EWMA meter of delivered bytes/sec
/// - `transfer.queue_depth` — gauge of in-flight flows (event + retry-wait
///   + thread model)
/// - `transfer.sched.pass_us`, `transfer.latency_us` — histograms
/// - `transfer.engine.wakeups` / `transfer.engine.parks` — engine-loop
///   iterations and blocking parks; a blocked engine should show few
///   wakeups (the no-busy-spin regression guard)
/// - `transfer.engine.cpu_ns` — thread-CPU nanoseconds spent inside
///   scheduling passes; `bytes_total / cpu_ns` is the appliance-side
///   efficiency the zero-copy path improves (DESIGN.md §14)
/// - `transfer.zerocopy.sendfile_flows` / `transfer.zerocopy.fallbacks` —
///   flows that moved bytes via `sendfile`, and flows that attempted the
///   zero-copy path but were demoted to the pooled loop (capability
///   withdrawn mid-flow or fd pair unsupported)
/// - `transfer.class.<class>.bytes` / `.bandwidth_bps` — per-class pairs,
///   created lazily on first completion for the class
struct EngineMetrics {
    obs: Arc<Obs>,
    bytes_total: Arc<Counter>,
    completed: Arc<Counter>,
    failures: Arc<Counter>,
    retries: Arc<Counter>,
    aborted: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    cancelled: Arc<Counter>,
    model_switches: Arc<Counter>,
    /// Finished flows per model, indexed by [`model_slot`].
    per_model: [Arc<Counter>; 2],
    bandwidth: Arc<EwmaMeter>,
    queue_depth: Arc<Gauge>,
    sched_pass_us: Arc<Histogram>,
    latency_us: Arc<Histogram>,
    engine_wakeups: Arc<Counter>,
    engine_parks: Arc<Counter>,
    engine_cpu_ns: Arc<Counter>,
    zc_sendfile_flows: Arc<Counter>,
    zc_fallbacks: Arc<Counter>,
    /// Per-class instrument cache; avoids registry lookups per completion.
    class_instruments: HashMap<String, (Arc<Counter>, Arc<EwmaMeter>)>,
}

impl EngineMetrics {
    fn new(obs: Arc<Obs>) -> Self {
        let m = &obs.metrics;
        Self {
            bytes_total: m.counter("transfer.bytes_total"),
            completed: m.counter("transfer.completed"),
            failures: m.counter("transfer.failures"),
            retries: m.counter("transfer.retries"),
            aborted: m.counter("transfer.aborted"),
            deadline_exceeded: m.counter("transfer.deadline_exceeded"),
            cancelled: m.counter("transfer.cancelled"),
            model_switches: m.counter("transfer.model.switches"),
            per_model: [
                m.counter("transfer.model.events"),
                m.counter("transfer.model.threads"),
            ],
            bandwidth: m.meter("transfer.bandwidth_bps"),
            queue_depth: m.gauge("transfer.queue_depth"),
            sched_pass_us: m.histogram("transfer.sched.pass_us"),
            latency_us: m.histogram("transfer.latency_us"),
            engine_wakeups: m.counter("transfer.engine.wakeups"),
            engine_parks: m.counter("transfer.engine.parks"),
            engine_cpu_ns: m.counter("transfer.engine.cpu_ns"),
            zc_sendfile_flows: m.counter("transfer.zerocopy.sendfile_flows"),
            zc_fallbacks: m.counter("transfer.zerocopy.fallbacks"),
            class_instruments: HashMap::new(),
            obs,
        }
    }

    fn class(&mut self, class: &str) -> &(Arc<Counter>, Arc<EwmaMeter>) {
        if !self.class_instruments.contains_key(class) {
            let bytes = self
                .obs
                .metrics
                .counter(&format!("transfer.class.{}.bytes", class));
            let bw = self
                .obs
                .metrics
                .meter(&format!("transfer.class.{}.bandwidth_bps", class));
            self.class_instruments.insert(class.to_owned(), (bytes, bw));
        }
        &self.class_instruments[class]
    }
}

/// A model's index in [`EngineMetrics::per_model`].
fn model_slot(model: ModelKind) -> usize {
    match model {
        ModelKind::Events => 0,
        ModelKind::Threads => 1,
    }
}

/// Per-class delivered statistics.
///
/// Failures are counted separately from completions: `bytes`,
/// `completed`, and `total_latency` describe *successful* transfers only,
/// so bandwidth and latency derived from them stay honest under faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Bytes delivered for this class (successful transfers only).
    pub bytes: u64,
    /// Successfully completed transfers.
    pub completed: u64,
    /// Transfers that ended in error (after any retries).
    pub failed: u64,
    /// Sum of successful-transfer latencies in seconds.
    pub total_latency: f64,
}

/// A snapshot of manager statistics.
#[derive(Debug, Clone, Default)]
pub struct TransferStats {
    /// Per-protocol-class stats.
    pub classes: HashMap<String, ClassStats>,
    /// Finished transfers (successes *and* failures) per concurrency
    /// model — the assignment mix the adaptive selector produced.
    pub per_model: HashMap<ModelKind, u64>,
    /// Transfers that ended in error.
    pub failures: u64,
    /// Transient-failure retry attempts across all flows.
    pub retries: u64,
    /// Flows that failed because their deadline elapsed.
    pub deadline_exceeded: u64,
    /// Flows cancelled by their submitter.
    pub cancelled: u64,
}

impl TransferStats {
    /// Total bytes across classes.
    pub fn total_bytes(&self) -> u64 {
        self.classes.values().map(|c| c.bytes).sum()
    }

    /// Mean latency (seconds) across all completed transfers.
    pub fn mean_latency(&self) -> f64 {
        let (lat, n) = self.classes.values().fold((0.0, 0u64), |(l, n), c| {
            (l + c.total_latency, n + c.completed)
        });
        if n == 0 {
            0.0
        } else {
            lat / n as f64
        }
    }
}

/// Handle for awaiting one submitted transfer.
pub struct TransferHandle {
    rx: Receiver<io::Result<u64>>,
    cancel: Arc<AtomicBool>,
}

impl TransferHandle {
    /// Blocks until the transfer completes; returns bytes moved.
    pub fn wait(self) -> io::Result<u64> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "transfer manager shut down",
            )),
        }
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<io::Result<u64>> {
        self.rx.try_recv().ok()
    }

    /// Requests cooperative cancellation. The engine (or the thread-model
    /// worker) notices at the next chunk boundary, aborts the sink
    /// (cleaning up partial output), and completes the flow with an
    /// `Interrupted` error — so a subsequent [`TransferHandle::wait`]
    /// returns promptly.
    pub fn cancel(&self) {
        // nestlint: allow(atomic-ordering): cancel latch polled at chunk boundaries; completion is published by the flow mutex
        self.cancel.store(true, Ordering::Relaxed);
    }
}

enum EngineMsg {
    Submit {
        flow: Box<Flow>,
        respond: Sender<io::Result<u64>>,
    },
    /// A thread-model flow finished. Routed through
    /// the same channel as submissions so the engine has exactly one wait
    /// point — `recv_timeout` on this channel — and any completion wakes
    /// a parked engine immediately.
    Completed {
        completion: Box<Completion>,
        respond: Sender<io::Result<u64>>,
    },
    Shutdown,
}

/// The transfer manager.
pub struct TransferManager {
    tx: Sender<EngineMsg>,
    stats: Arc<Mutex<TransferStats>>,
    next_id: AtomicU64,
    pool: BufPool,
    engine: Option<std::thread::JoinHandle<()>>,
}

/// Idle chunk buffers the manager's pool keeps parked: enough for a burst
/// of concurrent flows without unbounded memory retention.
const POOL_MAX_IDLE: usize = 64;

/// Ready dispatches the event engine drains per wakeup before returning
/// to its single channel wait point. Large enough to amortize the loop's
/// per-wakeup overhead across flows, small enough that new submissions
/// and cancellations are picked up within a bounded number of chunks.
const EVENT_BATCH: usize = 32;

impl TransferManager {
    /// Starts a transfer manager with the given configuration.
    pub fn new(config: TransferConfig) -> Self {
        let pool = BufPool::new(config.chunk_size, POOL_MAX_IDLE);
        if let Some(obs) = &config.obs {
            pool.register_obs(obs);
        }
        let (tx, rx) = unbounded();
        let stats = Arc::new(Mutex::named(
            "transfer.stats",
            200,
            TransferStats::default(),
        ));
        let engine_stats = Arc::clone(&stats);
        let engine_tx = tx.clone();
        let engine = std::thread::Builder::new()
            .name("nest-transfer-engine".into())
            .spawn(move || Engine::new(config, rx, engine_tx, engine_stats).run())
            .expect("spawn transfer engine");
        Self {
            tx,
            stats,
            next_id: AtomicU64::new(1),
            pool,
            engine: Some(engine),
        }
    }

    /// Allocates a fresh flow id.
    pub fn next_flow_id(&self) -> FlowId {
        // nestlint: allow(atomic-ordering): monotonic id tick; atomicity alone is the contract
        FlowId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Submits a transfer; returns a handle to await it.
    pub fn submit(
        &self,
        meta: FlowMeta,
        source: Box<dyn DataSource>,
        sink: Box<dyn DataSink>,
    ) -> TransferHandle {
        let (respond, rx) = bounded(1);
        let cancel = Arc::clone(&meta.cancel);
        // The staging buffer comes from the pool: steady-state admission
        // recycles a returned buffer instead of allocating.
        let mut flow = Flow::with_buffer(meta, source, sink, self.pool.checkout());
        // Always armed: each step takes `sendfile` iff both endpoints
        // grant the capability, the pooled loop otherwise.
        flow.arm_zerocopy();
        let flow = Box::new(flow);
        // A send failure means the engine is gone; the handle will surface
        // a BrokenPipe when waited on.
        let _ = self.tx.send(EngineMsg::Submit { flow, respond });
        TransferHandle { rx, cancel }
    }

    /// The chunk buffer pool flows stage through (counters for tests).
    pub fn buffer_pool(&self) -> &BufPool {
        &self.pool
    }

    /// Snapshot of delivered statistics.
    pub fn stats(&self) -> TransferStats {
        self.stats.lock().clone()
    }

    /// Stops the engine after in-flight transfers finish.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(EngineMsg::Shutdown);
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

impl Drop for TransferManager {
    fn drop(&mut self) {
        let _ = self.tx.send(EngineMsg::Shutdown);
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

struct EventFlow {
    flow: Flow,
    start: Instant,
    respond: Sender<io::Result<u64>>,
    /// Transient-failure retries consumed so far.
    retries: u32,
    /// Absolute deadline (from `FlowMeta::deadline`), fixed at admission.
    deadline: Option<Instant>,
}

impl EventFlow {
    fn new(flow: Flow, respond: Sender<io::Result<u64>>) -> Self {
        let start = Instant::now();
        let deadline = flow.meta.deadline.map(|d| start + d);
        Self {
            flow,
            start,
            respond,
            retries: 0,
            deadline,
        }
    }
}

struct Engine {
    rx: Receiver<EngineMsg>,
    /// Clone of the manager's sender: thread-model workers route their
    /// completions back through it (see [`EngineMsg::Completed`]), and
    /// holding it keeps the channel connected for the engine's lifetime.
    self_tx: Sender<EngineMsg>,
    scheduler: Box<dyn Scheduler>,
    selector: Option<AdaptiveSelector>,
    fixed_model: Option<ModelKind>,
    event_flows: HashMap<FlowId, EventFlow>,
    /// Event-model flows waiting out a retry backoff; re-admitted to the
    /// scheduler when their instant arrives. Still counted as in-flight.
    retry_queue: Vec<(Instant, EventFlow)>,
    stats: Arc<Mutex<TransferStats>>,
    outstanding_external: usize,
    shutting_down: bool,
    metrics: Option<EngineMetrics>,
    /// Model chosen for the previous submission; a change is an
    /// adaptive-switch event worth counting.
    last_model: Option<ModelKind>,
}

impl Engine {
    fn new(
        config: TransferConfig,
        rx: Receiver<EngineMsg>,
        self_tx: Sender<EngineMsg>,
        stats: Arc<Mutex<TransferStats>>,
    ) -> Self {
        let scheduler: Box<dyn Scheduler> = match &config.policy {
            SchedPolicy::Fcfs => Box::new(FcfsScheduler::new()),
            SchedPolicy::Proportional {
                tickets,
                work_conserving,
            } => {
                let mut s = if *work_conserving {
                    StrideScheduler::new()
                } else {
                    StrideScheduler::non_work_conserving(8)
                };
                for (class, t) in tickets {
                    s.set_tickets(class, *t);
                }
                Box::new(s)
            }
            SchedPolicy::CacheAware => Box::new(CacheAwareScheduler::new()),
        };
        let (selector, fixed_model) = match &config.model {
            ModelSelection::Fixed(m) => (None, Some(*m)),
            ModelSelection::Adaptive(models) => (Some(AdaptiveSelector::new(models.clone())), None),
        };
        Self {
            rx,
            self_tx,
            scheduler,
            selector,
            fixed_model,
            event_flows: HashMap::new(),
            retry_queue: Vec::new(),
            stats,
            outstanding_external: 0,
            shutting_down: false,
            metrics: config.obs.map(EngineMetrics::new),
            last_model: None,
        }
    }

    /// In-flight flows across the event engine, the retry wait-room, and
    /// the thread model.
    fn note_queue_depth(&self) {
        if let Some(m) = &self.metrics {
            m.queue_depth.set(
                (self.event_flows.len() + self.retry_queue.len() + self.outstanding_external)
                    as i64,
            );
        }
    }

    /// Moves retry-queue entries whose backoff has elapsed back into the
    /// scheduler; fails entries whose deadline passed or that were
    /// cancelled while waiting.
    fn requeue_due_retries(&mut self) {
        if self.retry_queue.is_empty() {
            return;
        }
        let now = Instant::now();
        let due: Vec<EventFlow> = {
            let mut due = Vec::new();
            let mut i = 0;
            while i < self.retry_queue.len() {
                if self.retry_queue[i].0 <= now {
                    due.push(self.retry_queue.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            due
        };
        for ef in due {
            if ef.flow.meta.is_cancelled() {
                self.fail_event_flow(ef, cancelled_error(), FailureKind::Cancelled);
            } else if ef.deadline.is_some_and(|d| now >= d) {
                self.fail_event_flow(ef, deadline_error(), FailureKind::DeadlineExceeded);
            } else {
                self.scheduler.admit(&ef.flow.meta);
                self.event_flows.insert(ef.flow.meta.id, ef);
            }
        }
    }

    /// The engine loop: wakeup-driven, not quantum-polled.
    ///
    /// The old loop slept a fixed 20 ms when idle (quantizing every retry
    /// backoff up to 20 ms) and spun hot through `try_recv` +
    /// `yield_now` when the non-work-conserving scheduler declined to
    /// dispatch (100% CPU while deliberately idling). Now there is exactly
    /// one wait point: `recv_timeout` on the message channel, with the
    /// timeout computed from the next *known* event — the earliest retry
    /// due-instant or flow deadline — bounded by an escalating backoff
    /// while the scheduler keeps declining. Any message (submission,
    /// thread-model completion, shutdown) wakes the engine immediately;
    /// between wakeups it consumes no CPU.
    fn run(mut self) {
        // Consecutive scheduling passes that produced no dispatch; drives
        // the escalating park while the scheduler deliberately idles.
        let mut declines: u32 = 0;
        loop {
            if let Some(m) = &self.metrics {
                m.engine_wakeups.inc();
            }
            // Drain pending messages without blocking.
            let mut got_msg = false;
            while let Ok(msg) = self.rx.try_recv() {
                got_msg = true;
                self.handle(msg);
            }
            // Wake flows whose retry backoff has elapsed.
            self.requeue_due_retries();
            if self.shutting_down
                && self.event_flows.is_empty()
                && self.retry_queue.is_empty()
                && self.outstanding_external == 0
            {
                return;
            }
            if got_msg {
                // New work may have changed the scheduling picture.
                declines = 0;
            }
            let dispatched = if self.event_flows.is_empty() {
                false
            } else if self.metrics.is_some() {
                let t = Instant::now();
                let c = crate::zerocopy::thread_cpu_ns();
                let d = self.step_events();
                if let Some(m) = &self.metrics {
                    m.sched_pass_us.record(t.elapsed());
                    m.engine_cpu_ns
                        .add(crate::zerocopy::thread_cpu_ns().saturating_sub(c));
                }
                d
            } else {
                self.step_events()
            };
            if dispatched {
                declines = 0;
                continue; // work-conserving hot path: no park
            }
            // Nothing dispatchable right now — the engine is idle, every
            // event flow is in a retry backoff, or the non-work-conserving
            // scheduler is deliberately idling. Block until a message
            // arrives or the next known event is due.
            declines = declines.saturating_add(1);
            let park = self.park_duration(declines);
            if let Some(m) = &self.metrics {
                m.engine_parks.inc();
            }
            match self.rx.recv_timeout(park) {
                Ok(msg) => {
                    declines = 0;
                    self.handle(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while `self_tx` is held, but harmless.
                    self.shutting_down = true;
                }
            }
            // Flows the scheduler is holding never reach the per-chunk
            // cancel/deadline checks in `step_events`; sweep them on each
            // park wakeup so cancellation and deadlines are honored within
            // one bounded park even for never-dispatched flows.
            self.sweep_blocked_flows();
        }
    }

    /// How long to block when no dispatch is possible: the time to the
    /// next known event (earliest retry due-instant or flow deadline),
    /// bounded by an escalating 1→16 ms backoff against scheduler
    /// declines, and capped so cancellations (which arrive by flag, not
    /// message) are noticed promptly while flows exist.
    fn park_duration(&self, declines: u32) -> Duration {
        /// Longest park while any flow is in flight (cancel-notice bound).
        const MAX_PARK: Duration = Duration::from_millis(20);
        /// Longest park when the engine is completely idle (any message
        /// wakes it immediately; the timeout is only a safety backstop).
        const IDLE_PARK: Duration = Duration::from_millis(200);
        /// Floor preventing a zero-timeout spin when an event is due now.
        const MIN_PARK: Duration = Duration::from_micros(100);
        let busy = !self.event_flows.is_empty()
            || !self.retry_queue.is_empty()
            || self.outstanding_external > 0;
        let cap = if busy { MAX_PARK } else { IDLE_PARK };
        let backoff = Duration::from_millis(1u64 << declines.saturating_sub(1).min(5));
        let mut park = backoff.min(cap);
        if let Some(next) = self.next_wakeup() {
            park = park.min(next.saturating_duration_since(Instant::now()));
        }
        park.max(MIN_PARK)
    }

    /// The earliest instant at which time-driven work becomes due: a retry
    /// backoff expiring or a deadline elapsing (for scheduled flows *and*
    /// flows waiting in the retry queue).
    fn next_wakeup(&self) -> Option<Instant> {
        let retry_due = self.retry_queue.iter().map(|(t, _)| *t).min();
        let waiting_deadline = self
            .retry_queue
            .iter()
            .filter_map(|(_, ef)| ef.deadline)
            .min();
        let flow_deadline = self.event_flows.values().filter_map(|ef| ef.deadline).min();
        [retry_due, waiting_deadline, flow_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    /// Fails scheduled-but-undispatched flows whose cancellation flag is
    /// set or whose deadline has passed. `step_events` performs the same
    /// checks per chunk for flows that actually run; this covers flows the
    /// scheduler is holding (0-ticket classes, NWC idling).
    fn sweep_blocked_flows(&mut self) {
        if self.event_flows.is_empty() {
            return;
        }
        let now = Instant::now();
        let doomed: Vec<FlowId> = self
            .event_flows
            .iter()
            .filter(|(_, ef)| ef.flow.meta.is_cancelled() || ef.deadline.is_some_and(|d| now >= d))
            .map(|(id, _)| *id)
            .collect();
        for id in doomed {
            self.scheduler.done(id);
            let ef = self.event_flows.remove(&id).expect("flow present");
            if ef.flow.meta.is_cancelled() {
                self.fail_event_flow(ef, cancelled_error(), FailureKind::Cancelled);
            } else {
                self.fail_event_flow(ef, deadline_error(), FailureKind::DeadlineExceeded);
            }
        }
    }

    fn handle(&mut self, msg: EngineMsg) {
        match msg {
            EngineMsg::Shutdown => self.shutting_down = true,
            EngineMsg::Completed {
                completion,
                respond,
            } => {
                self.outstanding_external -= 1;
                self.finish(*completion, respond);
            }
            EngineMsg::Submit { flow, respond } => {
                let flow = *flow;
                let model = match (&mut self.selector, self.fixed_model) {
                    (_, Some(m)) => m,
                    (Some(sel), None) => sel.choose(),
                    (None, None) => ModelKind::Events,
                };
                if let Some(m) = &self.metrics {
                    if self.last_model.is_some_and(|prev| prev != model) {
                        m.model_switches.inc();
                    }
                }
                self.last_model = Some(model);
                match model {
                    ModelKind::Events => {
                        // The flow arrives carrying its pooled staging
                        // buffer, already at the manager's chunk size: no
                        // rebuffering, no allocation on admission.
                        self.scheduler.admit(&flow.meta);
                        self.event_flows
                            .insert(flow.meta.id, EventFlow::new(flow, respond));
                    }
                    ModelKind::Threads => {
                        let tx = self.self_tx.clone();
                        self.outstanding_external += 1;
                        launch_thread(
                            flow,
                            Box::new(move |c| {
                                let _ = tx.send(EngineMsg::Completed {
                                    completion: Box::new(c),
                                    respond,
                                });
                            }),
                        );
                    }
                }
                self.note_queue_depth();
            }
        }
    }

    /// Fails an event-model flow: aborts the sink (partial-output
    /// cleanup), builds the failure completion, and reports it. The flow
    /// must already be detached from the scheduler and `event_flows`.
    fn fail_event_flow(&mut self, mut ef: EventFlow, error: io::Error, kind: FailureKind) {
        ef.flow.abort();
        let completion = Completion {
            bytes: ef.flow.moved(),
            meta: ef.flow.meta.clone(),
            elapsed: ef.start.elapsed(),
            model: ModelKind::Events,
            result: Err(error),
            retries: ef.retries,
            aborted: true,
            failure: Some(kind),
            zc_engaged: ef.flow.zc_engaged(),
            zc_fell_back: ef.flow.zc_fell_back(),
        };
        self.finish(completion, ef.respond);
    }

    /// One scheduling pass: drains up to [`EVENT_BATCH`] ready
    /// dispatches before returning to the message-channel wait point.
    /// Batching amortizes the engine loop's per-wakeup overhead (channel
    /// `try_recv`, retry-queue scan, park bookkeeping) over many chunks
    /// instead of paying it once per chunk per flow; the per-dispatch
    /// cancel/deadline checks and scheduler accounting in
    /// [`Engine::step_one`] are unchanged, so fairness and
    /// responsiveness bounds still hold at chunk granularity. Returns
    /// whether any dispatch happened — `false` means the scheduler
    /// declined (non-work-conserving idling, a held class, or no
    /// runnable flows) and the caller should park rather than spin.
    fn step_events(&mut self) -> bool {
        let mut dispatched = false;
        for _ in 0..EVENT_BATCH {
            if !self.step_one() {
                break;
            }
            dispatched = true;
        }
        dispatched
    }

    /// Asks the scheduler for a flow and advances it by one chunk (or one
    /// zero-copy span). Returns whether a dispatch happened.
    fn step_one(&mut self) -> bool {
        let Some(id) = self.scheduler.next() else {
            return false;
        };
        let Some(ef) = self.event_flows.get_mut(&id) else {
            self.scheduler.done(id);
            return true;
        };
        // Cooperative cancellation and deadlines are honored at chunk
        // boundaries, before spending more I/O on a doomed flow.
        if ef.flow.meta.is_cancelled() {
            self.scheduler.done(id);
            let ef = self.event_flows.remove(&id).unwrap();
            self.fail_event_flow(ef, cancelled_error(), FailureKind::Cancelled);
            return true;
        }
        if ef.deadline.is_some_and(|d| Instant::now() >= d) {
            self.scheduler.done(id);
            let ef = self.event_flows.remove(&id).unwrap();
            self.fail_event_flow(ef, deadline_error(), FailureKind::DeadlineExceeded);
            return true;
        }
        match ef.flow.step() {
            Ok(StepOutcome::Moved(n)) => {
                self.scheduler.account(id, n as u64);
            }
            Ok(StepOutcome::Finished) => {
                self.scheduler.done(id);
                let ef = self.event_flows.remove(&id).unwrap();
                let completion = Completion {
                    bytes: ef.flow.moved(),
                    meta: ef.flow.meta.clone(),
                    elapsed: ef.start.elapsed(),
                    model: ModelKind::Events,
                    result: Ok(()),
                    retries: ef.retries,
                    aborted: false,
                    failure: None,
                    zc_engaged: ef.flow.zc_engaged(),
                    zc_fell_back: ef.flow.zc_fell_back(),
                };
                self.finish(completion, ef.respond);
            }
            Err(e) => {
                self.scheduler.done(id);
                let mut ef = self.event_flows.remove(&id).unwrap();
                // Plan a retry if the failure is transient, the budget
                // allows it, the backoff fits inside the deadline, and both
                // endpoints can be replayed. The engine thread never
                // sleeps: the flow waits in the retry queue instead.
                let policy = ef.flow.meta.retry.clone();
                let backoff = policy.backoff(ef.retries + 1);
                let within_deadline = ef.deadline.is_none_or(|d| Instant::now() + backoff < d);
                if classify(e.kind()) == ErrorClass::Transient
                    && policy.allows_retry(ef.retries)
                    && within_deadline
                    && ef.flow.reset_for_retry().is_ok()
                {
                    ef.retries += 1;
                    self.retry_queue.push((Instant::now() + backoff, ef));
                    self.note_queue_depth();
                    return true;
                }
                self.fail_event_flow(ef, e, FailureKind::Io);
            }
        }
        true
    }

    fn finish(&mut self, completion: Completion, respond: Sender<io::Result<u64>>) {
        let seconds = completion.elapsed.as_secs_f64();
        let ok = completion.result.is_ok();
        if let Some(sel) = &mut self.selector {
            // Attribute the observation to the flow's scheduling class so
            // memcpy-fast page-cache-resident classes cannot drown out the
            // device-bound ones in the selector's standing.
            if ok {
                sel.report_classed(
                    completion.model,
                    &completion.meta.class,
                    completion.bytes,
                    seconds.max(1e-9),
                );
            } else {
                // A failed completion decays the model's score so a broken
                // model stops attracting traffic (bugfix: previously only
                // successes were reported, so an always-failing model kept
                // its optimistic standing forever).
                sel.report_failure_classed(completion.model, &completion.meta.class);
            }
        }
        {
            let mut stats = self.stats.lock();
            let class = stats
                .classes
                .entry(completion.meta.class.clone())
                .or_default();
            if ok {
                // Delivered-work accounting covers successes only so
                // bandwidth/latency stay honest under faults (bugfix:
                // failures used to inflate both).
                class.bytes += completion.bytes;
                class.completed += 1;
                class.total_latency += seconds;
            } else {
                class.failed += 1;
            }
            *stats.per_model.entry(completion.model).or_insert(0) += 1;
            stats.retries += u64::from(completion.retries);
            if !ok {
                stats.failures += 1;
                match completion.failure {
                    Some(FailureKind::DeadlineExceeded) => stats.deadline_exceeded += 1,
                    Some(FailureKind::Cancelled) => stats.cancelled += 1,
                    _ => {}
                }
            }
        }
        if let Some(m) = &mut self.metrics {
            m.per_model[model_slot(completion.model)].inc();
            m.retries.add(u64::from(completion.retries));
            if completion.zc_engaged {
                m.zc_sendfile_flows.inc();
            }
            if completion.zc_fell_back {
                m.zc_fallbacks.inc();
            }
            if ok {
                m.bytes_total.add(completion.bytes);
                m.bandwidth.mark(completion.bytes);
                m.latency_us.record(completion.elapsed);
                m.completed.inc();
                let (class_bytes, class_bw) = m.class(&completion.meta.class);
                class_bytes.add(completion.bytes);
                class_bw.mark(completion.bytes);
            } else {
                m.failures.inc();
                if completion.aborted {
                    m.aborted.inc();
                }
                match completion.failure {
                    Some(FailureKind::DeadlineExceeded) => m.deadline_exceeded.inc(),
                    Some(FailureKind::Cancelled) => m.cancelled.inc(),
                    _ => {}
                }
            }
        }
        self.note_queue_depth();
        let bytes = completion.bytes;
        let _ = respond.send(completion.result.map(|_| bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{CountingSink, PatternSource};

    fn config_fixed(model: ModelKind) -> TransferConfig {
        TransferConfig {
            policy: SchedPolicy::Fcfs,
            model: ModelSelection::Fixed(model),
            ..TransferConfig::default()
        }
    }

    fn submit_n(tm: &TransferManager, n: usize, class: &str, size: u64) -> Vec<TransferHandle> {
        (0..n)
            .map(|_| {
                let meta = FlowMeta::new(tm.next_flow_id(), class, Some(size));
                tm.submit(
                    meta,
                    Box::new(PatternSource::new(size)),
                    Box::new(CountingSink::default()),
                )
            })
            .collect()
    }

    #[test]
    fn single_transfer_each_model() {
        for model in [ModelKind::Events, ModelKind::Threads] {
            let tm = TransferManager::new(config_fixed(model));
            let handles = submit_n(&tm, 1, "chirp", 100_000);
            for h in handles {
                assert_eq!(h.wait().unwrap(), 100_000);
            }
            let stats = tm.stats();
            assert_eq!(stats.per_model.get(&model), Some(&1));
            assert_eq!(stats.classes["chirp"].bytes, 100_000);
            tm.shutdown();
        }
    }

    #[test]
    fn instrumented_engine_reports_bytes_and_per_class_bandwidth() {
        let obs = Obs::new();
        let tm = TransferManager::new(TransferConfig {
            model: ModelSelection::Fixed(ModelKind::Events),
            obs: Some(Arc::clone(&obs)),
            ..TransferConfig::default()
        });
        let mut handles = submit_n(&tm, 3, "http", 100_000);
        handles.extend(submit_n(&tm, 1, "chirp", 50_000));
        for h in handles {
            h.wait().unwrap();
        }
        let snap = obs.snapshot();
        assert_eq!(snap.count("transfer.bytes_total"), 350_000);
        assert_eq!(snap.count("transfer.completed"), 4);
        assert_eq!(snap.count("transfer.failures"), 0);
        assert_eq!(snap.count("transfer.class.http.bytes"), 300_000);
        assert_eq!(snap.count("transfer.class.chirp.bytes"), 50_000);
        // Recent completions drive the EWMA meters above zero.
        assert!(snap.value("transfer.bandwidth_bps") > 0.0);
        assert!(snap.value("transfer.class.http.bandwidth_bps") > 0.0);
        assert!(snap.latency_count("transfer.latency_us") == 4);
        // All flows drained: the queue-depth gauge has returned to zero.
        assert_eq!(snap.count("transfer.queue_depth"), 0);
        tm.shutdown();
        // Pass instruments are recorded after each drained batch, so the
        // last record can land just after the completion wakeup — join
        // the engine (above) before asserting on them.
        let snap = obs.snapshot();
        assert!(snap.latency_count("transfer.sched.pass_us") >= 1);
        assert!(snap.count("transfer.engine.cpu_ns") > 0);
    }

    #[test]
    fn model_switches_are_counted_in_adaptive_mode() {
        let obs = Obs::new();
        let tm = TransferManager::new(TransferConfig {
            model: ModelSelection::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
            obs: Some(Arc::clone(&obs)),
            ..TransferConfig::default()
        });
        // The adaptive warmup round-robins across models, so consecutive
        // submissions are guaranteed to alternate at least once.
        for h in submit_n(&tm, 6, "ftp", 32 * 1024) {
            h.wait().unwrap();
        }
        let snap = obs.snapshot();
        assert!(snap.count("transfer.model.switches") >= 1);
        // The per-model completion counters publish the assignment mix.
        let stats = tm.stats();
        for model in [ModelKind::Events, ModelKind::Threads] {
            assert_eq!(
                snap.count(&format!("transfer.model.{model}")),
                stats.per_model.get(&model).copied().unwrap_or(0),
                "model {model}"
            );
        }
        assert_eq!(
            snap.count("transfer.model.events") + snap.count("transfer.model.threads"),
            6
        );
        tm.shutdown();
    }

    #[test]
    fn concurrent_event_transfers_interleave_and_finish() {
        let tm = TransferManager::new(config_fixed(ModelKind::Events));
        let handles = submit_n(&tm, 8, "http", 256 * 1024);
        for h in handles {
            assert_eq!(h.wait().unwrap(), 256 * 1024);
        }
        assert_eq!(tm.stats().classes["http"].completed, 8);
        tm.shutdown();
    }

    #[test]
    fn adaptive_mode_distributes_then_completes() {
        let tm = TransferManager::new(TransferConfig {
            policy: SchedPolicy::Fcfs,
            model: ModelSelection::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
            ..TransferConfig::default()
        });
        let handles = submit_n(&tm, 12, "ftp", 64 * 1024);
        for h in handles {
            assert_eq!(h.wait().unwrap(), 64 * 1024);
        }
        let stats = tm.stats();
        let total: u64 = stats.per_model.values().sum();
        assert_eq!(total, 12);
        // Warmup guarantees both models saw work.
        assert!(
            stats
                .per_model
                .get(&ModelKind::Events)
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            stats
                .per_model
                .get(&ModelKind::Threads)
                .copied()
                .unwrap_or(0)
                > 0
        );
        tm.shutdown();
    }

    #[test]
    fn proportional_policy_shares_bandwidth() {
        let tm = TransferManager::new(TransferConfig {
            policy: SchedPolicy::Proportional {
                tickets: vec![("a".into(), 300), ("b".into(), 100)],
                work_conserving: true,
            },
            model: ModelSelection::Fixed(ModelKind::Events),
            ..TransferConfig::default()
        });
        // Long-running flows of both classes; completions tell us both ran.
        let mut handles = submit_n(&tm, 2, "a", 2 * 1024 * 1024);
        handles.extend(submit_n(&tm, 2, "b", 2 * 1024 * 1024));
        for h in handles {
            h.wait().unwrap();
        }
        let stats = tm.stats();
        assert_eq!(stats.classes["a"].bytes, 4 * 1024 * 1024);
        assert_eq!(stats.classes["b"].bytes, 4 * 1024 * 1024);
        tm.shutdown();
    }

    #[test]
    fn failing_transfer_reports_error() {
        struct Failing;
        impl DataSource for Failing {
            fn read_chunk(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"))
            }
        }
        let tm = TransferManager::new(config_fixed(ModelKind::Events));
        let meta = FlowMeta::new(tm.next_flow_id(), "chirp", None);
        let h = tm.submit(meta, Box::new(Failing), Box::new(Vec::new()));
        assert!(h.wait().is_err());
        assert_eq!(tm.stats().failures, 1);
        tm.shutdown();
    }

    #[test]
    fn stats_latency_accumulates() {
        let tm = TransferManager::new(config_fixed(ModelKind::Threads));
        for h in submit_n(&tm, 3, "nfs", 10_000) {
            h.wait().unwrap();
        }
        let stats = tm.stats();
        assert_eq!(stats.classes["nfs"].completed, 3);
        assert!(stats.mean_latency() > 0.0);
        assert_eq!(stats.total_bytes(), 30_000);
        tm.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let tm = TransferManager::new(config_fixed(ModelKind::Events));
        let h = {
            let handles = submit_n(&tm, 1, "x", 1000);
            handles.into_iter().next().unwrap()
        };
        assert_eq!(h.wait().unwrap(), 1000);
        drop(tm); // must not hang
    }

    // -- failure domain ----------------------------------------------------

    use crate::fault::{FaultBudget, FaultingSource, RetryPolicy};

    /// An endless source that trickles bytes slowly (for cancel/deadline
    /// tests: the flow can never finish on its own).
    struct Trickle;
    impl DataSource for Trickle {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(1));
            let n = buf.len().min(1024);
            buf[..n].fill(7);
            Ok(n)
        }
    }

    #[test]
    fn failed_transfer_not_counted_as_completed() {
        // Regression: failures incremented `completed` and their partial
        // bytes inflated class bandwidth.
        let tm = TransferManager::new(config_fixed(ModelKind::Events));
        let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(200_000));
        let src = FaultingSource::new(
            PatternSource::new(200_000),
            4096,
            io::ErrorKind::NotFound, // permanent: no retry
            FaultBudget::Always,
        );
        let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
        assert!(h.wait().is_err());
        let stats = tm.stats();
        let class = &stats.classes["chirp"];
        assert_eq!(class.completed, 0, "failure counted as completion");
        assert_eq!(class.bytes, 0, "failed bytes inflated class bytes");
        assert_eq!(class.failed, 1);
        assert_eq!(stats.failures, 1);
        // The failure still shows up in the assignment mix.
        assert_eq!(stats.per_model.get(&ModelKind::Events), Some(&1));
        tm.shutdown();
    }

    #[test]
    fn transient_fault_retried_to_success_on_each_model() {
        for model in [ModelKind::Events, ModelKind::Threads] {
            let tm = TransferManager::new(config_fixed(model));
            let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(100_000))
                .with_retry(RetryPolicy::standard().with_seed(9));
            let src = FaultingSource::new(
                PatternSource::new(100_000),
                0,
                io::ErrorKind::ConnectionReset,
                FaultBudget::Times(2),
            );
            let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
            assert_eq!(h.wait().unwrap(), 100_000, "model {}", model);
            let stats = tm.stats();
            assert_eq!(stats.retries, 2, "model {}", model);
            assert_eq!(stats.failures, 0, "model {}", model);
            assert_eq!(stats.classes["chirp"].completed, 1, "model {}", model);
            tm.shutdown();
        }
    }

    #[test]
    fn retries_exhausted_is_terminal_failure() {
        let tm = TransferManager::new(config_fixed(ModelKind::Events));
        let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(100_000))
            .with_retry(RetryPolicy::standard().with_seed(3).with_max_attempts(2));
        let src = FaultingSource::new(
            PatternSource::new(100_000),
            0,
            io::ErrorKind::ConnectionReset,
            FaultBudget::Always,
        );
        let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
        let err = h.wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let stats = tm.stats();
        assert_eq!(stats.retries, 1); // 2 attempts = 1 retry
        assert_eq!(stats.failures, 1);
        tm.shutdown();
    }

    #[test]
    fn cancel_interrupts_flow_on_each_model() {
        for model in [ModelKind::Events, ModelKind::Threads] {
            let tm = TransferManager::new(config_fixed(model));
            let meta = FlowMeta::new(tm.next_flow_id(), "chirp", None);
            let h = tm.submit(meta, Box::new(Trickle), Box::new(CountingSink::default()));
            std::thread::sleep(Duration::from_millis(10));
            h.cancel();
            let err = h.wait().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "model {}", model);
            let stats = tm.stats();
            assert_eq!(stats.cancelled, 1, "model {}", model);
            assert_eq!(stats.failures, 1, "model {}", model);
            tm.shutdown();
        }
    }

    #[test]
    fn deadline_expires_slow_flow() {
        for model in [ModelKind::Events, ModelKind::Threads] {
            let tm = TransferManager::new(config_fixed(model));
            let meta = FlowMeta::new(tm.next_flow_id(), "chirp", None)
                .with_deadline(Duration::from_millis(30));
            let h = tm.submit(meta, Box::new(Trickle), Box::new(CountingSink::default()));
            let err = h.wait().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "model {}", model);
            let stats = tm.stats();
            assert_eq!(stats.deadline_exceeded, 1, "model {}", model);
            tm.shutdown();
        }
    }

    #[test]
    fn terminal_failure_aborts_sink_and_drains_queue() {
        let obs = Obs::new();
        let tm = TransferManager::new(TransferConfig {
            model: ModelSelection::Fixed(ModelKind::Events),
            obs: Some(Arc::clone(&obs)),
            ..TransferConfig::default()
        });
        let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(100_000));
        let src = FaultingSource::new(
            PatternSource::new(100_000),
            0,
            io::ErrorKind::PermissionDenied,
            FaultBudget::Always,
        );
        let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
        assert!(h.wait().is_err());
        let snap = obs.snapshot();
        assert_eq!(snap.count("transfer.failures"), 1);
        assert_eq!(snap.count("transfer.aborted"), 1);
        assert_eq!(snap.count("transfer.completed"), 0);
        assert_eq!(snap.count("transfer.bytes_total"), 0);
        assert_eq!(snap.count("transfer.queue_depth"), 0);
        tm.shutdown();
    }

    /// A source that fails permanently on the thread model's worker pool
    /// and streams normally on the event engine — the
    /// "permanently-failing model" from the adaptive-selection regression.
    struct FailsOnWorkerThread(PatternSource);
    impl DataSource for FailsOnWorkerThread {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::thread::current().name() == Some("nest-transfer-worker") {
                return Err(io::Error::new(io::ErrorKind::NotFound, "worker pool dead"));
            }
            self.0.read_chunk(buf)
        }
    }

    #[test]
    fn failing_model_stops_attracting_traffic() {
        // Regression: only successes were reported to the selector, so a
        // model that always failed kept its optimistic INFINITY standing
        // and was chosen forever.
        let tm = TransferManager::new(TransferConfig {
            model: ModelSelection::Adaptive(vec![ModelKind::Threads, ModelKind::Events]),
            ..TransferConfig::default()
        });
        for _ in 0..64 {
            let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(32 * 1024));
            let h = tm.submit(
                meta,
                Box::new(FailsOnWorkerThread(PatternSource::new(32 * 1024))),
                Box::new(CountingSink::default()),
            );
            // Sequential waits: the selector sees each outcome before the
            // next pick, so the convergence bound is deterministic.
            let _ = h.wait();
        }
        let stats = tm.stats();
        let threads = stats
            .per_model
            .get(&ModelKind::Threads)
            .copied()
            .unwrap_or(0);
        assert!(
            threads <= 32,
            "broken thread model still received {} of 64 assignments",
            threads
        );
        assert_eq!(stats.failures, threads);
        tm.shutdown();
    }
}
