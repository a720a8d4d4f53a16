//! The unified session layer: one connection-lifecycle subsystem shared by
//! every wire protocol (paper §4 — the dispatcher is the appliance's single
//! front door, not "just a bunch of servers").
//!
//! Before this module, each of the six protocol front-ends ran its own
//! copy-pasted acceptor loop: a nonblocking `accept` polled on a 5 ms
//! sleep, one unbounded OS thread per connection, and `shutdown()` that
//! abandoned live connections. [`SessionLayer`] replaces all of them with:
//!
//! * **one poller thread** multiplexing every listening socket by
//!   readiness (`poll(2)`), woken for shutdown through a loopback UDP
//!   self-wake socket — no busy-sleeping;
//! * **per-protocol bounded worker pools** with a global connection cap
//!   and a configurable admission policy: queue up to
//!   [`SessionConfig::queue_depth`], then *reject* with a
//!   protocol-appropriate overload reply ([`OverloadReply`]) instead of
//!   spawning without bound — the same shape as GridFTP's server caps and
//!   CASTOR's bounded request-handler pools;
//! * **idle deadlines**: connections whose clients go silent for
//!   [`SessionConfig::idle_timeout`] are reaped ([`SessionCtx::await_request`]
//!   between requests, socket read timeouts within one);
//! * **graceful drain**: [`SessionLayer::drain`] stops accepting, signals
//!   in-flight handlers through a shared [`ShutdownToken`] they poll
//!   between requests, waits for them up to a deadline, hard-closes
//!   stragglers, and joins every pool thread before returning.
//!
//! This file is the only sanctioned `std::thread::spawn` site on a
//! connection path (enforced by the `conn-spawn` nest-lint rule).

use nest_obs::{Counter, Gauge, Histogram, Obs};
use parking_lot::{Condvar, Mutex, ShardedMutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`SessionLayer::drain`] waits for in-flight handlers before
/// hard-closing their connections.
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Granularity at which idle handlers re-check the shutdown token.
const POLL_STEP: Duration = Duration::from_millis(50);

/// Session-layer sizing and admission policy.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Global cap on concurrently open (admitted) connections across all
    /// protocols.
    pub max_conns: usize,
    /// Worker-pool size per protocol: at most this many connections per
    /// protocol are served concurrently.
    pub max_conns_per_protocol: usize,
    /// How many admitted connections may wait for a worker per protocol
    /// before new arrivals are rejected with an overload reply.
    pub queue_depth: usize,
    /// Reap connections whose client has been silent this long between
    /// (and within) requests. `None` disables idle reaping.
    pub idle_timeout: Option<Duration>,
    /// Stripe count for each pool's live-connection registry (`1` = the
    /// single-mutex ablation). At 10k+ churning sessions the per-serve
    /// insert/remove pair otherwise serializes every worker on one map.
    pub shards: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            max_conns: 256,
            max_conns_per_protocol: 64,
            queue_depth: 0,
            idle_timeout: None,
            shards: 8,
        }
    }
}

/// Shared drain signal: handlers poll it between requests, the poller
/// checks it between accept batches.
#[derive(Clone, Default)]
pub struct ShutdownToken(Arc<AtomicBool>);

impl ShutdownToken {
    /// Creates a token in the "accepting" state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether drain has begun: stop starting new work and return.
    pub fn draining(&self) -> bool {
        // nestlint: allow(atomic-ordering): drain latch; accept loops only need eventual visibility
        self.0.load(Ordering::Relaxed)
    }

    fn begin_drain(&self) {
        // nestlint: allow(atomic-ordering): drain latch; no data is published under it
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What [`SessionCtx::await_request`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Await {
    /// Bytes (or EOF) are waiting: read the next request.
    Ready,
    /// The server is draining: finish up and return.
    Drain,
    /// The client has been silent past the idle deadline: close it.
    Idle,
}

/// Per-connection context handed to every protocol handler.
pub struct SessionCtx {
    token: ShutdownToken,
    idle: Option<Duration>,
    reaped: AtomicBool,
}

impl SessionCtx {
    fn new(token: ShutdownToken, idle: Option<Duration>) -> Self {
        Self {
            token,
            idle,
            reaped: AtomicBool::new(false),
        }
    }

    /// A context that never drains and never reaps — for driving a handler
    /// directly in tests or embeddings without a [`SessionLayer`].
    pub fn unmanaged() -> Self {
        Self::new(ShutdownToken::new(), None)
    }

    /// Whether the server is draining.
    pub fn draining(&self) -> bool {
        self.token.draining()
    }

    /// The connection's idle deadline, if any.
    pub fn idle_timeout(&self) -> Option<Duration> {
        self.idle
    }

    /// Blocks until the connection has a request to read, the server
    /// drains, or the idle deadline passes. Handlers call this at the top
    /// of their request loop; on [`Await::Ready`] the stream's read
    /// timeout is restored to the idle deadline (so a client that dies
    /// *mid*-request is also reaped).
    pub fn await_request(&self, stream: &TcpStream) -> io::Result<Await> {
        let deadline = self.idle.map(|d| Instant::now() + d);
        let mut probe = [0u8; 1];
        loop {
            if self.token.draining() {
                return Ok(Await::Drain);
            }
            let step = match deadline {
                None => POLL_STEP,
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        // nestlint: allow(atomic-ordering): reap marker re-read by this same worker after the handler returns
                        self.reaped.store(true, Ordering::Relaxed);
                        return Ok(Await::Idle);
                    }
                    POLL_STEP.min(dl - now)
                }
            };
            // `peek` consumes nothing; a short read timeout turns it into
            // a readiness wait with a bounded token-check latency.
            stream.set_read_timeout(Some(step))?;
            match stream.peek(&mut probe) {
                Ok(_) => {
                    // Readable (or EOF). Hand the socket back with the
                    // idle deadline as its read timeout.
                    stream.set_read_timeout(self.idle)?;
                    return Ok(Await::Ready);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => {
                    let _ = stream.set_read_timeout(self.idle);
                    return Err(e);
                }
            }
        }
    }
}

/// The wire bytes written to a connection rejected by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReply {
    /// `HTTP/1.1 503 Service Unavailable` with `Connection: close`.
    Http503,
    /// FTP / GridFTP `421` in greeting position (RFC 959 service-closing).
    Ftp421,
    /// A Chirp negative status line.
    ChirpBusy,
    /// Close without a reply (IBP, NFS: clients treat EOF as retryable).
    Drop,
    /// A protocol-supplied literal reply (plugin fronts whose dialect the
    /// session layer does not know, e.g. S3's `503` + `SlowDown` XML).
    Raw(&'static [u8]),
}

impl OverloadReply {
    /// The wire bytes of this dialect's overload reply.
    pub fn bytes(self) -> &'static [u8] {
        match self {
            OverloadReply::Http503 => {
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            }
            OverloadReply::Ftp421 => b"421 Too many connections, try again later.\r\n",
            OverloadReply::ChirpBusy => b"-9 server busy: connection limit reached\n",
            OverloadReply::Drop => b"",
            OverloadReply::Raw(bytes) => bytes,
        }
    }
}

/// Per-front worker-pool overrides; `None` fields inherit the layer-wide
/// [`SessionConfig`] values. Fronts advertise this through
/// `ProtocolFront::pool_spec`, so one protocol can run a deeper queue or
/// a narrower pool than the appliance default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSpec {
    /// Worker-pool size override (`SessionConfig::max_conns_per_protocol`).
    pub workers: Option<usize>,
    /// Accept-queue depth override (`SessionConfig::queue_depth`).
    pub queue_depth: Option<usize>,
}

/// A protocol front-end's per-connection entry point.
pub type SessionHandler = Arc<dyn Fn(TcpStream, &SessionCtx) -> io::Result<()> + Send + Sync>;

/// Instruments and counters shared by every pool of one [`SessionLayer`].
struct Shared {
    token: ShutdownToken,
    cfg: SessionConfig,
    /// Admitted-and-not-yet-closed connections (busy + queued), across
    /// all protocols. Authoritative for the global cap.
    active: AtomicUsize,
    next_conn: AtomicU64,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    queued: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    drained: Arc<Counter>,
    hard_closed: Arc<Counter>,
    active_gauge: Arc<Gauge>,
    draining_gauge: Arc<Gauge>,
    conns_total: Arc<Counter>,
    active_conns: Arc<Gauge>,
    duration: Arc<Histogram>,
}

impl Shared {
    fn new(obs: &Obs, cfg: SessionConfig) -> Self {
        let m = &obs.metrics;
        Self {
            token: ShutdownToken::new(),
            cfg,
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(1),
            accepted: m.counter("session.accepted"),
            rejected: m.counter("session.rejected"),
            queued: m.counter("session.queued"),
            idle_reaped: m.counter("session.idle_reaped"),
            drained: m.counter("session.drained"),
            hard_closed: m.counter("session.hard_closed"),
            active_gauge: m.gauge("session.active"),
            draining_gauge: m.gauge("session.draining"),
            conns_total: m.counter("server.conns_total"),
            active_conns: m.gauge("server.active_conns"),
            duration: m.histogram("session.duration_us"),
        }
    }

    /// Bookkeeping for one admitted connection entering the layer.
    fn note_admitted(&self) {
        self.accepted.inc();
        self.conns_total.inc();
        self.active_gauge.inc();
        self.active_conns.inc();
    }

    /// Bookkeeping for one admitted connection leaving the layer.
    fn note_closed(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.active_gauge.dec();
        self.active_conns.dec();
    }
}

/// One protocol's bounded worker pool plus its live-connection registry.
struct ProtoPool {
    reply: OverloadReply,
    handler: SessionHandler,
    cap: usize,
    queue_depth: usize,
    shared: Arc<Shared>,
    proto_active: Arc<Gauge>,
    state: Mutex<PoolState>,
    cv: Condvar,
    /// Clones of every in-flight connection, for hard-close at the drain
    /// deadline (`TcpStream::shutdown` interrupts a blocked read).
    /// Striped by connection id so per-serve registration stops
    /// serializing the workers; drain still walks every cell.
    live: ShardedMutex<HashMap<u64, TcpStream>>,
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<TcpStream>,
    busy: usize,
    idle_workers: usize,
    spawned: usize,
    draining: bool,
    workers: Vec<JoinHandle<()>>,
}

impl ProtoPool {
    fn new(
        proto: &'static str,
        reply: OverloadReply,
        handler: SessionHandler,
        spec: PoolSpec,
        shared: Arc<Shared>,
        obs: &Obs,
    ) -> Arc<Self> {
        let proto_active = obs.metrics.gauge(&format!("session.{proto}.active"));
        let live_shards = shared.cfg.shards.max(1);
        Arc::new(Self {
            reply,
            handler,
            cap: spec.workers.unwrap_or(shared.cfg.max_conns_per_protocol),
            queue_depth: spec.queue_depth.unwrap_or(shared.cfg.queue_depth),
            shared,
            proto_active,
            state: Mutex::named("core.session.pool", 150, PoolState::default()),
            cv: Condvar::named("core.session.pool.cv", 150),
            live: ShardedMutex::new("core.session.live", 151, live_shards, |_| HashMap::new()),
        })
    }

    /// Admission control: runs on the poller thread for every accepted
    /// connection. Either hands the connection to this protocol's pool
    /// (possibly queueing it) or rejects it with the overload reply.
    fn admit(self: &Arc<Self>, stream: TcpStream) {
        let sh = &self.shared;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);

        // Global cap first.
        let prev = sh.active.fetch_add(1, Ordering::SeqCst);
        if prev >= sh.cfg.max_conns {
            sh.active.fetch_sub(1, Ordering::SeqCst);
            self.reject(stream);
            return;
        }

        let mut st = self.state.lock();
        if st.draining {
            drop(st);
            sh.active.fetch_sub(1, Ordering::SeqCst);
            self.reject(stream);
            return;
        }
        // Per-protocol cap + queue: `busy` connections hold workers,
        // up to `queue_depth` more may wait, the rest are rejected.
        if st.busy + st.queue.len() >= self.cap + self.queue_depth {
            drop(st);
            sh.active.fetch_sub(1, Ordering::SeqCst);
            self.reject(stream);
            return;
        }
        if st.busy >= self.cap {
            sh.queued.inc();
        }
        st.queue.push_back(stream);
        // Lazy worker spawn, up to the pool cap, only when no idle
        // worker is available to take this connection.
        if st.idle_workers < st.queue.len() && st.spawned < self.cap {
            st.spawned += 1;
            let pool = Arc::clone(self);
            st.workers
                .push(std::thread::spawn(move || pool.worker_loop()));
        }
        drop(st);
        self.cv.notify_one();
        sh.note_admitted();
    }

    /// Writes the protocol's overload reply (best effort) and closes.
    fn reject(&self, mut stream: TcpStream) {
        self.shared.rejected.inc();
        let bytes = self.reply.bytes();
        if !bytes.is_empty() {
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            let _ = stream.write_all(bytes);
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// One pooled worker: serves queued connections until drain.
    fn worker_loop(self: Arc<Self>) {
        loop {
            let stream = {
                let mut st = self.state.lock();
                loop {
                    if let Some(s) = st.queue.pop_front() {
                        st.busy += 1;
                        break s;
                    }
                    if st.draining {
                        return;
                    }
                    st.idle_workers += 1;
                    self.cv.wait(&mut st);
                    st.idle_workers -= 1;
                }
            };
            self.serve(stream);
            self.state.lock().busy -= 1;
        }
    }

    /// Serves one connection: lifecycle instrumentation, live-registry
    /// registration, handler invocation, exit classification.
    fn serve(self: &Arc<Self>, stream: TcpStream) {
        let sh = &self.shared;
        let start = Instant::now();
        self.proto_active.inc();
        let ctx = SessionCtx::new(sh.token.clone(), sh.cfg.idle_timeout);
        let _ = stream.set_read_timeout(sh.cfg.idle_timeout);
        // nestlint: allow(atomic-ordering): monotonic conn-id tick; atomicity alone is the contract
        let id = sh.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.live.lock(id).insert(id, clone);
        }

        let result = (self.handler)(stream, &ctx);

        self.live.lock(id).remove(&id);
        // nestlint: allow(atomic-ordering): reads this worker's own reap marker (same thread)
        let idled = ctx.reaped.load(Ordering::Relaxed)
            || matches!(&result, Err(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut);
        if idled {
            sh.idle_reaped.inc();
        } else if sh.token.draining() {
            sh.drained.inc();
        }
        sh.duration.record(start.elapsed());
        self.proto_active.dec();
        sh.note_closed();
    }
}

#[cfg(unix)]
mod poll_sys {
    //! Minimal `poll(2)` binding — readiness multiplexing for the single
    //! poller thread without external crates (std already links libc).
    use std::io;
    use std::os::unix::io::RawFd;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Waits for readiness on any fd, retrying on `EINTR`.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` points at `fds.len()` initialized pollfds
            // borrowed mutably for the whole call; poll only writes the
            // `revents` fields within that range.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// One front-end registered with the layer: its pool and its listener.
struct Front {
    pool: Arc<ProtoPool>,
    listener: TcpListener,
}

/// The connection-lifecycle subsystem: poller, pools, admission, drain.
pub struct SessionLayer {
    shared: Arc<Shared>,
    obs: Arc<Obs>,
    pools: Vec<Arc<ProtoPool>>,
    /// Fronts registered but not yet started.
    pending: Vec<Front>,
    poller: Option<JoinHandle<()>>,
    wake_tx: Option<UdpSocket>,
    wake_addr: Option<SocketAddr>,
    finished: bool,
}

impl SessionLayer {
    /// Creates a layer writing its instruments into `obs`.
    pub fn new(obs: Arc<Obs>, cfg: SessionConfig) -> Self {
        let shared = Arc::new(Shared::new(&obs, cfg));
        Self {
            shared,
            obs,
            pools: Vec::new(),
            pending: Vec::new(),
            poller: None,
            wake_tx: None,
            wake_addr: None,
            finished: false,
        }
    }

    /// The layer's shutdown token (shared with every connection context).
    pub fn token(&self) -> ShutdownToken {
        self.shared.token.clone()
    }

    /// Registers one protocol front-end: its listener, the overload reply
    /// its clients understand, and its per-connection handler. Must be
    /// called before [`SessionLayer::start`]. Returns the bound address.
    pub fn register(
        &mut self,
        proto: &'static str,
        listener: TcpListener,
        reply: OverloadReply,
        handler: SessionHandler,
    ) -> io::Result<SocketAddr> {
        self.register_with(proto, listener, reply, handler, PoolSpec::default())
    }

    /// [`SessionLayer::register`] with per-front pool-sizing overrides.
    pub fn register_with(
        &mut self,
        proto: &'static str,
        listener: TcpListener,
        reply: OverloadReply,
        handler: SessionHandler,
        spec: PoolSpec,
    ) -> io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let pool = ProtoPool::new(
            proto,
            reply,
            handler,
            spec,
            Arc::clone(&self.shared),
            &self.obs,
        );
        self.pools.push(Arc::clone(&pool));
        self.pending.push(Front { pool, listener });
        Ok(addr)
    }

    /// Starts serving every registered front-end on one poller thread.
    pub fn start(&mut self) -> io::Result<()> {
        let fronts = std::mem::take(&mut self.pending);
        let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
        wake_rx.set_nonblocking(true)?;
        let wake_addr = wake_rx.local_addr()?;
        self.wake_tx = Some(wake_rx.try_clone()?);
        self.wake_addr = Some(wake_addr);
        let token = self.shared.token.clone();
        self.poller = Some(
            std::thread::Builder::new()
                .name("nest-session-poller".into())
                .spawn(move || poller_loop(fronts, wake_rx, token))?,
        );
        Ok(())
    }

    /// Graceful drain: stop accepting, signal in-flight handlers through
    /// the shared token, wait up to `deadline` for them to finish, then
    /// hard-close stragglers and join every thread the layer owns.
    /// Idempotent.
    pub fn drain(&mut self, deadline: Duration) {
        if self.finished {
            return;
        }
        self.finished = true;
        let sh = &self.shared;
        sh.draining_gauge.set(1);
        sh.token.begin_drain();

        // Stop the accept side first: no new admissions.
        if let (Some(tx), Some(addr)) = (&self.wake_tx, self.wake_addr) {
            let _ = tx.send_to(&[1], addr);
        }
        if let Some(t) = self.poller.take() {
            let _ = t.join();
        }

        // Queued-but-never-served connections are closed outright, and
        // idle workers are woken so they can observe the drain.
        for pool in &self.pools {
            let dropped: Vec<TcpStream> = {
                let mut st = pool.state.lock();
                st.draining = true;
                st.queue.drain(..).collect()
            };
            pool.cv.notify_all();
            for s in dropped {
                let _ = s.shutdown(Shutdown::Both);
                sh.hard_closed.inc();
                sh.note_closed();
            }
        }

        // Let in-flight handlers finish their current request streams.
        let hard_deadline = Instant::now() + deadline;
        while sh.active.load(Ordering::SeqCst) > 0 && Instant::now() < hard_deadline {
            std::thread::sleep(Duration::from_millis(2));
        }

        // Deadline passed: hard-close whatever is still on the wire. The
        // socket shutdown interrupts blocked reads, so the handlers (and
        // with them the workers) exit promptly.
        if sh.active.load(Ordering::SeqCst) > 0 {
            for pool in &self.pools {
                pool.live.for_each_cell(|_, cell| {
                    for stream in cell.values() {
                        let _ = stream.shutdown(Shutdown::Both);
                        sh.hard_closed.inc();
                    }
                });
            }
        }

        // Join every worker the layer ever spawned: no leaked handles.
        for pool in &self.pools {
            loop {
                let workers: Vec<JoinHandle<()>> = {
                    let mut st = pool.state.lock();
                    st.workers.drain(..).collect()
                };
                if workers.is_empty() {
                    break;
                }
                pool.cv.notify_all();
                for w in workers {
                    let _ = w.join();
                }
            }
        }
    }
}

impl Drop for SessionLayer {
    fn drop(&mut self) {
        self.drain(DEFAULT_DRAIN_DEADLINE);
    }
}

/// The single poller thread: readiness-multiplexes every listener plus the
/// UDP self-wake socket; accepts in batches and runs admission inline.
fn poller_loop(fronts: Vec<Front>, wake: UdpSocket, token: ShutdownToken) {
    let mut buf = [0u8; 8];
    loop {
        if token.draining() {
            return;
        }
        wait_for_readiness(&fronts, &wake);
        // Swallow wake datagrams (they only exist to interrupt the wait).
        while wake.recv_from(&mut buf).is_ok() {}
        if token.draining() {
            return;
        }
        for front in &fronts {
            loop {
                match front.listener.accept() {
                    Ok((stream, _peer)) => front.pool.admit(stream),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
    }
}

#[cfg(unix)]
fn wait_for_readiness(fronts: &[Front], wake: &UdpSocket) {
    use std::os::unix::io::AsRawFd;
    let mut fds = Vec::with_capacity(fronts.len() + 1);
    fds.push(poll_sys::PollFd {
        fd: wake.as_raw_fd(),
        events: poll_sys::POLLIN,
        revents: 0,
    });
    for front in fronts {
        fds.push(poll_sys::PollFd {
            fd: front.listener.as_raw_fd(),
            events: poll_sys::POLLIN,
            revents: 0,
        });
    }
    // A bounded timeout keeps the loop robust against missed wakeups.
    let _ = poll_sys::wait(&mut fds, 500);
}

#[cfg(not(unix))]
fn wait_for_readiness(_fronts: &[Front], _wake: &UdpSocket) {
    // Portable fallback: the historical sleep-poll cadence.
    std::thread::sleep(Duration::from_millis(5));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn echo_handler() -> SessionHandler {
        Arc::new(|stream: TcpStream, ctx: &SessionCtx| {
            let mut stream = stream;
            loop {
                match ctx.await_request(&stream)? {
                    Await::Ready => {}
                    _ => return Ok(()),
                }
                let mut byte = [0u8; 1];
                match stream.read(&mut byte)? {
                    0 => return Ok(()),
                    _ => stream.write_all(&byte)?,
                }
            }
        })
    }

    fn layer_with(cfg: SessionConfig) -> (SessionLayer, SocketAddr, Arc<Obs>) {
        let obs = Obs::new();
        let mut layer = SessionLayer::new(Arc::clone(&obs), cfg);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = layer
            .register("echo", listener, OverloadReply::Http503, echo_handler())
            .unwrap();
        layer.start().unwrap();
        (layer, addr, obs)
    }

    #[test]
    fn pooled_roundtrip_and_metrics() {
        let (mut layer, addr, obs) = layer_with(SessionConfig::default());
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"x").unwrap();
        let mut back = [0u8; 1];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"x");
        let snap = obs.snapshot();
        assert_eq!(snap.count("session.accepted"), 1);
        assert_eq!(snap.count("server.conns_total"), 1);
        drop(c);
        layer.drain(Duration::from_secs(2));
        assert_eq!(obs.snapshot().count("session.active"), 0);
    }

    #[test]
    fn per_protocol_cap_rejects_third_connection() {
        let cfg = SessionConfig {
            max_conns_per_protocol: 2,
            ..SessionConfig::default()
        };
        let (mut layer, addr, obs) = layer_with(cfg);
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        // Wait for both to be admitted (busy) before the third arrives.
        while obs.snapshot().count("session.echo.active") < 2 {
            std::thread::yield_now();
        }
        let mut c3 = TcpStream::connect(addr).unwrap();
        let mut reply = Vec::new();
        c3.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 503"), "got {text:?}");
        assert!(obs.snapshot().count("session.rejected") >= 1);
        drop((c1, c2));
        layer.drain(Duration::from_secs(2));
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = SessionConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..SessionConfig::default()
        };
        let (mut layer, addr, obs) = layer_with(cfg);
        let mut c = TcpStream::connect(addr).unwrap();
        // Silent client: the server closes it after the idle deadline.
        let mut buf = [0u8; 1];
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(c.read(&mut buf).unwrap(), 0, "expected server-side close");
        assert!(obs.snapshot().count("session.idle_reaped") >= 1);
        layer.drain(Duration::from_secs(2));
    }

    #[test]
    fn pool_spec_overrides_cap_and_raw_reply_is_verbatim() {
        let obs = Obs::new();
        // Layer-wide defaults allow 64 workers; the front narrows to 1 and
        // rejects in a dialect the layer has never heard of.
        let mut layer = SessionLayer::new(Arc::clone(&obs), SessionConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = layer
            .register_with(
                "tiny",
                listener,
                OverloadReply::Raw(b"-BUSY custom dialect\n"),
                echo_handler(),
                PoolSpec {
                    workers: Some(1),
                    queue_depth: Some(0),
                },
            )
            .unwrap();
        layer.start().unwrap();

        let hold = TcpStream::connect(addr).unwrap();
        while obs.snapshot().count("session.tiny.active") < 1 {
            std::thread::yield_now();
        }
        let mut c = TcpStream::connect(addr).unwrap();
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"-BUSY custom dialect\n");
        drop(hold);
        layer.drain(Duration::from_secs(2));
    }

    #[test]
    fn drain_wakes_idle_handlers_promptly() {
        let (mut layer, addr, obs) = layer_with(SessionConfig::default());
        let _c1 = TcpStream::connect(addr).unwrap();
        let _c2 = TcpStream::connect(addr).unwrap();
        while obs.snapshot().count("session.echo.active") < 2 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        layer.drain(Duration::from_secs(10));
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "idle conns should drain in one poll step, took {:?}",
            t0.elapsed()
        );
        assert!(obs.snapshot().count("session.drained") >= 2);
    }
}
