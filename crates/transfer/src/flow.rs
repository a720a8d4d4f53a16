//! Flows: the unit of work the transfer manager schedules.
//!
//! A flow pumps bytes from a [`DataSource`] to a [`DataSink`] one chunk at a
//! time. Chunk granularity is what lets the event-model executor interleave
//! many flows under a scheduling policy, and what makes the stride
//! scheduler's byte-based accounting exact.

use crate::bufpool::PooledBuf;
use crate::fault::RetryPolicy;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies one flow within a transfer manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow-{}", self.0)
    }
}

/// A window onto a source's underlying file, for zero-copy capability
/// negotiation. A source that can expose its backing fd hands the flow a
/// window (`Arc<File>` keeps the handle alive across handle-cache
/// evictions); the flow `sendfile`s straight from it to the sink's fd,
/// skipping the staging buffer entirely.
///
/// A window is a *per-step* grant: the flow re-asks
/// [`DataSource::raw_window`] before every zero-copy step, so a source
/// guarding cached handles (epoch-stamped leases from the storage
/// handle cache) can withdraw the capability the moment its lease goes
/// stale — the flow then falls back to the pooled loop mid-transfer with
/// the logical cursor intact.
pub struct RawWindow {
    /// The backing file, held open for the duration of the step.
    pub file: Arc<std::fs::File>,
    /// Absolute file offset of the next unread byte.
    pub offset: u64,
    /// Bytes left in the source (0 = end of stream).
    pub remaining: u64,
}

/// A source of bytes (disk file, client socket, another NeST...).
pub trait DataSource: Send {
    /// Reads up to `buf.len()` bytes; 0 means end of stream.
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Returns the source to its first byte so a failed transfer can be
    /// retried from scratch. Sources that cannot replay (live sockets)
    /// keep the default, which refuses — such flows fail on the first
    /// error regardless of their retry budget.
    fn rewind(&mut self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "source cannot rewind",
        ))
    }

    /// Zero-copy capability probe: a [`RawWindow`] onto the source's
    /// backing file, or `None` for sources that transform bytes or have
    /// no stable fd (the default). Asked before every zero-copy step;
    /// returning `None` mid-flow cleanly demotes the flow to the pooled
    /// loop.
    fn raw_window(&mut self) -> Option<RawWindow> {
        None
    }

    /// Advances the source's logical cursor after `n` bytes were moved
    /// through a [`RawWindow`] (the bytes never pass through
    /// [`DataSource::read_chunk`]). Keeping the cursor honest is what
    /// makes mid-flow fallback — and retry-after-rewind — byte-exact.
    fn zc_advance(&mut self, _n: u64) {}
}

/// A destination for bytes.
pub trait DataSink: Send {
    /// Writes the whole chunk.
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()>;

    /// Called once after the final chunk, for sinks that need a commit or
    /// acknowledgment step.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Discards partial output so a failed transfer can be retried from
    /// byte 0. Sinks that cannot unwrite (live sockets) keep the default,
    /// which refuses.
    fn reset(&mut self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "sink cannot reset",
        ))
    }

    /// Called exactly once when a flow fails terminally (retries
    /// exhausted, deadline elapsed, or cancelled): best-effort cleanup of
    /// partial output. Storage-backed sinks delete the partial file and
    /// release its lot charge here. The default does nothing.
    fn abort(&mut self) {}

    /// Zero-copy capability probe: the sink's raw socket/file descriptor,
    /// once any buffered prefix (e.g. a pending protocol header) is on
    /// the wire — or `None` for sinks that transform or buffer bytes (the
    /// default). Asked before every zero-copy step, so a sink may answer
    /// `None` while a header is still pending and the fd afterwards.
    #[cfg(unix)]
    fn raw_fd(&mut self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

impl DataSource for std::io::Cursor<Vec<u8>> {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.set_position(0);
        Ok(())
    }
}

impl DataSink for Vec<u8> {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.extend_from_slice(data);
        Ok(())
    }

    fn reset(&mut self) -> io::Result<()> {
        self.clear();
        Ok(())
    }
}

/// Scheduler-visible metadata about a flow.
#[derive(Debug, Clone)]
pub struct FlowMeta {
    /// The flow id.
    pub id: FlowId,
    /// Protocol class ("chirp", "gridftp", "http", "nfs", ...). The stride
    /// scheduler allocates bandwidth between these classes.
    pub class: String,
    /// Total bytes expected, when known (None for streaming puts).
    pub size: Option<u64>,
    /// Whether the gray-box cache model predicts the data is resident.
    pub predicted_cached: bool,
    /// Attempt budget + backoff schedule for transient failures.
    pub retry: RetryPolicy,
    /// Wall-clock budget from dispatch; the engine fails the flow with
    /// `TimedOut` once it elapses. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token, shared with the submitter's
    /// [`crate::manager::TransferHandle`]. Clones of this metadata share
    /// the token.
    pub cancel: Arc<AtomicBool>,
}

impl FlowMeta {
    /// Creates metadata for a flow of known size (no retries, no
    /// deadline).
    pub fn new(id: FlowId, class: impl Into<String>, size: Option<u64>) -> Self {
        Self {
            id,
            class: class.into(),
            size,
            predicted_cached: false,
            retry: RetryPolicy::none(),
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets a wall-clock deadline measured from dispatch.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests cooperative cancellation of this flow.
    pub fn request_cancel(&self) {
        // nestlint: allow(atomic-ordering): cancel latch polled at chunk boundaries; eventual visibility suffices
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // nestlint: allow(atomic-ordering): cancel latch; no data is published under it
        self.cancel.load(Ordering::Relaxed)
    }
}

/// Where a flow stands in the zero-copy ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ZcState {
    /// Eligible; the endpoints have not granted both capabilities yet.
    Probing,
    /// At least one `sendfile` span succeeded.
    Active,
    /// On the pooled loop for the rest of the flow (never armed,
    /// capability withdrawn, or the kernel refused the fd pair).
    Off,
}

/// The state of one in-progress transfer.
pub struct Flow {
    /// Scheduler-visible metadata.
    pub meta: FlowMeta,
    source: Box<dyn DataSource>,
    sink: Box<dyn DataSink>,
    moved: u64,
    done: bool,
    buf: PooledBuf,
    zc: ZcState,
    zc_engaged: bool,
    zc_fell_back: bool,
}

/// Bytes one zero-copy step asks the kernel to move. Larger than the
/// pooled chunk size (one span replaces ~4 read+write pairs) but small
/// enough that cancel/deadline checks and stride accounting stay
/// responsive — and, on hosts where the events engine runs few worker
/// threads, small enough that one flow blocking in `sendfile` on a full
/// socket buffer cannot head-of-line-block the other ready flows for
/// long.
const ZC_SPAN: u64 = 256 * 1024;

/// Result of advancing a flow by one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Moved this many bytes; more remain.
    Moved(usize),
    /// The source is exhausted and the sink finished; the flow is complete.
    Finished,
}

impl Flow {
    /// Creates a flow with a free-standing (unpooled) staging buffer of
    /// the given chunk size. Hot paths should prefer
    /// [`Flow::with_buffer`] with a [`crate::bufpool::BufPool`] checkout
    /// so steady-state admission allocates nothing.
    pub fn new(
        meta: FlowMeta,
        source: Box<dyn DataSource>,
        sink: Box<dyn DataSink>,
        chunk_size: usize,
    ) -> Self {
        Self::with_buffer(meta, source, sink, PooledBuf::detached(chunk_size))
    }

    /// Creates a flow staging chunks through `buf` — typically a
    /// [`crate::bufpool::BufPool`] checkout, returned to the pool when the
    /// flow drops.
    pub fn with_buffer(
        meta: FlowMeta,
        source: Box<dyn DataSource>,
        sink: Box<dyn DataSink>,
        buf: PooledBuf,
    ) -> Self {
        Self {
            meta,
            source,
            sink,
            moved: 0,
            done: false,
            buf,
            zc: ZcState::Off,
            zc_engaged: false,
            zc_fell_back: false,
        }
    }

    /// Arms the zero-copy fast path for this flow: each step then takes
    /// `sendfile` iff both endpoints grant the capability. Ad-hoc flows
    /// stay on the pooled loop; the transfer manager arms every flow it
    /// admits.
    pub fn arm_zerocopy(&mut self) {
        self.zc = ZcState::Probing;
    }

    /// Whether any bytes of this flow moved via `sendfile`.
    pub fn zc_engaged(&self) -> bool {
        self.zc_engaged
    }

    /// Whether this flow attempted the zero-copy path and was demoted to
    /// the pooled loop (capability withdrawn mid-flow or fd pair
    /// unsupported).
    pub fn zc_fell_back(&self) -> bool {
        self.zc_fell_back
    }

    /// The chunk granularity this flow moves bytes at (its staging-buffer
    /// size).
    pub fn chunk_size(&self) -> usize {
        self.buf.len()
    }

    /// Bytes moved so far.
    pub fn moved(&self) -> u64 {
        self.moved
    }

    /// True once the flow has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Moves one chunk from source to sink — via `sendfile` when both
    /// endpoints grant the zero-copy capability, through the pooled
    /// staging buffer otherwise. The two paths produce byte-identical
    /// wire output; the fast path only changes how the bytes travel.
    pub fn step(&mut self) -> io::Result<StepOutcome> {
        if self.done {
            return Ok(StepOutcome::Finished);
        }
        #[cfg(target_os = "linux")]
        if self.zc != ZcState::Off {
            if let Some(outcome) = self.zc_step()? {
                return Ok(outcome);
            }
        }
        self.step_through(|_| Ok(()))
    }

    /// Moves one chunk from source to sink through the pooled staging
    /// buffer, handing it to `stage` in between. `stage` may rewrite the
    /// chunk in place: the process model relays it through a worker
    /// process and reads it back into the same bytes. Never takes the
    /// zero-copy path, since every byte must pass through `stage`.
    pub fn step_through(
        &mut self,
        stage: impl FnOnce(&mut [u8]) -> io::Result<()>,
    ) -> io::Result<StepOutcome> {
        if self.done {
            return Ok(StepOutcome::Finished);
        }
        let n = self.source.read_chunk(&mut self.buf)?;
        if n == 0 {
            self.sink.finish()?;
            self.done = true;
            return Ok(StepOutcome::Finished);
        }
        stage(&mut self.buf[..n])?;
        self.sink.write_chunk(&self.buf[..n])?;
        self.moved += n as u64;
        Ok(StepOutcome::Moved(n))
    }

    /// One zero-copy step attempt. `Ok(None)` means "take the pooled path
    /// for this step": a capability is (still or newly) missing, the input
    /// hit an unexpected EOF, or the kernel refused the fd pair. The
    /// capability probe runs per step, so a withdrawn handle-cache lease
    /// or a still-pending protocol header demotes or defers cleanly.
    #[cfg(target_os = "linux")]
    fn zc_step(&mut self) -> io::Result<Option<StepOutcome>> {
        use std::os::unix::io::AsRawFd;
        // Probe the sink first and short-circuit: most sinks never grant a
        // descriptor, and `raw_window` is the expensive half (it takes the
        // handle-cache lock to validate the lease epoch). Flows that will
        // never go zero-copy must not pay that per step.
        let withdrew = |zc: &mut ZcState, fell_back: &mut bool| {
            if *zc == ZcState::Active {
                // Was streaming zero-copy and an endpoint withdrew (e.g.
                // the handle-cache epoch moved): demote for good.
                *fell_back = true;
                *zc = ZcState::Off;
            }
        };
        let Some(out_fd) = self.sink.raw_fd() else {
            withdrew(&mut self.zc, &mut self.zc_fell_back);
            return Ok(None);
        };
        let Some(win) = self.source.raw_window() else {
            withdrew(&mut self.zc, &mut self.zc_fell_back);
            return Ok(None);
        };
        if win.remaining == 0 {
            self.sink.finish()?;
            self.done = true;
            return Ok(Some(StepOutcome::Finished));
        }
        let span = win.remaining.min(ZC_SPAN);
        match crate::zerocopy::transmit(win.file.as_raw_fd(), out_fd, win.offset, span) {
            Ok(0) => {
                // The file is shorter than the source believes; let the
                // pooled loop surface EOF through its normal semantics.
                if self.zc == ZcState::Active {
                    self.zc_fell_back = true;
                }
                self.zc = ZcState::Off;
                Ok(None)
            }
            Ok(n) => {
                self.source.zc_advance(n);
                self.moved += n;
                self.zc = ZcState::Active;
                self.zc_engaged = true;
                Ok(Some(StepOutcome::Moved(n as usize)))
            }
            Err(e) if crate::zerocopy::is_unsupported(&e) => {
                self.zc_fell_back = true;
                self.zc = ZcState::Off;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Prepares the flow for another attempt after a transient failure:
    /// rewinds the source, resets the sink, and clears the byte counter.
    /// Fails (without side effects beyond the endpoints' own attempts) if
    /// either endpoint cannot be replayed — the caller must then fail the
    /// flow terminally.
    pub fn reset_for_retry(&mut self) -> io::Result<()> {
        self.source.rewind()?;
        self.sink.reset()?;
        self.moved = 0;
        self.done = false;
        Ok(())
    }

    /// Terminal-failure cleanup: forwards [`DataSink::abort`] to the sink
    /// (best-effort; storage sinks delete partial output and release lot
    /// charges).
    pub fn abort(&mut self) {
        self.sink.abort();
    }

    /// Pumps the flow to completion on the calling thread.
    /// Returns total bytes moved.
    pub fn run_to_completion(&mut self) -> io::Result<u64> {
        loop {
            match self.step()? {
                StepOutcome::Moved(_) => continue,
                StepOutcome::Finished => return Ok(self.moved),
            }
        }
    }
}

/// A source serving a whole object from shared memory — the read path the
/// storage manager's RAM tier hands the dispatcher when an object is
/// tier-resident. The `Arc` is a reference into the tier's resident copy,
/// so constructing the source copies nothing and eviction cannot
/// invalidate in-flight reads (the flow keeps the data alive).
///
/// Deliberately has **no** [`DataSource::raw_window`]: there is no backing
/// fd, so a zerocopy-armed flow probes once, stays in `Probing`, and takes
/// the pooled loop. That is a clean demotion, not a fallback — the
/// dispatcher counts it as `memtier.zc_bypassed`.
pub struct MemSource {
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl MemSource {
    /// Creates a source over a shared in-memory object.
    pub fn new(data: Arc<Vec<u8>>) -> Self {
        Self { data, pos: 0 }
    }

    /// Total object length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl DataSource for MemSource {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = &self.data[self.pos..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.pos = 0;
        Ok(())
    }
}

/// A source producing `len` deterministic pseudo-random-ish bytes; used by
/// tests and workload generators.
pub struct PatternSource {
    len: u64,
    remaining: u64,
    counter: u8,
}

impl PatternSource {
    /// Creates a pattern source of the given length.
    pub fn new(len: u64) -> Self {
        Self {
            len,
            remaining: len,
            counter: 0,
        }
    }
}

impl DataSource for PatternSource {
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(self.remaining) as usize;
        for b in &mut buf[..n] {
            *b = self.counter;
            self.counter = self.counter.wrapping_add(1);
        }
        self.remaining -= n as u64;
        Ok(n)
    }

    fn rewind(&mut self) -> io::Result<()> {
        self.remaining = self.len;
        self.counter = 0;
        Ok(())
    }
}

/// A sink that counts bytes and discards them.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Bytes received so far.
    pub received: u64,
    /// Whether `finish` has been called.
    pub finished: bool,
}

impl DataSink for CountingSink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        self.received += data.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.finished = true;
        Ok(())
    }

    fn reset(&mut self) -> io::Result<()> {
        self.received = 0;
        self.finished = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64) -> FlowMeta {
        FlowMeta::new(FlowId(id), "test", None)
    }

    #[test]
    fn flow_moves_all_bytes_in_chunks() {
        let mut flow = Flow::new(
            meta(1),
            Box::new(PatternSource::new(1000)),
            Box::new(Vec::new()),
            128,
        );
        let mut steps = 0;
        while let StepOutcome::Moved(n) = flow.step().unwrap() {
            assert!(n <= 128);
            steps += 1;
        }
        assert_eq!(flow.moved(), 1000);
        assert_eq!(steps, 8); // ceil(1000/128)
        assert!(flow.is_done());
    }

    #[test]
    fn run_to_completion_returns_total() {
        let mut flow = Flow::new(
            meta(2),
            Box::new(PatternSource::new(5000)),
            Box::new(Vec::new()),
            512,
        );
        assert_eq!(flow.run_to_completion().unwrap(), 5000);
        // Stepping a finished flow stays finished.
        assert_eq!(flow.step().unwrap(), StepOutcome::Finished);
    }

    #[test]
    fn pattern_source_content_is_deterministic() {
        let mut s1 = PatternSource::new(10);
        let mut s2 = PatternSource::new(10);
        let mut a = [0u8; 10];
        let mut b = [0u8; 10];
        s1.read_chunk(&mut a).unwrap();
        s2.read_chunk(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn counting_sink_sees_finish() {
        let mut flow = Flow::new(
            meta(3),
            Box::new(PatternSource::new(10)),
            Box::new(CountingSink::default()),
            4,
        );
        flow.run_to_completion().unwrap();
        // The sink is boxed inside the flow; verify via moved().
        assert_eq!(flow.moved(), 10);
    }

    #[test]
    fn empty_source_finishes_immediately() {
        let mut flow = Flow::new(
            meta(4),
            Box::new(PatternSource::new(0)),
            Box::new(Vec::new()),
            64,
        );
        assert_eq!(flow.step().unwrap(), StepOutcome::Finished);
        assert_eq!(flow.moved(), 0);
    }

    #[test]
    fn mem_source_replays_and_grants_no_window() {
        let data = Arc::new((0u8..200).collect::<Vec<u8>>());
        let mut src = MemSource::new(Arc::clone(&data));
        assert_eq!(src.len(), 200);
        assert!(src.raw_window().is_none());
        let mut flow = Flow::new(meta(6), Box::new(src), Box::new(Vec::new()), 64);
        flow.arm_zerocopy();
        assert_eq!(flow.run_to_completion().unwrap(), 200);
        // No fd: the flow never engaged zerocopy, and never "fell back"
        // either — Probing straight to the pooled loop is a clean demotion.
        assert!(!flow.zc_engaged());
        assert!(!flow.zc_fell_back());
        // Rewind replays from byte 0 for retry.
        let mut src = MemSource::new(data);
        let mut buf = [0u8; 8];
        src.read_chunk(&mut buf).unwrap();
        src.rewind().unwrap();
        let mut again = [0u8; 8];
        src.read_chunk(&mut again).unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn cursor_and_vec_adapters() {
        let data = vec![1u8, 2, 3, 4, 5];
        let mut flow = Flow::new(
            meta(5),
            Box::new(std::io::Cursor::new(data.clone())),
            Box::new(Vec::new()),
            2,
        );
        assert_eq!(flow.run_to_completion().unwrap(), 5);
    }
}
