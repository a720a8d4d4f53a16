//! Regression tests for the wakeup-driven engine loop.
//!
//! The engine must (a) honor sub-quantum retry backoffs instead of rounding
//! them up to a polling interval, (b) block instead of busy-spinning when
//! nothing is runnable, and (c) notice cancellation of flows that are
//! queued but never dispatched (e.g. held behind a 0-ticket class). It must
//! also recycle chunk staging buffers so steady-state admission allocates
//! nothing.

use nest_obs::Obs;
use nest_transfer::fault::{FaultBudget, FaultingSource, RetryPolicy};
use nest_transfer::flow::{CountingSink, FlowMeta, PatternSource};
use nest_transfer::manager::{ModelSelection, SchedPolicy, TransferConfig, TransferManager};
use nest_transfer::ModelKind;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn events_manager(policy: SchedPolicy, obs: &Arc<Obs>) -> TransferManager {
    TransferManager::new(TransferConfig {
        policy,
        model: ModelSelection::Fixed(ModelKind::Events),
        obs: Some(Arc::clone(obs)),
        ..TransferConfig::default()
    })
}

/// A 1 ms retry backoff must complete in single-digit milliseconds, not be
/// quantized up to a 20 ms polling interval (the engine now parks until
/// exactly the next retry-due instant).
#[test]
fn millisecond_backoff_is_honored_not_quantized() {
    let obs = Obs::new();
    let tm = events_manager(SchedPolicy::Fcfs, &obs);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(1),
        jitter_seed: 0x1157,
    };
    let size = 128 * 1024u64;
    let meta = FlowMeta::new(tm.next_flow_id(), "a", Some(size)).with_retry(retry);
    // Fails once mid-transfer with a transient error, then works.
    let src = FaultingSource::new(
        PatternSource::new(size),
        size / 2,
        io::ErrorKind::ConnectionReset,
        FaultBudget::Times(1),
    );
    let start = Instant::now();
    let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
    assert_eq!(h.wait().unwrap(), size);
    let elapsed = start.elapsed();
    // One retry at ~1 ms backoff plus the transfer itself. The old engine's
    // fixed 20 ms poll made this take >= 20 ms; allow generous slack below
    // that to keep the test robust on slow CI.
    assert!(
        elapsed < Duration::from_millis(15),
        "retry quantized: took {elapsed:?}"
    );
    let snap = obs.snapshot();
    assert_eq!(snap.count("transfer.retries"), 1);
    tm.shutdown();
}

/// A flow held behind a 0-ticket class is queued but never runnable; the
/// engine must park on it, not spin. We bound the loop-iteration count over
/// an observation window: a spinning engine racks up hundreds of thousands
/// of wakeups in 150 ms, a parking engine a few dozen.
#[test]
fn held_class_does_not_busy_spin_engine() {
    let obs = Obs::new();
    let tm = events_manager(
        SchedPolicy::Proportional {
            tickets: vec![("held".into(), 0), ("live".into(), 100)],
            work_conserving: false,
        },
        &obs,
    );
    let meta = FlowMeta::new(tm.next_flow_id(), "held", Some(64 * 1024));
    let h = tm.submit(
        meta,
        Box::new(PatternSource::new(64 * 1024)),
        Box::new(CountingSink::default()),
    );
    std::thread::sleep(Duration::from_millis(150));
    let snap = obs.snapshot();
    let wakeups = snap.count("transfer.engine.wakeups");
    assert!(
        wakeups < 1000,
        "engine busy-spun: {wakeups} wakeups in 150 ms"
    );
    // Parks happened (the engine blocked rather than spun).
    assert!(snap.count("transfer.engine.parks") > 0);
    // The held flow never ran.
    assert!(h.try_wait().is_none());
    // And it is still cancellable (sweep of never-dispatched flows).
    h.cancel();
    assert!(h.wait().is_err());
    tm.shutdown();
}

/// Cancellation of a never-dispatched flow must be noticed within the
/// engine's bounded park, not hang until some unrelated event.
#[test]
fn cancel_of_held_flow_is_noticed_promptly() {
    let obs = Obs::new();
    let tm = events_manager(
        SchedPolicy::Proportional {
            tickets: vec![("held".into(), 0)],
            work_conserving: false,
        },
        &obs,
    );
    let meta = FlowMeta::new(tm.next_flow_id(), "held", Some(1024));
    let h = tm.submit(
        meta,
        Box::new(PatternSource::new(1024)),
        Box::new(CountingSink::default()),
    );
    std::thread::sleep(Duration::from_millis(30));
    let start = Instant::now();
    h.cancel();
    let err = h.wait().expect_err("cancelled flow must fail");
    assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    // Bounded by the engine's in-flight park cap (20 ms) plus slack.
    assert!(
        start.elapsed() < Duration::from_millis(200),
        "cancel latency {:?}",
        start.elapsed()
    );
    let snap = obs.snapshot();
    assert_eq!(snap.count("transfer.queue_depth"), 0);
    tm.shutdown();
}

/// Steady-state admission recycles staging buffers: after the first flow
/// warms the pool, sequential submissions allocate nothing.
#[test]
fn steady_state_reuses_pooled_buffers() {
    let obs = Obs::new();
    let tm = events_manager(SchedPolicy::Fcfs, &obs);
    for _ in 0..10 {
        let meta = FlowMeta::new(tm.next_flow_id(), "a", Some(256 * 1024));
        let h = tm.submit(
            meta,
            Box::new(PatternSource::new(256 * 1024)),
            Box::new(CountingSink::default()),
        );
        assert_eq!(h.wait().unwrap(), 256 * 1024);
        // The engine drops the flow (returning its buffer) right after
        // answering the handle; give it a moment.
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = tm.buffer_pool().stats();
    assert!(
        stats.fresh <= 2,
        "steady state allocated buffers: {stats:?}"
    );
    assert!(stats.reuse >= 8, "pool not reused: {stats:?}");
    assert_eq!(stats.outstanding, 0, "buffer leak: {stats:?}");
    // The same counters are visible through obs for fleet monitoring.
    let snap = obs.snapshot();
    assert!(snap.count("bufpool.reuse") >= 8);
    tm.shutdown();
}
