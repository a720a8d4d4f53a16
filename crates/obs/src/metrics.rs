//! Lock-cheap metric instruments.
//!
//! Every instrument here is updated with plain atomic operations; locks are
//! confined to the [`EwmaMeter`]'s small state cell (uncontended in
//! practice) and to registry bookkeeping. Instruments are shared as
//! `Arc<..>` handles obtained from [`crate::Registry`], so the hot path
//! never touches the registry map.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depth, active connections, bytes
/// committed).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Exponentially weighted moving-average rate meter.
///
/// Feed it event magnitudes (e.g. bytes moved) via [`EwmaMeter::mark`] and
/// read a smoothed per-second rate via [`EwmaMeter::rate_per_sec`]. The
/// smoothing uses the irregular-interval EWMA
/// `r ← r + (1 − e^(−Δt/τ)) · (x/Δt − r)` so bursts decay with time
/// constant `τ` regardless of how unevenly samples arrive; reads decay the
/// rate toward zero across idle gaps.
#[derive(Debug)]
pub struct EwmaMeter {
    tau: Duration,
    state: Mutex<EwmaState>,
}

#[derive(Debug)]
struct EwmaState {
    rate: f64,
    last: Option<Instant>,
}

impl Default for EwmaMeter {
    fn default() -> Self {
        Self::new(Duration::from_secs(10))
    }
}

impl EwmaMeter {
    /// A meter with smoothing time constant `tau`.
    pub fn new(tau: Duration) -> Self {
        assert!(!tau.is_zero(), "zero EWMA time constant");
        Self {
            tau,
            state: Mutex::named(
                "obs.ewma",
                920,
                EwmaState {
                    rate: 0.0,
                    last: None,
                },
            ),
        }
    }

    /// Records `amount` units now.
    pub fn mark(&self, amount: u64) {
        self.mark_at(amount, Instant::now());
    }

    /// Records `amount` units at `now` (deterministic variant for tests).
    pub fn mark_at(&self, amount: u64, now: Instant) {
        let mut s = self.state.lock();
        match s.last {
            None => {
                // First sample: no interval to derive a rate from yet;
                // treat it as having arrived over one time constant.
                s.rate = amount as f64 / self.tau.as_secs_f64();
            }
            Some(last) => {
                let dt = now.saturating_duration_since(last).as_secs_f64();
                if dt <= 0.0 {
                    // Same-instant burst: fold into the current estimate as
                    // if spread over the time constant.
                    s.rate += amount as f64 / self.tau.as_secs_f64();
                } else {
                    let inst = amount as f64 / dt;
                    let alpha = 1.0 - (-dt / self.tau.as_secs_f64()).exp();
                    s.rate += alpha * (inst - s.rate);
                }
            }
        }
        s.last = Some(now);
    }

    /// Smoothed rate in units per second, decayed across any idle gap.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec_at(Instant::now())
    }

    /// Deterministic variant of [`EwmaMeter::rate_per_sec`].
    pub fn rate_per_sec_at(&self, now: Instant) -> f64 {
        let s = self.state.lock();
        match s.last {
            None => 0.0,
            Some(last) => {
                let idle = now.saturating_duration_since(last).as_secs_f64();
                s.rate * (-idle / self.tau.as_secs_f64()).exp()
            }
        }
    }
}

/// Number of logarithmic buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 holds `0..1`). 40 buckets cover
/// sub-microsecond through ~6-day latencies.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket, log₂-scaled latency histogram.
///
/// Recording is two atomic adds plus an atomic max; no allocation, no
/// locking. Quantiles are read out by walking the bucket array and
/// reporting the upper bound of the bucket containing the requested rank —
/// accurate to a factor of two, which is plenty for spotting a slow
/// backend or a saturated scheduler.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(us: u64) -> usize {
        // 0 → bucket 0; otherwise 1 + floor(log2(us)), clamped.
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Upper bound (µs, inclusive-exclusive) of bucket `i`.
    fn bucket_upper_us(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << i
        }
    }

    /// Records a latency sample.
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records a latency sample in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded sample in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`0.0 ..= 1.0`) in microseconds: the upper
    /// bound of the bucket containing the requested rank. Returns 0 when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, at least 1.
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_us(i);
            }
        }
        Self::bucket_upper_us(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);

        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        g.inc();
        g.dec();
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn ewma_converges_to_steady_rate() {
        let m = EwmaMeter::new(Duration::from_secs(2));
        let t0 = Instant::now();
        // 1000 units every 100ms = 10_000 units/sec, for 30s of model time.
        for i in 1..=300u64 {
            m.mark_at(1000, t0 + Duration::from_millis(100 * i));
        }
        let rate = m.rate_per_sec_at(t0 + Duration::from_secs(30));
        assert!(
            (rate - 10_000.0).abs() / 10_000.0 < 0.05,
            "rate {} not near 10k/s",
            rate
        );
    }

    #[test]
    fn ewma_decays_when_idle() {
        let m = EwmaMeter::new(Duration::from_secs(1));
        let t0 = Instant::now();
        for i in 1..=50u64 {
            m.mark_at(100, t0 + Duration::from_millis(100 * i));
        }
        let busy = m.rate_per_sec_at(t0 + Duration::from_secs(5));
        let idle = m.rate_per_sec_at(t0 + Duration::from_secs(15));
        assert!(busy > 0.0);
        // Ten time constants of idling: rate must have collapsed.
        assert!(
            idle < busy * 1e-3,
            "idle rate {} did not decay from {}",
            idle,
            busy
        );
    }

    #[test]
    fn ewma_burst_at_same_instant_accumulates() {
        let m = EwmaMeter::new(Duration::from_secs(1));
        let t0 = Instant::now();
        m.mark_at(100, t0);
        let r1 = m.rate_per_sec_at(t0);
        m.mark_at(100, t0);
        let r2 = m.rate_per_sec_at(t0);
        assert!(r2 > r1);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        // 90 fast samples at 10µs, 10 slow ones at 10ms.
        for _ in 0..90 {
            h.record_us(10);
        }
        for _ in 0..10 {
            h.record_us(10_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        // p50 must land in the 10µs bucket [8,16), p99 in [8192,16384).
        assert_eq!(p50, 16);
        assert_eq!(p99, 16_384);
        assert!(p50 < p99);
        let mean = h.mean_us();
        assert!((mean - (90.0 * 10.0 + 10.0 * 10_000.0) / 100.0).abs() < 1e-9);
        assert_eq!(h.max_us(), 10_000);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn histogram_duration_overflow_saturates() {
        let h = Histogram::new();
        h.record(Duration::from_secs(u64::MAX / 1_000_000 + 1));
        assert_eq!(h.count(), 1);
        assert_eq!(
            h.quantile_us(1.0),
            Histogram::bucket_upper_us(HISTOGRAM_BUCKETS - 1)
        );
    }
}
