//! Arrival-process and size generators for many-session load.
//!
//! A many-session load generator, and any simulated twin of it, needs
//! the same two ingredients the paper's grid workloads exhibit:
//!
//! * **Flash crowds** — a stampede of sessions arriving in a short burst
//!   on top of a steady base rate (a batch system releasing a wave of
//!   jobs that all open their input files at once).
//! * **Heavy-tailed file sizes** — most files are small, a few are
//!   enormous; a bounded Pareto distribution is the standard model.
//!
//! Everything here is seeded and deterministic: the same seed yields the
//! same sequence on every host, so real-mode runs and the simenv twin
//! draw identical workloads and benchmark reps are reproducible. The
//! generator is a SplitMix64 PRNG — tiny, fast, and dependency-free.

/// SplitMix64: a small deterministic PRNG with a 64-bit state.
///
/// Good enough statistical quality for workload generation, trivially
/// seedable, and — critically — identical output on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform double in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift range reduction; bias is negligible for the
        // workload sizes used here and the result stays deterministic.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Bounded Pareto file-size sampler.
///
/// Samples sizes in `[min, max]` with tail index `alpha` via inverse
/// transform sampling. `alpha` around 1.1–1.3 matches measured grid /
/// web file-size distributions: mostly-small files with a heavy tail
/// that dominates total bytes.
#[derive(Debug, Clone)]
pub struct ParetoSizes {
    min: f64,
    max: f64,
    alpha: f64,
}

impl ParetoSizes {
    /// A bounded Pareto over `[min, max]` bytes with tail index `alpha`.
    ///
    /// `min` is clamped to at least 1 and `max` to at least `min`;
    /// `alpha` must be positive.
    pub fn new(min: u64, max: u64, alpha: f64) -> Self {
        assert!(alpha > 0.0, "pareto tail index must be positive");
        let min = min.max(1) as f64;
        let max = (max as f64).max(min);
        Self { min, max, alpha }
    }

    /// Draws one file size in bytes.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        // Inverse CDF of the bounded Pareto: interpolate between the
        // min^-a and max^-a quantiles, then invert the power.
        let la = self.min.powf(-self.alpha);
        let ha = self.max.powf(-self.alpha);
        let x = (la - u * (la - ha)).powf(-1.0 / self.alpha);
        (x as u64).clamp(self.min as u64, self.max as u64)
    }

    /// A size stream: `n` draws from one seeded generator.
    pub fn stream(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

/// Flash-crowd arrival-time generator.
///
/// Produces arrival offsets (in virtual microseconds from t=0) for `n`
/// sessions: a fraction arrives as a dense burst — the flash crowd —
/// near `burst_at_us`, the rest arrive uniformly over `[0, span_us)`
/// as the base load. Offsets are returned sorted ascending, ready to
/// drive an open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Total schedule span in virtual microseconds.
    pub span_us: u64,
    /// Where the crowd spike lands within the span.
    pub burst_at_us: u64,
    /// Width of the spike (all burst arrivals land in this window).
    pub burst_width_us: u64,
    /// Fraction of sessions that belong to the spike, in `[0, 1]`.
    pub burst_fraction: f64,
}

impl FlashCrowd {
    /// A crowd profile: `burst_fraction` of arrivals land in a
    /// `burst_width_us` window at `burst_at_us`; the rest spread
    /// uniformly over `span_us`.
    pub fn new(span_us: u64, burst_at_us: u64, burst_width_us: u64, burst_fraction: f64) -> Self {
        Self {
            span_us: span_us.max(1),
            burst_at_us,
            burst_width_us: burst_width_us.max(1),
            burst_fraction: burst_fraction.clamp(0.0, 1.0),
        }
    }

    /// Arrival offsets for `n` sessions, sorted ascending.
    pub fn arrivals(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let burst_n = (n as f64 * self.burst_fraction).round() as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..burst_n.min(n) {
            let t = self.burst_at_us + rng.next_below(self.burst_width_us);
            out.push(t.min(self.span_us.saturating_sub(1)));
        }
        while out.len() < n {
            out.push(rng.next_below(self.span_us));
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must replay the same stream");
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn uniform_outputs_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn pareto_sizes_are_bounded_and_heavy_tailed() {
        let dist = ParetoSizes::new(4 << 10, 256 << 20, 1.2);
        let sizes = dist.stream(99, 20_000);
        assert!(sizes.iter().all(|&s| (4 << 10..=256 << 20).contains(&s)));
        // Heavy tail: the median sits far below the mean.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        assert!(
            mean > 2.0 * median,
            "expected heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    fn pareto_stream_is_deterministic() {
        let dist = ParetoSizes::new(1 << 10, 64 << 20, 1.1);
        assert_eq!(dist.stream(5, 1000), dist.stream(5, 1000));
        assert_ne!(dist.stream(5, 1000), dist.stream(6, 1000));
    }

    #[test]
    fn flash_crowd_concentrates_the_burst() {
        let crowd = FlashCrowd::new(10_000_000, 4_000_000, 100_000, 0.6);
        let arr = crowd.arrivals(11, 10_000);
        assert_eq!(arr.len(), 10_000);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
        assert!(arr.iter().all(|&t| t < 10_000_000));
        // The burst window holds ~60% of arrivals; uniform background
        // would put only ~1% there.
        let in_burst = arr
            .iter()
            .filter(|&&t| (4_000_000..4_100_000).contains(&t))
            .count();
        assert!(
            in_burst as f64 > 0.55 * arr.len() as f64,
            "burst window held {in_burst} of {}",
            arr.len()
        );
    }

    #[test]
    fn flash_crowd_is_deterministic_per_seed() {
        let crowd = FlashCrowd::new(1_000_000, 300_000, 50_000, 0.5);
        assert_eq!(crowd.arrivals(1, 500), crowd.arrivals(1, 500));
        assert_ne!(crowd.arrivals(1, 500), crowd.arrivals(2, 500));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        // Zero-width span / burst and out-of-range fractions must not
        // panic or divide by zero.
        let crowd = FlashCrowd::new(0, 0, 0, 2.0);
        let arr = crowd.arrivals(3, 10);
        assert_eq!(arr.len(), 10);
        assert!(arr.iter().all(|&t| t == 0));
        let dist = ParetoSizes::new(0, 0, 1.0);
        let mut rng = SplitMix64::new(0);
        assert_eq!(dist.sample(&mut rng), 1);
    }
}
