//! The benchmark's own PRNG and samplers. The appliance never sees these:
//! it receives only the operations generated from them, so a change to the
//! appliance cannot change the inputs it is measured on.

/// The SplitMix64 finalizer: a bijective 64-bit mixer, also used by the
/// payload generator as a stateless hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: tiny, seedable, and good enough to draw workload mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes (client index, purpose) are
    /// decorrelated by hashing, so `seed` and `seed + 1` share nothing.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(lane.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero. (Modulo bias is below
    /// 2^-40 for every `n` the workloads use.)
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_lanes() {
        let draw = |seed, lane| {
            let mut r = Rng::new(seed, lane);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(2048, 1.1);
        let mut rng = Rng::new(1, 0);
        let mut hits = vec![0u32; 2048];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        // With s = 1.1 over 2048 ranks the top rank draws 16.9 % and the
        // top 64 ranks 67.4 % of all requests.
        assert!(hits[0] > 16_000 && hits[0] < 17_800, "{}", hits[0]);
        let top64: u32 = hits[..64].iter().sum();
        assert!(top64 > 66_000 && top64 < 69_000, "{top64}");
        assert!(hits[0] > hits[10] && hits[10] > hits[1000]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
