//! Order statistics shared by every mode: percentiles of pooled latency
//! samples and medians of slice rates.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice by nearest rank:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile
/// position (the guide asks for at least ten before a tail is reported).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median with the midpoint rule for even counts; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Cuts a measured window into `slices` equal slices and returns, per
/// slice, the sum of `amount` over the events that completed in it divided
/// by the slice length in seconds. Events are `(completion offset from the
/// window start in seconds, amount)`; events outside the window are ignored.
pub fn slice_rates(events: &[(f64, f64)], window_s: f64, slices: usize) -> Vec<f64> {
    let slice_s = window_s / slices as f64;
    let mut sums = vec![0.0; slices];
    for &(t, amount) in events {
        if t >= 0.0 && t < window_s {
            sums[((t / slice_s) as usize).min(slices - 1)] += amount;
        }
    }
    sums.iter().map(|s| s / slice_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_support_counts_samples_beyond_the_quantile() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.50), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slice_median_shrugs_off_one_stalled_slice() {
        // 10 units/s for 6 s, except that slice 3 stalls completely.
        let events: Vec<(f64, f64)> = (0..60)
            .map(|i| i as f64 / 10.0)
            .filter(|t| !(3.0..4.0).contains(t))
            .map(|t| (t, 1.0))
            .collect();
        let rates = slice_rates(&events, 6.0, 6);
        assert_eq!(rates, vec![10.0, 10.0, 10.0, 0.0, 10.0, 10.0]);
        assert_eq!(median(&rates), Some(10.0));
        // Events outside the window are not counted anywhere.
        assert_eq!(
            slice_rates(&[(-0.1, 5.0), (6.0, 5.0)], 6.0, 6),
            vec![0.0; 6]
        );
    }
}
