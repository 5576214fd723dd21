//! Order statistics for the reported latencies.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `op_tail_ms` pick: a latency, the nearest-rank percentile it
/// sits at, and how many samples lie strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the percentile.
    pub value: f64,
    /// Nearest-rank percentile of `value` (share of samples at or below
    /// its rank, in %).
    pub percentile: f64,
    /// Samples strictly greater than `value` (at least [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples strictly beyond it, or `None` when there are too few samples.
/// A fixed p99 over a few hundred ops would rest on two or three samples;
/// this pick always rests on at least ten.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Rank r (0-based) has `n - 1 - r` samples after it; ties with the
    // value at r do not count as beyond, so walk down past them.
    let mut r = n.checked_sub(TAIL_BEYOND + 1)?;
    loop {
        let beyond = v.iter().filter(|&&x| x > v[r]).count();
        if beyond >= TAIL_BEYOND {
            return Some(Tail {
                value: v[r],
                percentile: 100.0 * (r + 1) as f64 / n as f64,
                beyond,
                samples: n,
            });
        }
        r = r.checked_sub(1)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond_distinct_samples() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 89.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (989.0, 99.0, 10));

        let t = tail(&ramp(168)).unwrap();
        assert_eq!(t.value, 157.0);
        assert!((t.percentile - 100.0 * 158.0 / 168.0).abs() < 1e-12);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_walks_below_ties() {
        // Twelve samples: 0, then eleven 5s. The 5s tie, so no 5 has ten
        // samples beyond it; the pick drops to the 0.
        let mut xs = vec![5.0; 11];
        xs.push(0.0);
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 11));
        // All equal: nothing is ever beyond.
        assert_eq!(tail(&[3.0; 50]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
