//! Order statistics shared by the workloads and `compare`.

use dbgc_metrics::HistogramSnapshot;

/// Samples a percentile needs beyond it before a run may report it.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least [`TAIL_SUPPORT`]
/// samples beyond its nearest rank out of `n`, or `None` when not even the
/// median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_SUPPORT)
}

/// Nearest rank (1-based) of percentile `p` among `n` samples. The small
/// offset keeps `p · n / 100` that is a whole number in exact arithmetic
/// (95 % of 200) from rounding up past it in floating point.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending); `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A copy of `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the acceptance check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Operations per second: the median, over consecutive whole blocks of
/// `block` samples, of the block's size over its summed time. A median
/// over blocks shrugs off a burst of interference that a total-over-total
/// rate would absorb. `NaN` when there is no whole block.
pub fn blocked_rate(samples_ms: &[f64], block: usize) -> f64 {
    let rates: Vec<f64> = samples_ms
        .chunks_exact(block)
        .map(|b| block as f64 * 1e3 / b.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// Tracing overhead from matched samples: `untraced[i]` and `traced[i]`
/// time the same operation on the same input. The median of the per-pair
/// ratios, minus one; a ratio of two medians would move by several percent
/// whenever the median falls between the modes of a mixed workload.
pub fn paired_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
    median(&ratios) - 1.0
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile `p` of a log-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank (buckets are powers of two wide, so the
/// exact value is unknowable; interpolation keeps the estimate continuous).
pub fn histogram_percentile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = (p / 100.0 * h.count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for b in &h.buckets {
        let next = seen + b.count as f64;
        if next >= rank {
            let lo = b.lo.max(h.min) as f64;
            let hi = b.hi.min(h.max) as f64;
            return lo + (hi - lo) * (rank - seen) / b.count as f64;
        }
        seen = next;
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selector_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(15), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(98.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 190.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn blocked_rate_is_the_median_block_rate() {
        // Blocks of two: 10 ms + 10 ms, a 200 ms stall, 20 ms + 20 ms.
        let ms = [10.0, 10.0, 100.0, 100.0, 20.0, 20.0, 5.0];
        assert_eq!(blocked_rate(&ms, 2), 50.0);
        assert!(blocked_rate(&ms[..1], 2).is_nan());
    }

    #[test]
    fn paired_overhead_compares_like_with_like() {
        // Two kinds of operation, 10 ms and 30 ms; tracing adds 1%.
        let untraced = [10.0, 30.0, 10.0, 30.0];
        let traced: Vec<f64> = untraced.iter().map(|x| x * 1.01).collect();
        assert!((paired_overhead(&untraced, &traced) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentile_stays_inside_the_bucket() {
        let h = dbgc_metrics::Histogram::new();
        for v in [100u64, 110, 120, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = histogram_percentile(&s, 50.0);
        assert!((100.0..=127.0).contains(&p50), "{p50}");
        assert_eq!(histogram_percentile(&s, 100.0), 1000.0);
    }
}
