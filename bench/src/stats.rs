//! Percentile and slice-median maths shared by the runner, the ladder
//! and the comparator.

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending slice;
/// 0 for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Latencies of one slice in a fixed 7 KiB, however many ops the slice
/// held: the bench's own memory must not grow with the programs'
/// throughput, or a faster program would read as a fatter one in
/// `peak_rss_mb`. Values up to 127 ns are counted exactly, larger ones
/// in 64 buckets per power of two (each 1.6 % wide at most), and a
/// percentile is interpolated inside its bucket.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
    max: u32,
}

const SUB_BUCKETS: u32 = 64;
/// Buckets that cover every `u32`.
const BUCKETS: usize = ((32 - 6) * SUB_BUCKETS) as usize + SUB_BUCKETS as usize;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket of `value`, and the first value and the width of a bucket.
    fn index(value: u32) -> usize {
        let shift = (31 - (value | 1).leading_zeros()).saturating_sub(6);
        (shift * SUB_BUCKETS + (value >> shift)) as usize
    }

    fn bounds(index: usize) -> (f64, f64) {
        let index = index as u32;
        let shift = (index / SUB_BUCKETS).saturating_sub(1);
        let first = (index - shift * SUB_BUCKETS) << shift;
        (f64::from(first), f64::from(1u32 << shift))
    }

    pub fn record(&mut self, value: u32) {
        self.buckets[Histogram::index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u32 {
        self.max
    }

    /// The value at nearest rank `p` (`0 < p <= 100`), taking a
    /// bucket's samples as evenly spread over it; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (index, &held) in self.buckets.iter().enumerate() {
            let held = u64::from(held);
            if held > 0 && below + held >= rank.min(self.count) {
                let (first, width) = Histogram::bounds(index);
                let within = ((rank - below) as f64 - 0.5) / held as f64;
                return (first + width * within).min(f64::from(self.max));
            }
            below += held;
        }
        0.0
    }
}

/// Median of `values` (mean of the two middle values when the count is
/// even); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A metric reported as the median of its per-slice (or per-batch)
/// values, with a range of those values beside it: min–max of a
/// handful of batches ([`Spread::of`]), the quartiles of many slices
/// ([`Spread::quartiles_of`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub low: f64,
    pub high: f64,
}

impl Default for Spread {
    fn default() -> Self {
        Spread::single(0.0)
    }
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        Spread {
            median: median(values),
            low: values.iter().copied().fold(f64::INFINITY, f64::min),
            high: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Median with the first and third quartile: the middle half of
    /// the values, which a few disturbed slices do not move.
    pub fn quartiles_of(values: &[f64]) -> Spread {
        if values.len() < 2 {
            return Spread::single(median(values));
        }
        let (low, high) = quartiles(values);
        Spread {
            median: median(values),
            low,
            high,
        }
    }

    /// A value that was measured once, not per slice.
    pub fn single(value: f64) -> Spread {
        Spread {
            median: value,
            low: value,
            high: value,
        }
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is
/// the rule the acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| -> f64 {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // 1 000 samples leave exactly ten beyond p99.
        let k: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&k, 99.0), 990);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Exact below 128, then 64 buckets per power of two, each
        // starting where the last one ended.
        for v in 0..128u32 {
            assert_eq!(Histogram::index(v), v as usize);
        }
        let mut expected_first = 0.0;
        for index in 0..BUCKETS {
            let (first, width) = Histogram::bounds(index);
            assert_eq!(first, expected_first, "bucket {index}");
            assert_eq!(Histogram::index(first as u32), index);
            assert_eq!(Histogram::index((first + width - 1.0) as u32), index);
            assert!(width <= (first / 64.0).max(1.0));
            expected_first = first + width;
        }
        assert_eq!(expected_first, 4_294_967_296.0);
        assert_eq!(Histogram::index(u32::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_follow_the_sorted_samples() {
        // 1 000 latencies from 100 us up in steps of 1 us: every
        // percentile within 1 % of the nearest-rank value.
        let samples: Vec<u64> = (0..1000u64).map(|i| 100_000 + i * 1_000).collect();
        let mut h = Histogram::default();
        for &v in &samples {
            h.record(v as u32);
        }
        assert_eq!((h.count(), h.max()), (1000, 1_099_000));
        for p in [1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = percentile(&samples, p) as f64;
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.01, "p{p}: {got} vs {exact}");
        }
        assert_eq!(Histogram::default().percentile(50.0), 0.0);
        // Small values are exact to the interpolation: 7 ops of 5 ns.
        let mut small = Histogram::default();
        (0..7).for_each(|_| small.record(5));
        assert_eq!(small.percentile(50.0), 5.0);
        assert_eq!(small.percentile(100.0), 5.0);
        // A merge holds both sides.
        small.merge(&h);
        assert_eq!((small.count(), small.max()), (1007, 1_099_000));
        assert!((5.0..6.0).contains(&small.percentile(0.5)));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_reports_median_and_range_of_slices() {
        let s = Spread::of(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!((s.low, s.high), (9.0, 30.0));
        // One wild slice moves the range, not the quartiles.
        let q = Spread::quartiles_of(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert_eq!((q.median, q.low, q.high), (11.0, 9.5, 21.0));
        assert_eq!(Spread::quartiles_of(&[7.0]), Spread::single(7.0));
        assert_eq!(Spread::quartiles_of(&[]), Spread::single(0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }
}
