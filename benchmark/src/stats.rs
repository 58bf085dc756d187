//! The benchmark's own arithmetic: percentiles, medians, quartiles.

/// Percentile `p` (0..=100) of an ascending slice, by linear interpolation
/// between closest ranks. Empty input is 0 ("no such call in this run").
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First, second and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread printed here is the spread the driver computes.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v.to_vec());
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A metric as reported: the median over the run's samples (segments,
/// rounds or repetitions), with its quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// One measured number (a count, a ratio over the whole run).
    pub fn single(value: f64) -> Stat {
        Stat { value, q1: value, q3: value, n: 1 }
    }

    /// Median of per-repetition samples.
    pub fn of(samples: &[f64]) -> Stat {
        let [q1, value, q3] = quartiles(samples);
        Stat { value, q1, q3, n: samples.len() }
    }
}

/// A fixed-size latency histogram (nanoseconds): 64 linear sub-buckets per
/// power of two, so a bucket is at most 1.6 % wide. Recording is one
/// increment into memory allocated before timing starts, and the memory does
/// not grow with the number of operations (a buffer of raw samples would
/// make peak memory follow the speed of the run).
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const SUB: u64 = 64;
const BUCKETS: usize = 64 * 40;

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], n: 0 }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() as u64 - 6;
        (((shift + 1) * SUB + ((ns >> shift) - SUB)) as usize).min(BUCKETS - 1)
    }

    /// `(lowest value, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((SUB + i % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Percentile `p` (0..=100) in nanoseconds, interpolated inside the
    /// bucket that holds the rank; 0 when nothing was recorded.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 100.0) / 100.0 * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (before + c as u64) as f64 {
                let (low, width) = Self::bounds(i);
                return low + width * (rank - before as f64 + 0.5) / c as f64;
            }
            before += c as u64;
        }
        unreachable!("the rank lies inside the recorded samples")
    }
}

/// Latency percentiles per segment: the unit calls of one segment go into
/// the histogram, and closing the segment turns them into one p50 and one
/// p99 sample. The run's value is taken over the segments (each corrected
/// for the host's speed around it), not over the pooled calls: a pooled p99
/// follows whatever the worst percent of the whole run was.
#[derive(Default)]
pub struct SegmentPercentiles {
    hist: Hist,
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
}

impl SegmentPercentiles {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.hist.record(ns);
    }

    /// Close the open segment; one without a unit call leaves no sample.
    pub fn end_segment(&mut self) {
        if self.hist.len() > 0 {
            self.p50.push(self.hist.percentile(50.0));
            self.p99.push(self.hist.percentile(99.0));
            self.hist.clear();
        }
    }

    /// Forget everything recorded so far (the warm-up).
    pub fn clear(&mut self) {
        self.hist.clear();
        self.p50.clear();
        self.p99.clear();
    }

    /// Units recorded in the open segment.
    #[cfg(test)]
    pub fn open_len(&self) -> u64 {
        self.hist.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_percentiles_give_one_sample_per_segment() {
        let mut s = SegmentPercentiles::default();
        // A warm-up that is then forgotten.
        s.record(5_000_000);
        s.clear();
        assert_eq!((s.open_len(), s.p50.len()), (0, 0));
        // Three segments of 200 units at ~10, ~20 and ~30 us.
        for seg in 1..=3u64 {
            for i in 0..200 {
                s.record(seg * 10_000 + i);
            }
            s.end_segment();
        }
        // A segment without a unit call leaves no sample.
        s.end_segment();
        assert_eq!((s.p50.len(), s.p99.len(), s.open_len()), (3, 3, 0));
        for (seg, (&p50, &p99)) in s.p50.iter().zip(&s.p99).enumerate() {
            let base = (seg as f64 + 1.0) * 10_000.0;
            assert!((p50 - (base + 100.0)).abs() < 0.02 * base, "{p50}");
            assert!((p99 - (base + 198.0)).abs() < 0.02 * base, "{p99}");
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 30.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&s, 25.0), 20.0);
        assert!((percentile(&s, 99.0) - 49.6).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_segments_ignores_one_disturbed_segment() {
        // Five segment rates, one hit by a noisy neighbour.
        assert_eq!(median(&[100.0, 101.0, 40.0, 99.0, 102.0]), 100.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stat_carries_quartiles_and_count() {
        let s = Stat::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.value, s.n), (3.0, 5));
        assert!(s.q1 < s.value && s.value < s.q3);
        assert_eq!(Stat::of(&[9.0]), Stat::single(9.0));
    }

    #[test]
    fn hist_percentiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        assert_eq!(h.percentile(50.0), 0.0);
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.len(), 100_000);
        for (p, exact) in [(50.0, 500_005.0), (99.0, 990_000.0), (100.0, 1_000_000.0)] {
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.016, "p{p}: {got} vs {exact}");
        }
        h.clear();
        assert_eq!((h.len(), h.percentile(99.0)), (0, 0.0));
    }

    #[test]
    fn hist_buckets_tile_the_range() {
        // Every value falls in the bucket whose bounds contain it, and
        // buckets follow each other without gaps.
        for ns in
            [0u64, 1, 63, 64, 65, 127, 128, 129, 1000, 65_535, 65_536, 1 << 30, (1 << 35) + 12345]
        {
            let (low, width) = Hist::bounds(Hist::bucket(ns));
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}: [{low}, +{width})");
        }
        for i in 0..BUCKETS - 1 {
            let (low, width) = Hist::bounds(i);
            assert_eq!(low + width, Hist::bounds(i + 1).0, "bucket {i}");
        }
        assert_eq!(Hist::bucket(u64::MAX), BUCKETS - 1);
    }
}
