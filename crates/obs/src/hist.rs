//! Log-bucketed latency histograms and the op classification they are
//! keyed by.
//!
//! Buckets are powers of two: bucket `i` holds observations in
//! `[2^i, 2^(i+1))` µs (bucket 0 also takes 0 µs). Forty buckets cover
//! half a trillion microseconds — several days — so no observation is
//! ever out of range in practice and the top bucket just saturates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-2 buckets per histogram.
pub const HIST_BUCKETS: usize = 40;

/// Coarse classification of DSM operations for latency accounting.
/// Mirrors `DsmOp` but collapses the variants that share a latency
/// profile; `Other` catches phase markers, exits and anything future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Alloc,
    Read,
    Write,
    FetchAdd,
    Lock,
    Unlock,
    Barrier,
    Cond,
    Flush,
    Other,
}

impl OpClass {
    /// Every class, in `index()` order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Alloc,
        OpClass::Read,
        OpClass::Write,
        OpClass::FetchAdd,
        OpClass::Lock,
        OpClass::Unlock,
        OpClass::Barrier,
        OpClass::Cond,
        OpClass::Flush,
        OpClass::Other,
    ];

    /// Number of distinct classes.
    pub const COUNT: usize = 10;

    /// Dense index for array-backed recorders.
    pub fn index(&self) -> usize {
        match self {
            OpClass::Alloc => 0,
            OpClass::Read => 1,
            OpClass::Write => 2,
            OpClass::FetchAdd => 3,
            OpClass::Lock => 4,
            OpClass::Unlock => 5,
            OpClass::Barrier => 6,
            OpClass::Cond => 7,
            OpClass::Flush => 8,
            OpClass::Other => 9,
        }
    }

    /// Stable label used in metrics output.
    pub fn label(&self) -> &'static str {
        match self {
            OpClass::Alloc => "alloc",
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::FetchAdd => "fetch_add",
            OpClass::Lock => "lock",
            OpClass::Unlock => "unlock",
            OpClass::Barrier => "barrier",
            OpClass::Cond => "cond",
            OpClass::Flush => "flush",
            OpClass::Other => "other",
        }
    }

    /// The class at dense index `i` (inverse of [`OpClass::index`]).
    pub fn from_index(i: usize) -> OpClass {
        OpClass::ALL[i]
    }
}

/// Bucket index for a latency observation.
fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((63 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Lower edge (µs) of bucket `i` — used when rendering bucket boundaries.
pub fn bucket_floor_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// An owned, mergeable histogram: the snapshot/report form.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum_us: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) by linear interpolation inside
    /// the covering power-of-2 bucket. Log buckets bound the relative
    /// error at 2x, which is plenty for p50/p90/p99 trend lines.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_floor_us(i) as f64;
                let hi = if i == 0 { 2.0 } else { (1u64 << (i + 1)) as f64 };
                let frac = (rank - seen) as f64 / n as f64;
                return (lo + frac * (hi - lo)) as u64;
            }
            seen += n;
        }
        bucket_floor_us(HIST_BUCKETS - 1)
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// The hot-path form: a fixed array of relaxed atomics. One per
/// (thread, class, pipelined?) slot, preallocated at world construction,
/// written only by the owning thread and read by whoever snapshots.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Relaxed) == 0
    }

    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_the_observations() {
        let mut h = Histogram::default();
        for us in [10u64, 12, 14, 100, 120, 140, 1000, 1200, 1400, 50_000] {
            h.record(us);
        }
        assert_eq!(h.count, 10);
        let p50 = h.p50_us();
        assert!((8..=256).contains(&p50), "p50 {p50} outside the mid cluster");
        let p99 = h.p99_us();
        assert!(p99 >= 32_768, "p99 {p99} must land in the 50ms outlier bucket");
        assert!(h.p50_us() <= h.p90_us() && h.p90_us() <= h.p99_us());
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(5);
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum_us, 512);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let ah = AtomicHistogram::default();
        let mut h = Histogram::default();
        for us in [0u64, 1, 33, 900, 1_000_000] {
            ah.record(us);
            h.record(us);
        }
        assert_eq!(ah.snapshot(), h);
    }

    #[test]
    fn class_indices_are_dense_and_invertible() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(OpClass::from_index(i), *c);
        }
    }
}
