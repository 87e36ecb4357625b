//! A fixed-bucket log-linear latency histogram (HDR-style).
//!
//! Values are unsigned integers (the pipeline records nanoseconds). The
//! bucket layout is *log-linear*: the first [`BASE`] values (0–31) get one
//! exact bucket each, and every power-of-two octave above that is split
//! into [`BASE`] equal-width sub-buckets, so the relative quantization
//! error is bounded by `1/BASE` (≈3.1%) across the whole `u64` range. No
//! value is ever out of range — `u64::MAX` lands in the last bucket — and
//! no bucket is ever allocated lazily, so recording is a handful of
//! relaxed atomic adds with no branches on sizes.
//!
//! Concurrency model: [`Histogram`] is the shared, writable form — any
//! number of threads `record` into the same instance (relaxed atomics;
//! counts never decrease, so concurrent [`Histogram::snapshot`]s observe
//! monotonically non-decreasing totals). [`HistogramSnapshot`] is the
//! owned, queryable form: percentiles, mean, merge (exact and
//! associative — bucket-wise addition), and windowed `diff`s between two
//! snapshots of the same histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave: 2^5 = 32, bounding relative error at 1/32.
const SUB_BITS: u32 = 5;
/// Width of the exact range and of each octave's sub-bucket fan-out.
pub const BASE: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`: the exact range plus 59
/// octaves (msb 5 through 63) of `BASE` sub-buckets each.
pub const BUCKET_COUNT: usize = (BASE as usize) * 60;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < BASE {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let offset = msb - SUB_BITS;
    let sub = (value >> offset) - BASE;
    ((BASE as usize) * (offset as usize + 1)) + sub as usize
}

/// The smallest value mapping to `index`.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index < BASE as usize {
        return index as u64;
    }
    let offset = (index / BASE as usize - 1) as u32;
    let sub = (index % BASE as usize) as u64;
    (BASE + sub) << offset
}

/// The largest value mapping to `index` (inclusive).
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    if index < BASE as usize {
        return index as u64;
    }
    let offset = (index / BASE as usize - 1) as u32;
    let width = 1u64 << offset;
    bucket_low(index).saturating_add(width - 1)
}

/// A concurrently writable log-linear histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKET_COUNT]),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free: four relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// An owned copy of the current state. The total count is derived from
    /// the bucket counts themselves (not a separate counter), so counts in
    /// a snapshot always sum to its `count` even while writers race, and
    /// successive snapshots never report a decreasing total.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, queryable histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record into an owned snapshot (single-threaded accumulation).
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`). The returned value is
    /// the upper bound of the bucket holding the rank, clamped to the
    /// exactly tracked `[min, max]` — so `percentile(0) == min()` and
    /// `percentile(100) == max()` hold exactly, and any quantile is within
    /// one bucket width (≤ `1/BASE` relative) of the true order statistic.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        // The extreme order statistics are tracked exactly — report them
        // exactly instead of through bucket quantization.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merge another snapshot into this one. Bucket-wise addition —
    /// exact, commutative, and associative, so per-thread histograms can
    /// be combined in any order with identical results.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The window between an earlier snapshot of the *same* histogram and
    /// this one: bucket-wise saturating subtraction. Used for per-pass
    /// latency windows in the service binary's `--stats` output.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count: u64 = counts.iter().sum();
        // True window extremes are not tracked; bound them by the window's
        // own occupied buckets, clamped to the lifetime extremes.
        let (min, max) = if count == 0 {
            (u64::MAX, 0)
        } else {
            let first = counts.iter().position(|&c| c > 0).unwrap();
            let last = counts.iter().rposition(|&c| c > 0).unwrap();
            (
                bucket_low(first).max(self.min),
                bucket_high(last).min(self.max),
            )
        };
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range_is_exact() {
        for v in 0..BASE {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous() {
        // Every bucket's high + 1 is the next bucket's low — no gaps, no
        // overlaps, across the whole index space.
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(
                bucket_high(i).saturating_add(1),
                bucket_low(i + 1),
                "gap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_high(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn extremes_land_in_range() {
        for v in [0, 1, 31, 32, 33, 63, 64, 1 << 20, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v = {v}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in 6..63 {
            let v = (1u64 << shift) + (1 << (shift - 1)) + 17;
            let i = bucket_index(v);
            let width = bucket_high(i) - bucket_low(i) + 1;
            assert!(
                (width as f64) / (v as f64) <= 1.0 / BASE as f64 + 1e-9,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        // ≤3.2% quantization error on every quantile.
        for (p, expected) in [(50.0, 500u64), (90.0, 900), (99.0, 990), (99.9, 999)] {
            let got = s.percentile(p);
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(err <= 0.032, "p{p}: got {got}, want ≈{expected}");
        }
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(100.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn diff_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1000);
        let window = h.snapshot().diff(&before);
        assert_eq!(window.count(), 1);
        assert!(window.percentile(50.0) >= 1000 - 32);
    }
}
