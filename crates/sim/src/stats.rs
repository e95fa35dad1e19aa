//! Measurement primitives for the benchmark harnesses.
//!
//! * [`Histogram`] — log-linear latency histogram (HdrHistogram-style) with
//!   bounded relative error, used for latency percentiles in Figs. 9 and 11.
//! * [`Summary`] — streaming min/mean/max over exact values.
//! * [`Throughput`] — bytes-and-ops counter over a measured interval,
//!   reporting MB/s and IOPS for Figs. 2 and 10.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Buckets are organized as 2^7 = 128 linear sub-buckets per power-of-two
/// range, giving a worst-case relative error under 1%, plenty for latency
/// reporting.
///
/// # Example
///
/// ```
/// use nesc_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 500] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 300 - 4); // within bucket resolution
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

fn bucket_index(value: u64) -> usize {
    // Values below SUB_BUCKETS map 1:1; above, each power-of-two range is
    // split into SUB_BUCKETS/2 additional linear buckets.
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros() as u64; // floor(log2(value))
        let shift = exp - (SUB_BUCKET_BITS as u64 - 1);
        let sub = (value >> shift) - SUB_BUCKETS / 2;
        ((shift + 1) * (SUB_BUCKETS / 2) + sub) as usize
    }
}

fn bucket_high(index: usize) -> u64 {
    // Upper bound (inclusive representative) of a bucket.
    let idx = index as u64;
    if idx < SUB_BUCKETS {
        idx
    } else {
        let shift = idx / (SUB_BUCKETS / 2) - 1;
        let sub = idx % (SUB_BUCKETS / 2) + SUB_BUCKETS / 2;
        ((sub + 1) << shift) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration sample in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Empties the histogram in place, retaining bucket storage — the
    /// windowed-telemetry reset path, equivalent to `*self =
    /// Histogram::new()` without the allocator round trip. Only the dirty
    /// bucket range is re-zeroed: every recorded sample lies in
    /// `min..=max`, and the bucket mapping is monotone, so buckets outside
    /// `bucket_index(min)..=bucket_index(max)` are already zero.
    pub fn reset(&mut self) {
        if self.total > 0 {
            let lo = bucket_index(self.min);
            let hi = bucket_index(self.max);
            self.counts[lo..=hi].fill(0);
        }
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at the given percentile (0–100), within bucket resolution.
    ///
    /// Returns 0 for an empty histogram. A percentile outside `[0, 100]`
    /// (a contract violation) is clamped.
    pub fn percentile(&self, p: f64) -> u64 {
        debug_assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let p = p.clamp(0.0, 100.0);
        if self.total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        // Buckets before min's are zero (monotone mapping); start there.
        let start = bucket_index(self.min);
        let mut seen = 0;
        for (j, &c) in self.counts[start..].iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(start + j).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median (p50) sample.
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Two percentiles in one bucket scan — exactly
    /// `(self.percentile(p_lo), self.percentile(p_hi))`, at half the
    /// traversal cost. The windowed telemetry close path reads p50/p99
    /// for every disk every window, where the second scan is measurable.
    /// Out-of-range or out-of-order percentiles (contract violations) are
    /// clamped and reordered.
    pub fn percentile_pair(&self, p_lo: f64, p_hi: f64) -> (u64, u64) {
        debug_assert!(
            (0.0..=100.0).contains(&p_lo) && (0.0..=100.0).contains(&p_hi),
            "percentile out of range: {p_lo} {p_hi}"
        );
        debug_assert!(
            p_lo <= p_hi,
            "percentile pair out of order: {p_lo} > {p_hi}"
        );
        let (p_lo, p_hi) = (
            p_lo.clamp(0.0, 100.0).min(p_hi.clamp(0.0, 100.0)),
            p_hi.clamp(0.0, 100.0),
        );
        if self.total == 0 {
            return (0, 0);
        }
        let target = |p: f64| ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let (t_lo, t_hi) = (target(p_lo), target(p_hi));
        // Buckets before min's are zero (monotone mapping); start there.
        let start = bucket_index(self.min);
        let mut seen = 0;
        let mut lo = None;
        for (j, &c) in self.counts[start..].iter().enumerate() {
            seen += c;
            if lo.is_none() && seen >= t_lo {
                lo = Some(bucket_high(start + j).min(self.max).max(self.min));
            }
            if seen >= t_hi {
                let hi = bucket_high(start + j).min(self.max).max(self.min);
                return (lo.unwrap_or(hi), hi);
            }
        }
        (lo.unwrap_or(self.max), self.max)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p99={} max={} mean={:.1}",
            self.total,
            self.min(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max,
            self.mean()
        )
    }
}

/// Streaming min/mean/max summary over exact `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Bytes-and-operations throughput over a measured window.
///
/// # Example
///
/// ```
/// use nesc_sim::{Throughput, SimTime, SimDuration};
/// let mut t = Throughput::starting_at(SimTime::ZERO);
/// t.record_op(4096);
/// t.record_op(4096);
/// t.finish(SimTime::ZERO + SimDuration::from_micros(8));
/// assert!((t.megabytes_per_sec() - 1024.0).abs() < 1.0); // 8 KiB / 8 us
/// assert_eq!(t.ops(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Throughput {
    start: SimTime,
    end: Option<SimTime>,
    bytes: u64,
    ops: u64,
}

impl Throughput {
    /// Begins a measurement window at `start`.
    pub fn starting_at(start: SimTime) -> Self {
        Throughput {
            start,
            end: None,
            bytes: 0,
            ops: 0,
        }
    }

    /// Records one completed operation of `bytes`.
    pub fn record_op(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    /// Closes the window at `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the window start.
    pub fn finish(&mut self, end: SimTime) {
        assert!(end >= self.start, "throughput window ends before it starts");
        self.end = Some(end);
    }

    /// Window length; zero until [`finish`] is called.
    ///
    /// [`finish`]: Throughput::finish
    pub fn elapsed(&self) -> SimDuration {
        match self.end {
            Some(e) => e - self.start,
            None => SimDuration::ZERO,
        }
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Throughput in decimal megabytes per second (matches the paper's MB/s
    /// axes). Returns 0 if the window is empty or unfinished.
    pub fn megabytes_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }

    /// Operations per second. Returns 0 if the window is empty or unfinished.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99);
        assert_eq!(h.percentile(100.0), 99);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn median_is_the_middle_sample_and_durations_record_nanoseconds() {
        let (mut by_value, mut by_duration) = (Histogram::new(), Histogram::new());
        for v in (1..=101).rev() {
            by_value.record(v);
            by_duration.record_duration(SimDuration::from_nanos(v));
        }
        assert_eq!(by_value.median(), 51, "small values are exact");
        by_duration.record_duration(SimDuration::from_micros(3));
        by_value.record(3_000);
        assert_eq!(by_duration.count(), by_value.count());
        assert_eq!(by_duration.max(), 3_000);
        assert_eq!(by_duration.median(), by_value.median());
        assert_eq!(by_duration.mean(), by_value.mean());
        assert_eq!(Histogram::new().median(), 0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn histogram_merge_matches_one_recorder() {
        // A sample stream split across two histograms and merged is
        // bucket-for-bucket the whole stream recorded into one: counts,
        // extremes, mean and every percentile.
        let samples: Vec<u64> = (0..200u64).map(|i| (i * i * 7 + 13) % 100_000).collect();
        let (left, right) = samples.split_at(73);
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        left.iter().for_each(|&v| a.record(v));
        right.iter().for_each(|&v| b.record(v));
        samples.iter().for_each(|&v| whole.record(v));
        a.merge(&b);
        let shape = |h: &Histogram| {
            let ps = [1.0, 25.0, 50.0, 90.0, 99.0, 100.0].map(|p| h.percentile(p));
            (h.count(), h.min(), h.max(), h.mean(), ps)
        };
        assert_eq!(shape(&a), shape(&whole));
        // An empty merge changes nothing; a self-merge doubles the count
        // and leaves every quantile where it was.
        let before = shape(&a);
        a.merge(&Histogram::new());
        assert_eq!(shape(&a), before);
        let copy = a.clone();
        a.merge(&copy);
        assert_eq!(a.count(), 2 * before.0);
        assert_eq!(shape(&a).4, before.4, "quantiles moved under self-merge");
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = Histogram::new();
        h.record(5);
        assert!(!h.to_string().is_empty());
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        for v in [3.0, 1.0, 2.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_reports_mb_per_sec() {
        let mut t = Throughput::starting_at(SimTime::from_nanos(1000));
        t.record_op(1_000_000);
        t.finish(SimTime::from_nanos(1000) + SimDuration::from_millis(1));
        assert!((t.megabytes_per_sec() - 1000.0).abs() < 1e-6);
        assert!((t.ops_per_sec() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_unfinished_is_zero() {
        let mut t = Throughput::starting_at(SimTime::ZERO);
        t.record_op(100);
        assert_eq!(t.megabytes_per_sec(), 0.0);
    }

    #[test]
    fn histogram_reset_equals_fresh() {
        let mut h = Histogram::new();
        for v in [5u64, 70_000, 1_000_000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        // Recording after reset behaves exactly like a fresh histogram.
        let mut fresh = Histogram::new();
        for v in [300u64, 40_000, 90_000] {
            h.record(v);
            fresh.record(v);
        }
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), fresh.percentile(p));
        }
        assert_eq!(h.min(), fresh.min());
        assert_eq!(h.max(), fresh.max());
    }

    #[test]
    fn percentile_pair_empty_is_zero() {
        assert_eq!(Histogram::new().percentile_pair(50.0, 99.0), (0, 0));
    }

    proptest! {
        /// `percentile_pair` is exactly two `percentile` calls, and reset
        /// + re-record matches a fresh histogram, across arbitrary sample
        /// sets — the equivalences the telemetry close path relies on.
        #[test]
        fn prop_percentile_pair_and_reset_equivalences(
            first in proptest::collection::vec(1u64..u64::MAX / 2, 1..200),
            second in proptest::collection::vec(1u64..u64::MAX / 2, 1..200),
            lo in 0u8..=100,
            hi in 0u8..=100,
        ) {
            let (lo, hi) = (lo.min(hi) as f64, lo.max(hi) as f64);
            let mut h = Histogram::new();
            for &v in &first {
                h.record(v);
            }
            prop_assert_eq!(
                h.percentile_pair(lo, hi),
                (h.percentile(lo), h.percentile(hi))
            );
            h.reset();
            let mut fresh = Histogram::new();
            for &v in &second {
                h.record(v);
                fresh.record(v);
            }
            prop_assert_eq!(h.percentile_pair(lo, hi), fresh.percentile_pair(lo, hi));
            prop_assert_eq!(h.count(), fresh.count());
            prop_assert_eq!(h.min(), fresh.min());
            prop_assert_eq!(h.max(), fresh.max());
        }
    }

    proptest! {
        /// Percentile error is bounded by the log-linear bucket width (<1%).
        #[test]
        fn prop_histogram_relative_error(values in proptest::collection::vec(1u64..u64::MAX / 2, 1..500)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact_max = *sorted.last().unwrap();
            let est = h.percentile(100.0);
            let err = (est as f64 - exact_max as f64).abs() / exact_max as f64;
            prop_assert!(err < 0.01, "err {} est {} exact {}", err, est, exact_max);
        }

        /// Bucket mapping is monotone: larger values never map to earlier
        /// buckets, and the bucket's upper bound is >= the value's lower
        /// neighbours.
        #[test]
        fn prop_bucket_monotone(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
            prop_assert!(bucket_high(bucket_index(hi)) >= hi);
        }
    }
}
