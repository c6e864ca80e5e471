//! Summary statistics used by the experiment harnesses.
//!
//! Figure 7 of the paper is a box plot of measured BER per optical channel;
//! Figure 10 reports per-VM average delays. [`Summary`] and [`BoxPlot`]
//! provide exactly the aggregations those harnesses print.
//!
//! # Error bound
//!
//! A [`Summary`] is a log-bucket sketch, not a sample list, so its memory
//! grows with the number of buckets touched, not with the number of samples.
//! A bucket holds the samples that share sign, exponent and the top 7
//! mantissa bits, so it spans at most 2⁻⁷ of its smallest magnitude; zero
//! has a bucket of its own.
//!
//! - `count`, `min` and `max` are exact.
//! - `mean` and `std_dev` come from Welford moments (merged with Chan et
//!   al.'s pairwise update), exact up to floating-point rounding.
//! - A percentile keeps the rank `p/100·(n−1)` and interpolates linearly
//!   between the floor and ceil ranks, as an exact percentile would. Each
//!   rank is represented by the midrange of the values its bucket has seen,
//!   which is within 2⁻⁸ (about 0.39%) of the sample at
//!   that rank. For same-sign data the interpolated percentile is therefore
//!   within 2⁻⁸ of the exact one; in general the error is at
//!   most 2⁻⁸ times the interpolation-weighted magnitudes of
//!   the two samples. p0 and p100 are `min` and `max` exactly, and a bucket
//!   whose samples share one value reports it exactly. The bound holds for
//!   normal floats; a subnormal sample is off by less than 2⁻¹⁰²⁹.
//!
//! The Figure 7 box plots and the Figure 10 delay percentiles are therefore
//! approximate within this bound; their means, extremes and counts are not.
//! Bucketing uses only integer operations on the float's bits (no `ln`,
//! `log` or `powf`), so a sketch, and any report printing one, is the same
//! on every host.

use serde::{Deserialize, Serialize};

/// Mantissa bits a bucket key keeps below the exponent.
const MANTISSA_BITS: u32 = 7;

/// Bound on the relative error of a percentile of same-sign samples: half
/// the widest bucket, 2⁻⁸.
#[cfg(test)]
pub(crate) const RELATIVE_ERROR: f64 = 1.0 / (1u64 << (MANTISSA_BITS + 1)) as f64;

/// Low bits of an `f64`'s magnitude that a bucket key drops.
const DROPPED_BITS: u32 = 52 - MANTISSA_BITS;

/// A deterministic, mergeable log-bucket sketch of a stream of `f64`
/// samples: count, mean, std-dev, min/max and percentiles within the
/// bound stated in the [module docs](self).
///
/// Record samples as they happen with [`Summary::record`], combine
/// per-shard sketches with [`Summary::merge`], and turn the result into a
/// report field with [`Summary::finish`], which gives `None` for a metric
/// that recorded nothing or saw a non-finite value. An empty sketch
/// reports count 0, mean and std-dev 0, and min/max of ∞/−∞.
///
/// ```
/// use dredbox_sim::stats::Summary;
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert_eq!(s.median(), 2.5);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
    /// Set once a non-finite value is recorded: such a metric has no summary.
    saw_non_finite: bool,
    /// Bucket keys in ascending value order (see [`bucket_key`]).
    keys: Vec<i32>,
    /// One entry per key, in lockstep with `keys`.
    buckets: Vec<Bucket>,
    /// Lookup directory over `keys`, one entry per occupied [`Block`], in
    /// ascending order.
    blocks: Vec<Block>,
    /// Position of the bucket the last sample went to: consecutive
    /// samples of a latency stream land in the same bucket about half the
    /// time, and then need no directory lookup at all.
    last: usize,
}

/// 128 consecutive bucket keys: those `k` with `(k - 1) >> 7 == group`, so
/// the positive keys of one binary exponent (its 128 mantissa buckets)
/// share a block. `occupied` is a 128-bit occupancy word in two halves:
/// bit `i % 64` of half `i / 64` is set when the block's `i`-th key has a
/// bucket, and that key's position in `keys` is where its half starts
/// (`first`) plus the popcount of the half's bits below it: one 64-bit
/// popcount per lookup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Block {
    occupied: [u64; 2],
    first: [u32; 2],
    group: i32,
}

/// A key's block group and bit within the block.
fn block_of(key: i32) -> (i32, u32) {
    // Keys are at least -(2^18), so `key - 1` cannot overflow.
    let k = key - 1;
    (k >> 7, (k & 127) as u32)
}

/// The samples of one bucket: how many, and the smallest and largest seen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Bucket {
    count: u64,
    lo: f64,
    hi: f64,
}

impl Bucket {
    /// The value that stands for every sample of the bucket: the midrange
    /// of what it has seen, within half the bucket width of each of them.
    fn representative(&self) -> f64 {
        self.lo + (self.hi - self.lo) / 2.0
    }

    fn absorb(&mut self, other: &Bucket) {
        self.count += other.count;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }
}

/// Orders buckets by value: 0 for zero, `±(1 + magnitude bits >>
/// DROPPED_BITS)` otherwise. Finite magnitudes order like their bit
/// patterns, so the key keeps the exponent and top mantissa bits.
fn bucket_key(x: f64) -> i32 {
    if x == 0.0 {
        return 0;
    }
    // At most 2^18 - 1 for a finite float, so the cast is lossless.
    let magnitude = (x.abs().to_bits() >> DROPPED_BITS) as i32 + 1;
    if x < 0.0 {
        -magnitude
    } else {
        magnitude
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// An empty sketch.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            saw_non_finite: false,
            keys: Vec::new(),
            buckets: Vec::new(),
            blocks: Vec::new(),
            last: 0,
        }
    }

    /// Builds a summary from `samples`. Returns `None` when `samples` is
    /// empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut summary = Summary::new();
        for &x in samples {
            summary.record(x);
        }
        summary.finish()
    }

    /// Records one sample. Allocates only when it opens a bucket.
    pub fn record(&mut self, x: f64) {
        self.record_with(x, Summary::add);
    }

    /// [`Summary::record`], placing the sample's bucket with `add`.
    fn record_with(&mut self, x: f64, add: impl Fn(&mut Summary, i32, &Bucket)) {
        if !x.is_finite() {
            self.saw_non_finite = true;
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        // Strict `<` keeps the first of equal minima and `>=` the last of
        // equal maxima, as a stable sort of the samples would (±0 differ).
        if x < self.min {
            self.min = x;
        }
        if x >= self.max {
            self.max = x;
        }
        // One canonical zero, so bucket contents never depend on order.
        let x = if x == 0.0 { 0.0 } else { x };
        add(
            self,
            bucket_key(x),
            &Bucket {
                count: 1,
                lo: x,
                hi: x,
            },
        );
    }

    /// Adds `bucket`'s samples under `key`, opening the bucket if needed.
    /// The last bucket used is checked first; otherwise a binary search
    /// over the few occupied blocks and a popcount give the position.
    fn add(&mut self, key: i32, bucket: &Bucket) {
        if self.keys.get(self.last) == Some(&key) {
            self.buckets[self.last].absorb(bucket);
            return;
        }
        let (group, bit) = block_of(key);
        let b = self.blocks.partition_point(|block| block.group < group);
        let (half, bit) = (bit as usize / 64, bit % 64);
        let pos = match self.blocks.get_mut(b) {
            Some(block) if block.group == group => {
                let word = block.occupied[half];
                let pos =
                    block.first[half] as usize + (word & ((1 << bit) - 1)).count_ones() as usize;
                if word >> bit & 1 != 0 {
                    self.buckets[pos].absorb(bucket);
                    self.last = pos;
                    return;
                }
                block.occupied[half] |= 1 << bit;
                if half == 0 {
                    block.first[1] += 1;
                }
                pos
            }
            next => {
                let pos = next.map_or(self.keys.len(), |block| block.first[0] as usize) as u32;
                let mut block = Block {
                    occupied: [0; 2],
                    first: [pos, pos + u32::from(half == 0)],
                    group,
                };
                block.occupied[half] = 1 << bit;
                self.blocks.insert(b, block);
                pos as usize
            }
        };
        for block in &mut self.blocks[b + 1..] {
            block.first[0] += 1;
            block.first[1] += 1;
        }
        self.keys.insert(pos, key);
        self.buckets.insert(pos, *bucket);
        self.last = pos;
    }

    /// Folds `other` into this sketch. Bucket counts add, so the buckets
    /// do not depend on merge order; the moments combine pairwise (Chan et
    /// al.), so merging in a fixed order gives the same bits every time.
    pub fn merge(&mut self, other: &Summary) {
        self.merge_with(other, Summary::add);
    }

    /// [`Summary::merge`], placing `other`'s buckets with `add`.
    fn merge_with(&mut self, other: &Summary, add: impl Fn(&mut Summary, i32, &Bucket)) {
        self.saw_non_finite |= other.saw_non_finite;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            // Copied, so a sketch merged into an empty one keeps its bits.
            (self.mean, self.m2) = (other.mean, other.m2);
        } else {
            let (na, nb) = (self.count as f64, other.count as f64);
            let n = na + nb;
            let delta = other.mean - self.mean;
            self.mean += delta * nb / n;
            self.m2 += other.m2 + delta * delta * na * nb / n;
        }
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max >= self.max {
            self.max = other.max;
        }
        for (&key, bucket) in other.keys.iter().zip(&other.buckets) {
            add(self, key, bucket);
        }
    }

    /// The sketch as a report field: `None` when it recorded nothing or saw
    /// a non-finite value.
    pub fn finish(self) -> Option<Self> {
        (self.count > 0 && !self.saw_non_finite).then_some(self)
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The value standing for the `idx`-th smallest sample (0-based): the
    /// exact extreme at either end, else its bucket's representative.
    fn value_at(&self, idx: u64) -> f64 {
        if idx == 0 {
            return self.min;
        }
        if idx + 1 == self.count {
            return self.max;
        }
        let mut seen = 0;
        for bucket in &self.buckets {
            seen += bucket.count;
            if idx < seen {
                return bucket.representative();
            }
        }
        unreachable!("bucket counts sum to the sample count")
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`, within the bound
    /// stated in the [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the sketch is empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        assert!(self.count > 0, "percentile of an empty summary");
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let frac = rank - lo as f64;
        let value = self.value_at(lo) * (1.0 - frac) + self.value_at(hi) * frac;
        value.clamp(self.min, self.max)
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Box-plot summary (min, Q1, median, Q3, max) of the samples.
    pub fn box_plot(&self) -> BoxPlot {
        BoxPlot {
            min: self.min,
            q1: self.percentile(25.0),
            median: self.median(),
            q3: self.percentile(75.0),
            max: self.max,
        }
    }
}

/// Compares what the sketch has recorded; the lookup directory and the
/// last-bucket hint follow from it or from the recording order.
impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.mean == other.mean
            && self.m2 == other.m2
            && self.min == other.min
            && self.max == other.max
            && self.saw_non_finite == other.saw_non_finite
            && self.keys == other.keys
            && self.buckets == other.buckets
    }
}

impl std::fmt::Debug for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Golden snapshots freeze this representation.
        let mut s = f.debug_struct("Summary");
        s.field("count", &self.count)
            .field("mean", &self.mean())
            .field("std_dev", &self.std_dev())
            .field("min", &self.min);
        if self.count > 0 {
            s.field("p50", &self.percentile(50.0))
                .field("p90", &self.percentile(90.0))
                .field("p99", &self.percentile(99.0))
                .field("p999", &self.percentile(99.9));
        }
        s.field("max", &self.max).finish()
    }
}

/// Five-number box-plot summary, as plotted in Figure 7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
}

impl BoxPlot {}

impl std::fmt::Display for BoxPlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min={:.3e} q1={:.3e} med={:.3e} q3={:.3e} max={:.3e}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact summary the sketch replaced: every sample kept and sorted.
    /// It is the oracle the sketch's bound is checked against.
    struct Exact {
        mean: f64,
        std_dev: f64,
        sorted: Vec<f64>,
    }

    impl Exact {
        fn new(samples: &[f64]) -> Self {
            let n = samples.len() as f64;
            let mean = samples.iter().sum::<f64>() / n;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            Exact {
                mean,
                std_dev: var.sqrt(),
                sorted,
            }
        }

        /// The exact percentile and the bound the sketch must meet for it.
        fn percentile(&self, p: f64) -> (f64, f64) {
            let s = &self.sorted;
            if s.len() == 1 {
                return (s[0], 0.0);
            }
            let rank = p / 100.0 * (s.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            let exact = s[lo] * (1.0 - frac) + s[hi] * frac;
            let weighted = s[lo].abs() * (1.0 - frac) + s[hi].abs() * frac;
            // Slack for the rounding of the interpolation itself.
            let rounding = 1e-12 * s[lo].abs().max(s[hi].abs());
            (exact, RELATIVE_ERROR * weighted + rounding)
        }
    }

    /// `a` is within 1e-9 of `b`, relative to `b` or, for a value that is
    /// itself rounding noise, to the magnitude of the data.
    fn close(a: f64, b: f64, scale: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1e-6 * scale)
    }

    fn check_against_exact(samples: &[f64]) {
        let s = Summary::from_samples(samples).expect("finite, non-empty");
        let exact = Exact::new(samples);
        let scale = exact.sorted[0]
            .abs()
            .max(exact.sorted[samples.len() - 1].abs());
        assert_eq!(s.count(), samples.len());
        assert_eq!(s.min(), exact.sorted[0]);
        assert_eq!(s.max(), exact.sorted[samples.len() - 1]);
        assert!(
            close(s.mean(), exact.mean, scale),
            "mean {} vs {}",
            s.mean(),
            exact.mean
        );
        assert!(
            close(s.std_dev(), exact.std_dev, scale),
            "std_dev {} vs {}",
            s.std_dev(),
            exact.std_dev
        );
        let grid = (0..=20).map(|i| f64::from(i) * 5.0);
        for p in [1.0, 99.0, 99.9].into_iter().chain(grid) {
            let (want, bound) = exact.percentile(p);
            let got = s.percentile(p);
            assert!(
                (got - want).abs() <= bound,
                "p{p}: {got} vs exact {want} (bound {bound}) over {samples:?}"
            );
        }
        assert_eq!(s.percentile(0.0), s.min());
        assert_eq!(s.percentile(100.0), s.max());
    }

    /// Turns raw draws into samples mixing zeros, ties, negatives, a dense
    /// cluster (many distinct values per bucket in [1, 1.0625)) and a
    /// log-uniform spread over 1e-12..1e6.
    fn mixed_samples(draws: &[(u32, f64)]) -> Vec<f64> {
        const TIES: [f64; 4] = [0.25, 3.0, 1e-9, 4096.0];
        draws
            .iter()
            .map(|&(kind, u)| {
                let spread = 10f64.powf(-12.0 + 18.0 * u);
                match kind {
                    0 => 0.0,
                    1 => TIES[(u * 4.0) as usize % 4],
                    2 => -spread,
                    3 => 1.0 + u / 16.0,
                    _ => spread,
                }
            })
            .collect()
    }

    /// The binary search over every key that the block directory
    /// replaced: the reference for where a bucket goes.
    fn add_by_search(s: &mut Summary, key: i32, bucket: &Bucket) {
        match s.keys.binary_search(&key) {
            Ok(i) => s.buckets[i].absorb(bucket),
            Err(i) => {
                s.keys.insert(i, key);
                s.buckets.insert(i, *bucket);
            }
        }
    }

    /// The directory agrees with the keys: blocks ascend, and each names
    /// exactly its keys and where they start.
    fn check_directory(s: &Summary) {
        let mut pos = 0;
        for (i, block) in s.blocks.iter().enumerate() {
            assert!(i == 0 || s.blocks[i - 1].group < block.group);
            assert_eq!(block.first[0] as usize, pos);
            let low = block.occupied[0].count_ones() as usize;
            assert_eq!(block.first[1] as usize, pos + low);
            let len = low + block.occupied[1].count_ones() as usize;
            let mut bits = [0u64; 2];
            for &key in &s.keys[pos..pos + len] {
                let (group, bit) = block_of(key);
                assert_eq!(group, block.group);
                bits[bit as usize / 64] |= 1 << (bit % 64);
            }
            assert_eq!(bits, block.occupied);
            pos += len;
        }
        assert_eq!(pos, s.keys.len());
    }

    /// Samples that stress bucket placement: both zeros, subnormals,
    /// extreme exponents and raw bit patterns of either sign, and a
    /// latency-like stream that revisits a few hundred buckets.
    fn placement_samples(draws: &[(u32, u64)]) -> Vec<f64> {
        draws
            .iter()
            .map(|&(kind, bits)| {
                let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
                let mantissa = bits & ((1 << 52) - 1);
                match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => sign * f64::from_bits(mantissa.max(1)),
                    3 => sign * f64::from_bits((2040 + bits % 7) << 52 | mantissa),
                    4 => sign * f64::from_bits((1 + bits % 6) << 52 | mantissa),
                    5 => {
                        let x = f64::from_bits(bits & !(1 << 63));
                        if x.is_finite() {
                            sign * x
                        } else {
                            sign * f64::MAX
                        }
                    }
                    _ => 100.0 + (bits % 4096) as f64 * 97.0,
                }
            })
            .collect()
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::INFINITY]).is_none());
        assert!(Summary::new().finish().is_none());
        // A merged-in poisoned sketch poisons the result.
        let mut clean = Summary::new();
        clean.record(1.0);
        let mut poisoned = Summary::new();
        poisoned.record(f64::NEG_INFINITY);
        clean.merge(&poisoned);
        assert!(clean.finish().is_none());
    }

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean(), 5.0);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.median(), 4.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.percentile(50.0), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        for x in [3.5, 0.0, -2.0, 1e-12, 1e6] {
            let s = Summary::from_samples(&[x]).unwrap();
            assert_eq!(s.percentile(10.0), x);
            assert_eq!(s.median(), x);
            assert_eq!(s.std_dev(), 0.0);
            check_against_exact(&[x]);
        }
    }

    #[test]
    fn box_plot_ordering() {
        let s = Summary::from_samples(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        let b = s.box_plot();
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 9.0);
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn repeated_samples_keep_exact_percentiles() {
        // Four distinct values over 12 samples: four buckets, each holding
        // one value, so every percentile is the exact one.
        let samples = [
            64.0, 256.0, 64.0, 1024.0, 64.0, 256.0, 4096.0, 64.0, 1024.0, 64.0, 256.0, 4096.0,
        ];
        let s = Summary::from_samples(&samples).unwrap();
        assert_eq!(s.count(), 12);
        assert_eq!(s.buckets.len(), 4);
        let exact = Exact::new(&samples);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(s.percentile(p), exact.percentile(p).0, "p{p}");
        }
    }

    #[test]
    fn spread_bucket_stays_within_the_bound() {
        // 1.0 and 1.0 + 2^-8 share a bucket, which stands for both by
        // their midrange: p25 (rank 1, exactly 1.0) is off by 2^-9.
        let samples = [0.5, 1.0, 1.0 + RELATIVE_ERROR, 2.0, 3.0];
        let s = Summary::from_samples(&samples).unwrap();
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(s.percentile(25.0), 1.0 + RELATIVE_ERROR / 2.0);
        check_against_exact(&samples);
    }

    #[test]
    fn debug_output_is_compact() {
        let s = Summary::from_samples(&[2.0, 1.0, 2.0]).unwrap();
        let expected = "Summary { count: 3, mean: 1.6666666666666667, \
             std_dev: 0.4714045207910317, min: 1.0, p50: 2.0, p90: 2.0, p99: 2.0, \
             p999: 2.0, max: 2.0 }";
        assert_eq!(format!("{s:?}"), expected);
        assert_eq!(
            format!("{:?}", Summary::new()),
            "Summary { count: 0, mean: 0.0, std_dev: 0.0, min: inf, max: -inf }"
        );
    }

    #[test]
    fn histogram_buckets() {
        // Bucket keys order like the values, zero sits alone between the
        // negatives and the positives, and each key spans 2^-7 relative.
        assert_eq!(bucket_key(0.0), 0);
        assert_eq!(bucket_key(-0.0), 0);
        assert!(bucket_key(-1.0) < bucket_key(-1e-300));
        assert!(bucket_key(-1e-300) < 0 && 0 < bucket_key(f64::MIN_POSITIVE / 2.0));
        assert!(bucket_key(1.0) < bucket_key(1.0 + 1.0 / 128.0));
        assert_eq!(
            bucket_key(1.0),
            bucket_key(1.0 + 1.0 / 128.0 - f64::EPSILON)
        );
        assert_eq!(bucket_key(-3.0), -bucket_key(3.0));
        assert!(bucket_key(f64::MAX) > bucket_key(1e300));
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_empty_range() {
        // An empty sketch has no range of values to take a percentile of.
        let _ = Summary::new().percentile(50.0);
    }

    #[test]
    fn accumulator_matches_summary() {
        // Recording sample by sample, merged from shards in rack order,
        // matches the summary of the concatenated samples.
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut acc = Summary::new();
        for shard in data.chunks(3) {
            let mut part = Summary::new();
            for &x in shard {
                part.record(x);
            }
            acc.merge(&part);
        }
        let s = Summary::from_samples(&data).unwrap();
        assert_eq!(acc.count(), s.count());
        assert!((acc.mean() - s.mean()).abs() < 1e-12);
        assert!((acc.std_dev() - s.std_dev()).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!((acc.keys, acc.buckets), (s.keys, s.buckets));
    }

    #[test]
    fn empty_accumulator() {
        let acc = Summary::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.std_dev(), 0.0);
        assert_eq!(acc.min(), f64::INFINITY);
        assert_eq!(acc.max(), f64::NEG_INFINITY);
        let mut merged = Summary::from_samples(&[2.0]).unwrap();
        merged.merge(&acc);
        assert_eq!(Some(merged), Summary::from_samples(&[2.0]));
    }

    proptest! {
        #[test]
        fn percentile_is_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            let s = Summary::from_samples(&samples).unwrap();
            let mut last = f64::NEG_INFINITY;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
                let v = s.percentile(p);
                prop_assert!(v >= last - 1e-9);
                last = v;
            }
        }

        #[test]
        fn mean_is_bounded_by_min_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::from_samples(&samples).unwrap();
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
        }

        #[test]
        fn sketch_stays_within_the_bound_of_the_exact_summary(
            draws in proptest::collection::vec((0u32..6, 0.0f64..1.0), 1..300),
        ) {
            let samples = mixed_samples(&draws);
            check_against_exact(&samples);
            check_against_exact(&samples[..1]);
        }

        #[test]
        fn merge_order_does_not_change_buckets_or_exact_fields(
            draws in proptest::collection::vec((0u32..6, 0.0f64..1.0), 2..300),
            cut in 0.0f64..1.0,
        ) {
            let samples = mixed_samples(&draws);
            let whole = Summary::from_samples(&samples).unwrap();
            let at = (cut * samples.len() as f64) as usize;
            let (a, b) = samples.split_at(at);
            let sketch = |part: &[f64]| {
                let mut s = Summary::new();
                part.iter().for_each(|&x| s.record(x));
                s
            };
            for (first, second) in [(a, b), (b, a)] {
                let mut merged = sketch(first);
                merged.merge(&sketch(second));
                prop_assert_eq!(&merged.keys, &whole.keys);
                prop_assert_eq!(&merged.buckets, &whole.buckets);
                prop_assert_eq!(merged.count(), whole.count());
                prop_assert_eq!(merged.min(), whole.min());
                prop_assert_eq!(merged.max(), whole.max());
                let scale = whole.min().abs().max(whole.max().abs());
                prop_assert!(close(merged.mean(), whole.mean(), scale));
                prop_assert!(close(merged.std_dev(), whole.std_dev(), scale));
            }
        }

        #[test]
        fn directory_places_buckets_like_the_binary_search(
            draws in proptest::collection::vec((0u32..7, 0u64..u64::MAX), 1..400),
            cuts in (0.0f64..1.0, 0.0f64..1.0),
        ) {
            let samples = placement_samples(&draws);
            let (mut directory, mut search) = (Summary::new(), Summary::new());
            for &x in &samples {
                directory.record(x);
                search.record_with(x, add_by_search);
            }
            check_directory(&directory);
            prop_assert_eq!(&directory.keys, &search.keys);
            prop_assert_eq!(&directory.buckets, &search.buckets);
            prop_assert_eq!(format!("{directory:?}"), format!("{search:?}"));

            // Three parts, merged in every order.
            let mut at = [
                (cuts.0 * samples.len() as f64) as usize,
                (cuts.1 * samples.len() as f64) as usize,
            ];
            at.sort_unstable();
            let parts = [&samples[..at[0]], &samples[at[0]..at[1]], &samples[at[1]..]];
            let sketch = |part: &[f64]| {
                let mut s = Summary::new();
                part.iter().for_each(|&x| s.record(x));
                s
            };
            for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
                let (mut directory, mut search) = (Summary::new(), Summary::new());
                for i in order {
                    let part = sketch(parts[i]);
                    directory.merge(&part);
                    search.merge_with(&part, add_by_search);
                }
                check_directory(&directory);
                prop_assert_eq!(&directory.keys, &search.keys);
                prop_assert_eq!(&directory.buckets, &search.buckets);
                prop_assert_eq!(format!("{directory:?}"), format!("{search:?}"));
                // Bucket counts add, so every order gives the whole stream's.
                prop_assert_eq!(&directory.buckets, &sketch(&samples).buckets);
            }
        }

        #[test]
        fn histogram_conserves_samples(samples in proptest::collection::vec(-50.0f64..150.0, 0..200)) {
            let mut s = Summary::new();
            for &x in &samples {
                s.record(x);
            }
            let total: u64 = s.buckets.iter().map(|b| b.count).sum();
            prop_assert_eq!(total as usize, samples.len());
            prop_assert_eq!(s.count(), samples.len());
        }

        #[test]
        fn non_finite_input_gives_none(
            samples in proptest::collection::vec(-1e6f64..1e6, 0..50),
            at in 0.0f64..1.0,
            which in 0u32..3,
        ) {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which as usize];
            let mut poisoned = samples.clone();
            poisoned.insert((at * samples.len() as f64) as usize, bad);
            prop_assert!(Summary::from_samples(&poisoned).is_none());
        }
    }
}
