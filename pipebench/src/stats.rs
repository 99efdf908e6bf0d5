//! Small statistics helpers on top of `cg_sim::SampleSet`: the reported
//! tail of a sample set, a bounded log-linear histogram for per-event host
//! gaps, and a stable digest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cg_sim::SampleSet;

/// Median and tail of a sample set, as the benchmark reports timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (nearest rank, lower middle for an even count).
    pub p50: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples above
    /// it: the eleventh-largest sample (the largest when there are ten
    /// samples or fewer).
    pub tail: f64,
    /// Which percentile `tail` is (nearest rank), in percent.
    pub tail_pct: f64,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// `(index, percentile)` of the reported tail among `n ≥ 1` samples.
fn tail_rank(n: usize) -> (usize, f64) {
    if n <= TAIL_BEYOND {
        return (n - 1, 100.0);
    }
    let i = n - 1 - TAIL_BEYOND;
    (i, 100.0 * i as f64 / (n - 1) as f64)
}

/// Summarises `set`; all zeros when it is empty.
pub fn summarize(set: &SampleSet) -> Summary {
    let Some(p50) = set.median() else {
        return Summary {
            count: 0,
            p50: 0.0,
            tail: 0.0,
            tail_pct: 0.0,
        };
    };
    let n = set.len();
    let (tail_index, tail_pct) = tail_rank(n);
    let mut samples = set.samples().to_vec();
    let (_, &mut tail, _) = samples.select_nth_unstable_by(tail_index, f64::total_cmp);
    Summary {
        count: n,
        p50,
        tail,
        tail_pct,
    }
}

/// The median of `set`; 0 when it is empty.
pub fn median(set: &SampleSet) -> f64 {
    set.median().unwrap_or(0.0)
}

/// Sub-buckets per power of two: relative bucket width ≈ 1/16.
const SUB: u32 = 16;

/// A fixed-size log-linear histogram of non-negative integers (host
/// nanoseconds), plus the largest values kept exactly so the tail is
/// exact. Memory is constant however many values are recorded.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    /// The `TAIL_BEYOND + 1` largest values seen, smallest on top.
    top: BinaryHeap<Reverse<u64>>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
            top: BinaryHeap::new(),
        }
    }
}

impl LogHistogram {
    fn bucket(v: u64) -> usize {
        if v < u64::from(SUB) {
            return v as usize;
        }
        let exp = v.ilog2(); // ≥ 4
        let sub = (v >> (exp - SUB.trailing_zeros())) as u32 - SUB;
        ((exp - SUB.trailing_zeros() + 1) * SUB + sub) as usize
    }

    fn lower_bound(b: usize) -> f64 {
        let b = b as u32;
        if b < SUB {
            return f64::from(b);
        }
        let exp = b / SUB - 1 + SUB.trailing_zeros();
        f64::from(b % SUB + SUB) * 2f64.powi((exp - SUB.trailing_zeros()) as i32)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.top.push(Reverse(v));
        if self.top.len() > TAIL_BEYOND + 1 {
            self.top.pop();
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value of rank `rank` (0-based, ascending), placed inside its
    /// bucket by linear interpolation on the rank.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            if seen + c > rank {
                let lo = Self::lower_bound(b);
                let hi = Self::lower_bound(b + 1);
                return lo + (hi - lo) * (rank - seen) as f64 / c as f64;
            }
            seen += c;
        }
        0.0
    }

    /// Median (to within one bucket's width) and exact tail, by the rule
    /// of [`summarize`]; all zeros when empty.
    pub fn summary(&self) -> Summary {
        let n = self.count as usize;
        if n == 0 {
            return summarize(&SampleSet::new());
        }
        let (_, tail_pct) = tail_rank(n);
        Summary {
            count: n,
            // Nearest rank, lower middle: as `SampleSet::median`.
            p50: self.at_rank((n as u64 - 1) / 2),
            // With more than ten values the smallest kept one is the
            // eleventh-largest; otherwise the tail is the largest.
            tail: if n > TAIL_BEYOND {
                self.top.peek().map(|v| v.0)
            } else {
                self.top.iter().map(|v| v.0).max()
            }
            .unwrap_or(0) as f64,
            tail_pct,
        }
    }
}

/// FNV-1a, 64-bit: a stable digest of simulated results (the same on
/// every platform and run, unlike the std hasher).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: impl IntoIterator<Item = f64>) -> SampleSet {
        let mut set = SampleSet::new();
        for v in values {
            set.record(v);
        }
        set
    }

    #[test]
    fn tail_has_exactly_ten_samples_beyond_it() {
        for n in [11u32, 12, 101, 1_001, 54_321] {
            let samples = set((1..=n).rev().map(f64::from));
            let s = summarize(&samples);
            assert_eq!(s.count, n as usize);
            assert_eq!(s.tail, f64::from(n - 10), "n = {n}");
            assert_eq!(
                samples.samples().iter().filter(|&&x| x > s.tail).count(),
                TAIL_BEYOND
            );
            // The stated percentile picks the same sample by nearest rank.
            assert_eq!(samples.percentile(s.tail_pct), Some(s.tail), "n = {n}");
        }
        let s = summarize(&set([3.0, 1.0, 2.0, 4.0]));
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 4.0, 100.0));
        assert_eq!(summarize(&SampleSet::new()).count, 0);
    }

    #[test]
    fn histogram_tracks_exact_order_statistics_to_bucket_precision() {
        let mut h = LogHistogram::default();
        let values: Vec<u64> = (0..10_000u64).map(|i| i * i % 100_003 + 7).collect();
        for &v in &values {
            h.record(v);
        }
        let exact = summarize(&set(values.iter().map(|&v| v as f64)));
        let approx = h.summary();
        assert_eq!(approx.count, exact.count);
        assert!(
            (approx.p50 - exact.p50).abs() <= exact.p50 / f64::from(SUB),
            "{} vs {}",
            approx.p50,
            exact.p50
        );
        assert_eq!(approx.tail, exact.tail);
    }

    #[test]
    fn histogram_buckets_are_monotone() {
        let mut last = 0;
        for v in (0..5_000u64).chain([1 << 20, 1 << 40, u64::MAX]) {
            let b = LogHistogram::bucket(v);
            assert!(b >= last, "bucket({v}) = {b} < {last}");
            assert!(LogHistogram::lower_bound(b) <= v as f64);
            last = b;
        }
    }
}
