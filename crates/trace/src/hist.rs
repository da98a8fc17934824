//! Log2-bucketed histogram for latency / occupancy distributions.

use fp_stats::json::JsonObject;

/// Number of bins: one per possible bit length of a `u64` (0..=64).
const BINS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// A sample `v` lands in bin `bit_length(v)`: bin 0 holds zeros, bin 1
/// holds `1`, bin 2 holds `2..=3`, bin `k` holds `2^(k-1)..=2^k - 1`.
/// Exact count, sum, min, and max are kept alongside the buckets, so the
/// mean is exact even though the shape is coarse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    bins: [u64; BINS],
    count: u64,
    sum: u64,
    /// Whether the running sum ever overflowed and saturated; set by `add`
    /// and `merge`, never cleared.
    saturated: bool,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            bins: [0; BINS],
            count: 0,
            sum: 0,
            saturated: false,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: u64) {
        let bin = (u64::BITS - v.leading_zeros()) as usize;
        self.bins[bin] += 1;
        self.count += 1;
        let (sum, overflowed) = self.sum.overflowing_add(v);
        self.sum = if overflowed { u64::MAX } else { sum };
        self.saturated |= overflowed;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples. Exact unless it overflowed `u64`, in which case
    /// the sum pins at `u64::MAX` (and the mean is a lower bound); the JSON
    /// form reports that as `sum_saturated`.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`: bin counts and exact count/sum add,
    /// min/max combine. The aggregation primitive for multi-shard stats,
    /// where each shard keeps its own spine and a snapshot merges them.
    pub fn merge(&mut self, other: &Log2Hist) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.bins.iter_mut().zip(other.bins.iter()) {
            *b += o;
        }
        self.count += other.count;
        let (sum, overflowed) = self.sum.overflowing_add(other.sum);
        self.sum = if overflowed { u64::MAX } else { sum };
        self.saturated |= overflowed || other.saturated;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the value at quantile `q` (0.0..=1.0): the largest
    /// value of the first bin where the cumulative count reaches
    /// `ceil(q * count)`. Exact for the min (q=0 uses the tracked minimum)
    /// and max (the tracked maximum caps the answer); elsewhere accurate
    /// to the log2 bucket width. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = rank_for(q, self.count);
        let mut seen = 0u64;
        for (bin, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bin k holds values in [2^(k-1), 2^k - 1]; bin 0 holds 0.
                let hi = if bin >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bin) - 1
                };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Serializes as a JSON object. `bins` is trimmed at the last
    /// non-empty bucket to keep archives compact.
    pub(crate) fn to_json(&self) -> String {
        let last = self.bins.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let bins = fp_stats::json::array(self.bins[..last].iter().map(u64::to_string));
        let mut o = JsonObject::new();
        o.field_u64("count", self.count)
            .field_u64("sum", self.sum)
            .field_bool("sum_saturated", self.saturated)
            .field_u64("min", self.min())
            .field_u64("max", self.max)
            .field_f64("mean", self.mean())
            .field_raw("bins", &bins);
        o.finish()
    }
}

/// The 1-based rank of quantile `q` among `count` samples:
/// `max(1, ceil(q * count))`, computed exactly in integer arithmetic.
///
/// The obvious `(q * count as f64).ceil()` loses exactness once `count`
/// exceeds 2^53 (the f64 mantissa): the product rounds *before* the ceil,
/// so merged multi-shard histograms at scale could report a rank off by
/// several samples. Here `q` is decomposed into its exact mantissa/exponent
/// form and the product is carried in `u128`, so the rank is exact for
/// every `count` up to `u64::MAX`.
fn rank_for(q: f64, count: u64) -> u64 {
    if q.is_nan() || q <= 0.0 {
        return 1;
    }
    if q >= 1.0 {
        return count;
    }
    // q = mant * 2^exp exactly (q is finite, positive, < 1 here).
    let bits = q.to_bits();
    let exp_field = (bits >> 52) & 0x7ff;
    let frac = bits & ((1u64 << 52) - 1);
    let (mant, exp) = if exp_field == 0 {
        (frac, -1074i32) // subnormal
    } else {
        (frac | (1u64 << 52), exp_field as i32 - 1075)
    };
    // q < 1 implies exp < 0: q * count = (mant * count) >> -exp.
    let prod = mant as u128 * count as u128;
    let shift = (-exp) as u32;
    if shift >= 128 {
        // q * count < 1 (prod < 2^128): ceil of a positive value below 1.
        return 1;
    }
    let floor = (prod >> shift) as u64;
    let rem_nonzero = prod & ((1u128 << shift) - 1) != 0;
    (floor + u64::from(rem_nonzero)).clamp(1, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_bit_length_bins() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.add(v);
        }
        assert_eq!(h.bins[0], 1); // 0
        assert_eq!(h.bins[1], 1); // 1
        assert_eq!(h.bins[2], 2); // 2, 3
        assert_eq!(h.bins[3], 2); // 4, 7
        assert_eq!(h.bins[4], 1); // 8
        assert_eq!(h.bins[64], 1); // u64::MAX
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Log2Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Log2Hist::new();
        for v in [10, 20, 30] {
            h.add(v);
        }
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_folds_counts_and_extrema() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        for v in [1, 4, 9] {
            a.add(v);
        }
        for v in [0, 100] {
            b.add(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 114);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
        // Merging an empty histogram is a no-op (min must not regress).
        let before = a.clone();
        a.merge(&Log2Hist::new());
        assert_eq!(a, before);
    }

    #[test]
    fn quantile_tracks_bucket_bounds() {
        let mut h = Log2Hist::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.add(v);
        }
        // p50 of 1..=100 is 50, inside bin 6 (32..=63).
        assert_eq!(h.quantile(0.5), 63);
        // p99 is 99, inside bin 7 (64..=127) but capped at the true max.
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to the minimum");
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn rank_is_exact_past_f64_mantissa() {
        // (q * count as f64).ceil() rounds the product before the ceil:
        // 0.5 * ((1<<53)+1) rounds to 2^52 exactly, losing the +1.
        let count = (1u64 << 53) + 1;
        assert_eq!(rank_for(0.5, count), (1u64 << 52) + 1);
        assert_eq!(rank_for(0.5, u64::MAX), u64::MAX / 2 + 1);
        // For exactly-representable q (power-of-two denominator) and small
        // counts, the integer rank matches the naive f64 formula.
        for count in 1..=40u64 {
            for i in 0..=128u64 {
                let q = i as f64 / 128.0;
                let naive = ((q * count as f64).ceil() as u64).clamp(1, count);
                assert_eq!(rank_for(q, count), naive, "q={q} count={count}");
            }
        }
        // Degenerate inputs clamp instead of wrapping.
        assert_eq!(rank_for(0.0, 10), 1);
        assert_eq!(rank_for(-1.0, 10), 1);
        assert_eq!(rank_for(f64::NAN, 10), 1);
        assert_eq!(rank_for(1.0, 10), 10);
        assert_eq!(rank_for(2.0, 10), 10);
        assert_eq!(rank_for(f64::MIN_POSITIVE, u64::MAX), 1, "subnormal path");
    }

    #[test]
    fn sum_saturates_and_flags_overflow() {
        let mut h = Log2Hist::new();
        h.add(u64::MAX);
        assert!(!h.saturated);
        h.add(1);
        assert!(h.saturated);
        assert_eq!(h.sum(), u64::MAX, "sum pins at the ceiling");
        // Saturation propagates through merge, and the flag is exported.
        let mut m = Log2Hist::new();
        m.add(3);
        m.merge(&h);
        assert!(m.saturated);
        assert!(m.to_json().contains("\"sum_saturated\":true"));
    }

    #[test]
    fn json_is_valid_and_trimmed() {
        let mut h = Log2Hist::new();
        h.add(5);
        let s = h.to_json();
        assert!(fp_stats::json::validate(&s).is_ok(), "{s}");
        assert!(s.contains("\"bins\":[0,0,0,1]"), "{s}");
    }
}
