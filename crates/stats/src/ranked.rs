//! An incrementally maintained order-statistic multiset over `f64` samples.
//!
//! [`Cdf`](crate::Cdf) answers quantile queries by sorting a full copy of
//! the sample set on every call — fine for one-shot summaries, quadratic
//! when a caller re-queries after every insertion (the profile store's
//! banded-Δt path does exactly that). `RankedSamples` keeps the samples
//! *always sorted* under [`f64::total_cmp`] so that
//!
//! * `insert` / `remove_one` cost `O(√n)` amortized, and
//! * `select(k)` (the k-th smallest) costs `O(#buckets)` ≈ `O(√n)`,
//!
//! while remaining **bit-identical** to the sort-then-index answer: the
//! comparator is the same total order, and equal-comparing `f64`s have
//! identical bit patterns under `total_cmp` (it is a total order on the
//! bit representation), so *which* duplicate a query lands on cannot
//! change the returned bits.
//!
//! The structure is a classic two-level "bucketed sorted list": a `Vec`
//! of sorted buckets, each holding at most `2 * B` samples; a bucket that
//! overflows splits in half, and an emptied bucket is dropped. Locating a
//! bucket binary-searches the per-bucket maxima; locating a position
//! within a bucket binary-searches the bucket.

/// Target bucket width. Buckets split at `2 * B`; with `B = 512` a
/// million samples sit in ~2k buckets of ~700 elements, so both the
/// bucket scan and the in-bucket memmove stay comfortably in cache.
const B: usize = 512;

/// A multiset of `f64` samples ordered by [`f64::total_cmp`], supporting
/// insertion, removal of one occurrence, and k-th order statistics.
#[derive(Debug, Clone, Default)]
pub struct RankedSamples {
    /// Sorted buckets; globally ordered (every element of bucket `i` is
    /// `<=` every element of bucket `i + 1` under `total_cmp`).
    buckets: Vec<Vec<f64>>,
    len: usize,
}

impl RankedSamples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the bucket that should receive `x`: the first bucket whose
    /// maximum is `>=` x, or the last bucket if every maximum is smaller.
    fn bucket_for(&self, x: f64) -> usize {
        let by_max =
            self.buckets.partition_point(|b| b.last().is_none_or(|&m| m.total_cmp(&x).is_lt()));
        by_max.min(self.buckets.len().saturating_sub(1))
    }

    /// Inserts one occurrence of `x` (NaNs included — `total_cmp` orders
    /// them after infinities, matching `Cdf`'s sort).
    pub fn insert(&mut self, x: f64) {
        if self.buckets.is_empty() {
            self.buckets.push(vec![x]);
            self.len = 1;
            return;
        }
        let bi = self.bucket_for(x);
        let bucket = &mut self.buckets[bi];
        let pos = bucket.partition_point(|&v| v.total_cmp(&x).is_lt());
        bucket.insert(pos, x);
        self.len += 1;
        if bucket.len() >= 2 * B {
            let hi = bucket.split_off(bucket.len() / 2);
            self.buckets.insert(bi + 1, hi);
        }
    }

    /// Removes one occurrence of `x` (matched bitwise via `total_cmp`
    /// equality). Returns `false` if no such sample exists.
    pub fn remove_one(&mut self, x: f64) -> bool {
        if self.buckets.is_empty() {
            return false;
        }
        let bi = self.bucket_for(x);
        let bucket = &mut self.buckets[bi];
        let pos = bucket.partition_point(|&v| v.total_cmp(&x).is_lt());
        if pos >= bucket.len() || bucket[pos].total_cmp(&x).is_ne() {
            return false;
        }
        bucket.remove(pos);
        self.len -= 1;
        if bucket.is_empty() {
            self.buckets.remove(bi);
        }
        true
    }

    /// The `k`-th smallest sample (0-based) under `total_cmp`, or `None`
    /// if `k >= len`. Bit-identical to `sorted[k]` of the full sort.
    pub fn select(&self, k: usize) -> Option<f64> {
        if k >= self.len {
            return None;
        }
        let mut k = k;
        for bucket in &self.buckets {
            if k < bucket.len() {
                return Some(bucket[k]);
            }
            k -= bucket.len();
        }
        None
    }

    /// The smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.buckets.first().and_then(|b| b.first()).copied()
    }

    /// Iterates the samples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buckets.iter().flat_map(|b| b.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;

    fn ranked(samples: &[f64]) -> RankedSamples {
        let mut r = RankedSamples::new();
        samples.iter().for_each(|&x| r.insert(x));
        r
    }

    /// The reference answer: full sort by `total_cmp`, index `k`.
    fn reference_select(samples: &[f64], k: usize) -> Option<f64> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        s.get(k).copied()
    }

    #[test]
    fn empty_behaves() {
        let mut r = RankedSamples::new();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.select(0), None);
        assert_eq!(r.min(), None);
        assert!(!r.remove_one(1.0));
    }

    #[test]
    fn insert_select_matches_sort() {
        let samples = [5.0, 1.0, 3.0, 3.0, -2.0, 0.0, 3.0, 100.0, -0.0, 0.0];
        let mut r = RankedSamples::new();
        for &s in &samples {
            r.insert(s);
        }
        for k in 0..samples.len() {
            let got = r.select(k).unwrap();
            let want = reference_select(&samples, k).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "k={k}");
        }
        assert_eq!(r.min().unwrap().to_bits(), (-2.0f64).to_bits());
    }

    #[test]
    fn negative_zero_orders_before_positive_zero() {
        // total_cmp puts -0.0 before +0.0; the index must preserve that
        // so duplicates resolve to the same bits as the full sort.
        let samples = [0.0, -0.0, 0.0, -0.0];
        let r = ranked(&samples);
        assert_eq!(r.select(0).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.select(1).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.select(2).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_sorts_last_like_cdf() {
        let samples = [f64::NAN, 1.0, f64::INFINITY, -1.0];
        let mut r = RankedSamples::new();
        for &s in &samples {
            r.insert(s);
        }
        assert_eq!(r.select(0), Some(-1.0));
        assert_eq!(r.select(2), Some(f64::INFINITY));
        assert!(r.select(3).unwrap().is_nan());
        assert!(r.remove_one(f64::NAN));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn remove_one_removes_exactly_one_duplicate() {
        let mut r = ranked(&[2.0, 2.0, 2.0, 1.0]);
        assert!(r.remove_one(2.0));
        assert_eq!(r.len(), 3);
        assert_eq!(r.select(1), Some(2.0));
        assert_eq!(r.select(2), Some(2.0));
        assert!(!r.remove_one(7.0));
    }

    #[test]
    fn bucket_splits_keep_global_order() {
        // Enough ascending + descending interleaved inserts to force
        // several splits.
        let mut r = RankedSamples::new();
        let mut all = Vec::new();
        for i in 0..(6 * B) {
            let x = if i % 2 == 0 { i as f64 } else { -(i as f64) };
            r.insert(x);
            all.push(x);
        }
        assert_eq!(r.len(), all.len());
        all.sort_by(f64::total_cmp);
        let collected: Vec<f64> = r.iter().collect();
        assert_eq!(collected, all);
        for bucket in &r.buckets {
            assert!(bucket.len() < 2 * B);
            assert!(!bucket.is_empty());
        }
    }

    #[test]
    fn matches_cdf_quantile_formula() {
        // End-to-end check against the Cdf the profile store uses: the
        // banded Δt answer is sorted[idx] with idx from Cdf::quantile over
        // the truncated prefix — reproduce it via select() and compare
        // bits on an awkward sample set (duplicates, negatives, zeros).
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 / 7.0 - 5.0).collect();
        let r = ranked(&samples);
        for &(x_percent, q) in &[(100.0, 0.5), (95.0, 0.99), (37.5, 0.9), (1.0, 0.5), (0.0, 0.99)] {
            let mut cdf = Cdf::from_samples(samples.clone());
            let mut truncated = cdf.truncate_fastest(x_percent);
            let want = truncated.quantile(q).unwrap();
            // Same arithmetic as the Cdf path.
            let n = samples.len();
            let keep = (((x_percent / 100.0) * n as f64).ceil() as usize).clamp(1.min(n), n);
            let idx = (((q * keep as f64).ceil() as usize).max(1) - 1).min(keep - 1);
            let got = r.select(idx).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "x={x_percent} q={q}");
        }
    }

    #[test]
    fn randomized_against_reference() {
        // Deterministic xorshift program of interleaved inserts/removes;
        // after every op a few selects must match the full-sort reference.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut r = RankedSamples::new();
        let mut shadow: Vec<f64> = Vec::new();
        for step in 0..4000 {
            let roll = next();
            if roll % 4 == 0 && !shadow.is_empty() {
                let i = (roll as usize / 4) % shadow.len();
                let x = shadow.swap_remove(i);
                assert!(r.remove_one(x), "step {step}: remove {x}");
            } else {
                // Small value domain to force many exact duplicates.
                let x = ((roll % 64) as f64) / 8.0 - 2.0;
                r.insert(x);
                shadow.push(x);
            }
            assert_eq!(r.len(), shadow.len());
            if step % 97 == 0 {
                for k in [0, shadow.len() / 3, shadow.len().saturating_sub(1)] {
                    let got = r.select(k).map(f64::to_bits);
                    let want = reference_select(&shadow, k).map(f64::to_bits);
                    assert_eq!(got, want, "step {step} k={k}");
                }
            }
        }
    }
}
