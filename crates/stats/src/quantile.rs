//! Constant-memory online quantile estimation (the P² algorithm).
//!
//! [`Cdf`](crate::Cdf) stores every sample. For long-running summaries
//! that need *one* specific quantile (e.g. the per-class p99 the streaming
//! trace collector keeps), the P² algorithm of Jain & Chlamtac (1985)
//! maintains a five-marker estimate in O(1) memory and O(1) per
//! observation.

use serde::{Deserialize, Serialize};

/// Streaming estimator of a single quantile `q ∈ (0, 1)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the quantile curve).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Observations seen so far.
    count: usize,
    /// Non-finite samples skipped (NaN/±inf would poison the marker
    /// interpolation). Absent in estimators serialized before the field
    /// existed.
    #[serde(default)]
    skipped: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` (clamped into (0.001, 0.999)).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(0.001, 0.999);
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            skipped: 0,
        }
    }

    /// The tracked quantile.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of non-finite observations that were skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Adds one observation. Non-finite samples (NaN, ±inf) are skipped
    /// and counted: the parabolic marker adjustment assumes finite heights,
    /// and a single NaN would corrupt every later estimate — a latency
    /// monitor must survive a poisoned input instead.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.skipped += 1;
            return;
        }
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }

        // Find the cell k with heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        self.count += 1;

        // Adjust the three interior markers with parabolic interpolation.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_h = if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.heights[i] = new_h;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate; `None` before any observation. With fewer than 5
    /// observations the exact nearest-rank quantile of what was seen is
    /// returned.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut seen = self.heights[..n].to_vec();
                seen.sort_by(f64::total_cmp);
                let idx = ((self.q * n as f64).ceil() as usize).clamp(1, n) - 1;
                Some(seen[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_small_counts() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.record(10.0);
        assert_eq!(p.estimate(), Some(10.0));
        p.record(20.0);
        p.record(30.0);
        // Median of {10,20,30} = 20.
        assert_eq!(p.estimate(), Some(20.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        let d = Dist::Uniform { lo: 0.0, hi: 100.0 };
        for _ in 0..50_000 {
            p.record(d.sample(&mut rng));
        }
        let est = p.estimate().unwrap();
        assert!((est - 50.0).abs() < 2.0, "median estimate {est}");
    }

    #[test]
    fn p99_of_lognormal_stream() {
        let mut p = P2Quantile::new(0.99);
        let mut exact = crate::Cdf::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Dist::lognormal_mean_cv(50.0, 0.4);
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            p.record(x);
            exact.record(x);
        }
        let est = p.estimate().unwrap();
        let truth = exact.percentile(99.0).unwrap();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.05, "p99 estimate {est} vs exact {truth} ({rel:.3} rel err)");
    }

    #[test]
    fn monotone_input_is_tracked() {
        let mut p = P2Quantile::new(0.9);
        for i in 1..=1000 {
            p.record(i as f64);
        }
        let est = p.estimate().unwrap();
        assert!((850.0..=950.0).contains(&est), "p90 of 1..=1000 ≈ 900, got {est}");
    }

    #[test]
    fn non_finite_samples_are_skipped_not_fatal() {
        let mut p = P2Quantile::new(0.5);
        // Below 5 samples: a NaN must not land in the marker array.
        p.record(f64::NAN);
        assert_eq!(p.count(), 0);
        assert_eq!(p.estimate(), None);
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            p.record(x);
        }
        // At exactly 5 the marker sort runs; the earlier NaN must not
        // have reached it, and later non-finite samples are ignored too.
        p.record(f64::NAN);
        p.record(f64::INFINITY);
        p.record(f64::NEG_INFINITY);
        assert_eq!(p.count(), 5);
        assert_eq!(p.skipped(), 4);
        assert_eq!(p.estimate(), Some(30.0));
        // The estimator still works on further finite input.
        for x in [25.0, 35.0, 28.0, 32.0] {
            p.record(x);
        }
        let est = p.estimate().unwrap();
        assert!(est.is_finite() && (10.0..=50.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn extreme_quantiles_clamped() {
        let p = P2Quantile::new(0.0);
        assert!(p.q() > 0.0);
        let p = P2Quantile::new(1.0);
        assert!(p.q() < 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The estimate always lies within the observed range.
        #[test]
        fn estimate_within_range(xs in prop::collection::vec(-1e6f64..1e6, 5..400),
                                 q in 0.05f64..0.95) {
            let mut p = P2Quantile::new(q);
            for &x in &xs { p.record(x); }
            let est = p.estimate().unwrap();
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9,
                "estimate {est} outside [{lo}, {hi}]");
        }
    }
}
