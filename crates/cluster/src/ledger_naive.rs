//! Reference (naive) resource ledger — the pre-index implementation.
//!
//! [`NaiveLedger`] is the original `BTreeMap`-of-deltas ledger whose every
//! query rescans the timeline from `base`. It is kept verbatim as the
//! *behavioral oracle* for the indexed [`ResourceLedger`](crate::ResourceLedger):
//! property tests drive both with identical operation sequences and demand
//! bit-identical answers. It is compiled only for this crate's tests.

use mlp_model::ResourceVector;
use mlp_sim::SimTime;
use std::collections::BTreeMap;

/// The original O(timeline) ledger: a `BTreeMap` of usage deltas, scanned
/// in full on every query.
#[derive(Debug, Clone)]
pub struct NaiveLedger {
    capacity: ResourceVector,
    /// Net usage change at each instant (µs key).
    deltas: BTreeMap<u64, ResourceVector>,
    /// Usage level before the first retained delta (maintained by pruning).
    base: ResourceVector,
}

impl NaiveLedger {
    /// Creates an empty ledger for a machine with the given capacity.
    pub fn new(capacity: ResourceVector) -> Self {
        NaiveLedger { capacity, deltas: BTreeMap::new(), base: ResourceVector::ZERO }
    }

    /// Adds a reservation of `amount` over `[from, to)`.
    pub fn reserve(&mut self, from: SimTime, to: SimTime, amount: ResourceVector) {
        assert!(from < to, "reservation window must be non-empty: {from} .. {to}");
        *self.deltas.entry(from.as_micros()).or_insert(ResourceVector::ZERO) += amount;
        *self.deltas.entry(to.as_micros()).or_insert(ResourceVector::ZERO) -= amount;
    }

    /// Removes a reservation previously added with identical arguments.
    pub fn unreserve(&mut self, from: SimTime, to: SimTime, amount: ResourceVector) {
        assert!(from < to, "reservation window must be non-empty");
        *self.deltas.entry(from.as_micros()).or_insert(ResourceVector::ZERO) -= amount;
        *self.deltas.entry(to.as_micros()).or_insert(ResourceVector::ZERO) += amount;
    }

    /// Planned usage at instant `t`: a full scan over the retained deltas.
    pub fn usage_at(&self, t: SimTime) -> ResourceVector {
        let mut usage = self.base;
        for (_, d) in self.deltas.range(..=t.as_micros()) {
            usage += *d;
        }
        usage
    }

    /// Component-wise peak planned usage over `[from, to)`.
    pub fn peak_usage(&self, from: SimTime, to: SimTime) -> ResourceVector {
        let mut usage = self.usage_at(from);
        let mut peak = usage;
        for (_, d) in self.deltas.range(from.as_micros() + 1..to.as_micros()) {
            usage += *d;
            peak = peak.max(&usage);
        }
        peak
    }

    /// Resources guaranteed free over the whole window `[from, to)`.
    pub fn available(&self, from: SimTime, to: SimTime) -> ResourceVector {
        (self.capacity - self.peak_usage(from, to).clamp_non_negative()).clamp_non_negative()
    }

    /// Whether `amount` fits on top of existing plans over `[from, to)`.
    pub fn fits(&self, from: SimTime, to: SimTime, amount: ResourceVector) -> bool {
        amount.fits_within(&self.available(from, to))
    }

    /// Forgets every reservation (machine crash).
    pub fn clear(&mut self) {
        self.deltas.clear();
        self.base = ResourceVector::ZERO;
    }

    /// Folds all deltas strictly before `t` into the base level.
    pub fn prune_before(&mut self, t: SimTime) {
        let cut = t.as_micros();
        let keys: Vec<u64> = self.deltas.range(..cut).map(|(&k, _)| k).collect();
        for k in keys {
            let d = self.deltas.remove(&k).unwrap();
            self.base += d;
        }
    }

    /// Number of retained timeline points.
    pub fn timeline_len(&self) -> usize {
        self.deltas.len()
    }

    /// Earliest instant within `[from, horizon)` at which `amount` fits for
    /// a duration of `dur` — a single left-to-right sweep over the
    /// piecewise-constant usage profile, O(timeline length) per call.
    pub fn earliest_fit(
        &self,
        from: SimTime,
        horizon: SimTime,
        dur: mlp_sim::SimDuration,
        amount: ResourceVector,
    ) -> Option<SimTime> {
        if dur.as_micros() == 0 {
            return Some(from);
        }
        if from >= horizon {
            return None;
        }
        let free_needed = amount;
        // Negative net usage (stale unreserve after a crash-time `clear`)
        // counts as zero, never as extra headroom.
        let fits_usage = |usage: &ResourceVector| {
            (free_needed + usage.clamp_non_negative()).fits_within(&self.capacity)
        };

        // Usage level entering `from`.
        let mut usage = self.usage_at(from);
        // `candidate` is the earliest start for which every segment since
        // `candidate` fits.
        let mut candidate = if fits_usage(&usage) { Some(from) } else { None };
        for (&k, d) in self.deltas.range(from.as_micros() + 1..) {
            let t = SimTime::from_micros(k);
            // Did a candidate window complete before this breakpoint?
            if let Some(c) = candidate {
                if t >= c + dur {
                    return Some(c);
                }
            }
            if t >= horizon {
                break;
            }
            usage += *d;
            if fits_usage(&usage) {
                candidate.get_or_insert(t);
            } else {
                candidate = None;
            }
        }
        // Tail: usage is constant beyond the last breakpoint.
        match candidate {
            Some(c) if c < horizon => Some(c),
            _ => None,
        }
    }
}
