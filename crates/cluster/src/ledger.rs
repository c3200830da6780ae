//! Future-resource reservation ledger.
//!
//! Algorithm 1 assigns a microservice to a machine only if, over the whole
//! planned window `[t, t+Δt]`, the machine's remaining resources cover the
//! service's demand (`l_res ≥ u_res`). That requires *looking into the
//! planned future* of each machine, which this ledger provides: a timeline
//! of reservation deltas supporting window-peak queries.
//!
//! # Indexed step-function profile
//!
//! The ledger is stored as a sorted segment array of `(time, delta)` pairs
//! plus an incrementally maintained *prefix profile*: `prefix[i]` is the
//! usage level in force on `[times[i], times[i+1])`. Writes rebuild the
//! prefix from the lowest modified index using the exact left-to-right
//! fold `prefix[i] = prefix[i-1] + delta[i]` (identical float-addition
//! order to a naive rescan from `base`, so every query answer is
//! bit-identical to the test-only reference `NaiveLedger`).
//! On top of the profile sit coarse-bucket component-wise min/max
//! summaries (`BUCKET` levels per bucket) and a cached whole-timeline
//! minimum level:
//!
//! * [`usage_at`](ResourceLedger::usage_at) — one lookup, O(log d) (see
//!   below; at most O(log n)).
//! * [`peak_usage`](ResourceLedger::peak_usage) /
//!   [`available`](ResourceLedger::available) /
//!   [`available_if_fits`](ResourceLedger::available_if_fits) /
//!   [`fits`](ResourceLedger::fits) — one lookup for the window's start,
//!   then a forward scan to its end that folds whole buckets in through
//!   their maxima, O(log d + BUCKET + n/BUCKET).
//! * [`earliest_fit`](ResourceLedger::earliest_fit) — one lookup, then
//!   walks only the fit/unfit run boundaries inside the window, skipping
//!   whole buckets via the cached maxima/minima, and gives up at the
//!   caller's *latest useful start*.
//! * [`might_fit`](ResourceLedger::might_fit) — O(1) conservative
//!   pre-filter for placement: `false` guarantees no window anywhere in
//!   the retained future fits `amount`, letting the placement loop prune
//!   machines without touching the timeline. The cached minimum is
//!   invalidated (recomputed) only on ledger writes and crashes.
//!
//! **Lookup rule.** Every query starts by finding the first breakpoint
//! strictly after its start instant. The ledger remembers where the last
//! lookup landed and gallops from there (steps of 1, 2, 4, … toward the
//! answer, then a binary search inside the bracket), so a lookup `d`
//! entries from the previous one costs O(log d): a round's probes of one
//! machine ask about nearby instants. The remembered index is only a
//! starting point — any value, however stale, gives the same answer — so
//! no write has to maintain it. Window ends are never searched for: the
//! scan that folds the window's levels stops at the first breakpoint at
//! or past the end, and a bucket is folded whole only when its last
//! breakpoint lies inside the window.
//!
//! Writes stay O(n) worst-case (array insert + suffix rebuild), but the
//! admission loop issues orders of magnitude more queries than writes,
//! which is exactly the balance this layout optimizes for. Placement
//! (`mlp_sched::placement::earliest_slot`) asks each machine of a shard
//! *one* window-peak question per DAG node —
//! [`available_if_fits`](ResourceLedger::available_if_fits) at the node's
//! ready time, which settles both "can it start now" and the worst-fit
//! headroom score. Only when no machine can start the node at its ready
//! time does it walk timelines with
//! [`earliest_fit`](ResourceLedger::earliest_fit), each walk bounded by the
//! best slot found so far, so a saturated timeline is abandoned as soon as
//! it cannot win. Neither caches an answer (only the lookup's starting
//! point carries over): an earlier epoch-validated probe memo measured 0
//! hits in 64 M probes (a round never asks the same question twice) and
//! was deleted.

use mlp_model::ResourceVector;
use mlp_sim::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Number of profile levels summarized per min/max bucket.
///
/// Queries cost O(BUCKET + n/BUCKET) after the binary search; 64 keeps
/// both terms small for the timeline lengths the simulation produces
/// (hundreds to a few thousand points under load) while the summaries
/// stay cheap to rebuild on writes.
const BUCKET: usize = 64;

/// Global (process-wide) counters over ledger operations, read by the
/// benchmark's per-layer `cluster.ledger.*_per_req` rows to report how
/// query-heavy a run is.
/// Disabled by default: when off, the only cost on the query path is one
/// relaxed load of a read-only flag.
pub mod query_stats {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static USAGE_AT: AtomicU64 = AtomicU64::new(0);
    static PEAK_USAGE: AtomicU64 = AtomicU64::new(0);
    static EARLIEST_FIT: AtomicU64 = AtomicU64::new(0);
    static WRITES: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the ledger operation counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct LedgerQueryStats {
        /// `usage_at` calls.
        pub usage_at: u64,
        /// `peak_usage` calls (including via `available`/`fits`).
        pub peak_usage: u64,
        /// `earliest_fit` calls.
        pub earliest_fit: u64,
        /// `reserve` + `unreserve` calls.
        pub writes: u64,
    }

    /// Turns counting on or off (off by default).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Relaxed);
    }

    /// Zeroes all counters.
    pub fn reset() {
        USAGE_AT.store(0, Relaxed);
        PEAK_USAGE.store(0, Relaxed);
        EARLIEST_FIT.store(0, Relaxed);
        WRITES.store(0, Relaxed);
    }

    /// Reads all counters.
    pub fn snapshot() -> LedgerQueryStats {
        LedgerQueryStats {
            usage_at: USAGE_AT.load(Relaxed),
            peak_usage: PEAK_USAGE.load(Relaxed),
            earliest_fit: EARLIEST_FIT.load(Relaxed),
            writes: WRITES.load(Relaxed),
        }
    }

    #[inline]
    pub(super) fn count(counter: Counter) {
        if ENABLED.load(Relaxed) {
            let c = match counter {
                Counter::UsageAt => &USAGE_AT,
                Counter::PeakUsage => &PEAK_USAGE,
                Counter::EarliestFit => &EARLIEST_FIT,
                Counter::Write => &WRITES,
            };
            c.fetch_add(1, Relaxed);
        }
    }

    #[derive(Clone, Copy)]
    pub(super) enum Counter {
        UsageAt,
        PeakUsage,
        EarliestFit,
        Write,
    }
}

use query_stats::Counter;

/// A per-machine timeline of planned resource occupancy.
///
/// Reservations are half-open intervals `[from, to)`. Queries report the
/// component-wise *peak* usage over a window, so a fit check is exact
/// regardless of how reservations overlap. See the module docs for the
/// index layout and complexity bounds.
#[derive(Debug)]
pub struct ResourceLedger {
    capacity: ResourceVector,
    /// Usage level before the first retained breakpoint (maintained by
    /// pruning).
    base: ResourceVector,
    /// Sorted breakpoint instants (µs).
    times: Vec<u64>,
    /// Net usage change at each breakpoint, aligned with `times`.
    deltas: Vec<ResourceVector>,
    /// Usage level in force from `times[i]` (inclusive) to the next
    /// breakpoint: the left-to-right prefix fold of `base` and `deltas`.
    prefix: Vec<ResourceVector>,
    /// Component-wise max of `prefix` per [`BUCKET`]-sized chunk.
    bucket_max: Vec<ResourceVector>,
    /// Component-wise min of `prefix` per [`BUCKET`]-sized chunk.
    bucket_min: Vec<ResourceVector>,
    /// Component-wise min over `base` and every prefix level — the lowest
    /// usage the retained future ever reaches. Drives [`might_fit`].
    ///
    /// [`might_fit`]: ResourceLedger::might_fit
    min_level: ResourceVector,
    /// Where the last [`after`](ResourceLedger::after) lookup landed: the
    /// start of the next one's gallop. A start position only, never an
    /// answer — any value (stale, or past the end after a prune) yields
    /// the same index. Atomic so `&self` queries can move it while
    /// `Machine` stays `Sync`.
    hint: AtomicUsize,
}

impl Clone for ResourceLedger {
    fn clone(&self) -> Self {
        ResourceLedger {
            capacity: self.capacity,
            base: self.base,
            times: self.times.clone(),
            deltas: self.deltas.clone(),
            prefix: self.prefix.clone(),
            bucket_max: self.bucket_max.clone(),
            bucket_min: self.bucket_min.clone(),
            min_level: self.min_level,
            hint: AtomicUsize::new(self.hint.load(Relaxed)),
        }
    }
}

impl ResourceLedger {
    /// Creates an empty ledger for a machine with the given capacity.
    pub fn new(capacity: ResourceVector) -> Self {
        ResourceLedger {
            capacity,
            base: ResourceVector::ZERO,
            times: Vec::new(),
            deltas: Vec::new(),
            prefix: Vec::new(),
            bucket_max: Vec::new(),
            bucket_min: Vec::new(),
            min_level: ResourceVector::ZERO,
            hint: AtomicUsize::new(0),
        }
    }

    /// Machine capacity.
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }

    /// Inserts (or accumulates into) the delta at instant `t` and returns
    /// the index it lives at. Does *not* rebuild the prefix.
    fn upsert_delta(&mut self, t: u64, amount: ResourceVector, add: bool) -> usize {
        let idx = self.times.partition_point(|&x| x < t);
        if idx == self.times.len() || self.times[idx] != t {
            self.times.insert(idx, t);
            self.deltas.insert(idx, ResourceVector::ZERO);
            // Placeholder; overwritten by the rebuild.
            self.prefix.insert(idx, ResourceVector::ZERO);
        }
        if add {
            self.deltas[idx] += amount;
        } else {
            self.deltas[idx] -= amount;
        }
        idx
    }

    /// Recomputes `prefix`, the bucket summaries, and `min_level` from
    /// index `idx` onward. The fold order matches a naive base-to-`t`
    /// rescan exactly, keeping answers bit-identical to the reference
    /// implementation.
    fn rebuild_from(&mut self, idx: usize) {
        let n = self.times.len();
        let mut acc = if idx == 0 { self.base } else { self.prefix[idx - 1] };
        for i in idx..n {
            acc += self.deltas[i];
            self.prefix[i] = acc;
        }
        let n_buckets = n.div_ceil(BUCKET);
        self.bucket_max.resize(n_buckets, ResourceVector::ZERO);
        self.bucket_min.resize(n_buckets, ResourceVector::ZERO);
        for b in idx / BUCKET..n_buckets {
            let lo = b * BUCKET;
            let hi = ((b + 1) * BUCKET).min(n);
            let mut mx = self.prefix[lo];
            let mut mn = self.prefix[lo];
            for level in &self.prefix[lo + 1..hi] {
                mx = mx.max(level);
                mn = mn.min(level);
            }
            self.bucket_max[b] = mx;
            self.bucket_min[b] = mn;
        }
        let mut min_level = self.base;
        for mn in &self.bucket_min {
            min_level = min_level.min(mn);
        }
        self.min_level = min_level;
    }

    /// Drops the breakpoint at `idx` if its delta cancelled to exactly
    /// zero. A zero delta cannot change any usage level (every reserved
    /// amount is non-negative, so exact cancellation yields `+0.0`, and
    /// `x + 0.0` is bitwise `x`), so removal leaves every query answer
    /// identical while keeping the timeline free of zombie points — the
    /// reserve-then-release churn of trims and plan rollbacks would
    /// otherwise grow it without bound between prunes.
    fn drop_if_zero(&mut self, idx: usize) {
        if self.deltas[idx] == ResourceVector::ZERO {
            self.times.remove(idx);
            self.deltas.remove(idx);
            self.prefix.remove(idx);
        }
    }

    /// Applies one reservation-shaped write (`±amount` at `from`,
    /// `∓amount` at `to`) and restores the index invariants.
    fn write(&mut self, from: SimTime, to: SimTime, amount: ResourceVector, add: bool) {
        query_stats::count(Counter::Write);
        let lo = self.upsert_delta(from.as_micros(), amount, add);
        let hi = self.upsert_delta(to.as_micros(), amount, !add);
        // `hi > lo` always (the keys are distinct and sorted); removing
        // `hi` first keeps `lo` stable.
        self.drop_if_zero(hi);
        self.drop_if_zero(lo);
        self.rebuild_from(lo.min(self.times.len()));
    }

    /// Adds a reservation of `amount` over `[from, to)`.
    ///
    /// # Panics
    /// Panics if `from >= to` (empty or inverted window).
    pub fn reserve(&mut self, from: SimTime, to: SimTime, amount: ResourceVector) {
        assert!(from < to, "reservation window must be non-empty: {from} .. {to}");
        self.write(from, to, amount, true);
    }

    /// Removes a reservation previously added with identical arguments.
    /// (Used when the self-healing module re-plans a late service.)
    pub fn unreserve(&mut self, from: SimTime, to: SimTime, amount: ResourceVector) {
        assert!(from < to, "reservation window must be non-empty");
        self.write(from, to, amount, false);
    }

    /// Index of the first breakpoint strictly after `t_us` — exactly
    /// `times.partition_point(|&x| x <= t_us)` — found by galloping from
    /// the last lookup's answer: exponential steps away from the hint
    /// until the answer is bracketed, then a binary search inside the
    /// bracket. Consecutive probes of one ledger land a few entries
    /// apart, so this costs O(log d) for a distance `d` instead of
    /// O(log n).
    fn after(&self, t_us: u64) -> usize {
        let times = &self.times;
        let n = times.len();
        let h = self.hint.load(Relaxed).min(n);
        let (lo, hi) = if h == 0 || times[h - 1] <= t_us {
            // Answer at or right of `h`: every `times[..lo]` is `<= t_us`.
            let mut lo = h;
            let mut step = 1;
            let hi = loop {
                let probe = lo + step - 1;
                if probe >= n {
                    break n;
                }
                if times[probe] > t_us {
                    break probe;
                }
                lo = probe + 1;
                step *= 2;
            };
            (lo, hi)
        } else {
            // Answer left of `h`: every `times[hi..]` is `> t_us`.
            let mut hi = h - 1;
            let mut step = 1;
            let lo = loop {
                if hi < step {
                    break 0;
                }
                let probe = hi - step;
                if times[probe] <= t_us {
                    break probe + 1;
                }
                hi = probe;
                step *= 2;
            };
            (lo, hi)
        };
        let idx = lo + times[lo..hi].partition_point(|&x| x <= t_us);
        self.hint.store(idx, Relaxed);
        idx
    }

    /// Usage level in force at instant `t` (index into the profile).
    #[inline]
    fn level_at(&self, t_us: u64) -> ResourceVector {
        let idx = self.after(t_us);
        if idx == 0 {
            self.base
        } else {
            self.prefix[idx - 1]
        }
    }

    /// Planned usage at instant `t`. O(log n).
    pub fn usage_at(&self, t: SimTime) -> ResourceVector {
        query_stats::count(Counter::UsageAt);
        self.level_at(t.as_micros())
    }

    /// Component-wise peak planned usage over `[from, to)`.
    /// O(log d + BUCKET + n/BUCKET) via the bucket maxima.
    pub fn peak_usage(&self, from: SimTime, to: SimTime) -> ResourceVector {
        query_stats::count(Counter::PeakUsage);
        // Breakpoints strictly inside (from, to): same key range the
        // reference scan visits (`from+1 ..= to-1` on µs keys). `lo` is
        // also exactly the index `level_at(from)` looks up, so the level
        // in force at `from` falls out of the same lookup. The window's
        // end is found by scanning forward, not searched for.
        let lo = self.after(from.as_micros());
        let mut peak = if lo == 0 { self.base } else { self.prefix[lo - 1] };
        let (times, to) = (&self.times, to.as_micros());
        let mut i = lo;
        while i < times.len() && times[i] < to {
            // A whole bucket folds in through its maximum only when its
            // last breakpoint still lies inside the window.
            if i.is_multiple_of(BUCKET) && i + BUCKET <= times.len() && times[i + BUCKET - 1] < to {
                peak = peak.max(&self.bucket_max[i / BUCKET]);
                i += BUCKET;
            } else {
                peak = peak.max(&self.prefix[i]);
                i += 1;
            }
        }
        peak
    }

    /// Resources guaranteed free over the whole window `[from, to)`.
    ///
    /// Peak usage is clamped at zero before subtracting: after a crash
    /// wipes the ledger, a straggling `unreserve` for a pre-crash window
    /// can leave net-negative deltas, and those must not inflate
    /// availability beyond capacity.
    pub fn available(&self, from: SimTime, to: SimTime) -> ResourceVector {
        (self.capacity - self.peak_usage(from, to).clamp_non_negative()).clamp_non_negative()
    }

    /// Whether `amount` fits on top of existing plans over `[from, to)`.
    pub fn fits(&self, from: SimTime, to: SimTime, amount: ResourceVector) -> bool {
        amount.fits_within(&self.available(from, to))
    }

    /// The admission test every placement query shares: whether `amount`
    /// fits on top of a planned usage level. Negative net usage (a stale
    /// `unreserve` after a crash-time `clear`) counts as zero, never as
    /// extra headroom.
    #[inline]
    fn admits(&self, amount: ResourceVector, usage: &ResourceVector) -> bool {
        (amount + usage.clamp_non_negative()).fits_within(&self.capacity)
    }

    /// [`available`](ResourceLedger::available) over `[from, to)` if
    /// `amount` can be admitted on top of existing plans for that whole
    /// window, `None` otherwise — both from one window-peak query.
    ///
    /// The admission test is [`earliest_fit`](ResourceLedger::earliest_fit)'s
    /// own arithmetic applied to the component-wise peak (each component's
    /// test is monotone in that component alone, so the peak fits exactly
    /// when every level in the window does). For `to > from` and
    /// `to <= horizon` this is therefore `Some` exactly when
    /// `earliest_fit(from, horizon, to - from, amount, _)` answers `from`.
    pub fn available_if_fits(
        &self,
        from: SimTime,
        to: SimTime,
        amount: ResourceVector,
    ) -> Option<ResourceVector> {
        let peak = self.peak_usage(from, to);
        self.admits(amount, &peak)
            .then(|| (self.capacity - peak.clamp_non_negative()).clamp_non_negative())
    }

    /// Conservative O(1) availability hint: whether `amount` could fit in
    /// *some* window of the retained future. `false` is definitive — the
    /// usage level never drops low enough anywhere on the timeline, so
    /// every [`fits`](ResourceLedger::fits) /
    /// [`earliest_fit`](ResourceLedger::earliest_fit) probe of non-zero
    /// duration for `amount` (or more) is guaranteed to fail and the
    /// machine can be skipped without touching the timeline. `true` only means "worth probing":
    /// the cached minimum is component-wise, so simultaneous fit is not
    /// implied.
    pub fn might_fit(&self, amount: ResourceVector) -> bool {
        // Exactly the admission test's arithmetic, applied to the lowest
        // level the profile reaches (monotonicity makes it conservative).
        self.admits(amount, &self.min_level)
    }

    /// Forgets every reservation. Used when a machine crashes: the work
    /// planned on it is void, and pre-crash reservations must not shadow
    /// the recovered (empty) machine.
    pub fn clear(&mut self) {
        self.times.clear();
        self.deltas.clear();
        self.prefix.clear();
        self.bucket_max.clear();
        self.bucket_min.clear();
        self.base = ResourceVector::ZERO;
        self.min_level = ResourceVector::ZERO;
    }

    /// Folds all deltas strictly before `t` into the base level, bounding
    /// memory over long runs. Queries for instants `>= t` are unaffected.
    pub fn prune_before(&mut self, t: SimTime) {
        let cut = self.times.partition_point(|&x| x < t.as_micros());
        if cut == 0 {
            return;
        }
        // Ascending fold into base — the same addition order a naive
        // rescan would have used, so retained levels are unchanged.
        for d in &self.deltas[..cut] {
            self.base += *d;
        }
        self.times.drain(..cut);
        self.deltas.drain(..cut);
        self.prefix.drain(..cut);
        self.rebuild_from(0);
    }

    /// Number of retained timeline points (diagnostics).
    pub fn timeline_len(&self) -> usize {
        self.times.len()
    }

    /// Earliest instant within `[from, horizon)` at which `amount` fits for
    /// a duration of `dur`. Returns `None` when no slot exists before
    /// `horizon`. This powers the "best effort" machine traversal of
    /// Algorithm 1 and the delay-slot search of the self-healing module.
    ///
    /// `latest` is the caller's *latest useful start*: with `Some(t)` the
    /// answer is the unbounded one when that is `<= t` and `None`
    /// otherwise, and the walk stops at `t` instead of the horizon — a
    /// placement scan passes the best slot another machine already
    /// offers. `None` searches the whole horizon.
    ///
    /// Walks the fit/unfit run boundaries of the piecewise-constant usage
    /// profile, skipping whole buckets through the cached maxima (while a
    /// candidate run is open) and minima (while searching for the next
    /// feasible level). Matches the reference left-to-right sweep answer
    /// for answer.
    pub fn earliest_fit(
        &self,
        from: SimTime,
        horizon: SimTime,
        dur: mlp_sim::SimDuration,
        amount: ResourceVector,
        latest: Option<SimTime>,
    ) -> Option<SimTime> {
        query_stats::count(Counter::EarliestFit);
        if latest.is_some_and(|t| from > t) {
            return None;
        }
        if dur.as_micros() == 0 {
            return Some(from);
        }
        if from >= horizon {
            return None;
        }
        let fits_usage = |usage: &ResourceVector| self.admits(amount, usage);

        let h = horizon.as_micros();
        // Exclusive limit on where a new candidate run may open: starts
        // lie before the horizon and at or before `latest`.
        let start_limit = latest.map_or(h, |t| h.min(t.as_micros().saturating_add(1)));
        // First breakpoint strictly after `from`; the level entering
        // `from` is the profile value just before it.
        let start = self.after(from.as_micros());
        let entry = if start == 0 { self.base } else { self.prefix[start - 1] };
        // `candidate` is the earliest start instant whose fit-run is still
        // open; it survives unless a non-fitting breakpoint appears before
        // both `candidate + dur` and the horizon (breakpoints at or past
        // the horizon are never examined, matching the reference sweep).
        let mut candidate: Option<u64> =
            if fits_usage(&entry) { Some(from.as_micros()) } else { None };
        let mut i = start;
        loop {
            match candidate {
                Some(c) => {
                    let limit = h.min(c.saturating_add(dur.as_micros()));
                    match self.first_unfit(i, limit, &fits_usage) {
                        None => return Some(SimTime::from_micros(c)),
                        Some(j) => {
                            candidate = None;
                            i = j + 1;
                        }
                    }
                }
                None => match self.first_fit(i, start_limit, &fits_usage) {
                    None => return None,
                    Some(j) => {
                        candidate = Some(self.times[j]);
                        i = j + 1;
                    }
                },
            }
        }
    }

    /// First index `j >= i` with `times[j] < limit` whose level does not
    /// fit. Skips whole buckets whose component-wise max fits (then every
    /// level inside fits).
    fn first_unfit(
        &self,
        i: usize,
        limit: u64,
        fits: &impl Fn(&ResourceVector) -> bool,
    ) -> Option<usize> {
        let times = &self.times;
        let mut j = i;
        while j < times.len() && times[j] < limit {
            if j.is_multiple_of(BUCKET) {
                let b = j / BUCKET;
                if fits(&self.bucket_max[b]) {
                    j = (b + 1) * BUCKET;
                    continue;
                }
            }
            if !fits(&self.prefix[j]) {
                return Some(j);
            }
            j += 1;
        }
        None
    }

    /// Cross-checks every index invariant against a from-scratch rebuild
    /// and returns the first discrepancy found, if any. Used by the
    /// engine's invariant auditor; O(n), so only called when auditing is
    /// enabled.
    ///
    /// Checks, in order: `times` strictly sorted; `times`/`deltas`/`prefix`
    /// aligned; `prefix` bit-identical to the left-to-right fold of `base`
    /// and `deltas` (the fold order every incremental rebuild uses);
    /// bucket min/max summaries matching their chunks; and `min_level`
    /// equal to the component-wise min over `base` and all levels.
    pub fn check_consistency(&self) -> Result<(), String> {
        let n = self.times.len();
        if self.deltas.len() != n || self.prefix.len() != n {
            return Err(format!(
                "misaligned arrays: {} times, {} deltas, {} prefix",
                n,
                self.deltas.len(),
                self.prefix.len()
            ));
        }
        for w in self.times.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("times not strictly sorted: {} then {}", w[0], w[1]));
            }
        }
        let mut acc = self.base;
        for i in 0..n {
            acc += self.deltas[i];
            if self.prefix[i] != acc {
                return Err(format!("prefix[{i}] = {:?} but fold gives {:?}", self.prefix[i], acc));
            }
        }
        let n_buckets = n.div_ceil(BUCKET);
        if self.bucket_max.len() != n_buckets || self.bucket_min.len() != n_buckets {
            return Err(format!(
                "bucket summaries sized {}/{}, expected {n_buckets}",
                self.bucket_max.len(),
                self.bucket_min.len()
            ));
        }
        let mut min_level = self.base;
        for b in 0..n_buckets {
            let lo = b * BUCKET;
            let hi = ((b + 1) * BUCKET).min(n);
            let mut mx = self.prefix[lo];
            let mut mn = self.prefix[lo];
            for level in &self.prefix[lo + 1..hi] {
                mx = mx.max(level);
                mn = mn.min(level);
            }
            if self.bucket_max[b] != mx {
                return Err(format!("bucket_max[{b}] = {:?}, expected {mx:?}", self.bucket_max[b]));
            }
            if self.bucket_min[b] != mn {
                return Err(format!("bucket_min[{b}] = {:?}, expected {mn:?}", self.bucket_min[b]));
            }
            min_level = min_level.min(&mn);
        }
        if self.min_level != min_level {
            return Err(format!("min_level = {:?}, expected {min_level:?}", self.min_level));
        }
        Ok(())
    }

    /// First index `j >= i` with `times[j] < limit` whose level fits.
    /// Skips whole buckets whose component-wise min already fails on some
    /// component (then every level inside fails on that component).
    fn first_fit(
        &self,
        i: usize,
        limit: u64,
        fits: &impl Fn(&ResourceVector) -> bool,
    ) -> Option<usize> {
        let times = &self.times;
        let mut j = i;
        while j < times.len() && times[j] < limit {
            if j.is_multiple_of(BUCKET) {
                let b = j / BUCKET;
                if !fits(&self.bucket_min[b]) {
                    j = (b + 1) * BUCKET;
                    continue;
                }
            }
            if fits(&self.prefix[j]) {
                return Some(j);
            }
            j += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_sim::SimDuration;

    fn rv(c: f64) -> ResourceVector {
        ResourceVector::new(c, c * 100.0, c * 10.0)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_ledger_is_fully_available() {
        let l = ResourceLedger::new(rv(4.0));
        assert_eq!(l.usage_at(t(0)), ResourceVector::ZERO);
        assert_eq!(l.available(t(0), t(100)), rv(4.0));
        assert!(l.fits(t(0), t(100), rv(4.0)));
        assert!(!l.fits(t(0), t(100), rv(4.1)));
    }

    #[test]
    fn reservation_blocks_window_only() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(10), t(20), rv(3.0));
        assert!(l.fits(t(0), t(10), rv(4.0)), "before the window");
        assert!(l.fits(t(20), t(30), rv(4.0)), "after the window (half-open)");
        assert!(l.fits(t(10), t(20), rv(1.0)));
        assert!(!l.fits(t(10), t(20), rv(1.1)));
        assert!(!l.fits(t(5), t(15), rv(2.0)), "overlap at the front");
        assert!(!l.fits(t(15), t(25), rv(2.0)), "overlap at the back");
    }

    #[test]
    fn overlapping_reservations_accumulate() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(0), t(20), rv(1.5));
        l.reserve(t(10), t(30), rv(1.5));
        assert_eq!(l.usage_at(t(15)), rv(3.0));
        assert_eq!(l.usage_at(t(5)), rv(1.5));
        assert_eq!(l.usage_at(t(25)), rv(1.5));
        assert!(!l.fits(t(12), t(18), rv(1.5)));
        assert!(l.fits(t(12), t(18), rv(1.0)));
    }

    #[test]
    fn unreserve_restores_availability() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(10), t(20), rv(3.0));
        l.unreserve(t(10), t(20), rv(3.0));
        assert!(l.fits(t(10), t(20), rv(4.0)));
        assert_eq!(l.usage_at(t(15)), ResourceVector::ZERO);
    }

    #[test]
    fn consistency_check_passes_through_churn_and_catches_corruption() {
        let mut l = ResourceLedger::new(rv(8.0));
        assert_eq!(l.check_consistency(), Ok(()));
        // Enough churn to exercise inserts, cancellations, and pruning
        // across more than one summary bucket.
        for i in 0..200u64 {
            l.reserve(t(i * 3), t(i * 3 + 10), rv(0.25));
        }
        for i in 0..50u64 {
            l.unreserve(t(i * 3), t(i * 3 + 10), rv(0.25));
        }
        l.prune_before(t(120));
        assert_eq!(l.check_consistency(), Ok(()));
        // Corrupt one cached level; the check must name it.
        let mid = l.prefix.len() / 2;
        l.prefix[mid] += rv(1.0);
        assert!(l.check_consistency().is_err());
    }

    #[test]
    fn peak_usage_sees_interior_spikes() {
        let mut l = ResourceLedger::new(rv(10.0));
        l.reserve(t(10), t(12), rv(8.0)); // short spike inside the window
        let peak = l.peak_usage(t(0), t(100));
        assert_eq!(peak, rv(8.0));
        assert!(!l.fits(t(0), t(100), rv(3.0)));
    }

    #[test]
    fn prune_preserves_future_queries() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(0), t(50), rv(1.0));
        l.reserve(t(10), t(60), rv(2.0));
        let before = l.usage_at(t(40));
        l.prune_before(t(30));
        assert_eq!(l.usage_at(t(40)), before);
        assert_eq!(l.usage_at(t(55)), rv(2.0));
        assert!(l.timeline_len() <= 2);
    }

    #[test]
    fn earliest_fit_finds_gap() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(0), t(30), rv(4.0)); // machine fully busy until 30ms
        let dur = SimDuration::from_millis(10);
        let slot = l.earliest_fit(t(0), t(1000), dur, rv(2.0), None);
        assert_eq!(slot, Some(t(30)));
        // A window that ends before the gap opens: no slot.
        assert_eq!(l.earliest_fit(t(0), t(30), dur, rv(2.0), None), None);
    }

    #[test]
    fn earliest_fit_skips_partial_gaps() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(0), t(10), rv(4.0));
        l.reserve(t(15), t(25), rv(4.0)); // 5ms gap at 10 is too short
        let dur = SimDuration::from_millis(10);
        assert_eq!(l.earliest_fit(t(0), t(1000), dur, rv(1.0), None), Some(t(25)));
    }

    #[test]
    fn clear_then_stale_unreserve_is_harmless() {
        let mut l = ResourceLedger::new(rv(4.0));
        l.reserve(t(10), t(20), rv(3.0));
        l.clear();
        assert_eq!(l.timeline_len(), 0);
        // A release for a pre-crash reservation arrives late: availability
        // must stay capped at capacity and slots must still be found sanely.
        l.unreserve(t(10), t(20), rv(3.0));
        assert_eq!(l.available(t(10), t(20)), rv(4.0));
        assert!(!l.fits(t(10), t(20), rv(4.1)));
        let slot = l.earliest_fit(t(0), t(100), SimDuration::from_millis(5), rv(4.0), None);
        assert_eq!(slot, Some(t(0)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let mut l = ResourceLedger::new(rv(1.0));
        l.reserve(t(5), t(5), rv(1.0));
    }

    #[test]
    fn might_fit_tracks_the_lowest_reachable_level() {
        let mut l = ResourceLedger::new(rv(4.0));
        assert!(l.might_fit(rv(4.0)));
        assert!(!l.might_fit(rv(4.1)), "over-capacity requests are pruned on an empty ledger");
        // A long reservation: the retained future still contains its end
        // breakpoint where the level returns to zero, so headroom stays
        // reachable (might_fit is conservative about *where*, not *whether*).
        l.reserve(t(10), t(1_000_000), rv(3.0));
        assert!(l.might_fit(rv(4.0)), "post-reservation tail keeps full headroom reachable");
        assert!(!l.might_fit(rv(4.1)));
        // Pruning folds the start into the base but keeps the future drop:
        // the hint must not get stuck at the 3.0 floor.
        l.prune_before(t(20));
        assert!(l.might_fit(rv(4.0)));
        assert!(l
            .earliest_fit(t(0), t(2_000_000), SimDuration::from_millis(1), rv(4.0), None)
            .is_some());
    }

    #[test]
    fn might_fit_never_contradicts_earliest_fit() {
        // Build a busy profile crossing several buckets and check the hint
        // against exhaustive earliest_fit probes.
        let mut l = ResourceLedger::new(rv(4.0));
        for i in 0..300u64 {
            l.reserve(t(i * 3), t(i * 3 + 5), rv(0.5 + (i % 5) as f64 * 0.3));
        }
        for amt in [0.5, 1.0, 2.0, 3.5, 4.0, 4.5] {
            let hint = l.might_fit(rv(amt));
            let slot = l.earliest_fit(t(0), t(10_000), SimDuration::from_millis(1), rv(amt), None);
            if !hint {
                assert!(slot.is_none(), "might_fit=false must imply no slot for {amt}");
            }
        }
    }

    #[test]
    fn gallop_from_any_hint_equals_partition_point() {
        // xorshift64: random strictly sorted timelines without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 2, 3, 7, 63, 64, 65, 130, 200] {
            let mut l = ResourceLedger::new(rv(1.0));
            let mut at = 0u64;
            l.times = (0..len)
                .map(|_| {
                    at += 1 + next() % 5; // gaps of 1..=5 µs; first point > 0
                    at
                })
                .collect();
            // Before, on, between (gaps > 1) and after every breakpoint.
            let mut probes = vec![0, u64::MAX];
            for &x in &l.times {
                probes.extend([x - 1, x, x + 1]);
            }
            for hint in 0..=len + 2 {
                for &t in &probes {
                    l.hint.store(hint, Relaxed);
                    assert_eq!(
                        l.after(t),
                        l.times.partition_point(|&x| x <= t),
                        "len={len} hint={hint} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_timelines_cross_bucket_boundaries() {
        // > 2 buckets of points; peaks and fits must see across chunks.
        let mut l = ResourceLedger::new(rv(10.0));
        for i in 0..200u64 {
            l.reserve(t(i * 10), t(i * 10 + 7), rv(1.0));
        }
        l.reserve(t(995), t(1005), rv(8.0)); // spike inside the range
        let peak = l.peak_usage(t(0), t(3000));
        assert_eq!(peak, rv(9.0), "spike (8) over an existing level (1)");
        assert!(!l.fits(t(990), t(1010), rv(1.5)));
        assert!(l.fits(t(2500), t(2505), rv(9.0)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ledger_naive::NaiveLedger;
    use mlp_sim::SimDuration;
    use proptest::prelude::*;

    fn rv(c: f64) -> ResourceVector {
        ResourceVector::new(c, c, c)
    }

    proptest! {
        /// Admitting only what `fits` reports can never over-commit:
        /// after any sequence of admission-checked reservations, planned
        /// usage never exceeds capacity at any timeline point.
        #[test]
        fn never_over_commits(reqs in prop::collection::vec(
            (0u64..100, 1u64..50, 0.1f64..3.0), 1..60)) {
            let cap = rv(4.0);
            let mut l = ResourceLedger::new(cap);
            for (start, len, amt) in reqs {
                let from = SimTime::from_millis(start);
                let to = SimTime::from_millis(start + len);
                let amount = rv(amt);
                if l.fits(from, to, amount) {
                    l.reserve(from, to, amount);
                }
            }
            // Check usage at every breakpoint.
            for instant in 0u64..200 {
                let u = l.usage_at(SimTime::from_millis(instant));
                prop_assert!(u.fits_within(&cap), "over-committed at {instant}ms: {u:?}");
            }
        }

        /// earliest_fit's answer actually fits, and no timeline point
        /// earlier than the answer fits.
        #[test]
        fn earliest_fit_is_sound_and_minimal(reqs in prop::collection::vec(
            (0u64..50, 1u64..30, 0.5f64..4.0), 0..20), amt in 0.5f64..3.0, len in 1u64..20) {
            let mut l = ResourceLedger::new(rv(4.0));
            for (start, dur, a) in reqs {
                let from = SimTime::from_millis(start);
                let to = SimTime::from_millis(start + dur);
                if l.fits(from, to, rv(a)) {
                    l.reserve(from, to, rv(a));
                }
            }
            let dur = SimDuration::from_millis(len);
            let horizon = SimTime::from_millis(500);
            if let Some(slot) = l.earliest_fit(SimTime::ZERO, horizon, dur, rv(amt), None) {
                prop_assert!(l.fits(slot, slot + dur, rv(amt)));
            }
        }
    }

    /// One random mutation of both ledgers.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Reserve(u64, u64, f64),
        Unreserve(u64, u64, f64),
        Prune(u64),
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Weighting (mostly reserves, occasional prune/clear) is encoded in
        // the selector ranges: the vendored prop_oneof is unweighted.
        (0u8..13, 0u64..150, 1u64..60, 0.1f64..3.0).prop_map(|(sel, s, l, a)| match sel {
            0..=7 => Op::Reserve(s, l, a),
            8..=10 => Op::Unreserve(s, l, a),
            11 => Op::Prune(s),
            _ => Op::Clear,
        })
    }

    /// Every query of one probe, asked of both ledgers; the answers must
    /// be bit-identical.
    fn check_probe(fast: &ResourceLedger, naive: &NaiveLedger, probe: (u64, u64, f64, u64)) {
        let (start, len, amt, dur) = probe;
        let from = SimTime::from_millis(start);
        let to = SimTime::from_millis(start + len);
        let amount = rv(amt);
        let d = SimDuration::from_millis(dur);
        assert_eq!(fast.usage_at(from), naive.usage_at(from));
        assert_eq!(fast.peak_usage(from, to), naive.peak_usage(from, to));
        assert_eq!(fast.available(from, to), naive.available(from, to));
        assert_eq!(fast.fits(from, to, amount), naive.fits(from, to, amount));
        // Several horizons, including ones inside the busy region.
        for h in [start + 1, start + len, 400] {
            let horizon = SimTime::from_millis(h);
            let unbounded = naive.earliest_fit(from, horizon, d, amount);
            assert_eq!(
                fast.earliest_fit(from, horizon, d, amount, None),
                unbounded,
                "earliest_fit(from={start}ms, horizon={h}ms, dur={dur}ms, amt={amt})"
            );
            // A latest useful start keeps the unbounded answer when that
            // is early enough and answers `None` otherwise — bounds before
            // `from`, on breakpoints, on the answer itself and past the
            // horizon.
            let on_answer = unbounded.map_or(start, |s| s.as_micros() / 1000);
            for b in [start.saturating_sub(1), start, start + len / 2, on_answer, h + 7] {
                let bound = SimTime::from_millis(b);
                assert_eq!(
                    fast.earliest_fit(from, horizon, d, amount, Some(bound)),
                    unbounded.filter(|&s| s <= bound),
                    "earliest_fit(from={start}ms, horizon={h}ms, dur={dur}ms, amt={amt}, \
                     latest={b}ms)"
                );
            }
        }
        // One window-peak query settles "starts at `from`": inside the
        // horizon it agrees with the timeline walk.
        if dur > 0 {
            assert_eq!(
                fast.available_if_fits(from, from + d, amount),
                (naive.earliest_fit(from, from + d, d, amount) == Some(from))
                    .then(|| naive.available(from, from + d))
            );
        }
        // The O(1) hint must never contradict a found slot (a zero-length
        // window is not a slot: it fits anywhere).
        if dur > 0 && !fast.might_fit(amount) {
            assert_eq!(fast.earliest_fit(from, SimTime::from_millis(400), d, amount, None), None);
        }
    }

    proptest! {
        /// Equivalence oracle: any sequence of reserve / unreserve /
        /// prune / clear leaves the indexed ledger answering every query
        /// *bit-identically* to the naive reference implementation.
        ///
        /// A probe follows every mutation, so the lookup hint the next
        /// probe gallops from is stale, shifted by inserts and removals,
        /// or past the end after a prune or clear.
        #[test]
        fn matches_naive_reference(
            ops in prop::collection::vec(arb_op(), 0..80),
            probes in prop::collection::vec((0u64..220, 1u64..80, 0.1f64..5.0, 0u64..40), 1..25),
        ) {
            let cap = rv(4.0);
            let mut fast = ResourceLedger::new(cap);
            let mut naive = NaiveLedger::new(cap);
            for (k, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Reserve(s, l, a) => {
                        let (f, t) = (SimTime::from_millis(s), SimTime::from_millis(s + l));
                        fast.reserve(f, t, rv(a));
                        naive.reserve(f, t, rv(a));
                    }
                    Op::Unreserve(s, l, a) => {
                        let (f, t) = (SimTime::from_millis(s), SimTime::from_millis(s + l));
                        fast.unreserve(f, t, rv(a));
                        naive.unreserve(f, t, rv(a));
                    }
                    Op::Prune(at) => {
                        fast.prune_before(SimTime::from_millis(at));
                        naive.prune_before(SimTime::from_millis(at));
                    }
                    Op::Clear => {
                        fast.clear();
                        naive.clear();
                    }
                }
                // The indexed ledger drops breakpoints whose deltas cancel
                // to exactly zero; the naive oracle retains them. It may
                // therefore hold fewer points, never more.
                prop_assert!(fast.timeline_len() <= naive.timeline_len());
                check_probe(&fast, &naive, probes[k % probes.len()]);
            }
            for probe in probes {
                check_probe(&fast, &naive, probe);
            }
        }
    }
}
