//! Historical execution profiles — the paper's `s_i` matrix.
//!
//! Section III-E describes each microservice as a matrix
//! `s_i = [u_cpu, u_mem, u_io, l, Δt]` whose **rows are historical
//! execution cases**. Schedulers consume this store in different ways:
//! PartProfile looks only at execution times, FullProfile at times and
//! resource usage, and v-MLP's self-organizing module derives its
//! volatility-banded Δt estimates (median / p99 of the fastest `x`%
//! executions) from the same history.

use mlp_model::{ResourceVector, ServiceId};
use mlp_sim::FastHashMap;
use mlp_stats::{Cdf, RankedSamples, Summary};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// One historical execution case — one row of `s_i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionCase {
    /// Resource usage during the execution.
    pub usage: ResourceVector,
    /// Machine load (utilization fraction) at the time.
    pub machine_load: f64,
    /// Execution time in ms (the paper's Δt column).
    pub exec_ms: f64,
}

/// A service's retained cases, oldest first: a `Vec` whose first `start`
/// entries are already evicted. Eviction only advances `start`; the dead
/// prefix is dropped in one move once it is as long as the live window,
/// so evicting one case costs amortised O(1) instead of shifting the whole
/// window down. Serialises as the live window alone, a plain array.
#[derive(Debug, Clone, Default)]
struct CaseWindow {
    buf: Vec<ExecutionCase>,
    start: usize,
}

impl CaseWindow {
    /// The live cases, oldest first.
    fn live(&self) -> &[ExecutionCase] {
        &self.buf[self.start..]
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn push(&mut self, case: ExecutionCase) {
        self.buf.push(case);
    }

    /// Evicts the `n` oldest live cases, handing each to `on_evict` in
    /// order, oldest first.
    fn evict(&mut self, n: usize, on_evict: impl FnMut(&ExecutionCase)) {
        let end = self.start + n;
        self.buf[self.start..end].iter().for_each(on_evict);
        self.start = end;
        if self.start >= self.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

impl Serialize for CaseWindow {
    fn to_value(&self) -> serde::Value {
        self.live().to_value()
    }
}

impl Deserialize for CaseWindow {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(CaseWindow { buf: Vec::from_value(v)?, start: 0 })
    }
}

/// Per-service history of execution cases with cached aggregates.
/// Serialises as its retained cases alone; deserialising replays them
/// through [`ServiceHistory::record`], so every aggregate below is in
/// lockstep with `cases` from construction on.
#[derive(Debug, Clone, Default, Serialize)]
struct ServiceHistory {
    cases: CaseWindow,
    /// Lifetime summaries (they outlive eviction); a reloaded history's
    /// lifetime starts at its retained window.
    #[serde(skip)]
    exec_summary: Summary,
    #[serde(skip)]
    usage_summary: [Summary; 3],
    /// Always-sorted index over `cases[i].exec_ms`, kept in lockstep with
    /// `cases` so banded-Δt queries are order-statistic lookups instead of
    /// full re-sorts.
    #[serde(skip)]
    ranked: RankedSamples,
    /// Bumped on every mutation of `cases`; versions the Δt memo.
    #[serde(skip)]
    version: u64,
}

impl ServiceHistory {
    fn record(&mut self, case: ExecutionCase) {
        self.exec_summary.record(case.exec_ms);
        self.usage_summary[0].record(case.usage.cpu);
        self.usage_summary[1].record(case.usage.mem);
        self.usage_summary[2].record(case.usage.io);
        self.ranked.insert(case.exec_ms);
        self.cases.push(case);
        self.version += 1;
    }

    /// Drops the `overflow` oldest cases, keeping the ranked index in
    /// lockstep.
    fn evict(&mut self, overflow: usize) {
        let ranked = &mut self.ranked;
        self.cases.evict(overflow, |c| {
            ranked.remove_one(c.exec_ms);
        });
        self.version += 1;
    }
}

impl Deserialize for ServiceHistory {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let cases = match v.get("cases") {
            Some(x) => CaseWindow::from_value(x),
            None => CaseWindow::absent("cases"),
        }
        .map_err(|e| e.in_context("ServiceHistory.cases"))?;
        let mut h = ServiceHistory::default();
        for &case in cases.live() {
            h.record(case);
        }
        Ok(h)
    }
}

/// Memo key for a banded-Δt query: (service, `x_percent` bits, `q` bits).
/// The value is independent of the caller's fallback (a non-empty history
/// always yields a quantile), so the fallback is deliberately not keyed.
type DeltaKey = (u32, u64, u64);

/// The historical profile store shared by all profile-driven schedulers.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct ProfileStore {
    histories: FastHashMap<u32, ServiceHistory>,
    /// Cap on retained cases per service (ring-buffer semantics); `0`
    /// means unbounded.
    retention: usize,
    /// Banded-Δt memo: `(service, x, q) → (history version, Δt)`. Entries
    /// are validated against the service's current version, so a stale hit
    /// is impossible; interior mutability keeps `delta_t_ms` a `&self`
    /// query (and the `Mutex` keeps the store `Sync`). Never serialized;
    /// cleared by `clone`.
    #[serde(skip)]
    memo: Mutex<FastHashMap<DeltaKey, (u64, f64)>>,
}

impl Clone for ProfileStore {
    fn clone(&self) -> Self {
        ProfileStore {
            histories: self.histories.clone(),
            retention: self.retention,
            memo: Mutex::new(FastHashMap::default()),
        }
    }
}

impl ProfileStore {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        ProfileStore::default()
    }

    /// Creates a store that retains at most `retention` recent cases per
    /// service (cheap online operation for long runs).
    pub fn with_retention(retention: usize) -> Self {
        ProfileStore { retention, ..ProfileStore::default() }
    }

    /// Changes the retention cap (`0` = unbounded) and trims any history
    /// already over it. Lets a warmed store be bounded before a long run
    /// without re-profiling.
    pub fn set_retention(&mut self, retention: usize) {
        self.retention = retention;
        if retention == 0 {
            return;
        }
        for h in self.histories.values_mut() {
            if h.cases.len() > retention {
                let overflow = h.cases.len() - retention;
                h.evict(overflow);
            }
        }
    }

    /// The current retention cap (`0` = unbounded).
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Records one execution case for `service`.
    pub fn record(&mut self, service: ServiceId, case: ExecutionCase) {
        let h = self.histories.entry(service.0).or_default();
        h.record(case);
        if self.retention > 0 && h.cases.len() > self.retention {
            let overflow = h.cases.len() - self.retention;
            h.evict(overflow);
            // Summaries intentionally stay cumulative — they describe the
            // service's lifetime behaviour, while `cases` bounds the Δt
            // estimation window.
        }
    }

    /// Number of retained cases for `service`.
    pub fn case_count(&self, service: ServiceId) -> usize {
        self.histories.get(&service.0).map_or(0, |h| h.cases.len())
    }

    /// Retained execution cases (oldest first).
    pub fn cases(&self, service: ServiceId) -> &[ExecutionCase] {
        self.histories.get(&service.0).map_or(&[], |h| h.cases.live())
    }

    /// Mean observed execution time (ms); `None` with no history.
    pub fn mean_exec_ms(&self, service: ServiceId) -> Option<f64> {
        let h = self.histories.get(&service.0)?;
        (h.exec_summary.count() > 0).then(|| h.exec_summary.mean())
    }

    /// Mean observed resource usage; zero vector with no history.
    pub fn mean_usage(&self, service: ServiceId) -> ResourceVector {
        match self.histories.get(&service.0) {
            Some(h) if h.usage_summary[0].count() > 0 => ResourceVector::new(
                h.usage_summary[0].mean(),
                h.usage_summary[1].mean(),
                h.usage_summary[2].mean(),
            ),
            _ => ResourceVector::ZERO,
        }
    }

    /// Execution-time CDF of the retained cases; empty CDF with no history.
    pub fn exec_cdf(&self, service: ServiceId) -> Cdf {
        let mut cdf = Cdf::new();
        for c in self.cases(service) {
            cdf.record(c.exec_ms);
        }
        cdf
    }

    /// Algorithm 1's Δt estimator: the `q`-quantile latency of the fastest
    /// `x`% of historical executions.
    ///
    /// * medium volatility: `q = 0.5` ("Δt = 50 % latency of x % executions")
    /// * high volatility: `q = 0.99` ("Δt = 99 % latency of x % executions")
    ///
    /// Falls back to `fallback_ms` when no history exists (cold start).
    ///
    /// Answered from the per-service ranked index: the truncate-then-quantile
    /// composition is `sorted[idx]` with `keep = ⌈x/100·n⌉` (clamped to
    /// `1..=n`) and `idx = min(max(⌈q·keep⌉, 1) − 1, keep − 1)` — exactly
    /// the [`Cdf::truncate_fastest`]/[`Cdf::quantile`] arithmetic — so it
    /// returns bit-identical values to the sort path (proven in tests).
    /// Results are memoized per `(service, x, q)` keyed on the history
    /// version.
    pub fn delta_t_ms(&self, service: ServiceId, x_percent: f64, q: f64, fallback_ms: f64) -> f64 {
        let Some(h) = self.histories.get(&service.0) else { return fallback_ms };
        let n = h.cases.len();
        if n == 0 {
            return fallback_ms;
        }
        let key: DeltaKey = (service.0, x_percent.to_bits(), q.to_bits());
        if let Ok(memo) = self.memo.lock() {
            if let Some(&(version, value)) = memo.get(&key) {
                if version == h.version {
                    return value;
                }
            }
        }
        let keep = (((x_percent / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        let idx = (((q * keep as f64).ceil() as usize).max(1) - 1).min(keep - 1);
        let value = h.ranked.select(idx).unwrap_or(fallback_ms);
        if let Ok(mut memo) = self.memo.lock() {
            memo.insert(key, (h.version, value));
        }
        value
    }

    /// The historical sort-based Δt computation (builds and truncates a
    /// fresh [`Cdf`] per call): the reference implementation the indexed
    /// [`delta_t_ms`](ProfileStore::delta_t_ms) must match bit-for-bit.
    pub fn delta_t_ms_unindexed(
        &self,
        service: ServiceId,
        x_percent: f64,
        q: f64,
        fallback_ms: f64,
    ) -> f64 {
        let mut cdf = self.exec_cdf(service);
        if cdf.is_empty() {
            return fallback_ms;
        }
        let mut truncated = cdf.truncate_fastest(x_percent);
        truncated.quantile(q).unwrap_or(fallback_ms)
    }

    /// Most recent observed execution time; `None` with no history.
    /// ("For requests with low V_r, Δt is directly determined by
    /// historical value.")
    pub fn last_exec_ms(&self, service: ServiceId) -> Option<f64> {
        self.cases(service).last().map(|c| c.exec_ms)
    }

    /// Smallest retained execution time (the `Δt₀` of the reorder ratio).
    /// `O(1)` off the ranked index (same `total_cmp` order, so the returned
    /// bits match a scan of the cases).
    pub fn min_exec_ms(&self, service: ServiceId) -> Option<f64> {
        self.histories.get(&service.0)?.ranked.min()
    }

    /// The profile-history version of `service`: bumped on every recorded
    /// or evicted case, `0` while the service has no history. Derived
    /// caches (the Δt memo internally, the reorder index's per-type
    /// `RatioTerms` externally) revalidate against this in O(1) — an
    /// unchanged version means every profile query for the service answers
    /// bit-identically to when the cache entry was built.
    pub fn version(&self, service: ServiceId) -> u64 {
        self.histories.get(&service.0).map_or(0, |h| h.version)
    }

    /// Services with any history.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut ids: Vec<ServiceId> = self.histories.keys().map(|&k| ServiceId(k)).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(exec_ms: f64) -> ExecutionCase {
        ExecutionCase { usage: ResourceVector::new(1.0, 100.0, 10.0), machine_load: 0.5, exec_ms }
    }

    const S: ServiceId = ServiceId(7);

    #[test]
    fn empty_store() {
        let p = ProfileStore::new();
        assert_eq!(p.case_count(S), 0);
        assert!(p.mean_exec_ms(S).is_none());
        assert_eq!(p.mean_usage(S), ResourceVector::ZERO);
        assert_eq!(p.delta_t_ms(S, 90.0, 0.5, 42.0), 42.0, "cold start uses fallback");
        assert!(p.last_exec_ms(S).is_none());
        assert!(p.services().is_empty());
    }

    #[test]
    fn record_and_aggregate() {
        let mut p = ProfileStore::new();
        for ms in [10.0, 20.0, 30.0] {
            p.record(S, case(ms));
        }
        assert_eq!(p.case_count(S), 3);
        assert_eq!(p.mean_exec_ms(S), Some(20.0));
        assert_eq!(p.last_exec_ms(S), Some(30.0));
        assert_eq!(p.min_exec_ms(S), Some(10.0));
        assert_eq!(p.mean_usage(S), ResourceVector::new(1.0, 100.0, 10.0));
        assert_eq!(p.services(), vec![S]);
    }

    #[test]
    fn delta_t_quantiles() {
        let mut p = ProfileStore::new();
        for ms in 1..=100 {
            p.record(S, case(ms as f64));
        }
        // p50 of all executions.
        assert_eq!(p.delta_t_ms(S, 100.0, 0.5, 0.0), 50.0);
        // p99 of all executions.
        assert_eq!(p.delta_t_ms(S, 100.0, 0.99, 0.0), 99.0);
        // p99 of the fastest 50%: 99th percentile of 1..=50.
        let d = p.delta_t_ms(S, 50.0, 0.99, 0.0);
        assert!((49.0..=50.0).contains(&d), "got {d}");
        // Smaller x ⇒ tighter (more optimistic) Δt.
        assert!(p.delta_t_ms(S, 10.0, 0.99, 0.0) < p.delta_t_ms(S, 90.0, 0.99, 0.0));
    }

    #[test]
    fn retention_bounds_cases_but_not_lifetime_stats() {
        let mut p = ProfileStore::with_retention(10);
        for ms in 1..=100 {
            p.record(S, case(ms as f64));
        }
        assert_eq!(p.case_count(S), 10);
        // Window keeps the most recent cases.
        assert_eq!(p.cases(S)[0].exec_ms, 91.0);
        // Lifetime mean still covers all 100 recordings.
        assert_eq!(p.mean_exec_ms(S), Some(50.5));
    }

    #[test]
    fn set_retention_trims_existing_history() {
        let mut p = ProfileStore::new();
        for ms in 1..=100 {
            p.record(S, case(ms as f64));
        }
        p.set_retention(10);
        assert_eq!(p.retention(), 10);
        assert_eq!(p.case_count(S), 10, "existing overflow trimmed immediately");
        assert_eq!(p.cases(S)[0].exec_ms, 91.0, "most recent cases kept");
        // Subsequent recordings keep honoring the cap.
        p.record(S, case(200.0));
        assert_eq!(p.case_count(S), 10);
        assert_eq!(p.last_exec_ms(S), Some(200.0));
        // Zero restores unbounded growth.
        p.set_retention(0);
        for ms in 1..=20 {
            p.record(S, case(ms as f64));
        }
        assert_eq!(p.case_count(S), 30);
    }

    #[test]
    fn indexed_delta_t_matches_reference_bitwise() {
        let mut p = ProfileStore::with_retention(16);
        // Awkward values: duplicates, sub-ms, and a retention window that
        // keeps evicting — the index must track the survivors exactly.
        for i in 0..200u32 {
            p.record(S, case(((i * 37) % 50) as f64 / 7.0 + 0.013));
            for &(x, q) in &[(100.0, 0.5), (62.5, 0.99), (30.0, 0.5), (5.0, 0.99)] {
                let fast = p.delta_t_ms(S, x, q, -1.0);
                let slow = p.delta_t_ms_unindexed(S, x, q, -1.0);
                assert_eq!(fast.to_bits(), slow.to_bits(), "i={i} x={x} q={q}");
            }
            assert_eq!(
                p.min_exec_ms(S),
                p.cases(S).iter().map(|c| c.exec_ms).min_by(|a, b| a.total_cmp(b))
            );
        }
    }

    #[test]
    fn memo_invalidated_by_new_history() {
        let mut p = ProfileStore::new();
        p.record(S, case(10.0));
        assert_eq!(p.delta_t_ms(S, 100.0, 0.99, 0.0), 10.0);
        // A repeated query hits the memo; a new recording must invalidate.
        assert_eq!(p.delta_t_ms(S, 100.0, 0.99, 0.0), 10.0);
        p.record(S, case(90.0));
        assert_eq!(p.delta_t_ms(S, 100.0, 0.99, 0.0), 90.0);
        // Eviction invalidates too.
        p.set_retention(1);
        assert_eq!(p.delta_t_ms(S, 100.0, 0.5, 0.0), 90.0);
    }

    #[test]
    fn deserialized_store_answers_exactly_then_reindexes() {
        let mut p = ProfileStore::new();
        for ms in [14.0, 3.0, 8.0, 3.0] {
            p.record(S, case(ms));
        }
        let js = serde_json::to_string(&p).unwrap();
        let mut q: ProfileStore = serde_json::from_str(&js).unwrap();
        assert_eq!(q.delta_t_ms(S, 100.0, 0.5, 0.0), p.delta_t_ms(S, 100.0, 0.5, 0.0));
        assert_eq!(q.min_exec_ms(S), Some(3.0));
        assert_ne!(q.version(S), 0, "a reloaded history is a history");
        q.record(S, case(1.0));
        p.record(S, case(1.0));
        assert_eq!(q.delta_t_ms(S, 80.0, 0.99, 0.0), p.delta_t_ms(S, 80.0, 0.99, 0.0));
        assert_eq!(q.min_exec_ms(S), Some(1.0));
    }

    #[test]
    fn evicted_window_round_trips_oldest_first() {
        // 20 evictions from a window of 8: the dead prefix is compacted
        // away twice and the last window starts mid-buffer.
        let mut p = ProfileStore::with_retention(8);
        let exec = |i: u32| ((i * 37) % 23) as f64 / 3.0 + 0.5;
        for i in 0..28 {
            p.record(S, case(exec(i)));
        }
        assert_eq!(p.histories[&S.0].cases.start, 4);
        let window: Vec<f64> = p.cases(S).iter().map(|c| c.exec_ms).collect();
        assert_eq!(window, (20..28).map(exec).collect::<Vec<_>>(), "newest 8, oldest first");

        let js = serde_json::to_string(&p).unwrap();
        let q: ProfileStore = serde_json::from_str(&js).unwrap();
        assert_eq!(q.cases(S), p.cases(S));
        assert_eq!(q.case_count(S), 8);
        for &(x, pct) in &[(100.0, 0.5), (62.5, 0.99), (30.0, 0.5)] {
            let (a, b) = (q.delta_t_ms(S, x, pct, -1.0), p.delta_t_ms(S, x, pct, -1.0));
            assert_eq!(a.to_bits(), b.to_bits(), "x={x} q={pct}");
        }
        assert_eq!(q.min_exec_ms(S).map(f64::to_bits), p.min_exec_ms(S).map(f64::to_bits));
    }

    #[test]
    fn json_roundtrip_preserves_cases() {
        let mut p = ProfileStore::new();
        p.record(S, case(12.5));
        p.record(S, case(14.0));
        let js = serde_json::to_string(&p).unwrap();
        let q: ProfileStore = serde_json::from_str(&js).unwrap();
        assert_eq!(q.case_count(S), 2);
        assert_eq!(q.mean_exec_ms(S), Some(13.25));
        assert_eq!(q.mean_usage(S), ResourceVector::new(1.0, 100.0, 10.0));
    }

    #[test]
    fn reloaded_summaries_keep_their_history_after_a_new_case() {
        let usage = |i: u32| ResourceVector::new(1.0 + i as f64 / 100.0, 100.0, 10.0);
        let mut p = ProfileStore::new();
        for i in 0..100u32 {
            p.record(
                S,
                ExecutionCase { usage: usage(i), machine_load: 0.5, exec_ms: 10.0 + i as f64 },
            );
        }
        let js = serde_json::to_string(&p).unwrap();
        let mut q: ProfileStore = serde_json::from_str(&js).unwrap();
        let outlier = ExecutionCase { usage: usage(800), machine_load: 0.5, exec_ms: 1000.0 };
        p.record(S, outlier);
        q.record(S, outlier);
        // 101 cases: (100 · 59.5 + 1000) / 101 ms, not the outlier alone.
        let mean = q.mean_exec_ms(S).unwrap();
        assert!((mean - 68.81).abs() < 0.01, "got {mean}");
        assert_eq!(q.mean_exec_ms(S), p.mean_exec_ms(S));
        assert_eq!(q.mean_usage(S), p.mean_usage(S));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Δt estimates are monotone in q and bounded by the observed range.
        #[test]
        fn delta_t_monotone_and_bounded(times in prop::collection::vec(0.1f64..1e4, 1..100),
                                        x in 1.0f64..100.0) {
            let mut p = ProfileStore::new();
            for &t in &times {
                p.record(ServiceId(0), ExecutionCase {
                    usage: ResourceVector::ZERO, machine_load: 0.0, exec_ms: t });
            }
            let d50 = p.delta_t_ms(ServiceId(0), x, 0.5, 0.0);
            let d99 = p.delta_t_ms(ServiceId(0), x, 0.99, 0.0);
            prop_assert!(d50 <= d99);
            let max = times.iter().copied().fold(0.0f64, f64::max);
            let min = times.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(d99 <= max + 1e-9);
            prop_assert!(d50 >= min - 1e-9);
        }

        /// The indexed Δt path is bit-identical to the sort-based
        /// reference for arbitrary histories, bands, and retention caps.
        #[test]
        fn indexed_equals_reference(times in prop::collection::vec(0.01f64..1e4, 1..200),
                                    x in 0.5f64..100.0,
                                    q in 0.0f64..1.0,
                                    retention in 0usize..64) {
            let mut p = ProfileStore::with_retention(retention);
            for &t in &times {
                p.record(ServiceId(3), ExecutionCase {
                    usage: ResourceVector::ZERO, machine_load: 0.0, exec_ms: t });
            }
            let fast = p.delta_t_ms(ServiceId(3), x, q, -1.0);
            let slow = p.delta_t_ms_unindexed(ServiceId(3), x, q, -1.0);
            prop_assert_eq!(fast.to_bits(), slow.to_bits());
        }
    }
}
