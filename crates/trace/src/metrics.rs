//! Prometheus-style counters and gauges.
//!
//! A minimal metrics registry standing in for the Prometheus + cAdvisor
//! monitoring sub-system of Section II. The engine publishes scheduler
//! internals (delay-slot fills, resource stretches, queue switches) here so
//! experiments and ablations can introspect *why* a scheme behaved as it
//! did, not just its end metrics.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A thread-safe registry of named counters and gauges.
///
/// Cloning is cheap (shared handle) so the engine, scheduler, and
/// self-healing module can all publish to the same registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Locks the shared state; a poisoned lock (publisher panicked) still
    /// yields the data — metrics must never compound a failure.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Increments a counter by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.locked();
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Reads a counter (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.locked().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.locked().gauges.insert(name.to_string(), v);
    }

    /// Reads a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.locked().gauges.get(name).copied()
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.locked().counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Snapshot of all gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.locked().gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Clears everything (between experiment repetitions).
    pub fn reset(&self) {
        let mut inner = self.locked();
        inner.counters.clear();
        inner.gauges.clear();
    }
}

/// Well-known metric names published by the v-MLP engine.
pub mod names {
    /// Delay-slot candidates promoted into stalls (self-healing).
    pub const DELAY_SLOT_FILLS: &str = "delay_slot_fills";
    /// Resource-stretch actions taken (self-healing).
    pub const RESOURCE_STRETCHES: &str = "resource_stretches";
    /// Waiting-queue switches (Algorithm 1 line 26).
    pub const QUEUE_SWITCHES: &str = "queue_switches";
    /// Spans that invoked later than planned.
    pub const LATE_INVOCATIONS: &str = "late_invocations";
    /// Running invocations killed by fault injection (transient or crash).
    pub const NODE_FAILURES: &str = "node_failures";
    /// Failed nodes re-attempted (scheduler retry or engine fallback).
    pub const RETRIES: &str = "retries";
    /// Requests given up on (load shedding / exhausted retry budget).
    pub const ABANDONS: &str = "abandons";
    /// Machine crash events injected.
    pub const MACHINE_CRASHES: &str = "machine_crashes";
    /// Nodes moved to a surviving machine after a crash.
    pub const CRASH_REPLANS: &str = "crash_replans";
    /// Recoverable bookkeeping invariant violations (should stay 0).
    pub const INVARIANT_VIOLATIONS: &str = "invariant_violations";
    /// Gauge: mean time-to-recover crash-orphaned nodes, in ms.
    pub const MTTR_MS: &str = "mttr_ms";
    /// Gauge: largest per-machine ledger timeline (retained breakpoints)
    /// seen at any sampling tick — the figure pruning must keep bounded.
    pub const LEDGER_TIMELINE_MAX: &str = "ledger_timeline_max";
    /// Gauge: total retained ledger breakpoints across the cluster at the
    /// latest sampling tick.
    pub const LEDGER_TIMELINE_TOTAL: &str = "ledger_timeline_total";
    /// Placements that spilled out of the request's home shard because no
    /// member machine had a feasible window (cross-shard work stealing).
    /// Always 0 with one shard.
    pub const SHARD_OVERFLOWS: &str = "shard_overflows";
    /// Gauge: high-water mark of the engine's request table (live admitted
    /// requests). Proves memory tracks *in-flight* work, not total
    /// arrivals: on a healthy open-loop run this plateaus near
    /// rate × residence time while arrivals grow without bound.
    pub const REQUEST_TABLE_PEAK: &str = "request_table_peak";
    /// Requests shed at the overload admission gate (queue cap, deadline
    /// infeasibility, or open circuit). Always 0 with the subsystem off.
    pub const OVERLOAD_SHED_REQUESTS: &str = "overload_shed_requests";
    /// Optional DAG branches skipped under brownout tier ≥ 2.
    pub const OVERLOAD_BRANCH_SHEDS: &str = "overload_branch_sheds";
    /// Retries refused by the exhausted global retry budget.
    pub const OVERLOAD_RETRIES_DENIED: &str = "overload_retries_denied";
    /// Stretch healing actions suppressed under brownout tier ≥ 1.
    pub const OVERLOAD_STRETCHES_SUPPRESSED: &str = "overload_stretches_suppressed";
    /// Cached reorder-ratio terms recomputed after a profile-store version
    /// bump (incremental reorder-index invalidations).
    pub const INDEX_INVALIDATIONS: &str = "index_invalidations";
    /// Gauge: cluster pressure signal in [0, 1] at the latest tick.
    pub const OVERLOAD_PRESSURE: &str = "overload_pressure";
    /// Gauge: highest pressure sample of the run.
    pub const OVERLOAD_PRESSURE_PEAK: &str = "overload_pressure_peak";
    /// Gauge: brownout degradation tier (0–3) at the latest tick.
    pub const BROWNOUT_TIER: &str = "brownout_tier";
    /// Gauge: circuits currently not Closed at the latest tick.
    pub const BREAKER_OPEN_CIRCUITS: &str = "breaker_open_circuits";
    /// Gauge: total circuit-breaker Open trips over the run.
    pub const BREAKER_OPENS: &str = "breaker_opens";
    /// Gauge: whole retry tokens left in the global budget.
    pub const RETRY_TOKENS: &str = "retry_tokens";
    /// Gauge: retries granted by the global budget over the run.
    pub const OVERLOAD_RETRIES_GRANTED: &str = "overload_retries_granted";

    /// Gauge name for one shard's peak sampled utilization — a high-water
    /// mark across ticks, so it survives the end-of-run drain (the last
    /// instantaneous sample is always ≈0).
    pub fn shard_utilization_peak(shard: u32) -> String {
        format!("shard_utilization_peak_s{shard}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.inc(names::DELAY_SLOT_FILLS);
        m.add(names::DELAY_SLOT_FILLS, 4);
        assert_eq!(m.counter(names::DELAY_SLOT_FILLS), 5);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("util", 0.4);
        m.set_gauge("util", 0.7);
        assert_eq!(m.gauge("util"), Some(0.7));
        assert_eq!(m.gauge("other"), None);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.inc("x");
        assert_eq!(m.counter("x"), 1);
    }

    #[test]
    fn snapshots_are_sorted() {
        let m = MetricsRegistry::new();
        m.inc("zebra");
        m.inc("aardvark");
        let names: Vec<String> = m.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["aardvark".to_string(), "zebra".to_string()]);
    }

    #[test]
    fn reset_clears() {
        let m = MetricsRegistry::new();
        m.inc("x");
        m.set_gauge("g", 1.0);
        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert_eq!(m.gauge("g"), None);
    }

    #[test]
    fn concurrent_increments() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.inc("hits");
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 8000);
    }
}
