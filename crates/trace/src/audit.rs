//! Structured decision-audit log.
//!
//! Every scheduling choice — admission, deferral, queue reorder, budget-tier
//! selection, delay-slot promotion, resource stretch, retry, shed, crash
//! replan — can emit a typed [`Decision`] record here. The log is a fixed
//! capacity ring buffer behind a cheap shared handle: when auditing is
//! disabled (the default) [`AuditLog::record`] is a branch on an `Option`
//! and nothing is allocated, so the hot path of production-style runs pays
//! nothing. With auditing enabled the retained tail of decisions can be
//! exported as JSONL (one decision per line) for offline analysis.

use crate::span::RequestId;
use mlp_cluster::MachineId;
use mlp_sim::SimTime;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// What kind of scheduling choice a [`Decision`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DecisionKind {
    /// A request was admitted (a plan was produced and accepted).
    Admit,
    /// A request could not be placed this round and stays queued.
    Defer,
    /// The waiting queue was reordered; the record names the new head.
    Reorder,
    /// A budget tier (Δt estimate) was chosen for a request's nodes.
    BudgetTier,
    /// A planned node was promoted into a late invoker's delay slot.
    DelaySlotFill,
    /// A running node's grant was stretched to absorb idle resources.
    Stretch,
    /// A failed node was scheduled for another attempt.
    Retry,
    /// A request was given up on (load shed / retry budget exhausted).
    Shed,
    /// A node was replanned onto a surviving machine after a crash.
    CrashReplan,
    /// A span invoked later than its plan (healing trigger).
    LateInvocation,
    /// A machine crashed.
    MachineDown,
    /// A machine came back.
    MachineUp,
    /// The overload admission gate refused an arrival (queue cap,
    /// deadline infeasibility, or an open circuit breaker).
    AdmissionReject,
    /// A per-service circuit breaker changed state.
    BreakerTransition,
    /// The brownout degradation tier changed.
    Brownout,
    /// A local-search refinement replaced an admitted plan with a
    /// strictly better placement (SearchSched).
    PlacementRefine,
    /// The incremental reorder index recomputed one request type's cached
    /// ratio terms after a profile-store version bump. `value` carries the
    /// request-type id, `rank` the profile version that triggered the
    /// recompute.
    IndexInvalidate,
}

/// One audited scheduling decision.
///
/// `reason` is a static human-readable tag (e.g. `"deadline-shed"`); the
/// optional numeric fields carry the inputs that drove the choice — the
/// volatility `V_r`, the reorder rank `R`, the Δt budget — so a JSONL trace
/// can answer *why* the scheduler acted, not just *that* it did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Decision {
    /// Simulation time of the decision, microseconds.
    pub at_us: u64,
    /// What kind of choice this was.
    pub kind: DecisionKind,
    /// Static tag naming the rule that fired.
    pub reason: &'static str,
    /// Affected request, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub request: Option<u64>,
    /// Affected DAG node, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub node: Option<usize>,
    /// Affected machine, if any.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub machine: Option<u32>,
    /// Request volatility `V_r` input, if relevant.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub vr: Option<f64>,
    /// Reorder rank `R` (or analogous priority score), if relevant.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rank: Option<f64>,
    /// Time budget (ms) chosen or consulted, if relevant.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub budget_ms: Option<f64>,
    /// Free-form scalar (stretch factor, promotion gain ms, attempt #…).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub value: Option<f64>,
}

impl Decision {
    /// Starts a record with only the mandatory fields set.
    pub fn new(at: SimTime, kind: DecisionKind, reason: &'static str) -> Self {
        Decision {
            at_us: at.0,
            kind,
            reason,
            request: None,
            node: None,
            machine: None,
            vr: None,
            rank: None,
            budget_ms: None,
            value: None,
        }
    }

    /// Sets the affected request.
    pub fn request(mut self, r: RequestId) -> Self {
        self.request = Some(r.0);
        self
    }

    /// Sets the affected DAG node.
    pub fn node(mut self, n: usize) -> Self {
        self.node = Some(n);
        self
    }

    /// Sets the affected machine.
    pub fn machine(mut self, m: MachineId) -> Self {
        self.machine = Some(m.0);
        self
    }

    /// Sets the volatility input.
    pub fn vr(mut self, v: f64) -> Self {
        self.vr = Some(v);
        self
    }

    /// Sets the rank input.
    pub fn rank(mut self, r: f64) -> Self {
        self.rank = Some(r);
        self
    }

    /// Sets the budget input.
    pub fn budget_ms(mut self, b: f64) -> Self {
        self.budget_ms = Some(b);
        self
    }

    /// Sets the free-form scalar.
    pub fn value(mut self, v: f64) -> Self {
        self.value = Some(v);
        self
    }
}

/// Default ring capacity: enough to retain every decision of a
/// small/tiny-scale run and the tail of a paper-scale one.
pub const DEFAULT_AUDIT_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Decision>,
    cap: usize,
    dropped: u64,
}

/// Shared handle to the decision ring buffer.
///
/// Cloning is cheap; a disabled log (the [`AuditLog::disabled`]
/// constructor, also `Default`) carries no buffer at all and every
/// operation on it is a no-op, so `ctx.audit.record(..)` costs one
/// `Option` check when auditing is off.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    inner: Option<Arc<Mutex<Ring>>>,
    /// Wall-clock anchor for live mode: the UNIX timestamp (µs) of run
    /// start. Decision times are always µs-since-run-start; with the
    /// anchor set they map to absolute wall-clock instants
    /// (`epoch + d.at`). `None` in sim mode, where "time zero" is not a
    /// real instant — and the JSONL output stays byte-identical.
    epoch_unix_us: Option<u64>,
}

impl AuditLog {
    /// A log that records nothing (the default).
    pub fn disabled() -> Self {
        AuditLog { inner: None, epoch_unix_us: None }
    }

    /// An enabled log with the default ring capacity.
    pub fn enabled() -> Self {
        AuditLog::with_capacity(DEFAULT_AUDIT_CAPACITY)
    }

    /// An enabled log retaining at most `cap` decisions (oldest dropped).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        AuditLog {
            inner: Some(Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(1024)),
                cap,
                dropped: 0,
            }))),
            epoch_unix_us: None,
        }
    }

    /// Anchors decision times to the wall clock (live mode): `unix_us` is
    /// the UNIX timestamp, in µs, of the run's time zero.
    pub fn with_epoch(mut self, unix_us: u64) -> Self {
        self.epoch_unix_us = Some(unix_us);
        self
    }

    /// The wall-clock anchor, when one was set (live mode).
    pub fn epoch_unix_us(&self) -> Option<u64> {
        self.epoch_unix_us
    }

    /// Whether decisions are being retained. Emission sites can use this
    /// to skip building records whose inputs are costly to gather.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn locked(&self) -> Option<MutexGuard<'_, Ring>> {
        // Like the metrics registry: a poisoned lock still yields the data;
        // observability must never compound a failure.
        self.inner.as_ref().map(|m| m.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Appends one decision (no-op when disabled).
    pub fn record(&self, d: Decision) {
        if let Some(mut ring) = self.locked() {
            if ring.buf.len() == ring.cap {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(d);
        }
    }

    /// Number of retained decisions.
    pub fn len(&self) -> usize {
        self.locked().map_or(0, |r| r.buf.len())
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decisions evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.locked().map_or(0, |r| r.dropped)
    }

    /// Snapshot of the retained decisions, oldest first.
    pub fn decisions(&self) -> Vec<Decision> {
        self.locked().map_or_else(Vec::new, |r| r.buf.iter().copied().collect())
    }

    /// How many retained decisions are of `kind`.
    pub fn count(&self, kind: DecisionKind) -> usize {
        self.locked().map_or(0, |r| r.buf.iter().filter(|d| d.kind == kind).count())
    }

    /// Renders the retained decisions as JSONL (one JSON object per line).
    /// A live-mode log leads with one header object carrying the
    /// wall-clock epoch; sim-mode output is unchanged byte for byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(epoch) = self.epoch_unix_us {
            out.push_str(&format!("{{\"epoch_unix_us\":{epoch}}}\n"));
        }
        for d in self.decisions() {
            out.push_str(&serde_json::to_string(&d).expect("decisions serialize"));
            out.push('\n');
        }
        out
    }

    /// Writes the retained decisions as JSONL to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(at_us: u64, kind: DecisionKind) -> Decision {
        Decision::new(SimTime(at_us), kind, "test")
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = AuditLog::disabled();
        assert!(!log.is_enabled());
        log.record(d(1, DecisionKind::Admit));
        assert_eq!(log.len(), 0);
        assert!(log.is_empty());
        assert_eq!(log.decisions(), vec![]);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn enabled_log_retains_in_order() {
        let log = AuditLog::enabled();
        assert!(log.is_enabled());
        log.record(d(1, DecisionKind::Admit).request(RequestId(7)));
        log.record(d(2, DecisionKind::Defer).request(RequestId(8)));
        let ds = log.decisions();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].kind, DecisionKind::Admit);
        assert_eq!(ds[0].request, Some(7));
        assert_eq!(ds[1].at_us, 2);
        assert_eq!(log.count(DecisionKind::Admit), 1);
        assert_eq!(log.count(DecisionKind::Stretch), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = AuditLog::with_capacity(3);
        for i in 0..5 {
            log.record(d(i, DecisionKind::Admit));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let first = log.decisions()[0];
        assert_eq!(first.at_us, 2, "oldest two evicted");
    }

    #[test]
    fn clones_share_the_ring() {
        let log = AuditLog::enabled();
        let clone = log.clone();
        clone.record(d(1, DecisionKind::Stretch));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn jsonl_skips_unset_fields() {
        let log = AuditLog::enabled();
        log.record(d(5, DecisionKind::Shed).request(RequestId(1)).value(2.0));
        let line = log.to_jsonl();
        assert!(line.contains("\"kind\":\"Shed\""), "{line}");
        assert!(line.contains("\"request\":1"), "{line}");
        assert!(line.contains("\"value\":2"), "{line}");
        assert!(!line.contains("machine"), "unset fields omitted: {line}");
        assert_eq!(line.matches('\n').count(), 1);
    }

    #[test]
    fn builder_sets_every_field() {
        let full = Decision::new(SimTime(9), DecisionKind::BudgetTier, "banded")
            .request(RequestId(3))
            .node(2)
            .machine(MachineId(4))
            .vr(0.5)
            .rank(0.9)
            .budget_ms(12.0)
            .value(1.0);
        assert_eq!(full.at_us, 9);
        assert_eq!(full.node, Some(2));
        assert_eq!(full.machine, Some(4));
        assert_eq!(full.vr, Some(0.5));
        assert_eq!(full.rank, Some(0.9));
        assert_eq!(full.budget_ms, Some(12.0));
        assert_eq!(full.value, Some(1.0));
    }
}
