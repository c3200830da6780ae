//! The scheduler interface the evaluation engine drives.

use crate::plan::{RequestInfo, RequestPlan};
use mlp_cluster::{Cluster, MachineId, ShardPool};
use mlp_model::RequestCatalog;
use mlp_net::NetworkModel;
use mlp_sim::{SimDuration, SimTime};
use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId, Span};

/// The read-only planning environment: everything per-node budget/grant
/// estimation consults. Split out of [`SchedulerCtx`] so a planner can
/// hold it (`Copy`: shared references only) while it writes reservations
/// through the context's `&mut Cluster`.
#[derive(Clone, Copy)]
pub struct PlanEnv<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Historical execution profiles (the `s_i` matrices).
    pub profiles: &'a ProfileStore,
    /// Request catalog (DAGs, SLOs, volatility).
    pub catalog: &'a RequestCatalog,
    /// Communication model, for expected-delay planning.
    pub net: &'a NetworkModel,
}

/// Everything a scheduler may consult (and the ledgers it may write)
/// during a callback. Borrowed from the engine per call.
pub struct SchedulerCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The cluster — schedulers write reservations into machine ledgers.
    pub cluster: &'a mut Cluster,
    /// Historical execution profiles (the `s_i` matrices).
    pub profiles: &'a ProfileStore,
    /// Request catalog (DAGs, SLOs, volatility).
    pub catalog: &'a RequestCatalog,
    /// Communication model, for expected-delay planning.
    pub net: &'a NetworkModel,
    /// Metrics sink for scheduler internals.
    pub metrics: &'a MetricsRegistry,
    /// Decision-audit sink (no-op unless the run enables auditing).
    pub audit: &'a AuditLog,
}

impl<'a> SchedulerCtx<'a> {
    /// The read-only planning environment of this ctx. The returned value
    /// copies the shared references out of the ctx, so it does not borrow
    /// `self` — callers can keep using (and mutating through) the ctx
    /// while the env is alive.
    pub fn env(&self) -> PlanEnv<'a> {
        PlanEnv { now: self.now, profiles: self.profiles, catalog: self.catalog, net: self.net }
    }
}

/// Raised by the engine when a planned invocation is *late*: its planned
/// start has arrived but some dependency (or its communication) has not
/// finished (the Fig 5 misalignment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateInfo {
    /// The late request.
    pub request: RequestId,
    /// DAG node that should have started.
    pub node: usize,
    /// Machine it is planned on.
    pub machine: MachineId,
    /// Its (missed) planned start.
    pub planned_start: SimTime,
}

/// Raised by the engine when a running service invocation *fails* (fault
/// injection: a transient fault or an executing-machine crash killed it).
/// The node is back in the ready state; the scheduler decides what to do
/// with it via [`Scheduler::on_node_failure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// The request whose node failed.
    pub request: RequestId,
    /// DAG node index that failed.
    pub node: usize,
    /// Machine it was executing on.
    pub machine: MachineId,
    /// How many times this node had already been attempted *before* this
    /// failure (0 on the first failure).
    pub attempt: u32,
    /// When the failure surfaced.
    pub at: SimTime,
}

/// Corrective actions a self-healing scheduler may return from
/// [`Scheduler::on_late_invocation`], [`Scheduler::on_node_failure`], or
/// [`Scheduler::on_machine_failure`]. The engine applies them immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealingAction {
    /// Pull a planned-but-not-yet-invoked node forward: start it as soon
    /// as it is ready instead of at its original planned start (delay-slot
    /// fill with a *microservice* candidate, Section III-F).
    PromoteNode {
        /// Request owning the node.
        request: RequestId,
        /// DAG node index.
        node: usize,
        /// New (earlier) planned start.
        new_start: SimTime,
    },
    /// Multiply the resource grant of a *running* node by `factor > 1`,
    /// shortening its remaining execution proportionally to what the extra
    /// grant restores (resource stretch, Section III-F).
    StretchRunning {
        /// Request owning the running node.
        request: RequestId,
        /// DAG node index.
        node: usize,
        /// Grant multiplier (> 1).
        factor: f64,
    },
    /// Re-attempt a failed node on its planned machine after a backoff.
    Retry {
        /// Request owning the failed node.
        request: RequestId,
        /// DAG node index.
        node: usize,
        /// How long to wait before the re-attempt.
        backoff: SimDuration,
    },
    /// Move a node to a different machine with a new planned start. The
    /// scheduler has already rewritten its own ledgers/plan; this action
    /// synchronizes the engine's copy of the plan and re-arms the node's
    /// invocation events.
    Replan {
        /// Request owning the node.
        request: RequestId,
        /// DAG node index.
        node: usize,
        /// Destination machine.
        machine: MachineId,
        /// New planned start on that machine.
        new_start: SimTime,
    },
    /// Give up on a request entirely (deadline-aware load shedding or an
    /// exhausted retry budget). Running grants are released, all pending
    /// events are cancelled, and the request counts as unfinished.
    Abandon {
        /// The request to drop.
        request: RequestId,
    },
}

/// A request-scheduling scheme (Table VI). Implemented by the four
/// baselines here and by `mlp-core`'s v-MLP.
///
/// Lifecycle driven by the engine:
/// 1. [`on_arrival`](Scheduler::on_arrival) — request enters the scheme's
///    waiting queue.
/// 2. [`schedule`](Scheduler::schedule) — called after arrivals and
///    completions; returns admission plans for requests the scheme decided
///    to place now.
/// 3. [`on_span_start`](Scheduler::on_span_start) /
///    [`on_span_complete`](Scheduler::on_span_complete) — span lifecycle
///    notifications for bookkeeping.
/// 4. [`on_late_invocation`](Scheduler::on_late_invocation) — deviation
///    callback; self-healing schemes return corrective actions.
pub trait Scheduler {
    /// Scheme name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// A request arrived and awaits admission.
    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>);

    /// Admission pass: place whichever waiting requests the scheme can.
    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan>;

    /// Former admission pass with a shard worker pool. The engine no
    /// longer calls it — every round is [`schedule`](Scheduler::schedule),
    /// run on the kernel thread — and no scheme overrides it; it stays,
    /// forwarding to `schedule`, only because the repo benchmark's timing
    /// decorator still overrides it, and goes with the next change to
    /// that benchmark.
    fn schedule_parallel(
        &mut self,
        ctx: &mut SchedulerCtx<'_>,
        pool: &ShardPool,
    ) -> Vec<RequestPlan> {
        let _ = pool;
        self.schedule(ctx)
    }

    /// A node's dependencies (and their communication) have all resolved:
    /// it can physically start from `at`. Self-healing schemes use this to
    /// know how far a candidate can be advanced.
    fn on_node_ready(
        &mut self,
        _request: RequestId,
        _node: usize,
        _at: SimTime,
        _ctx: &mut SchedulerCtx<'_>,
    ) {
    }

    /// A span actually invoked (started executing).
    fn on_span_start(&mut self, _request: RequestId, _node: usize, _ctx: &mut SchedulerCtx<'_>) {}

    /// A span finished. Self-healing schemes may return corrective
    /// actions — a span that completes *earlier* than its reserved budget
    /// leaves a resource vacancy that delay-slot candidates (typically its
    /// own children) can be advanced into (Section III-F).
    fn on_span_complete(
        &mut self,
        _span: &Span,
        _ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        Vec::new()
    }

    /// A whole request finished (all nodes done).
    fn on_request_complete(&mut self, _request: RequestId, _ctx: &mut SchedulerCtx<'_>) {}

    /// A planned invocation is late. Return corrective actions (empty for
    /// schemes without self-healing).
    fn on_late_invocation(
        &mut self,
        _late: LateInfo,
        _ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        Vec::new()
    }

    /// A running invocation failed (fault injection). The engine has
    /// already released its grant and reset the node to ready. Return
    /// corrective actions ([`HealingAction::Retry`] / [`Replan`](HealingAction::Replan) /
    /// [`Abandon`](HealingAction::Abandon)); if none reference the failed
    /// node or its request, the engine falls back to a bounded blind retry.
    fn on_node_failure(
        &mut self,
        _failure: NodeFailure,
        _ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        Vec::new()
    }

    /// A machine crashed. Its ledger has been wiped, every span running on
    /// it was killed (`orphans` lists them as `(request, node)` pairs), and
    /// the machine reports `is_up() == false` until it recovers. Fault-
    /// aware schemes re-plan displaced work onto surviving machines here;
    /// the default leaves recovery to the engine (wait for the machine).
    fn on_machine_failure(
        &mut self,
        _machine: MachineId,
        _orphans: &[(RequestId, usize)],
        _ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        Vec::new()
    }

    /// A request was abandoned (by this scheduler's own action or the
    /// engine's retry-budget fallback). Drop internal state and release any
    /// reservations still held for it.
    fn on_request_abandoned(&mut self, _request: RequestId, _ctx: &mut SchedulerCtx<'_>) {}

    /// The engine skipped a DAG node that will never run (brownout branch
    /// shedding under overload): it counts as done for dependency purposes
    /// and the request still completes. Schemes holding reservations for
    /// the node release them here.
    fn on_node_skipped(&mut self, _request: RequestId, _node: usize, _ctx: &mut SchedulerCtx<'_>) {}

    /// Number of requests still waiting for admission.
    fn waiting(&self) -> usize;
}
