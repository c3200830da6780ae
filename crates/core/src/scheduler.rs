//! [`VMlpScheduler`]: the full v-MLP scheme behind the common
//! [`Scheduler`] trait.

use crate::healer::top_delay_slot_candidates;
use crate::healer::{
    remaining_ideal_ms, stretch_candidates, stretch_factor, stretch_is_useful, ActiveRequest,
    DelaySlotIndex, NodeState,
};
use crate::organizer::{DtPolicy, OrganizerPolicy};
use crate::reorder_index::ReorderIndex;
use crate::volatility::Volatility;
use mlp_cluster::MachineId;
use mlp_model::VolatilityClass;
use mlp_sched::baselines::{admit_round, MAX_ADMIT_TRIES_PER_ROUND};
use mlp_sched::placement::{earliest_slot_in_cluster, plan_request, SlotTie, PLAN_HORIZON};
use mlp_sched::{
    HealingAction, LateInfo, NodeFailure, RequestInfo, RequestPlan, Scheduler, SchedulerCtx,
};
use mlp_sim::{FastHashMap, SimDuration};
use mlp_trace::metrics::names;
use mlp_trace::{Decision, DecisionKind, RequestId, Span};
use serde::{Deserialize, Serialize};

/// How many delay-slot / stretch candidates v-MLP acts on per deviation.
pub const HEAL_FANOUT: usize = 2;

/// Feature switches for v-MLP; every design decision called out in
/// DESIGN.md §6 can be ablated independently. [`VMlpConfig::paper`] is the
/// full scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VMlpConfig {
    /// Sort the waiting queue by the reorder ratio `R` (off = plain FCFS).
    pub reorder: bool,
    /// On a failed placement, advance the next request ("switch `r_i` with
    /// `r_{i+1}`"; off = head-of-line blocking).
    pub queue_switch: bool,
    /// Self-healing: fill stalls with delay-slot microservice candidates.
    pub delay_slot: bool,
    /// Self-healing: stretch executing services into idle resources.
    pub resource_stretch: bool,
    /// Δt estimation policy (Banded = Algorithm 1).
    pub dt_policy: DtPolicy,
    /// Release the unused tail of a reservation when a span finishes early
    /// (keeps the future ledger honest).
    pub trim_reservations: bool,
}

impl VMlpConfig {
    /// The paper's full v-MLP.
    pub fn paper() -> Self {
        VMlpConfig {
            reorder: true,
            queue_switch: true,
            delay_slot: true,
            resource_stretch: true,
            dt_policy: DtPolicy::Banded,
            trim_reservations: true,
        }
    }

    /// Self-organizing module only (ablation: no healing).
    pub fn without_healing() -> Self {
        VMlpConfig { delay_slot: false, resource_stretch: false, ..Self::paper() }
    }
}

impl Default for VMlpConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The volatility-aware MLP scheduler (Section III).
pub struct VMlpScheduler {
    cfg: VMlpConfig,
    /// The waiting queue: per-(shard, type) arrival-ordered deques merged
    /// lazily in reorder-ratio order (see [`crate::reorder_index`]).
    index: ReorderIndex,
    active: FastHashMap<RequestId, ActiveRequest>,
    /// Ordered hint set over future-planned, dependency-free nodes, so a
    /// late invocation's candidate search stops after [`HEAL_FANOUT`] hits
    /// instead of rescanning every active request (see
    /// [`DelaySlotIndex`]). Maintained only when `cfg.delay_slot` is on.
    delay_slots: DelaySlotIndex,
}

impl VMlpScheduler {
    /// Creates the full paper configuration.
    pub fn new() -> Self {
        Self::with_config(VMlpConfig::paper())
    }

    /// Creates a configured (possibly ablated) instance.
    pub fn with_config(cfg: VMlpConfig) -> Self {
        VMlpScheduler {
            cfg,
            index: ReorderIndex::new(),
            active: FastHashMap::default(),
            delay_slots: DelaySlotIndex::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> VMlpConfig {
        self.cfg
    }

    /// Number of admitted-but-unfinished requests (diagnostics).
    pub fn active_requests(&self) -> usize {
        self.active.len()
    }

    fn admit(&mut self, req: RequestInfo, plan: RequestPlan, ctx: &SchedulerCtx<'_>) {
        let rt = ctx.catalog.request(req.rtype);
        let deadline = req.arrival + SimDuration::from_millis_f64(rt.slo_ms);
        if self.cfg.delay_slot {
            // Root nodes are dependency-free from the moment of admission:
            // seed the delay-slot index with them. Non-roots enter when
            // their last dependency completes.
            for i in 0..plan.nodes.len() {
                if rt.dag.parents_iter(i).next().is_none() {
                    self.delay_slots.note(req.id, i, plan.nodes[i].planned_start, ctx.now);
                }
            }
        }
        self.active.insert(
            req.id,
            ActiveRequest {
                info: req,
                state: vec![NodeState::Planned; plan.nodes.len()],
                ready_at: vec![None; plan.nodes.len()],
                plan,
                deadline,
            },
        );
    }
}

impl VMlpScheduler {
    /// Tries to move each candidate `(request, node)` to the earliest slot
    /// its machine's ledger allows before its current planned start —
    /// the delay-slot fill. Only nodes that are still planned, with all
    /// dependencies complete, qualify ("candidates in the delay slot would
    /// not conflict with executing ones", Section III-F).
    fn promote_candidates(
        &mut self,
        candidates: &[(RequestId, usize)],
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let mut actions = Vec::new();
        for &(rid, node) in candidates {
            let Some(ar) = self.active.get(&rid) else { continue };
            if ar.state[node] != NodeState::Planned || !ar.deps_done(node, ctx.catalog) {
                continue;
            }
            let np = ar.plan.nodes[node];
            if np.planned_start <= ctx.now {
                continue;
            }
            // The node cannot physically start before its dependencies'
            // messages arrive: floor the promotion at the known readiness
            // time, or at the expected communication delay when readiness
            // is still in flight. Promoting below the floor would leave a
            // reservation the node cannot honor — and a planned start the
            // deviation detector would immediately flag as late again.
            let floor = match ar.ready_at[node] {
                Some(at) => at.max(ctx.now),
                None => {
                    let dag = &ctx.catalog.request(ar.info.rtype).dag;
                    let callee = ctx.catalog.services.get(dag.node(node).service);
                    ctx.now + ctx.net.expected_delay(false, callee.comm)
                }
            };
            if floor >= np.planned_start {
                continue;
            }
            // Only promote if the node's machine can actually run it
            // earlier than planned. The search window excludes the node's
            // own reservation, which still sits at the old position — a
            // slot found before `planned_start` is therefore additional
            // free capacity.
            let machine = ctx.cluster.machine(np.machine);
            let slot =
                machine.ledger.earliest_fit(floor, np.planned_start, np.budget, np.grant, None);
            let Some(new_start) = slot else { continue };
            if new_start >= np.planned_start {
                continue;
            }
            // Only act on *meaningful* gains: moving a node a sliver
            // earlier buys nothing but churn (and each move risks landing
            // on a machine whose actual state has drifted from its plan).
            let gain = np.planned_start.since(new_start);
            if gain < np.budget.mul_f64(0.25) {
                continue;
            }
            // A near-term start must also clear the machine's *actual*
            // occupancy — promoting into a ledger gap that is physically
            // busy (services overrunning their budgets) would create the
            // very contention healing is meant to avoid.
            let imminent = new_start.since(ctx.now) < np.budget;
            if imminent && !np.grant.fits_within(&machine.actual_free()) {
                continue;
            }
            // Move the reservation.
            let m = ctx.cluster.machine_mut(np.machine);
            if np.reserved {
                m.ledger.unreserve(np.planned_start, np.planned_end(), np.grant);
            }
            m.ledger.reserve(new_start, new_start + np.budget, np.grant);
            let ar = self.active.get_mut(&rid).expect("checked above");
            ar.plan.nodes[node].planned_start = new_start;
            ar.plan.nodes[node].reserved = true;
            // Re-key the delay-slot hint under the new start; the entry at
            // the old start is now stale and gets dropped lazily.
            self.delay_slots.note(rid, node, new_start, ctx.now);
            ctx.metrics.inc(names::DELAY_SLOT_FILLS);
            ctx.audit.record(
                Decision::new(ctx.now, DecisionKind::DelaySlotFill, "promoted-into-stall")
                    .request(rid)
                    .node(node)
                    .machine(np.machine)
                    .value(gain.as_millis_f64()),
            );
            actions.push(HealingAction::PromoteNode { request: rid, node, new_start });
        }
        actions
    }

    /// Opens a reorder-ranked round: revalidates the index's cached ratio
    /// terms against the profile store — terms must be current before any
    /// ranked pop, even with a single waiter — publishing each recompute
    /// as a metric tick and (when tracing) a
    /// [`DecisionKind::IndexInvalidate`] record, then names the request
    /// the ranking put at the head of a contended queue.
    fn refresh_index_terms(&mut self, ctx: &SchedulerCtx<'_>) {
        let invalidated = self.index.refresh_terms(ctx);
        if !invalidated.is_empty() {
            ctx.metrics.add(names::INDEX_INVALIDATIONS, invalidated.len() as u64);
        }
        if !ctx.audit.is_enabled() {
            return;
        }
        for (rtype, version) in invalidated {
            ctx.audit.record(
                Decision::new(ctx.now, DecisionKind::IndexInvalidate, "profile-version-bump")
                    .value(rtype.0 as f64)
                    .rank(version as f64),
            );
        }
        if self.index.len() > 1 {
            if let Some((rank, head)) = self.index.peek_max(ctx.now) {
                ctx.audit.record(
                    Decision::new(ctx.now, DecisionKind::Reorder, "reorder-ratio-sort")
                        .request(head.id)
                        .rank(rank)
                        .value(self.index.len() as f64),
                );
            }
        }
    }

    /// Files `req` in the waiting index under its home shard — the same
    /// partition the sharded round pops by. A deferred request rejoins its
    /// type queue at the exact (arrival, id) position the pop removed it
    /// from.
    fn enqueue(&mut self, req: RequestInfo, ctx: &SchedulerCtx<'_>) {
        let shard = ctx.cluster.home_shard(req.id.0).0 as usize;
        self.index.insert(req, shard);
    }

    /// Algorithm 1's per-request step, the one decision point of every
    /// round: size Δt by the request's volatility band, plan it — on its
    /// home shard, spilling to the others only when `overflow` — record
    /// the Δt tier that shaped the plan (the band is a pure function of
    /// `V_r`, the root budget its output) or the deferral under
    /// `defer_reason`, and admit a planned request.
    fn try_admit(
        &mut self,
        req: RequestInfo,
        overflow: bool,
        defer_reason: &'static str,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Option<RequestPlan> {
        let policy =
            organizer_policy(self.cfg.dt_policy, ctx.catalog.request(req.rtype).volatility);
        // Ledger placement never reads the round-robin cursor.
        let plan = plan_request(&req, &policy, overflow, &mut 0, ctx);
        if ctx.audit.is_enabled() {
            let d = match &plan {
                Some(plan) => Decision::new(ctx.now, DecisionKind::BudgetTier, "banded-dt")
                    .budget_ms(plan.nodes.first().map_or(0.0, |np| np.budget.as_millis_f64())),
                None => Decision::new(ctx.now, DecisionKind::Defer, defer_reason),
            };
            ctx.audit.record(d.request(req.id).vr(policy.vr.value()));
        }
        if let Some(plan) = &plan {
            self.admit(req, plan.clone(), ctx);
        }
        plan
    }

    /// The whole-cluster admission step of the sequential round and the
    /// overflow pass: admits `req` and returns its plan, or counts the
    /// deferral ("if this request is not totally assigned … switch `r_i`
    /// with `r_{i+1}`") and returns `None`.
    fn admit_or_defer(
        &mut self,
        req: RequestInfo,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Option<RequestPlan> {
        let queue_switch = self.cfg.queue_switch;
        let defer_reason = if queue_switch { "queue-switch" } else { "head-of-line-block" };
        let plan = self.try_admit(req, true, defer_reason, ctx);
        if plan.is_none() && queue_switch {
            ctx.metrics.inc(names::QUEUE_SWITCHES);
        }
        plan
    }

    /// The sharded round (`K > 1` with queue switching; DESIGN.md §16).
    /// Each shard with queued work, in ascending shard order, pops its own
    /// queue — the global order restricted to the shard — and plans every
    /// request on its home shard only. A request the home shard cannot
    /// host (`Defer "no-home-shard-slot"`) rides to one whole-cluster
    /// overflow pass after the last shard, and so does everything behind a
    /// shard's [`MAX_ADMIT_TRIES_PER_ROUND`]-th failure, untried. Past the
    /// overflow pass's own failure cap the rest requeue untried.
    fn schedule_sharded(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        let rank_at = self.cfg.reorder.then_some(ctx.now);
        let mut plans = Vec::new();
        let mut overflow: Vec<RequestInfo> = Vec::new();
        for shard in 0..ctx.cluster.shard_count() {
            if !self.index.shard_has_work(shard) {
                continue;
            }
            let (admitted, failed) = admit_round(
                self,
                |s| s.index.pop_shard(shard, rank_at),
                |s, req| s.try_admit(req, false, "no-home-shard-slot", ctx),
                MAX_ADMIT_TRIES_PER_ROUND,
            );
            plans.extend(admitted);
            overflow.extend(failed);
            overflow.extend(std::iter::from_fn(|| self.index.pop_shard(shard, rank_at)));
        }
        let mut untried = overflow.into_iter();
        let (admitted, failed) = admit_round(
            self,
            |_| untried.next(),
            |s, req| s.admit_or_defer(req, ctx),
            MAX_ADMIT_TRIES_PER_ROUND,
        );
        plans.extend(admitted);
        for req in failed.into_iter().chain(untried) {
            self.enqueue(req, ctx);
        }
        plans
    }
}

impl Default for VMlpScheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// The admission policy for one request (Algorithm 1's banded Δt).
fn organizer_policy(dt_policy: DtPolicy, volatility: f64) -> OrganizerPolicy {
    OrganizerPolicy { dt_policy, ..OrganizerPolicy::new(Volatility::new(volatility)) }
}

impl Scheduler for VMlpScheduler {
    fn name(&self) -> &'static str {
        "v-MLP"
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        self.enqueue(req, ctx);
    }

    /// The admission round (Algorithm 1). Lines 1–2, the machine status
    /// "refresh", are the ledger state itself, which completions and trims
    /// keep current; the queue is walked by popping the index — highest
    /// reorder ratio first, or oldest first under the FCFS ablation. A
    /// sharded cluster runs the sharded round (`schedule_sharded`);
    /// one shard, and the head-of-line-blocking ablation (an inherently
    /// global-order semantic), run the sequential one below.
    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        if self.index.is_empty() {
            return Vec::new();
        }
        if self.cfg.reorder {
            self.refresh_index_terms(ctx);
        }
        if ctx.cluster.shard_count() > 1 && self.cfg.queue_switch {
            return self.schedule_sharded(ctx);
        }
        // Head-of-line blocking ablation: the first failure ends the round
        // and everything behind the blocked head stays queued.
        let cap = if self.cfg.queue_switch { MAX_ADMIT_TRIES_PER_ROUND } else { 1 };
        let rank_at = self.cfg.reorder.then_some(ctx.now);
        let (plans, deferred) =
            admit_round(self, |s| s.index.pop(rank_at), |s, req| s.admit_or_defer(req, ctx), cap);
        for req in deferred {
            self.enqueue(req, ctx);
        }
        plans
    }

    fn on_node_ready(
        &mut self,
        request: RequestId,
        node: usize,
        at: mlp_sim::SimTime,
        _ctx: &mut SchedulerCtx<'_>,
    ) {
        if let Some(ar) = self.active.get_mut(&request) {
            ar.ready_at[node] = Some(at);
        }
    }

    fn on_span_start(&mut self, request: RequestId, node: usize, _ctx: &mut SchedulerCtx<'_>) {
        if let Some(ar) = self.active.get_mut(&request) {
            ar.state[node] = NodeState::Running;
        }
    }

    fn on_span_complete(&mut self, span: &Span, ctx: &mut SchedulerCtx<'_>) -> Vec<HealingAction> {
        let Some(ar) = self.active.get_mut(&span.request) else { return Vec::new() };
        ar.state[span.dag_node] = NodeState::Done;
        let np = ar.plan.nodes[span.dag_node];
        let finished_early = span.end < np.planned_end();
        // Trim the unused tail of the reservation so future placements see
        // the real free capacity.
        if self.cfg.trim_reservations && np.reserved && finished_early {
            let from = span.end.max(np.planned_start);
            if from < np.planned_end() {
                ctx.cluster.machine_mut(np.machine).ledger.unreserve(
                    from,
                    np.planned_end(),
                    np.grant,
                );
                // Record the trimmed window so a later un-reserve (e.g.
                // plan rollback) cannot double-free: mark as unreserved.
                ar.plan.nodes[span.dag_node].reserved = false;
            }
        }
        let rtype = ar.info.rtype;
        let rid = span.request;
        // This node completing may have freed its children of their last
        // dependency — the moment they become delay-slot candidates.
        if self.cfg.delay_slot {
            let dag = &ctx.catalog.request(rtype).dag;
            for c in dag.children_iter(span.dag_node) {
                if ar.state[c] == NodeState::Planned && ar.deps_done(c, ctx.catalog) {
                    self.delay_slots.note(rid, c, ar.plan.nodes[c].planned_start, ctx.now);
                }
            }
        }
        // Early completion leaves a resource vacancy in the pipeline: fill
        // the delay slot by advancing this node's dependence-free children
        // (the most common microservice candidates — Section III-F).
        if !(self.cfg.delay_slot && finished_early) {
            return Vec::new();
        }
        let children = ctx.catalog.request(rtype).dag.children(span.dag_node);
        let candidates: Vec<(RequestId, usize)> = children.into_iter().map(|c| (rid, c)).collect();
        self.promote_candidates(&candidates, ctx)
    }

    fn on_request_complete(&mut self, request: RequestId, _ctx: &mut SchedulerCtx<'_>) {
        self.active.remove(&request);
    }

    fn on_late_invocation(
        &mut self,
        late: LateInfo,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        ctx.metrics.inc(names::LATE_INVOCATIONS);
        let mut actions = Vec::new();

        // --- Delay slot: promote dependence-free planned microservices ---
        if self.cfg.delay_slot {
            let found = self.delay_slots.top_k(
                &self.active,
                (late.request, late.node),
                ctx.now,
                ctx.catalog,
                HEAL_FANOUT,
            );
            // Every candidate transition notes itself into the index, so
            // the lazy walk must match the full rescan bit-for-bit. The
            // whole test corpus runs with debug assertions on, turning
            // each late invocation into an equivalence check.
            debug_assert_eq!(
                found,
                top_delay_slot_candidates(
                    &self.active,
                    (late.request, late.node),
                    ctx.now,
                    ctx.catalog,
                    HEAL_FANOUT,
                ),
                "delay-slot index diverged from the scan reference"
            );
            let cands: Vec<(RequestId, usize)> =
                found.into_iter().map(|c| (c.request, c.node)).collect();
            actions = self.promote_candidates(&cands, ctx);
        }

        // --- Resource stretch: when the delay slot found nothing ---------
        // Stretch costs resources other services may need; it pays off when
        // deadlines are actually at risk. Gate it on the late request
        // having burned a sizable share of its SLO budget (the EDF spirit
        // of the paper's priority rule).
        let at_risk = self
            .active
            .get(&late.request)
            .map(|ar| {
                let elapsed = ctx.now.since(ar.info.arrival);
                let slo = ar.deadline.since(ar.info.arrival);
                elapsed.as_micros() * 2 >= slo.as_micros()
            })
            .unwrap_or(false);
        if actions.is_empty() && self.cfg.resource_stretch && at_risk {
            let cands = stretch_candidates(&self.active, late.machine, ctx.catalog);
            let free = ctx.cluster.machine(late.machine).actual_free();
            for c in cands.into_iter().take(HEAL_FANOUT) {
                let ar = &self.active[&c.request];
                let dag = &ctx.catalog.request(ar.info.rtype).dag;
                let svc = ctx.catalog.services.get(dag.node(c.node).service);
                if !stretch_is_useful(svc.sensitivity) {
                    continue;
                }
                let factor = stretch_factor(free, svc.demand);
                if factor > 1.05 {
                    ctx.metrics.inc(names::RESOURCE_STRETCHES);
                    ctx.audit.record(
                        Decision::new(ctx.now, DecisionKind::Stretch, "idle-headroom-stretch")
                            .request(c.request)
                            .node(c.node)
                            .machine(late.machine)
                            .value(factor),
                    );
                    actions.push(HealingAction::StretchRunning {
                        request: c.request,
                        node: c.node,
                        factor,
                    });
                }
            }
        }

        actions
    }

    fn on_node_failure(
        &mut self,
        failure: NodeFailure,
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        let Some(ar) = self.active.get_mut(&failure.request) else { return Vec::new() };
        // The engine already reset the node to ready; mirror that here.
        ar.state[failure.node] = NodeState::Planned;
        // Back in the Planned state, the node is index-eligible again
        // (no-op in practice: a node that already started has a planned
        // start in the past, which `note` filters).
        if self.cfg.delay_slot {
            let start = ar.plan.nodes[failure.node].planned_start;
            self.delay_slots.note(failure.request, failure.node, start, ctx.now);
        }
        let ar = &self.active[&failure.request];

        // Deadline-aware shedding: if even an ideal fault-free re-execution
        // cannot meet the SLO, the request is dead weight — drop it now so
        // its reservations fund salvageable work instead.
        let remaining = SimDuration::from_millis_f64(remaining_ideal_ms(ar, ctx.catalog));
        if ctx.now + remaining > ar.deadline {
            ctx.audit.record(
                Decision::new(ctx.now, DecisionKind::Shed, "deadline-hopeless")
                    .request(failure.request)
                    .node(failure.node)
                    .budget_ms(remaining.as_millis_f64()),
            );
            return vec![HealingAction::Abandon { request: failure.request }];
        }

        // Volatility-aware retry budget: a high-V_r node re-runs with a
        // long, uncertain tail, so its retries are rationed and backed off
        // harder; a low-V_r node re-runs predictably and cheaply.
        let rt = ctx.catalog.request(ar.info.rtype);
        let (budget, base_ms) = match rt.class() {
            VolatilityClass::Low => (4u32, 1.0),
            VolatilityClass::Mid => (3u32, 2.0),
            VolatilityClass::High => (2u32, 4.0),
        };
        if failure.attempt + 1 >= budget {
            ctx.audit.record(
                Decision::new(ctx.now, DecisionKind::Shed, "volatility-retry-budget")
                    .request(failure.request)
                    .node(failure.node)
                    .value((failure.attempt + 1) as f64),
            );
            return vec![HealingAction::Abandon { request: failure.request }];
        }
        let backoff =
            SimDuration::from_millis_f64(base_ms * (1u64 << failure.attempt.min(6)) as f64);
        ctx.audit.record(
            Decision::new(ctx.now, DecisionKind::Retry, "volatility-backoff")
                .request(failure.request)
                .node(failure.node)
                .value(backoff.as_millis_f64()),
        );
        vec![HealingAction::Retry { request: failure.request, node: failure.node, backoff }]
    }

    fn on_machine_failure(
        &mut self,
        machine: MachineId,
        orphans: &[(RequestId, usize)],
        ctx: &mut SchedulerCtx<'_>,
    ) -> Vec<HealingAction> {
        // Orphaned spans are no longer running anywhere; their dependencies
        // were complete when they started, so they are ready again now.
        for &(rid, node) in orphans {
            if let Some(ar) = self.active.get_mut(&rid) {
                ar.state[node] = NodeState::Planned;
                ar.ready_at[node] = Some(ctx.now);
                // Index-eligible again (filtered unless the start is
                // somehow still in the future).
                if self.cfg.delay_slot {
                    self.delay_slots.note(rid, node, ar.plan.nodes[node].planned_start, ctx.now);
                }
            }
        }
        // Every not-done node planned on the dead machine lost its
        // reservation when the engine wiped the ledger. Clear the flags so
        // later trims/rollbacks cannot double-free, then re-admit each node
        // through the ledger placement pass over the surviving machines.
        let mut displaced: Vec<(RequestId, usize)> = Vec::new();
        for (&rid, ar) in self.active.iter_mut() {
            for (node, np) in ar.plan.nodes.iter_mut().enumerate() {
                if np.machine == machine && ar.state[node] != NodeState::Done {
                    np.reserved = false;
                    displaced.push((rid, node));
                }
            }
        }
        displaced.sort(); // HashMap iteration order is nondeterministic

        let mut actions = Vec::new();
        for (rid, node) in displaced {
            let (np, floor, state) = {
                let ar = &self.active[&rid];
                let floor = match ar.ready_at[node] {
                    Some(at) => at.max(ctx.now),
                    None => ctx.now,
                };
                (ar.plan.nodes[node], floor, ar.state[node])
            };
            if state != NodeState::Planned {
                continue;
            }
            // Earliest slot on a live machine — the admission pass's scan
            // (shard-first from the request's home shard, with cross-shard
            // overflow: a crash must not turn re-planning back into a
            // whole-cluster scan), minus the worst-fit tie-break.
            let best = earliest_slot_in_cluster(
                ctx,
                ctx.cluster.home_shard(rid.0),
                floor,
                ctx.now + PLAN_HORIZON,
                np.budget,
                np.grant,
                SlotTie::FirstInScan,
            );
            // No live machine fits: leave the node to the engine's naive
            // wait-for-recovery path.
            let Some((new_machine, new_start)) = best else { continue };
            let reserve = np.budget > SimDuration::ZERO;
            if reserve {
                ctx.cluster.machine_mut(new_machine).ledger.reserve(
                    new_start,
                    new_start + np.budget,
                    np.grant,
                );
            }
            let ar = self.active.get_mut(&rid).expect("present above");
            ar.plan.nodes[node].machine = new_machine;
            ar.plan.nodes[node].planned_start = new_start;
            ar.plan.nodes[node].reserved = reserve;
            // Re-key the delay-slot hint under the post-crash start.
            if self.cfg.delay_slot {
                self.delay_slots.note(rid, node, new_start, ctx.now);
            }
            ctx.metrics.inc(names::CRASH_REPLANS);
            ctx.audit.record(
                Decision::new(ctx.now, DecisionKind::CrashReplan, "moved-off-dead-machine")
                    .request(rid)
                    .node(node)
                    .machine(new_machine),
            );
            actions.push(HealingAction::Replan {
                request: rid,
                node,
                machine: new_machine,
                new_start,
            });
        }
        actions
    }

    fn on_node_skipped(&mut self, request: RequestId, node: usize, ctx: &mut SchedulerCtx<'_>) {
        let Some(ar) = self.active.get_mut(&request) else { return };
        if ar.state[node] == NodeState::Done {
            return;
        }
        ar.state[node] = NodeState::Done;
        // A skip is a completion as far as dependencies are concerned:
        // children may have just become delay-slot candidates.
        if self.cfg.delay_slot {
            let dag = &ctx.catalog.request(ar.info.rtype).dag;
            for c in dag.children_iter(node) {
                if ar.state[c] == NodeState::Planned && ar.deps_done(c, ctx.catalog) {
                    self.delay_slots.note(request, c, ar.plan.nodes[c].planned_start, ctx.now);
                }
            }
        }
        // The node will never execute: give back its future reservation and
        // mark it unreserved so completion trimming / abandon rollback
        // cannot double-free the window.
        let np = ar.plan.nodes[node];
        if np.reserved && np.budget > SimDuration::ZERO {
            ctx.cluster.machine_mut(np.machine).ledger.unreserve(
                np.planned_start,
                np.planned_end(),
                np.grant,
            );
            ar.plan.nodes[node].reserved = false;
        }
    }

    fn on_request_abandoned(&mut self, request: RequestId, ctx: &mut SchedulerCtx<'_>) {
        let Some(ar) = self.active.remove(&request) else { return };
        // Give back the future reservations of nodes that will never run.
        for (node, np) in ar.plan.nodes.iter().enumerate() {
            if ar.state[node] != NodeState::Done && np.reserved && np.budget > SimDuration::ZERO {
                ctx.cluster.machine_mut(np.machine).ledger.unreserve(
                    np.planned_start,
                    np.planned_end(),
                    np.grant,
                );
            }
        }
    }

    fn waiting(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::{Cluster, MachineId};
    use mlp_model::RequestTypeId;
    use mlp_model::{RequestCatalog, ResourceVector};
    use mlp_net::NetworkModel;
    use mlp_sim::SimTime;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore};

    struct H {
        cluster: Cluster,
        catalog: RequestCatalog,
        net: NetworkModel,
        profiles: ProfileStore,
        metrics: MetricsRegistry,
        audit: AuditLog,
    }

    impl H {
        fn new(machines: usize) -> Self {
            H {
                cluster: Cluster::homogeneous(
                    machines,
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                ),
                catalog: RequestCatalog::paper(),
                net: NetworkModel::paper_default(),
                profiles: ProfileStore::new(),
                metrics: MetricsRegistry::new(),
                audit: AuditLog::enabled(),
            }
        }
        fn ctx(&mut self, now_ms: u64) -> SchedulerCtx<'_> {
            SchedulerCtx {
                now: SimTime::from_millis(now_ms),
                cluster: &mut self.cluster,
                profiles: &self.profiles,
                catalog: &self.catalog,
                net: &self.net,
                metrics: &self.metrics,
                audit: &self.audit,
            }
        }
        fn req(&self, id: u64, name: &str, arrival_ms: u64) -> RequestInfo {
            RequestInfo {
                id: RequestId(id),
                rtype: self.catalog.request_by_name(name).unwrap().id,
                arrival: SimTime::from_millis(arrival_ms),
            }
        }
    }

    #[test]
    fn admits_and_tracks_requests() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let r = h.req(1, "basicSearch", 0);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        assert_eq!(s.waiting(), 1);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 1);
        assert_eq!(s.waiting(), 0);
        assert_eq!(s.active_requests(), 1);
        let dag = &h.catalog.request_by_name("basicSearch").unwrap().dag;
        assert!(plans[0].respects_dag(dag));
        for np in &plans[0].nodes {
            assert!(np.reserved, "v-MLP reserves its budgets");
        }
    }

    #[test]
    fn lifecycle_to_completion() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let r = h.req(1, "read-user-timeline", 0);
        let rut_dag = h.catalog.request_by_name("read-user-timeline").unwrap().dag.clone();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        let plan = &plans[0];
        for (i, np) in plan.nodes.iter().enumerate() {
            s.on_span_start(RequestId(1), i, &mut ctx);
            let span = Span {
                request: RequestId(1),
                request_type: RequestTypeId(0),
                service: rut_dag.node(i).service,
                dag_node: i,
                machine: np.machine,
                planned_start: np.planned_start,
                start: np.planned_start,
                end: np.planned_end(),
                satisfaction: 1.0,
            };
            s.on_span_complete(&span, &mut ctx);
        }
        s.on_request_complete(RequestId(1), &mut ctx);
        assert_eq!(s.active_requests(), 0);
    }

    #[test]
    fn early_completion_trims_reservation() {
        let mut h = H::new(1);
        let mut s = VMlpScheduler::new();
        let r = h.req(1, "read-user-timeline", 0);
        let rut_dag = h.catalog.request_by_name("read-user-timeline").unwrap().dag.clone();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        let np = plans[0].nodes[0];
        assert!(np.budget > SimDuration::from_millis(1));
        // Complete node 0 immediately (far before its planned end).
        s.on_span_start(RequestId(1), 0, &mut ctx);
        let early_end = np.planned_start + SimDuration::from_micros(100);
        let span = Span {
            request: RequestId(1),
            request_type: RequestTypeId(0),
            service: rut_dag.node(0).service,
            dag_node: 0,
            machine: np.machine,
            planned_start: np.planned_start,
            start: np.planned_start,
            end: early_end,
            satisfaction: 1.0,
        };
        s.on_span_complete(&span, &mut ctx);
        // The tail of the window is free again.
        let avail = ctx.cluster.machine(np.machine).ledger.available(early_end, np.planned_end());
        assert!(np.grant.fits_within(&avail), "trimmed tail should be free");
    }

    #[test]
    fn unplaceable_requests_defer_and_count_switches() {
        let mut h = H::new(1);
        // Saturate the machine's future.
        h.cluster.machine_mut(MachineId(0)).ledger.reserve(
            SimTime::ZERO,
            SimTime::from_secs(120),
            ResourceVector::new(6.0, 32_000.0, 1_000.0),
        );
        let mut s = VMlpScheduler::new();
        let r1 = h.req(1, "basicSearch", 0);
        let r2 = h.req(2, "basicSearch", 1);
        let mut ctx = h.ctx(1);
        s.on_arrival(r1, &mut ctx);
        s.on_arrival(r2, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert!(plans.is_empty());
        assert_eq!(s.waiting(), 2, "both deferred");
        assert_eq!(h.metrics.counter(names::QUEUE_SWITCHES), 2);
        assert_eq!(h.audit.count(DecisionKind::Defer), 2, "each deferral audited");
        assert_eq!(h.audit.count(DecisionKind::BudgetTier), 0, "nothing admitted");
    }

    #[test]
    fn a_saturated_round_stops_at_the_failure_cap() {
        // (shards, queue_switch) → (Defer records, queue switches). With
        // two shards each shard defers 16 home-shard misses, sends the
        // rest untried to overflow, and the overflow pass stops at its
        // own 16th failure.
        for (shards, queue_switch, defers, switches) in
            [(1, true, 16, 16), (1, false, 1, 0), (2, true, 48, 16)]
        {
            let mut h = H::new(4);
            h.cluster = h.cluster.clone().with_shards(shards);
            for m in h.cluster.machines_mut() {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(120),
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                );
            }
            let mut s =
                VMlpScheduler::with_config(VMlpConfig { queue_switch, ..VMlpConfig::paper() });
            let reqs: Vec<RequestInfo> = (0..40).map(|id| h.req(id, "basicSearch", 0)).collect();
            let mut ctx = h.ctx(1);
            for r in reqs {
                s.on_arrival(r, &mut ctx);
            }
            assert!(s.schedule(&mut ctx).is_empty());
            let case = format!("shards={shards} queue_switch={queue_switch}");
            assert_eq!(h.audit.count(DecisionKind::Defer), defers, "{case}");
            assert_eq!(h.metrics.counter(names::QUEUE_SWITCHES), switches, "{case}");
            assert_eq!(s.waiting(), 40, "{case}: every request stays queued");
        }
    }

    #[test]
    fn late_invocation_promotes_delay_slot_candidate() {
        let mut h = H::new(4);
        let mut s = VMlpScheduler::new();
        // Two requests: one whose root finished (freeing a candidate),
        // one whose node will be late.
        let ra = h.req(1, "read-user-timeline", 0);
        let rb = h.req(2, "basicSearch", 0);
        let rut_dag = h.catalog.request_by_name("read-user-timeline").unwrap().dag.clone();
        let mut ctx = h.ctx(0);
        s.on_arrival(ra, &mut ctx);
        s.on_arrival(rb, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 2);

        // Mark request 1's root as done early: its child (node 1) is a
        // dependence-free delay-slot candidate, which the early-completion
        // path promotes into the vacated reservation.
        let plan1 = plans.iter().find(|p| p.request == RequestId(1)).unwrap().clone();
        s.on_span_start(RequestId(1), 0, &mut ctx);
        let span = Span {
            request: RequestId(1),
            request_type: RequestTypeId(0),
            service: rut_dag.node(0).service,
            dag_node: 0,
            machine: plan1.nodes[0].machine,
            planned_start: plan1.nodes[0].planned_start,
            start: plan1.nodes[0].planned_start,
            end: plan1.nodes[0].planned_start + SimDuration::from_micros(10),
            satisfaction: 1.0,
        };
        let actions = s.on_span_complete(&span, &mut ctx);
        let promoted = actions.iter().any(|a| {
            matches!(a, HealingAction::PromoteNode { request, node, .. }
                if *request == RequestId(1) && *node == 1)
        });
        assert!(promoted, "expected a delay-slot promotion, got {actions:?}");
        assert!(ctx.metrics.counter(names::DELAY_SLOT_FILLS) >= 1);
        assert!(ctx.audit.count(DecisionKind::DelaySlotFill) >= 1, "promotion audited");

        // A later deviation of request 2 finds node 1 already promoted
        // (its planned start is at its readiness floor), so the delay
        // slot does not move it again.
        let plan2 = plans.iter().find(|p| p.request == RequestId(2)).unwrap().clone();
        let late = LateInfo {
            request: RequestId(2),
            node: 0,
            machine: plan2.nodes[0].machine,
            planned_start: plan2.nodes[0].planned_start,
        };
        let again = s.on_late_invocation(late, &mut ctx);
        assert!(
            !again.iter().any(|a| matches!(a, HealingAction::PromoteNode { request, node, .. }
                if *request == RequestId(1) && *node == 1)),
            "node should not be promoted twice: {again:?}"
        );
    }

    #[test]
    fn stretch_fires_when_no_delay_slot_candidates() {
        let mut h = H::new(1);
        let mut s = VMlpScheduler::new();
        let r = h.req(1, "basicSearch", 0);
        let slo_ms = h.catalog.request_by_name("basicSearch").unwrap().slo_ms;
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        let plan = plans[0].clone();
        // Put node 0 in Running state on machine 0 and occupy few
        // resources so the machine has idle headroom.
        s.on_span_start(RequestId(1), 0, &mut ctx);
        let _ = ctx;
        // Stretch only engages once the late request is at deadline risk
        // (more than half its SLO budget burned).
        let mut ctx = h.ctx((slo_ms * 0.75) as u64);
        let _ = ctx
            .cluster
            .machine_mut(plan.nodes[0].machine)
            .occupy(ResourceVector::new(0.5, 128.0, 25.0));
        let late = LateInfo {
            request: RequestId(1),
            node: 1,
            machine: plan.nodes[0].machine,
            planned_start: plan.nodes[1].planned_start,
        };
        let actions = s.on_late_invocation(late, &mut ctx);
        assert!(
            actions.iter().any(
                |a| matches!(a, HealingAction::StretchRunning { factor, .. } if *factor > 1.0)
            ),
            "expected a stretch, got {actions:?}"
        );
        assert!(h.metrics.counter(names::RESOURCE_STRETCHES) >= 1);
    }

    #[test]
    fn ablated_config_disables_healing() {
        let mut h = H::new(2);
        let mut s = VMlpScheduler::with_config(VMlpConfig::without_healing());
        let r = h.req(1, "basicSearch", 0);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        s.on_span_start(RequestId(1), 0, &mut ctx);
        let late = LateInfo {
            request: RequestId(1),
            node: 1,
            machine: plans[0].nodes[1].machine,
            planned_start: plans[0].nodes[1].planned_start,
        };
        let actions = s.on_late_invocation(late, &mut ctx);
        assert!(actions.is_empty());
        // Late invocations are still counted for diagnostics.
        assert_eq!(h.metrics.counter(names::LATE_INVOCATIONS), 1);
    }

    #[test]
    fn fcfs_ablation_preserves_arrival_order() {
        let mut h = H::new(8);
        let mut cfg = VMlpConfig::paper();
        cfg.reorder = false;
        let mut s = VMlpScheduler::with_config(cfg);
        let r2 = h.req(2, "basicSearch", 50);
        let r1 = h.req(1, "compose-post", 10);
        let mut ctx = h.ctx(100);
        // Arrive out of id order.
        s.on_arrival(r2, &mut ctx);
        s.on_arrival(r1, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans[0].request, RequestId(1), "earlier arrival admits first");
    }

    #[test]
    fn saturated_home_shard_defers_then_overflows() {
        let mut h = H::new(4);
        h.cluster = h.cluster.clone().with_shards(2);
        // Request 1 is homed on shard 1 (the odd machine ids): fill it.
        for m in h.cluster.machines_mut().iter_mut().filter(|m| m.id.0 % 2 == 1) {
            m.ledger.reserve(
                SimTime::ZERO,
                SimTime::from_secs(120),
                ResourceVector::new(6.0, 32_000.0, 1_000.0),
            );
        }
        let mut s = VMlpScheduler::new();
        let r = h.req(1, "basicSearch", 0);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 1, "the overflow pass admits it");
        for np in &plans[0].nodes {
            assert_eq!(h.cluster.shard_of(np.machine), mlp_cluster::ShardId(0));
        }
        let trail: Vec<(DecisionKind, &str)> =
            h.audit.decisions().iter().map(|d| (d.kind, d.reason)).collect();
        assert_eq!(
            trail,
            [(DecisionKind::Defer, "no-home-shard-slot"), (DecisionKind::BudgetTier, "banded-dt")]
        );
        // Counted per placement: every node of the plan spilled once.
        assert_eq!(h.metrics.counter(names::SHARD_OVERFLOWS), plans[0].nodes.len() as u64);
        assert_eq!(h.metrics.counter(names::QUEUE_SWITCHES), 0, "a home-shard miss is no switch");
        assert_eq!(s.waiting(), 0);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(VMlpScheduler::new().name(), "v-MLP");
    }

    fn admit_one(h: &mut H, s: &mut VMlpScheduler, id: u64, name: &str) -> RequestPlan {
        let r = h.req(id, name, 0);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 1, "request must admit");
        plans.into_iter().next().unwrap()
    }

    #[test]
    fn first_node_failure_retries_with_backoff() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let _ = admit_one(&mut h, &mut s, 1, "basicSearch");
        let mut ctx = h.ctx(10);
        let failure = NodeFailure {
            request: RequestId(1),
            node: 0,
            machine: MachineId(0),
            attempt: 0,
            at: SimTime::from_millis(10),
        };
        let actions = s.on_node_failure(failure, &mut ctx);
        assert_eq!(actions.len(), 1);
        match actions[0] {
            HealingAction::Retry { request, node, backoff } => {
                assert_eq!(request, RequestId(1));
                assert_eq!(node, 0);
                assert!(backoff > SimDuration::ZERO, "retry must back off");
            }
            ref other => panic!("expected Retry, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_retry_budget_abandons() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let _ = admit_one(&mut h, &mut s, 1, "basicSearch");
        let mut ctx = h.ctx(10);
        let failure = NodeFailure {
            request: RequestId(1),
            node: 0,
            machine: MachineId(0),
            attempt: 9, // well past any volatility class's budget
            at: SimTime::from_millis(10),
        };
        let actions = s.on_node_failure(failure, &mut ctx);
        assert_eq!(actions, vec![HealingAction::Abandon { request: RequestId(1) }]);
    }

    #[test]
    fn hopeless_deadline_sheds_immediately() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let _ = admit_one(&mut h, &mut s, 1, "compose-post");
        // An hour after arrival every SLO is blown even under ideal re-run.
        let mut ctx = h.ctx(3_600_000);
        let failure = NodeFailure {
            request: RequestId(1),
            node: 0,
            machine: MachineId(0),
            attempt: 0,
            at: SimTime::from_millis(3_600_000),
        };
        let actions = s.on_node_failure(failure, &mut ctx);
        assert_eq!(actions, vec![HealingAction::Abandon { request: RequestId(1) }]);
    }

    #[test]
    fn machine_failure_replans_onto_survivors() {
        let mut h = H::new(4);
        let mut s = VMlpScheduler::new();
        let plan = admit_one(&mut h, &mut s, 1, "read-user-timeline");
        let dead = plan.nodes[0].machine;
        h.cluster.machine_mut(dead).crash();
        let mut ctx = h.ctx(50);
        let actions = s.on_machine_failure(dead, &[], &mut ctx);
        assert!(!actions.is_empty(), "displaced nodes must be replanned");
        for a in &actions {
            match *a {
                HealingAction::Replan { machine, .. } => {
                    assert_ne!(machine, dead, "replan must avoid the dead machine");
                    assert!(ctx.cluster.machine(machine).is_up());
                }
                ref other => panic!("expected Replan, got {other:?}"),
            }
        }
        assert!(h.metrics.counter(names::CRASH_REPLANS) > 0);
        assert!(h.audit.count(DecisionKind::CrashReplan) > 0, "replans audited");
        // The scheduler's own book must agree with the actions it emitted.
        for np in &s.active[&RequestId(1)].plan.nodes {
            assert_ne!(np.machine, dead);
        }
    }

    #[test]
    fn abandoned_request_leaves_no_active_state() {
        let mut h = H::new(8);
        let mut s = VMlpScheduler::new();
        let _ = admit_one(&mut h, &mut s, 1, "basicSearch");
        assert_eq!(s.active_requests(), 1);
        let mut ctx = h.ctx(20);
        s.on_request_abandoned(RequestId(1), &mut ctx);
        assert_eq!(s.active_requests(), 0);
        // Abandoning twice is harmless.
        let mut ctx = h.ctx(21);
        s.on_request_abandoned(RequestId(1), &mut ctx);
        assert_eq!(s.active_requests(), 0);
    }
}
