//! The request/node state machine: invocation, deviation checks, healing,
//! failure recovery, completion, and latency attribution.
//!
//! All request lookups go through the [`RequestTable`](super::table)
//! slab by raw request id. Events that outlive their request (a stale
//! completion after an abandon, a retry for a request that finished)
//! find no entry and die — observably identical to the historical
//! generation-mismatch / abandoned-flag early returns, because entries
//! are reclaimed only *between* event turns.

use super::*;
use mlp_faults::attempt_fails;
use mlp_sched::{HealingAction, LateInfo, NodeFailure};
use mlp_trace::{
    metrics::names, Decision, DecisionKind, ExecutionCase, LatencyBreakdown, RequestRecord, Span,
};

impl<'c, D: Driver> Sim<'c, D> {
    pub(super) fn try_invoke(
        &mut self,
        now: SimTime,
        request: u64,
        node: usize,
        gen: u64,
        scheduler: &mut dyn Scheduler,
        rng: &mut SimRng,
    ) {
        let Some(req) = self.table.get_mut(request) else {
            return; // request finished; event is dead
        };
        if req.abandoned || req.gens[node] != gen {
            return; // superseded by a promotion, re-plan, or abandon
        }
        let at = match req.state[node] {
            NState::Ready { at } => at,
            _ => return,
        };
        if now < at {
            // Promotion moved the planned start ahead of readiness.
            self.driver.schedule(at, Event::TryInvoke { request, node, gen });
            return;
        }

        let np = req.plan.nodes[node];
        if self.faults.is_active() && !self.cluster.machine(np.machine).is_up() {
            // The planned machine is down. Fault-aware schemes re-plan via
            // `on_machine_failure`; the naive default waits the outage out.
            let at = match self.faults.next_recovery(np.machine, now) {
                Some(up) => up + SimDuration(1), // strictly after MachineUp
                None => now + RETRY_BACKOFF,
            };
            self.driver.schedule(at, Event::TryInvoke { request, node, gen });
            return;
        }
        let attempt = req.attempts[node];
        let fails =
            self.faults.is_active() && attempt_fails(&self.faults, req.info.id, node, attempt, now);

        let dag = &self.catalog.request(req.info.rtype).dag;
        let dnode = dag.node(node);
        let svc = self.catalog.services.get(dnode.service);

        // What the service wants is bounded by its grant; what it gets is
        // bounded by what is actually free on the machine right now.
        let machine = self.cluster.machine_mut(np.machine);
        let want = svc.demand.min(&np.grant);
        let occupied = want.min(&machine.actual_free()).clamp_non_negative();
        let satisfaction = occupied.satisfaction_of(&svc.demand).max(MIN_SATISFACTION);
        let grant = machine.occupy(occupied);

        let (dur_ms, penalty) =
            svc.sample_exec_ms_capped_parts(dnode.work_factor, satisfaction, rng.rng());
        let end = now + SimDuration::from_millis_f64(dur_ms);
        req.gens[node] += 1;
        let gen = req.gens[node];
        req.state[node] = NState::Running { start: now, end, occupied, satisfaction, grant };
        // Attribution sees the attempt that completes; retries overwrite.
        req.attrib[node].start = now;
        req.attrib[node].planned = np.planned_start;
        req.attrib[node].penalty = penalty;
        req.attrib[node].healed_us = 0;
        let rid = req.info.id;
        // A failing attempt holds its resources for the full sampled
        // duration, then dies instead of completing (same RNG draws either
        // way, so disabled faults stay byte-identical).
        if fails {
            self.driver.schedule(end, Event::NodeFailed { request, node, gen });
        } else {
            self.driver.schedule(end, Event::Complete { request, node, gen });
        }
        if let Some(t0) = self.orphan_since.remove(&(request, node)) {
            self.mttr_sum_us += now.since(t0).as_micros();
            self.mttr_count += 1;
        }

        let mut ctx = sched_ctx!(self, now);
        scheduler.on_span_start(rid, node, &mut ctx);
    }

    pub(super) fn check_deviation(
        &mut self,
        now: SimTime,
        request: u64,
        node: usize,
        scheduler: &mut dyn Scheduler,
    ) {
        let Some(req) = self.table.get(request) else {
            return;
        };
        if req.abandoned {
            return;
        }
        let np = req.plan.nodes[node];
        if np.planned_start > now {
            return; // plan was moved; a fresh PlannedStart is queued
        }
        let late = match req.state[node] {
            NState::WaitingDeps { .. } => true,
            NState::Ready { at } => at > now,
            NState::Running { .. } | NState::Done => false,
        };
        if !late {
            return;
        }
        let info = LateInfo {
            request: req.info.id,
            node,
            machine: np.machine,
            planned_start: np.planned_start,
        };
        self.audit.record(
            Decision::new(now, DecisionKind::LateInvocation, "planned-start-passed")
                .request(req.info.id)
                .node(node)
                .machine(np.machine)
                .value(now.since(np.planned_start).as_millis_f64()),
        );
        let actions = {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_late_invocation(info, &mut ctx)
        };
        for a in actions {
            self.apply_healing(now, a, scheduler);
        }
        // Delay-slot "request" candidates: give the waiting queue a chance
        // to fill the stall.
        self.maybe_round(now, scheduler);
    }

    pub(super) fn apply_healing(
        &mut self,
        now: SimTime,
        action: HealingAction,
        scheduler: &mut dyn Scheduler,
    ) {
        match action {
            HealingAction::PromoteNode { request, node, new_start } => {
                let id = request.0;
                let Some(req) = self.table.get_mut(id) else {
                    return;
                };
                let new_start = new_start.max(now);
                req.plan.nodes[node].planned_start = new_start;
                // A deviation check still applies at the new start.
                self.driver.schedule(new_start, Event::PlannedStart { request: id, node });
                if let NState::Ready { at } = req.state[node] {
                    req.gens[node] += 1;
                    let gen = req.gens[node];
                    self.driver
                        .schedule(new_start.max(at), Event::TryInvoke { request: id, node, gen });
                }
            }
            HealingAction::StretchRunning { request, node, factor } => {
                // Brownout tier 1+: resource stretches are a luxury the
                // cluster cannot afford under pressure — suppress them so
                // the spare capacity serves admissions instead.
                if self.overload.as_ref().is_some_and(|o| o.suppress_stretch()) {
                    self.metrics.inc(names::OVERLOAD_STRETCHES_SUPPRESSED);
                    return;
                }
                let id = request.0;
                if factor <= 1.0 {
                    return;
                }
                let Some(req) = self.table.get_mut(id) else {
                    return;
                };
                let NState::Running { start, end, occupied, satisfaction, grant } = req.state[node]
                else {
                    return;
                };
                if end <= now {
                    return;
                }
                let dag = &self.catalog.request(req.info.rtype).dag;
                let svc = self.catalog.services.get(dag.node(node).service);
                let machine = self.cluster.machine_mut(req.plan.nodes[node].machine);
                // Grant the extra resources that are actually free.
                let extra = (svc.demand * (factor - 1.0)).min(&machine.actual_free());
                if extra.has_negative() || extra == ResourceVector::ZERO {
                    return;
                }
                if !machine.grow(grant, extra) {
                    return; // grant died (machine crashed under the span)
                }
                let new_occupied = occupied + extra;
                // Speedup proportional to the satisfaction recovered.
                let new_sat = new_occupied.satisfaction_of(&svc.demand).max(satisfaction);
                let speedup = (new_sat / satisfaction).max(1.0);
                let remaining = end.since(now);
                let new_end = now + remaining.mul_f64(1.0 / speedup);
                // Attribution: the healing module reclaimed this much of
                // the span's tail.
                req.attrib[node].healed_us += end.0.saturating_sub(new_end.0);
                req.state[node] = NState::Running {
                    start,
                    end: new_end,
                    occupied: new_occupied,
                    satisfaction: new_sat,
                    grant,
                };
                req.gens[node] += 1;
                let gen = req.gens[node];
                // The failure verdict for this attempt was drawn at invoke
                // time; a stretched span keeps its Complete outcome.
                self.driver.schedule(new_end, Event::Complete { request: id, node, gen });
            }
            HealingAction::Retry { request, node, backoff } => {
                let id = request.0;
                // Scheduler-issued retries draw from the same global token
                // bucket as engine blind retries: under overload an
                // exhausted budget sheds the request instead of feeding a
                // retry storm.
                if let Some(o) = self.overload.as_mut() {
                    if !o.try_retry_token(now) {
                        self.metrics.inc(names::OVERLOAD_RETRIES_DENIED);
                        self.audit.record(
                            Decision::new(now, DecisionKind::Shed, "retry-budget-exhausted")
                                .request(request)
                                .node(node),
                        );
                        self.abandon_request(now, id, scheduler);
                        return;
                    }
                }
                let Some(req) = self.table.get_mut(id) else {
                    return;
                };
                if req.abandoned || !matches!(req.state[node], NState::Ready { .. }) {
                    return;
                }
                req.gens[node] += 1;
                let gen = req.gens[node];
                self.metrics.inc(names::RETRIES);
                self.driver.schedule(now + backoff, Event::TryInvoke { request: id, node, gen });
            }
            HealingAction::Replan { request, node, machine, new_start } => {
                let id = request.0;
                let Some(req) = self.table.get_mut(id) else {
                    return;
                };
                if req.abandoned || matches!(req.state[node], NState::Running { .. } | NState::Done)
                {
                    return;
                }
                let new_start = new_start.max(now);
                req.plan.nodes[node].machine = machine;
                req.plan.nodes[node].planned_start = new_start;
                self.driver.schedule(new_start, Event::PlannedStart { request: id, node });
                if let NState::Ready { at } = req.state[node] {
                    req.gens[node] += 1;
                    let gen = req.gens[node];
                    self.driver
                        .schedule(new_start.max(at), Event::TryInvoke { request: id, node, gen });
                }
            }
            HealingAction::Abandon { request } => {
                self.abandon_request(now, request.0, scheduler);
            }
        }
    }

    /// Drops a request for good: kills every pending event for it,
    /// releases any running grants, and notifies the scheduler. The
    /// request never completes, so it counts as unfinished; its table
    /// entry is reclaimed at the next event turn.
    pub(super) fn abandon_request(&mut self, now: SimTime, id: u64, scheduler: &mut dyn Scheduler) {
        let Some(req) = self.table.get_mut(id) else {
            return;
        };
        if req.abandoned || req.remaining == 0 {
            return;
        }
        req.abandoned = true;
        let mut held: Vec<(MachineId, GrantId)> = Vec::new();
        for node in 0..req.state.len() {
            req.gens[node] += 1; // invalidate every in-flight event
            if let NState::Running { grant, .. } = req.state[node] {
                held.push((req.plan.nodes[node].machine, grant));
                req.state[node] = NState::Ready { at: now };
            }
        }
        let rid = req.info.id;
        for (m, g) in held {
            self.cluster.machine_mut(m).release(g);
        }
        // Abandoned nodes never "recover": drop them from MTTR tracking.
        self.orphan_since.retain(|&(r, _), _| r != id);
        self.abandoned += 1;
        self.reclaim.push(id);
        self.metrics.inc(names::ABANDONS);
        self.live_notify(id, crate::live::OutcomeKind::Abandoned);
        let mut ctx = sched_ctx!(self, now);
        scheduler.on_request_abandoned(rid, &mut ctx);
    }

    /// A running invocation died (transient fault). Release its grant,
    /// put the node back in the ready state, and let the scheduler decide
    /// between retry, re-plan, and shedding; schemes without a policy get
    /// a bounded blind retry.
    pub(super) fn node_failed(
        &mut self,
        now: SimTime,
        request: u64,
        node: usize,
        gen: u64,
        scheduler: &mut dyn Scheduler,
    ) {
        let Some(req) = self.table.get_mut(request) else {
            return;
        };
        if req.abandoned || req.gens[node] != gen {
            return;
        }
        let NState::Running { grant, .. } = req.state[node] else {
            return;
        };
        let np = req.plan.nodes[node];
        let attempt = req.attempts[node];
        req.attempts[node] = attempt + 1;
        req.state[node] = NState::Ready { at: now };
        req.gens[node] += 1;
        let rid = req.info.id;
        let rtype = req.info.rtype;
        self.cluster.machine_mut(np.machine).release(grant);
        self.metrics.inc(names::NODE_FAILURES);
        // Feed the per-service circuit breaker: repeated failures of one
        // service trip its breaker open, and the admission gate then
        // rejects new requests whose DAGs depend on it.
        if let Some(o) = self.overload.as_mut() {
            if o.cfg.resilience {
                let svc = self.catalog.request(rtype).dag.node(node).service;
                o.breakers.record_failure(svc, now);
            }
        }

        let failure = NodeFailure { request: rid, node, machine: np.machine, attempt, at: now };
        let actions = {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_node_failure(failure, &mut ctx)
        };
        let handled = actions.iter().any(|a| match a {
            HealingAction::Retry { request, node: n, .. }
            | HealingAction::Replan { request, node: n, .. } => *request == rid && *n == node,
            HealingAction::Abandon { request } => *request == rid,
            _ => false,
        });
        for a in actions {
            self.apply_healing(now, a, scheduler);
        }
        if handled {
            return;
        }
        // Engine fallback for fault-oblivious schemes: blind retry with a
        // fixed backoff, bounded by ENGINE_MAX_ATTEMPTS. The entry is
        // still present even if a healing action just abandoned it —
        // reclamation is deferred past this turn.
        let Some(req) = self.table.get_mut(request) else {
            return;
        };
        if req.abandoned {
            return;
        }
        if req.attempts[node] >= ENGINE_MAX_ATTEMPTS {
            let attempts = req.attempts[node];
            self.audit.record(
                Decision::new(now, DecisionKind::Shed, "engine-retry-budget")
                    .request(rid)
                    .node(node)
                    .value(attempts as f64),
            );
            self.abandon_request(now, request, scheduler);
        } else {
            let gen = req.gens[node];
            let attempts = req.attempts[node];
            // Under resilience the blind retry draws a token from the
            // global budget (shed on exhaustion) and backs off with
            // exponential jitter instead of the fixed engine backoff.
            let backoff = if self.overload.as_ref().is_some_and(|o| o.cfg.resilience) {
                let o = self.overload.as_mut().expect("checked above");
                if !o.try_retry_token(now) {
                    self.metrics.inc(names::OVERLOAD_RETRIES_DENIED);
                    self.audit.record(
                        Decision::new(now, DecisionKind::Shed, "retry-budget-exhausted")
                            .request(rid)
                            .node(node)
                            .value(attempts as f64),
                    );
                    self.abandon_request(now, request, scheduler);
                    return;
                }
                SimDuration::from_millis_f64(o.retry_backoff_ms(attempts))
            } else {
                RETRY_BACKOFF
            };
            self.metrics.inc(names::RETRIES);
            self.audit.record(
                Decision::new(now, DecisionKind::Retry, "engine-blind-retry")
                    .request(rid)
                    .node(node)
                    .value(attempts as f64),
            );
            self.driver.schedule(now + backoff, Event::TryInvoke { request, node, gen });
        }
    }

    /// An injected machine crash: every span executing there is killed and
    /// re-enters the ready state, the machine's grants and ledger are
    /// wiped, and the scheduler gets a chance to re-plan displaced work
    /// onto surviving machines. Live requests are visited in admission
    /// order (the slab's iteration helper) so recovery scheduling and the
    /// scheduler notification order match the historical dense scan.
    pub(super) fn machine_down(
        &mut self,
        now: SimTime,
        id: MachineId,
        scheduler: &mut dyn Scheduler,
    ) {
        self.metrics.inc(names::MACHINE_CRASHES);
        self.audit
            .record(Decision::new(now, DecisionKind::MachineDown, "injected-outage").machine(id));
        let mut orphans: Vec<(u64, usize)> = Vec::new(); // (request id, node)
        for rid in self.table.live_ids_in_admission_order() {
            let req = self.table.get_mut(rid).expect("live id has an entry");
            if req.abandoned || req.remaining == 0 {
                continue;
            }
            for node in 0..req.state.len() {
                if req.plan.nodes[node].machine != id {
                    continue;
                }
                if matches!(req.state[node], NState::Running { .. }) {
                    // The work in flight is lost; the re-execution is a new
                    // attempt with a fresh failure verdict.
                    req.state[node] = NState::Ready { at: now };
                    req.gens[node] += 1;
                    req.attempts[node] += 1;
                    orphans.push((rid, node));
                }
            }
        }
        self.cluster.machine_mut(id).crash();

        // Naive default recovery: re-invoke when the machine comes back.
        // Fault-aware schedulers supersede these events by re-planning
        // (which bumps the generation counters).
        let recovery = self.faults.next_recovery(id, now);
        for &(rid, node) in &orphans {
            self.orphan_since.entry((rid, node)).or_insert(now);
            let at = match recovery {
                Some(up) => up + SimDuration(1),
                None => now + RETRY_BACKOFF,
            };
            let gen = self.table.get(rid).expect("orphan entry lives").gens[node];
            self.driver.schedule(at, Event::TryInvoke { request: rid, node, gen });
        }

        let orphan_ids: Vec<(RequestId, usize)> =
            orphans.iter().map(|&(rid, node)| (RequestId(rid), node)).collect();
        let actions = {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_machine_failure(id, &orphan_ids, &mut ctx)
        };
        for a in actions {
            self.apply_healing(now, a, scheduler);
        }
    }

    pub(super) fn complete(
        &mut self,
        now: SimTime,
        request: u64,
        node: usize,
        gen: u64,
        scheduler: &mut dyn Scheduler,
        rng: &mut SimRng,
    ) {
        let Some(req) = self.table.get_mut(request) else {
            return;
        };
        if req.abandoned || req.gens[node] != gen {
            return; // stale completion (stretched span / fault recovery)
        }
        let NState::Running { start, occupied, satisfaction, grant, .. } = req.state[node] else {
            return;
        };
        req.state[node] = NState::Done;
        req.remaining -= 1;
        req.attrib[node].end = now;

        let np = req.plan.nodes[node];
        let rtype = req.info.rtype;
        let rid = req.info.id;
        let machine_load = {
            let machine = self.cluster.machine_mut(np.machine);
            machine.release(grant);
            machine.utilization()
        };

        let dag = &self.catalog.request(rtype).dag;
        let service = dag.node(node).service;
        let span = Span {
            request: rid,
            request_type: rtype,
            service,
            dag_node: node,
            machine: np.machine,
            planned_start: np.planned_start,
            start,
            end: now,
            satisfaction,
        };
        self.collector.record_span(span);
        self.profiles.record(
            service,
            ExecutionCase {
                usage: occupied,
                machine_load,
                exec_ms: now.since(start).as_millis_f64(),
            },
        );
        // A completed span is a success vote for its service's breaker
        // (HalfOpen probes recover through here).
        if let Some(o) = self.overload.as_mut() {
            if o.cfg.resilience {
                o.breakers.record_success(service, now);
            }
        }
        let heal = {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_span_complete(&span, &mut ctx)
        };
        for a in heal {
            self.apply_healing(now, a, scheduler);
        }

        // Ready the children. The entry is still present even if a healing
        // action just abandoned this request (reclamation is deferred).
        let degrade = self.faults.degradation_at(now);
        // Brownout tier 2+: optional terminal branches are shed — a leaf
        // child whose only unmet dependency is this completing node is
        // marked done without ever running. One leaf is always kept so
        // every request still produces a meaningful response.
        let shed_branches = self.overload.as_ref().is_some_and(|o| o.shed_optional_branches());
        let req = self.table.get_mut(request).expect("entry lives until end of turn");
        let children = dag.children(node);
        let keep_leaf = if shed_branches {
            children.iter().copied().filter(|&c| dag.children(c).is_empty()).max()
        } else {
            None
        };
        let parent_machine = np.machine;
        let mut newly_ready: Vec<(RequestId, usize, SimTime)> = Vec::new();
        let mut skipped: Vec<usize> = Vec::new();
        let mut violations = 0u64;
        for c in children {
            if shed_branches && dag.children(c).is_empty() && Some(c) != keep_leaf {
                if let NState::WaitingDeps { deps_left: 1, .. } = req.state[c] {
                    req.state[c] = NState::Done;
                    req.remaining -= 1;
                    req.gens[c] += 1; // kill any stale events for the node
                    skipped.push(c);
                    continue;
                }
            }
            let callee = self.catalog.services.get(dag.node(c).service);
            let same = req.plan.nodes[c].machine == parent_machine;
            let mut comm = self.net.sample_delay(same, callee.comm, rng);
            if degrade != 1.0 {
                // Fault-injected network degradation stretches the delay
                // after sampling, so the RNG stream is untouched.
                comm = comm.mul_f64(degrade);
            }
            let arrive = now + comm;
            match &mut req.state[c] {
                NState::WaitingDeps { deps_left, ready_hint } => {
                    // The parent whose message lands last (ties to the
                    // later arrival) is the child's critical dependency.
                    if arrive >= *ready_hint {
                        req.attrib[c].crit_parent = Some(node);
                    }
                    *ready_hint = (*ready_hint).max(arrive);
                    *deps_left -= 1;
                    if *deps_left == 0 {
                        let at = *ready_hint;
                        req.attrib[c].ready_at = at;
                        req.state[c] = NState::Ready { at };
                        let when = at.max(req.plan.nodes[c].planned_start).max(now);
                        let gen = req.gens[c];
                        self.driver.schedule(when, Event::TryInvoke { request, node: c, gen });
                        newly_ready.push((rid, c, at));
                    }
                }
                other => {
                    // A child in any state but WaitingDeps here means the
                    // dependency bookkeeping drifted (e.g. a stale event
                    // survived a generation bump). Recoverable: count it
                    // and leave the child's lifecycle alone.
                    debug_assert!(false, "child {c} of a completing node in state {other:?}");
                    violations += 1;
                }
            }
        }
        if violations > 0 {
            self.metrics.add(names::INVARIANT_VIOLATIONS, violations);
        }

        if !skipped.is_empty() {
            if let Some(o) = self.overload.as_mut() {
                o.branch_sheds += skipped.len() as u64;
            }
            for &c in &skipped {
                self.metrics.inc(names::OVERLOAD_BRANCH_SHEDS);
                self.audit.record(
                    Decision::new(now, DecisionKind::Shed, "brownout-branch-shed")
                        .request(rid)
                        .node(c),
                );
                let mut ctx = sched_ctx!(self, now);
                scheduler.on_node_skipped(rid, c, &mut ctx);
            }
        }

        for (rid, c, at) in newly_ready {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_node_ready(rid, c, at, &mut ctx);
        }

        // Whole-request completion: flush the record and queue the entry
        // for reclamation — this is what keeps the table's occupancy
        // tracking the in-flight window instead of total arrivals.
        let req = self.table.get(request).expect("entry lives until end of turn");
        if req.remaining == 0 {
            let arrival = req.info.arrival;
            let rt = self.catalog.request(rtype);
            let rec = RequestRecord {
                id: rid,
                request_type: rtype,
                class: rt.class(),
                arrival,
                end: now,
                slo_ms: rt.slo_ms,
                breakdown: Some(self.attribute(request, node)),
            };
            self.collector.record_request(rec);
            self.completed_reqs += 1;
            self.reclaim.push(request);
            self.live_notify(
                request,
                crate::live::OutcomeKind::Completed { latency_us: now.since(arrival).as_micros() },
            );
            {
                let mut ctx = sched_ctx!(self, now);
                scheduler.on_request_complete(rid, &mut ctx);
            }
            self.maybe_round(now, scheduler);
        }
    }

    /// Decomposes one completed request's end-to-end latency by walking
    /// its critical chain backwards from the last node to finish. The
    /// chain alternates node phases (`ready_at → start → end`, split into
    /// queueing, placement delay, and span) with comm hops
    /// (`ready_at − parent.end`), all measured in whole µs, so
    /// queue + placement + comm + span telescopes *exactly* to
    /// `end − arrival`; each span then splits into ideal execution vs
    /// cap-induced slowdown via the penalty captured at sample time.
    fn attribute(&self, request: u64, last_node: usize) -> LatencyBreakdown {
        let req = self.table.get(request).expect("attributing a live request");
        let (mut queue_us, mut place_us, mut comm_us) = (0u64, 0u64, 0u64);
        let (mut exec_ms, mut cap_ms, mut healed_ms) = (0.0f64, 0.0f64, 0.0f64);
        let mut cur = last_node;
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > req.state.len() + 1 {
                debug_assert!(false, "attribution walk cycled");
                break;
            }
            let a = req.attrib[cur];
            let span_ms = a.end.since(a.start).as_millis_f64();
            let ideal_ms = if a.penalty.is_finite() && a.penalty > 0.0 {
                span_ms / a.penalty
            } else {
                span_ms
            };
            exec_ms += ideal_ms;
            cap_ms += span_ms - ideal_ms;
            healed_ms += SimDuration(a.healed_us).as_millis_f64();
            // Failed attempts and outage waits land in the wait; the part
            // the *plan* asked for is placement delay, the rest queueing.
            let wait_us = a.start.since(a.ready_at).as_micros();
            let p_us = a.planned.since(a.ready_at).as_micros().min(wait_us);
            place_us += p_us;
            queue_us += wait_us - p_us;
            match a.crit_parent {
                Some(p) => {
                    comm_us += a.ready_at.since(req.attrib[p].end).as_micros();
                    cur = p;
                }
                None => {
                    // Root: admission queueing back to the arrival.
                    queue_us += a.ready_at.since(req.info.arrival).as_micros();
                    break;
                }
            }
        }
        LatencyBreakdown {
            queue_ms: SimDuration(queue_us).as_millis_f64(),
            placement_ms: SimDuration(place_us).as_millis_f64(),
            comm_ms: SimDuration(comm_us).as_millis_f64(),
            exec_ms,
            cap_ms,
            healed_ms,
        }
    }
}
