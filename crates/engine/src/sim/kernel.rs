//! The event loop: arrival pull, event dispatch, admission rounds, and
//! request-table reclamation.
//!
//! Arrivals are *pulled* from the [`ArrivalSource`] one at a time and
//! interleaved with queued events by timestamp. The historical engine
//! scheduled every arrival up front, which gave arrival events the lowest
//! sequence numbers — so at a timestamp tie the arrival always popped
//! first. The pull loop reproduces that exactly by letting the pending
//! arrival win ties against [`EventQueue::peek_time`]; everything else
//! about event ordering (init order, dynamic scheduling order) is
//! unchanged, so slice-driven runs are byte-identical to the historical
//! dense path.

use super::*;
use mlp_trace::metrics::names;
use mlp_trace::{Decision, DecisionKind};
use std::ops::ControlFlow;

impl<'c, D: Driver> Sim<'c, D> {
    pub(super) fn run(&mut self, scheduler: &mut dyn Scheduler, rng: &mut SimRng) -> SimOutput {
        self.driver.schedule(SimTime::ZERO + sample_period(), Event::Sample);
        for o in self.faults.outages().to_vec() {
            self.driver.schedule(o.down_at, Event::MachineDown(o.machine));
            self.driver.schedule(o.up_at, Event::MachineUp(o.machine));
        }

        loop {
            self.drain_reclaim();
            let live = self.table.live() + self.pending_info.len();
            let table = &self.table;
            match self.driver.next_step(self.next_request_id, live, |ev| table.emits_outcome(ev)) {
                Step::Arrival(a, token) => {
                    if let Some(token) = token {
                        // The arrival is about to be assigned this id (both
                        // the shed and the admit path consume exactly one).
                        self.live_tokens.insert(self.next_request_id, token);
                    }
                    self.arrival(a, scheduler);
                }
                Step::Event(now, ev) => {
                    if self.apply_event(now, ev, scheduler, rng).is_break() {
                        break;
                    }
                }
                Step::Idle => {}
                Step::Done => break,
            }
        }

        self.epilogue(scheduler)
    }

    fn apply_event(
        &mut self,
        now: SimTime,
        ev: Event,
        scheduler: &mut dyn Scheduler,
        rng: &mut SimRng,
    ) -> ControlFlow<()> {
        match ev {
            Event::TryInvoke { request, node, gen } => {
                self.try_invoke(now, request, node, gen, scheduler, rng);
            }
            Event::PlannedStart { request, node } => {
                self.check_deviation(now, request, node, scheduler);
            }
            Event::Complete { request, node, gen } => {
                self.complete(now, request, node, gen, scheduler, rng);
            }
            Event::NodeFailed { request, node, gen } => {
                self.node_failed(now, request, node, gen, scheduler);
            }
            Event::MachineDown(id) => {
                self.machine_down(now, id, scheduler);
            }
            Event::MachineUp(id) => {
                self.cluster.machine_mut(id).recover();
                self.audit.record(
                    Decision::new(now, DecisionKind::MachineUp, "injected-recovery").machine(id),
                );
                self.maybe_round(now, scheduler);
            }
            Event::Sample => {
                // Graceful shutdown for long sim-mode runs: the sampling
                // tick is the natural boundary where all per-turn state is
                // settled, so a ctrl-c ends the run here and the epilogue
                // still produces a consistent (partial) output. Live mode
                // opts out — its driver runs the drain protocol instead.
                if crate::shutdown::requested() && !self.driver.handles_shutdown() {
                    return ControlFlow::Break(());
                }
                self.on_sample(now, scheduler.waiting());
                if self.auditor {
                    self.audit_tick(now);
                }
                self.run_round(now, scheduler);
                let more_work =
                    scheduler.waiting() > 0 || self.table.live() > 0 || self.driver.has_pending();
                let next = now + sample_period();
                if more_work && next <= self.hard_cap {
                    self.driver.schedule(next, Event::Sample);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Routes a terminal outcome for a token-carrying (live) request to
    /// the completion sink. No-op in sim mode (`live_tokens` stays empty).
    pub(super) fn live_notify(&mut self, request: u64, kind: crate::live::OutcomeKind) {
        if let Some(token) = self.live_tokens.remove(&request) {
            if let Some(n) = self.notify.as_mut() {
                n(crate::live::LiveOutcome { token, request, kind });
            }
        }
    }

    /// One arrival: assign the next request id, register its metadata, and
    /// notify the scheduler. Note the event-queue clock is *not* advanced
    /// here (nothing was popped); every schedule issued downstream uses
    /// times ≥ the arrival instant, which is ≥ the last popped time.
    ///
    /// Under overload the admission gate runs first: an arrival that the
    /// queue cap, the deadline-feasibility check, or an open circuit
    /// breaker rejects is shed on the spot — it consumes a request id and
    /// counts as arrived-but-unfinished, and the scheduler never sees it.
    fn arrival(&mut self, a: Arrival, scheduler: &mut dyn Scheduler) {
        let now = a.at;
        if let Some(o) = self.overload.as_mut() {
            use mlp_sched::AdmissionVerdict;
            let rt = self.catalog.request(a.request_type);
            let ideal = ideal_cp_ms(self.catalog, a.request_type);
            let deadline = now + SimDuration::from_millis_f64(rt.slo_ms);
            // Backlog is everything in the system, not just the admission
            // queue: schedulers that admit eagerly park the excess in
            // machine plans, where it still queues ahead of this arrival.
            let depth = scheduler.waiting() + self.table.live();
            let id = RequestId(self.next_request_id);
            let verdict = o.admission(
                now,
                id,
                a.request_type,
                depth,
                ideal,
                deadline,
                rt.dag.nodes().iter().map(|n| n.service),
            );
            let reason = match verdict {
                AdmissionVerdict::Admit { .. } => None,
                AdmissionVerdict::RejectQueueFull { .. } => Some("queue-full"),
                AdmissionVerdict::RejectInfeasible { .. } => Some("deadline-infeasible"),
                AdmissionVerdict::RejectBreaker { .. } => Some("breaker-open"),
            };
            if let Some(reason) = reason {
                self.next_request_id += 1;
                self.arrived += 1;
                self.shed_requests += 1;
                self.metrics.inc(names::OVERLOAD_SHED_REQUESTS);
                self.audit.record(
                    Decision::new(now, DecisionKind::AdmissionReject, reason)
                        .request(id)
                        .budget_ms(ideal)
                        .value(depth as f64),
                );
                self.live_notify(id.0, crate::live::OutcomeKind::Shed { reason });
                return;
            }
        }
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.arrived += 1;
        let info = RequestInfo { id: RequestId(id), rtype: a.request_type, arrival: now };
        self.pending_info.insert(id, info);
        let mut ctx = sched_ctx!(self, now);
        scheduler.on_arrival(info, &mut ctx);
        let _ = ctx;
        self.maybe_round(now, scheduler);
    }

    /// Frees table entries queued by completion/abandon during the
    /// previous event turn. Deferred so same-turn accesses (a post-abandon
    /// flag check, a completion's final scheduler callback) still see the
    /// entry; any event that targets a reclaimed request simply finds no
    /// entry, which is observably identical to the historical stale-
    /// generation / abandoned-flag early returns.
    fn drain_reclaim(&mut self) {
        if self.reclaim.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.reclaim);
        for id in ids {
            self.table.remove(id);
        }
    }

    fn epilogue(&mut self, scheduler: &mut dyn Scheduler) -> SimOutput {
        use mlp_trace::metrics::names;
        // Live requests still holding a token were neither completed nor
        // shed — the run ended around them. Tell their connections.
        if let Some(n) = self.notify.as_mut().filter(|_| !self.live_tokens.is_empty()) {
            let mut leftover: Vec<(u64, u64)> = self.live_tokens.drain().collect();
            leftover.sort_unstable();
            for (request, token) in leftover {
                n(crate::live::LiveOutcome {
                    token,
                    request,
                    kind: crate::live::OutcomeKind::Dropped,
                });
            }
        }
        if self.mttr_count > 0 {
            let mean_ms = self.mttr_sum_us as f64 / self.mttr_count as f64 / 1000.0;
            self.metrics.set_gauge(names::MTTR_MS, mean_ms);
        }
        self.metrics.set_gauge(names::REQUEST_TABLE_PEAK, self.table.peak() as f64);
        for (s, &peak) in self.shard_peaks.iter().enumerate() {
            self.metrics.set_gauge(&names::shard_utilization_peak(s as u32), peak);
        }
        if let Some(o) = self.overload.as_ref() {
            self.metrics.set_gauge(names::OVERLOAD_PRESSURE_PEAK, o.brownout.peak_pressure());
            self.metrics.set_gauge(names::BREAKER_OPENS, o.breakers.opens() as f64);
            self.metrics.set_gauge(names::RETRY_TOKENS, o.budget.tokens_available());
            self.metrics.set_gauge(names::OVERLOAD_RETRIES_GRANTED, o.budget.granted() as f64);
        }
        if self.auditor {
            self.audit_end_of_run();
            self.audit_overload_end();
        }
        // Abandoned requests never complete, so they are counted as
        // unfinished and request conservation holds under faults. Shed
        // arrivals were never admitted anywhere, so they are added on top:
        // arrived == finished + unfinished still balances.
        let unfinished = (self.table.admitted() - self.completed_reqs) as usize
            + scheduler.waiting()
            + self.shed_requests as usize;
        SimOutput {
            collector: std::mem::replace(&mut self.collector, TraceCollector::new(SimTime::ZERO)),
            utilization: std::mem::replace(&mut self.utilization, TimeSeries::new(SAMPLE_PERIOD_S)),
            metrics: self.metrics.clone(),
            unfinished,
            abandoned: self.abandoned,
            arrived: self.arrived as usize,
            shed_requests: self.shed_requests as usize,
            request_table_peak: self.table.peak(),
            profiles: std::mem::take(&mut self.profiles),
            audit: self.audit.clone(),
            invariant_report: self.invariant_report.take(),
        }
    }

    /// Runs an admission round unless throttled by a long waiting queue
    /// or backed off after fruitless rounds.
    pub(super) fn maybe_round(&mut self, now: SimTime, scheduler: &mut dyn Scheduler) {
        if scheduler.waiting() < SMALL_QUEUE || now.since(self.last_round) >= self.round_backoff {
            self.run_round(now, scheduler);
        }
    }

    pub(super) fn run_round(&mut self, now: SimTime, scheduler: &mut dyn Scheduler) {
        self.last_round = now;
        let plans = {
            let mut ctx = sched_ctx!(self, now);
            scheduler.schedule(&mut ctx)
        };
        // Adapt the round spacing: a saturated cluster gains nothing from
        // re-examining the same backlog every few milliseconds.
        if plans.is_empty() && scheduler.waiting() > 0 {
            self.round_backoff =
                SimDuration(self.round_backoff.0.saturating_mul(2)).min(ROUND_BACKOFF_MAX);
        } else {
            self.round_backoff = ROUND_THROTTLE;
        }
        for plan in plans {
            self.admit(now, plan);
        }
        let ready = std::mem::take(&mut self.pending_ready);
        for (rid, node, at) in ready {
            let mut ctx = sched_ctx!(self, now);
            scheduler.on_node_ready(rid, node, at, &mut ctx);
        }
    }

    fn admit(&mut self, now: SimTime, plan: RequestPlan) {
        let id = plan.request.0;
        let info = self.pending_info.remove(&id).expect("scheduler admitted an unknown request");
        let dag = &self.catalog.request(info.rtype).dag;
        assert_eq!(plan.nodes.len(), dag.len(), "plan does not cover the DAG");

        let n = dag.len();
        let deg = dag.in_degrees();
        let mut state = Vec::with_capacity(n);
        for &d in &deg {
            if d == 0 {
                state.push(NState::Ready { at: now });
            } else {
                state.push(NState::WaitingDeps { deps_left: d, ready_hint: now });
            }
        }
        self.audit.record(
            Decision::new(now, DecisionKind::Admit, "plan-accepted")
                .request(info.id)
                .value(n as f64),
        );
        let attrib = plan.nodes.iter().map(|np| NodeAttrib::new(now, np.planned_start)).collect();
        self.table.insert(
            id,
            RunReq {
                info,
                plan,
                state,
                gens: vec![0; n],
                remaining: n,
                attempts: vec![0; n],
                abandoned: false,
                attrib,
                admit_seq: 0, // stamped by the table
            },
        );

        // Schedule root invocations and deviation checks.
        let req = self.table.get(id).expect("just inserted");
        let mut roots = Vec::new();
        let mut schedules = Vec::with_capacity(n * 2);
        for (i, (&d, np)) in deg.iter().zip(&req.plan.nodes).enumerate() {
            let ps = np.planned_start.max(now);
            schedules.push((ps, Event::PlannedStart { request: id, node: i }));
            if d == 0 {
                schedules.push((ps, Event::TryInvoke { request: id, node: i, gen: 0 }));
                roots.push(i);
            }
        }
        for (at, ev) in schedules {
            self.driver.schedule(at, ev);
        }
        self.pending_ready.extend(roots.into_iter().map(|i| (RequestId(id), i, now)));
    }
}
