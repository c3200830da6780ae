//! The opt-in invariant auditor: per-tick conservation cross-checks over
//! the live state, plus end-of-run checks against the audit trail.

use super::*;
use mlp_sched::ADMISSION_SLACK;
use mlp_trace::{metrics::names, DecisionKind};

/// The per-machine invariant checks of [`Sim::audit_tick`]: occupancy
/// conservation (grants ≙ actual usage ≙ running-span sum) and the
/// reservation ledger's incremental index against a from-scratch rebuild.
fn machine_checks(m: &mlp_cluster::Machine, used: &HashMap<u32, ResourceVector>) -> Vec<String> {
    let mut violations = Vec::new();
    let (_, grants_total, actual_used, _) = m.occupancy();
    if !rv_close(grants_total, actual_used) {
        violations.push(format!(
            "machine {:?}: grants sum to {grants_total:?} but used is {actual_used:?}",
            m.id
        ));
    }
    let expect = used.get(&m.id.0).copied().unwrap_or(ResourceVector::ZERO);
    if !rv_close(expect, actual_used) {
        violations.push(format!(
            "machine {:?}: running spans occupy {expect:?} but used is {actual_used:?}",
            m.id
        ));
    }
    if let Err(e) = m.ledger.check_consistency() {
        violations.push(format!("machine {:?} ledger: {e}", m.id));
    }
    violations
}

impl<'c, D: Driver> Sim<'c, D> {
    /// Cross-checks conservation invariants over the live state: every
    /// `Running` span is backed by a live grant of the right size on an
    /// up machine, per-machine occupancy sums match the machine's own
    /// accounting, and every reservation ledger's incremental index agrees
    /// with a from-scratch rebuild. One pass over live requests +
    /// machines — cheap next to a scheduling round, but still opt-in
    /// outside tests. Requests are visited in admission order so the
    /// violation report (and the f64 occupancy accumulation) is
    /// deterministic and matches the historical dense scan.
    pub(super) fn audit_tick(&mut self, now: SimTime) {
        let mut violations: Vec<String> = Vec::new();
        let mut used: HashMap<u32, ResourceVector> = HashMap::new();
        for id in self.table.live_ids_in_admission_order() {
            let req = self.table.get(id).expect("live id has an entry");
            let rid = req.info.id.0;
            for (node, st) in req.state.iter().enumerate() {
                let NState::Running { occupied, grant, .. } = *st else {
                    continue;
                };
                if req.abandoned {
                    violations.push(format!("request {rid} node {node} Running after abandon"));
                    continue;
                }
                let mid = req.plan.nodes[node].machine;
                let machine = self.cluster.machine(mid);
                if !machine.is_up() {
                    violations
                        .push(format!("request {rid} node {node} Running on down machine {mid:?}"));
                }
                match machine.grant_amount(grant) {
                    None => violations
                        .push(format!("request {rid} node {node}: grant gone on machine {mid:?}")),
                    Some(g) if !rv_close(g, occupied) => violations.push(format!(
                        "request {rid} node {node}: grant {g:?} != occupied {occupied:?}"
                    )),
                    Some(_) => {}
                }
                *used.entry(mid.0).or_insert(ResourceVector::ZERO) += occupied;
            }
        }
        // Per-machine checks (occupancy conservation + ledger consistency
        // rebuild), in ascending machine id.
        for m in self.cluster.machines() {
            violations.extend(machine_checks(m, &used));
        }
        // Shard-partition consistency: the shard map must remain a strict
        // partition of the cluster (every machine in exactly one shard,
        // member lists ascending and duplicate-free, per-shard capacity
        // aggregates equal to the member sums). The map is immutable after
        // cluster construction, so any drift here means memory corruption
        // or a cluster/map mix-up — exactly what an auditor is for.
        if let Err(e) = self.cluster.shards().check_partition(self.cluster.machines()) {
            violations.push(format!("shard partition: {e}"));
        }
        // Overload-resilience invariants: the retry-token bucket must obey
        // exact micro-token conservation, and every breaker's transition
        // history must be a legal state-machine walk.
        if let Some(o) = self.overload.as_ref() {
            if !o.budget.conservation_holds() {
                violations.push(format!(
                    "retry budget leaks tokens: {} available, {} granted, {} denied",
                    o.budget.tokens_available(),
                    o.budget.granted(),
                    o.budget.denied(),
                ));
            }
            if let Err(e) = o.breakers.check_legal() {
                violations.push(format!("breaker state machine: {e}"));
            }
        }
        self.report_violations(now, &violations);
    }

    /// End-of-run replay of the admission log: every admitted request's
    /// recorded ideal critical path must match a recomputation from the
    /// catalog, and its feasibility inequality must actually have held at
    /// gate time. Catches a drifting critical-path estimate or a gate that
    /// admits infeasible work under pressure. Resilience-off runs keep no
    /// admission log and pass trivially.
    pub(super) fn audit_overload_end(&mut self) {
        let Some(o) = self.overload.as_ref() else { return };
        let mut violations: Vec<String> = Vec::new();
        let mut last = SimTime::ZERO;
        for rec in &o.admission_log {
            last = last.max(rec.at);
            let ideal = ideal_cp_ms(self.catalog, rec.rtype);
            if (ideal - rec.ideal_cp_ms).abs() > 1e-6 {
                violations.push(format!(
                    "request {} admission recorded ideal cp {} ms but catalog gives {} ms",
                    rec.request.0, rec.ideal_cp_ms, ideal
                ));
                continue;
            }
            let remaining_ms = rec.deadline.since(rec.at).as_millis_f64();
            if ADMISSION_SLACK * rec.ideal_cp_ms > remaining_ms + 1e-6 {
                violations.push(format!(
                    "request {} admitted infeasibly: slack*cp = {} ms > {} ms to deadline",
                    rec.request.0,
                    ADMISSION_SLACK * rec.ideal_cp_ms,
                    remaining_ms
                ));
            }
        }
        // Once the admission log wraps (admission_log_dropped > 0) the
        // replay is best-effort over the retained tail — still a real
        // check, just not exhaustive.
        self.report_violations(last, &violations);
    }

    /// End-of-run cross-checks between the audit trail and the recorded
    /// spans (needs both the auditor and the trail enabled). In streaming
    /// mode the collector retains no raw spans, so the admit-before-span
    /// check degrades to the trail-ordering check alone.
    pub(super) fn audit_end_of_run(&mut self) {
        if !self.audit.is_enabled() {
            return;
        }
        let mut violations: Vec<String> = Vec::new();
        let ds = self.audit.decisions();
        for w in ds.windows(2) {
            if w[0].at_us > w[1].at_us {
                violations.push(format!(
                    "audit trail not time-ordered: {} recorded after {}",
                    w[0].at_us, w[1].at_us
                ));
                break;
            }
        }
        // No span of a request may start before its admission decision.
        let mut first_start: HashMap<u64, u64> = HashMap::new();
        for s in self.collector.spans() {
            let e = first_start.entry(s.request.0).or_insert(u64::MAX);
            *e = (*e).min(s.start.as_micros());
        }
        for d in &ds {
            if d.kind != DecisionKind::Admit {
                continue;
            }
            let Some(r) = d.request else { continue };
            if let Some(&st) = first_start.get(&r) {
                if d.at_us > st {
                    violations.push(format!(
                        "request {r} admitted at {} after its first span start {st}",
                        d.at_us
                    ));
                }
            }
        }
        let last = ds.last().map_or(SimTime::ZERO, |d| SimTime(d.at_us));
        self.report_violations(last, &violations);
    }

    /// Counts violations under the shared metric and captures the first
    /// one as a minimized repro dump (config + seed + what tripped).
    pub(super) fn report_violations(&mut self, now: SimTime, violations: &[String]) {
        if violations.is_empty() {
            return;
        }
        self.metrics.add(names::INVARIANT_VIOLATIONS, violations.len() as u64);
        if self.invariant_report.is_none() {
            let cfg =
                serde_json::to_string(&self.cfg).unwrap_or_else(|_| format!("{:?}", self.cfg));
            self.invariant_report = Some(format!(
                "first invariant violation at t={now}:\n  {}\nrepro: seed {} with config {cfg}",
                violations.join("\n  "),
                self.cfg.seed,
            ));
        }
    }
}
