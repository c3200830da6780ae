//! The four comparison schemes of Table VI.

use crate::placement::{plan_request, MachinePolicy, PlanPolicy};
use crate::plan::{RequestInfo, RequestPlan};
use crate::scheduler::{PlanEnv, Scheduler, SchedulerCtx};
use mlp_model::{Microservice, ResourceVector};
use mlp_sim::SimDuration;
use mlp_trace::{Decision, DecisionKind};

/// Naive per-node time estimate (ms) used by the simple schedulers, which
/// by definition consult no historical data.
const NAIVE_BUDGET_MS: f64 = 10.0;

/// Number of equal resource slices FairSched divides each machine into.
const FAIR_SLOTS: f64 = 8.0;

/// Placement attempts per scheduling round for ledger-driven schemes.
/// Under overload the waiting queue can hold thousands of requests; trying
/// every one against every machine each round would be quadratic. The cap
/// reflects Algorithm 1's "the algorithm ends until the cluster is
/// saturated": once this many head-of-queue requests fail to place, the
/// cluster is saturated for this round.
pub const MAX_ADMIT_TRIES_PER_ROUND: usize = 16;

/// The simple schemes' round: plan every waiting request in arrival order.
/// Round-robin and least-loaded placement never consult a ledger, so
/// nothing is ever deferred.
fn drain_fcfs(
    queue: &mut Vec<RequestInfo>,
    policy: &impl PlanPolicy,
    rr_cursor: &mut usize,
    ctx: &mut SchedulerCtx<'_>,
) -> Vec<RequestPlan> {
    queue
        .drain(..)
        .map(|req| {
            plan_request(&req, policy, true, rr_cursor, ctx)
                .expect("round-robin and least-loaded placement cannot fail")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// FairSched — FCFS, equal resource slices (Quincy-style fair sharing).
// ---------------------------------------------------------------------------

/// *FairSched*: first-come-first-served admission; every microservice
/// receives an identical `1/FAIR_SLOTS` slice of a machine regardless of
/// its actual demand. Large services run capped; small ones strand
/// resources — the paper's archetype of a microservice-oblivious scheme.
#[derive(Debug, Default)]
pub struct FairSched {
    queue: Vec<RequestInfo>,
    rr_cursor: usize,
}

impl FairSched {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Budgets and grants are cluster-independent once the slice is captured
/// (the env carries no cluster view), so `FairSched::schedule` computes
/// the equal slice up front from the (homogeneous) machine capacity.
struct FairPolicy {
    slice: ResourceVector,
}

impl PlanPolicy for FairPolicy {
    fn budget(&self, _n: usize, _s: &Microservice, _wf: f64, _e: &PlanEnv<'_>) -> SimDuration {
        SimDuration::from_millis_f64(NAIVE_BUDGET_MS)
    }
    fn grant(&self, _n: usize, _s: &Microservice, _e: &PlanEnv<'_>) -> ResourceVector {
        // An equal slice of a (homogeneous) machine.
        self.slice
    }
    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::RoundRobin
    }
}

impl Scheduler for FairSched {
    fn name(&self) -> &'static str {
        "FairSched"
    }

    fn on_arrival(&mut self, req: RequestInfo, _ctx: &mut SchedulerCtx<'_>) {
        self.queue.push(req);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        let policy = FairPolicy { slice: ctx.cluster.machines()[0].capacity * (1.0 / FAIR_SLOTS) };
        drain_fcfs(&mut self.queue, &policy, &mut self.rr_cursor, ctx)
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// CurSched — FCFS, place by current load.
// ---------------------------------------------------------------------------

/// *CurSched*: first-come-first-served; each microservice is granted its
/// nominal demand on whichever machine is least loaded *right now*. No
/// future view: bursts pile work onto machines that look idle at admission
/// but won't be when the service actually invokes.
#[derive(Debug, Default)]
pub struct CurSched {
    queue: Vec<RequestInfo>,
}

impl CurSched {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

struct CurPolicy;

impl PlanPolicy for CurPolicy {
    fn budget(&self, _n: usize, _s: &Microservice, _wf: f64, _e: &PlanEnv<'_>) -> SimDuration {
        SimDuration::from_millis_f64(NAIVE_BUDGET_MS)
    }
    fn grant(&self, _n: usize, svc: &Microservice, _e: &PlanEnv<'_>) -> ResourceVector {
        svc.demand
    }
    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::LeastLoaded
    }
}

impl Scheduler for CurSched {
    fn name(&self) -> &'static str {
        "CurSched"
    }

    fn on_arrival(&mut self, req: RequestInfo, _ctx: &mut SchedulerCtx<'_>) {
        self.queue.push(req);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        drain_fcfs(&mut self.queue, &CurPolicy, &mut 0, ctx)
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// Priority queue shared by the advanced schemes ("Prior." in Table VI).
// ---------------------------------------------------------------------------

/// Inserts an arrival into a deadline-sorted queue (earliest SLO deadline,
/// `arrival + SLO`, the conventional priority for SLA-driven schedulers)
/// at the upper bound of its key. A deadline never changes once a request
/// exists and deferrals preserve relative order, so maintaining the order
/// on insert is exactly equivalent to a per-round *stable* sort (a new
/// arrival sits after every equal-deadline request) — at O(log n) search +
/// one memmove instead of an O(n log n) sort every round.
pub(crate) fn insert_by_deadline(
    queue: &mut Vec<RequestInfo>,
    req: RequestInfo,
    ctx: &SchedulerCtx<'_>,
) {
    let deadline = |r: &RequestInfo| {
        r.arrival + SimDuration::from_millis_f64(ctx.catalog.request(r.rtype).slo_ms)
    };
    let key = deadline(&req);
    let at = queue.partition_point(|r| deadline(r) <= key);
    queue.insert(at, req);
}

/// One admission round over a deadline-sorted queue, shared by the
/// ledger-driven baselines (PartProfile and FullProfile differ only in
/// `policy`; SearchSched is FullProfile plus its `admitted` hook): plan in
/// queue order, hand each admitted plan to `admitted` (which returns the
/// plan to keep), defer what finds no ledger slot, give up for the round
/// after [`MAX_ADMIT_TRIES_PER_ROUND`] failures. Deferrals keep their
/// relative order, so the queue stays deadline-sorted. Ledger placement
/// never reads the round-robin cursor.
pub(crate) fn admit_in_deadline_order(
    queue: &mut Vec<RequestInfo>,
    policy: &impl PlanPolicy,
    ctx: &mut SchedulerCtx<'_>,
    mut admitted: impl FnMut(&RequestInfo, RequestPlan, &mut SchedulerCtx<'_>) -> RequestPlan,
) -> Vec<RequestPlan> {
    let mut plans = Vec::new();
    let mut deferred = Vec::new();
    let pending = std::mem::take(queue);
    let mut failures = 0usize;
    for (i, req) in pending.iter().enumerate() {
        if failures >= MAX_ADMIT_TRIES_PER_ROUND {
            deferred.extend_from_slice(&pending[i..]);
            break;
        }
        match plan_request(req, policy, true, &mut 0, ctx) {
            Some(plan) => plans.push(admitted(req, plan, ctx)),
            None => {
                failures += 1;
                ctx.audit.record(
                    Decision::new(ctx.now, DecisionKind::Defer, "no-ledger-slot").request(req.id),
                );
                deferred.push(*req);
            }
        }
    }
    *queue = deferred;
    plans
}

// ---------------------------------------------------------------------------
// PartProfile — priority queue, placement by performance (time) profile.
// ---------------------------------------------------------------------------

/// *PartProfile* (GrandSLAm-style): reorders the waiting queue by SLO
/// deadline and reserves machine time using the *mean historical execution
/// time* of each microservice. It profiles performance but not resource
/// usage, and plans with means — so execution-time tails still break its
/// alignment.
#[derive(Debug, Default)]
pub struct PartProfile {
    queue: Vec<RequestInfo>,
}

impl PartProfile {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

struct PartPolicy;

impl PlanPolicy for PartPolicy {
    fn budget(&self, _n: usize, svc: &Microservice, wf: f64, env: &PlanEnv<'_>) -> SimDuration {
        let mean = env.profiles.mean_exec_ms(svc.id).unwrap_or(svc.base_ms);
        SimDuration::from_millis_f64(mean * wf)
    }
    fn grant(&self, _n: usize, svc: &Microservice, _e: &PlanEnv<'_>) -> ResourceVector {
        svc.demand
    }
    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::LedgerEarliestFit
    }
}

impl Scheduler for PartProfile {
    fn name(&self) -> &'static str {
        "PartProfile"
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        insert_by_deadline(&mut self.queue, req, ctx);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        admit_in_deadline_order(&mut self.queue, &PartPolicy, ctx, |_, plan, _| plan)
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// FullProfile — priority queue, allocation by the overall profile.
// ---------------------------------------------------------------------------

/// *FullProfile* (Paragon-style SOTA): reorders by SLO deadline and plans
/// with the *full* profile — mean execution time **and** mean observed
/// resource usage (instead of nominal demand). Efficient on average, but
/// mean-based reservations under-provision volatile services and the
/// scheme neither reorders by volatility nor heals deviations.
#[derive(Debug, Default)]
pub struct FullProfile {
    queue: Vec<RequestInfo>,
}

impl FullProfile {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

/// FullProfile's budgets and grants: the profiled mean execution time with
/// a small margin, and the mean observed usage. SearchSched plans with it
/// too.
pub(crate) struct FullPolicy;

impl PlanPolicy for FullPolicy {
    fn budget(&self, _n: usize, svc: &Microservice, wf: f64, env: &PlanEnv<'_>) -> SimDuration {
        let mean = env.profiles.mean_exec_ms(svc.id).unwrap_or(svc.base_ms);
        // Small engineering margin over the mean; still far short of tails.
        SimDuration::from_millis_f64(mean * wf * 1.1)
    }
    fn grant(&self, _n: usize, svc: &Microservice, env: &PlanEnv<'_>) -> ResourceVector {
        let observed = env.profiles.mean_usage(svc.id);
        if observed == ResourceVector::ZERO {
            svc.demand
        } else {
            observed
        }
    }
    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::LedgerEarliestFit
    }
}

impl Scheduler for FullProfile {
    fn name(&self) -> &'static str {
        "FullProfile"
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        insert_by_deadline(&mut self.queue, req, ctx);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        admit_in_deadline_order(&mut self.queue, &FullPolicy, ctx, |_, plan, _| plan)
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::Cluster;
    use mlp_model::RequestCatalog;
    use mlp_net::NetworkModel;
    use mlp_sim::SimTime;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};

    struct Harness {
        cluster: Cluster,
        catalog: RequestCatalog,
        net: NetworkModel,
        profiles: ProfileStore,
        metrics: MetricsRegistry,
        audit: AuditLog,
    }

    impl Harness {
        fn new(machines: usize) -> Self {
            Harness {
                cluster: Cluster::homogeneous(
                    machines,
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                ),
                catalog: RequestCatalog::paper(),
                net: NetworkModel::paper_default(),
                profiles: ProfileStore::new(),
                metrics: MetricsRegistry::new(),
                audit: AuditLog::disabled(),
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
    fn fairsched_admits_everything_fcfs() {
        let mut h = Harness::new(4);
        let r1 = h.req(1, "basicSearch", 0);
        let r2 = h.req(2, "compose-post", 1);
        let mut s = FairSched::new();
        let mut ctx = h.ctx(1);
        s.on_arrival(r1, &mut ctx);
        s.on_arrival(r2, &mut ctx);
        assert_eq!(s.waiting(), 2);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].request, RequestId(1), "FCFS order");
        assert_eq!(s.waiting(), 0);
        // Equal slices: every node gets capacity/8 regardless of demand.
        let slice = ResourceVector::new(6.0, 32_000.0, 1_000.0) * (1.0 / 8.0);
        for np in &plans[0].nodes {
            assert_eq!(np.grant, slice);
            assert!(!np.reserved);
        }
    }

    #[test]
    fn cursched_places_on_least_loaded() {
        let mut h = Harness::new(3);
        let _ = h
            .cluster
            .machine_mut(mlp_cluster::MachineId(0))
            .occupy(ResourceVector::new(5.0, 0.0, 0.0));
        let _ = h
            .cluster
            .machine_mut(mlp_cluster::MachineId(2))
            .occupy(ResourceVector::new(3.0, 0.0, 0.0));
        let r = h.req(1, "read-user-timeline", 0);
        let mut s = CurSched::new();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        for np in &plans[0].nodes {
            assert_eq!(np.machine, mlp_cluster::MachineId(1));
        }
    }

    #[test]
    fn partprofile_orders_by_deadline() {
        let mut h = Harness::new(8);
        // basicSearch SLO ≈ 5×(3+15+25+12) vs read-user-timeline 75ms;
        // the tighter-deadline request must be planned first even if it
        // arrived later.
        let loose = h.req(1, "basicSearch", 0);
        let tight = h.req(2, "read-user-timeline", 5);
        let mut s = PartProfile::new();
        let mut ctx = h.ctx(5);
        s.on_arrival(loose, &mut ctx);
        s.on_arrival(tight, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].request, RequestId(2), "earliest deadline first");
    }

    #[test]
    fn partprofile_uses_profile_means_for_budgets() {
        let mut h = Harness::new(2);
        let svc = h.catalog.request_by_name("read-user-timeline").unwrap().dag.node(0).service;
        for ms in [40.0, 60.0] {
            h.profiles.record(
                svc,
                mlp_trace::ExecutionCase {
                    usage: ResourceVector::ZERO,
                    machine_load: 0.0,
                    exec_ms: ms,
                },
            );
        }
        let r = h.req(1, "read-user-timeline", 0);
        let mut s = PartProfile::new();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        // Node 0's budget = profiled mean (50ms), not base (2ms).
        assert_eq!(plans[0].nodes[0].budget, SimDuration::from_millis(50));
        assert!(plans[0].nodes[0].reserved);
    }

    #[test]
    fn fullprofile_defers_unplaceable_requests() {
        let mut h = Harness::new(1);
        // Saturate the single machine's ledger for a long time.
        h.cluster.machine_mut(mlp_cluster::MachineId(0)).ledger.reserve(
            SimTime::ZERO,
            SimTime::from_secs(120),
            ResourceVector::new(6.0, 32_000.0, 1_000.0),
        );
        let r = h.req(1, "basicSearch", 0);
        let mut s = FullProfile::new();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert!(plans.is_empty());
        assert_eq!(s.waiting(), 1, "request stays queued for the next round");
    }

    #[test]
    fn fullprofile_grants_observed_usage() {
        let mut h = Harness::new(2);
        let rt = h.catalog.request_by_name("read-user-timeline").unwrap();
        let svc = rt.dag.node(1).service;
        let nominal = h.catalog.services.get(rt.dag.node(0).service).demand;
        let observed = ResourceVector::new(0.2, 100.0, 5.0);
        h.profiles.record(
            svc,
            mlp_trace::ExecutionCase { usage: observed, machine_load: 0.1, exec_ms: 8.0 },
        );
        let r = h.req(1, "read-user-timeline", 0);
        let mut s = FullProfile::new();
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans[0].nodes[1].grant, observed);
        // Unprofiled node falls back to nominal demand.
        assert_eq!(plans[0].nodes[0].grant, nominal);
    }

    #[test]
    fn names_match_table6() {
        assert_eq!(FairSched::new().name(), "FairSched");
        assert_eq!(CurSched::new().name(), "CurSched");
        assert_eq!(PartProfile::new().name(), "PartProfile");
        assert_eq!(FullProfile::new().name(), "FullProfile");
    }
}
