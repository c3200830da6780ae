//! Shared DAG-planning machinery used by all schemes.

use crate::plan::{NodePlan, RequestInfo, RequestPlan};
use crate::scheduler::{PlanEnv, SchedulerCtx};
use mlp_cluster::{Machine, MachineId, ShardId};
use mlp_model::{Microservice, ResourceVector, ServiceDag};
use mlp_sim::{SimDuration, SimTime};

/// How [`earliest_slot`] ranks machines that offer the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTie {
    /// The machine with the most planned headroom over the window wins
    /// (worst-fit; a strictly greater score displaces, so the first in scan
    /// order wins exact ties). Admission uses this: spreading keeps slack
    /// for execution-time and communication slips — packing tightly onto
    /// one machine would turn every slip into the Fig 5 contention.
    MostHeadroom,
    /// The first machine in scan order wins (crash re-planning, pinned
    /// probes).
    FirstInScan,
}

/// The one machine scan: the live machine of `machines` on whose ledger
/// `grant` fits for `budget` at the earliest instant in
/// `[ready, horizon_end)`, ties broken by `tie`. `None` when no live
/// machine has a window before the horizon.
///
/// Exact, and stateless, in two passes:
///
/// 1. One window-peak query per machine at `ready`
///    ([`ResourceLedger::available_if_fits`](mlp_cluster::ResourceLedger::available_if_fits)).
///    Nothing can start before `ready`, so a machine that fits there offers
///    the winning slot, and the same peak gives its headroom score; an
///    idle window (score 1.0) cannot be beaten and ends the scan.
/// 2. Only when no machine fits at `ready`: walk each timeline with
///    `earliest_fit`, bounded by the best slot found so far (the *latest
///    useful start*), so a saturated timeline is abandoned as soon as it
///    cannot win.
///
/// Pass 1 is skipped where its question is not `earliest_fit`'s: a zero
/// budget (no window to query) and a window reaching past the horizon
/// (`earliest_fit` clips it there).
pub fn earliest_slot<'a>(
    machines: impl Iterator<Item = &'a Machine> + Clone,
    ready: SimTime,
    horizon_end: SimTime,
    budget: SimDuration,
    grant: ResourceVector,
    tie: SlotTie,
) -> Option<(MachineId, SimTime)> {
    let live = machines.filter(|m| m.is_up()); // crashed machines take no new plans

    if budget > SimDuration::ZERO && ready + budget <= horizon_end {
        // The best so far: id, headroom score, and the free vector and
        // capacity it was scored from.
        let mut roomiest: Option<(MachineId, f64, ResourceVector, ResourceVector)> = None;
        for m in live.clone() {
            let Some(free) = m.ledger.available_if_fits(ready, ready + budget, grant) else {
                continue;
            };
            if tie == SlotTie::FirstInScan {
                return Some((m.id, ready));
            }
            // Dominated: against an equal capacity the score is monotone
            // in every free component (IEEE division and addition round
            // monotonically), so a machine with no more free anywhere
            // cannot score strictly higher and never displaces the best —
            // skip its three divisions.
            if roomiest.is_some_and(|(_, _, best, cap)| {
                cap == m.capacity
                    && free.cpu <= best.cpu
                    && free.mem <= best.mem
                    && free.io <= best.io
            }) {
                continue;
            }
            let headroom = free.utilization_against(&m.capacity);
            if roomiest.is_none_or(|(_, h, _, _)| headroom > h) {
                roomiest = Some((m.id, headroom, free, m.capacity));
                if headroom >= 1.0 {
                    break;
                }
            }
        }
        if let Some((m, ..)) = roomiest {
            return Some((m, ready));
        }
    }

    let mut best: Option<(MachineId, SimTime, f64)> = None;
    for m in live {
        // The O(1) availability index: a machine whose lowest level cannot
        // host the grant has no window at all.
        if !m.ledger.might_fit(grant) {
            continue;
        }
        let latest = best.map(|(_, slot, _)| slot);
        let Some(slot) = m.ledger.earliest_fit(ready, horizon_end, budget, grant, latest) else {
            continue;
        };
        let headroom = match tie {
            SlotTie::MostHeadroom => {
                m.ledger.available(slot, slot + budget).utilization_against(&m.capacity)
            }
            SlotTie::FirstInScan => 0.0, // equal scores: only an earlier slot displaces
        };
        if best.is_none_or(|(_, t, h)| slot < t || (slot == t && headroom > h)) {
            best = Some((m.id, slot, headroom));
        }
    }
    best.map(|(m, slot, _)| (m, slot))
}

/// [`earliest_slot`] over the cluster, shard-first: only the `home` shard
/// is searched unless it has no feasible window at all, in which case the
/// scan overflows to the other shards in rotation order (cross-shard work
/// stealing, counted in `SHARD_OVERFLOWS`). The first shard with a window
/// wins — no wider scan. With one shard (the default) this is exactly a
/// whole-cluster scan.
pub fn earliest_slot_in_cluster(
    ctx: &SchedulerCtx<'_>,
    home: ShardId,
    ready: SimTime,
    horizon_end: SimTime,
    budget: SimDuration,
    grant: ResourceVector,
    tie: SlotTie,
) -> Option<(MachineId, SimTime)> {
    for shard in ctx.cluster.shard_scan_order(home) {
        let machines = ctx.cluster.shard_machines(shard);
        if let Some(hit) = earliest_slot(machines, ready, horizon_end, budget, grant, tie) {
            if shard != home {
                ctx.metrics.inc(mlp_trace::metrics::names::SHARD_OVERFLOWS);
            }
            return Some(hit);
        }
    }
    None
}

/// How a scheme picks the machine for each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachinePolicy {
    /// Cycle through machines (FairSched).
    RoundRobin,
    /// Lowest instantaneous utilization at planning time (CurSched).
    LeastLoaded,
    /// Scan all machines' future ledgers and take the slot that starts
    /// earliest; requires the grant to fit for the whole budget, and is the
    /// one policy whose grants are written into the ledgers
    /// (PartProfile / FullProfile / SearchSched / v-MLP).
    LedgerEarliestFit,
}

/// Planning horizon beyond `now`: a node that cannot be placed before
/// `now + PLAN_HORIZON` makes the whole request unplaceable this round.
/// Ten seconds is far beyond any request's SLO — planning further out
/// would only delay the inevitable violation while bloating ledgers.
pub const PLAN_HORIZON: SimDuration = SimDuration::from_secs(10);

/// Per-node planning inputs a scheme provides to the builder.
///
/// Budgets and grants consult only the read-only [`PlanEnv`] (profiles,
/// catalog, network, now) — never the mutable cluster, whose ledgers only
/// the placement step reads and writes.
pub trait PlanPolicy {
    /// Execution-time budget Δt for a node.
    fn budget(
        &self,
        node: usize,
        svc: &Microservice,
        work_factor: f64,
        env: &PlanEnv<'_>,
    ) -> SimDuration;

    /// Resource grant for a node.
    fn grant(&self, node: usize, svc: &Microservice, env: &PlanEnv<'_>) -> ResourceVector;

    /// Machine-selection policy.
    fn machine_policy(&self) -> MachinePolicy;
}

/// Earliest start of DAG node `i`: every parent's planned end plus the
/// expected caller→callee communication delay (the conservative
/// cross-machine one; co-location is decided later), and never before
/// `now`.
fn ready_time(
    dag: &ServiceDag,
    i: usize,
    svc: &Microservice,
    planned: &[Option<NodePlan>],
    env: &PlanEnv<'_>,
) -> SimTime {
    let comm = env.net.expected_delay(false, svc.comm);
    dag.parents_iter(i)
        .map(|p| planned[p].as_ref().expect("topo order visits parents first").planned_end() + comm)
        .fold(env.now, SimTime::max)
}

/// The one DAG planning loop. Visits `req`'s nodes in topological order;
/// for each it takes the policy's budget and grant and the node's
/// [`ready_time`], asks `place(node, ready, budget, grant, ctx)` for a
/// `(machine, start)`, and — under [`MachinePolicy::LedgerEarliestFit`] —
/// reserves the grant there. When `place` finds nothing, every reservation
/// made so far is rolled back and the plan is `None`.
fn plan_nodes(
    req: &RequestInfo,
    policy: &impl PlanPolicy,
    ctx: &mut SchedulerCtx<'_>,
    mut place: impl FnMut(
        usize,
        SimTime,
        SimDuration,
        ResourceVector,
        &SchedulerCtx<'_>,
    ) -> Option<(MachineId, SimTime)>,
) -> Option<RequestPlan> {
    let env = ctx.env();
    let rtype = ctx.catalog.request(req.rtype);
    let dag = &rtype.dag;
    let reserve = policy.machine_policy() == MachinePolicy::LedgerEarliestFit;
    let mut nodes: Vec<Option<NodePlan>> = vec![None; dag.len()];
    let mut reserved: Vec<(MachineId, SimTime, SimTime, ResourceVector)> = Vec::new();

    for &i in rtype.topo_order() {
        let node = dag.node(i);
        let svc = ctx.catalog.services.get(node.service);
        let budget = policy.budget(i, svc, node.work_factor, &env);
        let grant = policy.grant(i, svc, &env);
        let ready = ready_time(dag, i, svc, &nodes, &env);

        let Some((machine, start)) = place(i, ready, budget, grant, ctx) else {
            for (m, from, to, amt) in reserved {
                ctx.cluster.machine_mut(m).ledger.unreserve(from, to, amt);
            }
            return None;
        };

        let reserved_here = reserve && budget > SimDuration::ZERO;
        if reserved_here {
            let end = start + budget;
            ctx.cluster.machine_mut(machine).ledger.reserve(start, end, grant);
            reserved.push((machine, start, end, grant));
        }
        nodes[i] = Some(NodePlan {
            machine,
            planned_start: start,
            budget,
            grant,
            reserved: reserved_here,
        });
    }

    Some(RequestPlan {
        request: req.id,
        nodes: nodes.into_iter().map(|n| n.expect("all nodes planned")).collect(),
    })
}

/// Plans every node of `req`'s DAG in topological order.
///
/// For each node the earliest feasible start is the latest parent's
/// planned end plus the expected caller→callee communication delay; the
/// machine policy then decides where (and for ledger policies, exactly
/// when) the node runs. Returns `None` if any node cannot be placed within
/// [`PLAN_HORIZON`] — the caller decides whether to defer the request
/// (v-MLP's "switch `r_i` with `r_{i+1}`") or force-place it.
///
/// Ledger placement searches `req`'s home shard first; `overflow` says
/// whether a node the home shard cannot host may spill to the other shards
/// ([`earliest_slot_in_cluster`]) or fails the plan (the home-shard pass
/// of v-MLP's sharded round, which retries it in its overflow pass).
///
/// On success, reservations (if any) are already written to the ledgers;
/// [`unreserve_plan`] rolls them back.
pub fn plan_request(
    req: &RequestInfo,
    policy: &impl PlanPolicy,
    overflow: bool,
    rr_cursor: &mut usize,
    ctx: &mut SchedulerCtx<'_>,
) -> Option<RequestPlan> {
    let n_machines = ctx.cluster.len();
    assert!(n_machines > 0, "cannot plan on an empty cluster");
    let machine_policy = policy.machine_policy();
    let home = ctx.cluster.home_shard(req.id.0);
    plan_nodes(req, policy, ctx, |_, ready, budget, grant, ctx| match machine_policy {
        MachinePolicy::RoundRobin => {
            let m = MachineId((*rr_cursor % n_machines) as u32);
            *rr_cursor += 1;
            Some((m, ready))
        }
        MachinePolicy::LeastLoaded => ctx.cluster.least_loaded().map(|m| (m, ready)),
        MachinePolicy::LedgerEarliestFit => {
            let (horizon_end, tie) = (ctx.now + PLAN_HORIZON, SlotTie::MostHeadroom);
            if overflow {
                earliest_slot_in_cluster(ctx, home, ready, horizon_end, budget, grant, tie)
            } else {
                let machines = ctx.cluster.shard_machines(home);
                earliest_slot(machines, ready, horizon_end, budget, grant, tie)
            }
        }
    })
}

/// [`plan_request`] with node `i` pinned to `machines[i]`: each node takes
/// the earliest window on its machine ([`SlotTie::FirstInScan`]).
/// SearchSched's moves rebuild their candidate schedules with it.
pub(crate) fn plan_pinned(
    req: &RequestInfo,
    policy: &impl PlanPolicy,
    machines: &[MachineId],
    ctx: &mut SchedulerCtx<'_>,
) -> Option<RequestPlan> {
    plan_nodes(req, policy, ctx, |i, ready, budget, grant, ctx| {
        let pinned = std::iter::once(ctx.cluster.machine(machines[i]));
        earliest_slot(pinned, ready, ctx.now + PLAN_HORIZON, budget, grant, SlotTie::FirstInScan)
    })
}

/// Rolls back every reservation a plan wrote (when a plan is abandoned or
/// re-made by the self-healing module).
pub fn unreserve_plan(plan: &RequestPlan, ctx: &mut SchedulerCtx<'_>) {
    for np in &plan.nodes {
        if np.reserved && np.budget > SimDuration::ZERO {
            ctx.cluster.machine_mut(np.machine).ledger.unreserve(
                np.planned_start,
                np.planned_end(),
                np.grant,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::Cluster;
    use mlp_model::RequestCatalog;
    use mlp_net::NetworkModel;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};

    struct TestPolicy {
        policy: MachinePolicy,
        budget_ms: u64,
        grant: ResourceVector,
    }

    impl PlanPolicy for TestPolicy {
        fn budget(&self, _n: usize, _s: &Microservice, _wf: f64, _e: &PlanEnv<'_>) -> SimDuration {
            SimDuration::from_millis(self.budget_ms)
        }
        fn grant(&self, _n: usize, _s: &Microservice, _e: &PlanEnv<'_>) -> ResourceVector {
            self.grant
        }
        fn machine_policy(&self) -> MachinePolicy {
            self.policy
        }
    }

    fn harness() -> (Cluster, RequestCatalog, NetworkModel, ProfileStore, MetricsRegistry) {
        (
            Cluster::homogeneous(4, ResourceVector::new(6.0, 32_000.0, 1_000.0)),
            RequestCatalog::paper(),
            NetworkModel::paper_default(),
            ProfileStore::new(),
            MetricsRegistry::new(),
        )
    }

    static NO_AUDIT: std::sync::OnceLock<AuditLog> = std::sync::OnceLock::new();

    fn req(catalog: &RequestCatalog, name: &str) -> RequestInfo {
        RequestInfo {
            id: RequestId(1),
            rtype: catalog.request_by_name(name).unwrap().id,
            arrival: SimTime::ZERO,
        }
    }

    macro_rules! ctx {
        ($cluster:expr, $cat:expr, $net:expr, $prof:expr, $met:expr) => {
            SchedulerCtx {
                now: SimTime::ZERO,
                cluster: &mut $cluster,
                profiles: &$prof,
                catalog: &$cat,
                net: &$net,
                metrics: &$met,
                audit: NO_AUDIT.get_or_init(AuditLog::disabled),
            }
        };
    }

    #[test]
    fn round_robin_plans_all_nodes() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::RoundRobin,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "compose-post");
        let plan = plan_request(&r, &p, true, &mut cursor, &mut ctx).unwrap();
        let dag = &cat.request_by_name("compose-post").unwrap().dag;
        assert_eq!(plan.nodes.len(), dag.len());
        assert!(plan.respects_dag(dag));
        // Round-robin cycles machines.
        assert_ne!(plan.nodes[0].machine, plan.nodes[1].machine);
    }

    #[test]
    fn dependencies_are_sequenced_with_comm_gaps() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 20,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // 3-node chain
        let plan = plan_request(&r, &p, true, &mut cursor, &mut ctx).unwrap();
        // Child starts strictly after parent's planned end (comm gap > 0).
        let dag = &cat.request_by_name("read-user-timeline").unwrap().dag;
        for &(a, b) in dag.edges() {
            assert!(plan.nodes[b].planned_start > plan.nodes[a].planned_end());
        }
    }

    #[test]
    fn ledger_policy_avoids_overcommit() {
        let (mut cluster, cat, net, prof, met) = harness();
        // Fill machine ledgers almost completely for the next 30 s.
        for m in cluster.machines_mut() {
            m.ledger.reserve(
                SimTime::ZERO,
                SimTime::from_secs(30),
                ResourceVector::new(5.5, 31_000.0, 950.0),
            );
        }
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10,
            grant: ResourceVector::new(2.0, 500.0, 50.0), // does not fit anywhere
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline");
        assert!(plan_request(&r, &p, true, &mut cursor, &mut ctx).is_none());
    }

    #[test]
    fn failed_plan_rolls_back_reservations() {
        let (mut cluster, cat, net, prof, met) = harness();
        // Only machine 0 has room, and only enough for ~1 concurrent node;
        // a wide DAG will fail part-way and must roll back.
        for m in cluster.machines_mut() {
            let block = if m.id.0 == 0 {
                ResourceVector::new(4.0, 30_000.0, 900.0)
            } else {
                ResourceVector::new(6.0, 32_000.0, 1_000.0)
            };
            m.ledger.reserve(SimTime::ZERO, SimTime::from_secs(40), block);
        }
        let baseline_avail: Vec<ResourceVector> = cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10_000, // long budgets so concurrent branches collide
            grant: ResourceVector::new(1.5, 1_000.0, 80.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "compose-post"); // wide fan-out
        let result = plan_request(&r, &p, true, &mut cursor, &mut ctx);
        assert!(result.is_none(), "expected unplaceable");
        // Ledgers restored exactly.
        for (m, before) in ctx.cluster.machines().iter().zip(baseline_avail) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} ledger not rolled back", m.id);
        }
    }

    #[test]
    fn placement_stays_in_home_shard_when_it_fits() {
        let (mut cluster, cat, net, prof, met) = harness();
        cluster = cluster.with_shards(2);
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // RequestId(1) → home shard 1
        let plan = plan_request(&r, &p, true, &mut cursor, &mut ctx).unwrap();
        for np in &plan.nodes {
            assert_eq!(ctx.cluster.shard_of(np.machine), mlp_cluster::ShardId(1));
        }
        assert_eq!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS), 0);
    }

    #[test]
    fn saturated_home_shard_overflows_to_neighbor() {
        let (mut cluster, cat, net, prof, met) = harness();
        cluster = cluster.with_shards(2);
        // Fill every ledger in shard 1 (odd machine ids) for a long time.
        for m in cluster.machines_mut() {
            if m.id.0 % 2 == 1 {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                );
            }
        }
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "read-user-timeline"); // home shard 1 is saturated
        let plan = plan_request(&r, &p, true, &mut cursor, &mut ctx).unwrap();
        for np in &plan.nodes {
            assert_eq!(
                ctx.cluster.shard_of(np.machine),
                mlp_cluster::ShardId(0),
                "work must be stolen by the overflow shard"
            );
        }
        assert!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS) > 0);
    }

    #[test]
    fn shard_local_plan_matches_full_plan_bitwise() {
        // When the home shard has room, the overflow scan never leaves it —
        // so the home-shard-only plan must be the byte-identical plan with
        // the same ledger writes.
        let (cluster, cat, net, prof, met) = harness();
        let mut full = cluster.with_shards(2);
        let mut local = full.clone();
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 25,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let r = req(&cat, "read-user-timeline"); // RequestId(1) → home shard 1
        let mut cursor = 0;
        let reference =
            plan_request(&r, &p, true, &mut cursor, &mut ctx!(full, cat, net, prof, met));
        let shard_plan =
            plan_request(&r, &p, false, &mut cursor, &mut ctx!(local, cat, net, prof, met));
        assert_eq!(shard_plan, reference);
        assert!(reference.is_some());
        for (a, b) in full.machines().iter().zip(local.machines()) {
            let wa = a.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            let wb = b.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(wa, wb, "ledger divergence on {:?}", a.id);
        }
    }

    #[test]
    fn shard_local_plan_rolls_back_on_failure() {
        let (cluster, cat, net, prof, met) = harness();
        let mut local = cluster.with_shards(2);
        // Saturate shard 1 (odd ids) so the home-shard-only plan must fail,
        // though shard 0 has room.
        for m in local.machines_mut() {
            if m.id.0 % 2 == 1 {
                m.ledger.reserve(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                    ResourceVector::new(6.0, 32_000.0, 1_000.0),
                );
            }
        }
        let baseline: Vec<ResourceVector> = local
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let r = req(&cat, "read-user-timeline");
        let mut ctx = ctx!(local, cat, net, prof, met);
        assert!(plan_request(&r, &p, false, &mut 0, &mut ctx).is_none());
        assert_eq!(met.counter(mlp_trace::metrics::names::SHARD_OVERFLOWS), 0);
        for (m, before) in local.machines().iter().zip(baseline) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} not rolled back", m.id);
        }
    }

    #[test]
    fn dominated_scores_are_skipped_without_changing_the_pick() {
        let a = ResourceVector::new(6.0, 32_000.0, 1_000.0);
        let larger = ResourceVector::new(12.0, 64_000.0, 2_000.0);
        let smaller = ResourceVector::new(2.0, 10_000.0, 300.0);
        let mut cluster = Cluster::heterogeneous(vec![a, a, larger, smaller, smaller]);
        let busy = [
            ResourceVector::new(3.0, 16_000.0, 500.0), // m0: headroom 0.5
            ResourceVector::new(4.0, 20_000.0, 600.0), // m1: dominated by m0, same capacity
            ResourceVector::new(5.0, 30_000.0, 900.0), // m2: more free than m0, displaces it
            ResourceVector::new(0.2, 1_000.0, 30.0),   // m3: less free than m2, yet roomier
            ResourceVector::new(0.4, 2_000.0, 60.0),   // m4: dominated by m3, same capacity
        ];
        for (m, amount) in cluster.machines_mut().iter_mut().zip(busy) {
            m.ledger.reserve(SimTime::ZERO, SimTime::from_secs(1), amount);
        }
        let (ready, budget) = (SimTime::ZERO, SimDuration::from_millis(10));
        let horizon = SimTime::from_secs(10);
        let grant = ResourceVector::new(1.0, 1_000.0, 50.0);

        // Score every candidate; the first strictly greater score wins.
        let mut scored: Option<(MachineId, f64)> = None;
        for m in cluster.machines() {
            let free = m.ledger.available_if_fits(ready, ready + budget, grant).unwrap();
            let h = free.utilization_against(&m.capacity);
            if scored.is_none_or(|(_, best)| h > best) {
                scored = Some((m.id, h));
            }
        }
        let picked = earliest_slot(
            cluster.machines().iter(),
            ready,
            horizon,
            budget,
            grant,
            SlotTie::MostHeadroom,
        );
        assert_eq!(picked, scored.map(|(m, _)| (m, ready)));
        assert_eq!(picked, Some((MachineId(3), ready)), "the smaller machine is the roomiest");
    }

    #[test]
    fn pinned_plans_use_their_machines_and_roll_back_a_miss() {
        let (mut cluster, cat, net, prof, met) = harness();
        // Machine 3 is full for a minute, past the planning horizon.
        cluster.machine_mut(MachineId(3)).ledger.reserve(
            SimTime::ZERO,
            SimTime::from_secs(60),
            ResourceVector::new(6.0, 32_000.0, 1_000.0),
        );
        let before: Vec<ResourceVector> = cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 10,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let r = req(&cat, "read-user-timeline"); // 3-node chain
        let pins = [MachineId(2), MachineId(0), MachineId(1)];
        let plan = plan_pinned(&r, &p, &pins, &mut ctx).unwrap();
        for (np, &m) in plan.nodes.iter().zip(&pins) {
            assert_eq!(np.machine, m);
            assert!(np.reserved);
        }
        unreserve_plan(&plan, &mut ctx);

        // The last node's machine has no window: the two nodes before it
        // are rolled back.
        let pins = [MachineId(0), MachineId(1), MachineId(3)];
        assert!(plan_pinned(&r, &p, &pins, &mut ctx).is_none());
        for (m, before) in ctx.cluster.machines().iter().zip(before) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} not rolled back", m.id);
        }
    }

    #[test]
    fn unreserve_plan_roundtrips() {
        let (mut cluster, cat, net, prof, met) = harness();
        let mut ctx = ctx!(cluster, cat, net, prof, met);
        let p = TestPolicy {
            policy: MachinePolicy::LedgerEarliestFit,
            budget_ms: 50,
            grant: ResourceVector::new(1.0, 100.0, 10.0),
        };
        let mut cursor = 0;
        let r = req(&cat, "basicSearch");
        let plan = plan_request(&r, &p, true, &mut cursor, &mut ctx).unwrap();
        unreserve_plan(&plan, &mut ctx);
        for m in ctx.cluster.machines() {
            let avail = m.ledger.available(SimTime::ZERO, SimTime::from_secs(10));
            assert_eq!(avail, m.capacity, "reservations leaked on {:?}", m.id);
        }
    }
}
