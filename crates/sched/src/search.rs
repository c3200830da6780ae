//! SearchSched — a seeded local-search placement contender.
//!
//! The registry's first out-of-enum scheduler (VMALS-flavoured): requests
//! are admitted in deadline order exactly like FullProfile, through the
//! same admission loop, budgets and grants, but each admitted plan (up to a
//! per-round budget) is then *refined* by a bounded variable-neighborhood
//! search. The greedy earliest-fit plan is the incumbent; each VNS
//! iteration re-pins `k` random DAG nodes onto machines drawn from a
//! bounded candidate window, rebuilds the schedule through the shared
//! planning loop (`placement::plan_pinned`) against the real reservation
//! ledgers, and keeps the candidate only when it strictly improves the
//! plan's makespan. A failed move is rolled back with the ledger's exact
//! `unreserve` (bitwise-restoring, see `placement.rs` tests), so a
//! refinement round leaves no trace unless it wins.
//!
//! Every stochastic choice comes from a [`SimRng`] forked from the
//! experiment seed, and all moves run sequentially inside `schedule()`,
//! so the whole scheme is deterministic: same seed → identical plans,
//! identical audit trail.

use crate::baselines::{admit_in_deadline_order, insert_by_deadline, FullPolicy};
use crate::placement::{plan_pinned, unreserve_plan};
use crate::plan::{RequestInfo, RequestPlan};
use crate::scheduler::{Scheduler, SchedulerCtx};
use mlp_cluster::MachineId;
use mlp_sim::{SimRng, SimTime};
use mlp_trace::{Decision, DecisionKind};
use rand::Rng;

/// RNG stream id the scheduler forks off the experiment seed. Streams 0–2
/// are taken by arrivals / simulation / profile warm-up and 3 by the
/// overload runtime (see the engine's `run_full`/`simulate`); a dedicated
/// stream keeps SearchSched's draws independent of the offered load shared
/// with every other scheme.
pub const SEARCH_RNG_STREAM: u64 = 4;

/// Maximum VNS neighborhood size: the largest number of nodes a single
/// move may re-pin. The search starts at `k = 1`, grows `k` on every
/// non-improving move, and resets to 1 on an improvement.
const NEIGHBORHOOD: usize = 3;

/// Candidate machine window per re-pinned node: a move draws the node's
/// new machine from this many consecutive machines starting at a seeded
/// offset, instead of scanning the fleet.
const WINDOW: usize = 8;

/// VNS iterations spent refining one admitted request.
const ITERS: usize = 12;

/// Refined admissions per scheduling round; admissions past this cap keep
/// their greedy plan untouched, bounding per-tick search cost. With
/// [`ITERS`], sized so a refinement round costs the same order of work as
/// the baselines' admission scan.
const ROUND_BUDGET: usize = 8;

/// The plan cost the search minimizes: makespan end first, then the sum
/// of planned starts (earlier work beats equal-makespan procrastination).
fn plan_cost(plan: &RequestPlan) -> (SimTime, u128) {
    let start_sum = plan.nodes.iter().map(|n| n.planned_start.0 as u128).sum();
    (plan.planned_makespan_end(), start_sum)
}

/// The volatility-agnostic local-search scheduler: FullProfile's
/// admission, budgets and grants (`FullPolicy`: the search refines
/// *placements*, so it reuses the strongest baseline's estimates), plus a
/// seeded refinement of the first `ROUND_BUDGET` plans admitted in each
/// round.
pub struct SearchSched {
    queue: Vec<RequestInfo>,
    rng: SimRng,
}

impl SearchSched {
    /// Creates the scheme, seeded from the experiment seed.
    pub fn new(seed: u64) -> Self {
        SearchSched { queue: Vec::new(), rng: SimRng::new(seed).fork(SEARCH_RNG_STREAM) }
    }
}

/// Re-reserves exactly the slots a previously unreserved plan held — legal
/// because `reserve`/`unreserve` round-trips are exact.
fn restore_plan(plan: &RequestPlan, ctx: &mut SchedulerCtx<'_>) {
    for np in &plan.nodes {
        if np.reserved {
            ctx.cluster.machine_mut(np.machine).ledger.reserve(
                np.planned_start,
                np.planned_end(),
                np.grant,
            );
        }
    }
}

/// VNS refinement of one admitted (and currently reserved) plan.
fn refine(
    rng: &mut SimRng,
    req: &RequestInfo,
    mut best: RequestPlan,
    ctx: &mut SchedulerCtx<'_>,
) -> RequestPlan {
    let n_machines = ctx.cluster.len();
    let n_nodes = best.nodes.len();
    if n_machines < 2 || n_nodes == 0 {
        return best;
    }
    let window = WINDOW.min(n_machines);
    let mut best_cost = plan_cost(&best);
    let mut k = 1usize;
    for _ in 0..ITERS {
        // Draw the move first so the RNG stream is consumed identically
        // whether or not the move ends up feasible.
        let mut assignment: Vec<MachineId> = best.nodes.iter().map(|n| n.machine).collect();
        for _ in 0..k.min(n_nodes) {
            let node = rng.gen_range(0..n_nodes);
            let base = rng.gen_range(0..n_machines);
            let offset = rng.gen_range(0..window);
            assignment[node] = MachineId(((base + offset) % n_machines) as u32);
        }

        unreserve_plan(&best, ctx);
        match plan_pinned(req, &FullPolicy, &assignment, ctx) {
            Some(cand) if plan_cost(&cand) < best_cost => {
                ctx.audit.record(
                    Decision::new(ctx.now, DecisionKind::PlacementRefine, "search-improved")
                        .request(req.id),
                );
                best_cost = plan_cost(&cand);
                best = cand;
                k = 1;
            }
            other => {
                if let Some(cand) = other {
                    unreserve_plan(&cand, ctx);
                }
                restore_plan(&best, ctx);
                k = if k >= NEIGHBORHOOD { 1 } else { k + 1 };
            }
        }
    }
    best
}

impl Scheduler for SearchSched {
    fn name(&self) -> &'static str {
        "SearchSched"
    }

    fn on_arrival(&mut self, req: RequestInfo, ctx: &mut SchedulerCtx<'_>) {
        insert_by_deadline(&mut self.queue, req, ctx);
    }

    fn schedule(&mut self, ctx: &mut SchedulerCtx<'_>) -> Vec<RequestPlan> {
        let (rng, mut refined) = (&mut self.rng, 0);
        admit_in_deadline_order(&mut self.queue, &FullPolicy, ctx, |req, greedy, ctx| {
            if refined == ROUND_BUDGET {
                return greedy;
            }
            refined += 1;
            refine(rng, req, greedy, ctx)
        })
    }

    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FullProfile;
    use mlp_cluster::Cluster;
    use mlp_model::{RequestCatalog, ResourceVector};
    use mlp_net::NetworkModel;
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
    fn plans_respect_dag_and_reserve() {
        let mut h = Harness::new(6);
        let r = h.req(1, "compose-post", 0);
        let mut s = SearchSched::new(7);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        assert_eq!(plans.len(), 1);
        let dag = &ctx.catalog.request_by_name("compose-post").unwrap().dag;
        assert!(plans[0].respects_dag(dag));
        assert!(plans[0].nodes.iter().all(|n| n.reserved));
        assert_eq!(s.waiting(), 0);
    }

    #[test]
    fn same_seed_produces_identical_plans() {
        let run = |seed: u64| {
            let mut h = Harness::new(6);
            let reqs = [
                h.req(1, "compose-post", 0),
                h.req(2, "basicSearch", 1),
                h.req(3, "compose-post", 2),
            ];
            let mut s = SearchSched::new(seed);
            let mut ctx = h.ctx(2);
            for r in reqs {
                s.on_arrival(r, &mut ctx);
            }
            s.schedule(&mut ctx)
        };
        assert_eq!(run(42), run(42), "same seed must replay bitwise");
        // Different seeds are allowed to differ (and usually do); this
        // only asserts the RNG actually participates.
        let _ = run(43);
    }

    #[test]
    fn refinement_never_worsens_the_greedy_plan() {
        // SearchSched is FullProfile plus a refinement whose incumbent is
        // FullProfile's plan: on the same pre-loaded ledgers, the plan it
        // returns never ends later than FullProfile's.
        let plan_with = |s: &mut dyn Scheduler| {
            let mut h = Harness::new(4);
            // Pre-load some ledgers so moves actually face contention.
            for m in h.cluster.machines_mut() {
                if m.id.0 % 2 == 0 {
                    m.ledger.reserve(
                        SimTime::ZERO,
                        SimTime::from_secs(1),
                        ResourceVector::new(4.0, 20_000.0, 600.0),
                    );
                }
            }
            let r = h.req(1, "compose-post", 0);
            let mut ctx = h.ctx(0);
            s.on_arrival(r, &mut ctx);
            s.schedule(&mut ctx).remove(0)
        };
        let greedy = plan_with(&mut FullProfile::new());
        for seed in [9, 10, 11] {
            let refined = plan_with(&mut SearchSched::new(seed));
            assert!(refined.planned_makespan_end() <= greedy.planned_makespan_end());
        }
    }

    #[test]
    fn rejected_moves_restore_ledgers_exactly() {
        let mut h = Harness::new(5);
        let baseline: Vec<ResourceVector> = h
            .cluster
            .machines()
            .iter()
            .map(|m| m.ledger.available(SimTime::ZERO, SimTime::from_secs(30)))
            .collect();
        let r = h.req(1, "read-user-timeline", 0);
        let mut s = SearchSched::new(11);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        let plans = s.schedule(&mut ctx);
        // Undo the surviving plan; ledgers must be bitwise back to start
        // regardless of how many candidate moves were tried and rejected.
        unreserve_plan(&plans[0], &mut ctx);
        for (m, before) in ctx.cluster.machines().iter().zip(baseline) {
            let after = m.ledger.available(SimTime::ZERO, SimTime::from_secs(30));
            assert_eq!(after, before, "machine {:?} ledger not restored", m.id);
        }
    }

    #[test]
    fn saturated_cluster_defers_with_audit() {
        let mut h = Harness::new(1);
        h.cluster.machine_mut(MachineId(0)).ledger.reserve(
            SimTime::ZERO,
            SimTime::from_secs(120),
            ResourceVector::new(6.0, 32_000.0, 1_000.0),
        );
        let r = h.req(1, "basicSearch", 0);
        let mut s = SearchSched::new(5);
        let mut ctx = h.ctx(0);
        s.on_arrival(r, &mut ctx);
        assert!(s.schedule(&mut ctx).is_empty());
        assert_eq!(s.waiting(), 1, "request stays queued for the next round");
    }
}
