//! The self-healing module (Section III-F): delay-slot candidate search
//! and resource-stretch prioritization.
//!
//! When a microservice invokes late, its reserved window sits idle. The
//! healing module fills the stall with **delay-slot candidates** — waiting
//! requests (handled by re-running the admission pass) or planned
//! microservices of executing requests whose dependencies are already
//! complete — and, when the slot is empty of candidates, **stretches** the
//! resource grant of executing microservices (earliest-deadline-first,
//! then highest variability first) to reclaim the idle resources.

use mlp_cluster::MachineId;
use mlp_model::{RequestCatalog, ResourceSensitivity};
use mlp_sched::{NodePlan, RequestInfo, RequestPlan};
use mlp_sim::SimTime;
use mlp_trace::RequestId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;

/// Lifecycle state of one planned DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Admitted and planned, not yet invoked.
    Planned,
    /// Currently executing.
    Running,
    /// Finished.
    Done,
}

/// Scheduler-side bookkeeping for one admitted request.
#[derive(Debug, Clone)]
pub struct ActiveRequest {
    /// Identity/arrival info.
    pub info: RequestInfo,
    /// The admission plan (kept in sync with promotions).
    pub plan: RequestPlan,
    /// Per-node lifecycle state.
    pub state: Vec<NodeState>,
    /// Physical readiness time per node, once known (dependencies and
    /// their communication resolved). Promotions must not plan a node
    /// before it can physically start.
    pub ready_at: Vec<Option<SimTime>>,
    /// SLO deadline (EDF key for resource stretch).
    pub deadline: SimTime,
}

impl ActiveRequest {
    /// Whether every node has finished.
    pub fn is_complete(&self) -> bool {
        self.state.iter().all(|s| *s == NodeState::Done)
    }

    /// Whether node `i`'s dependencies are all complete (so it could be
    /// promoted into a delay slot without conflicting with executing or
    /// late-invoking services).
    pub fn deps_done(&self, node: usize, catalog: &RequestCatalog) -> bool {
        let dag = &catalog.request(self.info.rtype).dag;
        dag.parents_iter(node).all(|p| self.state[p] == NodeState::Done)
    }
}

/// A candidate microservice for the delay slot: `(request, node)` plus its
/// current plan, ordered most-promotable first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySlotCandidate {
    /// Owning request.
    pub request: RequestId,
    /// DAG node index.
    pub node: usize,
    /// Its current node plan.
    pub plan: NodePlan,
}

/// Finds delay-slot microservice candidates across all active requests:
/// planned nodes whose dependencies are complete and whose planned start
/// is still in the future (so starting them *now* buys idle time back).
/// Sorted by how much idle time promotion could reclaim (latest planned
/// start first), with ids as deterministic tie-breaks.
pub fn delay_slot_candidates<S: BuildHasher>(
    active: &HashMap<RequestId, ActiveRequest, S>,
    exclude: (RequestId, usize),
    now: SimTime,
    catalog: &RequestCatalog,
) -> Vec<DelaySlotCandidate> {
    top_delay_slot_candidates(active, exclude, now, catalog, usize::MAX)
}

/// [`delay_slot_candidates`] truncated to its best `k` entries —
/// exactly `delay_slot_candidates(..).truncate(k)`, but selecting before
/// sorting. Late invocations fire constantly under load and the healer
/// only promotes [`HEAL_FANOUT`](crate::HEAL_FANOUT) candidates, so ordering the full candidate
/// set was wasted work; the comparator is a total order (unique
/// `(request, node)` tie-break), which is what makes the partial selection
/// bit-identical to the full sort's prefix.
pub fn top_delay_slot_candidates<S: BuildHasher>(
    active: &HashMap<RequestId, ActiveRequest, S>,
    exclude: (RequestId, usize),
    now: SimTime,
    catalog: &RequestCatalog,
    k: usize,
) -> Vec<DelaySlotCandidate> {
    let mut out = Vec::new();
    if k == 0 {
        return out;
    }
    for (&rid, ar) in active {
        for (i, &st) in ar.state.iter().enumerate() {
            if st != NodeState::Planned || (rid, i) == exclude {
                continue;
            }
            let np = ar.plan.nodes[i];
            if np.planned_start > now && ar.deps_done(i, catalog) {
                out.push(DelaySlotCandidate { request: rid, node: i, plan: np });
            }
        }
    }
    let cmp = |a: &DelaySlotCandidate, b: &DelaySlotCandidate| {
        b.plan
            .planned_start
            .cmp(&a.plan.planned_start)
            .then_with(|| a.request.cmp(&b.request))
            .then_with(|| a.node.cmp(&b.node))
    };
    if out.len() > k {
        out.select_nth_unstable_by(k - 1, cmp);
        out.truncate(k);
    }
    out.sort_by(cmp);
    out
}

/// Incremental index over delay-slot candidates, replacing the per-late-
/// invocation `O(active × nodes)` rescan in [`top_delay_slot_candidates`]
/// with an ordered set walked lazily from the best key down.
///
/// The set is keyed `(planned_start, Reverse(request), Reverse(node))` so
/// reverse iteration replays the reference comparator exactly: latest
/// planned start first, then ascending request id, then ascending node.
/// Entries are *hints*, not truth — [`top_k`](Self::top_k) revalidates
/// each one against the live [`ActiveRequest`] table and discards entries
/// whose request finished, whose node left the `Planned` state, or whose
/// planned start was re-keyed by a promotion or crash replan. Staleness is
/// therefore harmless; the correctness obligation is *insertion
/// completeness*: every transition that can make `(request, node)` a
/// candidate — admission of a root node, a dependency completing, a
/// failure resetting a node to `Planned`, or any planned-start rewrite —
/// must [`note`](Self::note) it. A lazily removed entry can only become
/// valid again through one of those same transitions, which re-inserts it.
///
/// Keys at or before `now` are drained wholesale on every query: simulated
/// time is monotone and planned-start rewrites re-insert under the new
/// key, so such entries can never validate again.
#[derive(Debug, Clone, Default)]
pub struct DelaySlotIndex {
    set: BTreeSet<(SimTime, Reverse<RequestId>, Reverse<usize>)>,
}

impl DelaySlotIndex {
    /// Records `(request, node)` as a *possible* candidate at its current
    /// planned start. Over-noting is safe (queries revalidate); noting a
    /// start at or before `now` is skipped because it could never satisfy
    /// the `planned_start > now` candidate test at any later query.
    pub fn note(&mut self, request: RequestId, node: usize, planned_start: SimTime, now: SimTime) {
        if planned_start > now {
            self.set.insert((planned_start, Reverse(request), Reverse(node)));
        }
    }

    /// Entries currently held (stale hints included) — diagnostics only.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the index holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The best `k` valid candidates, bit-identical to
    /// [`top_delay_slot_candidates`] with the same arguments. Walks the
    /// set best-first, dropping entries that no longer validate and
    /// stopping as soon as `k` survivors are found.
    pub fn top_k<S: BuildHasher>(
        &mut self,
        active: &HashMap<RequestId, ActiveRequest, S>,
        exclude: (RequestId, usize),
        now: SimTime,
        catalog: &RequestCatalog,
        k: usize,
    ) -> Vec<DelaySlotCandidate> {
        // Drain dead history: keys at or before `now` are unreachable
        // forever (see type docs). `split_off` keeps everything at or
        // above the smallest key strictly after `now`.
        self.set = self.set.split_off(&(
            SimTime(now.0 + 1),
            Reverse(RequestId(u64::MAX)),
            Reverse(usize::MAX),
        ));
        let mut out = Vec::new();
        let mut stale = Vec::new();
        for &entry in self.set.iter().rev() {
            if out.len() >= k {
                break;
            }
            let (start, Reverse(rid), Reverse(node)) = entry;
            if (rid, node) == exclude {
                continue;
            }
            let plan = active.get(&rid).and_then(|ar| {
                let np = *ar.plan.nodes.get(node)?;
                let live = ar.state[node] == NodeState::Planned
                    && np.planned_start == start
                    && ar.deps_done(node, catalog);
                live.then_some(np)
            });
            match plan {
                Some(plan) => out.push(DelaySlotCandidate { request: rid, node, plan }),
                None => stale.push(entry),
            }
        }
        for entry in stale {
            self.set.remove(&entry);
        }
        out
    }
}

/// A candidate for resource stretch: a *running* node on the stalled
/// machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchCandidate {
    /// Owning request.
    pub request: RequestId,
    /// DAG node index.
    pub node: usize,
    /// Its SLO deadline (EDF key).
    pub deadline: SimTime,
    /// Sensitivity level of the service (higher = more variable = more to
    /// gain from extra resources, per Fig 3c).
    pub sensitivity: u8,
}

/// Finds running nodes on `machine` eligible for resource stretch, ordered
/// by the paper's two principles: (1) earliest deadline first, (2) high
/// variability first.
pub fn stretch_candidates<S: BuildHasher>(
    active: &HashMap<RequestId, ActiveRequest, S>,
    machine: MachineId,
    catalog: &RequestCatalog,
) -> Vec<StretchCandidate> {
    let mut out = Vec::new();
    for (&rid, ar) in active {
        let dag = &catalog.request(ar.info.rtype).dag;
        for (i, &st) in ar.state.iter().enumerate() {
            if st != NodeState::Running || ar.plan.nodes[i].machine != machine {
                continue;
            }
            let svc = catalog.services.get(dag.node(i).service);
            out.push(StretchCandidate {
                request: rid,
                node: i,
                deadline: ar.deadline,
                sensitivity: svc.sensitivity.level(),
            });
        }
    }
    out.sort_by(|a, b| {
        a.deadline
            .cmp(&b.deadline)
            .then_with(|| b.sensitivity.cmp(&a.sensitivity))
            .then_with(|| a.request.cmp(&b.request))
            .then_with(|| a.node.cmp(&b.node))
    });
    out
}

/// Grant multiplier for stretching a service whose nominal demand is
/// `demand`, given the machine's currently free resources. Bounded: a
/// stretch never grants more than 50 % extra, and only what is actually
/// free ("we monitor the idle resources … and reassign them").
pub fn stretch_factor(free: mlp_model::ResourceVector, demand: mlp_model::ResourceVector) -> f64 {
    // Fraction of one extra `demand` that fits in the free resources.
    // A degenerate headroom (NaN from a 0/0 component ratio, or a negative
    // value from a transiently oversubscribed machine snapshot) must never
    // escape into a running node's grant — a NaN factor would poison the
    // stretched grant and every satisfaction computed from it.
    let headroom = free.satisfaction_of(&demand);
    if !headroom.is_finite() {
        return 1.0;
    }
    1.0 + headroom.clamp(0.0, 0.5)
}

/// Stretch applies only to services that respond to resources at all:
/// a `Less`-sensitive service gains nothing from a larger grant.
pub fn stretch_is_useful(sens: ResourceSensitivity) -> bool {
    sens != ResourceSensitivity::Less
}

/// Ideal (noise-free, fully satisfied) critical-path milliseconds over the
/// not-yet-done nodes of a request — the minimum wall-clock a fault-free
/// re-execution still needs. The deadline-aware shedding rule abandons a
/// request when even this optimistic bound overshoots its SLO deadline.
pub fn remaining_ideal_ms(ar: &ActiveRequest, catalog: &RequestCatalog) -> f64 {
    let dag = &catalog.request(ar.info.rtype).dag;
    dag.critical_path(|i| {
        if ar.state[i] == NodeState::Done {
            0.0
        } else {
            let node = dag.node(i);
            catalog.services.get(node.service).base_ms * node.work_factor
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_model::{RequestCatalog, ResourceVector};
    use mlp_sim::SimDuration;

    fn active(catalog: &RequestCatalog, rid: u64, name: &str) -> ActiveRequest {
        let rt = catalog.request_by_name(name).unwrap();
        let n = rt.dag.len();
        let nodes = (0..n)
            .map(|i| NodePlan {
                machine: MachineId((i % 2) as u32),
                planned_start: SimTime::from_millis(10 * (i as u64 + 1)),
                budget: SimDuration::from_millis(10),
                grant: ResourceVector::new(1.0, 100.0, 10.0),
                reserved: true,
            })
            .collect();
        ActiveRequest {
            info: RequestInfo { id: RequestId(rid), rtype: rt.id, arrival: SimTime::ZERO },
            plan: RequestPlan { request: RequestId(rid), nodes },
            state: vec![NodeState::Planned; n],
            ready_at: vec![None; n],
            deadline: SimTime::from_millis(500 + rid),
        }
    }

    #[test]
    fn candidates_require_done_parents_and_future_start() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "read-user-timeline"); // chain 0→1→2
        let mut map = HashMap::new();

        // Nothing done yet: only the root qualifies... but the root's
        // planned start (10ms) must be in the future.
        ar.state[0] = NodeState::Done;
        ar.state[1] = NodeState::Planned; // parent done ⇒ candidate
        map.insert(RequestId(1), ar);

        let cands = delay_slot_candidates(&map, (RequestId(99), 0), SimTime::from_millis(5), &cat);
        let pairs: Vec<(RequestId, usize)> = cands.iter().map(|c| (c.request, c.node)).collect();
        assert!(pairs.contains(&(RequestId(1), 1)), "{pairs:?}");
        // Node 2's parent (1) is not done: excluded.
        assert!(!pairs.contains(&(RequestId(1), 2)));
        // Node 0 is already done: excluded.
        assert!(!pairs.contains(&(RequestId(1), 0)));
    }

    #[test]
    fn past_planned_start_is_not_a_candidate() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "read-user-timeline");
        ar.state[0] = NodeState::Done;
        let mut map = HashMap::new();
        map.insert(RequestId(1), ar);
        // now = 50ms is beyond node 1's planned start of 20ms.
        let cands = delay_slot_candidates(&map, (RequestId(99), 0), SimTime::from_millis(50), &cat);
        assert!(cands.is_empty());
    }

    #[test]
    fn exclude_filters_the_late_node_itself() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "read-user-timeline");
        ar.state[0] = NodeState::Done;
        let mut map = HashMap::new();
        map.insert(RequestId(1), ar);
        let cands = delay_slot_candidates(&map, (RequestId(1), 1), SimTime::from_millis(5), &cat);
        assert!(cands.iter().all(|c| !(c.request == RequestId(1) && c.node == 1)));
    }

    #[test]
    fn stretch_orders_by_edf_then_variability() {
        let cat = RequestCatalog::paper();
        // compose-post has High-sensitivity services; build two requests
        // with different deadlines, all running on machine 0.
        let mut a = active(&cat, 1, "compose-post");
        let mut b = active(&cat, 2, "compose-post");
        a.deadline = SimTime::from_millis(900);
        b.deadline = SimTime::from_millis(100); // tighter
        for ar in [&mut a, &mut b] {
            for (i, st) in ar.state.iter_mut().enumerate() {
                *st = NodeState::Running;
                ar.plan.nodes[i].machine = MachineId(0);
            }
        }
        let mut map = HashMap::new();
        map.insert(RequestId(1), a);
        map.insert(RequestId(2), b);
        let cands = stretch_candidates(&map, MachineId(0), &cat);
        assert!(!cands.is_empty());
        // All of request 2 (tight deadline) comes before any of request 1.
        let first_r1 = cands.iter().position(|c| c.request == RequestId(1)).unwrap();
        let last_r2 = cands.iter().rposition(|c| c.request == RequestId(2)).unwrap();
        assert!(last_r2 < first_r1, "EDF violated");
        // Within request 2, higher sensitivity first.
        let r2: Vec<&StretchCandidate> =
            cands.iter().filter(|c| c.request == RequestId(2)).collect();
        for w in r2.windows(2) {
            assert!(w[0].sensitivity >= w[1].sensitivity);
        }
    }

    #[test]
    fn stretch_ignores_other_machines_and_non_running() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "basicSearch");
        ar.state[0] = NodeState::Running;
        ar.plan.nodes[0].machine = MachineId(3);
        ar.state[1] = NodeState::Planned;
        ar.plan.nodes[1].machine = MachineId(0);
        let mut map = HashMap::new();
        map.insert(RequestId(1), ar);
        assert!(stretch_candidates(&map, MachineId(0), &cat).is_empty());
        assert_eq!(stretch_candidates(&map, MachineId(3), &cat).len(), 1);
    }

    #[test]
    fn stretch_factor_bounds() {
        let demand = ResourceVector::new(2.0, 200.0, 20.0);
        // Free resources cover a full extra demand: capped at 1.5.
        assert_eq!(stretch_factor(ResourceVector::new(4.0, 400.0, 40.0), demand), 1.5);
        // Free covers a quarter of the demand.
        assert_eq!(stretch_factor(demand * 0.25, demand), 1.25);
        // Nothing free: no stretch.
        assert_eq!(stretch_factor(ResourceVector::ZERO, demand), 1.0);
    }

    #[test]
    fn stretch_factor_survives_degenerate_inputs() {
        // Zero-component demand: the satisfaction ratio degenerates; the
        // factor must stay a finite no-op multiplier, never NaN.
        let flat = ResourceVector::ZERO;
        let f = stretch_factor(ResourceVector::new(1.0, 100.0, 10.0), flat);
        assert!(f.is_finite());
        assert!((1.0..=1.5).contains(&f), "factor {f} out of bounds");
        // NaN leaking in from a poisoned snapshot is neutralized.
        let poisoned = ResourceVector::new(f64::NAN, 100.0, 10.0);
        let f = stretch_factor(poisoned, ResourceVector::new(1.0, 100.0, 10.0));
        assert_eq!(f, 1.0, "non-finite headroom must collapse to no-op");
        // Negative free (transient oversubscription) clamps to no stretch.
        let f = stretch_factor(
            ResourceVector::new(-1.0, -100.0, -10.0),
            ResourceVector::new(1.0, 100.0, 10.0),
        );
        assert_eq!(f, 1.0);
    }

    #[test]
    fn stretch_usefulness_by_sensitivity() {
        assert!(!stretch_is_useful(ResourceSensitivity::Less));
        assert!(stretch_is_useful(ResourceSensitivity::Moderate));
        assert!(stretch_is_useful(ResourceSensitivity::High));
    }

    #[test]
    fn remaining_ideal_shrinks_as_nodes_finish() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "read-user-timeline"); // chain 0→1→2
        let full = remaining_ideal_ms(&ar, &cat);
        let rt = cat.request_by_name("read-user-timeline").unwrap();
        assert!((full - rt.ideal_latency_ms(&cat.services)).abs() < 1e-9);
        ar.state[0] = NodeState::Done;
        let partial = remaining_ideal_ms(&ar, &cat);
        assert!(partial < full, "finishing a node must shrink the bound");
        assert!(partial > 0.0);
        for st in &mut ar.state {
            *st = NodeState::Done;
        }
        assert_eq!(remaining_ideal_ms(&ar, &cat), 0.0);
    }

    #[test]
    fn active_request_completion() {
        let cat = RequestCatalog::paper();
        let mut ar = active(&cat, 1, "read-user-timeline");
        assert!(!ar.is_complete());
        for st in &mut ar.state {
            *st = NodeState::Done;
        }
        assert!(ar.is_complete());
    }
}
