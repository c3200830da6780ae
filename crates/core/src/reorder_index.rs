//! Incremental reorder index: the waiting queue as per-(shard, type)
//! arrival-ordered deques with a lazy head merge, replacing a per-round
//! `O(n log n)` sort by reorder ratio with `O(active fronts)` per pop. The
//! sort survives in test code (`reorder::sort_by_reorder_ratio`) as the
//! reference every pop sequence is checked against.
//!
//! # Why the merge reproduces the sort exactly
//!
//! For a fixed request type and a fixed `now`, every term of the reorder
//! ratio except the arrival-dependent ones is shared, and both
//! arrival-dependent terms — time waited and deadline urgency — are
//! monotone non-increasing in arrival time. So each per-type queue, kept in
//! `(arrival, id)`-ascending order, is automatically *ratio-descending*:
//! its front is the type's maximum under the sort's exact comparator
//! (`ratio_order`: ratio descending, then arrival, then id). The global
//! maximum is therefore always among the queue fronts, and popping the best
//! front repeatedly replays the sorted order pop by pop. Restricting a
//! total order to a partition (the home shards of the sharded round)
//! preserves it, so a merge over one shard's fronts replays that shard's
//! subsequence too — [`ReorderIndex::pop_shard`] is the same merge, scoped.
//!
//! The one theoretical exception: the α-normalization `r / (1 + r)`
//! compresses ratio gaps, and once `r` exceeds ~10⁷ (a request more than
//! ~17 s overdue at the Δt₀ floor) within-type gaps can fall below one ulp,
//! where rounding could invert a pair relative to the reference sort. No
//! realistic regime holds a request 17 s past a sub-second SLO — the
//! deadline shedder abandons it long before — and the equivalence proptest
//! in this crate plus the engine-level audit-trail test pin the realistic
//! regimes down.
//!
//! # Term caching and invalidation
//!
//! Ratio terms depend on the (immutable) catalog and on the profile
//! store's Δt₀ = `min_exec_ms(root service)`, which changes only when that
//! service's history records or evicts a case. [`ReorderIndex::refresh_terms`]
//! therefore revalidates each cached type against
//! [`ProfileStore::version`](mlp_trace::ProfileStore::version) once per
//! round and recomputes only the types whose root-service version moved —
//! each recompute is reported to the caller for audit/metrics. The `now`-
//! dependent waited/urgency factors are *never* cached: they are recomputed
//! per front comparison (a few flops over a handful of fronts), which is
//! what makes popped order match the sort-based reference bit for bit.

use crate::reorder::{ratio_order, RatioTerms};
use mlp_model::{RequestTypeId, ServiceId};
use mlp_sched::{RequestInfo, SchedulerCtx};
use mlp_sim::SimTime;
use std::collections::VecDeque;
use std::ops::Range;

/// One request type's waiting requests, `(arrival, id)`-ascending — and
/// therefore ratio-descending for any fixed `now` (module docs).
#[derive(Debug)]
struct TypeQueue {
    rtype: RequestTypeId,
    reqs: VecDeque<RequestInfo>,
}

/// One shard's slice of the index: its type queues, in ascending-rtype
/// order, and how many requests they hold.
#[derive(Debug, Default)]
struct ShardQueues {
    queues: Vec<TypeQueue>,
    len: usize,
}

impl ShardQueues {
    fn insert(&mut self, req: RequestInfo) {
        let qi = match self.queues.iter().position(|q| q.rtype == req.rtype) {
            Some(qi) => qi,
            None => {
                // Type queues stay in ascending-rtype order so scan order —
                // and with it any tie resolution — is a function of content,
                // never of arrival history.
                let at = self.queues.partition_point(|q| q.rtype.0 < req.rtype.0);
                self.queues.insert(at, TypeQueue { rtype: req.rtype, reqs: VecDeque::new() });
                at
            }
        };
        let q = &mut self.queues[qi].reqs;
        let key = (req.arrival, req.id);
        let at = q.partition_point(|r| (r.arrival, r.id) <= key);
        q.insert(at, req);
        self.len += 1;
    }
}

/// Cached per-type ratio terms plus the profile version they were computed
/// against (0 when the type's DAG has no root service to profile).
#[derive(Debug)]
struct CachedTerms {
    rtype: RequestTypeId,
    root: Option<ServiceId>,
    version: u64,
    terms: RatioTerms,
}

/// The scheduler-side waiting queue: per-(shard, type) arrival-ordered
/// deques plus the per-type terms cache. See the module docs for the
/// equivalence argument and invalidation rules.
#[derive(Debug, Default)]
pub struct ReorderIndex {
    shards: Vec<ShardQueues>,
    terms: Vec<CachedTerms>,
    len: usize,
}

impl ReorderIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued requests across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether shard `s` has queued requests.
    pub fn shard_has_work(&self, s: usize) -> bool {
        self.shards.get(s).is_some_and(|sh| sh.len > 0)
    }

    /// Queues `req` under its home shard, preserving `(arrival, id)` order
    /// within its type queue (so deferral re-insertions land back at the
    /// exact position the pop took them from).
    pub fn insert(&mut self, req: RequestInfo, shard: usize) {
        if self.shards.len() <= shard {
            self.shards.resize_with(shard + 1, ShardQueues::default);
        }
        self.shards[shard].insert(req);
        self.len += 1;
    }

    /// Revalidates every queued type's cached terms against the profile
    /// store, recomputing only the types whose root-service version moved.
    /// Returns `(rtype, new version)` for each recompute so the caller can
    /// audit them; first-time computations for newly seen types are not
    /// invalidations and are not reported.
    pub fn refresh_terms(&mut self, ctx: &SchedulerCtx<'_>) -> Vec<(RequestTypeId, u64)> {
        let mut invalidated = Vec::new();
        for sh in &self.shards {
            for q in &sh.queues {
                if q.reqs.is_empty() {
                    continue;
                }
                match self.terms.iter_mut().find(|c| c.rtype == q.rtype) {
                    Some(c) => {
                        let version = c.root.map_or(0, |s| ctx.profiles.version(s));
                        if version != c.version {
                            c.terms = RatioTerms::for_type(q.rtype, ctx);
                            c.version = version;
                            invalidated.push((q.rtype, version));
                        }
                    }
                    None => {
                        let rt = ctx.catalog.request(q.rtype);
                        let root = rt.dag.roots().first().map(|&r| rt.dag.node(r).service);
                        self.terms.push(CachedTerms {
                            rtype: q.rtype,
                            root,
                            version: root.map_or(0, |s| ctx.profiles.version(s)),
                            terms: RatioTerms::for_type(q.rtype, ctx),
                        });
                    }
                }
            }
        }
        invalidated
    }

    /// The one merge: the front that pops next among `shards`, as
    /// `(shard, queue, ratio)`. `rank_at: Some(now)` ranks by the reorder
    /// ratio at `now`; `None` is FCFS — every ratio is then 0 and
    /// [`ratio_order`] falls through to its `(arrival, id)` tie-break.
    fn best_front(
        &self,
        shards: Range<usize>,
        rank_at: Option<SimTime>,
    ) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for si in shards {
            for (qi, q) in self.shards[si].queues.iter().enumerate() {
                let Some(front) = q.reqs.front() else { continue };
                let r = rank_at.map_or(0.0, |now| self.terms_for(q.rtype).ratio(front, now));
                let better = best.is_none_or(|(bsi, bqi, br)| {
                    let bf = self.shards[bsi].queues[bqi].reqs.front().expect("best has a front");
                    ratio_order(r, front, br, bf) == std::cmp::Ordering::Less
                });
                if better {
                    best = Some((si, qi, r));
                }
            }
        }
        best
    }

    fn terms_for(&self, rtype: RequestTypeId) -> &RatioTerms {
        self.terms
            .iter()
            .find(|c| c.rtype == rtype)
            .map(|c| &c.terms)
            .expect("refresh_terms ran before ranked access")
    }

    /// Pops the [`best_front`](Self::best_front) among `shards`.
    fn pop_best(&mut self, shards: Range<usize>, rank_at: Option<SimTime>) -> Option<RequestInfo> {
        let (si, qi, _) = self.best_front(shards, rank_at)?;
        let sh = &mut self.shards[si];
        let req = sh.queues[qi].reqs.pop_front().expect("selected non-empty");
        sh.len -= 1;
        self.len -= 1;
        Some(req)
    }

    /// The request the next ranked [`pop`](Self::pop) at `now` would
    /// return, with its ratio (the audit record's head + rank).
    pub fn peek_max(&self, now: SimTime) -> Option<(f64, &RequestInfo)> {
        let (si, qi, r) = self.best_front(0..self.shards.len(), Some(now))?;
        Some((r, self.shards[si].queues[qi].reqs.front().expect("selected non-empty")))
    }

    /// Pops the globally next request: the highest reorder ratio at
    /// `rank_at`, or the earliest arrival when it is `None` (the FCFS
    /// ablation).
    pub fn pop(&mut self, rank_at: Option<SimTime>) -> Option<RequestInfo> {
        self.pop_best(0..self.shards.len(), rank_at)
    }

    /// Pops shard `shard`'s next request: by reorder ratio at `rank_at`,
    /// or FCFS when it is `None`. Restricting a total order to a shard
    /// preserves it, so the pops replay the global order's subsequence of
    /// that shard. Deferred requests come back through
    /// [`insert`](Self::insert).
    pub fn pop_shard(&mut self, shard: usize, rank_at: Option<SimTime>) -> Option<RequestInfo> {
        let end = (shard + 1).min(self.shards.len());
        self.pop_best(shard..end, rank_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::sort_by_reorder_ratio;
    use mlp_cluster::Cluster;
    use mlp_model::{RequestCatalog, ResourceVector};
    use mlp_net::NetworkModel;
    use mlp_trace::{AuditLog, ExecutionCase, MetricsRegistry, ProfileStore, RequestId};

    struct H {
        cluster: Cluster,
        catalog: RequestCatalog,
        net: NetworkModel,
        profiles: ProfileStore,
        metrics: MetricsRegistry,
        audit: AuditLog,
    }

    impl H {
        fn new() -> Self {
            H {
                cluster: Cluster::homogeneous(2, ResourceVector::new(6.0, 32_000.0, 1_000.0)),
                catalog: RequestCatalog::paper(),
                net: NetworkModel::paper_default(),
                profiles: ProfileStore::new(),
                metrics: MetricsRegistry::new(),
                audit: AuditLog::disabled(),
            }
        }
        fn ctx(&mut self) -> SchedulerCtx<'_> {
            self.ctx_at(1000)
        }
        fn ctx_at(&mut self, now_ms: u64) -> SchedulerCtx<'_> {
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

    /// A mixed queue over several types and arrivals, inserted in a
    /// scrambled order.
    fn mixed_queue(h: &H) -> Vec<RequestInfo> {
        let names = ["compose-post", "read-home-timeline", "basicSearch", "read-user-timeline"];
        let mut reqs = Vec::new();
        for id in 0..40u64 {
            let name = names[(id * 7 % names.len() as u64) as usize];
            let arrival = (id * 13) % 990;
            reqs.push(h.req(id, name, arrival));
        }
        reqs
    }

    #[test]
    fn pop_sequence_matches_sort_reference() {
        let mut h = H::new();
        let mut reference = mixed_queue(&h);
        let mut index = ReorderIndex::new();
        for r in &reference {
            index.insert(*r, (r.id.0 % 3) as usize); // spread over shards
        }
        let now = SimTime::from_millis(1000);
        let ctx = h.ctx();
        sort_by_reorder_ratio(&mut reference, now, &ctx);
        index.refresh_terms(&ctx);
        let mut popped = Vec::new();
        while let Some(r) = index.pop(Some(now)) {
            popped.push(r);
        }
        assert_eq!(popped, reference, "lazy merge must replay the sort order");
        assert!(index.is_empty());
    }

    #[test]
    fn fcfs_pop_is_arrival_ordered() {
        let h = H::new();
        let reqs = mixed_queue(&h);
        let mut index = ReorderIndex::new();
        for r in &reqs {
            index.insert(*r, (r.id.0 % 2) as usize);
        }
        let mut expected = reqs.clone();
        expected.sort_by_key(|r| (r.arrival, r.id));
        let mut popped = Vec::new();
        while let Some(r) = index.pop(None) {
            popped.push(r);
        }
        assert_eq!(popped, expected);
        drop(h);
    }

    #[test]
    fn reinserted_deferral_pops_next_again() {
        let mut h = H::new();
        let reqs = mixed_queue(&h);
        let mut index = ReorderIndex::new();
        for r in &reqs {
            index.insert(*r, 0);
        }
        let now = SimTime::from_millis(1000);
        let ctx = h.ctx();
        index.refresh_terms(&ctx);
        let (rank, head) = index.peek_max(now).map(|(r, h)| (r, *h)).unwrap();
        assert_eq!(index.pop(Some(now)), Some(head));
        index.insert(head, 0);
        let (rank2, head2) = index.peek_max(now).map(|(r, h)| (r, *h)).unwrap();
        assert_eq!(index.pop(Some(now)), Some(head2));
        assert_eq!(head, head2, "a re-queued deferral keeps its position");
        assert_eq!(rank.to_bits(), rank2.to_bits());
    }

    #[test]
    fn refresh_invalidates_only_bumped_types() {
        let mut h = H::new();
        let a = h.req(1, "read-home-timeline", 0);
        let b = h.req(2, "basicSearch", 5);
        let mut index = ReorderIndex::new();
        index.insert(a, 0);
        index.insert(b, 0);
        {
            let ctx = h.ctx();
            assert!(index.refresh_terms(&ctx).is_empty(), "first build is not an invalidation");
            assert!(index.refresh_terms(&ctx).is_empty(), "no change, no recompute");
        }
        // Bump only basicSearch's root service history.
        let bs = h.catalog.request_by_name("basicSearch").unwrap();
        let bs_root = bs.dag.node(bs.dag.roots()[0]).service;
        h.profiles.record(
            bs_root,
            ExecutionCase { usage: ResourceVector::ZERO, machine_load: 0.0, exec_ms: 3.0 },
        );
        let bs_type = bs.id;
        let ctx = h.ctx();
        let invalidated = index.refresh_terms(&ctx);
        assert_eq!(invalidated.len(), 1, "only the bumped type recomputes: {invalidated:?}");
        assert_eq!(invalidated[0].0, bs_type);
        // And the recomputed terms rank with the new Δt₀ — identical to a
        // fresh sort's scoring.
        let mut reference = vec![a, b];
        sort_by_reorder_ratio(&mut reference, ctx.now, &ctx);
        assert_eq!(index.pop(Some(ctx.now)), Some(reference[0]));
    }

    mod equivalence {
        use super::*;
        use mlp_trace::ExecutionCase;
        use proptest::prelude::*;

        const TYPE_NAMES: [&str; 4] =
            ["compose-post", "read-home-timeline", "basicSearch", "read-user-timeline"];

        /// One step of an interleaved scheduler history: an arrival, a
        /// profile-store update (a version bump for some type's root
        /// service), or an admission round that pops a batch.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert { type_sel: usize, arrival_ms: u64 },
            RecordCase { type_sel: usize, exec_ms_x10: u64 },
            PopBatch { count: usize },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            // The unweighted union biases toward inserts by repetition so
            // histories actually accumulate queue depth before popping.
            let insert = (0usize..TYPE_NAMES.len(), 0u64..5_000)
                .prop_map(|(type_sel, arrival_ms)| Op::Insert { type_sel, arrival_ms });
            let insert2 = (0usize..TYPE_NAMES.len(), 0u64..5_000)
                .prop_map(|(type_sel, arrival_ms)| Op::Insert { type_sel, arrival_ms });
            let record = (0usize..TYPE_NAMES.len(), 1u64..5_000)
                .prop_map(|(type_sel, exec_ms_x10)| Op::RecordCase { type_sel, exec_ms_x10 });
            let pop = (1usize..8).prop_map(|count| Op::PopBatch { count });
            prop_oneof![insert, insert2, record, pop]
        }

        proptest! {
            /// The tentpole equivalence oracle: across any interleaving of
            /// arrivals, profile updates (terms invalidations), and pop
            /// batches at advancing `now`s, the incremental index pops the
            /// *exact* request sequence the sort-based reference produces.
            #[test]
            fn pops_match_sort_reference_under_interleaving(
                ops in prop::collection::vec(arb_op(), 1..80)
            ) {
                let mut h = H::new();
                let mut index = ReorderIndex::new();
                let mut mirror: Vec<RequestInfo> = Vec::new();
                let mut next_id = 0u64;
                let mut now_ms = 6_000u64; // past every arrival draw
                for op in ops {
                    match op {
                        Op::Insert { type_sel, arrival_ms } => {
                            let req = h.req(next_id, TYPE_NAMES[type_sel], arrival_ms);
                            next_id += 1;
                            index.insert(req, (req.id.0 % 3) as usize);
                            mirror.push(req);
                        }
                        Op::RecordCase { type_sel, exec_ms_x10 } => {
                            let rt = h.catalog.request_by_name(TYPE_NAMES[type_sel]).unwrap();
                            let root = rt.dag.node(rt.dag.roots()[0]).service;
                            h.profiles.record(
                                root,
                                ExecutionCase {
                                    usage: ResourceVector::ZERO,
                                    machine_load: 0.0,
                                    exec_ms: exec_ms_x10 as f64 / 10.0,
                                },
                            );
                        }
                        Op::PopBatch { count } => {
                            now_ms += 50;
                            let now = SimTime::from_millis(now_ms);
                            let ctx = h.ctx_at(now_ms);
                            sort_by_reorder_ratio(&mut mirror, now, &ctx);
                            index.refresh_terms(&ctx);
                            for _ in 0..count.min(mirror.len()) {
                                let got = index.pop(Some(now)).expect("mirror non-empty");
                                let want = mirror.remove(0);
                                prop_assert_eq!(got, want, "index diverged from sort order");
                            }
                            prop_assert_eq!(index.len(), mirror.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_pops_replay_the_reference_restricted_to_the_shard() {
        let mut h = H::new();
        let reqs = mixed_queue(&h);
        let now = SimTime::from_millis(1000);
        let ctx = h.ctx();
        for ranked in [true, false] {
            let mut index = ReorderIndex::new();
            for r in &reqs {
                index.insert(*r, (r.id.0 % 3) as usize);
            }
            index.refresh_terms(&ctx);
            let rank_at = ranked.then_some(now);
            for shard in 0..4usize {
                let before = index.len();
                let mut popped = Vec::new();
                while let Some(r) = index.pop_shard(shard, rank_at) {
                    popped.push(r);
                }
                assert!(!index.shard_has_work(shard));
                assert_eq!(index.len(), before - popped.len());
                let mut expected: Vec<RequestInfo> =
                    reqs.iter().copied().filter(|r| r.id.0 % 3 == shard as u64).collect();
                if ranked {
                    sort_by_reorder_ratio(&mut expected, now, &ctx);
                } else {
                    expected.sort_by_key(|r| (r.arrival, r.id));
                }
                assert_eq!(popped, expected, "shard {shard} ranked={ranked}");
            }
            assert!(index.is_empty());
        }
    }
}
