//! Incremental reorder index: the waiting queue as per-(shard, type)
//! arrival-ordered deques with a lazy head merge, replacing the per-round
//! `O(n log n)` [`sort_by_reorder_ratio`](crate::reorder::sort_by_reorder_ratio)
//! with `O(active fronts)` per pop.
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
//! total order to a partition (the per-shard split of the parallel pass)
//! preserves it, so shard-local merges replay each shard's subsequence too.
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

/// One request type's waiting requests, `(arrival, id)`-ascending — and
/// therefore ratio-descending for any fixed `now` (module docs).
#[derive(Debug)]
struct TypeQueue {
    rtype: RequestTypeId,
    reqs: VecDeque<RequestInfo>,
}

/// Per-type queue terms snapshot handed to shard workers: `Clone` + `Send`,
/// detached from the scheduler context.
#[derive(Debug, Clone, Default)]
pub struct TermsTable(Vec<(RequestTypeId, RatioTerms)>);

impl TermsTable {
    fn get(&self, rtype: RequestTypeId) -> &RatioTerms {
        self.0
            .iter()
            .find(|(t, _)| *t == rtype)
            .map(|(_, terms)| terms)
            .expect("terms refreshed for every queued request type")
    }
}

/// One shard's slice of the index. Detachable ([`ReorderIndex::take_shard`])
/// so the parallel admission pass can move it into a shard worker and pop
/// locally without touching shared state.
#[derive(Debug, Default)]
pub struct ShardQueues {
    queues: Vec<TypeQueue>,
    len: usize,
}

impl ShardQueues {
    /// Queued requests in this shard.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shard has no queued requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

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

    /// Index of the type queue whose front pops next under the reorder
    /// ratio, with that front's ratio.
    fn best_by_ratio(&self, now: SimTime, terms: &TermsTable) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (qi, q) in self.queues.iter().enumerate() {
            let Some(front) = q.reqs.front() else { continue };
            let r = terms.get(q.rtype).ratio(front, now);
            let better = match best {
                None => true,
                Some((bqi, br)) => {
                    let bf = self.queues[bqi].reqs.front().expect("best has a front");
                    ratio_order(r, front, br, bf) == std::cmp::Ordering::Less
                }
            };
            if better {
                best = Some((qi, r));
            }
        }
        best
    }

    /// Index of the type queue whose front is the `(arrival, id)` minimum
    /// (the FCFS pop).
    fn best_by_arrival(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (qi, q) in self.queues.iter().enumerate() {
            let Some(front) = q.reqs.front() else { continue };
            let better = match best {
                None => true,
                Some(bqi) => {
                    let bf = self.queues[bqi].reqs.front().expect("best has a front");
                    (front.arrival, front.id) < (bf.arrival, bf.id)
                }
            };
            if better {
                best = Some(qi);
            }
        }
        best
    }

    fn pop_front_of(&mut self, qi: usize) -> RequestInfo {
        let req = self.queues[qi].reqs.pop_front().expect("queue selected non-empty");
        self.len -= 1;
        req
    }

    /// Pops the highest-ratio waiting request (what a full
    /// [`sort_by_reorder_ratio`](crate::reorder::sort_by_reorder_ratio)
    /// would put first), with its ratio.
    pub fn pop_max(&mut self, now: SimTime, terms: &TermsTable) -> Option<(f64, RequestInfo)> {
        let (qi, r) = self.best_by_ratio(now, terms)?;
        Some((r, self.pop_front_of(qi)))
    }

    /// Pops the earliest-arrived waiting request (the FCFS ablation).
    pub fn pop_min(&mut self) -> Option<RequestInfo> {
        let qi = self.best_by_arrival()?;
        Some(self.pop_front_of(qi))
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
    /// Shared worker snapshot of `terms`, rebuilt lazily after a refresh
    /// actually changes something (rounds fire per arrival; rebuilding the
    /// table every round was measurable on the 2M soak).
    snapshot: std::sync::Arc<TermsTable>,
    snapshot_stale: bool,
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
        self.shards.get(s).is_some_and(|sh| !sh.is_empty())
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
                            self.snapshot_stale = true;
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
                        self.snapshot_stale = true;
                    }
                }
            }
        }
        invalidated
    }

    /// Snapshot of the cached terms for shard workers, shared via `Arc`
    /// and rebuilt only when a refresh changed a term.
    pub fn terms_table(&mut self) -> std::sync::Arc<TermsTable> {
        if self.snapshot_stale {
            self.snapshot = std::sync::Arc::new(TermsTable(
                self.terms.iter().map(|c| (c.rtype, c.terms)).collect(),
            ));
            self.snapshot_stale = false;
        }
        std::sync::Arc::clone(&self.snapshot)
    }

    /// The champion front across every shard under the reorder ratio:
    /// `(shard, queue, ratio)`.
    fn best_by_ratio(&self, now: SimTime) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (si, sh) in self.shards.iter().enumerate() {
            for (qi, q) in sh.queues.iter().enumerate() {
                let Some(front) = q.reqs.front() else { continue };
                let r = self.terms_for(q.rtype).ratio(front, now);
                let better = match best {
                    None => true,
                    Some((bsi, bqi, br)) => {
                        let bf =
                            self.shards[bsi].queues[bqi].reqs.front().expect("best has a front");
                        ratio_order(r, front, br, bf) == std::cmp::Ordering::Less
                    }
                };
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

    /// The request the next [`pop_max`](Self::pop_max) would return, with
    /// its ratio (the audit record's head + rank).
    pub fn peek_max(&self, now: SimTime) -> Option<(f64, &RequestInfo)> {
        let (si, qi, r) = self.best_by_ratio(now)?;
        Some((r, self.shards[si].queues[qi].reqs.front().expect("selected non-empty")))
    }

    /// Pops the globally highest-ratio request (sorted-path order).
    pub fn pop_max(&mut self, now: SimTime) -> Option<(f64, RequestInfo)> {
        let (si, qi, r) = self.best_by_ratio(now)?;
        self.len -= 1;
        Some((r, self.shards[si].pop_front_of(qi)))
    }

    /// Pops the globally earliest-arrived request (FCFS ablation order).
    pub fn pop_min(&mut self) -> Option<RequestInfo> {
        let mut best: Option<(usize, usize)> = None;
        for (si, sh) in self.shards.iter().enumerate() {
            for (qi, q) in sh.queues.iter().enumerate() {
                let Some(front) = q.reqs.front() else { continue };
                let better = match best {
                    None => true,
                    Some((bsi, bqi)) => {
                        let bf =
                            self.shards[bsi].queues[bqi].reqs.front().expect("best has a front");
                        (front.arrival, front.id) < (bf.arrival, bf.id)
                    }
                };
                if better {
                    best = Some((si, qi));
                }
            }
        }
        let (si, qi) = best?;
        self.len -= 1;
        Some(self.shards[si].pop_front_of(qi))
    }

    /// Detaches shard `s`'s queues for a parallel worker. The worker drains
    /// them completely (admissions plus deferrals); deferred requests come
    /// back through [`insert`](Self::insert) after the barrier.
    pub fn take_shard(&mut self, s: usize) -> ShardQueues {
        if s >= self.shards.len() {
            return ShardQueues::default();
        }
        let sq = std::mem::take(&mut self.shards[s]);
        self.len -= sq.len;
        sq
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
        while let Some((_, r)) = index.pop_max(now) {
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
        while let Some(r) = index.pop_min() {
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
        let (rank, head) = index.pop_max(now).unwrap();
        index.insert(head, 0);
        let (rank2, head2) = index.pop_max(now).unwrap();
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
        let (_, head) = index.pop_max(ctx.now).unwrap();
        assert_eq!(head, reference[0]);
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
                                let (_, got) = index.pop_max(now).expect("mirror non-empty");
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
    fn take_shard_detaches_and_len_tracks() {
        let mut h = H::new();
        let reqs = mixed_queue(&h);
        let mut index = ReorderIndex::new();
        for r in &reqs {
            index.insert(*r, (r.id.0 % 2) as usize);
        }
        let total = index.len();
        let ctx = h.ctx();
        index.refresh_terms(&ctx);
        let terms = index.terms_table();
        let mut shard0 = index.take_shard(0);
        assert_eq!(index.len() + shard0.len(), total);
        assert!(!index.shard_has_work(0));
        assert!(index.shard_has_work(1));
        // The detached shard pops its own subsequence of the global order.
        let now = ctx.now;
        let mut local = Vec::new();
        while let Some((_, r)) = shard0.pop_max(now, &terms) {
            local.push(r);
        }
        let mut expected: Vec<RequestInfo> =
            reqs.iter().copied().filter(|r| r.id.0 % 2 == 0).collect();
        sort_by_reorder_ratio(&mut expected, now, &ctx);
        assert_eq!(local, expected);
    }
}
