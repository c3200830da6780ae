//! The reorder ratio `R` for the waiting queue (Section III-E).
//!
//! The paper defines `R = α · V_r · SLA · t_arr / Δt₀` as "a comprehensive
//! consideration of SLA requirement and two classic scheduling policies,
//! FCFS and SJF", with requests of higher `R` popped earlier. We realize
//! each stated intent explicitly:
//!
//! * **FCFS** — the `t_arr` term is interpreted as *time waited so far*
//!   (`now − t_arr`): requests that have waited longer rank higher. (Taking
//!   raw arrival time literally would invert FCFS, prioritizing the newest
//!   request.)
//! * **SJF** — dividing by `Δt₀`, the smallest historical execution time of
//!   the request's first microservice, ranks short jobs higher.
//! * **SLA** — urgency is the inverse of the remaining slack before the
//!   request's deadline (`arrival + SLO`), so requests close to violating
//!   rank higher.
//! * **V_r** — multiplies everything: volatile requests are examined
//!   earlier, when machine futures are still flexible.
//! * **α** — a normalization into `(0, 1)` via `r / (1 + r)`.

use crate::volatility::Volatility;
use mlp_model::RequestTypeId;
use mlp_sched::{RequestInfo, SchedulerCtx};
use mlp_sim::{SimDuration, SimTime};

/// The per-request-*type* inputs to the reorder ratio. They depend only on
/// the catalog entry and the (immutable-within-a-round) profile store, so a
/// sort round computes them once per type instead of once per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RatioTerms {
    /// `V_r` (floored).
    vr: f64,
    /// The type's SLO in milliseconds (the urgency numerator).
    slo_ms: f64,
    /// The same SLO as a duration (the deadline offset).
    slo: SimDuration,
    /// Δt₀: smallest historical execution time of the first microservice
    /// (fallback: its nominal base time), floored.
    dt0: f64,
}

impl RatioTerms {
    pub(crate) fn for_type(rtype: RequestTypeId, ctx: &SchedulerCtx<'_>) -> Self {
        let rt = ctx.catalog.request(rtype);
        let vr = Volatility::new(rt.volatility).value().max(1e-3);
        let dt0 = rt
            .dag
            .roots()
            .first()
            .map(|&r| {
                let svc = rt.dag.node(r).service;
                ctx.profiles
                    .min_exec_ms(svc)
                    .unwrap_or_else(|| ctx.catalog.services.get(svc).base_ms)
            })
            .unwrap_or(1.0)
            .max(0.1);
        // Catalogs are workspace-authored today, but a hand-edited TOML with
        // a NaN/zero/negative SLO must not poison every ratio of that type
        // (NaN propagates through the product) — fall back to a benign 1 ms.
        let slo_ms = if rt.slo_ms.is_finite() && rt.slo_ms > 0.0 { rt.slo_ms } else { 1.0 };
        RatioTerms { vr, slo_ms, slo: SimDuration::from_millis_f64(slo_ms), dt0 }
    }

    /// The ratio for one request given its type's terms. The arithmetic —
    /// operand values and evaluation order — is exactly the uncached
    /// computation's, so cached and uncached ranks agree bit-for-bit.
    pub(crate) fn ratio(&self, req: &RequestInfo, now: SimTime) -> f64 {
        // FCFS term: milliseconds waited (≥ a small epsilon so new arrivals
        // still get nonzero priority).
        let waited_ms = now.since(req.arrival).as_millis_f64().max(0.1);

        // SLA term: inverse remaining slack before the deadline, in (0, ∞);
        // overdue requests saturate high.
        let deadline = req.arrival + self.slo;
        let slack_ms = if deadline > now { deadline.since(now).as_millis_f64() } else { 0.1 };
        let urgency = self.slo_ms / slack_ms.max(0.1);

        let raw = self.vr * urgency * waited_ms / self.dt0;
        // All factors are finite and positive after `for_type`'s floors, so
        // `raw` is finite in practice; if an overflow ever produced +∞ the
        // normalization below would turn it into NaN (∞/∞). Saturate to the
        // supremum instead — "infinitely overdue" means top priority.
        if !raw.is_finite() {
            return 1.0;
        }
        // α-normalization into (0, 1).
        raw / (1.0 + raw)
    }
}

/// The total order the reorder queue is popped in: descending ratio,
/// ties broken by (arrival, id) ascending. `total_cmp` (not
/// `partial_cmp().unwrap()`) so a pathological non-finite ratio — which
/// [`RatioTerms`] already guards against — can never panic the scheduler
/// mid-run. Under `total_cmp`'s total order a positive NaN ranks above
/// every real number, so a NaN rank would deterministically sort *first*
/// — the same "treat the unrankable as top priority" semantics as the
/// saturation guard in [`RatioTerms::ratio`].
pub(crate) fn ratio_order(
    ra: f64,
    a: &RequestInfo,
    rb: f64,
    b: &RequestInfo,
) -> std::cmp::Ordering {
    rb.total_cmp(&ra).then_with(|| a.arrival.cmp(&b.arrival)).then_with(|| a.id.cmp(&b.id))
}

/// Computes the reorder ratio `R ∈ (0, 1)` for a waiting request.
#[cfg(test)]
pub(crate) fn reorder_ratio(req: &RequestInfo, now: SimTime, ctx: &SchedulerCtx<'_>) -> f64 {
    RatioTerms::for_type(req.rtype, ctx).ratio(req, now)
}

/// Sorts a waiting queue by descending `R` (highest priority first), with
/// arrival order as a deterministic tie-break. The scheduler no longer
/// sorts — it pops [`ReorderIndex`](crate::reorder_index::ReorderIndex) —
/// and this is the reference order those pops are tested against.
///
/// The catalog/profile-derived terms are looked up once per request *type*
/// (the catalog has a handful of types; queues have hundreds of requests),
/// so per-request work is a few flops plus the comparison.
#[cfg(test)]
pub(crate) fn sort_by_reorder_ratio(
    queue: &mut [RequestInfo],
    now: SimTime,
    ctx: &SchedulerCtx<'_>,
) {
    let mut terms: Vec<(RequestTypeId, RatioTerms)> = Vec::new();
    let mut keyed: Vec<(f64, RequestInfo)> = queue
        .iter()
        .map(|r| {
            let t = match terms.iter().find(|(id, _)| *id == r.rtype) {
                Some(&(_, t)) => t,
                None => {
                    let t = RatioTerms::for_type(r.rtype, ctx);
                    terms.push((r.rtype, t));
                    t
                }
            };
            (t.ratio(r, now), *r)
        })
        .collect();
    keyed.sort_by(|a, b| ratio_order(a.0, &a.1, b.0, &b.1));
    for (slot, (_, r)) in queue.iter_mut().zip(keyed) {
        *slot = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_cluster::Cluster;
    use mlp_model::{RequestCatalog, ResourceVector};
    use mlp_net::NetworkModel;
    use mlp_trace::{AuditLog, MetricsRegistry, ProfileStore, RequestId};

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
            SchedulerCtx {
                now: SimTime::from_millis(1000),
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
    fn ratio_is_normalized() {
        let mut h = H::new();
        let r = h.req(1, "compose-post", 0);
        let ctx = h.ctx();
        let ratio = reorder_ratio(&r, SimTime::from_millis(1000), &ctx);
        assert!(ratio > 0.0 && ratio < 1.0);
    }

    #[test]
    fn longer_wait_raises_priority() {
        let mut h = H::new();
        let early = h.req(1, "basicSearch", 0);
        let late = h.req(2, "basicSearch", 900);
        let ctx = h.ctx();
        let now = SimTime::from_millis(1000);
        assert!(
            reorder_ratio(&early, now, &ctx) > reorder_ratio(&late, now, &ctx),
            "FCFS: the longer-waiting request must rank higher"
        );
    }

    #[test]
    fn higher_volatility_raises_priority() {
        let mut h = H::new();
        // Same arrival and wait; compose-post is High V_r,
        // read-home-timeline Low. Evaluated while both are still within
        // their SLOs so the urgency terms stay comparable (once a request
        // is overdue, SLA urgency rightly dominates volatility).
        let hi = h.req(1, "compose-post", 550);
        let lo = h.req(2, "read-home-timeline", 550);
        let ctx = h.ctx();
        let now = SimTime::from_millis(600);
        let r_hi = reorder_ratio(&hi, now, &ctx);
        let r_lo = reorder_ratio(&lo, now, &ctx);
        assert!(r_hi > r_lo, "high-V_r {r_hi} should outrank low-V_r {r_lo}");
    }

    #[test]
    fn approaching_deadline_raises_priority() {
        let mut h = H::new();
        let r = h.req(1, "basicSearch", 0);
        let slo = h.catalog.request_by_name("basicSearch").unwrap().slo_ms;
        let ctx = h.ctx();
        // Same waited time, but evaluated closer to the deadline.
        let near_deadline = SimTime::from_millis((slo as u64).saturating_sub(10));
        let fresh = SimTime::from_millis(50);
        // waited also grows with time, so both terms push the same way —
        // this asserts the combined effect is monotone.
        assert!(reorder_ratio(&r, near_deadline, &ctx) > reorder_ratio(&r, fresh, &ctx));
    }

    #[test]
    fn sort_is_descending_and_deterministic() {
        let mut h = H::new();
        let mut queue = vec![
            h.req(1, "read-home-timeline", 900),
            h.req(2, "compose-post", 100),
            h.req(3, "basicSearch", 500),
        ];
        let mut queue2 = queue.clone();
        let now = SimTime::from_millis(1000);
        {
            let ctx = h.ctx();
            sort_by_reorder_ratio(&mut queue, now, &ctx);
            sort_by_reorder_ratio(&mut queue2, now, &ctx);
        }
        assert_eq!(queue, queue2, "deterministic");
        let ctx = h.ctx();
        let ratios: Vec<f64> = queue.iter().map(|r| reorder_ratio(r, now, &ctx)).collect();
        for w in ratios.windows(2) {
            assert!(w[0] >= w[1], "not descending: {ratios:?}");
        }
    }

    /// Regression: the sort comparator once used `partial_cmp().unwrap()`,
    /// which panicked mid-run the first time a rank came out NaN. The
    /// `total_cmp` order must stay panic-free and deterministic for any
    /// rank bit pattern.
    #[test]
    fn non_finite_ranks_order_without_panic() {
        use std::cmp::Ordering;
        let h = H::new();
        let a = h.req(1, "basicSearch", 0);
        let b = h.req(2, "basicSearch", 10);
        // A positive-NaN rank outranks any real rank (top priority), on
        // either side of the comparison — no panic, no order dependence.
        assert_eq!(ratio_order(f64::NAN, &a, 0.5, &b), Ordering::Less);
        assert_eq!(ratio_order(0.5, &a, f64::NAN, &b), Ordering::Greater);
        // Two unrankables fall back to the (arrival, id) FCFS tie-break.
        assert_eq!(ratio_order(f64::NAN, &a, f64::NAN, &b), Ordering::Less);
        assert_eq!(ratio_order(f64::INFINITY, &b, f64::INFINITY, &a), Ordering::Greater);
    }

    /// Regression: poisoned per-type terms (a hand-edited catalog with a
    /// NaN SLO, an overflow in the volatility product) must yield a finite
    /// ratio, not propagate NaN into the queue order.
    #[test]
    fn poisoned_terms_still_produce_finite_ratio() {
        let h = H::new();
        let r = h.req(1, "compose-post", 0);
        let now = SimTime::from_millis(500);
        for terms in [
            RatioTerms {
                vr: f64::INFINITY,
                slo_ms: 100.0,
                slo: SimDuration::from_millis_f64(100.0),
                dt0: 0.1,
            },
            RatioTerms {
                vr: 1.0,
                slo_ms: f64::NAN,
                slo: SimDuration::from_millis_f64(100.0),
                dt0: 0.1,
            },
        ] {
            let ratio = terms.ratio(&r, now);
            assert!(ratio.is_finite(), "poisoned terms leaked a non-finite ratio: {ratio}");
            assert!((0.0..=1.0).contains(&ratio));
        }
    }

    #[test]
    fn sjf_prefers_short_first_service() {
        let mut h = H::new();
        // Record a tiny history for read-home-timeline's root (nginx) vs
        // a huge one for basicSearch's root (ui): shorter Δt₀ ⇒ higher R,
        // all else roughly equal.
        let rh = h.catalog.request_by_name("read-home-timeline").unwrap();
        let bs = h.catalog.request_by_name("basicSearch").unwrap();
        let rh_root = rh.dag.node(rh.dag.roots()[0]).service;
        let bs_root = bs.dag.node(bs.dag.roots()[0]).service;
        for (svc, ms) in [(rh_root, 1.0), (bs_root, 500.0)] {
            h.profiles.record(
                svc,
                mlp_trace::ExecutionCase {
                    usage: ResourceVector::ZERO,
                    machine_load: 0.0,
                    exec_ms: ms,
                },
            );
        }
        let a = h.req(1, "read-home-timeline", 0);
        let b = h.req(2, "basicSearch", 0);
        let ctx = h.ctx();
        let now = SimTime::from_millis(100);
        // read-home-timeline has lower V_r but a 500× shorter Δt₀ and a
        // tighter SLO: SJF + SLA dominate here.
        assert!(reorder_ratio(&a, now, &ctx) > reorder_ratio(&b, now, &ctx));
    }
}
