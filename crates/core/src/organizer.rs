//! The self-organizing module (Algorithm 1): volatility-banded Δt
//! estimation and ledger-checked placement.

use crate::volatility::{Volatility, VolatilityBand};
use mlp_model::Microservice;
use mlp_sched::placement::{MachinePolicy, PlanPolicy};
use mlp_sched::PlanEnv;
use mlp_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How Δt budgets are estimated — the paper's banded policy plus two
/// degenerate variants for the ablation study (DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DtPolicy {
    /// Algorithm 1: band-dependent (historical / p50-of-x% / p99-of-x%).
    Banded,
    /// Ablation: always use the historical mean (FullProfile-like).
    AlwaysMean,
    /// Ablation: always use the p99 tail (maximally conservative).
    AlwaysP99,
}

/// The per-request planning policy of the self-organizing module.
///
/// Algorithm 1's Δt selection:
/// * `V_r ≤ 0.3` — "Δt is directly determined by historical value": the
///   most recent observed execution time.
/// * `0.3 < V_r < 0.7` — "Δt = 50 % latency of x % executions".
/// * `V_r ≥ 0.7` — "Δt = 99 % latency of x % executions".
///
/// with `x ∝ SLA · V_r` (see [`Volatility::x_percent`]). Estimates are
/// floored at the service's nominal time for the request's work factor, so
/// a thin history can never produce an absurdly optimistic budget.
pub struct OrganizerPolicy {
    /// The request's volatility.
    pub vr: Volatility,
    /// SLA weight for the x% window (1.0 = the catalog's default SLO
    /// factor).
    pub sla_weight: f64,
    /// Δt policy (Banded = the paper; others for ablations).
    pub dt_policy: DtPolicy,
}

impl OrganizerPolicy {
    /// Default SLA weight for the `x ∝ SLA · V_r` window. With the
    /// catalog's SLO factor of 5, mid-volatility requests (`V_r ≈ 0.4–0.5`)
    /// see `x ≈ 100` — their Δt is the median of (essentially) the whole
    /// history — and high-volatility requests saturate at `x = 100`,
    /// making Δt the p99 of the full history. Smaller weights shrink the
    /// window toward the fastest executions and are exercised by the
    /// ablation benches.
    pub const DEFAULT_SLA_WEIGHT: f64 = 2.5;

    /// Standard policy for a request of volatility `vr`.
    pub fn new(vr: Volatility) -> Self {
        OrganizerPolicy { vr, sla_weight: Self::DEFAULT_SLA_WEIGHT, dt_policy: DtPolicy::Banded }
    }

    /// Δt estimate in milliseconds for one microservice.
    pub fn delta_t_ms(&self, svc: &Microservice, work_factor: f64, env: &PlanEnv<'_>) -> f64 {
        let nominal = svc.base_ms * work_factor;
        let x = self.vr.x_percent(self.sla_weight);
        let est = match self.dt_policy {
            DtPolicy::AlwaysMean => env.profiles.mean_exec_ms(svc.id).unwrap_or(nominal),
            DtPolicy::AlwaysP99 => env.profiles.delta_t_ms(svc.id, 100.0, 0.99, nominal * 1.5),
            DtPolicy::Banded => match self.vr.band() {
                VolatilityBand::Low => env.profiles.last_exec_ms(svc.id).unwrap_or(nominal),
                VolatilityBand::Medium => {
                    // "Δt = 50 % latency of x % executions" — floored at the
                    // historical mean: capping penalties make execution-time
                    // histories right-skewed, where the median alone
                    // under-budgets the very contention it was measured
                    // under (the conservative principle of Section III-B).
                    let median = env.profiles.delta_t_ms(svc.id, x, 0.5, nominal);
                    let mean = env.profiles.mean_exec_ms(svc.id).unwrap_or(nominal);
                    median.max(mean)
                }
                VolatilityBand::High => {
                    // Cold-start fallback is deliberately conservative for
                    // volatile services.
                    env.profiles.delta_t_ms(svc.id, x, 0.99, nominal * 1.5)
                }
            },
        };
        est.max(nominal)
    }
}

impl PlanPolicy for OrganizerPolicy {
    fn budget(
        &self,
        _node: usize,
        svc: &Microservice,
        work_factor: f64,
        env: &PlanEnv<'_>,
    ) -> SimDuration {
        SimDuration::from_millis_f64(self.delta_t_ms(svc, work_factor, env))
    }

    fn grant(
        &self,
        _node: usize,
        svc: &Microservice,
        _env: &PlanEnv<'_>,
    ) -> mlp_model::ResourceVector {
        svc.demand
    }

    fn machine_policy(&self) -> MachinePolicy {
        MachinePolicy::LedgerEarliestFit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_model::{RequestCatalog, ResourceVector, ServiceId};
    use mlp_net::NetworkModel;
    use mlp_sim::SimTime;
    use mlp_trace::{ExecutionCase, ProfileStore};

    struct H {
        catalog: RequestCatalog,
        net: NetworkModel,
        profiles: ProfileStore,
    }

    impl H {
        fn new() -> Self {
            H {
                catalog: RequestCatalog::paper(),
                net: NetworkModel::paper_default(),
                profiles: ProfileStore::new(),
            }
        }
        fn with_history(svc: ServiceId, times: &[f64]) -> Self {
            let mut h = H::new();
            for &ms in times {
                h.profiles.record(
                    svc,
                    ExecutionCase { usage: ResourceVector::ZERO, machine_load: 0.0, exec_ms: ms },
                );
            }
            h
        }
        fn env(&self) -> PlanEnv<'_> {
            PlanEnv {
                now: SimTime::ZERO,
                profiles: &self.profiles,
                catalog: &self.catalog,
                net: &self.net,
            }
        }
    }

    const SVC: ServiceId = ServiceId(0); // nginx-frontend, base 2ms

    #[test]
    fn cold_start_uses_nominal() {
        let h = H::new();
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        let p = OrganizerPolicy::new(Volatility::new(0.5));
        assert_eq!(p.delta_t_ms(&svc, 1.0, &ctx), svc.base_ms);
        // High volatility cold start is extra conservative (1.5×).
        let p_hi = OrganizerPolicy::new(Volatility::new(0.9));
        assert_eq!(p_hi.delta_t_ms(&svc, 1.0, &ctx), svc.base_ms * 1.5);
    }

    #[test]
    fn low_band_uses_last_historical_value() {
        let h = H::with_history(SVC, &[10.0, 20.0, 30.0]);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        let p = OrganizerPolicy::new(Volatility::new(0.2));
        assert_eq!(p.delta_t_ms(&svc, 1.0, &ctx), 30.0, "most recent case");
    }

    #[test]
    fn medium_band_uses_median_of_window() {
        let times: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = H::with_history(SVC, &times);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        // Default SLA weight: x clamps to 100 — Δt is the median floored
        // at the mean (50.5 for 1..=100, the skew guard).
        let p = OrganizerPolicy::new(Volatility::new(0.5));
        assert_eq!(p.delta_t_ms(&svc, 1.0, &ctx), 50.5);
        // A tight SLA weight shrinks the window to the fastest 50%
        // (p50 of 1..=50 = 25), but the mean floor still applies.
        let mut tight = OrganizerPolicy::new(Volatility::new(0.5));
        tight.sla_weight = 1.0;
        assert_eq!(tight.delta_t_ms(&svc, 1.0, &ctx), 50.5);
        // With a symmetric, uncontended history the floor is inactive:
        // a history whose mean is below its median keeps the median.
        let h2 = H::with_history(SVC, &[10.0, 10.0, 10.0, 10.0, 9.0]);
        let ctx2 = h2.env();
        let svc2 = ctx2.catalog.services.get(SVC).clone();
        let dt = OrganizerPolicy::new(Volatility::new(0.5)).delta_t_ms(&svc2, 1.0, &ctx2);
        assert_eq!(dt, 10.0, "median 10 ≥ mean 9.8: median wins");
    }

    #[test]
    fn high_band_uses_tail_of_window() {
        let times: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = H::with_history(SVC, &times);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        // Default weight: p99 over the full history.
        let p = OrganizerPolicy::new(Volatility::new(0.8));
        assert_eq!(p.delta_t_ms(&svc, 1.0, &ctx), 99.0);
        // Tight weight: p99 of the fastest 80% (1..=80) = 80.
        let mut tight = OrganizerPolicy::new(Volatility::new(0.8));
        tight.sla_weight = 1.0;
        let dt = tight.delta_t_ms(&svc, 1.0, &ctx);
        assert!((79.0..=80.0).contains(&dt), "got {dt}");
    }

    #[test]
    fn higher_band_budgets_are_more_conservative() {
        let times: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = H::with_history(SVC, &times);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        let mid = OrganizerPolicy::new(Volatility::new(0.5)).delta_t_ms(&svc, 1.0, &ctx);
        let high = OrganizerPolicy::new(Volatility::new(0.8)).delta_t_ms(&svc, 1.0, &ctx);
        assert!(high > mid, "high {high} must exceed mid {mid}");
    }

    #[test]
    fn nominal_floor_protects_against_thin_history() {
        // One unrealistically fast observation must not produce a
        // too-optimistic budget for a heavy work factor.
        let h = H::with_history(SVC, &[0.01]);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        let p = OrganizerPolicy::new(Volatility::new(0.5));
        assert_eq!(p.delta_t_ms(&svc, 3.0, &ctx), svc.base_ms * 3.0);
    }

    #[test]
    fn ablation_policies_differ() {
        let times: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = H::with_history(SVC, &times);
        let ctx = h.env();
        let svc = ctx.catalog.services.get(SVC).clone();
        let mut p = OrganizerPolicy::new(Volatility::new(0.5));
        p.dt_policy = DtPolicy::AlwaysMean;
        let mean = p.delta_t_ms(&svc, 1.0, &ctx);
        p.dt_policy = DtPolicy::AlwaysP99;
        let p99 = p.delta_t_ms(&svc, 1.0, &ctx);
        assert_eq!(mean, 50.5);
        assert_eq!(p99, 99.0);
    }
}
