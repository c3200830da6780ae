//! Overload resilience — flash-crowd degradation trajectories.
//!
//! Sweeps a flash crowd (the offered rate steps to `multiplier ×` base for
//! half the horizon) across surge multipliers and four arms: the two
//! non-profiling/full-profiling baselines and v-MLP facing the raw surge
//! with every resilience mechanism off (`surge_only`), plus v-MLP behind
//! the full overload-resilience stack (`flash_crowd`: admission control,
//! retry budget, circuit breakers, brownout tiers). The figure this
//! regenerates is the paper-style graceful-degradation claim: without
//! resilience goodput collapses past saturation (queues grow without
//! bound and every completion blows its SLO); with it the admission gate
//! sheds the excess at the door and goodput holds near the 1× capacity of
//! the cluster. Every arm runs with the invariant auditor on — the three
//! overload invariants (retry-token conservation, legal breaker walks,
//! admission-log feasibility replay) gate alongside the classic ones.

use crate::scale::Scale;
use mlp_engine::config::{ExperimentConfig, DRAIN_FACTOR};
use mlp_engine::experiment::Experiment;
use mlp_engine::registry::SchemeSpec;
use mlp_engine::report;
use mlp_engine::sweep::SweepConfig;
use mlp_sched::{OverloadConfig, RetryBudget, RETRY_BURST, RETRY_RATE_PER_S};
use mlp_workload::patterns::WorkloadPattern;
use serde::Serialize;

/// Flash-crowd multipliers swept (1× is the capacity reference).
pub const MULTIPLIERS: [f64; 4] = [1.0, 2.0, 3.0, 5.0];

/// The default overload sweep: the two baselines and v-MLP, figure order
/// (`sweeps/overload.json` commits the same list). The *last* swept
/// scheme additionally runs behind the resilience stack, so the default
/// reproduces the historical four arms exactly.
pub fn default_sweep() -> SweepConfig {
    SweepConfig::new(vec!["cursched".into(), "fullprofile".into(), "vmlp".into()])
}

/// The goodput-retention acceptance gate: resilient v-MLP at
/// [`GATE_MULTIPLIER`]× must keep at least this fraction of its own 1×
/// goodput.
pub const GATE_RETENTION: f64 = 0.8;

/// The surge multiplier the retention gate is evaluated at.
pub const GATE_MULTIPLIER: f64 = 3.0;

/// One (arm, multiplier) cell of the sweep.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OverloadPoint {
    /// Scheme label, with `+resil` when the resilience stack is on.
    pub arm: String,
    /// Underlying scheme label (without the resilience suffix).
    pub scheme: String,
    /// Whether the resilience mechanisms were active.
    pub resilience: bool,
    /// Flash-crowd rate multiplier.
    pub multiplier: f64,
    /// Requests that arrived (offered load grows with the multiplier).
    pub arrived: usize,
    /// Requests completed by cut-off.
    pub completed: usize,
    /// Requests unfinished at cut-off (includes everything shed).
    pub unfinished: usize,
    /// Arrivals refused by the admission gate.
    pub shed_requests: usize,
    /// SLO-compliant completions per second — the claim's y-axis.
    pub goodput_rps: f64,
    /// All completions per second.
    pub throughput_rps: f64,
    /// End-to-end P99 latency, ms.
    pub p99_ms: f64,
    /// SLO-violation fraction (unfinished counted as violated).
    pub violation_rate: f64,
    /// DAG leaves skipped by brownout branch shedding.
    pub branch_sheds: u64,
    /// Retries refused by the global token budget.
    pub retries_denied: u64,
    /// Retries actually issued (scheduler plus engine fallback).
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Peak overload pressure signal.
    pub peak_pressure: f64,
    /// Invariant-auditor violations (must be zero).
    pub invariant_violations: u64,
}

/// Admission cap on total in-system requests for a given base rate:
/// roughly half a second of offered load. The cap is the lever that
/// keeps queueing delay inside the SLO envelope — a backlog sized in
/// seconds would make every admitted request violate a sub-second SLO
/// even though the cluster never falls over — while staying above the
/// nominal 1× in-flight plateau so an unsurged run almost never sheds.
pub fn queue_cap(max_rate: f64) -> u32 {
    ((max_rate * 0.5).ceil() as u32).max(16)
}

/// The overload config for one arm: surge between 20% and 70% of the
/// horizon, resilience on or off.
pub fn overload_for(scale: &Scale, multiplier: f64, resilience: bool) -> OverloadConfig {
    let start = 0.2 * scale.horizon_s;
    let duration = 0.5 * scale.horizon_s;
    let mut o = if resilience {
        OverloadConfig::flash_crowd(multiplier, start, duration)
    } else {
        OverloadConfig::surge_only(multiplier, start, duration)
    };
    o.max_queue_depth = queue_cap(scale.max_rate);
    o
}

/// The experiment config for one cell: constant base pattern (the surge is
/// the only nonstationarity), auditor on.
pub fn config_for(
    scale: &Scale,
    scheme: impl Into<SchemeSpec>,
    multiplier: f64,
    resilience: bool,
    seed: u64,
) -> ExperimentConfig {
    scale
        .config(scheme)
        .with_pattern(WorkloadPattern::Constant)
        .with_seed(seed)
        .with_auditor(true)
        .with_overload(overload_for(scale, multiplier, resilience))
}

/// Upper bound on retries the token budget can possibly grant the
/// resilient arm at `multiplier`× over the run (burst + refill over the
/// drained horizon; the scheme and seed do not enter it). [`gates`] holds
/// resilient arms' issued retries against this.
pub fn retry_grant_bound(scale: &Scale, multiplier: f64) -> u64 {
    let cfg = config_for(scale, "vmlp", multiplier, true, 0);
    RetryBudget::new(RETRY_BURST, RETRY_RATE_PER_S).grant_bound(cfg.horizon_s * DRAIN_FACTOR)
}

/// Runs one cell.
pub fn data_point(
    scale: &Scale,
    scheme: impl Into<SchemeSpec>,
    multiplier: f64,
    resilience: bool,
    seed: u64,
) -> OverloadPoint {
    let cfg = config_for(scale, scheme, multiplier, resilience, seed);
    let label = cfg.scheme.display_name();
    let r = Experiment::from_config(cfg).run().expect("overload config is valid");
    let arm = if resilience { format!("{label}+resil") } else { label.clone() };
    OverloadPoint {
        arm,
        scheme: label,
        resilience,
        multiplier,
        arrived: r.arrived,
        completed: r.completed,
        unfinished: r.unfinished,
        shed_requests: r.shed_requests,
        goodput_rps: r.goodput(),
        throughput_rps: r.throughput(),
        p99_ms: r.latency_ms[2],
        violation_rate: r.violation_rate,
        branch_sheds: r.branch_sheds,
        retries_denied: r.retries_denied,
        retries: r.fault_retries,
        breaker_opens: r.breaker_opens,
        peak_pressure: r.peak_pressure,
        invariant_violations: r.invariant_violations,
    }
}

/// The full sweep: every swept scheme faces the raw surge, and the last
/// one additionally runs behind the resilience stack — × every
/// multiplier.
pub fn data_sweep(scale: &Scale, seed: u64, sweep: &SweepConfig) -> Vec<OverloadPoint> {
    let mut arms: Vec<(SchemeSpec, bool)> =
        sweep.schemes.iter().map(|s| (s.clone(), false)).collect();
    if let Some(last) = sweep.schemes.last() {
        arms.push((last.clone(), true));
    }
    let mut points = Vec::with_capacity(arms.len() * MULTIPLIERS.len());
    for (scheme, resilience) in &arms {
        for &m in &MULTIPLIERS {
            eprintln!(
                "fig_overload: {}{} × {m}×…",
                scheme.display_name(),
                if *resilience { "+resil" } else { "" }
            );
            points.push(data_point(scale, scheme.clone(), m, *resilience, seed));
        }
    }
    points
}

/// The resilient arm's point at a multiplier, if present (there is one
/// resilient arm per sweep: its last scheme).
pub fn resilient_arm_at(points: &[OverloadPoint], multiplier: f64) -> Option<&OverloadPoint> {
    points.iter().find(|p| p.resilience && p.multiplier == multiplier)
}

/// Goodput retained by the resilient arm at [`GATE_MULTIPLIER`]× relative
/// to its own 1× capacity (the acceptance gate's ratio). `None` when
/// either point is missing or the 1× goodput is zero.
pub fn goodput_retention(points: &[OverloadPoint]) -> Option<f64> {
    let capacity = resilient_arm_at(points, 1.0)?.goodput_rps;
    let surged = resilient_arm_at(points, GATE_MULTIPLIER)?.goodput_rps;
    if capacity > 0.0 {
        Some(surged / capacity)
    } else {
        None
    }
}

/// The pass/fail gates CI's overload-smoke job hangs off this figure: no
/// cell may report an invariant violation or break request conservation
/// (arrived = completed + unfinished), the resilient arm may not issue
/// more retries than the token budget can grant, and it must retain at
/// least [`GATE_RETENTION`] of its own 1× goodput at [`GATE_MULTIPLIER`]×.
pub fn gates(points: &[OverloadPoint], scale: &Scale) -> Vec<String> {
    let mut failures = Vec::new();
    for p in points {
        let cell = format!("{} @{}×", p.arm, p.multiplier);
        if p.invariant_violations > 0 {
            failures.push(format!("{cell}: {} invariant violations", p.invariant_violations));
        }
        let (arrived, completed, unfinished) = (p.arrived, p.completed, p.unfinished);
        if arrived != completed + unfinished {
            failures.push(format!(
                "{cell}: conservation broke: {arrived} arrived != {completed} completed + \
                 {unfinished} unfinished"
            ));
        }
        let (retries, bound) = (p.retries, retry_grant_bound(scale, p.multiplier));
        if p.resilience && retries > bound {
            failures
                .push(format!("{cell}: {retries} retries exceed the budget's grant bound {bound}"));
        }
    }
    // Missing resilient points or a zero 1× capacity count as 0% retained.
    let retained = goodput_retention(points).unwrap_or(0.0);
    let resilient = points.iter().find(|p| p.resilience).map_or("", |p| p.scheme.as_str());
    let verdict = format!(
        "resilient {resilient} retains {:.0}% of 1× goodput at {GATE_MULTIPLIER}× (gate: ≥{:.0}%)",
        retained * 100.0,
        GATE_RETENTION * 100.0
    );
    if retained >= GATE_RETENTION {
        eprintln!("fig_overload: {verdict}");
    } else {
        failures.push(format!("GATE FAILED — {verdict}"));
    }
    failures
}

/// Renders the degradation-trajectory table.
pub fn report(points: &[OverloadPoint], scale: &Scale) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.arm.clone(),
                format!("{:.0}×", p.multiplier),
                format!("{}", p.arrived),
                format!("{}", p.completed),
                format!("{}", p.shed_requests),
                format!("{:.1}", p.goodput_rps),
                format!("{:.1}", p.throughput_rps),
                format!("{:.1}", p.p99_ms),
                format!("{:.1}%", p.violation_rate * 100.0),
                format!("{}", p.branch_sheds),
                format!("{}", p.retries_denied),
                format!("{}", p.breaker_opens),
                format!("{:.2}", p.peak_pressure),
                format!("{}", p.invariant_violations),
            ]
        })
        .collect();
    report::table(
        &format!(
            "Overload — flash crowd at 20–70% of the horizon on {} machines, base {} req/s, \
             auditor on ({})",
            scale.machines, scale.max_rate, scale.label
        ),
        &[
            "arm",
            "surge",
            "arrived",
            "done",
            "shed",
            "goodput",
            "thr r/s",
            "p99 ms",
            "viol",
            "br-shed",
            "rt-deny",
            "brk-open",
            "peak-p",
            "audit viol",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_cap_tracks_rate_with_a_floor() {
        assert_eq!(queue_cap(84.0), 42);
        assert_eq!(queue_cap(1000.0), 500);
        assert_eq!(queue_cap(4.0), 16, "floor binds at tiny rates");
    }

    #[test]
    fn overload_configs_validate_at_every_scale() {
        for scale in [Scale::tiny(), Scale::small(), Scale::paper()] {
            for &m in &MULTIPLIERS {
                for resil in [false, true] {
                    let o = overload_for(&scale, m, resil);
                    assert!(o.enabled);
                    assert_eq!(o.resilience, resil);
                    o.validate().expect("sweep config must be valid");
                }
            }
        }
    }

    /// A tiny flash crowd run through the resilient arm has the acceptance
    /// shape: conservation holds (arrived = completed + unfinished with
    /// shed counted inside unfinished), the auditor is clean, and the gate
    /// actually shed something at 3× — the mechanisms demonstrably engaged.
    #[test]
    fn tiny_resilient_surge_sheds_and_stays_clean() {
        let scale = Scale::tiny();
        let p = data_point(&scale, "vmlp", 3.0, true, 7);
        assert_eq!(p.invariant_violations, 0, "auditor must stay clean");
        assert_eq!(p.arrived, p.completed + p.unfinished, "request conservation with shedding");
        assert!(p.shed_requests > 0, "a 3× surge must trip the admission gate");
        assert!(p.completed > 0, "degradation must be graceful, not total");
        assert!(p.peak_pressure > 0.0);
    }

    /// The gates pass clean synthetic points and flag an auditor
    /// violation, broken conservation and a retention collapse.
    #[test]
    fn gates_flag_violations_conservation_and_retention() {
        let (scale, p) = (Scale::tiny(), OverloadPoint { resilience: true, ..Default::default() });
        let at = |multiplier, goodput_rps| OverloadPoint { multiplier, goodput_rps, ..p.clone() };
        let mut points = [at(1.0, 10.0), at(GATE_MULTIPLIER, 9.0)];
        assert!(gates(&points, &scale).is_empty());
        points[0].invariant_violations = 1;
        points[1].arrived = 5;
        assert_eq!(gates(&points, &scale).len(), 2);
        let collapsed = gates(&[at(1.0, 10.0), at(GATE_MULTIPLIER, 1.0)], &scale);
        assert!(collapsed[0].starts_with("GATE FAILED"), "{collapsed:?}");
    }

    /// The same surge without resilience sheds nothing — the baseline arm
    /// really is the untreated control.
    #[test]
    fn tiny_surge_only_never_sheds() {
        let scale = Scale::tiny();
        let p = data_point(&scale, "vmlp", 3.0, false, 7);
        assert_eq!(p.shed_requests, 0);
        assert_eq!(p.branch_sheds, 0);
        assert_eq!(p.retries_denied, 0);
        assert_eq!(p.invariant_violations, 0);
    }
}
