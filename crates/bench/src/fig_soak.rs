//! Soak run — bounded-memory streaming lifecycle at millions of requests.
//!
//! Drives v-MLP and two baselines through a fixed count of open-loop
//! arrivals (Poisson at a constant offered rate, generated lazily by
//! `OpenLoopSource`) on a 256-machine fleet partitioned into 16 shards,
//! with the invariant auditor sampling the whole run and the collector in
//! streaming mode. The figure this regenerates is the memory contract of
//! the streaming refactor: peak request-table occupancy plateaus near
//! offered rate × residence time while total arrivals grow without bound,
//! and the auditor stays clean the whole way. Paper scale soaks 2 million
//! requests per scheme; small/tiny shrink the request target (not the
//! cluster) so CI exercises the identical shape.

use crate::scale::Scale;
use mlp_engine::config::ExperimentConfig;
use mlp_engine::experiment::Experiment;
use mlp_engine::registry::SchemeSpec;
use mlp_engine::report;
use mlp_engine::sweep::SweepConfig;
use mlp_workload::patterns::WorkloadPattern;
use serde::Serialize;
use std::time::Instant;

/// Fleet size of the soak cluster.
pub const MACHINES: usize = 256;

/// Shards the fleet is partitioned into (one per 16 machines, matching
/// `fig_scale`'s sharding regime).
pub const SHARDS: usize = 16;

/// Offered load per machine, req/s — the same small-scale regime as
/// `fig_scale`, backed off to a rate the fleet can sustain indefinitely
/// (an unstable queue would grow the in-flight table with run length and
/// defeat the plateau the soak is meant to prove).
pub const RATE_PER_MACHINE: f64 = 5.0;

/// Schemes soaked: today's non-profiling baseline, the full-profiling
/// baseline, and the paper's contribution (the default sweep;
/// `sweeps/soak.json` commits the same list).
pub const SCHEMES: [&str; 3] = ["cursched", "fullprofile", "vmlp"];

/// The default soak sweep as a [`SweepConfig`].
pub fn default_sweep() -> SweepConfig {
    SweepConfig::new(SCHEMES.into_iter().map(SchemeSpec::from).collect())
}

/// Open-loop arrivals pulled per scheme at a given scale. Paper scale is
/// the acceptance target (≥2M requests); smaller scales keep the cluster
/// and rate identical and shrink only the request count.
pub fn request_target(scale: &Scale) -> u64 {
    match scale.label {
        "paper" => 2_000_000,
        "tiny" => 8_000,
        _ => 40_000,
    }
}

/// One soaked scheme.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SoakPoint {
    /// Scheme label.
    pub scheme: String,
    /// Requests pulled from the open-loop source.
    pub arrived: usize,
    /// Requests completed by cut-off.
    pub completed: usize,
    /// Requests unfinished at cut-off.
    pub unfinished: usize,
    /// Completions per second of scheduling period (service throughput).
    pub throughput_rps: f64,
    /// End-to-end P99 latency, ms.
    pub p99_ms: f64,
    /// SLO-violation fraction (unfinished counted as violated).
    pub violation_rate: f64,
    /// Invariant-auditor violations (must be zero).
    pub invariant_violations: u64,
    /// High-water mark of live entries in the engine's request table.
    pub request_table_peak: usize,
    /// `request_table_peak / arrived` — the memory-contract ratio. On a
    /// healthy soak this shrinks as the target grows (the plateau).
    pub peak_fraction: f64,
}

/// Whether a point honors the bounded-memory contract: peak table
/// occupancy must stay well below total arrivals (in-flight plateau, not
/// O(total)). The in-flight plateau is ≈800 entries regardless of target
/// (rate × residence time), so the 20% bound is comfortable at the tiny
/// smoke target and three orders of magnitude above the plateau at soak
/// scale (<0.1%).
pub fn memory_bounded(p: &SoakPoint) -> bool {
    p.request_table_peak * 5 <= p.arrived
}

/// CI perf budget: v-MLP's wall-µs per request may cost at most this
/// multiple of FullProfile's on the same soak. FullProfile shares the
/// engine, event loop, and placement scan but none of v-MLP's reorder /
/// healing machinery, so the ratio isolates the scheme's own overhead
/// from the simulator's — and stays meaningful on noisy shared CI
/// runners where absolute µs/req thresholds would flake. The incremental
/// reorder index + placement cursor hold the observed ratio near 2×;
/// 4× is the regression alarm, not the aspiration.
pub const VMLP_BUDGET_MULTIPLE: f64 = 4.0;

/// Wall-clock per arrival, microseconds (simulator speed), of a point
/// whose run took `wall_ms`.
fn wall_us_per_req(p: &SoakPoint, wall_ms: f64) -> f64 {
    wall_ms / p.arrived.max(1) as f64 * 1000.0
}

/// Whether v-MLP's per-request wall cost is within
/// [`VMLP_BUDGET_MULTIPLE`] of FullProfile's; `wall_ms[i]` is
/// `points[i]`'s wall-clock. `None` when either scheme is missing from the
/// points.
pub fn vmlp_within_budget(points: &[SoakPoint], wall_ms: &[f64]) -> Option<bool> {
    let us_per_req = |label: &str| {
        points
            .iter()
            .zip(wall_ms)
            .find(|(p, _)| p.scheme == label)
            .map(|(p, &w)| wall_us_per_req(p, w))
    };
    let vmlp = us_per_req("v-MLP")?;
    let full = us_per_req("FullProfile")?;
    Some(vmlp <= full * VMLP_BUDGET_MULTIPLE)
}

/// Per-service profile-history window for soak runs. Unbounded history
/// (the figure-run default) grows with every completed span and makes
/// v-MLP's banded Δt estimation quadratic in run length; 512 recent cases
/// keep the estimates stable while bounding both memory and per-admission
/// cost.
pub const PROFILE_RETENTION: usize = 512;

/// The experiment config for one soaked scheme: constant offered rate so
/// expected arrivals are `max_rate × horizon`, a 10% horizon slack so the
/// request cap (not the horizon) ends the arrival stream, streaming
/// statistics, a bounded profile window, and the auditor sampling every
/// period.
pub fn config_for(scheme: impl Into<SchemeSpec>, requests: u64, seed: u64) -> ExperimentConfig {
    let max_rate = RATE_PER_MACHINE * MACHINES as f64;
    let horizon_s = requests as f64 / max_rate * 1.1;
    ExperimentConfig {
        machines: MACHINES,
        max_rate,
        horizon_s,
        ..ExperimentConfig::paper_default(scheme)
    }
    .with_pattern(WorkloadPattern::Constant)
    .with_seed(seed)
    .with_shards(SHARDS)
    .with_auditor(true)
    .with_stream_stats(true)
    .with_profile_retention(PROFILE_RETENTION)
    .with_max_requests(requests)
}

/// Soaks one scheme and returns its point with the wall-clock of the whole
/// experiment in milliseconds.
pub fn data_point(scheme: impl Into<SchemeSpec>, requests: u64, seed: u64) -> (SoakPoint, f64) {
    let cfg = config_for(scheme, requests, seed);
    let label = cfg.scheme.display_name();
    let start = Instant::now();
    let r = Experiment::from_config(cfg).run().expect("soak config is valid");
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let point = SoakPoint {
        scheme: label,
        arrived: r.arrived,
        completed: r.completed,
        unfinished: r.unfinished,
        throughput_rps: r.throughput(),
        p99_ms: r.latency_ms[2],
        violation_rate: r.violation_rate,
        invariant_violations: r.invariant_violations,
        request_table_peak: r.request_table_peak,
        peak_fraction: r.request_table_peak as f64 / r.arrived.max(1) as f64,
    };
    (point, wall_ms)
}

/// Soaks every swept scheme at a scale: each point with its wall ms.
///
/// Honors the process-wide [`mlp_engine::shutdown`] flag between (and
/// during) sweep points: on ctrl-c the in-progress simulation drains at
/// its next sampling tick, its truncated point is discarded, and the
/// completed points are returned so the caller can still flush a partial
/// `BENCH_sim.json`.
pub fn data_sweep(scale: &Scale, seed: u64, sweep: &SweepConfig) -> Vec<(SoakPoint, f64)> {
    let requests = request_target(scale);
    let mut points = Vec::with_capacity(sweep.schemes.len());
    for scheme in &sweep.schemes {
        if mlp_engine::shutdown::requested() {
            break;
        }
        eprintln!("fig_soak: {} × {requests} requests…", scheme.display_name());
        let (point, wall_ms) = data_point(scheme.clone(), requests, seed);
        if mlp_engine::shutdown::requested() {
            // The flag rose while this point ran: the kernel cut it short
            // at a tick boundary, so its numbers describe a truncated run.
            eprintln!("fig_soak: {} interrupted — discarding its partial point", point.scheme);
            break;
        }
        points.push((point, wall_ms));
    }
    points
}

/// The pass/fail gates CI's soak-smoke job hangs off this figure: no
/// invariant violation, the request cap (not the horizon) ends every
/// scheme's arrivals, the request table stays [`memory_bounded`], and
/// v-MLP stays [`vmlp_within_budget`] (skipped with a note when the sweep
/// omits v-MLP or FullProfile). `wall_ms[i]` is `points[i]`'s wall-clock.
pub fn gates(points: &[SoakPoint], wall_ms: &[f64], scale: &Scale) -> Vec<String> {
    let target = request_target(scale) as usize;
    let mut failures = Vec::new();
    for p in points {
        if p.invariant_violations > 0 {
            failures.push(format!("{}: {} invariant violations", p.scheme, p.invariant_violations));
        }
        if p.arrived < target {
            failures.push(format!("{}: only {} of {target} requests arrived", p.scheme, p.arrived));
        }
        if !memory_bounded(p) {
            failures.push(format!(
                "{}: request table peak {} not ≪ {} arrivals",
                p.scheme, p.request_table_peak, p.arrived
            ));
        }
    }
    match vmlp_within_budget(points, wall_ms) {
        Some(true) => {}
        Some(false) => failures
            .push(format!("v-MLP µs/req exceeds {VMLP_BUDGET_MULTIPLE}× the FullProfile baseline")),
        None => eprintln!("fig_soak: no v-MLP and FullProfile pair; perf budget gate skipped"),
    }
    failures
}

/// Renders the soak table; `wall_ms[i]` is `points[i]`'s wall-clock.
pub fn report(points: &[SoakPoint], wall_ms: &[f64], scale: &Scale) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(wall_ms)
        .map(|(p, &wall_ms)| {
            vec![
                p.scheme.clone(),
                format!("{}", p.arrived),
                format!("{}", p.completed),
                format!("{:.0}", wall_ms),
                format!("{:.1}", wall_us_per_req(p, wall_ms)),
                format!("{:.0}", p.throughput_rps),
                format!("{:.1}", p.p99_ms),
                format!("{:.1}%", p.violation_rate * 100.0),
                format!("{}", p.request_table_peak),
                format!("{:.2}%", p.peak_fraction * 100.0),
                format!("{}", p.invariant_violations),
            ]
        })
        .collect();
    report::table(
        &format!(
            "Soak — open-loop streaming on {MACHINES} machines / {SHARDS} shards at \
             {RATE_PER_MACHINE} req/s/machine, auditor on ({})",
            scale.label
        ),
        &[
            "scheme",
            "arrived",
            "completed",
            "wall ms",
            "µs/req",
            "thr r/s",
            "p99 ms",
            "viol",
            "table peak",
            "peak/arr",
            "audit viol",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_targets_scale_down_for_ci() {
        assert_eq!(request_target(&Scale::paper()), 2_000_000);
        assert!(request_target(&Scale::small()) < request_target(&Scale::paper()));
        assert!(request_target(&Scale::tiny()) < request_target(&Scale::small()));
    }

    #[test]
    fn gates_flag_violations_short_runs_unbounded_tables_and_budget() {
        let scale = Scale::tiny();
        let target = request_target(&scale) as usize;
        let full =
            SoakPoint { scheme: "FullProfile".into(), arrived: target, ..Default::default() };
        let vmlp = SoakPoint { scheme: "v-MLP".into(), ..full.clone() };
        // 1 and 4 µs/req over `target` arrivals: exactly at the budget.
        let (full_ms, vmlp_ms) = (target as f64 / 1000.0, 4.0 * target as f64 / 1000.0);
        assert!(gates(&[full.clone(), vmlp.clone()], &[full_ms, vmlp_ms], &scale).is_empty());
        let broken = [
            SoakPoint { invariant_violations: 1, ..full.clone() },
            SoakPoint { arrived: target - 1, ..full.clone() },
            SoakPoint { request_table_peak: target, ..full },
            vmlp,
        ];
        let walls = [full_ms, full_ms, full_ms, 5.0 * target as f64 / 1000.0];
        assert_eq!(gates(&broken, &walls, &scale).len(), 4);
    }

    /// A miniature soak has the acceptance shape of the full run: the cap
    /// binds (not the horizon), the auditor is clean, and the request
    /// table plateaus far below total arrivals.
    #[test]
    fn mini_soak_is_clean_and_memory_bounded() {
        let (p, _) = data_point("vmlp", 3_000, 7);
        assert!(p.arrived >= 3_000, "request cap never bound: {} arrivals", p.arrived);
        assert_eq!(p.invariant_violations, 0, "auditor must stay clean");
        assert!(p.completed > 0);
        assert!(
            memory_bounded(&p),
            "table peak {} is not ≪ {} arrivals",
            p.request_table_peak,
            p.arrived
        );
        assert!(p.p99_ms > 0.0);
    }
}
