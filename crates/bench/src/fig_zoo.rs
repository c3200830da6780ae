//! Scheduler-zoo sweep — every registered contender head-to-head.
//!
//! Races a sweep of scheme specs (default: the paper's five schemes, the
//! healing-off v-MLP ablation, and the search-based `SearchSched`
//! contender; committed as `sweeps/zoo.json`) through two scenarios with
//! the invariant auditor on for every run:
//!
//! 1. **steady** — the Fig 14 operating point (work-normalized constant
//!    load at a 50 % high-V_r mix, offered just inside capacity), the
//!    throughput/goodput reading;
//! 2. **storm** — the `fig_faults` mid-run fault storm, the robustness
//!    reading.
//!
//! The zoo is the registry's proving ground: a contender registered with
//! typed params joins the table by adding one line to a sweep file, and
//! `figs fig_zoo` gates on zero auditor violations across every
//! (scheme, scenario) cell and records the points into `BENCH_sim.json`
//! under the `fig_zoo` key.

use crate::fig14_throughput::OVERDRIVE;
use crate::fig_faults::storm_for;
use crate::loads::rate_factor;
use crate::scale::Scale;
use mlp_engine::config::{ExperimentConfig, MixSpec};
use mlp_engine::experiment::Experiment;
use mlp_engine::registry::SchemeSpec;
use mlp_engine::report;
use mlp_engine::sweep::SweepConfig;
use mlp_engine::PAPER_SCHEMES;
use mlp_model::RequestCatalog;
use mlp_workload::patterns::WorkloadPattern;
use serde::Serialize;

/// The default zoo: the five paper schemes, the healing-off ablation,
/// and the local-search contender.
pub fn default_sweep() -> SweepConfig {
    let mut schemes: Vec<SchemeSpec> = PAPER_SCHEMES.into_iter().map(SchemeSpec::from).collect();
    schemes.push(SchemeSpec::parse("vmlp:healing=off").expect("static spec parses"));
    schemes.push(SchemeSpec::named("searchsched"));
    SweepConfig::new(schemes)
}

/// One (scheme, both-scenarios) row of the zoo table.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ZooPoint {
    /// Registry-derived display label.
    pub scheme: String,
    /// Canonical spec string (re-parseable via `SchemeSpec::parse`).
    pub spec: String,
    /// Steady-state goodput (SLO-compliant completions/s).
    pub goodput_rps: f64,
    /// Steady-state raw completions/s.
    pub throughput_rps: f64,
    /// Steady-state end-to-end P99, ms.
    pub p99_ms: f64,
    /// Steady-state SLO-violation fraction.
    pub violation_rate: f64,
    /// Steady-state mean cluster utilization.
    pub utilization: f64,
    /// Goodput under the fault storm.
    pub storm_goodput_rps: f64,
    /// Completions under the storm.
    pub storm_completed: usize,
    /// Crash-replans issued under the storm.
    pub storm_crash_replans: u64,
    /// `storm_goodput_rps / goodput_rps` — robustness retention.
    pub storm_retention: f64,
    /// Auditor violations summed over both scenarios (must be zero).
    pub invariant_violations: u64,
}

/// The steady-state config: the Fig 14 mid-point cell (constant pattern,
/// 50 % high-V_r mix, work-normalized rate at [`OVERDRIVE`]), auditor on.
pub fn steady_config(scale: &Scale, scheme: SchemeSpec, seed: u64) -> ExperimentConfig {
    let mix = MixSpec::HighRatio(0.5);
    let f = rate_factor(mix, &RequestCatalog::paper());
    let rate = scale.max_rate * f * (OVERDRIVE * (2.0 / f).min(1.0));
    scale
        .config(scheme)
        .with_pattern(WorkloadPattern::Constant)
        .with_mix(mix)
        .with_rate(rate)
        .with_seed(seed)
        .with_auditor(true)
}

/// The storm config: the `fig_faults` storm over the scale's default
/// pattern, auditor on.
pub fn storm_config(scale: &Scale, scheme: SchemeSpec, seed: u64) -> ExperimentConfig {
    scale.config(scheme).with_seed(seed).with_faults(storm_for(scale)).with_auditor(true)
}

/// Runs one scheme through both scenarios.
pub fn data_point(scale: &Scale, scheme: &SchemeSpec, seed: u64) -> ZooPoint {
    let steady = Experiment::from_config(steady_config(scale, scheme.clone(), seed))
        .run()
        .expect("zoo steady config is valid");
    let storm = Experiment::from_config(storm_config(scale, scheme.clone(), seed))
        .run()
        .expect("zoo storm config is valid");
    ZooPoint {
        scheme: scheme.display_name(),
        spec: scheme.to_string(),
        goodput_rps: steady.goodput(),
        throughput_rps: steady.throughput(),
        p99_ms: steady.latency_ms[2],
        violation_rate: steady.violation_rate,
        utilization: steady.mean_utilization,
        storm_goodput_rps: storm.goodput(),
        storm_completed: storm.completed,
        storm_crash_replans: storm.crash_replans,
        storm_retention: if steady.goodput() > 0.0 {
            storm.goodput() / steady.goodput()
        } else {
            0.0
        },
        invariant_violations: steady.invariant_violations + storm.invariant_violations,
    }
}

/// Runs the whole zoo.
///
/// Honors the process-wide [`mlp_engine::shutdown`] flag: ctrl-c drains
/// the in-progress run at its next sampling tick, discards that
/// scheme's truncated point, and returns the completed points so the
/// caller can still flush a partial `BENCH_sim.json`.
pub fn data(scale: &Scale, seed: u64, sweep: &SweepConfig) -> Vec<ZooPoint> {
    let mut points = Vec::with_capacity(sweep.schemes.len());
    for scheme in &sweep.schemes {
        if mlp_engine::shutdown::requested() {
            break;
        }
        eprintln!("fig_zoo: {} (steady + storm)…", scheme.display_name());
        let point = data_point(scale, scheme, seed);
        if mlp_engine::shutdown::requested() {
            eprintln!("fig_zoo: {} interrupted — discarding its partial point", point.scheme);
            break;
        }
        points.push(point);
    }
    points
}

/// The pass/fail gates CI's zoo-smoke job hangs off this figure: no
/// (scheme, scenario) cell may report an invariant violation, and every
/// scheme must complete something in both scenarios.
pub fn gates(points: &[ZooPoint]) -> Vec<String> {
    let mut failures = Vec::new();
    for p in points {
        if p.invariant_violations > 0 {
            failures.push(format!("{}: {} invariant violations", p.scheme, p.invariant_violations));
        }
        if p.goodput_rps <= 0.0 || p.storm_completed == 0 {
            failures.push(format!("{}: completed nothing in at least one scenario", p.scheme));
        }
    }
    failures
}

/// Renders the zoo table.
pub fn report(points: &[ZooPoint], scale: &Scale) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.clone(),
                format!("{:.1}", p.goodput_rps),
                format!("{:.1}", p.throughput_rps),
                format!("{:.1}", p.p99_ms),
                format!("{:.1}%", p.violation_rate * 100.0),
                format!("{:.0}%", p.utilization * 100.0),
                format!("{:.1}", p.storm_goodput_rps),
                format!("{}", p.storm_crash_replans),
                format!("{:.0}%", p.storm_retention * 100.0),
                format!("{}", p.invariant_violations),
            ]
        })
        .collect();
    report::table(
        &format!(
            "Scheduler zoo — steady goodput and fault-storm retention, auditor on ({})",
            scale.label
        ),
        &[
            "scheme",
            "goodput",
            "thr r/s",
            "p99 ms",
            "viol",
            "util",
            "storm good",
            "replans",
            "retained",
            "audit viol",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed default zoo covers every registered scheme at least
    /// once, plus the healing ablation — so the CI smoke run exercises
    /// the full registry.
    #[test]
    fn default_zoo_covers_the_registry() {
        let sweep = default_sweep();
        sweep.validate().unwrap();
        let names: Vec<&str> = sweep.schemes.iter().map(|s| s.name()).collect();
        for registered in mlp_engine::registry::default_registry().names() {
            assert!(
                names.contains(&registered),
                "registered scheme {registered} missing from the default zoo"
            );
        }
        assert_eq!(sweep.labels().last().map(String::as_str), Some("SearchSched"));
        assert!(sweep.labels().contains(&"v-MLP[healing=off]".to_string()));
    }

    #[test]
    fn gates_flag_violations_and_empty_scenarios() {
        let ok = ZooPoint { goodput_rps: 1.0, storm_completed: 1, ..Default::default() };
        assert!(gates(std::slice::from_ref(&ok)).is_empty());
        let broken = [
            ZooPoint { invariant_violations: 2, ..ok.clone() },
            ZooPoint { storm_completed: 0, ..ok.clone() },
            ZooPoint { goodput_rps: 0.0, ..ok },
        ];
        assert_eq!(gates(&broken).len(), 3);
    }

    /// One zoo cell at tiny scale: both scenarios run, the auditor stays
    /// clean, and the point serializes with its re-parseable spec.
    #[test]
    fn search_contender_runs_clean_at_tiny_scale() {
        let sweep = SweepConfig::new(vec![SchemeSpec::named("searchsched")]);
        let points = data(&Scale::tiny(), 7, &sweep);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.scheme, "SearchSched");
        assert_eq!(p.invariant_violations, 0, "auditor must stay clean");
        assert!(p.goodput_rps > 0.0);
        assert!(p.storm_completed > 0, "the storm must not zero the contender");
        SchemeSpec::parse(&p.spec).expect("recorded spec re-parses");
    }
}
