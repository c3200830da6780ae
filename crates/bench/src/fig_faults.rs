//! Fault-storm scenario — robustness extension beyond the paper.
//!
//! Replays the same offered load against a mid-run fault storm (machine
//! crashes with outages, transient invocation failures, degraded network)
//! and compares how much goodput each scheme salvages. A faults-off v-MLP
//! row anchors the comparison: the gap between it and the storm rows is
//! the price of the storm, and the gap between schemes under the storm is
//! what recovery policy buys.

use crate::scale::Scale;
use mlp_engine::config::ExperimentConfig;
use mlp_engine::parallel::run_all;
use mlp_engine::registry::SchemeSpec;
use mlp_engine::report;
use mlp_engine::runner::ExperimentResult;
use mlp_engine::sweep::SweepConfig;
use mlp_faults::FaultConfig;

/// Schemes compared under the storm, figure order (the default sweep;
/// `sweeps/faults.json` commits the same list).
pub const SCHEMES: [&str; 3] = ["cursched", "fullprofile", "vmlp"];

/// The default storm sweep as a [`SweepConfig`].
pub fn default_sweep() -> SweepConfig {
    SweepConfig::new(SCHEMES.into_iter().map(SchemeSpec::from).collect())
}

/// A storm proportioned to the run: it opens at 20 % of the horizon, rages
/// for half of it, takes out a quarter of the fleet (one machine minimum,
/// never the whole cluster) with outages an eighth of the horizon long,
/// fails 5 % of in-storm invocations, and quadruples network latency for
/// the middle quarter of the run.
pub fn storm_for(scale: &Scale) -> FaultConfig {
    let horizon_ms = (scale.horizon_s * 1000.0) as u64;
    let crashes = (scale.machines / 4).clamp(1, scale.machines.saturating_sub(1));
    FaultConfig {
        enabled: true,
        machine_crashes: crashes as u32,
        storm_start_ms: horizon_ms / 5,
        storm_duration_ms: horizon_ms / 2,
        outage_ms: horizon_ms / 8,
        transient_fail_prob: 0.05,
        degrade_start_ms: horizon_ms / 4,
        degrade_duration_ms: horizon_ms / 4,
        degrade_factor: 4.0,
    }
}

/// One run per swept scheme under the storm, plus the faults-off v-MLP
/// anchor (always the last element).
pub fn data_sweep(scale: Scale, seed: u64, sweep: &SweepConfig) -> Vec<ExperimentResult> {
    let storm = storm_for(&scale);
    let mut configs: Vec<ExperimentConfig> = sweep
        .schemes
        .iter()
        .map(|s| scale.config(s.clone()).with_seed(seed).with_faults(storm))
        .collect();
    configs.push(scale.config("vmlp").with_seed(seed));
    run_all(&configs, 4)
}

/// Renders one storm sweep.
pub fn report_sweep(scale: Scale, seed: u64, sweep: &SweepConfig) -> String {
    let results = data_sweep(scale, seed, sweep);
    let (storm_rows, anchor) = results.split_at(sweep.schemes.len());

    let row = |label: String, r: &ExperimentResult| -> Vec<String> {
        vec![
            label,
            format!("{:.1}", r.goodput()),
            format!("{}", r.completed),
            format!("{}", r.abandoned),
            format!("{:.1}%", r.violation_rate * 100.0),
            format!("{}", r.node_failures),
            format!("{}", r.fault_retries),
            format!("{}", r.machine_crashes),
            format!("{}", r.crash_replans),
            format!("{}", report::f(r.mttr_ms)),
        ]
    };

    let mut rows: Vec<Vec<String>> = storm_rows
        .iter()
        .map(|r| row(format!("{} + storm", r.config.scheme.display_name()), r))
        .collect();
    rows.push(row("v-MLP (no faults)".to_string(), &anchor[0]));

    report::table(
        &format!(
            "Fault storm — goodput under {} crashes / 5% transients / 4x degraded net ({})",
            storm_for(&scale).machine_crashes,
            scale.label
        ),
        &[
            "scheme",
            "goodput r/s",
            "completed",
            "abandoned",
            "violations",
            "node fails",
            "retries",
            "crashes",
            "replans",
            "MTTR ms",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The storm scenario must run end to end at tiny scale, actually
    /// injecting faults into the storm rows and none into the anchor.
    #[test]
    fn storm_scenario_runs_end_to_end() {
        let results = data_sweep(Scale::tiny(), 7, &default_sweep());
        assert_eq!(results.len(), SCHEMES.len() + 1);
        let (storm_rows, anchor) = results.split_at(SCHEMES.len());
        for r in storm_rows {
            assert!(
                r.machine_crashes > 0,
                "{}: no crashes injected",
                r.config.scheme.display_name()
            );
            assert!(r.completed + r.unfinished >= r.arrived, "requests lost");
        }
        assert_eq!(anchor[0].machine_crashes, 0);
        assert_eq!(anchor[0].abandoned, 0);
        // The anchor faces no faults, so it completes at least as much as
        // the same scheduler under the storm.
        let vmlp_storm = storm_rows.last().unwrap();
        assert!(anchor[0].completed >= vmlp_storm.completed);
    }

    #[test]
    fn storm_scales_with_the_run() {
        let tiny = storm_for(&Scale::tiny());
        assert!(tiny.machine_crashes >= 1);
        assert!((tiny.machine_crashes as usize) < Scale::tiny().machines);
        let paper = storm_for(&Scale::paper());
        assert_eq!(paper.machine_crashes, 25);
        assert!(paper.storm_start_ms < paper.storm_start_ms + paper.storm_duration_ms);
    }
}
