//! Shared evaluation-run helper: run a (scheme, pattern, mix) cell over
//! several seeds in parallel and average the figure metrics.

use crate::loads::rate_factor;
use crate::scale::Scale;
use mlp_engine::config::{ExperimentConfig, MixSpec};
use mlp_engine::parallel::run_all;
use mlp_engine::registry::SchemeSpec;
use mlp_engine::runner::ExperimentResult;
use mlp_model::RequestCatalog;
use mlp_stats::TimeSeries;
use mlp_workload::WorkloadPattern;

/// Seed-averaged metrics for one experiment cell.
#[derive(Debug, Clone)]
pub struct AvgResult {
    /// Scheme display label (registry-derived, e.g. `v-MLP[healing=off]`).
    pub scheme: String,
    /// Mean SLO-violation fraction.
    pub violation: f64,
    /// Mean per-class violation fractions `[low, mid, high]`.
    pub violation_by_class: [f64; 3],
    /// Mean latency percentiles `[p50, p90, p99]` (ms).
    pub latency_ms: [f64; 3],
    /// Mean per-class p99 `[low, mid, high]` (ms).
    pub p99_by_class: [f64; 3],
    /// Mean cluster utilization.
    pub utilization: f64,
    /// Utilization time series from the first seed (for Fig 11 curves).
    pub util_series: TimeSeries,
    /// Mean throughput (completed requests/s within the horizon).
    pub throughput: f64,
    /// Mean goodput (SLO-compliant completions/s within the horizon).
    pub goodput: f64,
    /// Mean healing counters (delay-slot fills, stretches, switches).
    pub healing: (f64, f64, f64),
}

/// One experiment cell to run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scheduling scheme spec (enum schemes convert via `Into`).
    pub scheme: SchemeSpec,
    /// Workload pattern.
    pub pattern: WorkloadPattern,
    /// Request mix.
    pub mix: MixSpec,
    /// Extra multiplier on the scale's rate (after work normalization).
    pub rate_mult: f64,
}

impl Cell {
    /// Default cell for a scheme: L1 pattern, balanced mix.
    pub fn new(scheme: impl Into<SchemeSpec>) -> Self {
        Cell {
            scheme: scheme.into(),
            pattern: WorkloadPattern::L1Pulse,
            mix: MixSpec::Balanced,
            rate_mult: 1.0,
        }
    }
}

/// Runs every cell × `scale.seeds` seeds in parallel and averages.
///
/// Per-class streams are work-normalized (see [`crate::loads`]) so every
/// mix offers the same CPU-work per second at `rate_mult = 1.0`.
pub fn run_cells(scale: Scale, cells: &[Cell], base_seed: u64) -> Vec<AvgResult> {
    let catalog = RequestCatalog::paper();
    let mut configs: Vec<ExperimentConfig> = Vec::with_capacity(cells.len() * scale.seeds as usize);
    for cell in cells {
        let rate = scale.max_rate * rate_factor(cell.mix, &catalog) * cell.rate_mult;
        for s in 0..scale.seeds {
            configs.push(
                scale
                    .config(cell.scheme.clone())
                    .with_pattern(cell.pattern)
                    .with_mix(cell.mix)
                    .with_rate(rate)
                    .with_seed(base_seed + s),
            );
        }
    }
    let results = run_all(&configs, 0);
    results
        .chunks(scale.seeds as usize)
        .zip(cells)
        .map(|(chunk, cell)| average(cell.scheme.display_name(), chunk))
        .collect()
}

fn average(scheme: String, runs: &[ExperimentResult]) -> AvgResult {
    let n = runs.len() as f64;
    let mut out = AvgResult {
        scheme,
        violation: 0.0,
        violation_by_class: [0.0; 3],
        latency_ms: [0.0; 3],
        p99_by_class: [0.0; 3],
        utilization: 0.0,
        util_series: runs[0].utilization.clone(),
        throughput: 0.0,
        goodput: 0.0,
        healing: (0.0, 0.0, 0.0),
    };
    for r in runs {
        out.violation += r.violation_rate / n;
        out.utilization += r.mean_utilization / n;
        out.throughput += r.throughput() / n;
        out.goodput += r.goodput() / n;
        for i in 0..3 {
            out.violation_by_class[i] += r.violation_by_class[i] / n;
            out.latency_ms[i] += r.latency_ms[i] / n;
            out.p99_by_class[i] += r.p99_by_class[i] / n;
        }
        out.healing.0 += r.healing.0 as f64 / n;
        out.healing.1 += r.healing.1 as f64 / n;
        out.healing.2 += r.healing.2 as f64 / n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_averages_two_schemes() {
        let scale = Scale::tiny();
        let cells = [Cell::new("fairsched"), Cell::new("vmlp")];
        let res = run_cells(scale, &cells, 77);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].scheme, "FairSched");
        assert_eq!(res[1].scheme, "v-MLP");
        for r in &res {
            assert!(r.throughput > 0.0);
            assert!(r.latency_ms[0] <= r.latency_ms[2]);
        }
    }
}
