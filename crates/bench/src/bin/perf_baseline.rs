//! Tracked performance baseline: `cargo run --release -p mlp-bench --bin perf_baseline`.
//!
//! Times a fixed-seed fig14-style run (Constant pattern, 50 % high-V_r
//! mix, OVERDRIVE load) once per scheme with the ledger query counters
//! enabled, and writes the snapshot to `BENCH_sim.json` at the repo root.
//! Commit the file: future PRs diff against it, so the perf trajectory of
//! the scheduling hot path is recorded alongside the code.
//!
//! The run is deterministic (seed 42); wall-clock numbers of course vary
//! with the host, so compare ratios across commits made on the same box.

use mlp_bench::fig14_throughput::OVERDRIVE;
use mlp_bench::loads::rate_factor;
use mlp_bench::scale::Scale;
use mlp_cluster::ledger::query_stats::{self, LedgerQueryStats};
use mlp_engine::config::MixSpec;
use mlp_engine::experiment::Experiment;
use mlp_engine::runner::ExperimentResult;
use mlp_engine::PAPER_SCHEMES;
use mlp_model::RequestCatalog;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 42;

#[derive(Serialize)]
struct SchemeBaseline {
    scheme: String,
    wall_ms: f64,
    arrived: usize,
    completed: usize,
    violation_rate: f64,
    /// Ledger operations issued by this run (process-global counters,
    /// reset per scheme; schemes run sequentially).
    ledger: LedgerQueryStats,
}

#[derive(Serialize)]
struct Baseline {
    /// Schema/meaning version of this file.
    version: u32,
    scale: &'static str,
    seed: u64,
    high_ratio: f64,
    total_wall_ms: f64,
    schemes: Vec<SchemeBaseline>,
}

fn main() {
    let scale = Scale::small();
    let catalog = RequestCatalog::paper();
    let high_ratio = 0.5;
    let mix = MixSpec::HighRatio(high_ratio);
    let rate = scale.max_rate * rate_factor(mix, &catalog) * OVERDRIVE;

    eprintln!(
        "perf_baseline: fixed-seed ({SEED}) fig14-style run per scheme at --scale={} …",
        scale.label
    );

    query_stats::set_enabled(true);
    let total_start = Instant::now();
    let mut schemes = Vec::new();
    for scheme in PAPER_SCHEMES {
        let cfg = scale
            .config(scheme)
            .with_pattern(mlp_workload::WorkloadPattern::Constant)
            .with_mix(mix)
            .with_rate(rate)
            .with_seed(SEED);
        query_stats::reset();
        let start = Instant::now();
        let result: ExperimentResult =
            Experiment::from_config(cfg).catalog(&catalog).run().expect("baseline config is valid");
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let ledger = query_stats::snapshot();
        eprintln!(
            "  {:<12} {:>8.1} ms  ({} completed; {} earliest_fit, {} peak, {} writes)",
            result.config.scheme.display_name(),
            wall_ms,
            result.completed,
            ledger.earliest_fit,
            ledger.peak_usage,
            ledger.writes,
        );
        schemes.push(SchemeBaseline {
            scheme: result.config.scheme.display_name(),
            wall_ms,
            arrived: result.arrived,
            completed: result.completed,
            violation_rate: result.violation_rate,
            ledger,
        });
    }
    query_stats::set_enabled(false);
    let total_wall_ms = total_start.elapsed().as_secs_f64() * 1000.0;

    let baseline =
        Baseline { version: 1, scale: scale.label, seed: SEED, high_ratio, total_wall_ms, schemes };
    // Merge rather than overwrite: other bins (fig_scale) keep their own
    // top-level keys in the same committed snapshot.
    let serde_json::Value::Object(entries) =
        serde_json::to_value(&baseline).expect("baseline serializes")
    else {
        unreachable!("Baseline serializes to an object")
    };
    mlp_bench::merge_bench_json(entries);
}
