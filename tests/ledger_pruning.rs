//! Long-run proof that ledger pruning bounds retained timeline points.
//!
//! Every sampling tick the engine prunes each machine's ledger to the
//! trailing 2 s window and publishes the retained timeline lengths through
//! `MetricsRegistry` (the cluster-wide `ledger_timeline_max` high-water
//! mark and `ledger_timeline_total`).
//! Retention must scale with the *active window* (2 s past + 10 s planning
//! horizon), not with how long the simulation has been running — otherwise
//! ledger queries and memory would grow without bound on long runs.

use v_mlp::prelude::*;
use v_mlp::trace::metrics::names;
use v_mlp::workload::WorkloadPattern;

/// Runs v-MLP under a constant offered load for `horizon_s` simulated
/// seconds and returns (timeline high-water mark, final per-tick total).
fn run_constant_load(horizon_s: f64) -> (f64, f64) {
    let mut cfg = ExperimentConfig::smoke("vmlp").with_seed(7);
    cfg.pattern = WorkloadPattern::Constant;
    cfg.horizon_s = horizon_s;
    let (_, out) = Experiment::from_config(cfg).run_full().unwrap();

    let max = out
        .metrics
        .gauge(names::LEDGER_TIMELINE_MAX)
        .expect("engine publishes the timeline high-water mark");
    let total = out
        .metrics
        .gauge(names::LEDGER_TIMELINE_TOTAL)
        .expect("engine publishes the per-tick timeline total");
    assert!(max >= 0.0 && total >= 0.0);
    (max, total)
}

#[test]
fn pruning_bounds_retained_timeline_points() {
    // A reserving scheme under sustained load, run 3× longer: the retained
    // timeline must plateau at the active-window size, not keep growing.
    let (short_max, _) = run_constant_load(10.0);
    let (long_max, long_total) = run_constant_load(30.0);

    assert!(short_max > 0.0, "v-MLP reserves, so timelines must be non-empty");

    // Absolute sanity bound: the active window holds ≈12 s of reservations
    // (2 s retained past + 10 s planning horizon). At smoke load (40 req/s,
    // ≤ 8 nodes/request, 2 breakpoints/reservation, 8 machines) that is a
    // few hundred points per machine even before trims release tails early.
    assert!(
        long_max < 4_000.0,
        "per-machine timeline high-water mark {long_max} suggests pruning is not engaged"
    );

    // Scale-invariance: tripling the run length must not triple retention.
    // Both runs see the same offered load, so their plateaus should agree
    // to well within 2×.
    assert!(
        long_max <= short_max * 2.0,
        "timeline grew with run length ({short_max} @10s vs {long_max} @30s): pruning unbounded"
    );

    // The per-tick total is consistent with the per-machine high-water mark.
    assert!(long_total <= long_max * 8.0 + f64::EPSILON, "total exceeds machines × max");
}
