//! Sharding equivalence and safety properties (ISSUE 4 acceptance):
//!
//! * `shards = 1` is byte-identical to the unsharded default — for every
//!   scheme and seed, on every reported metric. Sharding is pure overlay
//!   structure; a single shard scans machines in exactly the old order.
//! * `shards > 1` never loses requests, never violates an
//!   invariant the auditor checks (including the shard-partition check),
//!   and stays bit-reproducible — including under a crash storm that
//!   forces the sharded round's cross-shard overflow pass.
//! * The experiment-sweep pool returns results in job order, whatever
//!   order its threads finish in.

use proptest::prelude::*;
use v_mlp::prelude::*;
use v_mlp::trace::metrics::names;

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, label: &str) {
    assert_eq!(a.arrived, b.arrived, "{label}: arrived");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.completed_in_horizon, b.completed_in_horizon, "{label}: in-horizon");
    assert_eq!(a.unfinished, b.unfinished, "{label}: unfinished");
    assert_eq!(a.latency_ms, b.latency_ms, "{label}: latency percentiles");
    assert_eq!(a.p99_by_class, b.p99_by_class, "{label}: per-class p99");
    assert_eq!(a.mean_latency_ms, b.mean_latency_ms, "{label}: mean latency");
    assert_eq!(a.violation_rate, b.violation_rate, "{label}: violation rate");
    assert_eq!(a.violation_by_class, b.violation_by_class, "{label}: class violations");
    assert_eq!(a.mean_utilization, b.mean_utilization, "{label}: utilization");
    assert_eq!(a.utilization.values(), b.utilization.values(), "{label}: utilization series");
    assert_eq!(a.healing, b.healing, "{label}: healing counters");
    assert_eq!(a.late_fraction, b.late_fraction, "{label}: late fraction");
    assert_eq!(a.capped_fraction, b.capped_fraction, "{label}: capped fraction");
    assert_eq!(a.mean_breakdown, b.mean_breakdown, "{label}: latency attribution");
    assert_eq!(a.shard_overflows, b.shard_overflows, "{label}: overflows");
}

#[test]
fn one_shard_is_byte_identical_to_unsharded() {
    // The load-bearing property of the redesign: asking for a single shard
    // must reproduce the unsharded scan order exactly, so every existing
    // figure stays byte-identical.
    for scheme in PAPER_SCHEMES {
        for seed in [7u64, 2022] {
            let base = ExperimentConfig::smoke(scheme).with_seed(seed);
            let unsharded = Experiment::from_config(base.clone()).run().unwrap();
            let one_shard = Experiment::from_config(base.with_shards(1)).run().unwrap();
            assert_eq!(one_shard.shard_overflows, 0);
            assert_results_identical(&unsharded, &one_shard, &format!("{scheme} seed={seed}"));
        }
    }
}

#[test]
fn sharded_runs_hold_invariants() {
    // Sharded scheduling must stay conservative: every request accounted
    // for, zero auditor violations (the auditor re-checks the shard
    // partition every sampling tick).
    for scheme in PAPER_SCHEMES {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(11).with_shards(3).with_auditor(true);
        let catalog = RequestCatalog::paper();
        let (r, out) = Experiment::from_config(cfg).catalog(&catalog).run_full().unwrap();
        assert_eq!(
            r.invariant_violations, 0,
            "{scheme}: auditor flagged violations; report: {:?}",
            out.invariant_report
        );
        assert!(out.invariant_report.is_none(), "{scheme}");
        assert!(
            r.completed + r.unfinished >= r.arrived,
            "{scheme}: lost requests ({} + {} < {})",
            r.completed,
            r.unfinished,
            r.arrived
        );
        assert!(r.completed > 0, "{scheme}: nothing completed");
    }
}

#[test]
fn sharded_runs_publish_per_shard_peak_utilization() {
    // fig_scale reads one `shard_utilization_peak_s<i>` high-water mark per
    // shard into BENCH_sim.json; every shard of a loaded run must carry one
    // in (0, 1].
    let cfg = ExperimentConfig::smoke("vmlp").with_seed(5).with_shards(4);
    let (_, out) = Experiment::from_config(cfg).run_full().unwrap();
    for s in 0..4 {
        let peak = out.metrics.gauge(&names::shard_utilization_peak(s));
        assert!(peak.is_some_and(|p| p > 0.0 && p <= 1.0), "shard {s}: peak {peak:?}");
    }
}

#[test]
fn sharded_runs_are_bit_reproducible() {
    let cfg = ExperimentConfig::smoke("vmlp").with_seed(5).with_shards(4);
    let a = Experiment::from_config(cfg.clone()).run().unwrap();
    let b = Experiment::from_config(cfg).run().unwrap();
    assert_results_identical(&a, &b, "shards=4");
}

#[test]
fn unavailable_home_shards_overflow_and_still_account() {
    // One machine per shard and a crash storm: every request homed to a
    // downed machine's shard has no feasible window there, so cross-shard
    // overflow must engage — and conservation still holds.
    let storm = FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 1_000,
        storm_duration_ms: 2_000,
        outage_ms: 4_000,
        transient_fail_prob: 0.0,
        degrade_start_ms: 0,
        degrade_duration_ms: 0,
        degrade_factor: 1.0,
    };
    let cfg = ExperimentConfig {
        machines: 8,
        max_rate: 30.0,
        horizon_s: 6.0,
        warmup_cases: 10,
        ..ExperimentConfig::paper_default("vmlp")
    }
    .with_seed(31)
    .with_shards(8)
    .with_faults(storm)
    .with_auditor(true);
    let r = Experiment::from_config(cfg).run().unwrap();
    assert!(r.machine_crashes > 0, "storm must actually down machines");
    assert!(r.shard_overflows > 0, "requests homed to downed shards must spill");
    assert_eq!(r.invariant_violations, 0);
    assert!(r.completed + r.unfinished >= r.arrived, "lost requests under overflow");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// One machine per shard under a crash storm: requests homed to a
    /// downed machine's shard miss their home-shard pass and ride to the
    /// overflow pass. Randomize the seed (a different overflow set each
    /// time) and assert the run is clean and identical to its same-seed
    /// twin.
    #[test]
    fn crash_storm_overflow_is_reproducible_and_clean(seed in 1u64..500) {
        let storm = FaultConfig {
            enabled: true,
            machine_crashes: 2,
            storm_start_ms: 1_000,
            storm_duration_ms: 2_000,
            outage_ms: 4_000,
            transient_fail_prob: 0.0,
            degrade_start_ms: 0,
            degrade_duration_ms: 0,
            degrade_factor: 1.0,
        };
        let cfg = ExperimentConfig {
            machines: 8,
            max_rate: 30.0,
            horizon_s: 6.0,
            warmup_cases: 10,
            ..ExperimentConfig::paper_default("vmlp")
        }
        .with_seed(seed)
        .with_shards(8)
        .with_faults(storm)
        .with_auditor(true);
        let a = Experiment::from_config(cfg.clone()).run().unwrap();
        let b = Experiment::from_config(cfg).run().unwrap();
        prop_assert_eq!(a.machine_crashes, b.machine_crashes);
        prop_assert_eq!(a.invariant_violations, 0);
        assert_results_identical(&a, &b, &format!("seed={seed}"));
    }

    /// The pool contract under adversarial completion order: jobs that
    /// finish in a scrambled order (random per-job sleeps) still come
    /// back in job-index order at any worker count.
    #[test]
    fn scatter_returns_index_order_under_scrambled_completions(
        delays in proptest::collection::vec(0u64..3, 16),
        workers in 2usize..=4,
    ) {
        let pool = ShardPool::new(workers);
        let jobs: Vec<_> = delays
            .iter()
            .map(|&d| {
                move |idx: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(d));
                    idx
                }
            })
            .collect();
        let out = pool.scatter(jobs);
        prop_assert_eq!(out, (0..delays.len()).collect::<Vec<_>>());
    }
}
