//! Randomized whole-simulation property tests: whatever the (bounded)
//! configuration, the engine never loses requests, never breaks causality,
//! and stays deterministic.

use proptest::prelude::*;
use v_mlp::prelude::*;

/// Test shorthand over the [`Experiment`] builder.
fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    Experiment::from_config(cfg.clone()).run().expect("test config is valid")
}

fn arb_scheme() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("fairsched"),
        Just("cursched"),
        Just("partprofile"),
        Just("fullprofile"),
        Just("vmlp"),
    ]
}

fn arb_pattern() -> impl Strategy<Value = WorkloadPattern> {
    prop_oneof![
        Just(WorkloadPattern::L1Pulse),
        Just(WorkloadPattern::L2Fluctuating),
        Just(WorkloadPattern::L3PeriodicWide),
        Just(WorkloadPattern::Constant),
    ]
}

fn arb_mix() -> impl Strategy<Value = MixSpec> {
    prop_oneof![
        Just(MixSpec::Balanced),
        Just(MixSpec::SingleClass(VolatilityClass::Low)),
        Just(MixSpec::SingleClass(VolatilityClass::Mid)),
        Just(MixSpec::SingleClass(VolatilityClass::High)),
        (0.0f64..=1.0).prop_map(MixSpec::HighRatio),
    ]
}

fn arb_config() -> impl Strategy<Value = ExperimentConfig> {
    (
        arb_scheme(),
        arb_pattern(),
        arb_mix(),
        2usize..10,   // machines
        5.0f64..40.0, // peak rate
        2.0f64..6.0,  // horizon seconds
        any::<u64>(), // seed
    )
        .prop_map(|(scheme, pattern, mix, machines, rate, horizon, seed)| {
            ExperimentConfig {
                machines,
                max_rate: rate,
                horizon_s: horizon,
                pattern,
                mix,
                warmup_cases: 10,
                ..ExperimentConfig::paper_default(scheme)
            }
            .with_seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Conservation: arrived = completed + unfinished, and metrics stay in
    /// their domains — for any scheme, pattern, mix, and seed.
    #[test]
    fn no_configuration_breaks_accounting(cfg in arb_config()) {
        let r = run_experiment(&cfg);
        prop_assert!(r.completed + r.unfinished >= r.arrived,
            "{}: {} + {} < {}", cfg.scheme.display_name(), r.completed, r.unfinished, r.arrived);
        prop_assert!((0.0..=1.0).contains(&r.violation_rate));
        prop_assert!((0.0..=1.0).contains(&r.mean_utilization));
        prop_assert!(r.latency_ms[0] <= r.latency_ms[1] + 1e-9);
        prop_assert!(r.latency_ms[1] <= r.latency_ms[2] + 1e-9);
        prop_assert!(r.completed_in_horizon <= r.completed);
        for v in r.violation_by_class {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    /// Determinism under arbitrary configurations.
    #[test]
    fn any_configuration_is_reproducible(cfg in arb_config()) {
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.latency_ms, b.latency_ms);
        prop_assert_eq!(a.healing, b.healing);
    }
}

fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        0u32..4,       // machine crashes
        0u64..4_000,   // storm start ms
        500u64..4_000, // storm duration ms
        200u64..2_000, // outage ms
        0.0f64..0.4,   // transient failure probability
        1.0f64..6.0,   // degrade factor
    )
        .prop_map(|(crashes, start, dur, outage, prob, degrade)| FaultConfig {
            enabled: true,
            machine_crashes: crashes,
            storm_start_ms: start,
            storm_duration_ms: dur,
            outage_ms: outage,
            transient_fail_prob: prob,
            degrade_start_ms: start,
            degrade_duration_ms: dur,
            degrade_factor: degrade,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Conservation survives arbitrary fault schedules: crashes, transient
    /// failures, and degradation may abandon requests but never lose them.
    #[test]
    fn fault_injection_preserves_accounting(cfg in arb_config(), faults in arb_faults()) {
        let cfg = cfg.with_faults(faults);
        let r = run_experiment(&cfg);
        prop_assert!(r.completed + r.unfinished >= r.arrived,
            "{}: {} + {} < {}", cfg.scheme.display_name(), r.completed, r.unfinished, r.arrived);
        prop_assert!(r.abandoned <= r.unfinished,
            "abandoned {} > unfinished {}", r.abandoned, r.unfinished);
        prop_assert!((0.0..=1.0).contains(&r.violation_rate));
        prop_assert!(r.mttr_ms >= 0.0);
        prop_assert!(r.latency_ms[0] <= r.latency_ms[2] + 1e-9);
    }

    /// Fault storms replay bit-identically under the same seed.
    #[test]
    fn fault_injection_is_deterministic(cfg in arb_config(), faults in arb_faults()) {
        let cfg = cfg.with_faults(faults);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.latency_ms, b.latency_ms);
        prop_assert_eq!(a.abandoned, b.abandoned);
        prop_assert_eq!(a.node_failures, b.node_failures);
        prop_assert_eq!(a.machine_crashes, b.machine_crashes);
        prop_assert_eq!(a.crash_replans, b.crash_replans);
        prop_assert_eq!(a.mttr_ms, b.mttr_ms);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The heterogeneous-fleet extension holds the same invariants.
    #[test]
    fn two_tier_fleets_hold_invariants(
        scheme in arb_scheme(),
        small_count in 1usize..4,
        scale in 0.4f64..0.9,
        seed: u64,
    ) {
        let cfg = ExperimentConfig {
            machines: 8,
            max_rate: 20.0,
            horizon_s: 4.0,
            warmup_cases: 10,
            ..ExperimentConfig::paper_default(scheme)
        }
        .with_seed(seed)
        .with_small_tier(small_count, scale);
        let r = run_experiment(&cfg);
        prop_assert!(r.completed + r.unfinished >= r.arrived);
        prop_assert!((0.0..=1.0).contains(&r.mean_utilization));
    }
}
