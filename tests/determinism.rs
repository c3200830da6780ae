//! Reproducibility guarantees: identical seeds give bit-identical results;
//! different seeds and schemes face the identical arrival stream.

use v_mlp::prelude::*;
use v_mlp::sim::SimRng;
use v_mlp::workload::generate_stream;

/// Test shorthand over the [`Experiment`] builder.
fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    Experiment::from_config(cfg.clone()).run().expect("test config is valid")
}

#[test]
fn experiments_are_bit_reproducible() {
    for scheme in ["fairsched", "vmlp"] {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(42);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
    }
}

#[test]
fn different_seeds_give_different_streams() {
    let cfg1 = ExperimentConfig::smoke("vmlp").with_seed(1);
    let cfg2 = ExperimentConfig::smoke("vmlp").with_seed(2);
    let a = run_experiment(&cfg1);
    let b = run_experiment(&cfg2);
    assert_ne!(a.arrived, b.arrived, "distinct seeds should differ");
}

#[test]
fn all_schemes_face_the_same_arrival_stream() {
    // The arrival stream depends only on the seed/pattern/mix — never on
    // the scheme — so scheme comparisons are paired (Section IV).
    let catalog = RequestCatalog::paper();
    let mix = catalog.balanced_mix();
    let s1 = generate_stream(
        WorkloadPattern::L2Fluctuating,
        100.0,
        10.0,
        &mix,
        &mut SimRng::new(9).fork(0),
    );
    let s2 = generate_stream(
        WorkloadPattern::L2Fluctuating,
        100.0,
        10.0,
        &mix,
        &mut SimRng::new(9).fork(0),
    );
    assert_eq!(s1, s2);
    // And the runner's per-scheme results report identical arrivals.
    let a = run_experiment(&ExperimentConfig::smoke("fairsched").with_seed(5));
    let b = run_experiment(&ExperimentConfig::smoke("fullprofile").with_seed(5));
    assert_eq!(a.arrived, b.arrived);
}

#[test]
fn disabled_faults_leave_runs_byte_identical() {
    // A disabled FaultConfig must be inert no matter what junk the storm
    // fields carry: every fault code path is gated on `is_active()`, so the
    // run must be byte-identical to the plain config's.
    let junk = FaultConfig {
        enabled: false,
        machine_crashes: 7,
        storm_start_ms: 1,
        storm_duration_ms: 99_999,
        outage_ms: 12_345,
        transient_fail_prob: 0.9,
        degrade_start_ms: 0,
        degrade_duration_ms: 99_999,
        degrade_factor: 10.0,
    };
    for scheme in ["vmlp", "cursched"] {
        let plain = ExperimentConfig::smoke(scheme).with_seed(77);
        let gated = plain.clone().with_faults(junk);
        let a = run_experiment(&plain);
        let b = run_experiment(&gated);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(b.abandoned, 0);
        assert_eq!(b.node_failures, 0);
        assert_eq!(b.machine_crashes, 0);
    }
}

#[test]
fn disabled_overload_leaves_runs_byte_identical() {
    // A disabled OverloadConfig must be inert no matter what junk the
    // resilience, surge and queue-cap fields carry: the runtime (and its RNG fork) is only
    // constructed when `enabled`, so the run must be byte-identical to
    // the plain config's.
    let junk = OverloadConfig {
        enabled: false,
        resilience: true,
        surge_multiplier: 9.0,
        surge_start_s: 0.1,
        surge_duration_s: 99.0,
        surge_ramp_s: 1.0,
        max_queue_depth: 1,
    };
    for scheme in ["vmlp", "cursched"] {
        let plain = ExperimentConfig::smoke(scheme).with_seed(77);
        let gated = plain.clone().with_overload(junk);
        let a = run_experiment(&plain);
        let b = run_experiment(&gated);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.mean_utilization, b.mean_utilization);
        assert_eq!(a.healing, b.healing);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(b.shed_requests, 0);
        assert_eq!(b.branch_sheds, 0);
        assert_eq!(b.retries_denied, 0);
        assert_eq!(b.breaker_opens, 0);
        assert_eq!(b.peak_pressure, 0.0);
    }
}

#[test]
fn overload_runs_are_bit_reproducible() {
    // The resilience stack (admission gate, token bucket, breakers,
    // brownout, jittered backoff from the dedicated RNG fork) must be
    // fully deterministic in the seed.
    let overload =
        OverloadConfig { max_queue_depth: 16, ..OverloadConfig::flash_crowd(4.0, 0.5, 4.0) };
    for scheme in ["vmlp", "cursched"] {
        let cfg = ExperimentConfig::smoke(scheme)
            .with_pattern(WorkloadPattern::Constant)
            .with_seed(13)
            .with_overload(overload);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.arrived, b.arrived);
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.branch_sheds, b.branch_sheds);
        assert_eq!(a.retries_denied, b.retries_denied);
        assert_eq!(a.breaker_opens, b.breaker_opens);
        assert_eq!(a.peak_pressure, b.peak_pressure);
        // The surge must actually overload the gate at these settings.
        assert!(a.shed_requests > 0, "{scheme}: surge never tripped admission");
        assert_eq!(a.arrived, a.completed + a.unfinished, "{scheme}");
    }
}

#[test]
fn fault_storms_are_bit_reproducible() {
    let storm = FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 1_500,
        storm_duration_ms: 3_000,
        outage_ms: 1_000,
        transient_fail_prob: 0.05,
        degrade_start_ms: 2_000,
        degrade_duration_ms: 2_000,
        degrade_factor: 3.0,
    };
    for scheme in ["vmlp", "cursched"] {
        let cfg = ExperimentConfig::smoke(scheme).with_seed(13).with_faults(storm);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.completed, b.completed, "{scheme}");
        assert_eq!(a.latency_ms, b.latency_ms);
        assert_eq!(a.violation_rate, b.violation_rate);
        assert_eq!(a.utilization.values(), b.utilization.values());
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.node_failures, b.node_failures);
        assert_eq!(a.fault_retries, b.fault_retries);
        assert_eq!(a.machine_crashes, b.machine_crashes);
        assert_eq!(a.crash_replans, b.crash_replans);
        assert_eq!(a.mttr_ms, b.mttr_ms);
        // The storm must actually do something at these settings.
        assert!(a.machine_crashes > 0, "{scheme}: storm injected no crashes");
        assert!(a.node_failures > 0, "{scheme}: storm killed no nodes");
    }
}

#[test]
fn parallel_sweep_is_deterministic() {
    use v_mlp::engine::parallel::run_all;
    let configs: Vec<ExperimentConfig> =
        PAPER_SCHEMES.into_iter().map(|s| ExperimentConfig::smoke(s).with_seed(3)).collect();
    let r1 = run_all(&configs, 2);
    let r2 = run_all(&configs, 5); // different worker count, same results
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency_ms, b.latency_ms);
    }
}

#[test]
fn vmlp_schedules_are_pinned() {
    // The schedule-level pin for the v-MLP admission round: the serialized
    // result and decision trail of fixed-seed runs, digested, so any change
    // to admission order, Δt budgets, deferrals or their audit records
    // moves a digest. The constants were recorded on the commit that still
    // had the sort-based round and the sort-based Δt path as run-time
    // options; both matched these runs record for record, and the
    // `reorder_index` and `profile` unit suites keep checking each pop and
    // each estimate against those references. Covered: the sequential round
    // (shards = 1, and the head-of-line ablation at any shard count), the
    // sharded round (shards = 4) and the FCFS pop path — each at the smoke
    // rate, where every request is admitted on its first try, and at ten
    // times it, where the trail is mostly `Defer` and `Reorder` records
    // (queue switches, home-shard misses, the overflow pass and the
    // per-round failure cap all fire). The four Table VI baselines are
    // pinned by name at the smoke rate, so what each paper name builds is
    // held without a second way to construct it; the two deadline-ordered
    // ones, and SearchSched (FullProfile's admission plus its seeded
    // refinement), are pinned at ten times it too, where their `Defer`
    // records and per-round failure cap fire. The sharded round now
    // runs in place on the kernel thread; that change left all twenty
    // digests as they were. Removing the inert `workers` config field then
    // moved each one only by dropping `"workers":1,` from the serialized
    // result: every constant equalled the previous one recomputed on that
    // stripped JSON. Turning the shard policy, the three kernel timings
    // and twelve overload tunings into constants left every digest as it
    // was while the fields still existed; deleting the fields moved each
    // one only by dropping those sixteen members from the serialized
    // config, and every constant below equals the previous one recomputed
    // with them removed.
    use std::hash::Hasher;
    use v_mlp::sim::FastHasher;
    const PINS: [(&str, usize, f64, u64); 28] = [
        ("vmlp", 1, 40.0, 0xf404_a2c2_e4b5_928a),
        ("vmlp", 4, 40.0, 0x73e5_78aa_31b0_8256),
        ("vmlp:reorder=off", 1, 40.0, 0xa59b_6b05_0e82_41ab),
        ("vmlp:reorder=off", 4, 40.0, 0x6a1d_06ad_4502_55a9),
        ("vmlp:queue_switch=off", 1, 40.0, 0x2cbe_7b92_c7eb_8903),
        ("vmlp:queue_switch=off", 4, 40.0, 0x3f52_6916_1819_5859),
        ("vmlp", 1, 400.0, 0xe6df_f6ea_91c6_a914),
        ("vmlp", 4, 400.0, 0xc2d1_e74c_2a3c_ef8b),
        ("vmlp:reorder=off", 1, 400.0, 0xb154_a24f_8840_df1d),
        ("vmlp:reorder=off", 4, 400.0, 0x5ee7_1df2_a20d_c417),
        ("vmlp:queue_switch=off", 1, 400.0, 0x039d_9e88_5859_45d5),
        ("vmlp:queue_switch=off", 4, 400.0, 0xbe96_9b2b_b529_516b),
        ("FairSched", 1, 40.0, 0x1f58_ffc2_53da_5e4b),
        ("FairSched", 4, 40.0, 0xe238_9fab_b5df_a6a8),
        ("CurSched", 1, 40.0, 0xdffd_bd2f_b1db_b089),
        ("CurSched", 4, 40.0, 0x227b_8029_ce2b_b237),
        ("PartProfile", 1, 40.0, 0xa698_4d3c_7cb8_2172),
        ("PartProfile", 4, 40.0, 0x8313_3f6e_316f_423f),
        ("FullProfile", 1, 40.0, 0x4e04_4bd7_6469_ddd9),
        ("FullProfile", 4, 40.0, 0xcf69_c022_3fbe_185e),
        ("PartProfile", 1, 400.0, 0x164d_222a_1b0a_a50e),
        ("PartProfile", 4, 400.0, 0xd320_df38_8a29_fb2e),
        ("FullProfile", 1, 400.0, 0x279a_5c10_9386_a3b3),
        ("FullProfile", 4, 400.0, 0xed9a_5590_0d68_3484),
        ("searchsched", 1, 40.0, 0x9a2c_6969_8fcb_6a7a),
        ("searchsched", 4, 40.0, 0x5aea_f07b_b6fe_bad8),
        ("searchsched", 1, 400.0, 0x53a8_5f1d_5efc_197f),
        ("searchsched", 4, 400.0, 0x7b7c_f254_ae7c_868a),
    ];
    for (spec, shards, rate, pinned) in PINS {
        let cfg = ExperimentConfig::smoke("vmlp").with_seed(17).with_rate(rate).with_shards(shards);
        let (result, out) = Experiment::from_config(cfg)
            .scheme_spec(spec)
            .expect("spec parses")
            .audit(true)
            .run_full()
            .expect("pinned config runs");
        let trail = out.audit.decisions();
        let mut h = FastHasher::default();
        h.write(serde_json::to_string(&result).expect("result serializes").as_bytes());
        h.write(serde_json::to_string(&trail).expect("trail serializes").as_bytes());
        let got = h.finish();
        assert_eq!(got, pinned, "{spec} shards={shards} rate={rate}: digest {got:#018x}");
    }
}
