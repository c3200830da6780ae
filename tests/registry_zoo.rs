//! Acceptance tests for the scheduler registry and the search contender:
//! every Table VI name is its own display name, `SearchSched` is
//! deterministic from the experiment seed and auditor-clean, and the
//! committed `sweeps/*.json` defaults reproduce the historically
//! hardcoded scheme lists of the figure binaries exactly.

use mlp_bench::{fig14_throughput, fig_faults, fig_overload, fig_soak, fig_zoo};
use v_mlp::prelude::*;

fn repo_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The Table VI names the figures print are the registry's display names
/// for the specs those same names parse to.
#[test]
fn display_names_round_trip_through_the_registry() {
    for scheme in PAPER_SCHEMES {
        let spec = SchemeSpec::parse(scheme).expect("Table VI names parse as specs");
        assert_eq!(spec.display_name(), scheme);
    }
    assert_eq!(SchemeSpec::parse("vmlp:healing=off").unwrap().display_name(), "v-MLP[healing=off]");
    assert_eq!(SchemeSpec::named("searchsched").display_name(), "SearchSched");
}

/// SearchSched is deterministic from the experiment seed: two identical
/// runs serialize byte-identically, audit trail included.
#[test]
fn searchsched_is_deterministic_from_the_seed() {
    let cfg = || {
        ExperimentConfig::smoke(SchemeSpec::named("searchsched")).with_seed(2022).with_audit(true)
    };
    let catalog = RequestCatalog::paper();
    let (ra, outa) = Experiment::from_config(cfg()).catalog(&catalog).run_full().unwrap();
    let (rb, outb) = Experiment::from_config(cfg()).catalog(&catalog).run_full().unwrap();
    assert_eq!(
        serde_json::to_string(&ra).unwrap(),
        serde_json::to_string(&rb).unwrap(),
        "same-seed SearchSched results diverged"
    );
    assert_eq!(outa.audit.to_jsonl(), outb.audit.to_jsonl(), "audit trails diverged");
    assert!(ra.completed > 0, "the contender must actually schedule");
}

/// SearchSched stays auditor-clean on the plain smoke run and under a
/// fault storm (the fig14/fig_faults acceptance surface at smoke size).
#[test]
fn searchsched_is_auditor_clean_with_and_without_faults() {
    let storm = FaultConfig {
        enabled: true,
        machine_crashes: 2,
        storm_start_ms: 2_000,
        storm_duration_ms: 4_000,
        outage_ms: 1_500,
        transient_fail_prob: 0.05,
        degrade_start_ms: 2_500,
        degrade_duration_ms: 2_000,
        degrade_factor: 4.0,
    };
    for faults in [FaultConfig::disabled(), storm] {
        let stormy = faults.is_active();
        let cfg = ExperimentConfig::smoke(SchemeSpec::named("searchsched"))
            .with_seed(11)
            .with_faults(faults)
            .with_auditor(true);
        let (r, out) =
            Experiment::from_config(cfg).catalog(&RequestCatalog::paper()).run_full().unwrap();
        assert_eq!(
            r.invariant_violations, 0,
            "faults={stormy}: auditor flagged violations; report: {:?}",
            out.invariant_report
        );
        assert!(r.completed > 0, "faults={stormy}: nothing completed");
        if stormy {
            assert!(r.machine_crashes > 0, "the storm must actually land");
        }
    }
}

/// Unknown names and malformed params surface as `InvalidConfig` (exit
/// code 2) naming the offender and the registered schemes — through the
/// `Experiment` builder, not just the registry.
#[test]
fn bad_specs_are_typed_config_errors() {
    let bad_spec = |spec: &str| match Experiment::from_config(ExperimentConfig::smoke("vmlp"))
        .scheme_spec(spec)
    {
        Ok(_) => panic!("spec `{spec}` should have been rejected"),
        Err(e) => e,
    };
    let err = bad_spec("nosuchsched");
    assert_eq!(err.exit_code(), 2);
    let msg = err.to_string();
    assert!(msg.contains("nosuchsched") && msg.contains("registered schemes"), "{msg}");

    let err = bad_spec("vmlp:healing=sideways");
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("healing"), "{err}");
}

/// Malformed spec strings fail at parse with a message naming the spec —
/// empty names, empty tokens, empty keys, and duplicate keys are all
/// rejected rather than silently normalized (a duplicate key used to
/// last-writer-win through the params map).
#[test]
fn malformed_spec_shapes_are_parse_errors() {
    for spec in ["", "  ", ":iters=4", "vmlp:", "vmlp:a=1,,b=2", "vmlp:=3", "vmlp: =3"] {
        let err = SchemeSpec::parse(spec).expect_err(spec);
        assert!(err.contains(&format!("`{spec}`")), "error should name the spec: {err}");
    }
    let err = SchemeSpec::parse("vmlp:healing=off,healing=on").unwrap_err();
    assert!(err.contains("twice") && err.contains("healing"), "{err}");
    // Same key through different value forms is still a duplicate.
    let err = SchemeSpec::parse("searchsched:iters,iters=4").unwrap_err();
    assert!(err.contains("twice"), "{err}");
}

/// Unknown params surface as `InvalidConfig` (exit 2) naming the key and
/// listing the scheduler's known params, through the Experiment builder —
/// a typo and a knob that no longer exists (the sort-based round's
/// selector) alike.
#[test]
fn unknown_params_are_typed_config_errors() {
    for (spec, key) in [
        ("vmlp:warpdrive=9", "warpdrive"),
        ("vmlp:unindexed_reorder=true", "unindexed_reorder"),
        ("vmlp:heal_fanout=3", "heal_fanout"),
    ] {
        let err = match Experiment::from_config(ExperimentConfig::smoke("vmlp")).scheme_spec(spec) {
            Ok(_) => panic!("{spec}: unknown param must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, Error::InvalidConfig(_)), "{spec}: {err:?}");
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains(&format!("`{key}`")), "{msg}");
        assert!(msg.contains("known params") && msg.contains("queue_switch"), "{msg}");
    }
}

/// Empty and truncated sweep files are `InvalidConfig` (exit 2), never a
/// panic and never a silently empty sweep: a 0-byte file, a no-scheme
/// document, and a half-written document all fail loudly.
#[test]
fn empty_sweep_files_are_typed_config_errors() {
    let dir = std::env::temp_dir().join(format!("vmlp-sweep-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents) in
        [("zero.json", ""), ("none.json", r#"{"schemes": []}"#), ("torn.json", r#"{"schem"#)]
    {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = SweepConfig::load(&path).and_then(|s| s.validate().map(|()| s)).expect_err(name);
        assert_eq!(err.exit_code(), 2, "{name}: {err}");
        let msg = err.to_string();
        assert_eq!(msg.matches("invalid experiment config").count(), 1, "{name}: {msg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed sweep files reproduce the figure binaries' historically
/// hardcoded scheme lists exactly — the config-driven path defaults to
/// today's figures.
#[test]
fn committed_sweeps_match_the_default_sweeps() {
    for (file, default) in [
        ("sweeps/paper.json", fig14_throughput::default_sweep()),
        ("sweeps/faults.json", fig_faults::default_sweep()),
        ("sweeps/soak.json", fig_soak::default_sweep()),
        ("sweeps/overload.json", fig_overload::default_sweep()),
        ("sweeps/zoo.json", fig_zoo::default_sweep()),
    ] {
        let committed = SweepConfig::load(&repo_path(file)).expect("committed sweep loads");
        committed.validate().expect("committed sweep validates");
        assert_eq!(committed, default, "{file} drifted from the binary's default sweep");
    }
}

/// The zoo sweep runs every registered scheme through the steady cell at
/// tiny scale with the auditor on and zero violations — the registry's
/// end-to-end proving ground (CI runs the same gate at small scale via
/// the `fig_zoo` binary).
#[test]
fn zoo_smoke_is_auditor_clean_for_every_registered_scheme() {
    let scale = mlp_bench::Scale::tiny();
    for spec in fig_zoo::default_sweep().schemes {
        let cfg = fig_zoo::steady_config(&scale, spec.clone(), 7);
        let r = Experiment::from_config(cfg).run().expect("zoo config is valid");
        assert_eq!(
            r.invariant_violations,
            0,
            "{}: auditor flagged violations",
            spec.display_name()
        );
        assert!(r.completed > 0, "{}: nothing completed", spec.display_name());
    }
}
