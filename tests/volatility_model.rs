//! Cross-crate checks of the volatility pipeline: catalog → V_r → bands →
//! Δt estimation against *live* profiles produced by an actual run.

use v_mlp::core::organizer::{DtPolicy, OrganizerPolicy};
use v_mlp::core::volatility::{Volatility, VolatilityBand};
use v_mlp::engine::profiling::warm_profiles;
use v_mlp::model::{RequestCatalog, VolatilityClass};
use v_mlp::net::NetworkModel;
use v_mlp::prelude::*;
use v_mlp::sched::PlanEnv;
use v_mlp::sim::{SimRng, SimTime};

#[test]
fn table5_bands_survive_the_full_pipeline() {
    let catalog = RequestCatalog::paper();
    let expected = [
        ("compose-post", VolatilityBand::High),
        ("getCheapest", VolatilityBand::High),
        ("basicSearch", VolatilityBand::Medium),
        ("read-home-timeline", VolatilityBand::Low),
        ("read-user-timeline", VolatilityBand::Low),
    ];
    for (name, band) in expected {
        let rt = catalog.request_by_name(name).unwrap();
        assert_eq!(Volatility::of_request(rt, &catalog).band(), band, "{name}");
        // Denormalized class agrees with the band.
        assert_eq!(VolatilityBand::from(rt.class()), band, "{name}");
    }
}

#[test]
fn class_and_band_boundaries_agree() {
    for vr in [0.0, 0.1, 0.3, 0.300001, 0.5, 0.699999, 0.7, 0.9, 1.0] {
        let band = Volatility::new(vr).band();
        let class = VolatilityClass::from_vr(vr);
        assert_eq!(VolatilityBand::from(class), band, "vr = {vr}");
    }
}

#[test]
fn delta_t_is_monotone_in_volatility_on_live_profiles() {
    let catalog = RequestCatalog::paper();
    let profiles = warm_profiles(&catalog, 300, &mut SimRng::new(3));
    let net = NetworkModel::paper_default();
    let ctx = PlanEnv { now: SimTime::ZERO, profiles: &profiles, catalog: &catalog, net: &net };
    // For every service with meaningful variance, the high-band budget must
    // dominate the medium-band budget, which must dominate the fastest
    // historical observation.
    for svc in catalog.services.services() {
        // Some catalog templates (e.g. ts-route-service) are not invoked
        // by any Table V request and thus have no profile history.
        let Some(fastest) = profiles.min_exec_ms(svc.id) else { continue };
        let mid = OrganizerPolicy::new(Volatility::new(0.5)).delta_t_ms(svc, 1.0, &ctx);
        let high = OrganizerPolicy::new(Volatility::new(0.8)).delta_t_ms(svc, 1.0, &ctx);
        assert!(high >= mid, "{}: high-band Δt {high:.1} < medium-band {mid:.1}", svc.name);
        assert!(high >= fastest, "{}", svc.name);
    }
}

#[test]
fn dt_policies_order_correctly_on_live_profiles() {
    let catalog = RequestCatalog::paper();
    let profiles = warm_profiles(&catalog, 300, &mut SimRng::new(4));
    let net = NetworkModel::paper_default();
    let ctx = PlanEnv { now: SimTime::ZERO, profiles: &profiles, catalog: &catalog, net: &net };
    let svc = catalog.services.by_name("ts-order-service").unwrap(); // High I
    let mk = |policy| OrganizerPolicy {
        dt_policy: policy,
        ..OrganizerPolicy::new(Volatility::new(0.8))
    };
    let mean = mk(DtPolicy::AlwaysMean).delta_t_ms(svc, 1.0, &ctx);
    let p99 = mk(DtPolicy::AlwaysP99).delta_t_ms(svc, 1.0, &ctx);
    let banded = mk(DtPolicy::Banded).delta_t_ms(svc, 1.0, &ctx);
    assert!(mean < p99, "mean {mean:.1} vs p99 {p99:.1}");
    // High-band banded ≈ p99 for a high-volatility request.
    assert!((banded - p99).abs() / p99 < 0.05, "banded {banded:.1} vs p99 {p99:.1}");
}

#[test]
fn run_enriches_profiles_with_contended_cases() {
    // After a real run, the profile store contains *observed* execution
    // cases whose spread exceeds the warm-up's abundant-resource spread —
    // the feedback loop of Fig 8.
    let cfg = ExperimentConfig::smoke("cursched").with_seed(12);
    let catalog = RequestCatalog::paper();
    let warm = warm_profiles(&catalog, cfg.warmup_cases, &mut SimRng::new(cfg.seed).fork(2));
    let warm_count = warm.case_count(v_mlp::model::benchmarks::sn::NGINX);
    let (_, out) = Experiment::from_config(cfg).catalog(&catalog).run_full().unwrap();
    let after = out.profiles.case_count(v_mlp::model::benchmarks::sn::NGINX);
    assert!(after > warm_count, "run should append execution cases: {after} vs {warm_count}");
}

#[test]
fn full_run_exports_valid_zipkin_traces() {
    use v_mlp::trace::zipkin;
    let catalog = RequestCatalog::paper();
    let cfg = ExperimentConfig::smoke("vmlp").with_seed(21);
    let (result, raw) =
        Experiment::from_config(cfg).catalog(&catalog).run_full().expect("config is valid");
    let spans = zipkin::export(&raw.collector, &catalog);
    assert_eq!(spans.len(), raw.collector.spans().len());
    // Every non-root span's parent exists in the export.
    use std::collections::HashSet;
    let ids: HashSet<&str> = spans.iter().map(|s| s.id.as_str()).collect();
    for s in &spans {
        if let Some(p) = &s.parent_id {
            assert!(ids.contains(p.as_str()), "dangling parent {p}");
        }
    }
    // The export is consistent with the summary.
    assert!(result.completed > 0);
    let json = zipkin::to_json(&spans).unwrap();
    assert!(json.len() > 1000);
}
