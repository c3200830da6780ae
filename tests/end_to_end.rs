//! Cross-crate end-to-end invariants: every scheduling scheme drives the
//! full simulator without losing requests, violating causality, or
//! breaking resource accounting.

use std::collections::HashMap;
use v_mlp::engine::config::{DRAIN_FACTOR, SAMPLE_PERIOD_S};
use v_mlp::prelude::*;
use v_mlp::sim::SimTime;
use v_mlp::trace::RequestId;

fn run_raw(scheme: &str, seed: u64) -> (v_mlp::engine::sim::SimOutput, RequestCatalog) {
    let cfg = ExperimentConfig::smoke(scheme).with_seed(seed);
    (Experiment::from_config(cfg).run_full().unwrap().1, RequestCatalog::paper())
}

#[test]
fn no_scheme_loses_requests() {
    for scheme in PAPER_SCHEMES {
        let (out, _) = run_raw(scheme, 101);
        assert!(out.arrived > 100, "{scheme}: too few arrivals");
        assert!(
            out.collector.completed() + out.unfinished >= out.arrived,
            "{}: {} completed + {} unfinished < {} arrived",
            scheme,
            out.collector.completed(),
            out.unfinished,
            out.arrived
        );
        // Smoke load is light: virtually everything should finish.
        assert!(
            out.collector.completed() as f64 >= 0.95 * out.arrived as f64,
            "{}: only {}/{} completed",
            scheme,
            out.collector.completed(),
            out.arrived
        );
    }
}

#[test]
fn spans_respect_dag_causality_for_all_schemes() {
    for scheme in PAPER_SCHEMES {
        let (out, catalog) = run_raw(scheme, 202);
        let mut per_req: HashMap<RequestId, Vec<&v_mlp::trace::Span>> = HashMap::new();
        for s in out.collector.spans() {
            per_req.entry(s.request).or_default().push(s);
        }
        for (_, spans) in per_req {
            let dag = &catalog.request(spans[0].request_type).dag;
            let mut start = HashMap::new();
            let mut end = HashMap::new();
            for s in &spans {
                start.insert(s.dag_node, s.start);
                end.insert(s.dag_node, s.end);
            }
            for &(p, c) in dag.edges() {
                if let (Some(&pe), Some(&cs)) = (end.get(&p), start.get(&c)) {
                    assert!(cs >= pe, "{scheme}: child {c} started before parent {p} ended");
                }
            }
        }
    }
}

#[test]
fn every_span_has_sane_satisfaction_and_duration() {
    for scheme in PAPER_SCHEMES {
        let (out, _) = run_raw(scheme, 303);
        for s in out.collector.spans() {
            assert!(
                (0.05..=1.0 + 1e-9).contains(&s.satisfaction),
                "{}: satisfaction {} out of range",
                scheme,
                s.satisfaction
            );
            assert!(s.end > s.start, "{scheme}: zero-length span");
        }
    }
}

#[test]
fn latencies_are_bounded_below_by_ideal() {
    let (out, catalog) = run_raw("vmlp", 404);
    for rec in out.collector.requests() {
        let rt = catalog.request(rec.request_type);
        let ideal = rt.ideal_latency_ms(&catalog.services);
        let measured = rec.latency().as_millis_f64();
        // Lognormal execution noise can undershoot nominal per node, but
        // never by much across a whole chain (communication adds too).
        assert!(
            measured > ideal * 0.5,
            "request {:?}: measured {measured:.1} ms vs ideal {ideal:.1} ms",
            rec.id
        );
    }
}

#[test]
fn completed_requests_have_all_spans() {
    let (out, catalog) = run_raw("partprofile", 505);
    let mut span_counts: HashMap<RequestId, usize> = HashMap::new();
    for s in out.collector.spans() {
        *span_counts.entry(s.request).or_default() += 1;
    }
    for rec in out.collector.requests() {
        let dag_len = catalog.request(rec.request_type).dag.len();
        assert_eq!(
            span_counts.get(&rec.id).copied().unwrap_or(0),
            dag_len,
            "request {:?} missing spans",
            rec.id
        );
    }
}

#[test]
fn utilization_series_covers_horizon() {
    let (out, _) = run_raw("cursched", 606);
    let cfg = ExperimentConfig::smoke("cursched");
    let expected = (cfg.horizon_s / SAMPLE_PERIOD_S) as usize;
    assert!(
        out.utilization.len() + 1 >= expected,
        "only {} utilization samples, expected ≈{expected}",
        out.utilization.len()
    );
    assert!(out.utilization.values().iter().all(|&u| (0.0..=1.0).contains(&u)));
}

#[test]
fn requests_finish_after_they_arrive() {
    let (out, _) = run_raw("fullprofile", 707);
    for rec in out.collector.requests() {
        assert!(rec.end > rec.arrival);
        assert!(rec.arrival >= SimTime::ZERO);
    }
}

#[test]
fn saturated_runs_terminate_and_account() {
    // Deliberate overload: offered load far beyond capacity. The run must
    // cut off at the drain wall with every request accounted for (the
    // engine's backoff/throttle hygiene, not a paper scenario).
    for scheme in ["cursched", "partprofile", "vmlp"] {
        let cfg = ExperimentConfig {
            machines: 2,
            max_rate: 60.0,
            horizon_s: 5.0,
            warmup_cases: 10,
            ..ExperimentConfig::paper_default(scheme)
        }
        .with_seed(31);
        let r = Experiment::from_config(cfg).run().expect("overload config is valid");
        // ≈105 arrivals expected (Poisson, σ≈10); assert well below the
        // mean so the check is about overload, not the RNG stream.
        assert!(r.arrived > 60, "{}: only {} arrivals", scheme, r.arrived);
        assert!(
            r.completed + r.unfinished >= r.arrived,
            "{}: lost requests under saturation",
            scheme
        );
        assert!((0.0..=1.0).contains(&r.violation_rate));
    }
}

#[test]
fn drain_wall_caps_run_length() {
    // Even with an absurd backlog, no request record can end after the
    // hard cap (horizon × DRAIN_FACTOR).
    let cfg = ExperimentConfig {
        machines: 2,
        max_rate: 80.0,
        horizon_s: 3.0,
        warmup_cases: 10,
        ..ExperimentConfig::paper_default("fullprofile")
    }
    .with_seed(37);
    let (_, out) = Experiment::from_config(cfg.clone()).run_full().unwrap();
    let wall = SimTime::from_secs_f64(cfg.horizon_s * DRAIN_FACTOR);
    for rec in out.collector.requests() {
        assert!(rec.end <= wall, "request finished after the drain wall");
    }
}
