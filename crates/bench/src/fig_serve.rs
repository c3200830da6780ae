//! Live-serving soak: the wall-clock kernel behind a real loopback TCP
//! socket, driven by the open-loop load generator, with the invariant
//! auditor on the whole time.
//!
//! Where `fig_soak` proves the *virtual-time* kernel holds its invariants
//! over millions of simulated requests, this figure proves the same kernel
//! holds them when the clock is real: the exact event-application code
//! serves live traffic through `mlp-serve`, and the auditor — which knows
//! nothing about modes — must stay silent while latencies, admission
//! rounds, and healing all unfold in wall time. The printed point is
//! sustained throughput plus the client-observed latency distribution,
//! which at an unsaturated operating point should reproduce the
//! simulator's own tail (the service times are the same model, only the
//! clock changed).

use crate::scale::Scale;
use mlp_engine::config::ExperimentConfig;
use mlp_serve::loadgen::{self, LoadgenConfig};
use mlp_serve::{ServeConfig, Server};
use mlp_trace::metrics::names;
use mlp_workload::{RateSchedule, WorkloadPattern};
use std::time::Duration;

/// How big the live soak runs at each named scale.
///
/// Unlike the simulation figures, the offered rate here must sit *inside*
/// the fleet's capacity: the point is zero-violation serving at a
/// sustained rate, not overload behavior (that's `fig_overload`). The
/// paper row doubles the Section V fleet because a *sustained* 1000 req/s
/// is the L-patterns' short-lived peak made permanent — 100 machines
/// saturate there, 200 hold p99 at the unloaded ~400 ms.
#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    pub machines: usize,
    pub offered_rps: f64,
    pub duration_s: f64,
    pub connections: usize,
    pub label: &'static str,
}

impl ServeScale {
    pub fn from_scale(scale: &Scale) -> ServeScale {
        match scale.label {
            "paper" => ServeScale {
                machines: 200,
                offered_rps: 1100.0,
                duration_s: 60.0,
                connections: 900,
                label: "paper",
            },
            "tiny" => ServeScale {
                machines: 24,
                offered_rps: 80.0,
                duration_s: 6.0,
                connections: 64,
                label: "tiny",
            },
            _ => ServeScale {
                machines: 48,
                offered_rps: 200.0,
                duration_s: 12.0,
                connections: 160,
                label: "small",
            },
        }
    }
}

/// One live-soak data point. Every measurement in it comes from the wall
/// clock, so `figs` prints and gates it but keeps it out of
/// `BENCH_sim.json`.
#[derive(Debug, Clone)]
pub struct ServePoint {
    pub scale: String,
    pub machines: usize,
    pub offered_rps: f64,
    pub duration_s: f64,
    pub connections: usize,
    /// Requests the generator actually put on the wire.
    pub sent: u64,
    pub completed: u64,
    pub shed: u64,
    pub busy: u64,
    pub errors: u64,
    /// Arrival instants that slipped >10 ms (closed-loop distortion).
    pub late_arrivals: u64,
    /// Completions per wall-clock second, including the drain tail.
    pub sustained_rps: f64,
    pub mean_latency_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Requests the kernel admitted (its own arrival count).
    pub kernel_arrived: usize,
    /// 0 on a clean run; the auditor's count otherwise.
    pub invariant_violations: u64,
    /// In-flight requests cut off by the shutdown drain (0 = clean).
    pub dropped_at_drain: u64,
}

/// Runs the live soak: in-process server on a loopback port, in-process
/// load generator, graceful drain, auditor verdict.
pub fn run(scale: &Scale, seed: u64) -> ServePoint {
    let s = ServeScale::from_scale(scale);
    let experiment =
        ExperimentConfig { machines: s.machines, ..ExperimentConfig::paper_default("vmlp") }
            .with_seed(seed)
            .with_stream_stats(true)
            .with_profile_retention(512)
            .with_auditor(true);

    let serve_cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        queue_cap: 4096,
        request_timeout: Duration::from_secs(60),
        drain_timeout: Duration::from_secs(30),
        experiment,
    };
    let server = Server::start(serve_cfg).expect("bind loopback");

    let report = loadgen::run(&LoadgenConfig {
        addr: server.local_addr().to_string(),
        schedule: RateSchedule::steady(WorkloadPattern::Constant, s.offered_rps)
            .expect("constant schedule is valid"),
        duration: Duration::from_secs_f64(s.duration_s),
        connections: s.connections,
        seed: seed.wrapping_add(1),
        timeout: Duration::from_secs(60),
    });

    let out = server.stop();
    let violations = match &out.invariant_report {
        None => 0,
        Some(_) => out.metrics.counter(names::INVARIANT_VIOLATIONS).max(1),
    };
    if let Some(rep) = &out.invariant_report {
        eprintln!("fig_serve[{}]: auditor report:\n{rep}", s.label);
    }

    ServePoint {
        scale: s.label.to_string(),
        machines: s.machines,
        offered_rps: s.offered_rps,
        duration_s: s.duration_s,
        connections: s.connections,
        sent: report.sent,
        completed: report.completed,
        shed: report.shed,
        busy: report.busy,
        errors: report.errors + report.timeouts,
        late_arrivals: report.late_arrivals,
        sustained_rps: report.achieved_rps(),
        mean_latency_us: report.mean_latency_us(),
        p50_us: report.percentile_us(50.0),
        p95_us: report.percentile_us(95.0),
        p99_us: report.percentile_us(99.0),
        kernel_arrived: out.arrived,
        invariant_violations: violations,
        dropped_at_drain: report.dropped,
    }
}

/// The human-readable summary `figs fig_serve` prints.
pub fn report(p: &ServePoint) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fig_serve — live wall-clock soak ({} scale)\n\
         {} machines, {:.0} req/s offered for {:.0}s over {} connections\n\n",
        p.scale, p.machines, p.offered_rps, p.duration_s, p.connections
    ));
    out.push_str(&format!(
        "  sent / completed:    {} / {}\n\
         \x20 sustained:           {:.1} req/s\n\
         \x20 latency p50/p95/p99: {:.1} / {:.1} / {:.1} ms (mean {:.1})\n\
         \x20 shed / busy / errors: {} / {} / {}\n\
         \x20 late arrivals:       {}\n\
         \x20 dropped at drain:    {}\n\
         \x20 invariant violations: {}\n",
        p.sent,
        p.completed,
        p.sustained_rps,
        p.p50_us as f64 / 1000.0,
        p.p95_us as f64 / 1000.0,
        p.p99_us as f64 / 1000.0,
        p.mean_latency_us / 1000.0,
        p.shed,
        p.busy,
        p.errors,
        p.late_arrivals,
        p.dropped_at_drain,
        p.invariant_violations,
    ));
    out
}

/// The pass/fail gates CI hangs off this figure.
pub fn gates(p: &ServePoint) -> Vec<String> {
    let mut failures = Vec::new();
    if p.invariant_violations > 0 {
        failures
            .push(format!("{} invariant violations during the live soak", p.invariant_violations));
    }
    if p.dropped_at_drain > 0 {
        failures.push(format!(
            "{} requests dropped at drain (not a clean shutdown)",
            p.dropped_at_drain
        ));
    }
    if p.errors > 0 {
        failures.push(format!("{} transport errors / timeouts", p.errors));
    }
    // The offered process must actually have been served: completions
    // within 10% of what was sent, and what was sent within 10% of the
    // expectation for the schedule (Poisson noise at tiny scale runs
    // wider, hence the generous band).
    let expected = p.offered_rps * p.duration_s;
    if (p.sent as f64) < 0.8 * expected {
        failures.push(format!("only {} of ~{expected:.0} expected requests were offered", p.sent));
    }
    if (p.completed as f64) < 0.9 * p.sent as f64 {
        failures.push(format!("only {}/{} offered requests completed", p.completed, p.sent));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_scales_stay_inside_capacity() {
        for scale in [Scale::tiny(), Scale::small(), Scale::paper()] {
            let s = ServeScale::from_scale(&scale);
            // Verified in sim: at ≤5.5 req/s/machine the const-pattern
            // fleet holds its unloaded ~400 ms p99 (26% utilization at the
            // paper point). Every serve point must stay in that regime —
            // the fig_serve story is "live reproduces sim at an
            // unsaturated operating point", not a stress test.
            let per_machine = s.offered_rps / s.machines as f64;
            assert!(per_machine < 6.0, "{}: {per_machine:.1} req/s/machine", s.label);
            // Open-loop honesty: a connection's mean gap must exceed the
            // ~400 ms unloaded p99 so blocking rarely delays an arrival.
            let gap_s = s.connections as f64 / s.offered_rps;
            assert!(gap_s > 0.4, "{}: mean per-connection gap {gap_s:.2}s", s.label);
        }
    }

    /// The tiny point end to end — a real socket, ~500 requests, auditor
    /// on. This is the CI serve-smoke in miniature.
    #[test]
    fn tiny_soak_passes_its_own_gates() {
        let p = run(&Scale::tiny(), 2022);
        let failures = gates(&p);
        assert!(failures.is_empty(), "gates failed: {failures:?}\n{p:?}");
        assert!(p.completed > 200, "tiny soak should complete a few hundred: {p:?}");
    }
}
