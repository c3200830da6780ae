//! Tracked performance baseline: `cargo run --release -p mlp-bench --bin perf_baseline`.
//!
//! Times a fixed-seed fig14-style run (Constant pattern, 50 % high-V_r
//! mix, OVERDRIVE load) once per scheme with the ledger query counters
//! enabled, plus a naive-vs-indexed ledger micro comparison, and writes
//! the whole snapshot to `BENCH_sim.json` at the repo root. Commit the
//! file: future PRs diff against it, so the perf trajectory of the
//! scheduling hot path is recorded alongside the code.
//!
//! The run is deterministic (seed 42); wall-clock numbers of course vary
//! with the host, so compare ratios across commits made on the same box.

use mlp_bench::fig14_throughput::OVERDRIVE;
use mlp_bench::loads::rate_factor;
use mlp_bench::scale::Scale;
use mlp_cluster::ledger::query_stats::{self, LedgerQueryStats};
use mlp_cluster::{NaiveLedger, ResourceLedger};
use mlp_engine::config::MixSpec;
use mlp_engine::experiment::Experiment;
use mlp_engine::runner::ExperimentResult;
use mlp_engine::scheme::Scheme;
use mlp_model::{RequestCatalog, ResourceVector};
use mlp_sim::{SimDuration, SimRng, SimTime};
use rand::Rng;
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
struct MicroCompare {
    reservations: usize,
    iters: u32,
    naive_ns_per_op: f64,
    indexed_ns_per_op: f64,
    speedup: f64,
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
    /// Naive O(n) rescan vs indexed O(log n) profile, same 1000-point
    /// timeline, per ledger query kind.
    micro: Vec<(String, MicroCompare)>,
}

fn time_ns<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn micro_compare() -> Vec<(String, MicroCompare)> {
    const N: usize = 1000;
    let cap = ResourceVector::new(2.4, 2500.0, 350.0);
    let amt = ResourceVector::new(0.8, 300.0, 40.0);
    let mut indexed = ResourceLedger::new(cap);
    let mut naive = NaiveLedger::new(cap);
    let mut rng = SimRng::new(11);
    let span_us = N as u64 * 5_000;
    for _ in 0..N {
        let from = SimTime::from_micros(rng.rng().gen_range(0..span_us));
        let dur = SimDuration::from_micros(rng.rng().gen_range(5_000..50_000));
        indexed.reserve(from, from + dur, amt * 0.1);
        naive.reserve(from, from + dur, amt * 0.1);
    }
    let mid = SimTime::from_micros(span_us / 2);
    let horizon = SimTime::from_micros(span_us + 100_000);
    let dur = SimDuration::from_millis(25);

    let cases: Vec<(&str, f64, f64)> = vec![
        (
            "usage_at",
            time_ns(100_000, || naive.usage_at(mid)),
            time_ns(100_000, || indexed.usage_at(mid)),
        ),
        (
            "peak_usage",
            time_ns(20_000, || naive.peak_usage(SimTime::ZERO, horizon)),
            time_ns(20_000, || indexed.peak_usage(SimTime::ZERO, horizon)),
        ),
        (
            "earliest_fit",
            time_ns(20_000, || naive.earliest_fit(SimTime::from_micros(1000), horizon, dur, amt)),
            time_ns(20_000, || {
                indexed.earliest_fit(SimTime::from_micros(1000), horizon, dur, amt, None)
            }),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, naive_ns, indexed_ns)| {
            (
                name.to_string(),
                MicroCompare {
                    reservations: N,
                    iters: if name == "usage_at" { 100_000 } else { 20_000 },
                    naive_ns_per_op: naive_ns,
                    indexed_ns_per_op: indexed_ns,
                    speedup: naive_ns / indexed_ns.max(1e-9),
                },
            )
        })
        .collect()
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
    for scheme in Scheme::PAPER {
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

    eprintln!("  micro: naive vs indexed ledger on a 1000-reservation timeline …");
    let micro = micro_compare();
    for (name, m) in &micro {
        eprintln!(
            "  {:<12} naive {:>9.1} ns/op   indexed {:>8.1} ns/op   {:>6.1}×",
            name, m.naive_ns_per_op, m.indexed_ns_per_op, m.speedup
        );
    }

    let baseline = Baseline {
        version: 1,
        scale: scale.label,
        seed: SEED,
        high_ratio,
        total_wall_ms,
        schemes,
        micro,
    };
    // Merge rather than overwrite: other bins (fig_scale) keep their own
    // top-level keys in the same committed snapshot.
    let serde_json::Value::Object(entries) =
        serde_json::to_value(&baseline).expect("baseline serializes")
    else {
        unreachable!("Baseline serializes to an object")
    };
    mlp_bench::merge_bench_json(entries);
}
