//! Heterogeneous-fleet extension: the paper evaluates a homogeneous
//! 100-machine cluster; real fleets mix machine generations. This example
//! runs the same workload on a two-tier fleet (half the machines at 50 %
//! capacity) and shows that ledger-driven schemes adapt — their per-machine
//! reservations see each machine's true capacity — while FairSched's fixed
//! equal slices mis-size on both tiers.
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use v_mlp::prelude::*;

fn run(scheme: &str, two_tier: bool) -> ExperimentResult {
    let mut cfg = ExperimentConfig {
        machines: 12,
        max_rate: 48.0,
        horizon_s: 40.0,
        pattern: WorkloadPattern::L2Fluctuating,
        ..ExperimentConfig::paper_default(scheme)
    };
    if two_tier {
        // Same *total* capacity as 9 homogeneous machines, shaped 6 big +
        // 6 half-size — the scheduling problem is harder, the raw capacity
        // comparable.
        cfg = cfg.with_small_tier(6, 0.5);
    } else {
        cfg.machines = 9;
    }
    Experiment::from_config(cfg).run().expect("config is valid")
}

fn main() {
    println!("same total capacity, homogeneous (9×1.0) vs two-tier (6×1.0 + 6×0.5):\n");
    println!(
        "{:12} {:>14} {:>14} {:>12} {:>12}",
        "scheme", "p99 homog", "p99 two-tier", "viol homog", "viol 2-tier"
    );
    for scheme in ["fairsched", "cursched", "partprofile", "vmlp"] {
        let homog = run(scheme, false);
        let tier = run(scheme, true);
        println!(
            "{:12} {:>11.1} ms {:>11.1} ms {:>11.2}% {:>11.2}%",
            scheme,
            homog.latency_ms[2],
            tier.latency_ms[2],
            homog.violation_rate * 100.0,
            tier.violation_rate * 100.0,
        );
    }
    println!(
        "\n(ledger-driven schemes read each machine's capacity; FairSched's equal\n\
         slice is computed from the first machine and mis-fits the small tier)"
    );
}
