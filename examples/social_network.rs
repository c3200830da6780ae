//! SocialNetwork scenario: a write-heavy stream (compose-post, High V_r)
//! mixed with timeline reads (Low V_r) under the fluctuating L2 workload,
//! comparing v-MLP against the fair scheduler.
//!
//! This is the workload the paper's introduction motivates: the same
//! services serve volatile writes and stable reads, and a scheduler that
//! ignores the difference lets the writes' variance poison the reads'
//! tails.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use v_mlp::prelude::*;

fn run(scheme: &str, high_ratio: f64) -> ExperimentResult {
    let config = ExperimentConfig {
        machines: 12,
        max_rate: 60.0,
        horizon_s: 40.0,
        pattern: WorkloadPattern::L2Fluctuating,
        // compose-post (high) vs timeline reads (low/mid split).
        mix: MixSpec::HighRatio(high_ratio),
        ..ExperimentConfig::paper_default(scheme)
    };
    Experiment::from_config(config).run().expect("config is valid")
}

fn main() {
    println!("SocialNetwork: compose-post writes vs timeline reads (L2 fluctuating)\n");
    for ratio in [0.2, 0.5] {
        println!("--- {:.0}% high-volatility writes ---", ratio * 100.0);
        for scheme in ["fairsched", "vmlp"] {
            let r = run(scheme, ratio);
            let low = r.violation_by_class[0] * 100.0;
            let high = r.violation_by_class[2] * 100.0;
            println!(
                "{:10}  p99 {:7.1} ms | violations: low-V_r {:4.1}%, high-V_r {:4.1}% | util {:.1}%",
                r.config.scheme.display_name(),
                r.latency_ms[2],
                low,
                high,
                r.mean_utilization * 100.0,
            );
        }
        println!();
    }
    let catalog = RequestCatalog::paper();
    let reads = catalog.requests_in_class(VolatilityClass::Low);
    println!(
        "(the read path invokes {} request types; the volatile writes share \
         nginx and post-storage with them — that sharing is what FairSched mishandles)",
        reads.len()
    );
}
