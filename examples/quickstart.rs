//! Quickstart: run one v-MLP experiment end-to-end and print the metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use v_mlp::prelude::*;

fn main() {
    // The paper's evaluation setup, scaled to a laptop: a homogeneous
    // simulated cluster, the balanced five-type request mix of Table V,
    // and the L1 pulse workload of Fig 9.
    let config = ExperimentConfig {
        machines: 12,
        max_rate: 80.0,
        horizon_s: 30.0,
        ..ExperimentConfig::paper_default("vmlp")
    };

    println!("running v-MLP on {} machines at {} req/s peak…", config.machines, config.max_rate);
    let result: ExperimentResult = Experiment::from_config(config).run().expect("config is valid");

    println!("arrived:              {}", result.arrived);
    println!("completed:            {}", result.completed);
    println!("throughput:           {:.1} req/s", result.throughput());
    println!(
        "latency p50/p90/p99:  {:.1} / {:.1} / {:.1} ms",
        result.latency_ms[0], result.latency_ms[1], result.latency_ms[2]
    );
    println!("SLO violations:       {:.2}%", result.violation_rate * 100.0);
    println!("mean cluster util:    {:.1}%", result.mean_utilization * 100.0);
    let (slots, stretches, switches) = result.healing;
    println!("self-healing:         {slots} delay-slot fills, {stretches} stretches, {switches} queue switches");

    // The volatility metric that drives all of v-MLP's decisions:
    let catalog = RequestCatalog::paper();
    println!("\nrequest volatility (Table V):");
    for rt in &catalog.requests {
        let v = Volatility::new(rt.volatility);
        println!("  {:22} V_r = {:.2}  ({:?})", rt.name, v.value(), v.band());
    }
}
