//! The full Fig 8 trace-driven workflow as a downstream user would run it:
//! profile → persist → simulate → export spans for a tracing UI.
//!
//! ```sh
//! cargo run --release --example trace_workflow
//! ```

use std::path::PathBuf;
use v_mlp::engine::profiling::warm_profiles;
use v_mlp::prelude::*;
use v_mlp::sim::SimRng;
use v_mlp::trace::zipkin;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("vmlp-workflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let catalog = RequestCatalog::paper();

    // 1. Workload characterization: profile the benchmarks and store the
    //    historical traces (the left half of Fig 8).
    let profiles = warm_profiles(&catalog, 100, &mut SimRng::new(2022));
    let profile_path: PathBuf = dir.join("profiles.json");
    traceio::save_profiles(&profile_path, &profiles, 2022, 100)?;
    println!("profiled {} service classes → {}", profiles.services().len(), profile_path.display());

    // 2. Reload the stored traces (a later session, a different machine…).
    let loaded = traceio::load_profiles(&profile_path)?;
    println!(
        "reloaded trace v{} with {} services",
        loaded.version,
        loaded.profiles.services().len()
    );

    // 3. Trace-driven simulation (the right half of Fig 8).
    let cfg = ExperimentConfig {
        machines: 10,
        max_rate: 60.0,
        horizon_s: 20.0,
        pattern: WorkloadPattern::L2Fluctuating,
        ..ExperimentConfig::paper_default("vmlp")
    };
    let (result, raw) = Experiment::from_config(cfg).catalog(&catalog).run_full()?;
    println!(
        "simulated {} requests: p99 {:.1} ms, violations {:.2}%",
        result.completed,
        result.latency_ms[2],
        result.violation_rate * 100.0
    );

    // 4. Persist the experiment result…
    let result_path = dir.join("experiment.json");
    traceio::save_experiment(&result_path, &result)?;
    println!("experiment metrics → {}", result_path.display());

    // 5. …and export the spans in Zipkin v2 format for any tracing UI.
    let spans = zipkin::export(&raw.collector, &catalog);
    let zipkin_path = dir.join("spans.zipkin.json");
    std::fs::write(&zipkin_path, zipkin::to_json(&spans).expect("serializable"))?;
    println!("{} spans in Zipkin v2 format → {}", spans.len(), zipkin_path.display());

    // Tidy up the demo directory.
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
