//! The Fig 8 workflow as a downstream user would run it: profile →
//! persist and reload the trace → simulate → export spans for a tracing
//! UI. The simulation warms its own profiles from the config seed.
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

    // 2. Reload the stored traces (a later session, a different machine…)
    //    and check the round trip: the same services, each with the same
    //    mean execution time.
    let loaded = traceio::load_profiles(&profile_path)?;
    let services = profiles.services();
    if loaded.profiles.services() != services
        || services.iter().any(|&s| loaded.profiles.mean_exec_ms(s) != profiles.mean_exec_ms(s))
    {
        return Err("the reloaded trace differs from the saved profiles".into());
    }
    println!(
        "reloaded trace v{}: {} services, per-service mean exec times intact",
        loaded.version,
        services.len()
    );

    // 3. Simulation (the right half of Fig 8). `run_full` warms its own
    //    profile store from the config's seed and `warmup_cases`; the
    //    reloaded trace above is not an input to it.
    let cfg = ExperimentConfig {
        machines: 10,
        max_rate: 60.0,
        horizon_s: 20.0,
        pattern: WorkloadPattern::L2Fluctuating,
        ..ExperimentConfig::paper_default("vmlp")
    };
    let (result, raw) = Experiment::from_config(cfg.clone()).catalog(&catalog).run_full()?;
    println!(
        "simulated {} requests on profiles warmed from seed {} ({} cases per type): \
         p99 {:.1} ms, violations {:.2}%",
        result.completed,
        cfg.seed,
        cfg.warmup_cases,
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
