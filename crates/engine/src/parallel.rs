//! Parallel experiment sweeps over [`ShardPool`].
//!
//! The evaluation grid — 5 schemes × 3 patterns × 3 volatility streams ×
//! seeds — is embarrassingly parallel. Each configuration carries its own
//! seed, so results are independent of worker scheduling, and a bounded
//! worker pool keeps memory proportional to core count.

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::runner::ExperimentResult;
use mlp_cluster::ShardPool;
use mlp_model::RequestCatalog;

/// Runs every configuration, fanning out over up to `workers` threads
/// (0 = number of available cores). Results come back in input order.
pub fn run_all(configs: &[ExperimentConfig], workers: usize) -> Vec<ExperimentResult> {
    let catalog = RequestCatalog::paper();
    let catalog = &catalog;
    let jobs: Vec<_> = configs
        .iter()
        .map(|config| {
            move |_: usize| {
                Experiment::from_config(config.clone())
                    .catalog(catalog)
                    .run()
                    .expect("sweep configs are valid")
            }
        })
        .collect();
    ShardPool::new(workers).scatter(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PAPER_SCHEMES;

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<ExperimentConfig> = ["fairsched", "vmlp"]
            .into_iter()
            .map(|s| ExperimentConfig::smoke(s).with_seed(5))
            .collect();
        let par = run_all(&configs, 2);
        let seq: Vec<_> =
            configs.iter().map(|c| Experiment::from_config(c.clone()).run().unwrap()).collect();
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.completed, s.completed);
            assert_eq!(p.latency_ms, s.latency_ms);
        }
    }

    #[test]
    fn results_preserve_input_order() {
        let configs: Vec<ExperimentConfig> =
            PAPER_SCHEMES.into_iter().map(|s| ExperimentConfig::smoke(s).with_seed(1)).collect();
        let labels: Vec<String> =
            run_all(&configs, 0).iter().map(|r| r.config.scheme.display_name()).collect();
        assert_eq!(labels, PAPER_SCHEMES);
    }

    #[test]
    fn empty_config_list() {
        assert!(run_all(&[], 4).is_empty());
    }
}
