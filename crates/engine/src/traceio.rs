//! Trace persistence — the storage layer of the Fig 8 workflow.
//!
//! The paper's evaluation is *trace-driven*: profiling runs produce
//! historical traces which are stored and later fed into the simulator.
//! This module persists the two artifacts that cross that boundary —
//! profile stores (the `s_i` histories) and experiment results — as JSON,
//! so sweeps can be profiled once and re-simulated many times, and
//! experiment outputs can be archived and diffed across code versions.
//!
//! All functions return the typed [`Error`] so callers can distinguish a
//! missing file from corrupt contents from a version skew.

use crate::config::ExperimentConfig;
use crate::error::Error;
use crate::runner::ExperimentResult;
use mlp_trace::ProfileStore;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// Schema version embedded in every artifact; bumped on breaking change.
/// v2: `ExperimentResult` gained `mean_breakdown` / `invariant_violations`
/// (results saved by v1 code cannot satisfy the new required counter).
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// A persisted profiling trace: the catalog-independent `s_i` histories
/// plus provenance.
#[derive(Debug, Serialize, Deserialize)]
pub struct ProfileTrace {
    /// Format version.
    pub version: u32,
    /// Seed the profiling pass ran with.
    pub seed: u64,
    /// Cases recorded per request type.
    pub cases_per_type: usize,
    /// The store itself.
    pub profiles: ProfileStore,
}

/// A persisted experiment: config + result, self-describing.
#[derive(Debug, Serialize, Deserialize)]
pub struct ExperimentTrace {
    /// Format version.
    pub version: u32,
    /// The configuration that produced the result.
    pub config: ExperimentConfig,
    /// The figure-ready metrics.
    pub result: ExperimentResult,
}

/// Saves a profile store to `path` as pretty JSON.
pub fn save_profiles(
    path: &Path,
    profiles: &ProfileStore,
    seed: u64,
    cases_per_type: usize,
) -> Result<(), Error> {
    let trace = ProfileTrace {
        version: TRACE_FORMAT_VERSION,
        seed,
        cases_per_type,
        profiles: profiles.clone(),
    };
    let json = serde_json::to_string_pretty(&trace).map_err(|e| Error::parse(path, e))?;
    fs::write(path, json).map_err(|e| Error::io(path, e))
}

/// Loads a profile store, rejecting unknown format versions.
pub fn load_profiles(path: &Path) -> Result<ProfileTrace, Error> {
    let json = fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let trace: ProfileTrace = serde_json::from_str(&json).map_err(|e| Error::parse(path, e))?;
    if trace.version != TRACE_FORMAT_VERSION {
        return Err(Error::UnsupportedVersion {
            path: path.to_path_buf(),
            found: trace.version,
            expected: TRACE_FORMAT_VERSION,
        });
    }
    Ok(trace)
}

/// Saves an experiment result.
pub fn save_experiment(path: &Path, result: &ExperimentResult) -> Result<(), Error> {
    let trace = ExperimentTrace {
        version: TRACE_FORMAT_VERSION,
        config: result.config.clone(),
        result: result.clone(),
    };
    let json = serde_json::to_string_pretty(&trace).map_err(|e| Error::parse(path, e))?;
    fs::write(path, json).map_err(|e| Error::io(path, e))
}

/// Loads an experiment result.
pub fn load_experiment(path: &Path) -> Result<ExperimentTrace, Error> {
    let json = fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let trace: ExperimentTrace = serde_json::from_str(&json).map_err(|e| Error::parse(path, e))?;
    if trace.version != TRACE_FORMAT_VERSION {
        return Err(Error::UnsupportedVersion {
            path: path.to_path_buf(),
            found: trace.version,
            expected: TRACE_FORMAT_VERSION,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::profiling::warm_profiles;
    use mlp_model::{benchmarks::sn, RequestCatalog};
    use mlp_sim::SimRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vmlp-traceio-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn profile_roundtrip_preserves_histories() {
        let catalog = RequestCatalog::paper();
        let profiles = warm_profiles(&catalog, 20, &mut SimRng::new(5));
        let path = tmp("profiles.json");
        save_profiles(&path, &profiles, 5, 20).unwrap();
        let loaded = load_profiles(&path).unwrap();
        fs::remove_file(&path).ok();

        assert_eq!(loaded.seed, 5);
        assert_eq!(loaded.cases_per_type, 20);
        assert_eq!(
            loaded.profiles.case_count(sn::COMPOSE_POST),
            profiles.case_count(sn::COMPOSE_POST)
        );
        assert_eq!(
            loaded.profiles.mean_exec_ms(sn::COMPOSE_POST),
            profiles.mean_exec_ms(sn::COMPOSE_POST)
        );
    }

    #[test]
    fn experiment_roundtrip() {
        let cfg = ExperimentConfig::smoke("fairsched").with_seed(8);
        let result = Experiment::from_config(cfg.clone()).run().unwrap();
        let path = tmp("experiment.json");
        save_experiment(&path, &result).unwrap();
        let loaded = load_experiment(&path).unwrap();
        fs::remove_file(&path).ok();

        assert_eq!(loaded.config, cfg);
        assert_eq!(loaded.result.completed, result.completed);
        assert_eq!(loaded.result.latency_ms, result.latency_ms);
    }

    #[test]
    fn version_mismatch_rejected() {
        let path = tmp("bad-version.json");
        fs::write(
            &path,
            r#"{"version": 99, "seed": 0, "cases_per_type": 0, "profiles": {"histories": {}, "retention": 0}}"#,
        )
        .unwrap();
        let err = load_profiles(&path).unwrap_err();
        fs::remove_file(&path).ok();
        let Error::UnsupportedVersion { found, expected, .. } = err else {
            panic!("expected UnsupportedVersion, got {err:?}")
        };
        assert_eq!(found, 99);
        assert_eq!(expected, TRACE_FORMAT_VERSION);
    }

    #[test]
    fn corrupt_json_is_a_parse_error() {
        let path = tmp("corrupt.json");
        fs::write(&path, "{ not json").unwrap();
        let err = load_profiles(&path).unwrap_err();
        fs::remove_file(&path).ok();
        assert!(matches!(err, Error::Parse { .. }), "got {err:?}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_experiment(Path::new("/nonexistent/vmlp/run.json")).unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "got {err:?}");
    }
}
