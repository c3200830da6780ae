//! # mlp-bench — figure/table regeneration harness
//!
//! One module per table and figure of the paper's evaluation. Each module
//! exposes a `report` function that regenerates the figure's rows/series
//! as plain text; the `figs` binary runs any of them by name through the
//! [`figs::FIGURES`] table. Performance is measured by the repository
//! benchmark (`benchmark/`), not here.
//!
//! All experiments are seeded and deterministic. Absolute numbers differ
//! from the paper (our substrate is a synthetic simulator, theirs was
//! profiled on a physical testbed); the *shape* — which scheme wins, by
//! roughly what factor, where the crossovers sit — is what each report is
//! asserted against (see EXPERIMENTS.md).

pub mod ablations;
pub mod evalrun;
pub mod fig02_heterogeneity;
pub mod fig03_resources;
pub mod fig04_comm;
pub mod fig05_challenge;
pub mod fig09_patterns;
pub mod fig10_qos;
pub mod fig11_utilization;
pub mod fig12_latency;
pub mod fig13_tail;
pub mod fig14_throughput;
pub mod fig_faults;
pub mod fig_overload;
pub mod fig_scale;
pub mod fig_serve;
pub mod fig_soak;
pub mod fig_zoo;
pub mod figs;
pub mod loads;
pub mod scale;
pub mod tables;

pub use scale::Scale;

/// Runs one audited experiment (decision trail + invariant auditor) and
/// writes the JSONL trail to `path`, reporting auditor status to stderr.
/// `figs <name> --audit=FILE` runs the figure's companion config here.
/// Kept separate from the figure sweeps so their reports stay
/// byte-identical whether or not auditing was requested.
pub fn audit_run(config: mlp_engine::config::ExperimentConfig, path: &std::path::Path) {
    let cfg = config.with_audit(true).with_auditor(true);
    let catalog = mlp_model::RequestCatalog::paper();
    let (result, sim) = mlp_engine::experiment::Experiment::from_config(cfg)
        .catalog(&catalog)
        .run_full()
        .expect("audit config is valid");
    match sim.audit.write_jsonl(path) {
        Ok(()) => eprintln!(
            "audit: {} decisions saved to {} ({} dropped by the ring buffer)",
            sim.audit.len(),
            path.display(),
            sim.audit.dropped(),
        ),
        Err(e) => eprintln!("audit: cannot save trail: {e}"),
    }
    match &sim.invariant_report {
        None => eprintln!("auditor: no invariant violations"),
        Some(report) => {
            eprintln!("auditor: {} VIOLATIONS\n{report}", result.invariant_violations)
        }
    }
}

/// Merges one figure's points into the repo-root `BENCH_sim.json` under
/// `key`, preserving every other figure's key already in the file, so
/// `fig_scale`, `fig_soak`, `fig_overload`, … coexist in one committed
/// artifact. An existing key is replaced where it stands and a new one is
/// appended, so a rerun that reproduces its points leaves the file
/// byte-identical. Unreadable or corrupt existing contents are discarded
/// rather than propagated.
pub fn merge_bench_json(key: &str, value: serde_json::Value) {
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json"));
    merge_bench_json_at(path, vec![(key.to_string(), value)]).expect("write BENCH_sim.json");
    eprintln!("wrote {}", path.display());
}

/// Path-parameterized core of [`merge_bench_json`]. The snapshot is
/// written to a sibling temp file and atomically renamed into place: a run
/// that dies mid-write (OOM kill, ctrl-C between figure sweeps) used to
/// leave a truncated `BENCH_sim.json` behind, and the *next* merge would
/// read it as corrupt and silently drop every sibling key.
pub fn merge_bench_json_at(
    path: &std::path::Path,
    own: Vec<(String, serde_json::Value)>,
) -> std::io::Result<()> {
    use serde_json::Value;
    let mut entries = match std::fs::read_to_string(path)
        .map_err(|_| ())
        .and_then(|s| serde_json::from_str::<Value>(&s).map_err(|_| ()))
    {
        Ok(Value::Object(existing)) => existing,
        _ => Vec::new(),
    };
    for (k, v) in own {
        match entries.iter_mut().find(|(old_k, _)| *old_k == k) {
            Some(slot) => slot.1 = v,
            None => entries.push((k, v)),
        }
    }
    let json =
        serde_json::to_string_pretty(&Value::Object(entries)).expect("bench snapshot serializes");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json + "\n")?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::merge_bench_json_at;
    use serde_json::Value;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlp_bench_merge_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read_value(path: &std::path::Path) -> Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn merge_preserves_sibling_keys_across_runs() {
        let dir = tmp_dir("siblings");
        let path = dir.join("BENCH_sim.json");
        merge_bench_json_at(&path, vec![("fig_a".into(), Value::Str("one".into()))]).unwrap();
        merge_bench_json_at(&path, vec![("fig_b".into(), Value::Bool(false))]).unwrap();
        // Re-running an owner replaces its key without touching siblings.
        merge_bench_json_at(&path, vec![("fig_a".into(), Value::Str("two".into()))]).unwrap();
        let v = read_value(&path);
        assert_eq!(v.get("fig_a"), Some(&Value::Str("two".into())));
        assert_eq!(v.get("fig_b"), Some(&Value::Bool(false)));
        // An unchanged rerun of the later key leaves it in place and the
        // file byte-identical.
        let before = std::fs::read(&path).unwrap();
        merge_bench_json_at(&path, vec![("fig_b".into(), Value::Bool(false))]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let Value::Object(entries) = read_value(&path) else { panic!("snapshot is an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["fig_a", "fig_b"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression for the early-exit bug: the snapshot must be replaced
    /// atomically (temp file + rename), never truncated in place. A
    /// half-written file from a killed run is treated as corrupt on the
    /// next merge, but that merge still produces a complete, valid
    /// snapshot and leaves no temp debris behind.
    #[test]
    fn merge_is_atomic_and_recovers_from_truncation() {
        let dir = tmp_dir("atomic");
        let path = dir.join("BENCH_sim.json");
        // Simulate a run killed mid-write under the old non-atomic scheme.
        std::fs::write(&path, "{\"fig_a\": {\"x\": 1}, \"fig_").unwrap();
        merge_bench_json_at(&path, vec![("fig_b".into(), Value::Bool(true))]).unwrap();
        let v = read_value(&path);
        assert_eq!(v.get("fig_b"), Some(&Value::Bool(true)));
        assert!(!path.with_extension("json.tmp").exists(), "temp file must be renamed away");
        // A failed write (unwritable directory) must not corrupt anything:
        // the error surfaces instead of a partial file.
        let missing = dir.join("no_such_dir").join("BENCH_sim.json");
        assert!(merge_bench_json_at(&missing, vec![("k".into(), Value::Null)]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
