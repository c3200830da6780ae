//! Experiment configuration (Table IV's simulation platform, Section V's
//! run parameters).
//!
//! [`ExperimentConfig`] holds what a run varies. The kernel's timings — the
//! sampling tick, the drain wall and the ledger retention window — are
//! fixed for every run and live here as constants.

use crate::registry::SchemeSpec;
use mlp_faults::FaultConfig;
use mlp_model::{RequestTypeId, ResourceVector, VolatilityClass};
use mlp_sched::OverloadConfig;
use mlp_workload::WorkloadPattern;
use serde::{Deserialize, Serialize};

/// Utilization sampling period, seconds: the kernel's telemetry tick
/// (utilization sample, ledger prune, auditor pass, overload update) and
/// Fig 11's curve resolution.
pub const SAMPLE_PERIOD_S: f64 = 1.0;

/// Hard wall: a simulated run drains in-flight requests after the horizon
/// but never past `horizon_s × DRAIN_FACTOR`.
pub const DRAIN_FACTOR: f64 = 3.0;

/// How far back reservation-ledger history is retained, seconds. Each
/// sampling tick prunes breakpoints older than `now − retention`; 2 s
/// covers the deepest deviation look-backs while keeping per-machine
/// timelines bounded.
pub const LEDGER_RETENTION_S: f64 = 2.0;

/// Which request mix a run offers (Section IV / Figs 13–14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MixSpec {
    /// All five types, each volatility category carrying equal mass.
    Balanced,
    /// Only the request types of one volatility class (Fig 13's separated
    /// streams).
    SingleClass(VolatilityClass),
    /// `ratio` of high-V_r requests, the rest split low/mid (Fig 14).
    HighRatio(f64),
}

impl MixSpec {
    /// Resolves the mix into `(type, weight)` pairs against a catalog.
    pub fn resolve(self, catalog: &mlp_model::RequestCatalog) -> Vec<(RequestTypeId, f64)> {
        match self {
            MixSpec::Balanced => catalog.balanced_mix(),
            MixSpec::SingleClass(c) => catalog.class_mix(c),
            MixSpec::HighRatio(r) => catalog.high_ratio_mix(r),
        }
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentConfig {
    /// Scheduling scheme under test, by registry spec. The constructors
    /// accept spec strings (`"vmlp:healing=off"`, `"FairSched"`) and
    /// explicit [`SchemeSpec`]s.
    pub scheme: SchemeSpec,
    /// Number of machines (the paper simulates 100).
    pub machines: usize,
    /// Per-machine capacity (defaults to the Table IV worker shape).
    pub machine_capacity: ResourceVector,
    /// Offered-load pattern.
    pub pattern: WorkloadPattern,
    /// Peak arrival rate, requests/second (the paper caps at 1000).
    pub max_rate: f64,
    /// Run horizon in seconds (the paper's scheduling period is 100 s).
    pub horizon_s: f64,
    /// Request mix.
    pub mix: MixSpec,
    /// Root RNG seed (arrivals, execution noise, comm noise all fork from
    /// this, so runs are exactly reproducible).
    pub seed: u64,
    /// Profiling cases recorded per request type before the run starts
    /// (the "historical traces" input of Fig 8).
    pub warmup_cases: usize,
    /// Heterogeneous-fleet extension (beyond the paper's homogeneous
    /// cluster): when set, `(count, scale)` turns the *last* `count`
    /// machines into a small tier with `capacity × scale`. `None` keeps
    /// the homogeneous setup.
    pub small_tier: Option<(usize, f64)>,
    /// Fault-injection model (robustness extension beyond the paper).
    /// Disabled by default: runs are byte-identical to pre-fault builds.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Records a structured decision-audit trail (admissions, deferrals,
    /// reorders, healing actions) retrievable from [`SimOutput`]. Off by
    /// default; never touches the RNG stream, so enabling it cannot change
    /// simulation results.
    ///
    /// [`SimOutput`]: crate::sim::SimOutput
    #[serde(default)]
    pub audit: bool,
    /// Runs the per-tick invariant auditor (occupancy conservation, grant
    /// ledger / run-state cross-checks). Default-off in release runs,
    /// default-on in `smoke()` so every test exercises it. Violations
    /// increment the `invariant_violations` metric and capture a repro
    /// dump in [`SimOutput::invariant_report`].
    ///
    /// [`SimOutput::invariant_report`]: crate::sim::SimOutput
    #[serde(default)]
    pub auditor: bool,
    /// Number of scheduling shards the cluster is partitioned into
    /// (machine `i` joins shard `i mod K`). `1` (the default) is the
    /// unsharded paper setup and is byte-identical to pre-shard builds;
    /// production-scale runs use `machines / 16`-ish so placement and
    /// healing scan a shard instead of the fleet. Clamped to
    /// `[1, machines]` at cluster build time.
    #[serde(default)]
    pub shards: usize,
    /// Open-loop request-count cap: `Some(n)` stops the run's
    /// [`OpenLoopSource`] after `n` arrivals (or at the horizon, whichever
    /// comes first). `None` (the default) stops at the horizon only; the
    /// arrivals are the same prefix either way.
    ///
    /// [`OpenLoopSource`]: mlp_workload::OpenLoopSource
    #[serde(default)]
    pub max_requests: Option<u64>,
    /// Drops trace records instead of retaining them: counts, rates and
    /// breakdown means stay exact either way, but latency percentiles and
    /// the mean come from P² sketches and a Welford mean rather than an
    /// exact CDF (constant memory). Off by default: figure runs keep exact
    /// records.
    #[serde(default)]
    pub stream_stats: bool,
    /// Cap on execution cases retained per service in the profile store
    /// (ring-buffer semantics); `0` (the default) keeps the full history,
    /// byte-identical to earlier builds. Long soaks must bound this: the
    /// engine enriches the store with one case per completed span, and
    /// v-MLP's banded Δt estimator rebuilds a CDF over the whole retained
    /// window per admission — unbounded history means O(arrivals) memory
    /// *and* quadratic scheduling time.
    #[serde(default)]
    pub profile_retention: usize,
    /// Overload-resilience subsystem (flash-crowd surge shaping, admission
    /// control, retry budgets, circuit breakers, brownout tiers). Disabled
    /// by default: runs are byte-identical to pre-overload builds — the
    /// subsystem's RNG fork is never even created.
    #[serde(default)]
    pub overload: OverloadConfig,
}

/// Hand-written (the vendored derive errors on absent fields) so config
/// files predating the fault model or the audit flags keep loading: the
/// run-defining fields stay required, while `faults`, `audit`, and
/// `auditor` fall back to their disabled defaults when missing. Keys it
/// does not read, like the retired `workers`, `shard_policy`,
/// `sample_period_s`, `drain_factor` and `ledger_retention_s`, are
/// ignored.
impl Deserialize for ExperimentConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn req<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            let got = match v.get(name) {
                Some(x) => Deserialize::from_value(x),
                None => Deserialize::absent(name),
            };
            got.map_err(|e| e.in_context(&format!("ExperimentConfig.{name}")))
        }
        fn opt<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            fallback: T,
        ) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(x) => Deserialize::from_value(x)
                    .map_err(|e| e.in_context(&format!("ExperimentConfig.{name}"))),
                None => Ok(fallback),
            }
        }
        Ok(ExperimentConfig {
            scheme: req(v, "scheme")?,
            machines: req(v, "machines")?,
            machine_capacity: req(v, "machine_capacity")?,
            pattern: req(v, "pattern")?,
            max_rate: req(v, "max_rate")?,
            horizon_s: req(v, "horizon_s")?,
            mix: req(v, "mix")?,
            seed: req(v, "seed")?,
            warmup_cases: req(v, "warmup_cases")?,
            small_tier: req(v, "small_tier")?,
            faults: req(v, "faults")?,
            audit: opt(v, "audit", false)?,
            auditor: opt(v, "auditor", false)?,
            shards: opt(v, "shards", 1)?,
            max_requests: opt(v, "max_requests", None)?,
            stream_stats: opt(v, "stream_stats", false)?,
            profile_retention: opt(v, "profile_retention", 0)?,
            overload: opt(v, "overload", OverloadConfig::disabled())?,
        })
    }
}

impl ExperimentConfig {
    /// The paper-shaped default: 100 machines, L1 pattern, balanced mix.
    ///
    /// `max_rate` defaults to 1000 req/s like the paper; most figure
    /// binaries scale it down together with `machines` to keep laptop
    /// runtimes reasonable (the scheduler dynamics are per-machine-load
    /// driven, so scaling both preserves the regime).
    pub fn paper_default(scheme: impl Into<SchemeSpec>) -> Self {
        ExperimentConfig {
            scheme: scheme.into(),
            machines: 100,
            machine_capacity: ResourceVector::new(2.4, 2_500.0, 350.0),
            pattern: WorkloadPattern::L1Pulse,
            max_rate: 1000.0,
            horizon_s: 100.0,
            mix: MixSpec::Balanced,
            seed: 2022,
            warmup_cases: 100,
            small_tier: None,
            faults: FaultConfig::disabled(),
            audit: false,
            auditor: false,
            shards: 1,
            max_requests: None,
            stream_stats: false,
            profile_retention: 0,
            overload: OverloadConfig::disabled(),
        }
    }

    /// A laptop-scale configuration preserving the paper's per-machine
    /// load regime (peak ≈ 70 % of cluster CPU, sustained plateaus ≈ 50 %):
    /// 20 machines at 140 req/s peak over 40 s.
    pub fn small(scheme: impl Into<SchemeSpec>) -> Self {
        ExperimentConfig {
            machines: 20,
            max_rate: 140.0,
            horizon_s: 40.0,
            ..Self::paper_default(scheme)
        }
    }

    /// A tiny smoke-test configuration for unit/integration tests. The
    /// invariant auditor is on so every engine test cross-checks
    /// conservation laws for free.
    pub fn smoke(scheme: impl Into<SchemeSpec>) -> Self {
        ExperimentConfig {
            machines: 8,
            max_rate: 40.0,
            horizon_s: 8.0,
            warmup_cases: 30,
            auditor: true,
            ..Self::paper_default(scheme)
        }
    }

    /// Builder-style override helpers.
    pub fn with_pattern(mut self, p: WorkloadPattern) -> Self {
        self.pattern = p;
        self
    }

    /// Sets the request mix.
    pub fn with_mix(mut self, m: MixSpec) -> Self {
        self.mix = m;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the peak rate.
    pub fn with_rate(mut self, r: f64) -> Self {
        self.max_rate = r;
        self
    }

    /// Enables the heterogeneous two-tier fleet extension.
    pub fn with_small_tier(mut self, count: usize, scale: f64) -> Self {
        self.small_tier = Some((count, scale));
        self
    }

    /// Sets the fault-injection model.
    pub fn with_faults(mut self, f: FaultConfig) -> Self {
        self.faults = f;
        self
    }

    /// Enables or disables the decision-audit trail.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Enables or disables the per-tick invariant auditor.
    pub fn with_auditor(mut self, on: bool) -> Self {
        self.auditor = on;
        self
    }

    /// Partitions the cluster into `k` scheduling shards.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Caps the run at `n` open-loop requests (switches the experiment to
    /// the lazy arrival source; see [`Self::max_requests`]).
    pub fn with_max_requests(mut self, n: u64) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Enables or disables streaming (constant-memory) trace statistics.
    pub fn with_stream_stats(mut self, on: bool) -> Self {
        self.stream_stats = on;
        self
    }

    /// Caps the per-service profile history at `n` recent cases (`0` =
    /// unbounded; see [`Self::profile_retention`]).
    pub fn with_profile_retention(mut self, n: usize) -> Self {
        self.profile_retention = n;
        self
    }

    /// Sets the overload-resilience configuration (see [`OverloadConfig`]).
    pub fn with_overload(mut self, o: OverloadConfig) -> Self {
        self.overload = o;
        self
    }

    /// Builds the cluster this config describes.
    pub fn build_cluster(&self) -> mlp_cluster::Cluster {
        let cluster = match self.small_tier {
            None => mlp_cluster::Cluster::homogeneous(self.machines, self.machine_capacity),
            Some((count, scale)) => {
                let count = count.min(self.machines);
                mlp_cluster::Cluster::two_tier(
                    self.machines - count,
                    self.machine_capacity,
                    count,
                    self.machine_capacity * scale,
                )
            }
        };
        cluster.with_shards(self.shards.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_model::RequestCatalog;

    #[test]
    fn paper_default_matches_section5() {
        let c = ExperimentConfig::paper_default("vmlp");
        assert_eq!(c.machines, 100);
        assert_eq!(c.max_rate, 1000.0);
        assert_eq!(c.horizon_s, 100.0);
    }

    #[test]
    fn builders_compose() {
        let c = ExperimentConfig::small("fairsched")
            .with_pattern(WorkloadPattern::L3PeriodicWide)
            .with_seed(7)
            .with_rate(120.0)
            .with_mix(MixSpec::SingleClass(VolatilityClass::High));
        assert_eq!(c.pattern, WorkloadPattern::L3PeriodicWide);
        assert_eq!(c.seed, 7);
        assert_eq!(c.max_rate, 120.0);
        assert_eq!(c.mix, MixSpec::SingleClass(VolatilityClass::High));
    }

    #[test]
    fn mixes_resolve_to_weights() {
        let cat = RequestCatalog::paper();
        for mix in
            [MixSpec::Balanced, MixSpec::SingleClass(VolatilityClass::Mid), MixSpec::HighRatio(0.5)]
        {
            let resolved = mix.resolve(&cat);
            assert!(!resolved.is_empty());
            let total: f64 = resolved.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{mix:?} sums to {total}");
        }
    }

    #[test]
    fn two_tier_cluster_built_from_config() {
        let c = ExperimentConfig::smoke("vmlp").with_small_tier(3, 0.5);
        let cluster = c.build_cluster();
        assert_eq!(cluster.len(), 8);
        let big = cluster.machine(mlp_cluster::MachineId(0)).capacity;
        let small = cluster.machine(mlp_cluster::MachineId(7)).capacity;
        assert!((small.cpu - big.cpu * 0.5).abs() < 1e-12);
    }

    #[test]
    fn config_serializes() {
        let c = ExperimentConfig::smoke("partprofile");
        let js = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn configs_with_retired_keys_still_load() {
        // Saved configs (every benchmark workload file among them) carry
        // the removed knobs; the loader ignores them, whatever they hold.
        let c = ExperimentConfig::smoke("vmlp")
            .with_shards(4)
            .with_overload(OverloadConfig::flash_crowd(3.0, 1.0, 2.0));
        let js = serde_json::to_string(&c).unwrap();
        let legacy = js
            .replacen(
                "\"shards\":",
                "\"workers\":4,\"sample_period_s\":0.25,\"drain_factor\":1.5,\
                 \"shard_policy\":\"CapacityBalanced\",\"ledger_retention_s\":0.5,\"shards\":",
                1,
            )
            .replacen(
                "\"max_queue_depth\":",
                "\"admission_slack\":7.0,\"retry_rate_per_s\":0.001,\"retry_burst\":0.001,\
                 \"retry_base_backoff_ms\":500.0,\"breaker_min_samples\":1,\
                 \"breaker_failure_rate\":0.01,\"breaker_open_ms\":60000.0,\
                 \"breaker_half_open_probes\":1,\"tier1_pressure\":0.2,\"tier2_pressure\":0.3,\
                 \"tier3_pressure\":0.4,\"tier_hysteresis\":0.05,\"max_queue_depth\":",
                1,
            );
        assert!(legacy.contains("\"workers\":4") && legacy.contains("\"tier_hysteresis\":0.05"));
        let back: ExperimentConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn configs_predating_audit_and_fault_fields_still_load() {
        let c = ExperimentConfig::smoke("vmlp");
        let serde_json::Value::Object(entries) = serde_json::to_value(&c).unwrap() else {
            panic!("config serializes to an object")
        };
        // An "old" config file: the same JSON without the fields added
        // after the original schema.
        let old = serde_json::Value::Object(
            entries
                .into_iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "faults"
                            | "audit"
                            | "auditor"
                            | "shards"
                            | "max_requests"
                            | "stream_stats"
                            | "profile_retention"
                            | "overload"
                    )
                })
                .collect(),
        );
        let back: ExperimentConfig = serde_json::from_value(old).unwrap();
        assert!(!back.faults.is_active());
        assert!(!back.audit);
        assert!(!back.auditor);
        assert_eq!(back.shards, 1, "pre-shard configs load as unsharded");
        assert_eq!(back.max_requests, None, "pre-streaming configs use the dense path");
        assert!(!back.stream_stats);
        assert_eq!(back.profile_retention, 0, "pre-knob configs keep unbounded history");
        assert!(!back.overload.enabled, "pre-overload configs load with the subsystem off");
        assert_eq!(back.machines, c.machines);
        assert_eq!(back.seed, c.seed);
    }

    #[test]
    fn sharded_config_roundtrips_and_builds_partitioned_cluster() {
        let c = ExperimentConfig::smoke("vmlp").with_shards(4);
        let js = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, c);
        let cluster = c.build_cluster();
        assert_eq!(cluster.shard_count(), 4);
        assert!(cluster.shards().check_partition(cluster.machines()).is_ok());
        // Defaults build a single shard, and shards is clamped to machines.
        assert_eq!(ExperimentConfig::smoke("vmlp").build_cluster().shard_count(), 1);
        let over = ExperimentConfig::smoke("vmlp").with_shards(1000).build_cluster();
        assert_eq!(over.shard_count(), 8, "clamped to the machine count");
    }

    #[test]
    fn faults_default_disabled_and_roundtrip() {
        let c = ExperimentConfig::smoke("vmlp");
        assert!(!c.faults.is_active());
        let stormy = c.with_faults(FaultConfig::storm());
        assert!(stormy.faults.is_active());
        let js = serde_json::to_string(&stormy).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back, stormy);
    }
}
