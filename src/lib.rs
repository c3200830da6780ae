//! # v-MLP — volatility-aware Microservice Level Parallelism
//!
//! Facade crate for the reproduction of Wang et al., *"Exploring Efficient
//! Microservice Level Parallelism"* (IEEE IPDPS 2022).
//!
//! The **stable public surface is [`prelude`]**: experiment configuration,
//! the [`Experiment`](prelude::Experiment) builder, results, schemes, the
//! scheduler trait and its implementations, cluster sharding, and fault
//! injection. Examples, integration tests, and downstream users should
//! import from it rather than reaching into the `mlp_*` workspace crates:
//!
//! ```
//! use v_mlp::prelude::*;
//!
//! let result = Experiment::from_config(ExperimentConfig::smoke("vmlp"))
//!     .run()
//!     .expect("smoke config is valid");
//! assert!(result.completed > 0);
//!
//! // Volatility of a request is the paper's V_r metric.
//! let v = Volatility::new(2.0 / 3.0);
//! assert_eq!(v.band(), VolatilityBand::Medium);
//! ```
//!
//! The full workspace crates remain re-exported as modules (`v_mlp::engine`,
//! `v_mlp::cluster`, …) for research code that needs internals — that
//! surface is *advanced and unstable*; anything load-bearing should be
//! promoted into the prelude instead. See the individual crates for
//! details:
//! - [`mlp_stats`] — statistics substrate (CDFs, quantiles, distributions)
//! - [`mlp_sim`] — discrete-event simulation kernel
//! - [`mlp_model`] — microservice DAG & benchmark models
//! - [`mlp_cluster`] — machine/container substrate with resource ledger
//! - [`mlp_net`] — communication-latency model
//! - [`mlp_workload`] — L1/L2/L3 workload patterns and arrival generation
//! - [`mlp_trace`] — Zipkin-like tracing and profile store
//! - [`mlp_sched`] — scheduler framework + the four baselines of Table VI
//! - [`mlp_core`] — the paper's contribution: the v-MLP scheduler
//! - [`mlp_faults`] — deterministic fault injection (crashes, transients)
//! - [`mlp_engine`] — trace-driven evaluation engine and experiment sweeps

pub use mlp_cluster as cluster;
pub use mlp_core as core;
pub use mlp_engine as engine;
pub use mlp_faults as faults;
pub use mlp_model as model;
pub use mlp_net as net;
pub use mlp_sched as sched;
pub use mlp_sim as sim;
pub use mlp_stats as stats;
pub use mlp_trace as trace;
pub use mlp_workload as workload;

/// The curated stable surface: everything a typical embedder needs to
/// configure, run, and inspect experiments, without deep-importing
/// `mlp_*` internals.
pub mod prelude {
    // Configuring and running experiments.
    pub use mlp_engine::config::{ExperimentConfig, MixSpec};
    pub use mlp_engine::error::Error;
    pub use mlp_engine::experiment::Experiment;
    pub use mlp_engine::registry::{
        default_registry, BuildCtx, ParamValue, RegistryEntry, SchedulerParams, SchedulerRegistry,
        SchemeSpec, PAPER_SCHEMES,
    };
    pub use mlp_engine::report;
    pub use mlp_engine::runner::ExperimentResult;
    pub use mlp_engine::sweep::SweepConfig;
    pub use mlp_engine::traceio;

    // Schedulers: the trait, the paper's contribution, and the baselines.
    pub use mlp_core::volatility::{Volatility, VolatilityBand};
    pub use mlp_core::VMlpScheduler;
    pub use mlp_sched::baselines;
    pub use mlp_sched::scheduler::{HealingAction, Scheduler, SchedulerCtx};
    pub use mlp_sched::{SearchConfig, SearchSched};

    // The simulated substrate: workloads, requests, cluster sharding.
    pub use mlp_cluster::{Cluster, ShardId, ShardMap, ShardPool};
    pub use mlp_model::benchmarks;
    pub use mlp_model::requests::RequestCatalog;
    pub use mlp_model::VolatilityClass;
    pub use mlp_workload::patterns::WorkloadPattern;
    pub use mlp_workload::{ArrivalSource, OpenLoopSource, SliceSource};

    // Robustness extensions.
    pub use mlp_faults::FaultConfig;
    pub use mlp_sched::OverloadConfig;
}
