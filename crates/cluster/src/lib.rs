//! # mlp-cluster — simulated machine substrate
//!
//! The stand-in for the paper's docker-swarm cluster (DESIGN.md §2). Each
//! [`Machine`] has a CPU/memory/IO capacity vector, a *future-reservation
//! ledger* (the "real-time data … which contains future resource status"
//! that Algorithm 1's machine-traversal consults), an actual-usage account,
//! and cgroups-like [`controller`]s plus dockerstats-like [`monitor`]s
//! (Table III).

pub mod controller;
pub mod ledger;
#[cfg(test)]
mod ledger_naive;
pub mod machine;
pub mod monitor;
pub mod pool;
pub mod shard;

pub use controller::{proportional_satisfaction, ControllerTool};
pub use ledger::ResourceLedger;
pub use machine::{Cluster, GrantId, Machine, MachineId};
pub use monitor::{MonitorTool, UsageMonitor};
pub use pool::ShardPool;
pub use shard::{ShardId, ShardMap, ShardPolicy};
