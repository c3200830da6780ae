//! # mlp-cluster — simulated machine substrate
//!
//! The stand-in for the paper's docker-swarm cluster (DESIGN.md §2). Each
//! [`Machine`] has a CPU/memory/IO capacity vector, a *future-reservation
//! ledger* (the "real-time data … which contains future resource status"
//! that Algorithm 1's machine-traversal consults), and an actual-usage
//! account of live grants ([`Machine::occupy`], [`Machine::grow`]) — the
//! state the paper's dockerstats monitors read and its cgroups
//! [`controller`]s set (Table III).

pub mod controller;
pub mod ledger;
#[cfg(test)]
mod ledger_naive;
pub mod machine;
pub mod pool;
pub mod shard;

pub use controller::ControllerTool;
pub use ledger::ResourceLedger;
pub use machine::{Cluster, GrantId, Machine, MachineId};
pub use pool::ShardPool;
pub use shard::{ShardId, ShardMap};
