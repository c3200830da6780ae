//! # mlp-core — v-MLP, volatility-aware Microservice Level Parallelism
//!
//! The paper's contribution (Section III): a scheduler that treats the
//! *microservice chains* spawned by user requests as the unit of parallel
//! scheduling, and manages them under uncertainty.
//!
//! Components:
//!
//! * [`volatility`] — the request-volatility metric
//!   `V_r = α · Σ I·S·C / n` (Table II) and its Low/Medium/High bands.
//! * [`reorder`] — the reorder ratio `R` that prioritizes the waiting
//!   queue (a blend of volatility, SLA urgency, FCFS waiting time, and
//!   SJF's preference for short jobs, per Section III-E).
//! * [`reorder_index`] — the incremental waiting-queue index: per-(shard,
//!   type) arrival-ordered deques whose lazy head merge replays the
//!   reorder sort's exact order without re-sorting the queue each round.
//! * [`organizer`] — the **self-organizing module** (Algorithm 1):
//!   volatility-banded Δt estimation and ledger-checked placement.
//! * [`healer`] — the **self-healing module** (Section III-F): delay-slot
//!   filling and resource stretch on late invocations.
//! * [`scheduler`] — [`VMlpScheduler`], the composition of the above
//!   behind the common [`mlp_sched::Scheduler`] trait. The
//!   [`mlp_sched::SchedulerCtx`] it receives *is* the paper's "interface
//!   layer" (Section III-D): the machine ledgers and live grants that the
//!   paper's monitors read and its controllers set
//!   ([`mlp_cluster::Machine`]), and the execution-case profiles its
//!   tracer feeds back ([`mlp_trace::ProfileStore`]), abstracted away from
//!   the request handler above.
//! * [`parallelism`] — the ILP/TLP/MLP/RLP taxonomy of Table I.

pub mod healer;
pub mod organizer;
pub mod parallelism;
pub mod reorder;
pub mod reorder_index;
pub mod scheduler;
pub mod volatility;

pub use scheduler::{VMlpConfig, VMlpScheduler, HEAL_FANOUT};
pub use volatility::{Volatility, VolatilityBand};
