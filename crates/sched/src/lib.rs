//! # mlp-sched — scheduler framework and the Table VI baselines
//!
//! Defines the [`Scheduler`] interface that the trace-driven engine drives
//! (arrivals → scheduling rounds → span lifecycle → deviation callbacks)
//! and implements the paper's four comparison schemes:
//!
//! | Category | Scheme | Behaviour |
//! |---|---|---|
//! | Simple   | `FairSched`   | FCFS; every microservice gets an equal resource slice |
//! | Simple   | `CurSched`    | FCFS; places on the currently least-loaded machine |
//! | Advanced | `PartProfile` | priority queue; placement driven by execution-time profiles |
//! | Advanced | `FullProfile` | priority queue; reservation driven by the full (time + resource) profile |
//!
//! The paper's own scheme, v-MLP, lives in `mlp-core` and implements the
//! same trait.

pub mod baselines;
pub mod overload;
pub mod placement;
pub mod plan;
pub mod scheduler;
pub mod search;

pub use baselines::{CurSched, FairSched, FullProfile, PartProfile};
pub use overload::{
    pressure_signal, AdmissionRecord, AdmissionVerdict, BreakerBank, BreakerState,
    BreakerTransition, BrownoutController, OverloadConfig, OverloadRuntime, RetryBudget,
    ADMISSION_SLACK, RETRY_BURST, RETRY_RATE_PER_S,
};
pub use plan::{NodePlan, RequestInfo, RequestPlan};
pub use scheduler::{HealingAction, LateInfo, NodeFailure, PlanEnv, Scheduler, SchedulerCtx};
pub use search::{SearchConfig, SearchSched};
