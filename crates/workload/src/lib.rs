//! # mlp-workload — workload patterns and request-stream generation
//!
//! Implements the paper's three realistic workload patterns (Fig 9, drawn
//! from a production datacenter): **L1** pulse-like peak, **L2** fluctuating
//! load, **L3** periodic wide peaks — plus the non-homogeneous Poisson
//! arrival generator that turns a rate curve and a request mix into a
//! concrete request stream, and a synthetic stand-in for the Alibaba
//! cluster-trace container-utilization data of Fig 3b.
//!
//! A run consumes its workload through one [`ArrivalSource`]: an
//! [`OpenLoopSource`] over a [`RateSchedule`] (steady, or a flash crowd)
//! draws each arrival lazily when the engine pulls it. [`generate_stream`]
//! materializes the identical stream up front; it is the dense oracle the
//! tests check the lazy path against (replayed through [`SliceSource`]),
//! and the Fig 9 pattern plots.

pub mod alibaba;
pub mod arrivals;
pub mod error;
pub mod patterns;
pub mod schedule;
pub mod source;

pub use alibaba::AlibabaTraceConfig;
pub use arrivals::{
    empirical_rate, generate_stream, try_generate_stream, validate_stream_params, Arrival,
};
pub use error::WorkloadError;
pub use patterns::WorkloadPattern;
pub use schedule::{RateSchedule, RateSegment, Sinusoid};
pub use source::{ArrivalSource, OpenLoopSource, SliceSource};
