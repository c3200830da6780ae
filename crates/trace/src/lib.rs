//! # mlp-trace — tracing, profiling, and metrics substrate
//!
//! The simulation-side equivalent of the paper's observability stack
//! (Section III-D / Table III): *Zipkin/Jaeger* distributed tracing becomes
//! [`span`] + [`collector`]; the per-container *dockerstats* history that
//! feeds scheduling becomes the [`profile`] store (the paper's
//! `s_i = [u_cpu, u_mem, u_io, l, Δt]` matrix of historical execution
//! cases); *Prometheus*-style counters live in [`metrics`].

pub mod audit;
pub mod collector;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod zipkin;

pub use audit::{AuditLog, Decision, DecisionKind};
pub use collector::{LatencyBreakdown, RequestRecord, TraceCollector};
pub use metrics::MetricsRegistry;
pub use profile::{ExecutionCase, ProfileStore};
pub use span::{RequestId, Span};
