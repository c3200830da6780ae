//! Typed validation errors for workload parameters.
//!
//! The generators used to `assert!` on bad parameters (non-positive peak
//! rate, empty request mix), which turns a config typo into a panic deep
//! inside a figure run. The checks now live in fallible `try_*`
//! constructors returning this enum; the engine's `Experiment::validate()`
//! maps it onto `mlp_engine::Error::InvalidConfig` so embedders see a
//! typed error before any simulation starts.

use std::fmt;

/// Why a set of workload parameters cannot describe a request stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The peak arrival rate must be positive and finite.
    NonPositiveRate(f64),
    /// The request mix must contain at least one `(type, weight)` pair.
    EmptyMix,
    /// Mix weights must be non-negative and sum to a positive value.
    BadMixWeights(f64),
    /// A rate schedule is structurally invalid (reversed segment, bad
    /// multiplier, negative ramp, …).
    InvalidSchedule(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NonPositiveRate(r) => {
                write!(f, "max_rate must be positive and finite, got {r}")
            }
            WorkloadError::EmptyMix => write!(f, "request mix must be non-empty"),
            WorkloadError::BadMixWeights(total) => write!(
                f,
                "request mix weights must be non-negative and sum to a positive value, got {total}"
            ),
            WorkloadError::InvalidSchedule(why) => write!(f, "invalid rate schedule: {why}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parameter() {
        assert!(WorkloadError::NonPositiveRate(-1.0).to_string().contains("max_rate"));
        assert!(WorkloadError::EmptyMix.to_string().contains("non-empty"));
        assert!(WorkloadError::BadMixWeights(0.0).to_string().contains("positive"));
        assert!(WorkloadError::InvalidSchedule("x".into()).to_string().contains("schedule"));
    }
}
