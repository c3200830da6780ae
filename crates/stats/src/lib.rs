//! # mlp-stats — statistics substrate for the v-MLP reproduction
//!
//! Streaming summaries and quantiles, empirical CDFs, random-variate
//! distributions, and fixed-step time series. Every evaluation figure in the
//! paper (CDFs in Figs 2/3c, percentile plots in Figs 12/13, utilization
//! curves in Figs 3b/11) is computed through this crate.
//!
//! Distributions are implemented directly on top of [`rand`]'s uniform
//! source (inverse transform / Box–Muller) so no extra dependency is needed.

pub mod cdf;
pub mod dist;
pub mod quantile;
pub mod ranked;
pub mod summary;
pub mod timeseries;

pub use cdf::Cdf;
pub use dist::{Dist, Distribution};
pub use quantile::P2Quantile;
pub use ranked::RankedSamples;
pub use summary::Summary;
pub use timeseries::TimeSeries;
