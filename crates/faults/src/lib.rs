//! # mlp-faults — deterministic fault injection
//!
//! Compiles an `ExperimentConfig`-level fault description
//! ([`FaultConfig`]) into a concrete, seeded [`FaultSchedule`]: machine
//! crash/recover windows, per-(request, node, attempt) transient execution
//! failures, and a network-degradation window that scales the tail-spike
//! parameters of the network model.
//!
//! Everything here is a pure function of `(config, machine_count, seed)`.
//! The engine consults the schedule at well-defined points (span start,
//! machine selection) so two runs with the same seed inject byte-identical
//! fault sequences regardless of scheduler behaviour. With
//! `FaultConfig::disabled()` (the default) the schedule is empty and the
//! engine's event stream is untouched.

use mlp_sim::time::SimTime;
use mlp_trace::span::RequestId;
use serde::{Deserialize, Serialize};

pub mod schedule;

pub use schedule::{FaultSchedule, MachineOutage};

/// Declarative fault model, embedded in the experiment configuration.
///
/// All times are milliseconds on the simulation clock. The config is
/// `Copy` (like `ExperimentConfig`) and fully serializable so fault
/// scenarios replay from JSON.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Master switch. `false` compiles to an empty schedule and leaves
    /// every simulation byte-identical to a fault-free run.
    pub enabled: bool,
    /// Number of machine crash windows injected inside the storm window.
    pub machine_crashes: u32,
    /// Start of the fault storm (crashes and degradation begin here).
    pub storm_start_ms: u64,
    /// Length of the window in which crashes are scattered.
    pub storm_duration_ms: u64,
    /// How long each crashed machine stays down before recovering.
    pub outage_ms: u64,
    /// Probability that one execution attempt of a DAG node fails
    /// transiently (decided per `(request, node, attempt)`).
    pub transient_fail_prob: f64,
    /// Network degradation window start (0 disables when duration is 0).
    pub degrade_start_ms: u64,
    /// Network degradation window length.
    pub degrade_duration_ms: u64,
    /// Multiplier applied to the network spike probability and magnitude
    /// while the degradation window is active (1.0 = no effect).
    pub degrade_factor: f64,
}

/// Hand-written so configs predating (or omitting) the fault model keep
/// loading: a missing `faults` object and missing individual fields both
/// fall back to [`FaultConfig::disabled`]'s values.
impl Deserialize for FaultConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let d = Self::disabled();
        fn field<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            fallback: T,
        ) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(x) => Deserialize::from_value(x)
                    .map_err(|e| e.in_context(&format!("FaultConfig.{name}"))),
                None => Ok(fallback),
            }
        }
        Ok(FaultConfig {
            enabled: field(v, "enabled", d.enabled)?,
            machine_crashes: field(v, "machine_crashes", d.machine_crashes)?,
            storm_start_ms: field(v, "storm_start_ms", d.storm_start_ms)?,
            storm_duration_ms: field(v, "storm_duration_ms", d.storm_duration_ms)?,
            outage_ms: field(v, "outage_ms", d.outage_ms)?,
            transient_fail_prob: field(v, "transient_fail_prob", d.transient_fail_prob)?,
            degrade_start_ms: field(v, "degrade_start_ms", d.degrade_start_ms)?,
            degrade_duration_ms: field(v, "degrade_duration_ms", d.degrade_duration_ms)?,
            degrade_factor: field(v, "degrade_factor", d.degrade_factor)?,
        })
    }

    fn absent(_field: &str) -> Result<Self, serde::Error> {
        Ok(Self::disabled())
    }
}

impl FaultConfig {
    /// No faults at all — the default for every existing experiment.
    pub fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            machine_crashes: 0,
            storm_start_ms: 0,
            storm_duration_ms: 0,
            outage_ms: 0,
            transient_fail_prob: 0.0,
            degrade_start_ms: 0,
            degrade_duration_ms: 0,
            degrade_factor: 1.0,
        }
    }

    /// The "fault storm" used by the fig_faults scenario: a burst of
    /// machine crashes mid-run, elevated transient failures, and a
    /// network-degradation window overlapping the crashes.
    pub fn storm() -> Self {
        FaultConfig {
            enabled: true,
            machine_crashes: 3,
            storm_start_ms: 8_000,
            storm_duration_ms: 10_000,
            outage_ms: 4_000,
            transient_fail_prob: 0.02,
            degrade_start_ms: 10_000,
            degrade_duration_ms: 8_000,
            degrade_factor: 4.0,
        }
    }

    /// True when the config can affect a simulation in any way.
    pub fn is_active(&self) -> bool {
        self.enabled
            && (self.machine_crashes > 0
                || self.transient_fail_prob > 0.0
                || (self.degrade_duration_ms > 0 && self.degrade_factor != 1.0))
    }

    /// Compiles this config into a concrete schedule for a cluster of
    /// `machine_count` machines, deterministically from `seed`.
    pub fn compile(&self, machine_count: usize, seed: u64) -> FaultSchedule {
        FaultSchedule::compile(self, machine_count, seed)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// SplitMix64 — the same mixing function `mlp-sim` uses for RNG forking;
/// used here to derive independent per-decision hash streams.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in [0, 1).
pub(crate) fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic verdict on whether one execution attempt of a DAG node
/// fails transiently. Pure function of the schedule seed and the
/// attempt's identity, so it is independent of event ordering.
pub fn attempt_fails(
    schedule: &FaultSchedule,
    request: RequestId,
    node: usize,
    attempt: u32,
    at: SimTime,
) -> bool {
    let p = schedule.transient_fail_prob_at(at);
    if p <= 0.0 {
        return false;
    }
    let mut h = schedule.seed() ^ 0xfa17_5eed_0000_0001;
    h = splitmix64(h ^ request.0);
    h = splitmix64(h ^ (node as u64).wrapping_shl(17));
    h = splitmix64(h ^ attempt as u64);
    hash_unit(h) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_fails_attempts() {
        let sched = FaultConfig::disabled().compile(8, 42);
        assert!(!sched.is_active());
        for req in 0..50u64 {
            assert!(!attempt_fails(&sched, RequestId(req), 0, 0, SimTime::from_millis(req)));
        }
    }

    #[test]
    fn attempt_verdicts_are_deterministic_and_attempt_sensitive() {
        let cfg = FaultConfig { transient_fail_prob: 0.5, ..FaultConfig::storm() };
        let a = cfg.compile(8, 7);
        let b = cfg.compile(8, 7);
        let t = SimTime::from_millis(9_000);
        let mut differs_by_attempt = false;
        for req in 0..100u64 {
            for node in 0..4 {
                for attempt in 0..3 {
                    let va = attempt_fails(&a, RequestId(req), node, attempt, t);
                    let vb = attempt_fails(&b, RequestId(req), node, attempt, t);
                    assert_eq!(va, vb, "verdict must be a pure function of identity");
                    if attempt > 0 && va != attempt_fails(&a, RequestId(req), node, attempt - 1, t)
                    {
                        differs_by_attempt = true;
                    }
                }
            }
        }
        assert!(differs_by_attempt, "retries must get fresh failure draws");
    }

    #[test]
    fn fail_rate_tracks_probability() {
        let cfg = FaultConfig { transient_fail_prob: 0.25, ..FaultConfig::storm() };
        let sched = cfg.compile(8, 3);
        let t = SimTime::from_millis(9_000);
        let fails =
            (0..4000u64).filter(|&req| attempt_fails(&sched, RequestId(req), 1, 0, t)).count();
        let rate = fails as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed rate {rate}");
    }
}
