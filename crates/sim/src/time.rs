//! Virtual time: microsecond-resolution instants and durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in whole microseconds since the
/// start of the run.
///
/// Microsecond resolution matches the paper's measurement granularity
/// (communication times in Fig 4 are reported in fractions of a
/// millisecond) while `u64` arithmetic keeps the event loop allocation- and
/// float-free.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in whole microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Time zero (start of the simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from fractional seconds (saturating at 0).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The instant as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Raw microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier`
    /// is actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from fractional milliseconds (rounded, floor 0).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1e3).round() as u64)
    }

    /// Builds a duration from fractional seconds (rounded, floor 0).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Raw microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Scales the duration by a non-negative factor (rounded).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis_f64(), 1500.0);
        assert_eq!(SimDuration::from_millis_f64(2.5).as_micros(), 2_500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(4), SimDuration::from_millis(11));
        // Saturating: earlier.since(later) is zero.
        assert_eq!(SimTime::from_millis(1).since(SimTime::from_millis(9)), SimDuration::ZERO);
    }

    #[test]
    fn negative_float_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_millis_f64(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(SimDuration::from_millis(10).mul_f64(1.5), SimDuration::from_millis(15));
        assert_eq!(SimDuration::from_millis(10).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(2500).to_string(), "2.500ms");
    }
}
