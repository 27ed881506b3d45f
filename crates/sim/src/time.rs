//! Simulated time.
//!
//! All timing in the simulator is expressed in integer **picoseconds** so
//! that event ordering is exact and reproducible: no floating-point drift,
//! no platform-dependent rounding. A picosecond base unit comfortably spans
//! sub-nanosecond analog settling times (crossbar reads) up to multi-second
//! experiment horizons (`u64` picoseconds ≈ 213 days).

use crate::num::round_to_u64;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, in picoseconds.
///
/// `SimDuration` is the additive companion of [`SimTime`]: durations add to
/// times, times subtract to durations.
///
/// # Examples
///
/// ```
/// use cim_sim::time::SimDuration;
///
/// let latency = SimDuration::from_ns(100) + SimDuration::from_ps(500);
/// assert_eq!(latency.as_ps(), 100_500);
/// assert_eq!(latency.as_ns_f64(), 100.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Creates a duration from a floating-point nanosecond count,
    /// rounding to the nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration(round_to_u64(ns * 1_000.0))
    }

    /// Creates a duration from a floating-point second count,
    /// rounding to the nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_to_u64(s * 1e12))
    }

    /// Duration in whole picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration in nanoseconds as a float.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration in microseconds as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Whether this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by an integer count.
    #[inline]
    pub const fn checked_mul(self, n: u64) -> Option<SimDuration> {
        match self.0.checked_mul(n) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Scales the duration by a float factor, rounding to the nearest
    /// picosecond. Negative factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// An absolute instant on the simulated clock, in picoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use cim_sim::time::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_ns(5);
/// assert_eq!(t1 - t0, SimDuration::from_ns(5));
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any reachable simulated instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from picoseconds since the epoch.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds since the epoch.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The duration since an earlier instant, saturating to zero if
    /// `earlier` is actually later.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_ps())
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_ps();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_ps())
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_ps(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_ps(self.0))
    }
}

/// Converts a frequency in hertz to the period of one cycle.
///
/// # Panics
///
/// Panics if `hz` is not strictly positive.
///
/// # Examples
///
/// ```
/// use cim_sim::time::{period_of_hz, SimDuration};
///
/// assert_eq!(period_of_hz(1e9), SimDuration::from_ns(1));
/// ```
pub fn period_of_hz(hz: f64) -> SimDuration {
    assert!(hz > 0.0, "frequency must be positive, got {hz}");
    SimDuration::from_ps(round_to_u64(1e12 / hz))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_unit_constructors_agree() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_ns(3);
        let b = SimDuration::from_ns(2);
        assert_eq!((a + b).as_ns_f64(), 5.0);
        assert_eq!((a - b).as_ns_f64(), 1.0);
        assert_eq!((a * 4).as_ns_f64(), 12.0);
        assert_eq!((a / 3).as_ps(), 1_000);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_ns_f64(1.5);
        assert_eq!(d.as_ps(), 1_500);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-12).as_ps(), 1);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        let d = SimDuration::from_ps(10);
        assert_eq!(d.mul_f64(1.26).as_ps(), 13);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering_and_difference() {
        let t0 = SimTime::from_ns(10);
        let t1 = t0 + SimDuration::from_ns(7);
        assert!(t1 > t0);
        assert_eq!(t1 - t0, SimDuration::from_ns(7));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
        assert_eq!(t1.saturating_since(t0), SimDuration::from_ns(7));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_ps(12).to_string(), "12ps");
        assert_eq!(SimDuration::from_ns(1).to_string(), "1.000ns");
        assert_eq!(SimDuration::from_us(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert!(SimTime::from_ns(1).to_string().starts_with("t+"));
    }

    #[test]
    fn period_of_common_frequencies() {
        assert_eq!(period_of_hz(1e12).as_ps(), 1);
        assert_eq!(period_of_hz(2e9).as_ps(), 500);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn period_of_zero_panics() {
        let _ = period_of_hz(0.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }

    #[test]
    fn checked_mul_detects_overflow() {
        assert!(SimDuration::from_ps(u64::MAX).checked_mul(2).is_none());
        assert_eq!(
            SimDuration::from_ps(7).checked_mul(3),
            Some(SimDuration::from_ps(21))
        );
    }
}
