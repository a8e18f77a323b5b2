//! Simulation clock types.
//!
//! All simulated time is expressed in integer **picoseconds** so that the
//! serialization time of a single 64 B frame on a 200 Gbps link (2.56 ns)
//! is still resolved exactly and arithmetic stays deterministic across
//! platforms. A `u64` picosecond counter wraps after ~213 days of simulated
//! time, far beyond any experiment in this repository.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use sim_core::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_nanos(5);
/// assert_eq!(t.as_picos(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
///
/// let d = SimDuration::from_micros(2) + SimDuration::from_nanos(500);
/// assert_eq!(d.as_nanos_f64(), 2_500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Raw picosecond count since simulation start.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Creates a span from fractional nanoseconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_nanos_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((ns * 1e3).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time it takes to serialize `bytes` at `rate_bps` bits per second,
    /// rounded up to a whole picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim_core::SimDuration;
    ///
    /// // 64 B at 200 Gbps = 2.56 ns.
    /// let d = SimDuration::serialization(64, 200_000_000_000);
    /// assert_eq!(d.as_picos(), 2_560);
    /// ```
    pub fn serialization(bytes: u64, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e12 / rate, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 8 * 1_000_000_000_000).div_ceil(rate_bps as u128);
        SimDuration(ps as u64)
    }

    /// Multiplies the span by a non-negative float factor, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ps", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_nanos(3).as_picos(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_picos(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_picos(), 3_000_000_000);
        assert_eq!(SimTime::from_secs(3).as_picos(), 3_000_000_000_000);
        assert_eq!(SimDuration::from_nanos(7).as_nanos_f64(), 7.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_picos(), 140_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t - d).as_picos(), 60_000);
        assert_eq!((d * 3).as_picos(), 120_000);
        assert_eq!((d / 4).as_picos(), 10_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(10));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_time_exact() {
        // 64 B at 200 Gbps = 2.56 ns
        assert_eq!(
            SimDuration::serialization(64, 200_000_000_000).as_picos(),
            2_560
        );
        // 1500 B at 25 Gbps = 480 ns
        assert_eq!(
            SimDuration::serialization(1500, 25_000_000_000).as_picos(),
            480_000
        );
        // Rounds up: 1 B at 3 bps.
        let d = SimDuration::serialization(1, 3);
        assert_eq!(
            d.as_picos(),
            (8u128 * 1_000_000_000_000u128).div_ceil(3) as u64
        );
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn serialization_zero_rate_panics() {
        let _ = SimDuration::serialization(64, 0);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimDuration::from_picos(12).to_string(), "12ps");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12.000ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(1200).to_string(), "1.200000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_picos(10);
        assert_eq!(d.mul_f64(1.26).as_picos(), 13);
        assert_eq!(d.mul_f64(0.0).as_picos(), 0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }
}
