//! Virtual time for the discrete-event engine.
//!
//! Time is an integer number of nanoseconds since the start of the
//! simulation. Integer time keeps the engine deterministic (no float
//! accumulation drift) while nanosecond resolution is fine enough for the
//! hardware models built on top (PCIe transfers, kernel launches, network
//! messages).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Build a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Build a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Build a duration from fractional seconds, rounding half away from
    /// zero to nanoseconds and saturating at `u64::MAX`. Negative and
    /// non-finite inputs are clamped to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        // Rounding without a libm call: below 2^53 the fraction `ns -
        // whole` is exact, and above it `ns` is already integral.
        let ns = s * 1e9;
        let whole = ns as u64;
        SimDuration(whole.saturating_add(u64::from(ns - whole as f64 >= 0.5)))
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// True if this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Scale by a non-negative float factor, rounding to nanoseconds.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Ratio of two durations as a float. Returns `f64::INFINITY` when the
    /// denominator is zero and the numerator is not, `0.0` when both are.
    #[inline]
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(5));
        assert_eq!(t.since(SimTime::ZERO).as_secs_f64(), 0.005);
    }

    #[test]
    fn subtraction_saturates() {
        let a = SimTime(10);
        let b = SimTime(20);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration(10));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration(1_500_000_000));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(SimDuration(5).ratio(SimDuration(0)), f64::INFINITY);
        assert_eq!(SimDuration(0).ratio(SimDuration(0)), 0.0);
        assert!((SimDuration(10).ratio(SimDuration(4)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_secs(1).mul_f64(0.25);
        assert_eq!(d, SimDuration::from_millis(250));
        assert_eq!(SimDuration::from_secs(1).mul_f64(-2.0), SimDuration::ZERO);
    }
}
