//! Simulated time.
//!
//! Time is measured in whole microseconds held in a `u64`. Integer ticks make
//! event ordering exact and reproducible: two events scheduled at the same
//! instant compare equal and fall back to the scheduling sequence number,
//! which floating-point timestamps cannot guarantee across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of microsecond ticks per second.
pub const TICKS_PER_SECOND: u64 = 1_000_000;

/// A span of simulated time (non-negative, microsecond resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw microsecond ticks.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * TICKS_PER_SECOND)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond with ties away from zero. NaN, negative values, `-0.0`
    /// and `-∞` map to zero; `+∞` and anything that rounds to 2⁶⁴ µs or
    /// more saturate to `u64::MAX` µs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return Duration::ZERO;
        }
        let ticks = secs * TICKS_PER_SECOND as f64;
        // Round half away from zero without libm. Below 2⁵³ a double can
        // carry a fraction: truncate, then add one when the remainder is at
        // least a half. The remainder is exact: `whole` is 0, or
        // `whole ≤ ticks < 2·whole` (Sterbenz).
        if ticks < (1u64 << 53) as f64 {
            let whole = ticks as i64;
            return Duration((whole + i64::from(ticks - whole as f64 >= 0.5)) as u64);
        }
        // From 2⁵³ up every double is an integer. 2⁶⁴ is exact as a
        // double, and `+∞` saturates too.
        if ticks >= u64::MAX as f64 {
            Duration(u64::MAX)
        } else {
            Duration(ticks as u64)
        }
    }

    /// Raw microsecond ticks.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a non-negative scalar, rounding to the
    /// nearest tick.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// An absolute instant on the simulated clock.
///
/// The simulation epoch is `SimTime::ZERO`; instants only ever move forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microsecond ticks since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SECOND)
    }

    /// Creates an instant from fractional seconds since the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(Duration::from_secs_f64(secs).as_micros())
    }

    /// Raw microsecond ticks since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since called with a later instant"),
        )
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is in the future.
    pub const fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_micros()))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_roundtrips_through_seconds() {
        let d = Duration::from_secs_f64(1.5);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_from_negative_seconds_clamps_to_zero() {
        for secs in [
            -3.0,
            f64::NAN,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            -f64::MIN_POSITIVE,
        ] {
            assert_eq!(Duration::from_secs_f64(secs), Duration::ZERO, "{secs}");
            assert_eq!(SimTime::from_secs_f64(secs), SimTime::ZERO, "{secs}");
        }
    }

    #[test]
    fn duration_from_huge_seconds_saturates() {
        // 2⁶⁴ µs and up saturate; 1.8 · 10¹⁹ µs, just below, converts.
        let two_64_us = 2f64.powi(64) / 1e6;
        for secs in [f64::INFINITY, 1e30, two_64_us, f64::MAX] {
            assert_eq!(
                Duration::from_secs_f64(secs).as_micros(),
                u64::MAX,
                "{secs}"
            );
            assert_eq!(SimTime::from_secs_f64(secs), SimTime::MAX, "{secs}");
        }
        assert_eq!(
            Duration::from_secs_f64(1.8e13).as_micros(),
            18_000_000_000_000_000_000
        );
    }

    #[test]
    fn duration_rounds_half_away_from_zero() {
        // 0.5 µs, 2.5 µs and 1.5 s + 0.5 µs are exact products of `× 1e6`.
        assert_eq!(Duration::from_secs_f64(0.5e-6).as_micros(), 1);
        assert_eq!(Duration::from_secs_f64(2.5e-6).as_micros(), 3);
        assert_eq!(Duration::from_secs_f64(1.500_000_5).as_micros(), 1_500_001);
        assert_eq!(Duration::from_secs_f64(0.499_999e-6).as_micros(), 0);
        assert_eq!(Duration::from_secs_f64(5e-324).as_micros(), 0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(250);
        let b = Duration::from_millis(750);
        assert_eq!(a + b, Duration::from_secs(1));
        assert_eq!(b - a, Duration::from_millis(500));
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(a.mul_f64(4.0), Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_millis(1) - Duration::from_millis(2);
    }

    #[test]
    fn simtime_advances_and_diffs() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_secs(10);
        assert_eq!(t1.since(t0), Duration::from_secs(10));
        assert_eq!(t1 - t0, Duration::from_secs(10));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn simtime_ordering_is_total() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(6);
        assert!(a < b);
        assert!(b <= SimTime::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", Duration::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "t=2.000000s");
    }
}
