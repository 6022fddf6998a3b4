//! Simulated-time newtypes.
//!
//! The simulator counts microseconds in a `u64`, giving ~584 000 years of
//! range — overflow is not a practical concern. Distinct types for instants
//! ([`SimTime`]) and spans ([`SimDuration`]) prevent unit mix-ups at compile
//! time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since simulation start).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(&self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier is later than self"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating version of [`SimTime::duration_since`]: returns zero
    /// instead of panicking when `earlier` is later.
    pub fn saturating_duration_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds (rounded to microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
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

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

/// # Panics
///
/// Panics if `rhs` is longer than `self`, as [`SimTime::duration_since`]
/// does for an `earlier` that is later.
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(rhs.0 <= self.0, "duration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimTime::from_micros(1_500_000).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t - SimTime::from_micros(500_000), SimDuration::from_secs(1));
        assert_eq!(t.duration_since(SimTime::ZERO).as_secs_f64(), 1.5);
    }

    #[test]
    fn saturating_duration() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_duration_since(early).as_micros(), 10);
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }
}
