//! Simulated time.
//!
//! All dReDBox latency models work at nanosecond resolution: remote memory
//! round trips are hundreds of nanoseconds, while the orchestration-agility
//! experiment (Figure 10 of the paper) runs over tens of seconds. A `u64`
//! nanosecond counter covers both comfortably (~584 years of simulated time).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute instant in simulated time, measured in nanoseconds since the
/// start of the simulation.
///
/// ```
/// use dredbox_sim::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(2);
/// assert_eq!(t.as_nanos(), 2_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// ```
/// use dredbox_sim::time::SimDuration;
/// let d = SimDuration::from_millis(3) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros_f64(), 3_500.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    #[cfg(test)]
    pub(crate) const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub(crate) fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

/// `x.round() as u64` for a finite, non-negative `x`, in integer
/// operations rather than a libm `round` call. Below 2^52 the fraction
/// `x - trunc(x)` is exact, so comparing it with one half rounds half
/// away from zero as `f64::round` does; from 2^52 up every `f64` is an
/// integer, and the cast saturates past `u64::MAX` as before.
fn round_to_u64(x: f64) -> u64 {
    const FRACTIONLESS: f64 = 4_503_599_627_370_496.0; // 2^52
    if x < FRACTIONLESS {
        let whole = x as u64;
        whole + u64::from(x - whole as f64 >= 0.5)
    } else {
        x as u64
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative"
        );
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Creates a duration from a floating-point number of nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `nanos` is negative or not finite.
    pub fn from_nanos_f64(nanos: f64) -> Self {
        assert!(
            nanos.is_finite() && nanos >= 0.0,
            "nanoseconds must be finite and non-negative"
        );
        SimDuration(round_to_u64(nanos))
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
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

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns} ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3} us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        }
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_newtype!(SimTime(u64));
dredbox_snap::snap_newtype!(SimDuration(u64));

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_are_consistent() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let start = SimTime::from_micros(5);
        let later = start + SimDuration::from_nanos(123);
        assert_eq!(later.duration_since(start), SimDuration::from_nanos(123));
        assert_eq!(later - SimDuration::from_nanos(123), start);
    }

    #[test]
    fn saturating_duration_since_clamps_to_zero() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a), SimDuration::from_nanos(10));
    }

    #[test]
    #[should_panic]
    fn duration_since_panics_when_reversed() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_chooses_sensible_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17 ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000 us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000 ms");
        assert_eq!(SimDuration::from_secs(4).to_string(), "4.000 s");
    }

    #[test]
    fn from_float_constructors_round() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_nanos_f64(7.6).as_nanos(), 8);
        assert_eq!(SimDuration::from_nanos_f64(2.5).as_nanos(), 3);
        assert_eq!(
            SimDuration::from_nanos_f64(0.49999999999999994).as_nanos(),
            0
        );
        assert_eq!(SimDuration::from_nanos_f64(-0.0).as_nanos(), 0);
        assert_eq!(SimDuration::from_nanos_f64(1e30).as_nanos(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "nanoseconds must be finite and non-negative")]
    fn negative_nanoseconds_are_rejected() {
        SimDuration::from_nanos_f64(-0.5);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1_u64, 2, 3]
            .iter()
            .map(|&n| SimDuration::from_nanos(n))
            .sum();
        assert_eq!(total, SimDuration::from_nanos(6));
    }

    proptest! {
        #[test]
        fn add_then_subtract_is_identity(base in 0u64..1_000_000_000_000, delta in 0u64..1_000_000_000) {
            let t = SimTime::from_nanos(base);
            let d = SimDuration::from_nanos(delta);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!((t + d).duration_since(t), d);
        }

        #[test]
        fn rounding_matches_f64_round_on_halves(n in 0u64..1 << 54) {
            // n / 2 is exact: every integer and half below 2^53, and the
            // neighbours just either side of each half.
            let x = n as f64 / 2.0;
            for y in [x, f64::from_bits(x.to_bits().saturating_sub(1)), f64::from_bits(x.to_bits() + 1)] {
                prop_assert_eq!(SimDuration::from_nanos_f64(y).as_nanos(), y.round() as u64);
            }
        }

        #[test]
        fn rounding_matches_f64_round_on_integers_from_2_pow_52(n in 1u64 << 52..u64::MAX) {
            let x = n as f64;
            prop_assert_eq!(SimDuration::from_nanos_f64(x).as_nanos(), x.round() as u64);
        }

        #[test]
        fn rounding_saturates_past_u64_max_as_f64_round_does(x in 1.8446744073709552e19f64..1.0e300) {
            prop_assert_eq!(SimDuration::from_nanos_f64(x).as_nanos(), u64::MAX);
            prop_assert_eq!(SimDuration::from_nanos_f64(x).as_nanos(), x.round() as u64);
        }

        #[test]
        fn rounding_matches_f64_round_on_every_finite_bit_pattern(bits in 0u64..0x7FF0_0000_0000_0000) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(SimDuration::from_nanos_f64(x).as_nanos(), x.round() as u64);
            prop_assert_eq!(SimDuration::from_secs_f64(x / 1e9).as_nanos(), (x / 1e9 * 1e9).round() as u64);
        }

        #[test]
        fn duration_ordering_matches_nanos(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let da = SimDuration::from_nanos(a);
            let db = SimDuration::from_nanos(b);
            prop_assert_eq!(da < db, a < b);
        }
    }
}
