//! Integer tick time base used throughout the library.
//!
//! All scheduling arithmetic is done on integer *ticks* to keep the
//! simulator exactly deterministic. One millisecond is
//! [`TICKS_PER_MS`] = 1000 ticks, i.e. a tick is one microsecond. This is
//! fine enough to express every quantity in the paper (e.g. the deadline
//! `2.5 ms` of task τ1 in Fig. 3 is 2500 ticks) without any floating-point
//! rounding.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of ticks in one millisecond.
pub const TICKS_PER_MS: u64 = 1_000;

/// A point in time or a span of time, measured in integer ticks.
///
/// `Time` is used both as an *instant* (time since the synchronous release
/// at 0) and as a *duration*; the scheduling literature the paper builds on
/// does the same with its `t` values, and keeping one type avoids a large
/// amount of conversion noise in the analysis code.
///
/// # Examples
///
/// ```
/// use mkss_core::time::Time;
///
/// let period = Time::from_ms(5);
/// let deadline = Time::from_us(2_500); // 2.5 ms
/// assert!(deadline < period);
/// assert_eq!(period.as_ms_f64(), 5.0);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The instant zero / the empty duration.
    pub const ZERO: Time = Time(0);

    /// The largest representable time. Used as "never" by the simulator.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw ticks (microseconds).
    ///
    /// ```
    /// use mkss_core::time::Time;
    /// assert_eq!(Time::from_ticks(1_000), Time::from_ms(1));
    /// ```
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Creates a time from whole milliseconds. `ms * 1000` must fit in
    /// `u64` (≈ 584 000 years): past that, debug builds panic and release
    /// builds wrap, so untrusted input goes through [`Time::checked_from_ms`].
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * TICKS_PER_MS)
    }

    /// Creates a time from whole microseconds (identical to ticks).
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This time expressed in (possibly fractional) milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_MS as f64
    }

    /// This time in whole milliseconds, rounded up — pure integer
    /// arithmetic, exact for every tick count (unlike rounding
    /// [`Time::as_ms_f64`], which loses precision past 2⁵³ ticks).
    ///
    /// ```
    /// use mkss_core::time::Time;
    /// assert_eq!(Time::from_us(1).as_ms_ceil(), 1);
    /// assert_eq!(Time::from_ms(5).as_ms_ceil(), 5);
    /// ```
    #[inline]
    pub const fn as_ms_ceil(self) -> u64 {
        self.0.div_ceil(TICKS_PER_MS)
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    ///
    /// ```
    /// use mkss_core::time::Time;
    /// assert_eq!(Time::from_ms(3).saturating_sub(Time::from_ms(5)), Time::ZERO);
    /// ```
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: Time) -> Option<Time> {
        match self.0.checked_sub(rhs.0) {
            Some(t) => Some(Time(t)),
            None => None,
        }
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(t) => Some(Time(t)),
            None => None,
        }
    }

    /// Saturating addition: clamps at [`Time::MAX`].
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by a scalar job count.
    #[inline]
    pub const fn checked_mul(self, rhs: u64) -> Option<Time> {
        match self.0.checked_mul(rhs) {
            Some(t) => Some(Time(t)),
            None => None,
        }
    }

    /// Whole milliseconds as a time, or `None` when `ms * 1000` overflows.
    #[inline]
    pub const fn checked_from_ms(ms: u64) -> Option<Time> {
        Time(TICKS_PER_MS).checked_mul(ms)
    }

    /// `ceil(self / rhs)` as a count. Used by response-time analysis for the
    /// number of releases of a task with period `rhs` in a window of length
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_ceil(self, rhs: Time) -> u64 {
        assert!(rhs.0 != 0, "division by zero duration");
        self.0.div_ceil(rhs.0)
    }

    /// `floor(self / rhs)` as a count.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_floor(self, rhs: Time) -> u64 {
        assert!(rhs.0 != 0, "division by zero duration");
        self.0 / rhs.0
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Whether this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; overflow means ≈584k simulated years"
    )]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// # Panics
    ///
    /// Panics on underflow; use [`Time::saturating_sub`] when the operands
    /// may be unordered.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; underflow is documented, use saturating_sub"
    )]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "operator impls cannot return Result; job indices are horizon-bounded"
    )]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0.checked_mul(rhs).expect("time overflow"))
    }
}

impl Mul<Time> for u64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        rhs * self
    }
}

impl Div<Time> for Time {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Time) -> u64 {
        self.div_floor(rhs)
    }
}

impl Rem for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        assert!(rhs.0 != 0, "modulo by zero duration");
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "∞");
        }
        let ms = self.0 / TICKS_PER_MS;
        let frac = self.0 % TICKS_PER_MS;
        if frac == 0 {
            write!(f, "{ms}ms")
        } else {
            // Trim trailing zeros of the fractional millisecond part.
            let mut frac_str = format!("{frac:03}");
            while frac_str.ends_with('0') {
                frac_str.pop();
            }
            write!(f, "{ms}.{frac_str}ms")
        }
    }
}

/// Least common multiple of two tick counts, saturating at `u64::MAX`.
///
/// Task-set hyperperiods over random periods can exceed any practical
/// simulation horizon; saturating (rather than erroring) lets callers treat
/// "astronomical" and "infinite" uniformly and clamp to a horizon.
///
/// ```
/// use mkss_core::time::{lcm_time, Time};
/// assert_eq!(lcm_time(Time::from_ms(4), Time::from_ms(6)), Time::from_ms(12));
/// ```
pub fn lcm_time(a: Time, b: Time) -> Time {
    if a.is_zero() || b.is_zero() {
        return Time::ZERO;
    }
    let g = gcd(a.0, b.0);
    match (a.0 / g).checked_mul(b.0) {
        Some(l) => Time(l),
        None => Time::MAX,
    }
}

/// Greatest common divisor (Euclid).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(Time::from_ms(5).ticks(), 5_000);
        assert_eq!(Time::from_us(2_500).as_ms_f64(), 2.5);
        assert_eq!(Time::from_ticks(7).ticks(), 7);
        assert_eq!(Time::ZERO.ticks(), 0);
        assert!(Time::ZERO.is_zero());
        assert!(!Time::from_ms(1).is_zero());
    }

    #[test]
    fn checked_from_ms_refuses_what_from_ms_would_wrap() {
        let max = u64::MAX / TICKS_PER_MS;
        assert_eq!(Time::checked_from_ms(7), Some(Time::from_ms(7)));
        assert_eq!(Time::checked_from_ms(max), Some(Time::from_ms(max)));
        assert_eq!(Time::checked_from_ms(max + 1), None);
        assert_eq!(Time::checked_from_ms(u64::MAX), None);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ms(10);
        let b = Time::from_ms(3);
        assert_eq!(a + b, Time::from_ms(13));
        assert_eq!(a - b, Time::from_ms(7));
        assert_eq!(b * 4, Time::from_ms(12));
        assert_eq!(4 * b, Time::from_ms(12));
        assert_eq!(a % b, Time::from_ms(1));
        assert_eq!(a / b, 3);
    }

    #[test]
    fn add_assign_sub_assign() {
        let mut t = Time::from_ms(1);
        t += Time::from_ms(2);
        assert_eq!(t, Time::from_ms(3));
        t -= Time::from_ms(1);
        assert_eq!(t, Time::from_ms(2));
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    fn sub_underflow_panics() {
        let _ = Time::from_ms(1) - Time::from_ms(2);
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(
            Time::from_ms(1).saturating_sub(Time::from_ms(2)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_ms(2).saturating_sub(Time::from_ms(1)),
            Time::from_ms(1)
        );
        assert_eq!(Time::MAX.saturating_add(Time::from_ms(1)), Time::MAX);
        assert_eq!(Time::from_ms(1).checked_sub(Time::from_ms(2)), None);
        assert_eq!(
            Time::from_ms(3).checked_sub(Time::from_ms(1)),
            Some(Time::from_ms(2))
        );
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert_eq!(Time::MAX.checked_add(Time::from_ticks(1)), None);
        assert_eq!(
            Time::from_ms(1).checked_add(Time::from_ms(2)),
            Some(Time::from_ms(3))
        );
    }

    #[test]
    fn as_ms_ceil_is_exact() {
        assert_eq!(Time::ZERO.as_ms_ceil(), 0);
        assert_eq!(Time::from_us(1).as_ms_ceil(), 1);
        assert_eq!(Time::from_us(999).as_ms_ceil(), 1);
        assert_eq!(Time::from_ms(1).as_ms_ceil(), 1);
        assert_eq!(Time::from_us(1_001).as_ms_ceil(), 2);
        // Exact where the float round-trip is not: 2^53 + 1 ticks is not
        // representable as f64, so ceil(as_ms_f64()) under-counts.
        let big = (1u64 << 53) + 1;
        assert_eq!(Time::from_ticks(big).as_ms_ceil(), big.div_ceil(1_000));
        assert_eq!(Time::MAX.as_ms_ceil(), u64::MAX.div_ceil(1_000));
    }

    #[test]
    fn div_ceil_floor() {
        let w = Time::from_ms(10);
        let p = Time::from_ms(3);
        assert_eq!(w.div_ceil(p), 4);
        assert_eq!(w.div_floor(p), 3);
        assert_eq!(Time::from_ms(9).div_ceil(p), 3);
        assert_eq!(Time::ZERO.div_ceil(p), 0);
    }

    #[test]
    fn min_max() {
        let a = Time::from_ms(1);
        let b = Time::from_ms(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_iterator() {
        let total: Time = [1u64, 2, 3].iter().map(|&ms| Time::from_ms(ms)).sum();
        assert_eq!(total, Time::from_ms(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_ms(5).to_string(), "5ms");
        assert_eq!(Time::from_us(2_500).to_string(), "2.5ms");
        assert_eq!(Time::from_us(2_050).to_string(), "2.05ms");
        assert_eq!(Time::ZERO.to_string(), "0ms");
        assert_eq!(Time::MAX.to_string(), "∞");
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(
            lcm_time(Time::from_ms(4), Time::from_ms(6)),
            Time::from_ms(12)
        );
        assert_eq!(lcm_time(Time::ZERO, Time::from_ms(6)), Time::ZERO);
        // Saturation on overflow.
        let big = Time::from_ticks(u64::MAX - 1);
        let coprime = Time::from_ticks(u64::MAX - 2);
        assert_eq!(lcm_time(big, coprime), Time::MAX);
    }
}
