//! Processor power model and energy accounting.
//!
//! The paper normalizes the active power to `P_act = 1` (one energy unit
//! per unit of busy time) and controls static power with *dynamic power
//! down* (DPD): a processor whose idle interval exceeds the break-even
//! time `T_be` is shut down (Section II-A; the evaluation uses
//! `T_be = 1 ms`).
//!
//! Energies are reported in **unit-milliseconds**: 1.0 = one processor
//! running at `P_act = 1` for one millisecond, so the motivating examples'
//! "15 units" in the hyperperiod `[0,20]` come out as `15.0`.

use mkss_core::time::{Time, TICKS_PER_MS};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// An amount of energy in unit-milliseconds (`P_act = 1` for 1 ms).
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy value from unit-milliseconds.
    pub const fn from_units(units: f64) -> Self {
        Energy(units)
    }

    /// Energy of running at `power` (multiples of `P_act`) for `span`.
    pub fn from_span(span: Time, power: f64) -> Self {
        Energy(span.ticks() as f64 / TICKS_PER_MS as f64 * power)
    }

    /// The value in unit-milliseconds.
    pub const fn units(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        // mkss-lint: allow(float-fold-determinism) — Energy's own operator; accumulation order is each caller's contract, audited at their sites
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}u", self.0)
    }
}

/// Power model of one processor.
///
/// * While executing a job the processor draws `p_active` (normalized to
///   1.0 in the paper).
/// * While idle but awake it draws `p_idle` (static/leakage power; the
///   paper does not give a number — see DESIGN.md — so it is
///   configurable; the motivating-example tests use 0 to reproduce the
///   paper's pure *active* energy counts).
/// * While shut down it draws `p_sleep`.
/// * An idle interval longer than the break-even time `t_be` is worth a
///   shutdown: the model charges `t_be` at `p_idle` (the transition
///   overhead that defines the break-even point) and the remainder at
///   `p_sleep`. Shorter intervals idle at `p_idle` throughout.
///
/// # Examples
///
/// ```
/// use mkss_sim::power::PowerModel;
/// use mkss_core::time::Time;
///
/// let pm = PowerModel::default();
/// // 5 ms idle gap with T_be = 1 ms: 1 ms at p_idle=0.1, 4 ms asleep.
/// let e = pm.idle_interval_energy(Time::from_ms(5));
/// assert!((e.units() - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Power while executing (multiples of the normalized `P_act`).
    pub p_active: f64,
    /// Power while idle but awake.
    pub p_idle: f64,
    /// Power while shut down.
    pub p_sleep: f64,
    /// DPD break-even time `T_be`.
    pub t_be: Time,
}

impl Default for PowerModel {
    /// The evaluation model: `P_act = 1`, `T_be = 1 ms`, a 10% idle
    /// (leakage) power and negligible sleep power.
    fn default() -> Self {
        PowerModel {
            p_active: 1.0,
            p_idle: 0.1,
            p_sleep: 0.0,
            t_be: Time::from_ms(1),
        }
    }
}

impl PowerModel {
    /// The paper's motivating-example accounting: only active energy
    /// counts (`p_idle = p_sleep = 0`), `P_act = 1`, `T_be = 1 ms`.
    pub fn active_only() -> Self {
        PowerModel {
            p_active: 1.0,
            p_idle: 0.0,
            p_sleep: 0.0,
            t_be: Time::from_ms(1),
        }
    }

    /// Energy drawn while executing for `span`.
    pub fn active_energy(&self, span: Time) -> Energy {
        Energy::from_span(span, self.p_active)
    }

    /// Energy drawn over one maximal idle interval of length `span`,
    /// applying the DPD rule described on [`PowerModel`].
    pub fn idle_interval_energy(&self, span: Time) -> Energy {
        if span > self.t_be {
            Energy::from_span(self.t_be, self.p_idle)
                + Energy::from_span(span - self.t_be, self.p_sleep)
        } else {
            Energy::from_span(span, self.p_idle)
        }
    }
}

/// Energy totals of one processor, split by state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy while executing jobs.
    pub active: Energy,
    /// Energy of idle intervals (including the shutdown transition
    /// charges).
    pub idle: Energy,
    /// Total busy time.
    pub busy_time: Time,
    /// Total idle + sleep time.
    pub idle_time: Time,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Energy {
        self.active + self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_units(1.5);
        let b = Energy::from_units(2.0);
        assert_eq!((a + b).units(), 3.5);
        let mut c = Energy::ZERO;
        c += a;
        assert_eq!(c.units(), 1.5);
        let s: Energy = [a, b].into_iter().sum();
        assert_eq!(s.units(), 3.5);
        assert_eq!(a.to_string(), "1.500u");
    }

    #[test]
    fn active_energy_is_time_at_pact() {
        let pm = PowerModel::active_only();
        assert_eq!(pm.active_energy(Time::from_ms(3)).units(), 3.0);
        assert_eq!(pm.active_energy(Time::from_us(2_500)).units(), 2.5);
    }

    #[test]
    fn idle_below_break_even_idles() {
        let pm = PowerModel::default();
        let e = pm.idle_interval_energy(Time::from_us(800));
        assert!((e.units() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn idle_above_break_even_sleeps() {
        let pm = PowerModel::default();
        // 10 ms: 1 ms at 0.1 + 9 ms at 0.0.
        let e = pm.idle_interval_energy(Time::from_ms(10));
        assert!((e.units() - 0.1).abs() < 1e-12);
        // Break-even: exactly t_be idles fully.
        let e = pm.idle_interval_energy(Time::from_ms(1));
        assert!((e.units() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn dpd_is_never_worse_than_idling() {
        let pm = PowerModel::default();
        for ms in 1..50 {
            let span = Time::from_us(ms * 137);
            let dpd = pm.idle_interval_energy(span).units();
            let idle = Energy::from_span(span, pm.p_idle).units();
            assert!(dpd <= idle + 1e-12);
        }
    }

    #[test]
    fn active_only_model_zeroes_idle() {
        let pm = PowerModel::active_only();
        assert_eq!(pm.idle_interval_energy(Time::from_ms(10)).units(), 0.0);
    }

    #[test]
    fn breakdown_total() {
        let b = EnergyBreakdown {
            active: Energy::from_units(3.0),
            idle: Energy::from_units(0.5),
            busy_time: Time::from_ms(3),
            idle_time: Time::from_ms(5),
        };
        assert_eq!(b.total().units(), 3.5);
    }
}
