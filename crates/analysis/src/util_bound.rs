//! Cheap necessary / sufficient utilization-based schedulability checks,
//! used as fast filters before the exact busy-window analysis.

use mkss_core::mk::Pattern;
use mkss_core::task::TaskSet;

/// Mandatory-load utilization of the set under a static pattern with
/// exactly `m` mandatory jobs per `k`: `Σ mᵢCᵢ/(kᵢPᵢ)`.
///
/// A value above 1.0 makes the set unschedulable on one processor under
/// any scheduling of the mandatory jobs (necessary condition); the exact
/// test is [`crate::rta::analyze`].
pub fn mandatory_utilization(ts: &TaskSet) -> f64 {
    ts.mk_utilization()
}

/// Liu–Layland style sufficient test on the mandatory load: if the
/// deeply-red mandatory jobs, treated as a synthetic task set with full
/// (per-window peak) rate, fit under the Liu–Layland bound
/// `n(2^{1/n} − 1)` with deadlines equal to periods, the set is
/// schedulable under the R-pattern.
///
/// This is *very* conservative — the deeply-red pattern's mandatory jobs
/// arrive back-to-back at the start of each window, so the peak rate of
/// task τᵢ is its full utilization `Cᵢ/Pᵢ`, not `mᵢCᵢ/(kᵢPᵢ)` — but it is
/// sound for constrained deadlines `D = P`, O(n), and catches the easy
/// cases without running the fixed-point analysis.
///
/// Returns `false` when any deadline is shorter than its period (the
/// bound does not apply); fall back to the exact test.
///
/// # Examples
///
/// ```
/// use mkss_analysis::util_bound::liu_layland_sufficient;
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let light = TaskSet::new(vec![
///     Task::from_ms(20, 20, 2, 1, 2)?,
///     Task::from_ms(30, 30, 3, 1, 3)?,
/// ])?;
/// assert!(liu_layland_sufficient(&light));
/// # Ok(())
/// # }
/// ```
pub fn liu_layland_sufficient(ts: &TaskSet) -> bool {
    let n = ts.len() as f64;
    let bound = n * (2f64.powf(1.0 / n) - 1.0);
    if ts.iter().any(|(_, task)| task.deadline() < task.period()) {
        return false;
    }
    let total = mkss_core::fold::sum_f64_by(ts.iter(), |(_, task)| task.utilization());
    total <= bound
}

/// Quick three-way verdict combining the necessary and sufficient bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: a three-way verdict (yes/no/undecided) is logically complete; consumers match exhaustively"
)]
pub enum QuickVerdict {
    /// Definitely schedulable under the R-pattern (sufficient bound met).
    Schedulable,
    /// Definitely not schedulable (mandatory utilization above 1).
    Unschedulable,
    /// The quick bounds cannot decide; run [`crate::rta::analyze`].
    Unknown,
}

/// Applies both quick bounds.
///
/// ```
/// use mkss_analysis::util_bound::{quick_verdict, QuickVerdict};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let heavy = TaskSet::new(vec![
///     Task::from_ms(5, 5, 4, 3, 4)?,
///     Task::from_ms(7, 7, 5, 4, 5)?,
/// ])?;
/// assert_eq!(quick_verdict(&heavy), QuickVerdict::Unschedulable);
/// # Ok(())
/// # }
/// ```
pub fn quick_verdict(ts: &TaskSet) -> QuickVerdict {
    if mandatory_utilization(ts) > 1.0 {
        return QuickVerdict::Unschedulable;
    }
    if liu_layland_sufficient(ts) {
        return QuickVerdict::Schedulable;
    }
    QuickVerdict::Unknown
}

/// The deeply-red mandatory jobs of the whole set repeat with the pattern
/// hyperperiod; this helper reports the exact average mandatory demand in
/// one hyperperiod as a fraction of its length (equals
/// [`mandatory_utilization`] when the hyperperiod is finite — a
/// consistency check used by tests).
pub fn mandatory_demand_fraction(ts: &TaskSet, pattern: Pattern) -> Option<f64> {
    let h = ts.hyperperiod();
    if h == mkss_core::time::Time::MAX {
        return None;
    }
    let demand = mkss_core::fold::sum_f64_by(ts.iter(), |(_, task)| {
        let jobs = h.div_floor(task.period());
        let mandatory = pattern.mandatory_among(task.mk(), jobs);
        (mandatory * task.wcet().ticks()) as f64
    });
    Some(demand / h.ticks() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::is_schedulable_r_pattern;
    use mkss_core::task::Task;

    fn set(tasks: &[(u64, u64, u64, u32, u32)]) -> TaskSet {
        TaskSet::new(
            tasks
                .iter()
                .map(|&(p, d, c, m, k)| Task::from_ms(p, d, c, m, k).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn mandatory_utilization_matches_task_set() {
        let ts = set(&[(5, 5, 1, 1, 2), (10, 10, 2, 1, 2)]);
        assert!((mandatory_utilization(&ts) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sufficient_bound_implies_exact_schedulability() {
        let ts = set(&[(20, 20, 2, 1, 2), (30, 30, 3, 1, 3), (40, 40, 4, 2, 5)]);
        assert!(liu_layland_sufficient(&ts));
        assert!(is_schedulable_r_pattern(&ts));
        assert_eq!(quick_verdict(&ts), QuickVerdict::Schedulable);
    }

    #[test]
    fn constrained_deadlines_defer_to_exact_test() {
        let ts = set(&[(20, 10, 2, 1, 2)]);
        assert!(!liu_layland_sufficient(&ts));
    }

    #[test]
    fn over_unit_mandatory_load_is_unschedulable() {
        let ts = set(&[(5, 5, 4, 3, 4), (7, 7, 5, 4, 5)]);
        assert_eq!(quick_verdict(&ts), QuickVerdict::Unschedulable);
        assert!(!is_schedulable_r_pattern(&ts));
    }

    #[test]
    fn undecided_region_exists() {
        // Heavy but under 100% mandatory load, above the LL bound
        // (total utilization 0.9 > 2(√2−1) ≈ 0.828; mandatory ≈ 0.64).
        let ts = set(&[(10, 10, 5, 3, 4), (15, 15, 6, 2, 3)]);
        assert_eq!(quick_verdict(&ts), QuickVerdict::Unknown);
    }

    #[test]
    fn demand_fraction_equals_mk_utilization() {
        let ts = set(&[(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)]);
        let frac = mandatory_demand_fraction(&ts, Pattern::DeeplyRed).unwrap();
        assert!((frac - ts.mk_utilization()).abs() < 1e-12);
    }
}
