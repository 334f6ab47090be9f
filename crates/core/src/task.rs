//! Periodic tasks with (m,k)-firm constraints and fixed-priority task sets.
//!
//! A task is the 5-tuple `(P, D, C, m, k)` of the paper's system model:
//! period, (constrained) relative deadline, worst-case execution time, and
//! the (m,k) constraint. Priorities follow the paper's convention: τ_j has
//! lower priority than τ_i iff `j > i`, i.e. **index order is priority
//! order** within a [`TaskSet`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ValidateTaskError;
use crate::mk::MkConstraint;
use crate::time::{lcm_time, Time};

/// Identifier of a task inside a [`TaskSet`]: its index, which is also its
/// fixed priority (0 = highest).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 1-based in display, matching the paper's τ1, τ2, ….
        write!(f, "τ{}", self.0 + 1)
    }
}

/// A periodic (m,k)-firm task `(P, D, C, m, k)`.
///
/// # Examples
///
/// ```
/// use mkss_core::task::Task;
/// use mkss_core::time::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // τ1 = (5, 4, 3, 2, 4) from the paper's Section III example,
/// // in milliseconds.
/// let t = Task::new(
///     Time::from_ms(5),
///     Time::from_ms(4),
///     Time::from_ms(3),
///     2,
///     4,
/// )?;
/// assert_eq!(t.utilization(), 0.6);
/// assert_eq!(t.mk_utilization(), 0.3); // (m/k)·(C/P)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    period: Time,
    deadline: Time,
    wcet: Time,
    mk: MkConstraint,
}

impl Task {
    /// Creates a task `(P, D, C, m, k)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateTaskError`] if `P = 0`, `C = 0`, `D > P`,
    /// `C > D`, `0 < m < k` fails, or `k·P` overflows [`Time`].
    pub fn new(
        period: Time,
        deadline: Time,
        wcet: Time,
        m: u32,
        k: u32,
    ) -> Result<Self, ValidateTaskError> {
        let mk = MkConstraint::new(m, k)?;
        Self::with_constraint(period, deadline, wcet, mk)
    }

    /// Creates a task from an existing [`MkConstraint`].
    ///
    /// # Errors
    ///
    /// Same as [`Task::new`], minus the (m,k) validation.
    pub fn with_constraint(
        period: Time,
        deadline: Time,
        wcet: Time,
        mk: MkConstraint,
    ) -> Result<Self, ValidateTaskError> {
        if period.is_zero() {
            return Err(ValidateTaskError::ZeroPeriod);
        }
        if wcet.is_zero() {
            return Err(ValidateTaskError::ZeroWcet);
        }
        if deadline > period {
            return Err(ValidateTaskError::DeadlineExceedsPeriod { deadline, period });
        }
        if wcet > deadline {
            return Err(ValidateTaskError::WcetExceedsDeadline { wcet, deadline });
        }
        if period.checked_mul(u64::from(mk.k())).is_none() {
            return Err(ValidateTaskError::PatternPeriodOverflow { period, k: mk.k() });
        }
        Ok(Task {
            period,
            deadline,
            wcet,
            mk,
        })
    }

    /// Convenience constructor with all time quantities in whole
    /// milliseconds, matching the paper's examples.
    ///
    /// # Errors
    ///
    /// Same as [`Task::new`].
    pub fn from_ms(
        period_ms: u64,
        deadline_ms: u64,
        wcet_ms: u64,
        m: u32,
        k: u32,
    ) -> Result<Self, ValidateTaskError> {
        Task::new(
            Time::from_ms(period_ms),
            Time::from_ms(deadline_ms),
            Time::from_ms(wcet_ms),
            m,
            k,
        )
    }

    /// Period `P`.
    #[inline]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Relative deadline `D` (≤ `P`).
    #[inline]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Worst-case execution time `C`.
    #[inline]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// The (m,k) constraint.
    #[inline]
    pub fn mk(&self) -> MkConstraint {
        self.mk
    }

    /// Classic utilization `C/P`.
    pub fn utilization(&self) -> f64 {
        self.wcet.ticks() as f64 / self.period.ticks() as f64
    }

    /// (m,k)-utilization contribution `m·C / (k·P)` — the mandatory-load
    /// density under any pattern with exactly `m` mandatory jobs per `k`.
    pub fn mk_utilization(&self) -> f64 {
        self.utilization() * self.mk.ratio()
    }

    /// Release time of the `j`-th job (**1-based**): `(j − 1)·P`.
    ///
    /// # Panics
    ///
    /// Panics if `job_index` is zero.
    pub fn release_of(&self, job_index: u64) -> Time {
        assert!(job_index >= 1, "job indices are 1-based");
        self.period * (job_index - 1)
    }

    /// Absolute deadline of the `j`-th job (**1-based**).
    ///
    /// # Panics
    ///
    /// Panics if `job_index` is zero.
    pub fn deadline_of(&self, job_index: u64) -> Time {
        self.release_of(job_index) + self.deadline
    }

    /// The task's *pattern hyperperiod* `k·P`: the span after which the
    /// deeply-red pattern repeats.
    pub fn pattern_period(&self) -> Time {
        self.period * u64::from(self.mk.k())
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {})",
            self.period,
            self.deadline,
            self.wcet,
            self.mk.m(),
            self.mk.k()
        )
    }
}

/// An ordered set of tasks; index order is fixed-priority order
/// (index 0 = highest priority), as in the paper's system model.
///
/// # Examples
///
/// ```
/// use mkss_core::task::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The Section III motivating set.
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// assert_eq!(ts.len(), 2);
/// assert!((ts.mk_utilization() - (0.3 + 0.15)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a task set from tasks in priority order.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateTaskError::EmptyTaskSet`] if `tasks` is empty.
    pub fn new(tasks: Vec<Task>) -> Result<Self, ValidateTaskError> {
        if tasks.is_empty() {
            return Err(ValidateTaskError::EmptyTaskSet);
        }
        Ok(TaskSet { tasks })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: construction rejects empty sets. Provided for
    /// `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Fallible lookup.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0)
    }

    /// The tasks in priority order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Iterates over `(TaskId, &Task)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// All task ids in priority order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Total classic utilization `Σ Cᵢ/Pᵢ`, summed in priority order.
    pub fn utilization(&self) -> f64 {
        crate::fold::sum_f64_by(&self.tasks, Task::utilization)
    }

    /// Total (m,k)-utilization `Σ mᵢCᵢ/(kᵢPᵢ)` — the x-axis of the paper's
    /// Figure 6 — summed in priority order.
    pub fn mk_utilization(&self) -> f64 {
        crate::fold::sum_f64_by(&self.tasks, Task::mk_utilization)
    }

    /// The set's *pattern hyperperiod* `LCM_i(kᵢ·Pᵢ)`, saturating at
    /// [`Time::MAX`] when astronomically large.
    pub fn hyperperiod(&self) -> Time {
        self.tasks
            .iter()
            .map(Task::pattern_period)
            .fold(Time::from_ticks(1), lcm_time)
    }

    /// The *task-level* hyperperiod `LCM_{q ≤ i}(k_q·P_q)` used by
    /// Definition 5 for the postponement interval of τ_i (only tasks of
    /// equal or higher priority matter).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn hyperperiod_up_to(&self, id: TaskId) -> Time {
        assert!(id.0 < self.tasks.len(), "task id out of range");
        self.tasks[..=id.0]
            .iter()
            .map(Task::pattern_period)
            .fold(Time::from_ticks(1), lcm_time)
    }
}

impl FromIterator<Task> for TaskSet {
    /// Collects tasks in priority order.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty; use [`TaskSet::new`] for fallible
    /// construction.
    #[expect(
        clippy::expect_used,
        reason = "FromIterator cannot return Result; the panic is documented above"
    )]
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet::new(iter.into_iter().collect()).expect("non-empty task iterator")
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TaskSet ({} tasks):", self.tasks.len())?;
        for (id, t) in self.iter() {
            writeln!(f, "  {id} = {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(5, 4, 3, 2, 4).unwrap(),
            Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn task_validation() {
        assert!(Task::from_ms(5, 4, 3, 2, 4).is_ok());
        assert_eq!(
            Task::new(Time::ZERO, Time::ZERO, Time::ZERO, 1, 2),
            Err(ValidateTaskError::ZeroPeriod)
        );
        assert_eq!(
            Task::new(Time::from_ms(5), Time::from_ms(5), Time::ZERO, 1, 2),
            Err(ValidateTaskError::ZeroWcet)
        );
        assert!(matches!(
            Task::from_ms(5, 6, 3, 1, 2),
            Err(ValidateTaskError::DeadlineExceedsPeriod { .. })
        ));
        assert!(matches!(
            Task::from_ms(5, 3, 4, 1, 2),
            Err(ValidateTaskError::WcetExceedsDeadline { .. })
        ));
        assert!(matches!(
            Task::from_ms(5, 4, 3, 0, 2),
            Err(ValidateTaskError::InvalidMkPair { .. })
        ));
        let period = Time::from_ms(1_000_000_000_000_000);
        assert!(Task::new(period, period, period, 1, 18).is_ok());
        assert_eq!(
            Task::new(period, period, period, 1, 100),
            Err(ValidateTaskError::PatternPeriodOverflow { period, k: 100 })
        );
    }

    #[test]
    fn task_accessors_and_math() {
        let t = Task::from_ms(10, 8, 2, 1, 2).unwrap();
        assert_eq!(t.period(), Time::from_ms(10));
        assert_eq!(t.deadline(), Time::from_ms(8));
        assert_eq!(t.wcet(), Time::from_ms(2));
        assert_eq!(t.mk().m(), 1);
        assert_eq!(t.utilization(), 0.2);
        assert_eq!(t.mk_utilization(), 0.1);
        assert_eq!(t.pattern_period(), Time::from_ms(20));
    }

    #[test]
    fn job_release_and_deadline() {
        let t = Task::from_ms(5, 4, 3, 2, 4).unwrap();
        assert_eq!(t.release_of(1), Time::ZERO);
        assert_eq!(t.release_of(4), Time::from_ms(15));
        assert_eq!(t.deadline_of(1), Time::from_ms(4));
        assert_eq!(t.deadline_of(3), Time::from_ms(14));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn release_of_zero_panics() {
        let t = Task::from_ms(5, 4, 3, 2, 4).unwrap();
        t.release_of(0);
    }

    #[test]
    fn fractional_ms_deadline() {
        // τ1 = (5, 2.5, 2, 2, 4) from Fig. 3 — needs sub-ms resolution.
        let t = Task::new(
            Time::from_ms(5),
            Time::from_us(2_500),
            Time::from_ms(2),
            2,
            4,
        )
        .unwrap();
        assert_eq!(t.deadline().as_ms_f64(), 2.5);
    }

    #[test]
    fn task_set_basics() {
        let ts = fig1_set();
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.task(TaskId(0)).period(), Time::from_ms(5));
        assert!(ts.get(TaskId(5)).is_none());
        assert_eq!(ts.ids().count(), 2);
        assert_eq!((&ts).into_iter().count(), 2);
    }

    #[test]
    fn empty_task_set_rejected() {
        assert_eq!(TaskSet::new(vec![]), Err(ValidateTaskError::EmptyTaskSet));
    }

    #[test]
    fn utilizations() {
        let ts = fig1_set();
        assert!((ts.utilization() - 0.9).abs() < 1e-12);
        assert!((ts.mk_utilization() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn hyperperiods() {
        let ts = fig1_set();
        // k1·P1 = 20, k2·P2 = 20 → hyperperiod 20.
        assert_eq!(ts.hyperperiod(), Time::from_ms(20));
        assert_eq!(ts.hyperperiod_up_to(TaskId(0)), Time::from_ms(20));
        assert_eq!(ts.hyperperiod_up_to(TaskId(1)), Time::from_ms(20));

        // Fig. 5 set: τ1 = (10,10,3,2,3), τ2 = (15,15,8,1,2).
        let ts = TaskSet::new(vec![
            Task::from_ms(10, 10, 3, 2, 3).unwrap(),
            Task::from_ms(15, 15, 8, 1, 2).unwrap(),
        ])
        .unwrap();
        assert_eq!(ts.hyperperiod_up_to(TaskId(0)), Time::from_ms(30));
        assert_eq!(ts.hyperperiod_up_to(TaskId(1)), Time::from_ms(30));
    }

    #[test]
    fn display_forms() {
        let ts = fig1_set();
        assert_eq!(TaskId(0).to_string(), "τ1");
        assert_eq!(ts.task(TaskId(0)).to_string(), "(5ms, 4ms, 3ms, 2, 4)");
        let s = ts.to_string();
        assert!(s.contains("τ1"));
        assert!(s.contains("τ2"));
    }

    #[test]
    fn from_iterator() {
        let ts: TaskSet = vec![Task::from_ms(5, 4, 3, 2, 4).unwrap()]
            .into_iter()
            .collect();
        assert_eq!(ts.len(), 1);
    }
}
