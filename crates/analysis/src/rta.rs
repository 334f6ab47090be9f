//! Fixed-priority response-time analysis (RTA).
//!
//! Two interference models are provided:
//!
//! * [`InterferenceModel::AllJobs`] — classic RTA where every release of a
//!   higher-priority task interferes (the hard real-time setting of the
//!   dual-priority work the paper builds on).
//! * [`InterferenceModel::MandatoryOnly`] — only *mandatory* jobs under
//!   the static deeply-red (m,k) pattern interfere. All tasks'
//!   mandatory jobs are clustered at the start of each window of `k·P`
//!   releases, so the synchronous release at time 0 is the critical
//!   instant (this is exactly the "shift left" argument in the proof of
//!   the paper's Theorem 1).
//!
//! The analysis for (m,k) patterns must consider *every* mandatory job
//! inside the level-i busy window, not just the first. Every task has
//! `Dᵢ ≤ Pᵢ` and `m ≥ 1` by construction, so its first job is mandatory,
//! and when that job meets its deadline it closes the window before the
//! second release: one fixed point per task decides the test. The walk
//! over every job of the busy window is kept only as the test oracle.

use mkss_core::task::{Task, TaskId, TaskSet};
use mkss_core::time::Time;

/// Which releases of higher-priority tasks are counted as interference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the paper analyzes exactly the all-jobs and mandatory-only interference assumptions; consumers match exhaustively"
)]
pub enum InterferenceModel {
    /// Every job of every higher-priority task interferes.
    AllJobs,
    /// Only jobs that are mandatory under the deeply-red pattern
    /// interfere (optional jobs are never forced, so a sound mandatory-job
    /// guarantee may ignore them — the schemes ensure optional jobs always
    /// yield to mandatory ones via the MJQ/OJQ split).
    MandatoryOnly,
}

impl InterferenceModel {
    /// Number of interfering jobs of `task` released in a window `[0, t)`
    /// starting at the synchronous critical instant.
    fn interfering_jobs(self, task: &Task, t: Time) -> u64 {
        let releases = t.div_ceil(task.period());
        match self {
            InterferenceModel::AllJobs => releases,
            InterferenceModel::MandatoryOnly => task.mk().mandatory_among(releases),
        }
    }
}

/// Iteration cap for the fixed-point loops; generous for any realistic
/// task set, small enough to terminate quickly on pathological input.
const MAX_ITERATIONS: usize = 100_000;

/// Work `Σ_j N_j(t)·C_j` of every task of `tasks` released in `[0, t)`,
/// or `None` if it overflows [`Time`] (the window is then unbounded for
/// every practical purpose). Neither the sum nor its overflow depends on
/// the order of `tasks`: every term is non-negative, so some partial sum
/// overflows exactly when the whole does.
fn interfering_work(tasks: &[Task], model: InterferenceModel, t: Time) -> Option<Time> {
    tasks.iter().try_fold(Time::ZERO, |acc, task| {
        task.wcet()
            .checked_mul(model.interfering_jobs(task, t))?
            .checked_add(acc)
    })
}

/// Worst-case response time of the **first** job of `task_id` released at
/// the synchronous critical instant, under the given interference model,
/// or `None` if it exceeds the task's deadline (the task is then
/// unschedulable).
///
/// The fixed point is the classic
/// `R = C_i + Σ_{j<i} N_j(R)·C_j`
/// where `N_j` counts interfering jobs per [`InterferenceModel`].
///
/// # Examples
///
/// ```
/// use mkss_analysis::rta::{response_time, InterferenceModel};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Section III example: τ1 = (5,4,3,2,4), τ2 = (10,10,3,1,2).
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// let r1 = response_time(&ts, TaskId(0), InterferenceModel::AllJobs);
/// let r2 = response_time(&ts, TaskId(1), InterferenceModel::AllJobs);
/// // R1 = 3, R2 = 9 → promotion times Y1 = 4−3 = 1, Y2 = 10−9 = 1,
/// // matching the paper ("Y1 and Y2 … are calculated as 1 and 1").
/// assert_eq!(r1, Some(Time::from_ms(3)));
/// assert_eq!(r2, Some(Time::from_ms(9)));
/// # Ok(())
/// # }
/// ```
pub fn response_time(ts: &TaskSet, task_id: TaskId, model: InterferenceModel) -> Option<Time> {
    first_job_response(up_to(ts, task_id), model)
}

/// The tasks of `ts` from the highest priority down to `task_id`: the
/// slice whose last task is `task_id` and whose others interfere with it.
fn up_to(ts: &TaskSet, task_id: TaskId) -> &[Task] {
    &ts.tasks()[..=task_id.0]
}

/// Fixed-point solve of `R = demand + Σ_j N_j(R)·C_j` for the last task
/// of `tasks`, summed over all the others, bounded by `horizon`. `demand`
/// is the total own-task work that must finish (the test oracle's
/// busy-window walk passes several own jobs' work). The others may come
/// in any order (see [`interfering_work`]).
fn response_time_at(
    tasks: &[Task],
    model: InterferenceModel,
    demand: Time,
    horizon: Time,
) -> Option<Time> {
    let others = tasks.split_last().map_or(tasks, |(_, others)| others);
    let mut r = demand;
    for _ in 0..MAX_ITERATIONS {
        let next = demand.checked_add(interfering_work(others, model, r)?)?;
        if next == r {
            return Some(r);
        }
        if next > horizon {
            return None;
        }
        r = next;
    }
    None
}

/// Per-task result of a schedulability analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResponse {
    /// The analysed task.
    pub task: TaskId,
    /// Worst-case response time over all (mandatory) jobs in the level-i
    /// busy window, or `None` if some job misses its deadline.
    pub response_time: Option<Time>,
}

/// Outcome of analysing a whole task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulabilityReport {
    /// Interference model used.
    pub model: InterferenceModel,
    /// Per-task responses, in priority order.
    pub tasks: Vec<TaskResponse>,
}

impl SchedulabilityReport {
    /// Whether every task met its deadline.
    pub fn schedulable(&self) -> bool {
        self.tasks.iter().all(|t| t.response_time.is_some())
    }

    /// Worst-case response time of `task`, if schedulable.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for the analysed set.
    pub fn response_time(&self, task: TaskId) -> Option<Time> {
        self.tasks[task.0].response_time
    }
}

/// Analyses every task of `ts` with the busy-window RTA. Each task's
/// first job decides its level-i busy window (see the module doc), so this
/// is [`response_time`] per task.
///
/// For [`InterferenceModel::AllJobs`] this is the classic exact test for
/// constrained-deadline FP. For
/// [`InterferenceModel::MandatoryOnly`] it is the test behind
/// the paper's "schedulable under R-pattern" premise (Theorem 1): the
/// synchronous release is the critical instant because every task's
/// mandatory jobs are maximally clustered there.
///
/// ```
/// use mkss_analysis::rta::{analyze, InterferenceModel};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// let report = analyze(&ts, InterferenceModel::MandatoryOnly);
/// assert!(report.schedulable());
/// # Ok(())
/// # }
/// ```
pub fn analyze(ts: &TaskSet, model: InterferenceModel) -> SchedulabilityReport {
    let tasks = ts
        .ids()
        .map(|id| TaskResponse {
            task: id,
            response_time: response_time(ts, id, model),
        })
        .collect();
    SchedulabilityReport { model, tasks }
}

/// Is `ts` schedulable under the deeply-red pattern (the premise of
/// Theorem 1)?
///
/// Verdict-only, and always equal to
/// `analyze(ts, InterferenceModel::MandatoryOnly).schedulable()`:
/// it runs the same per-task test, from the lowest-priority task to the
/// highest, and stops at the first task that misses without building a
/// report. A generator rejection (the common case when the workload
/// generator fills high-utilization buckets) almost always fails the
/// lowest-priority task's first job, so it solves one fixed point.
///
/// ```
/// use mkss_analysis::rta::{analyze, is_schedulable_r_pattern, InterferenceModel};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // τ1 leaves τ2 too little room for its mandatory jobs.
/// let ts = TaskSet::new(vec![
///     Task::from_ms(4, 4, 3, 2, 3)?,
///     Task::from_ms(6, 6, 3, 2, 3)?,
/// ])?;
/// let report = analyze(&ts, InterferenceModel::MandatoryOnly);
/// assert!(!is_schedulable_r_pattern(&ts));
/// assert_eq!(is_schedulable_r_pattern(&ts), report.schedulable());
/// # Ok(())
/// # }
/// ```
pub fn is_schedulable_r_pattern(ts: &TaskSet) -> bool {
    (0..ts.len())
        .rev()
        .all(|i| response_time(ts, TaskId(i), InterferenceModel::MandatoryOnly).is_some())
}

/// Whether the **last** task of `tasks` meets its first job's deadline
/// at the synchronous release under the deeply-red pattern, with every
/// other task of `tasks` interfering: the step of
/// [`is_schedulable_r_pattern`] for one task. The others may come in any
/// order, so a caller can test the task it will sort last before it
/// sorts: the workload generator rejects most draws this way without
/// building a [`TaskSet`].
///
/// ```
/// use mkss_analysis::rta::first_job_meets;
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tau1 = Task::from_ms(4, 4, 3, 2, 3)?;
/// let tau2 = Task::from_ms(6, 6, 3, 2, 3)?;
/// assert!(first_job_meets(&[tau2]));
/// // τ2's first job finishes at 9 behind τ1's mandatory jobs at 0 and 4.
/// assert!(!first_job_meets(&[tau1, tau2]));
/// # Ok(())
/// # }
/// ```
pub fn first_job_meets(tasks: &[Task]) -> bool {
    tasks.is_empty() || first_job_response(tasks, InterferenceModel::MandatoryOnly).is_some()
}

/// Response time of the first job of the last task of `tasks` at the
/// synchronous release, or `None` if it misses its deadline.
fn first_job_response(tasks: &[Task], model: InterferenceModel) -> Option<Time> {
    let task = tasks.last()?;
    response_time_at(tasks, model, task.wcet(), task.deadline()).filter(|&r| r <= task.deadline())
}

/// Whether the `job_number`-th (1-based) job of `task` interferes under
/// `model`.
#[cfg(test)]
fn counts(model: InterferenceModel, task: &Task, job_number: u64) -> bool {
    match model {
        InterferenceModel::AllJobs => true,
        InterferenceModel::MandatoryOnly => task.mk().is_mandatory(job_number),
    }
}

/// The worst response time over all own (interfering) jobs in the
/// level-i busy window of the last task of `tasks`, started at the
/// synchronous release and cut off at `hyperperiod`, or `None` on a
/// deadline miss: the job-by-job walk that [`response_time`] replaces.
/// With `Dᵢ ≤ Pᵢ` and a mandatory first job, that job's response `R₁` is
/// also the busy window's length (up to `R₁` the busy-window equation and
/// the first job's agree, as no second own job is released yet), so no
/// later job is in the window and the two agree.
#[cfg(test)]
fn busy_window_walk(tasks: &[Task], model: InterferenceModel, hyperperiod: Time) -> Option<Time> {
    let task = tasks.last()?;
    // Length of the level-i busy window: L = Σ_{j<=i} N_j(L)·C_j.
    let busy_len = {
        let mut l = task.wcet();
        let mut iterations = 0;
        loop {
            // A sum that overflows `Time` is an unbounded busy window:
            // the hyperperiod saturates at `Time::MAX` for large sets,
            // so the cut-off below alone cannot stop the growth.
            let next = interfering_work(tasks, model, l)?;
            if next == l {
                break l;
            }
            iterations += 1;
            // Utilization ≥ 1 at this level → unbounded busy window. The
            // horizon `hyperperiod` is a safe cut-off: a busy window that
            // long necessarily contains a deadline miss for D ≤ P.
            if iterations > MAX_ITERATIONS || next > hyperperiod {
                return None;
            }
            l = next;
        }
    };

    let mut worst = Time::ZERO;
    let mut own_demand = Time::ZERO;
    let mut release_index = 0u64; // 0-based release counter
    loop {
        let release = task.period() * release_index;
        if release >= busy_len && release_index > 0 {
            break;
        }
        if counts(model, task, release_index + 1) {
            own_demand += task.wcet();
            // Finish time of this job: all own mandatory work up to and
            // including it, plus higher-priority interference.
            let finish = response_time_at(tasks, model, own_demand, release + task.deadline())?;
            if finish < release {
                // The busy window actually ended before this release; the
                // job starts a fresh (no-carry-in) window no worse than
                // the synchronous one already analysed.
                break;
            }
            let resp = finish - release;
            if resp > task.deadline() {
                return None;
            }
            worst = worst.max(resp);
        }
        release_index += 1;
        if release_index > 1_000_000 {
            // Defensive cap; busy windows this long only arise from
            // pathological inputs which `busy_len` bounds already.
            return None;
        }
    }
    Some(worst)
}

/// [`analyze`] by the busy-window walk of every task: the differential
/// tests' oracle.
#[cfg(test)]
pub(crate) fn analyze_by_walk(ts: &TaskSet, model: InterferenceModel) -> SchedulabilityReport {
    let hyperperiod = ts.hyperperiod();
    let tasks = ts
        .ids()
        .map(|id| TaskResponse {
            task: id,
            response_time: busy_window_walk(up_to(ts, id), model, hyperperiod),
        })
        .collect();
    SchedulabilityReport { model, tasks }
}

/// Promotion time `Y_i = D_i − R_i` (Eq. 2) for every task, or `None` if
/// some task is unschedulable under the model.
///
/// Backups scheduled with the dual-priority scheme may be released `Y_i`
/// late and still meet every deadline.
///
/// ```
/// use mkss_analysis::rta::{promotion_times, InterferenceModel};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// let y = promotion_times(&ts, InterferenceModel::AllJobs).unwrap();
/// assert_eq!(y, vec![Time::from_ms(1), Time::from_ms(1)]);
/// # Ok(())
/// # }
/// ```
pub fn promotion_times(ts: &TaskSet, model: InterferenceModel) -> Option<Vec<Time>> {
    let report = analyze(ts, model);
    ts.ids()
        .map(|id| report.response_time(id).map(|r| ts.task(id).deadline() - r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn classic_rta_single_task() {
        let ts = set(&[(10, 10, 4, 1, 2)]);
        assert_eq!(
            response_time(&ts, TaskId(0), InterferenceModel::AllJobs),
            Some(Time::from_ms(4))
        );
    }

    #[test]
    fn classic_rta_two_tasks() {
        let ts = set(&[(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)]);
        // τ2's first job: 3 own + two τ1 jobs (at 0 and 5) → R = 9.
        assert_eq!(
            response_time(&ts, TaskId(1), InterferenceModel::AllJobs),
            Some(Time::from_ms(9))
        );
    }

    #[test]
    fn paper_promotion_times_section_iii() {
        let ts = set(&[(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)]);
        let y = promotion_times(&ts, InterferenceModel::AllJobs).unwrap();
        assert_eq!(y, vec![Time::from_ms(1), Time::from_ms(1)]);
    }

    #[test]
    fn unschedulable_all_jobs() {
        // τ2 cannot fit: τ1 hogs 3 of every 4ms, τ2 needs 3 in 8.
        let ts = set(&[(4, 4, 3, 1, 2), (8, 8, 3, 1, 2)]);
        assert_eq!(
            response_time(&ts, TaskId(1), InterferenceModel::AllJobs),
            None
        );
        assert!(!analyze(&ts, InterferenceModel::AllJobs).schedulable());
    }

    #[test]
    fn mandatory_only_interference_is_lighter() {
        // Same set is schedulable once τ1's optional jobs are ignored:
        // (1,2) pattern halves τ1's interference.
        let ts = set(&[(4, 4, 3, 1, 2), (8, 8, 3, 1, 2)]);
        let model = InterferenceModel::MandatoryOnly;
        // τ2's first job: 3 own + τ1 mandatory jobs at 0 (mandatory), 4
        // (optional under (1,2): job 2) → only job 1 and job 3 (at 8)…
        // within R: R = 3+3 = 6 ≤ 8.
        assert_eq!(response_time(&ts, TaskId(1), model), Some(Time::from_ms(6)));
        assert!(analyze(&ts, model).schedulable());
    }

    #[test]
    fn fig3_set_schedulable_under_r_pattern() {
        // τ1 = (5, 2.5, 2, 2, 4), τ2 = (4, 4, 2, 2, 4).
        let ts = TaskSet::new(vec![
            Task::new(
                Time::from_ms(5),
                Time::from_us(2_500),
                Time::from_ms(2),
                2,
                4,
            )
            .unwrap(),
            Task::from_ms(4, 4, 2, 2, 4).unwrap(),
        ])
        .unwrap();
        assert!(is_schedulable_r_pattern(&ts));
    }

    #[test]
    fn fig5_set_schedulable_under_r_pattern() {
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        assert!(is_schedulable_r_pattern(&ts));
        let report = analyze(&ts, InterferenceModel::MandatoryOnly);
        // τ1 alone: R = 3. τ2: 8 own + interference.
        assert_eq!(report.response_time(TaskId(0)), Some(Time::from_ms(3)));
    }

    #[test]
    fn busy_window_checks_later_jobs() {
        // A case where the *second* mandatory job of τ2 is the critical
        // one. τ1 = (4,4,2,2,3); τ2 = (6,6,3,2,3): τ2 jobs at 0 and 6
        // are both mandatory; the level-2 busy window spans both.
        let ts = set(&[(4, 4, 2, 2, 3), (6, 6, 3, 2, 3)]);
        let model = InterferenceModel::MandatoryOnly;
        let report = analyze(&ts, model);
        // Busy window: τ1 mandatory at 0,4 (jobs 1,2; job 3 at 8 optional),
        // τ2 mandatory at 0,6.
        // t=0: τ1 J1 runs [0,2), τ2 J1 runs [2,5) with τ1 J2 preempting at
        // 4: τ2 J1 finishes… demand-based: F1 = 3 + N1(F1)*2:
        // F=5 → N1(5)=2 → F=7 ≥ deadline 6? N1(5)= ceil(5/4)=2 both
        // mandatory → F = 3+4 = 7 > 6 → unschedulable.
        assert!(!report.schedulable());
    }

    #[test]
    fn rta_respects_model_distinction() {
        let ts = set(&[(5, 5, 2, 1, 5), (7, 7, 3, 1, 2)]);
        let all = response_time(&ts, TaskId(1), InterferenceModel::AllJobs).unwrap();
        let mand = response_time(&ts, TaskId(1), InterferenceModel::MandatoryOnly).unwrap();
        assert!(mand <= all);
    }

    #[test]
    fn report_shape() {
        let ts = set(&[(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)]);
        let report = analyze(&ts, InterferenceModel::AllJobs);
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(report.tasks[0].task, TaskId(0));
        assert!(report.schedulable());
    }
}
