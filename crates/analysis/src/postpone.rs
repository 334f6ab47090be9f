//! Backup release postponement (Section IV, Definitions 2–5).
//!
//! To let main jobs finish early and cancel their backups, backup jobs on
//! the spare processor are released as late as provably safe:
//! `r̃_i = r_i + θ_i` (Eq. 3). The *release postponement interval* `θ_i`
//! is found by an offline inspecting-point analysis over the static
//! deeply-red pattern:
//!
//! * the *inspecting points* of a backup job `J′_ij` are its absolute
//!   deadline and every postponed release of a higher-priority backup job
//!   falling strictly inside `(r_ij, d_ij)` (Definition 3);
//! * `θ_ij = max over inspecting points t̄ of
//!   (t̄ − (c_ij + Σ interfering higher-priority WCETs) − r_ij)` where the
//!   interfering jobs are those with `d_kl > r_ij` and `r̃_kl < t̄`
//!   (Definition 4, Eq. 4);
//! * `θ_i = min over the backup jobs in the level-i pattern hyperperiod
//!   LCM_{q≤i}(k_q·P_q)` (Definition 5, Eq. 5), computed in descending
//!   priority order with releases revised level by level.
//!
//! If `θ_i` comes out below the dual-priority *promotion time*
//! `Y_i = D_i − R_i`, the promotion time is used instead — postponing by
//! `Y_i` is always safe (the paper words the fallback as "set θ_i to be
//! R_i", which we read as the promotion-time bound; see DESIGN.md).
//! The same fallback is used when the level-i pattern hyperperiod is too
//! large to enumerate, which keeps the analysis sound on arbitrary random
//! task sets.
//!
//! θ is exact only for the R-pattern's job positions. It serves
//! `MKSS_DP_theta`, whose static pattern keeps them, and the Fig. 5
//! worked example. The selective scheme backs up with `Y_i` instead: its
//! dynamic pattern moves mandatory jobs, and a θ-delayed backup then
//! misses after a permanent fault (DESIGN §7).
//!
//! Each job's Eq. 4 costs O(i + p log p) for `p` inspecting points: the
//! deadline's demand is a closed-form count per higher-priority task, and
//! the other points are sorted and swept in time order with a running
//! demand. The level-i hyperperiods are one running LCM over the tasks.

use mkss_core::task::{Task, TaskId, TaskSet};
use mkss_core::time::{lcm_time, Time};
use std::error::Error as StdError;
use std::fmt;

use crate::rta::{analyze, InterferenceModel, SchedulabilityReport};

/// Error from the postponement analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PostponeError {
    /// The task set is not schedulable under the pattern, so no safe
    /// postponement exists (the promotion-time fallback is undefined).
    Unschedulable {
        /// First unschedulable task.
        task: TaskId,
    },
}

impl fmt::Display for PostponeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostponeError::Unschedulable { task } => {
                write!(f, "task {task} is unschedulable under the pattern")
            }
        }
    }
}

impl StdError for PostponeError {}

/// If the level-i pattern hyperperiod contains more than this many jobs
/// of τ_i, [`postponement_intervals`] skips the inspecting-point analysis
/// for τ_i and uses the promotion time `Y_i` (sound, merely less
/// aggressive).
pub const MAX_JOBS_PER_TASK: u64 = 2_000;

/// Outcome of the raw inspecting-point analysis for one task, before the
/// promotion-time fallback is applied.
///
/// The three cases were previously conflated into an `Option<Time>` that
/// mapped a negative raw θ through `u64::try_from(..).ok()`, making "θ
/// clamped to the promotion floor" indistinguishable from "hyperperiod too
/// large to enumerate". They answer different questions — the first says
/// the analysis ran and was beaten by the floor, the second that it never
/// ran — so they are separate variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the raw-vs-floored dichotomy is Definition 4's case split; a third case cannot exist"
)]
pub enum RawTheta {
    /// The inspecting-point minimum, which is at or above the promotion
    /// floor `Y_i` and therefore *is* the effective θ_i.
    Exact(Time),
    /// The analysis ran but its minimum fell strictly below the promotion
    /// floor (possibly below zero); θ_i clamps to `Y_i`. The sub-floor
    /// value is not reported: the enumeration stops as soon as the floor
    /// is breached, so a full (and useless) minimum is never computed.
    BelowFloor,
    /// The level-i pattern hyperperiod held more than
    /// [`MAX_JOBS_PER_TASK`] jobs of τ_i, so the enumeration was
    /// skipped and θ_i falls back to `Y_i` (sound, merely conservative).
    NotEnumerated,
}

/// Result of the postponement analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postponement {
    /// Per-task release postponement interval `θ_i` (already including the
    /// promotion-time fallback), in priority order.
    pub theta: Vec<Time>,
    /// Per-task promotion times `Y_i` (Eq. 2) under mandatory-only
    /// interference, for reference.
    pub promotion: Vec<Time>,
    /// Per-task raw inspecting-point results before the fallback.
    pub raw_theta: Vec<RawTheta>,
}

impl Postponement {
    /// Postponed release of the `j`-th (1-based) backup job of `task`:
    /// `r̃ = (j−1)·P + θ` (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for the analysed set or `j` is 0.
    pub fn postponed_release(&self, ts: &TaskSet, task: TaskId, j: u64) -> Time {
        ts.task(task).release_of(j) + self.theta[task.0]
    }
}

/// Computes the per-task release postponement intervals `θ_i`
/// (Definitions 2–5) for the backup tasks on the spare processor.
///
/// # Errors
///
/// Returns [`PostponeError::Unschedulable`] if some task fails the
/// mandatory-only response-time analysis — the paper's premise (Theorem 1)
/// requires schedulability under the R-pattern.
///
/// # Examples
///
/// The paper's worked example (Fig. 5): τ1 = (10,10,3,2,3),
/// τ2 = (15,15,8,1,2) give θ1 = 7 and θ2 = 4.
///
/// ```
/// use mkss_analysis::postpone::postponement_intervals;
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(10, 10, 3, 2, 3)?,
///     Task::from_ms(15, 15, 8, 1, 2)?,
/// ])?;
/// let post = postponement_intervals(&ts)?;
/// assert_eq!(post.theta, vec![Time::from_ms(7), Time::from_ms(4)]);
/// # Ok(())
/// # }
/// ```
pub fn postponement_intervals(ts: &TaskSet) -> Result<Postponement, PostponeError> {
    let report = analyze(ts, InterferenceModel::MandatoryOnly);
    let mut points = Vec::new();
    postpone_with(ts, &report, |job, theta, stop_at| {
        theta_for_job(ts, job, theta, stop_at, &mut points)
    })
}

/// A backup job of τ_i, by task and release `r`, with absolute deadline
/// `d`.
#[derive(Clone, Copy)]
struct Job {
    task: TaskId,
    r: Time,
    d: Time,
}

/// [`postponement_intervals`] with the promotion floors of `report` and
/// each job's `θ_ij` (Eq. 4) from `theta_for_job(job, theta, stop_at)`,
/// given the already-fixed `theta` of the higher-priority tasks; see
/// [`min_theta_over_jobs`] for `stop_at`.
fn postpone_with(
    ts: &TaskSet,
    report: &SchedulabilityReport,
    mut theta_for_job: impl FnMut(Job, &[Time], i128) -> i128,
) -> Result<Postponement, PostponeError> {
    let mut promotion = Vec::with_capacity(ts.len());
    for id in ts.ids() {
        match report.response_time(id) {
            Some(r) => promotion.push(ts.task(id).deadline() - r),
            None => return Err(PostponeError::Unschedulable { task: id }),
        }
    }

    let mut theta: Vec<Time> = Vec::with_capacity(ts.len());
    let mut raw_theta: Vec<RawTheta> = Vec::with_capacity(ts.len());
    // `ts.hyperperiod_up_to(i)`, one LCM step per task.
    let mut horizon = Time::from_ticks(1);

    for (i, task) in ts.iter() {
        horizon = lcm_time(horizon, task.pattern_period());
        let jobs_in_horizon = if horizon == Time::MAX {
            u64::MAX
        } else {
            horizon.div_floor(task.period())
        };

        let floor = promotion[i.0].ticks() as i128;
        let raw = if jobs_in_horizon > MAX_JOBS_PER_TASK {
            RawTheta::NotEnumerated
        } else {
            match min_theta_over_jobs(ts, i, jobs_in_horizon, floor, |job, stop_at| {
                theta_for_job(job, &theta, stop_at)
            }) {
                t if t < floor => RawTheta::BelowFloor,
                // t ≥ floor ≥ 0, so the u64 cast is exact.
                t => RawTheta::Exact(Time::from_ticks(t as u64)),
            }
        };
        raw_theta.push(raw);

        // Fallback / floor: the promotion time is always safe; never go
        // below it (nor below zero).
        let effective = match raw {
            RawTheta::Exact(t) => t,
            RawTheta::BelowFloor | RawTheta::NotEnumerated => promotion[i.0],
        };
        theta.push(effective);
    }

    Ok(Postponement {
        theta,
        promotion,
        raw_theta,
    })
}

/// `min_j θ_ij` (Eq. 5) over the mandatory jobs of τ_i in its level-i
/// pattern hyperperiod, each job's `θ_ij` from `theta_for_job(job,
/// stop_at)`. The horizon holds at least `k_i` jobs, and the first is
/// mandatory (`m_i ≥ 1`), so the minimum is over at least one job.
///
/// Two cutoffs keep the enumeration cheap without changing the effective
/// θ_i: a job's inspecting-point scan may stop once its running max
/// reaches `stop_at`, the minimum so far (a value that can only tie or
/// exceed the min is interchangeable with the exact θ_ij), and the job
/// loop stops once the minimum falls strictly below `floor` (θ_i clamps
/// to the promotion time either way — the caller reports
/// [`RawTheta::BelowFloor`], not a value).
fn min_theta_over_jobs(
    ts: &TaskSet,
    i: TaskId,
    jobs_in_horizon: u64,
    floor: i128,
    mut theta_for_job: impl FnMut(Job, i128) -> i128,
) -> i128 {
    let task = ts.task(i);
    let mut min_theta = i128::MAX;
    for j in 1..=jobs_in_horizon {
        if !task.mk().is_mandatory(j) {
            continue;
        }
        let r = task.release_of(j);
        let job = Job {
            task: i,
            r,
            d: r + task.deadline(),
        };
        min_theta = min_theta.min(theta_for_job(job, min_theta));
        if min_theta < floor {
            break;
        }
    }
    min_theta
}

/// Number of jobs `l ≥ 1` of a task with period `p` whose shifted release
/// `(l−1)·p + offset` is strictly before `x`.
fn jobs_released_before(x: Time, offset: Time, p: Time) -> u64 {
    match x.checked_sub(offset) {
        Some(gap) if !gap.is_zero() => (gap - Time::from_ticks(1)).div_floor(p) + 1,
        _ => 0,
    }
}

/// Interfering work `c_kl` of the higher-priority backup jobs `l` of τ_k
/// with `d_kl > r` (Eq. 4), among the mandatory jobs `l ≤ selected`:
/// `d_kl > r` excludes a prefix of the jobs, so they are those with
/// index in (excluded, selected].
fn interfering_mandatory_work(hp: &Task, excluded: u64, selected: u64) -> i128 {
    if selected <= excluded {
        return 0;
    }
    let count = hp.mk().mandatory_among(selected) - hp.mk().mandatory_among(excluded);
    hp.wcet().ticks() as i128 * count as i128
}

/// `θ_ij` (Eq. 4) for `job`, the backup job of τ_i with release `r` and
/// absolute deadline `d`.
///
/// Both quantifications of Eq. 4 reduce to prefix/suffix ranges of the
/// higher-priority job index `l` (releases, postponed releases, and
/// deadlines are all affine in `l`), so the interference at the deadline
/// is a closed-form mandatory-job count per task. The deadline is
/// evaluated first: it usually dominates, and a value at or above
/// `stop_at` ends the job (the caller uses θ_ij only through `min`, so any
/// such value is interchangeable; pass `i128::MAX` for the exact maximum).
///
/// The other inspecting points, the postponed mandatory releases inside
/// `(r, d)`, are collected into `points` (a caller-owned scratch buffer,
/// cleared here) with the work each adds, sorted, and swept in time order
/// with a running demand: a release counts toward an inspecting point
/// only if it comes strictly before it. That is O(i + p log p) per job
/// for p points, where evaluating every point against every
/// higher-priority task was O(p · i).
fn theta_for_job(
    ts: &TaskSet,
    Job { task: i, r, d }: Job,
    theta: &[Time],
    stop_at: i128,
    points: &mut Vec<(Time, i128)>,
) -> i128 {
    let r_ticks = r.ticks() as i128;
    let r_next = r + Time::from_ticks(1);
    let hps = &ts.tasks()[..i.0];
    let c_i = ts.task(i).wcet().ticks() as i128;
    // Jobs l of τ_k with d_kl ≤ r, i.e. (l−1)P + D < r + 1 tick.
    let excluded = |hp: &Task| jobs_released_before(r_next, hp.deadline(), hp.period());

    // The absolute deadline is always an inspecting point (Definition 3).
    let demand_at_d = hps.iter().zip(theta).fold(c_i, |demand, (hp, &theta_k)| {
        let selected = jobs_released_before(d, theta_k, hp.period());
        demand + interfering_mandatory_work(hp, excluded(hp), selected)
    });
    let mut best = d.ticks() as i128 - demand_at_d - r_ticks;
    if best >= stop_at {
        return best;
    }

    // Work released at or before r counts at every point in (r, d); the
    // postponed mandatory releases inside (r, d) are the other points.
    points.clear();
    let mut demand = c_i;
    for (hp, &theta_k) in hps.iter().zip(theta) {
        let excluded = excluded(hp);
        let skip = jobs_released_before(r_next, theta_k, hp.period());
        demand += interfering_mandatory_work(hp, excluded, skip);
        let wcet = hp.wcet().ticks() as i128;
        let mut l = skip + 1;
        let mut postponed = hp.release_of(l) + theta_k;
        while postponed < d {
            if hp.mk().is_mandatory(l) {
                // θ_k ≤ D_k, so a job released after r has d_kl > r.
                debug_assert!(l > excluded);
                points.push((postponed, wcet));
            }
            l += 1;
            postponed += hp.period();
        }
    }
    points.sort_unstable_by_key(|&(t, _)| t);
    // Each point is evaluated before its own work is added. Of several
    // points at one instant only the first sees exactly the work released
    // strictly before it; the others see more and so score no higher.
    for &(t_bar, work) in points.iter() {
        best = best.max(t_bar.ticks() as i128 - demand - r_ticks);
        if best >= stop_at {
            return best;
        }
        demand += work;
    }
    best
}

/// The inspecting-point walk that the time-ordered sweep replaced, kept as
/// the differential tests' oracle: it re-sums every higher-priority row
/// at each inspecting point, in generation order, and takes the promotion
/// floors from the busy-window walk of every task.
#[cfg(test)]
pub(crate) mod by_rows {
    use super::{jobs_released_before, postpone_with, Job, PostponeError, Postponement, Time};
    use crate::rta::{analyze_by_walk, InterferenceModel};
    use mkss_core::mk::MkConstraint;
    use mkss_core::task::TaskSet;

    /// [`super::postponement_intervals`] by the old per-job walk.
    pub(crate) fn postponement_intervals(ts: &TaskSet) -> Result<Postponement, PostponeError> {
        let report = analyze_by_walk(ts, InterferenceModel::MandatoryOnly);
        let mut rows = Vec::new();
        postpone_with(ts, &report, |job, theta, stop_at| {
            theta_for_job(ts, job, theta, stop_at, &mut rows)
        })
    }

    /// Per-higher-priority-task constants of one Eq. 4 evaluation.
    #[derive(Clone, Copy)]
    struct HpRow {
        theta: Time,
        period: Time,
        wcet: i128,
        mk: MkConstraint,
        /// Jobs `l` with `d_kl ≤ r` — excluded from the interference count.
        excluded: u64,
        /// `mandatory_among(excluded)`, the subtrahend of the count.
        excluded_mandatory: u64,
    }

    /// Σ of WCETs of higher-priority backup jobs with `d_kl > r` and
    /// `r̃_kl < t̄` (Eq. 4), plus `c_i`.
    fn demand_at(rows: &[HpRow], c_i: i128, t_bar: Time) -> i128 {
        let mut demand = c_i;
        for row in rows {
            let selected = jobs_released_before(t_bar, row.theta, row.period);
            if selected > row.excluded {
                let count = row.mk.mandatory_among(selected) - row.excluded_mandatory;
                demand += row.wcet * (count as i128);
            }
        }
        demand
    }

    /// `θ_ij` (Eq. 4), every inspecting point summed over every row.
    fn theta_for_job(
        ts: &TaskSet,
        Job { task: i, r, d }: Job,
        theta: &[Time],
        stop_at: i128,
        rows: &mut Vec<HpRow>,
    ) -> i128 {
        let r_ticks = r.ticks() as i128;
        let r_next = r + Time::from_ticks(1);
        rows.clear();
        for k in ts.ids().take(i.0) {
            let hp = ts.task(k);
            let excluded = jobs_released_before(r_next, hp.deadline(), hp.period());
            rows.push(HpRow {
                theta: theta[k.0],
                period: hp.period(),
                wcet: hp.wcet().ticks() as i128,
                mk: hp.mk(),
                excluded,
                excluded_mandatory: hp.mk().mandatory_among(excluded),
            });
        }
        let rows: &[HpRow] = rows;
        let c_i = ts.task(i).wcet().ticks() as i128;

        let mut best = d.ticks() as i128 - demand_at(rows, c_i, d) - r_ticks;
        if best >= stop_at {
            return best;
        }
        for (k, row) in ts.ids().take(i.0).zip(rows) {
            let skip = jobs_released_before(r_next, row.theta, row.period);
            let mut l = skip + 1;
            let mut postponed = ts.task(k).release_of(l) + row.theta;
            while postponed < d {
                if row.mk.is_mandatory(l) {
                    let candidate =
                        postponed.ticks() as i128 - demand_at(rows, c_i, postponed) - r_ticks;
                    best = best.max(candidate);
                    if best >= stop_at {
                        return best;
                    }
                }
                l += 1;
                postponed += row.period;
            }
        }
        best
    }
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
    fn paper_fig5_example() {
        // τ1 = (10,10,3,2,3), τ2 = (15,15,8,1,2): θ1 = 7, θ2 = 4.
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        let post = postponement_intervals(&ts).unwrap();
        assert_eq!(post.theta, vec![Time::from_ms(7), Time::from_ms(4)]);
        assert_eq!(
            post.raw_theta,
            vec![
                RawTheta::Exact(Time::from_ms(7)),
                RawTheta::Exact(Time::from_ms(4))
            ]
        );
        // Y2 = 15 − 14 = 1 per the paper's closing remark: θ2 ≫ Y2.
        assert_eq!(post.promotion[1], Time::from_ms(1));
        // Postponed releases per Eq. (3).
        assert_eq!(post.postponed_release(&ts, TaskId(0), 1), Time::from_ms(7));
        assert_eq!(post.postponed_release(&ts, TaskId(0), 2), Time::from_ms(17));
        assert_eq!(post.postponed_release(&ts, TaskId(1), 1), Time::from_ms(4));
    }

    #[test]
    fn theta_never_below_promotion() {
        let ts = set(&[(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)]);
        let post = postponement_intervals(&ts).unwrap();
        for (t, y) in post.theta.iter().zip(&post.promotion) {
            assert!(t >= y, "θ = {t} below promotion time {y}");
        }
    }

    #[test]
    fn unschedulable_set_errors() {
        let ts = set(&[(4, 4, 3, 2, 3), (6, 6, 3, 2, 3)]);
        assert_eq!(
            postponement_intervals(&ts),
            Err(PostponeError::Unschedulable { task: TaskId(1) })
        );
        assert_eq!(
            PostponeError::Unschedulable { task: TaskId(1) }.to_string(),
            "task τ2 is unschedulable under the pattern"
        );
    }

    #[test]
    fn huge_hyperperiod_falls_back_to_promotion() {
        // τ1 = (P₁, P₁, 0.25, 1, 2) and τ2 = (1, 1, 0.5, 1, 2): the level-2
        // pattern hyperperiod lcm(2·P₁, 2) = 2·P₁ holds 2·P₁ jobs of τ2.
        let post = |p1_ms| {
            let tau1 = Task::new(
                Time::from_ms(p1_ms),
                Time::from_ms(p1_ms),
                Time::from_us(250),
                1,
                2,
            );
            let tau2 = Task::new(Time::from_ms(1), Time::from_ms(1), Time::from_us(500), 1, 2);
            postponement_intervals(&TaskSet::new(vec![tau1.unwrap(), tau2.unwrap()]).unwrap())
                .unwrap()
        };
        // 2 000 jobs are enumerated; 2 002 are not, and θ2 falls back to Y2.
        assert_ne!(post(1_000).raw_theta[1], RawTheta::NotEnumerated);
        let over = post(1_001);
        assert_eq!(over.raw_theta[0], RawTheta::Exact(Time::from_us(1_000_750)));
        assert_eq!(over.raw_theta[1], RawTheta::NotEnumerated);
        assert_eq!(over.theta[1], over.promotion[1]);
    }

    #[test]
    fn negative_raw_theta_reports_below_floor() {
        // τ1 = (4,4,2,2,3), τ2 = (5,5,2,1,3): schedulable under the
        // deeply-red pattern, but τ2's inspecting-point minimum is −1 ms —
        // one of its mandatory jobs is swamped by carried-in
        // higher-priority backup work at every inspecting point. The old
        // `Option<Time>` raw_theta pushed the negative value through
        // `u64::try_from(..).ok()` into `None`, indistinguishable from a
        // hyperperiod too large to enumerate; it must surface as
        // `BelowFloor` instead, with θ clamped to the promotion time.
        let ts = set(&[(4, 4, 2, 2, 3), (5, 5, 2, 1, 3)]);
        let post = postponement_intervals(&ts).unwrap();
        assert_eq!(post.raw_theta[1], RawTheta::BelowFloor);
        assert_eq!(post.theta[1], post.promotion[1]);
        // τ1 is alone on the spare: its slack D − C equals the promotion
        // time, so its analysis completes with an exact value.
        assert_eq!(post.raw_theta[0], RawTheta::Exact(post.promotion[0]));
        assert_eq!(post.promotion, vec![Time::from_ms(2), Time::from_ms(1)]);
    }

    #[test]
    fn single_task_theta_is_slack() {
        // Alone, a backup can be postponed by D − C for every job.
        let ts = set(&[(10, 8, 3, 1, 2)]);
        let post = postponement_intervals(&ts).unwrap();
        assert_eq!(post.theta, vec![Time::from_ms(5)]);
    }

    #[test]
    fn postponed_backups_meet_deadlines_densely() {
        // Brute-force check: simulate the backup-only schedule (FP,
        // preemptive, releases postponed) over the hyperperiod and verify
        // every backup meets its deadline. Dense tick-by-tick simulation.
        for tasks in [
            vec![(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)],
            vec![(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)],
            vec![(5, 5, 1, 1, 3), (7, 7, 2, 2, 3), (14, 14, 3, 1, 2)],
        ] {
            let ts = set(&tasks);
            let post = postponement_intervals(&ts).unwrap();
            assert_backups_schedulable(&ts, &post);
        }
    }

    /// Tick-accurate FP simulation of the postponed backup jobs only.
    fn assert_backups_schedulable(ts: &TaskSet, post: &Postponement) {
        use mkss_core::time::TICKS_PER_MS;
        let horizon = ts.hyperperiod();
        assert!(horizon < Time::from_ms(100_000), "test horizon too large");
        let step = TICKS_PER_MS; // all test inputs are whole-ms
                                 // Collect jobs: (postponed release, deadline, wcet, remaining).
        let mut jobs: Vec<(u64, u64, u64, u64, usize)> = Vec::new();
        for (id, task) in ts.iter() {
            let n = horizon.div_floor(task.period());
            for j in 1..=n {
                if !task.mk().is_mandatory(j) {
                    continue;
                }
                let rel = post.postponed_release(ts, id, j).ticks();
                let dl = (task.release_of(j) + task.deadline()).ticks();
                jobs.push((rel, dl, task.wcet().ticks(), task.wcet().ticks(), id.0));
            }
        }
        let mut t = 0u64;
        while t < horizon.ticks() {
            // Highest-priority released, unfinished job.
            if let Some(job) = jobs
                .iter_mut()
                .filter(|j| j.0 <= t && j.3 > 0)
                .min_by_key(|j| j.4)
            {
                job.3 -= step;
                let finish = t + step;
                assert!(
                    job.3 > 0 || finish <= job.1,
                    "backup job of τ{} misses deadline {} (finish {finish})",
                    job.4 + 1,
                    job.1
                );
            }
            t += step;
        }
        for j in &jobs {
            assert_eq!(j.3, 0, "backup job of τ{} never completed", j.4 + 1);
        }
    }
}
