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

use mkss_core::mk::{MkConstraint, Pattern};
use mkss_core::task::{TaskId, TaskSet};
use mkss_core::time::Time;
use serde::{Deserialize, Serialize};
use std::error::Error as StdError;
use std::fmt;

use crate::rta::{analyze, InterferenceModel};

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

/// Configuration for [`postponement_intervals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostponeConfig {
    /// Static pattern defining which jobs have backups.
    pub pattern: Pattern,
    /// If the level-i pattern hyperperiod contains more than this many
    /// jobs of τ_i, skip the inspecting-point analysis for τ_i and use the
    /// promotion time `Y_i` (sound, merely less aggressive).
    pub max_jobs_per_task: u64,
}

impl Default for PostponeConfig {
    fn default() -> Self {
        PostponeConfig {
            pattern: Pattern::DeeplyRed,
            max_jobs_per_task: 2_000,
        }
    }
}

/// Outcome of the raw inspecting-point analysis for one task, before the
/// promotion-time fallback is applied.
///
/// The three cases were previously conflated into an `Option<Time>` that
/// mapped a negative raw θ through `u64::try_from(..).ok()`, making "θ
/// clamped to the promotion floor" indistinguishable from "hyperperiod too
/// large to enumerate". They answer different questions — the first says
/// the analysis ran and was beaten by the floor, the second that it never
/// ran — so they are separate variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// The level-i pattern hyperperiod exceeded
    /// [`PostponeConfig::max_jobs_per_task`], so the enumeration was
    /// skipped and θ_i falls back to `Y_i` (sound, merely conservative).
    NotEnumerated,
}

/// Result of the postponement analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Postponement {
    /// Per-task release postponement interval `θ_i` (already including the
    /// promotion-time fallback), in priority order.
    pub theta: Vec<Time>,
    /// Per-task promotion times `Y_i` (Eq. 2) under mandatory-only
    /// interference, for reference and ablations.
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
/// use mkss_analysis::postpone::{postponement_intervals, PostponeConfig};
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(10, 10, 3, 2, 3)?,
///     Task::from_ms(15, 15, 8, 1, 2)?,
/// ])?;
/// let post = postponement_intervals(&ts, PostponeConfig::default())?;
/// assert_eq!(post.theta, vec![Time::from_ms(7), Time::from_ms(4)]);
/// # Ok(())
/// # }
/// ```
pub fn postponement_intervals(
    ts: &TaskSet,
    config: PostponeConfig,
) -> Result<Postponement, PostponeError> {
    let model = InterferenceModel::MandatoryOnly(config.pattern);
    let report = analyze(ts, model);
    let mut promotion = Vec::with_capacity(ts.len());
    for id in ts.ids() {
        match report.response_time(id) {
            Some(r) => promotion.push(ts.task(id).deadline() - r),
            None => return Err(PostponeError::Unschedulable { task: id }),
        }
    }

    let mut theta: Vec<Time> = Vec::with_capacity(ts.len());
    let mut raw_theta: Vec<RawTheta> = Vec::with_capacity(ts.len());
    let mut rows: Vec<HpRow> = Vec::with_capacity(ts.len());

    for (i, task) in ts.iter() {
        let horizon = ts.hyperperiod_up_to(i);
        let jobs_in_horizon = if horizon == Time::MAX {
            u64::MAX
        } else {
            horizon.div_floor(task.period())
        };

        let floor = promotion[i.0].ticks() as i128;
        let raw = if jobs_in_horizon > config.max_jobs_per_task {
            RawTheta::NotEnumerated
        } else {
            match min_theta_over_jobs(
                ts,
                i,
                config.pattern,
                jobs_in_horizon,
                &theta,
                floor,
                &mut rows,
            ) {
                // No mandatory job in the horizon (cannot happen for a
                // valid (m,k) with jobs_in_horizon ≥ k): nothing ran.
                None => RawTheta::NotEnumerated,
                Some(t) if t < floor => RawTheta::BelowFloor,
                // t ≥ floor ≥ 0, so the u64 cast is exact.
                Some(t) => RawTheta::Exact(Time::from_ticks(t as u64)),
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
/// pattern hyperperiod, using already-fixed postponements `theta` of the
/// higher-priority tasks. Returns `None` if τ_i has no mandatory job in
/// the horizon (cannot happen for valid (m,k) with `jobs_in_horizon ≥ k`).
///
/// Two cutoffs keep the enumeration cheap without changing the effective
/// θ_i: a job's inspecting-point scan stops once its running max reaches
/// the minimum so far (a value that can only tie or exceed the min is
/// interchangeable with the exact θ_ij), and the job loop stops once the
/// minimum falls strictly below `floor` (θ_i clamps to the promotion time
/// either way — the caller reports [`RawTheta::BelowFloor`], not a value).
fn min_theta_over_jobs(
    ts: &TaskSet,
    i: TaskId,
    pattern: Pattern,
    jobs_in_horizon: u64,
    theta: &[Time],
    floor: i128,
    rows: &mut Vec<HpRow>,
) -> Option<i128> {
    let task = ts.task(i);
    let mut min_theta: Option<i128> = None;
    for j in 1..=jobs_in_horizon {
        if !pattern.is_mandatory(task.mk(), j) {
            continue;
        }
        let r = task.release_of(j);
        let d = r + task.deadline();
        let stop_at = min_theta.unwrap_or(i128::MAX);
        let t_ij = theta_for_job(ts, i, pattern, r, d, theta, stop_at, rows);
        let new_min = min_theta.map_or(t_ij, |cur| cur.min(t_ij));
        min_theta = Some(new_min);
        if new_min < floor {
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

/// Per-higher-priority-task constants of one Eq. 4 evaluation, hoisted
/// out of the inspecting-point loop: everything here depends only on the
/// analysed job's release `r`, not on the inspecting point `t̄`.
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
/// `r̃_kl < t̄` (Eq. 4), plus `c_i`. `d_kl > r` excludes a prefix of jobs,
/// `r̃_kl < t̄` selects a prefix, so the interfering mandatory jobs are
/// those with index in (excluded, selected].
fn demand_at(rows: &[HpRow], pattern: Pattern, c_i: i128, t_bar: Time) -> i128 {
    let mut demand = c_i;
    for row in rows {
        // l with (l−1)P + θ < t̄.
        let selected = jobs_released_before(t_bar, row.theta, row.period);
        if selected > row.excluded {
            let count = pattern.mandatory_among(row.mk, selected) - row.excluded_mandatory;
            demand += row.wcet * (count as i128);
        }
    }
    demand
}

/// `θ_ij` (Eq. 4) for the backup job of τ_i with release `r` and absolute
/// deadline `d`.
///
/// Both quantifications of Eq. 4 reduce to prefix/suffix ranges of the
/// higher-priority job index `l` (releases, postponed releases, and
/// deadlines are all affine in `l`), so the interference sum uses the
/// closed-form mandatory-job counter instead of enumerating jobs — the
/// analysis is O(inspecting points × tasks) per job rather than
/// O(hyperperiod).
///
/// Inspecting points are evaluated as they are generated (the max is
/// order-independent), and the scan returns early once the running max
/// reaches `stop_at`: the caller only uses the value through `min`, so
/// any result ≥ `stop_at` is interchangeable. Pass `i128::MAX` for the
/// exact maximum. `rows` is a caller-owned scratch buffer, cleared here.
#[expect(
    clippy::too_many_arguments,
    reason = "internal: mirrors Eq. 4's parameter list"
)]
fn theta_for_job(
    ts: &TaskSet,
    i: TaskId,
    pattern: Pattern,
    r: Time,
    d: Time,
    theta: &[Time],
    stop_at: i128,
    rows: &mut Vec<HpRow>,
) -> i128 {
    let r_ticks = r.ticks() as i128;
    let r_next = r + Time::from_ticks(1);
    rows.clear();
    for k in ts.ids().take(i.0) {
        let hp = ts.task(k);
        // l with (l−1)P + D ≤ r, i.e. (l−1)P + D < r + 1 tick.
        let excluded = jobs_released_before(r_next, hp.deadline(), hp.period());
        rows.push(HpRow {
            theta: theta[k.0],
            period: hp.period(),
            wcet: hp.wcet().ticks() as i128,
            mk: hp.mk(),
            excluded,
            excluded_mandatory: pattern.mandatory_among(hp.mk(), excluded),
        });
    }
    let rows: &[HpRow] = rows;
    let c_i = ts.task(i).wcet().ticks() as i128;

    // The absolute deadline is always an inspecting point (Definition 3);
    // it usually dominates, so evaluating it first lets the `stop_at`
    // cutoff skip most of the postponed-release points below.
    let mut best = d.ticks() as i128 - demand_at(rows, pattern, c_i, d) - r_ticks;
    if best >= stop_at {
        return best;
    }

    // The remaining inspecting points: every postponed higher-priority
    // mandatory backup release strictly inside (r, d).
    for (k, row) in ts.ids().take(i.0).zip(rows) {
        // Jobs with r̃_kl ≤ r form a prefix of length `skip`; scan only
        // the jobs landing inside (r, d) — at most D_i/P_k + 1 of them.
        let skip = jobs_released_before(r_next, row.theta, row.period);
        let mut l = skip + 1;
        let mut postponed = ts.task(k).release_of(l) + row.theta;
        while postponed < d {
            debug_assert!(postponed > r);
            if pattern.is_mandatory(row.mk, l) {
                let candidate =
                    postponed.ticks() as i128 - demand_at(rows, pattern, c_i, postponed) - r_ticks;
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

/// Per-**job** release postponement: the `θ_ij` of Definition 4 used
/// directly, without taking the per-task minimum of Definition 5.
///
/// This is an extension beyond the paper (which fixes one `θ_i` per task
/// so releases stay strictly periodic): every individual backup job is
/// already guaranteed to meet its deadline by Eq. (4) alone — the
/// inspecting-point *work-pool* argument is per job, and it tolerates
/// higher-priority jobs releasing **later** than analyzed (a non-counted
/// job still cannot arrive before the inspecting point; a counted one
/// contributes at most its full WCET either way). The higher-priority
/// postponed releases used as inspecting points are the paper's
/// *task-level* ones, keeping the cascade identical to Definition 3.
///
/// **Soundness gate.** The pool argument is the *only* one that
/// survives the release jitter that per-job delays introduce. Wherever a
/// delay instead comes from the promotion-time floor (`Y_i`, a
/// *density*-based bound) — because a task's hyperperiod was too large
/// to enumerate, or an inspecting-point value fell below `Y_i` — that
/// bound assumes strictly periodic higher-priority releases, and
/// per-job jitter above it can squeeze two releases closer than a
/// period and break it (found by a 400-case property soak; see
/// DESIGN.md §7). [`job_postponement`] therefore degrades the **whole**
/// assignment to constant task-level delays unless *every* mandatory
/// position of *every* task got a pure pool-based `θ_ij ≥ Y_i`.
///
/// `θ_ij` is periodic with the level-i pattern hyperperiod, so lookups
/// wrap around.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobPostponement {
    /// The underlying task-level analysis (fallback and cascade input).
    pub task_level: Postponement,
    /// Per-task table of `θ_ij` for the mandatory jobs in one level-i
    /// pattern hyperperiod, indexed by `(j − 1) mod jobs_in_horizon`
    /// (`None` for optional positions and for tasks where the horizon
    /// was too large to enumerate).
    tables: Vec<Option<Vec<Option<Time>>>>,
}

impl JobPostponement {
    /// The release delay for the backup of the `j`-th (**1-based**) job
    /// of `task`, assuming it occupies the deeply-red-mandatory position
    /// of its window; non-pattern positions and un-enumerated tasks use
    /// the task-level `θ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or `j` is zero.
    pub fn delay_of(&self, task: TaskId, j: u64) -> Time {
        assert!(j >= 1, "job indices are 1-based");
        let fallback = self.task_level.theta[task.0];
        match &self.tables[task.0] {
            Some(table) if !table.is_empty() => {
                let slot = ((j - 1) % table.len() as u64) as usize;
                table[slot].unwrap_or(fallback).max(fallback)
            }
            _ => fallback,
        }
    }
}

/// Computes per-job postponement intervals (see [`JobPostponement`]).
///
/// # Errors
///
/// Same as [`postponement_intervals`].
pub fn job_postponement(
    ts: &TaskSet,
    config: PostponeConfig,
) -> Result<JobPostponement, PostponeError> {
    let task_level = postponement_intervals(ts, config)?;
    let mut tables = Vec::with_capacity(ts.len());
    let mut rows: Vec<HpRow> = Vec::with_capacity(ts.len());
    // Pure pool-based assignment so far? (See the soundness gate on
    // [`JobPostponement`].)
    let mut pure = true;
    for (i, task) in ts.iter() {
        let horizon = ts.hyperperiod_up_to(i);
        let jobs_in_horizon = if horizon == Time::MAX {
            u64::MAX
        } else {
            horizon.div_floor(task.period())
        };
        if jobs_in_horizon > config.max_jobs_per_task {
            // This task's delay is the promotion-based fallback: the
            // density argument would be broken by jitter above it.
            pure = false;
            tables.push(None);
            continue;
        }
        let promotion = task_level.promotion[i.0];
        let mut table = Vec::with_capacity(jobs_in_horizon as usize);
        for j in 1..=jobs_in_horizon {
            if !config.pattern.is_mandatory(task.mk(), j) {
                table.push(None);
                continue;
            }
            let r = task.release_of(j);
            let d = r + task.deadline();
            // Per-job values are reported exactly, so no `stop_at` cutoff.
            let t_ij = theta_for_job(
                ts,
                i,
                config.pattern,
                r,
                d,
                &task_level.theta,
                i128::MAX,
                &mut rows,
            );
            let value = u64::try_from(t_ij).ok().map(Time::from_ticks);
            match value {
                Some(t) if t >= promotion => table.push(Some(t)),
                _ => {
                    // This position would need the promotion floor.
                    pure = false;
                    table.push(None);
                }
            }
        }
        tables.push(Some(table));
    }
    if !pure {
        // Degrade to the (jitter-free) constant task-level assignment.
        tables = vec![None; ts.len()];
    }
    Ok(JobPostponement { task_level, tables })
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
        let post = postponement_intervals(&ts, PostponeConfig::default()).unwrap();
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
        let post = postponement_intervals(&ts, PostponeConfig::default()).unwrap();
        for (t, y) in post.theta.iter().zip(&post.promotion) {
            assert!(t >= y, "θ = {t} below promotion time {y}");
        }
    }

    #[test]
    fn unschedulable_set_errors() {
        let ts = set(&[(4, 4, 3, 2, 3), (6, 6, 3, 2, 3)]);
        assert_eq!(
            postponement_intervals(&ts, PostponeConfig::default()),
            Err(PostponeError::Unschedulable { task: TaskId(1) })
        );
        assert_eq!(
            PostponeError::Unschedulable { task: TaskId(1) }.to_string(),
            "task τ2 is unschedulable under the pattern"
        );
    }

    #[test]
    fn huge_hyperperiod_falls_back_to_promotion() {
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        let config = PostponeConfig {
            max_jobs_per_task: 1, // force the fallback
            ..PostponeConfig::default()
        };
        let post = postponement_intervals(&ts, config).unwrap();
        assert_eq!(
            post.raw_theta,
            vec![RawTheta::NotEnumerated, RawTheta::NotEnumerated]
        );
        assert_eq!(post.theta, post.promotion);
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
        let post = postponement_intervals(&ts, PostponeConfig::default()).unwrap();
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
        let post = postponement_intervals(&ts, PostponeConfig::default()).unwrap();
        assert_eq!(post.theta, vec![Time::from_ms(5)]);
    }

    #[test]
    fn job_level_postponement_dominates_task_level() {
        for tasks in [
            vec![(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)],
            vec![(5, 4, 3, 2, 4), (10, 10, 3, 1, 2)],
            vec![(5, 5, 1, 1, 3), (7, 7, 2, 2, 3), (14, 14, 3, 1, 2)],
        ] {
            let ts = set(&tasks);
            let jp = job_postponement(&ts, PostponeConfig::default()).unwrap();
            for (id, task) in ts.iter() {
                let jobs = ts.hyperperiod_up_to(id).div_floor(task.period());
                for j in 1..=(3 * jobs) {
                    // Every per-job delay is at least the task-level θ…
                    assert!(jp.delay_of(id, j) >= jp.task_level.theta[id.0]);
                    // …and wraps periodically.
                    assert_eq!(jp.delay_of(id, j), jp.delay_of(id, j + jobs));
                }
            }
        }
    }

    #[test]
    fn job_level_postponement_fig5() {
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        let jp = job_postponement(&ts, PostponeConfig::default()).unwrap();
        // Both mandatory jobs of τ'1 admit exactly 7 (the paper computes
        // θ11 = θ12 = 7), and τ'2's single job exactly 4.
        assert_eq!(jp.delay_of(TaskId(0), 1), Time::from_ms(7));
        assert_eq!(jp.delay_of(TaskId(0), 2), Time::from_ms(7));
        assert_eq!(jp.delay_of(TaskId(1), 1), Time::from_ms(4));
    }

    #[test]
    fn job_level_falls_back_on_huge_hyperperiods() {
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        let config = PostponeConfig {
            max_jobs_per_task: 1,
            ..PostponeConfig::default()
        };
        let jp = job_postponement(&ts, config).unwrap();
        assert_eq!(jp.delay_of(TaskId(0), 5), jp.task_level.theta[0]);
        assert_eq!(jp.delay_of(TaskId(1), 9), jp.task_level.theta[1]);
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
            let post = postponement_intervals(&ts, PostponeConfig::default()).unwrap();
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
                if !Pattern::DeeplyRed.is_mandatory(task.mk(), j) {
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
