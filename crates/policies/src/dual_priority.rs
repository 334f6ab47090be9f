//! `MKSS_DP` — static patterns with dual-priority backup procrastination
//! and preference-oriented task placement (Section V's second approach,
//! after Haque et al. \[7\] and Begam et al. \[8\], without DVS).
//!
//! Mandatory jobs are chosen by the static deeply-red pattern. Under the
//! *preference-oriented* placement every task has its main copy on one
//! processor and its backup on the other, alternating by priority index
//! (Fig. 1 runs main τ1 + backup τ′2 on the primary and backup τ′1 +
//! main τ2 on the spare). Each backup is procrastinated by its task's
//! promotion time `Y_i = D_i − R_i` (Eq. 2), so a main job that finishes
//! early cancels a backup that has barely started.
//!
//! [`MkssDp::theta`] builds `MKSS_DP_theta`, the same static scheme with
//! every main on the primary and the task-level postponement intervals
//! `θ_i` of Definitions 2–5 as backup delays: on static patterns the job
//! positions are the ones the θ analysis assumes.

use mkss_analysis::postpone::postponement_intervals;
use mkss_analysis::rta::InterferenceModel;
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
use mkss_sim::proc::ProcId;

use crate::error::BuildPolicyError;

/// The dual-priority standby-sparing scheme (`MKSS_DP`).
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_policies::MkssDp;
/// use mkss_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// let mut dp = MkssDp::new(&ts)?;
/// let report = simulate(&ts, &mut dp, &SimConfig::active_only(Time::from_ms(20)));
/// // The paper's Fig. 1: 15 active energy units in [0, 20).
/// assert!((report.active_energy().units() - 15.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkssDp {
    /// `MKSS_DP_theta`: every main on the primary and θ-postponed
    /// backups. Otherwise the paper's `MKSS_DP`: preference-oriented
    /// placement and promotion-time backups.
    theta: bool,
    /// Per-task backup delay: the promotion times, or θ.
    delay: Vec<Time>,
}

impl MkssDp {
    /// Builds the evaluation's `MKSS_DP`, with preference-oriented
    /// placement: mains alternate between the processors by priority
    /// index (τ1 → primary, τ2 → spare, τ3 → primary, …), as in Fig. 1,
    /// so each processor holds exactly one copy of every task.
    ///
    /// The promotion times are computed exactly as the hard real-time
    /// dual-priority baselines [7, 8] do — with **every** job of every
    /// higher-priority task interfering — because those schemes predate
    /// the (m,k) model and know nothing about optional jobs. On (m,k)
    /// workloads the all-jobs analysis frequently fails (the full
    /// utilization exceeds 1 even when the mandatory load is light); a
    /// task whose all-jobs response time diverges gets `Y_i = 0`, i.e.
    /// its backups are not procrastinated at all. This is the
    /// inefficiency the paper's selective scheme exploits. (Delaying by
    /// the all-jobs `Y_i` is sound for the mandatory-only spare workload
    /// since the all-jobs response time dominates the mandatory-only
    /// one.)
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] if the set fails the
    /// mandatory-only response-time analysis (Theorem 1's premise).
    pub fn new(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        // The standby-sparing guarantee needs the mandatory jobs to be
        // schedulable (Theorem 1's premise); gate on that.
        if !mkss_analysis::rta::is_schedulable_r_pattern(ts) {
            return Err(first_unschedulable(ts));
        }
        let all_jobs = mkss_analysis::rta::analyze(ts, InterferenceModel::AllJobs);
        let delay = ts
            .ids()
            .map(|id| match all_jobs.response_time(id) {
                Some(r) => ts.task(id).deadline() - r,
                None => Time::ZERO,
            })
            .collect();
        Ok(MkssDp {
            theta: false,
            delay,
        })
    }

    /// Builds `MKSS_DP_theta`: every main on the primary, every backup on
    /// the spare, delayed by the postponement interval `θ_i`
    /// (Definitions 2–5). Those definitions analyse a spare that runs
    /// postponed backups only, which is why the mains stay off it.
    ///
    /// # Errors
    ///
    /// Same as [`MkssDp::new`].
    pub fn theta(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        let delay = postponement_intervals(ts)
            .map_err(|_| first_unschedulable(ts))?
            .theta;
        Ok(MkssDp { theta: true, delay })
    }

    /// The per-task backup delays in use: the promotion times `Y_i`, or
    /// θ for [`MkssDp::theta`].
    pub fn promotion(&self) -> &[Time] {
        &self.delay
    }
}

/// Identifies the first unschedulable task for the error value.
pub(crate) fn first_unschedulable(ts: &TaskSet) -> BuildPolicyError {
    let report = mkss_analysis::rta::analyze(ts, InterferenceModel::MandatoryOnly);
    let task = report
        .tasks
        .iter()
        .find(|t| t.response_time.is_none())
        .map(|t| t.task)
        .unwrap_or(mkss_core::task::TaskId(0));
    BuildPolicyError::Unschedulable { task }
}

impl Policy for MkssDp {
    fn name(&self) -> &str {
        if self.theta {
            "MKSS_DP_theta"
        } else {
            "MKSS_DP"
        }
    }

    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        if !ctx.history.constraint().is_mandatory(ctx.job_index) {
            return ReleaseDecision::Skip;
        }
        let main_proc = if self.theta || ctx.task.0.is_multiple_of(2) {
            ProcId::PRIMARY
        } else {
            ProcId::SPARE
        };
        ReleaseDecision::Mandatory {
            main_proc,
            backup_delay: self.delay[ctx.task.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::prelude::*;
    use mkss_sim::prelude::*;

    fn fig1_set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(5, 4, 3, 2, 4).unwrap(),
            Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn fig1_exact_schedule() {
        let ts = fig1_set();
        let mut dp = MkssDp::new(&ts).unwrap();
        assert_eq!(dp.promotion(), &[Time::from_ms(1), Time::from_ms(1)]);
        let (report, trace) =
            simulate_traced(&ts, &mut dp, &SimConfig::active_only(Time::from_ms(20)));
        assert!((report.active_energy().units() - 15.0).abs() < 1e-9);
        assert!(report.mk_assured());

        // Verify the schedule structure of Fig. 1 via the trace:
        // Primary: J11 [0,3), J'21 [3,5) canceled, J12 [5,8).
        let primary: Vec<_> = trace.segments_on(ProcId::PRIMARY).collect();
        assert_eq!(primary[0].job, JobId::new(TaskId(0), 1));
        assert_eq!(
            (primary[0].start, primary[0].end),
            (Time::ZERO, Time::from_ms(3))
        );
        assert_eq!(primary[1].kind, CopyKind::Backup);
        assert_eq!(primary[1].ended, SegmentEnd::Canceled);
        assert_eq!(
            (primary[1].start, primary[1].end),
            (Time::from_ms(3), Time::from_ms(5))
        );
        // Spare: J21 [0,1), J'11 [1,3) canceled, J21 [3,5), J'12 [6,8) canceled.
        let spare: Vec<_> = trace.segments_on(ProcId::SPARE).collect();
        assert_eq!(spare[0].job, JobId::new(TaskId(1), 1));
        assert_eq!(
            (spare[0].start, spare[0].end),
            (Time::ZERO, Time::from_ms(1))
        );
        assert_eq!(spare[1].kind, CopyKind::Backup);
        assert_eq!(spare[1].ended, SegmentEnd::Canceled);
        assert_eq!(spare[3].kind, CopyKind::Backup);
        assert_eq!(
            (spare[3].start, spare[3].end),
            (Time::from_ms(6), Time::from_ms(8))
        );
    }

    #[test]
    fn beats_static_reference() {
        let ts = fig1_set();
        let config = SimConfig::active_only(Time::from_ms(20));
        let st = simulate(&ts, &mut crate::MkssSt::new(), &config);
        let dp = simulate(&ts, &mut MkssDp::new(&ts).unwrap(), &config);
        assert!(dp.active_energy().units() < st.active_energy().units());
    }

    #[test]
    fn theta_variant_keeps_mains_on_primary() {
        let ts = fig1_set();
        let mut dp = MkssDp::theta(&ts).unwrap();
        assert_eq!(dp.name(), "MKSS_DP_theta");
        let (report, trace) =
            simulate_traced(&ts, &mut dp, &SimConfig::active_only(Time::from_ms(20)));
        assert!(report.mk_assured());
        // All mains on primary → primary busy = 9ms of mains.
        assert!(trace
            .segments_on(ProcId::PRIMARY)
            .all(|s| s.kind == CopyKind::Main));
        assert!(trace
            .segments_on(ProcId::SPARE)
            .all(|s| s.kind == CopyKind::Backup));
    }

    #[test]
    fn unschedulable_set_rejected() {
        let ts = TaskSet::new(vec![
            Task::from_ms(4, 4, 3, 2, 3).unwrap(),
            Task::from_ms(6, 6, 3, 2, 3).unwrap(),
        ])
        .unwrap();
        assert_eq!(
            MkssDp::new(&ts),
            Err(BuildPolicyError::Unschedulable { task: TaskId(1) })
        );
    }

    #[test]
    fn mk_holds_under_permanent_fault_any_time() {
        let ts = fig1_set();
        for at_ms in 0..20 {
            for proc in ProcId::ALL {
                let config = SimConfig::builder()
                    .horizon_ms(20)
                    .active_only()
                    .faults(FaultConfig::permanent(proc, Time::from_ms(at_ms)))
                    .build();
                let mut dp = MkssDp::new(&ts).unwrap();
                let (report, trace) = simulate_traced(&ts, &mut dp, &config);
                assert!(
                    report.mk_assured(),
                    "violation with {proc} fault at {at_ms}ms:\n{}",
                    trace.render_gantt_ms(Time::from_ms(20))
                );
            }
        }
    }
}
