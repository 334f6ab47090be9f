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

use mkss_analysis::postpone::{job_postponement, postponement_intervals, PostponeConfig};
use mkss_analysis::rta::InterferenceModel;
use mkss_core::mk::Pattern;
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
use mkss_sim::proc::ProcId;

use crate::error::BuildPolicyError;

/// Placement of the main copies across the two processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the paper's two placement strategies; the CLI matches exhaustively to name them"
)]
pub enum MainPlacement {
    /// Preference-oriented: mains alternate between the processors by
    /// priority index (τ1 → primary, τ2 → spare, τ3 → primary, …), as in
    /// Fig. 1. Balances the load and lets each processor hold exactly one
    /// copy of every task.
    #[default]
    PreferenceOriented,
    /// All mains on the primary, all backups on the spare (the placement
    /// of Haque et al. \[7\]).
    MainsOnPrimary,
}

/// How the backups of the static schemes are procrastinated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the two procrastination modes of the static baselines [7, 8]; matched exhaustively"
)]
pub enum StaticBackupDelay {
    /// Promotion times from the hard real-time all-jobs analysis of the
    /// baselines [7, 8]; `Y_i = 0` where that analysis diverges. The
    /// paper's `MKSS_DP`.
    #[default]
    PromotionAllJobs,
    /// Promotion times from the (m,k)-aware mandatory-only analysis — a
    /// stronger baseline than the paper's.
    PromotionMandatory,
    /// The task-level postponement intervals `θ_i` (Defs. 2–5).
    Postponement,
    /// Per-job postponement `θ_ij` (Def. 4 without Def. 5's per-task
    /// minimum) — an extension beyond the paper. Sound **only** for
    /// static patterns, where every mandatory job sits at its analyzed
    /// position; the dynamic schemes must use the task-level minimum
    /// (see [`crate::BackupDelay::Postponement`]).
    JobPostponement,
}

/// Resolved static-scheme delay lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StaticDelayTable {
    PerTask(Vec<Time>),
    PerJob(Box<mkss_analysis::postpone::JobPostponement>),
}

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
    pattern: Pattern,
    placement: MainPlacement,
    delay_model: StaticBackupDelay,
    delay: StaticDelayTable,
    /// Task-level view of the delays (promotion times for the promotion
    /// models; θ for the postponement models).
    promotion: Vec<Time>,
}

impl MkssDp {
    /// Builds the scheme with preference-oriented placement (the
    /// evaluation's `MKSS_DP`).
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] if the set fails the
    /// mandatory-only response-time analysis (no promotion times exist).
    pub fn new(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        Self::with_placement(ts, MainPlacement::PreferenceOriented)
    }

    /// Builds the scheme with an explicit main-copy placement.
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
    /// Same as [`MkssDp::new`].
    pub fn with_placement(
        ts: &TaskSet,
        placement: MainPlacement,
    ) -> Result<Self, BuildPolicyError> {
        Self::with_options(ts, placement, StaticBackupDelay::PromotionAllJobs)
    }

    /// Builds the scheme with explicit placement and backup-delay model.
    ///
    /// # Errors
    ///
    /// Same as [`MkssDp::new`].
    pub fn with_options(
        ts: &TaskSet,
        placement: MainPlacement,
        delay_model: StaticBackupDelay,
    ) -> Result<Self, BuildPolicyError> {
        let pattern = Pattern::DeeplyRed;
        if placement == MainPlacement::PreferenceOriented
            && matches!(
                delay_model,
                StaticBackupDelay::Postponement | StaticBackupDelay::JobPostponement
            )
        {
            // Defs. 2–5 analyze a spare that runs postponed backups only;
            // preference-oriented placement would mix offset-0 mains in.
            return Err(BuildPolicyError::PostponementNeedsMainsOnPrimary);
        }
        // The standby-sparing guarantee needs the mandatory jobs to be
        // schedulable (Theorem 1's premise); gate on that.
        let report = mkss_analysis::rta::analyze(ts, InterferenceModel::MandatoryOnly(pattern));
        if !report.schedulable() {
            return Err(first_unschedulable(ts, pattern));
        }
        let postpone_config = PostponeConfig {
            pattern,
            ..PostponeConfig::default()
        };
        let (delay, promotion) = match delay_model {
            StaticBackupDelay::PromotionAllJobs => {
                let all_jobs = mkss_analysis::rta::analyze(ts, InterferenceModel::AllJobs);
                let y: Vec<Time> = ts
                    .ids()
                    .map(|id| match all_jobs.response_time(id) {
                        Some(r) => ts.task(id).deadline() - r,
                        None => Time::ZERO,
                    })
                    .collect();
                (StaticDelayTable::PerTask(y.clone()), y)
            }
            StaticBackupDelay::PromotionMandatory => {
                // `response_time` is None only for unschedulable tasks;
                // the gate above makes that unreachable, but propagating
                // keeps this arm correct even if the gate moves.
                let y = ts
                    .ids()
                    .map(|id| {
                        report
                            .response_time(id)
                            .map(|r| ts.task(id).deadline() - r)
                            .ok_or_else(|| first_unschedulable(ts, pattern))
                    })
                    .collect::<Result<Vec<Time>, BuildPolicyError>>()?;
                (StaticDelayTable::PerTask(y.clone()), y)
            }
            StaticBackupDelay::Postponement => {
                let theta = postponement_intervals(ts, postpone_config)
                    .map_err(|_| first_unschedulable(ts, pattern))?
                    .theta;
                (StaticDelayTable::PerTask(theta.clone()), theta)
            }
            StaticBackupDelay::JobPostponement => {
                let jp = job_postponement(ts, postpone_config)
                    .map_err(|_| first_unschedulable(ts, pattern))?;
                let theta = jp.task_level.theta.clone();
                (StaticDelayTable::PerJob(Box::new(jp)), theta)
            }
        };
        Ok(MkssDp {
            pattern,
            placement,
            delay_model,
            delay,
            promotion,
        })
    }

    /// The promotion times `Y_i` in use.
    pub fn promotion(&self) -> &[Time] {
        &self.promotion
    }
}

/// Identifies the first unschedulable task for the error value.
pub(crate) fn first_unschedulable(ts: &TaskSet, pattern: Pattern) -> BuildPolicyError {
    let report = mkss_analysis::rta::analyze(ts, InterferenceModel::MandatoryOnly(pattern));
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
        match (self.placement, self.delay_model) {
            (MainPlacement::PreferenceOriented, StaticBackupDelay::PromotionAllJobs) => "MKSS_DP",
            (MainPlacement::MainsOnPrimary, StaticBackupDelay::PromotionAllJobs) => {
                "MKSS_DP_primary"
            }
            (_, StaticBackupDelay::PromotionMandatory) => "MKSS_DP_ymand",
            (_, StaticBackupDelay::Postponement) => "MKSS_DP_theta",
            (_, StaticBackupDelay::JobPostponement) => "MKSS_DP_jobtheta",
        }
    }

    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        let mk = ctx.history.constraint();
        if !self.pattern.is_mandatory(mk, ctx.job_index) {
            return ReleaseDecision::Skip;
        }
        let main_proc = match self.placement {
            MainPlacement::PreferenceOriented => {
                if ctx.task.0.is_multiple_of(2) {
                    ProcId::PRIMARY
                } else {
                    ProcId::SPARE
                }
            }
            MainPlacement::MainsOnPrimary => ProcId::PRIMARY,
        };
        let backup_delay = match &self.delay {
            StaticDelayTable::PerTask(v) => v[ctx.task.0],
            StaticDelayTable::PerJob(jp) => jp.delay_of(ctx.task, ctx.job_index),
        };
        ReleaseDecision::Mandatory {
            main_proc,
            backup_delay,
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
    fn mains_on_primary_variant() {
        let ts = fig1_set();
        let mut dp = MkssDp::with_placement(&ts, MainPlacement::MainsOnPrimary).unwrap();
        assert_eq!(dp.name(), "MKSS_DP_primary");
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
