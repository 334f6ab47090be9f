//! Dynamic-pattern schemes: the paper's `MKSS_selective` (Algorithm 1)
//! and the *greedy* strawman of Section III, as one configurable policy
//! family.
//!
//! Both classify each job **at release** from the task's execution
//! history: a job with flexibility degree 0 is mandatory (runs duplicated
//! with a procrastinated backup), any other job is optional. They differ
//! in *which* optional jobs are selected for execution and *where*:
//!
//! * **Selective** (Section IV): only optional jobs with flexibility
//!   degree exactly 1, alternating between the primary and the spare
//!   processor per task.
//! * **Greedy** (Section III, Figs. 2–3): every optional job is selected,
//!   all on the primary processor.
//!
//! Both delay each mandatory job's backup by the promotion time
//! `Y_i = D_i − R_i` (Eq. 2). Algorithm 1 delays Selective's backups by
//! the inspecting-point intervals `θ_i` of Definitions 2–5 instead, but
//! that analysis holds only for the static R-pattern's job positions: a
//! dynamic pattern puts mandatory jobs elsewhere, and a θ-delayed backup
//! then misses after a permanent fault (the replayed counterexample
//! `tests/counterexamples/selective_tau2_job42.json`; DESIGN §7).

use mkss_analysis::rta::{promotion_times, InterferenceModel};
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
use mkss_sim::proc::ProcId;

use crate::dual_priority::first_unschedulable;
use crate::error::BuildPolicyError;

/// Which optional jobs are selected for execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: Algorithm 1's selection principles are a fixed catalog; consumers match exhaustively"
)]
pub enum SelectionRule {
    /// Only jobs with flexibility degree exactly 1 (Algorithm 1,
    /// principle (i)).
    FdExactlyOne,
    /// Every optional job (the greedy strawman).
    All,
}

impl SelectionRule {
    fn selects(self, fd: u32) -> bool {
        debug_assert!(fd >= 1, "fd 0 jobs are mandatory, not optional");
        match self {
            SelectionRule::FdExactlyOne => fd == 1,
            SelectionRule::All => true,
        }
    }
}

/// Where selected optional jobs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: Algorithm 1 principle (ii) defines exactly these placements; matched exhaustively"
)]
pub enum OptionalPlacement {
    /// Alternate per task between the two processors, starting with the
    /// primary (Algorithm 1, principle (ii) / Fig. 4).
    Alternate,
    /// All on the primary (the greedy strawman of Figs. 2–3).
    PrimaryOnly,
}

/// Configuration of a [`DynamicPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicConfig {
    /// Optional-job selection rule.
    pub selection: SelectionRule,
    /// Optional-job placement.
    pub placement: OptionalPlacement,
}

impl DynamicConfig {
    /// The paper's `MKSS_selective` configuration.
    pub fn selective() -> Self {
        DynamicConfig {
            selection: SelectionRule::FdExactlyOne,
            placement: OptionalPlacement::Alternate,
        }
    }

    /// The greedy strawman of Section III.
    pub fn greedy() -> Self {
        DynamicConfig {
            selection: SelectionRule::All,
            placement: OptionalPlacement::PrimaryOnly,
        }
    }
}

/// A dynamic-pattern standby-sparing policy (selective / greedy / custom).
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_policies::MkssSelective;
/// use mkss_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The Fig. 3/4 task set; τ1's deadline is 2.5 ms.
/// let ts = TaskSet::new(vec![
///     Task::new(Time::from_ms(5), Time::from_us(2_500), Time::from_ms(2), 2, 4)?,
///     Task::from_ms(4, 4, 2, 2, 4)?,
/// ])?;
/// let mut selective = MkssSelective::new(&ts)?;
/// let report = simulate(&ts, &mut selective, &SimConfig::active_only(Time::from_ms(25)));
/// // Fig. 4: 14 active energy units before t = 25.
/// assert!((report.active_energy().units() - 14.0).abs() < 1e-9);
/// assert!(report.mk_assured());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicPolicy {
    name: String,
    config: DynamicConfig,
    /// Per-task backup delay: the promotion times `Y_i`.
    delay: Vec<Time>,
    /// Per-task alternation state: next optional goes to the spare when
    /// set (used by [`OptionalPlacement::Alternate`]).
    next_on_spare: Vec<bool>,
}

/// The paper's `MKSS_selective` (Algorithm 1): a [`DynamicPolicy`] with
/// FD = 1 selection, alternating placement, and backups delayed by the
/// promotion times.
pub type MkssSelective = DynamicPolicy;

impl DynamicPolicy {
    /// Builds the paper's `MKSS_selective` scheme.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] if the task set fails
    /// the R-pattern response-time analysis (the premise of Theorem 1).
    pub fn new(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        Self::with_config("MKSS_selective", ts, DynamicConfig::selective())
    }

    /// Builds the greedy strawman of Section III.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicPolicy::new`].
    pub fn greedy(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        Self::with_config("MKSS_greedy", ts, DynamicConfig::greedy())
    }

    /// Builds a custom selection/placement combination (the FD = 1,
    /// primary-only scheme of Fig. 2).
    ///
    /// # Errors
    ///
    /// Same as [`DynamicPolicy::new`].
    pub fn with_config(
        name: &str,
        ts: &TaskSet,
        config: DynamicConfig,
    ) -> Result<Self, BuildPolicyError> {
        let delay = promotion_times(ts, InterferenceModel::MandatoryOnly)
            .ok_or_else(|| first_unschedulable(ts))?;
        Ok(DynamicPolicy {
            name: name.to_owned(),
            config,
            delay,
            next_on_spare: vec![false; ts.len()],
        })
    }
}

impl Policy for DynamicPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    /// Starts the optional alternation afresh, so a policy built once
    /// and run again reproduces its first report.
    fn init(&mut self, _task_set: &TaskSet) {
        self.next_on_spare.fill(false);
    }

    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        let fd = ctx.history.flexibility_degree();
        if fd == 0 {
            return ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay: self.delay[ctx.task.0],
            };
        }
        if !self.config.selection.selects(fd) {
            return ReleaseDecision::Skip;
        }
        let proc = match self.config.placement {
            OptionalPlacement::PrimaryOnly => ProcId::PRIMARY,
            OptionalPlacement::Alternate => {
                let flag = &mut self.next_on_spare[ctx.task.0];
                let proc = if *flag {
                    ProcId::SPARE
                } else {
                    ProcId::PRIMARY
                };
                *flag = !*flag;
                proc
            }
        };
        ReleaseDecision::Optional { proc }
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

    fn fig3_set() -> TaskSet {
        TaskSet::new(vec![
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
        .unwrap()
    }

    #[test]
    fn selective_fig4_energy() {
        let ts = fig3_set();
        let mut p = DynamicPolicy::new(&ts).unwrap();
        let (report, trace) =
            simulate_traced(&ts, &mut p, &SimConfig::active_only(Time::from_ms(25)));
        assert!(
            (report.active_energy().units() - 14.0).abs() < 1e-9,
            "expected 14 units, got {} \n{}",
            report.active_energy(),
            &trace.render_gantt_ms(Time::from_ms(25))
        );
        assert!(report.mk_assured());
    }

    #[test]
    fn selective_alternates_processors() {
        let ts = fig3_set();
        let mut p = DynamicPolicy::new(&ts).unwrap();
        let (_, trace) = simulate_traced(&ts, &mut p, &SimConfig::active_only(Time::from_ms(25)));
        // Optional copies of τ1 must appear on both processors (Fig. 4:
        // O12 on the primary, then J13 "re-selected" on the spare).
        let procs: std::collections::BTreeSet<ProcId> = trace
            .segments
            .iter()
            .filter(|s| s.kind == CopyKind::Optional && s.job.task == TaskId(0))
            .map(|s| s.proc)
            .collect();
        assert_eq!(procs.len(), 2, "τ1's optional jobs should alternate");
    }

    #[test]
    fn greedy_fig2_variant_energy() {
        // Greedy restricted to FD = 1 on the Fig. 1/2 set reproduces the
        // schedule of Fig. 2: 12 active units (20% below Fig. 1's 15).
        let ts = fig1_set();
        let mut p = DynamicPolicy::with_config(
            "greedy_fd1",
            &ts,
            DynamicConfig {
                selection: SelectionRule::FdExactlyOne,
                placement: OptionalPlacement::PrimaryOnly,
            },
        )
        .unwrap();
        let (report, trace) =
            simulate_traced(&ts, &mut p, &SimConfig::active_only(Time::from_ms(20)));
        assert!(
            (report.active_energy().units() - 12.0).abs() < 1e-9,
            "expected 12 units, got {}\n{}",
            report.active_energy(),
            &trace.render_gantt_ms(Time::from_ms(20))
        );
        assert!(report.mk_assured());
    }

    #[test]
    fn greedy_executes_excessive_jobs_fig3() {
        // Section III's point: on the Fig. 3 set the greedy scheme burns
        // substantially more energy than the selective one (the paper
        // reports 20 vs 14; our greedy reconstruction lands in the same
        // regime — strictly more than selective).
        let ts = fig3_set();
        let config = SimConfig::active_only(Time::from_ms(25));
        let greedy = simulate(&ts, &mut DynamicPolicy::greedy(&ts).unwrap(), &config);
        let selective = simulate(&ts, &mut DynamicPolicy::new(&ts).unwrap(), &config);
        assert!(greedy.mk_assured());
        assert!(
            greedy.active_energy().units() >= selective.active_energy().units() + 4.0,
            "greedy {} vs selective {}",
            greedy.active_energy(),
            selective.active_energy()
        );
    }

    #[test]
    fn selective_backs_up_with_promotion_times() {
        let ts = TaskSet::new(vec![
            Task::from_ms(10, 10, 3, 2, 3).unwrap(),
            Task::from_ms(15, 15, 8, 1, 2).unwrap(),
        ])
        .unwrap();
        // A miss leaves both tasks deeply red (FD = 0), so the next job
        // is mandatory and its backup waits Y_i: Y1 = 10 − 3 = 7 and
        // Y2 = 15 − 14 = 1, not Fig. 5's θ2 = 4.
        let mut p = DynamicPolicy::new(&ts).unwrap();
        for (id, task) in ts.iter() {
            let mut history = MkHistory::new(task.mk());
            history.record(JobOutcome::Missed);
            let ctx = ReleaseCtx {
                task: id,
                job_index: 2,
                now: task.release_of(2),
                history: &history,
                alive: [true; 2],
            };
            let y = [Time::from_ms(7), Time::from_ms(1)][id.0];
            assert_eq!(
                p.on_release(&ctx),
                ReleaseDecision::Mandatory {
                    main_proc: ProcId::PRIMARY,
                    backup_delay: y,
                }
            );
        }
    }

    #[test]
    fn unschedulable_set_rejected() {
        let ts = TaskSet::new(vec![
            Task::from_ms(4, 4, 3, 2, 3).unwrap(),
            Task::from_ms(6, 6, 3, 2, 3).unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            DynamicPolicy::new(&ts),
            Err(BuildPolicyError::Unschedulable { .. })
        ));
        assert!(matches!(
            DynamicPolicy::greedy(&ts),
            Err(BuildPolicyError::Unschedulable { .. })
        ));
    }

    #[test]
    fn selection_rules() {
        assert!(SelectionRule::FdExactlyOne.selects(1));
        assert!(!SelectionRule::FdExactlyOne.selects(2));
        assert!(SelectionRule::All.selects(7));
    }

    #[test]
    fn selective_beats_dp_on_fig1_set() {
        let ts = fig1_set();
        let config = SimConfig::active_only(Time::from_ms(20));
        let dp = simulate(&ts, &mut crate::MkssDp::new(&ts).unwrap(), &config);
        let sel = simulate(&ts, &mut DynamicPolicy::new(&ts).unwrap(), &config);
        assert!(sel.mk_assured());
        assert!(
            sel.active_energy().units() < dp.active_energy().units(),
            "selective {} vs dp {}",
            sel.active_energy(),
            dp.active_energy()
        );
    }

    #[test]
    fn selective_mk_holds_under_permanent_fault_any_time() {
        let ts = fig1_set();
        for at_ms in 0..20 {
            for proc in ProcId::ALL {
                let config = SimConfig::builder()
                    .horizon_ms(20)
                    .active_only()
                    .faults(FaultConfig::permanent(proc, Time::from_ms(at_ms)))
                    .build();
                let mut p = DynamicPolicy::new(&ts).unwrap();
                let (report, trace) = simulate_traced(&ts, &mut p, &config);
                assert!(
                    report.mk_assured(),
                    "violation with {proc} fault at {at_ms}ms:\n{}",
                    trace.render_gantt_ms(Time::from_ms(20))
                );
            }
        }
    }
}
