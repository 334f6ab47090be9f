//! The policy interface: how a scheduling scheme plugs into the
//! simulation engine.
//!
//! The engine owns the mechanics that all of the paper's schemes share —
//! preemptive fixed-priority dispatch with a mandatory-job queue strictly
//! above an optional-job queue on each processor, sibling-copy
//! cancellation, outcome bookkeeping, DPD energy accounting, and fault
//! handling. A [`Policy`] only decides, at each job release, *what kind
//! of job this is and where its copies go* ([`ReleaseDecision`]), which
//! is precisely where `MKSS_ST`, `MKSS_DP` and `MKSS_selective` differ.

use mkss_core::history::MkHistory;
use mkss_core::task::{TaskId, TaskSet};
use mkss_core::time::Time;
use serde::{Deserialize, Serialize};

use crate::proc::ProcId;

/// What to do with a job at its release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: mandatory/skip-or-optional is the policy contract with the engine; the engine must handle every decision explicitly"
)]
pub enum ReleaseDecision {
    /// The job is mandatory: run a *main* copy on `main_proc` (released
    /// immediately) and a *backup* copy on the other processor, released
    /// `backup_delay` after the job's release (0 for concurrent
    /// execution, `Y_i` under dual-priority and the selective scheme,
    /// `θ_i` under `MKSS_DP_theta`'s postponement).
    Mandatory {
        /// Processor of the main copy; the backup goes to the other one.
        main_proc: ProcId,
        /// Extra release delay of the backup copy.
        backup_delay: Time,
    },
    /// The job is optional and selected for execution as a single copy
    /// (no backup) on `proc`, queued in that processor's OJQ.
    Optional {
        /// Processor that executes the optional job.
        proc: ProcId,
    },
    /// The job is optional and not selected; it is skipped entirely and
    /// will be recorded as missed at its deadline.
    Skip,
}

/// Context handed to the policy at each job release.
#[derive(Debug)]
pub struct ReleaseCtx<'a> {
    /// Releasing task.
    pub task: TaskId,
    /// 1-based job index of the release.
    pub job_index: u64,
    /// Current simulation time (= the job's release time).
    pub now: Time,
    /// Outcome history of the task's previous jobs; its
    /// [`flexibility_degree`](MkHistory::flexibility_degree) drives the
    /// dynamic-pattern schemes.
    pub history: &'a MkHistory,
    /// Liveness of the two processors (false once a permanent fault hit).
    /// The engine redirects copies off dead processors regardless, but
    /// policies may use this to re-balance.
    pub alive: [bool; 2],
}

/// A scheduling scheme for the standby-sparing system.
///
/// Implementations live in the `mkss-policies` crate; the engine invokes
/// [`Policy::on_release`] exactly once per job in release order (per
/// task, indices are strictly increasing).
pub trait Policy {
    /// Short scheme name for reports (e.g. `"MKSS_selective"`).
    fn name(&self) -> &str;

    /// Called once before the simulation starts.
    fn init(&mut self, task_set: &TaskSet) {
        let _ = task_set;
    }

    /// Classifies the released job and places its copies.
    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision;
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn init(&mut self, task_set: &TaskSet) {
        (**self).init(task_set);
    }
    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        (**self).on_release(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::mk::MkConstraint;

    struct AlwaysMandatory;
    impl Policy for AlwaysMandatory {
        fn name(&self) -> &str {
            "always-mandatory"
        }
        fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay: Time::ZERO,
            }
        }
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut p: Box<dyn Policy> = Box::new(AlwaysMandatory);
        assert_eq!(p.name(), "always-mandatory");
        let history = MkHistory::new(MkConstraint::new(1, 2).unwrap());
        let ctx = ReleaseCtx {
            task: TaskId(0),
            job_index: 1,
            now: Time::ZERO,
            history: &history,
            alive: [true, true],
        };
        assert_eq!(
            p.on_release(&ctx),
            ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay: Time::ZERO,
            }
        );
    }
}
