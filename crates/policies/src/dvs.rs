//! DVS-enabled standby-sparing (`MKSS_DP_DVS`) — the extension the paper
//! explicitly leaves out of its `MKSS_DP` baseline ("but without applying
//! DVS"), modeled on the energy-aware standby-sparing of Haque et
//! al. \[7\] / Ejlali et al. \[5\]:
//!
//! * main copies run on the primary at a reduced DVS speed `s ≤ 1`,
//!   drawing cubically less dynamic power (`s³`) while taking `1/s`
//!   longer — net dynamic energy `s²` per unit of work;
//! * backup copies run on the spare **at full speed** with θ-postponed
//!   releases, preserving the recovery capacity: whenever a (slowed)
//!   main fails, its full-speed backup still meets the deadline;
//! * the slowdown is the lowest speed at which the mandatory-only
//!   response-time analysis of the *scaled* WCETs still passes on the
//!   primary.
//!
//! The classic tension is visible in the ablations: slowing the mains
//! saves `1 − s²` on their energy but delays their completion, so
//! θ-postponed backups overlap more before cancellation.
//!
//! Reliability note: the simulator models the *exposure* effect of DVS on
//! transient faults (a stretched execution accumulates proportionally
//! more Poisson arrivals); the additional voltage-dependent fault-rate
//! increase studied by Zhu et al. (the paper's reference \[1\]) is not
//! modeled — backups run at full speed precisely so that recovery is
//! unaffected either way.

use mkss_analysis::postpone::{postponement_intervals, PostponeConfig};
use mkss_analysis::rta::{analyze, InterferenceModel};
use mkss_core::mk::Pattern;
use mkss_core::task::{Task, TaskSet};
use mkss_core::time::Time;
use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
use mkss_sim::proc::ProcId;

use crate::dual_priority::first_unschedulable;
use crate::error::BuildPolicyError;

/// Lowest DVS speed the search considers (25% of full speed — a typical
/// minimum operating point).
pub const MIN_SPEED_PERMIL: u32 = 250;

/// Search granularity of the slowdown (2.5% steps).
pub const SPEED_STEP_PERMIL: u32 = 25;

/// The DVS-enabled static standby-sparing scheme.
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_policies::MkssDpDvs;
/// use mkss_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A light set: the mains can be slowed far below full speed.
/// let ts = TaskSet::new(vec![
///     Task::from_ms(20, 20, 2, 1, 2)?,
///     Task::from_ms(30, 30, 3, 1, 3)?,
/// ])?;
/// let mut dvs = MkssDpDvs::new(&ts)?;
/// assert!(dvs.speed_permil() < 1000);
/// let report = simulate(&ts, &mut dvs, &SimConfig::active_only(Time::from_ms(120)));
/// assert!(report.mk_assured());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MkssDpDvs {
    pattern: Pattern,
    speed_permil: u32,
    backup_delay: Vec<Time>,
}

/// Scales every WCET by `1000/speed_permil` (rounding up), failing where
/// a stretched WCET no longer fits its deadline.
fn scaled_task_set(ts: &TaskSet, speed_permil: u32) -> Option<TaskSet> {
    let tasks: Option<Vec<Task>> = ts
        .iter()
        .map(|(_, t)| {
            let stretched =
                Time::from_ticks((t.wcet().ticks() * 1000).div_ceil(u64::from(speed_permil)));
            Task::with_constraint(t.period(), t.deadline(), stretched, t.mk()).ok()
        })
        .collect();
    TaskSet::new(tasks?).ok()
}

impl MkssDpDvs {
    /// Builds the scheme with the lowest feasible main-copy speed.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] if the set is not
    /// R-pattern schedulable even at full speed.
    pub fn new(ts: &TaskSet) -> Result<Self, BuildPolicyError> {
        let mut best = 1000;
        let mut speed = 1000;
        loop {
            if speed < MIN_SPEED_PERMIL {
                break;
            }
            let feasible = scaled_task_set(ts, speed)
                .map(|scaled| {
                    analyze(
                        &scaled,
                        InterferenceModel::MandatoryOnly(Pattern::DeeplyRed),
                    )
                    .schedulable()
                })
                .unwrap_or(false);
            if feasible {
                best = speed;
                speed -= SPEED_STEP_PERMIL;
            } else {
                break;
            }
        }
        if best == 1000 {
            // Validate full speed explicitly so an unschedulable set errors.
            let report = analyze(ts, InterferenceModel::MandatoryOnly(Pattern::DeeplyRed));
            if !report.schedulable() {
                return Err(first_unschedulable(ts, Pattern::DeeplyRed));
            }
        }
        Self::with_speed(ts, best)
    }

    /// Builds the scheme with an explicit main-copy speed (permil).
    ///
    /// # Errors
    ///
    /// Returns [`BuildPolicyError::Unschedulable`] if the scaled mains or
    /// the full-speed backups fail their analyses.
    ///
    /// # Panics
    ///
    /// Panics if `speed_permil` is outside `1..=1000`.
    pub fn with_speed(ts: &TaskSet, speed_permil: u32) -> Result<Self, BuildPolicyError> {
        assert!(
            (1..=1000).contains(&speed_permil),
            "speed must be in 1..=1000 permil"
        );
        let pattern = Pattern::DeeplyRed;
        let scaled =
            scaled_task_set(ts, speed_permil).ok_or_else(|| first_unschedulable(ts, pattern))?;
        if !analyze(&scaled, InterferenceModel::MandatoryOnly(pattern)).schedulable() {
            return Err(first_unschedulable(&scaled, pattern));
        }
        // Backups run at full speed on a pure-backup spare: the θ
        // analysis of the *unscaled* set applies (Defs. 2–5).
        let backup_delay = postponement_intervals(
            ts,
            PostponeConfig {
                pattern,
                ..PostponeConfig::default()
            },
        )
        .map(|p| p.theta)
        .map_err(|_| first_unschedulable(ts, pattern))?;
        Ok(MkssDpDvs {
            pattern,
            speed_permil,
            backup_delay,
        })
    }

    /// The selected main-copy speed in permil of full speed.
    pub fn speed_permil(&self) -> u32 {
        self.speed_permil
    }
}

impl Policy for MkssDpDvs {
    fn name(&self) -> &str {
        "MKSS_DP_DVS"
    }

    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        let mk = ctx.history.constraint();
        if !self.pattern.is_mandatory(mk, ctx.job_index) {
            return ReleaseDecision::Skip;
        }
        ReleaseDecision::MandatoryScaled {
            main_proc: ProcId::PRIMARY,
            backup_delay: self.backup_delay[ctx.task.0],
            main_speed_permil: self.speed_permil,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkss_core::prelude::{Task, TaskSet, Time};
    use mkss_sim::prelude::*;

    fn light_set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(20, 20, 2, 1, 2).unwrap(),
            Task::from_ms(30, 30, 3, 1, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn speed_search_slows_light_sets() {
        let dvs = MkssDpDvs::new(&light_set()).unwrap();
        assert!(dvs.speed_permil() <= 500, "got {}", dvs.speed_permil());
        assert!(dvs.speed_permil() >= MIN_SPEED_PERMIL);
    }

    #[test]
    fn heavy_sets_stay_near_full_speed() {
        let ts = TaskSet::new(vec![
            Task::from_ms(10, 10, 6, 2, 3).unwrap(),
            Task::from_ms(15, 15, 3, 1, 2).unwrap(),
        ])
        .unwrap();
        let dvs = MkssDpDvs::new(&ts).unwrap();
        assert!(dvs.speed_permil() > 700, "got {}", dvs.speed_permil());
    }

    #[test]
    fn unschedulable_rejected() {
        let ts = TaskSet::new(vec![
            Task::from_ms(4, 4, 3, 2, 3).unwrap(),
            Task::from_ms(6, 6, 3, 2, 3).unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            MkssDpDvs::new(&ts),
            Err(BuildPolicyError::Unschedulable { .. })
        ));
    }

    #[test]
    fn dvs_saves_energy_vs_full_speed_dp() {
        let ts = light_set();
        let config = SimConfig::active_only(Time::from_ms(600));
        let mut dvs = MkssDpDvs::new(&ts).unwrap();
        let dvs_report = simulate(&ts, &mut dvs, &config);
        let mut full = MkssDpDvs::with_speed(&ts, 1000).unwrap();
        let full_report = simulate(&ts, &mut full, &config);
        assert!(dvs_report.mk_assured() && full_report.mk_assured());
        assert!(
            dvs_report.active_energy().units() < full_report.active_energy().units(),
            "dvs {} vs full {}",
            dvs_report.active_energy(),
            full_report.active_energy()
        );
    }

    #[test]
    fn energy_scales_quadratically_when_backups_cancel_early() {
        // One light task: backup postponed far enough to never start, so
        // the main's energy dominates: E(s) ≈ C·s² per job.
        let ts = TaskSet::new(vec![Task::from_ms(50, 50, 2, 1, 2).unwrap()]).unwrap();
        let config = SimConfig::active_only(Time::from_ms(500));
        let energy = |permil: u32| {
            let mut p = MkssDpDvs::with_speed(&ts, permil).unwrap();
            simulate(&ts, &mut p, &config).active_energy().units()
        };
        let full = energy(1000);
        let half = energy(500);
        assert!(
            (half - full * 0.25).abs() < full * 0.05,
            "half-speed energy {half} should be ≈ 25% of {full}"
        );
    }

    #[test]
    fn mk_holds_under_permanent_fault_any_time() {
        let ts = light_set();
        for at_ms in (0..120).step_by(7) {
            for proc in ProcId::ALL {
                let config = SimConfig::builder()
                    .horizon_ms(120)
                    .faults(FaultConfig::permanent(proc, Time::from_ms(at_ms)))
                    .build();
                let mut dvs = MkssDpDvs::new(&ts).unwrap();
                let report = simulate(&ts, &mut dvs, &config);
                assert!(
                    report.mk_assured(),
                    "violation with {proc} fault at {at_ms}ms"
                );
            }
        }
    }

    #[test]
    fn slowed_mains_still_meet_deadlines() {
        let ts = light_set();
        let mut dvs = MkssDpDvs::new(&ts).unwrap();
        let config = SimConfig::builder().horizon_ms(600).active_only().build();
        let report = simulate(&ts, &mut dvs, &config);
        assert_eq!(report.stats.missed, report.stats.optional_skipped);
        assert!(report.mk_assured());
    }
}
