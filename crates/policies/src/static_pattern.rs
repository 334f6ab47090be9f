//! `MKSS_ST` — the static reference scheme of the evaluation (Section V).
//!
//! Task sets are partitioned with the static deeply-red pattern; mandatory
//! jobs execute concurrently on both processors (main on the primary,
//! backup on the spare, no procrastination), and optional jobs are never
//! executed. This is the energy *reference* the paper normalizes against.

use mkss_core::time::Time;
use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
use mkss_sim::proc::ProcId;

/// The static standby-sparing scheme (`MKSS_ST`).
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_policies::MkssSt;
/// use mkss_sim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(5, 4, 3, 2, 4)?,
///     Task::from_ms(10, 10, 3, 1, 2)?,
/// ])?;
/// let report = simulate(&ts, &mut MkssSt::new(), &SimConfig::active_only(Time::from_ms(20)));
/// assert!(report.mk_assured());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MkssSt;

impl MkssSt {
    /// Creates the scheme.
    pub fn new() -> Self {
        MkssSt
    }
}

impl Policy for MkssSt {
    fn name(&self) -> &str {
        "MKSS_ST"
    }

    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
        if ctx.history.constraint().is_mandatory(ctx.job_index) {
            ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay: Time::ZERO,
            }
        } else {
            ReleaseDecision::Skip
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
    fn reference_energy_on_fig1_set() {
        let report = simulate(
            &fig1_set(),
            &mut MkssSt::new(),
            &SimConfig::active_only(Time::from_ms(20)),
        );
        // Main and backup start together and see identical FP schedules →
        // no cancellation savings: 2 × (3+3+3) = 18 active units.
        assert!((report.active_energy().units() - 18.0).abs() < 1e-9);
        assert!(report.mk_assured());
    }

    #[test]
    fn optional_jobs_never_execute() {
        let report = simulate(
            &fig1_set(),
            &mut MkssSt::new(),
            &SimConfig::active_only(Time::from_ms(20)),
        );
        assert_eq!(report.stats.optional_selected, 0);
        assert_eq!(report.stats.optional_skipped, 3);
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
                let report = simulate(&ts, &mut MkssSt::new(), &config);
                assert!(
                    report.mk_assured(),
                    "violation with {proc} fault at {at_ms}ms"
                );
            }
        }
    }
}
