//! Simulation results: energy, job statistics, and QoS outcomes.

use mkss_core::task::TaskId;
use mkss_core::time::Time;
use mkss_obs::{CounterId, MetricsSnapshot};
use serde::{Deserialize, Serialize};

use crate::power::{Energy, EnergyBreakdown};

/// An (m,k)-constraint violation observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MkViolation {
    /// Violating task.
    pub task: TaskId,
    /// 1-based index of the job completing the first violating window.
    pub job_index: u64,
}

/// Aggregate job statistics of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStats {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs classified mandatory at release.
    pub mandatory: u64,
    /// Optional jobs selected for execution.
    pub optional_selected: u64,
    /// Optional jobs skipped at release.
    pub optional_skipped: u64,
    /// Optional jobs abandoned because they could no longer finish by
    /// their deadline.
    pub optional_abandoned: u64,
    /// Backup copies canceled after their main succeeded (including
    /// never-started ones).
    pub backups_canceled: u64,
    /// Backup copies that ran to completion.
    pub backups_completed: u64,
    /// Copies that completed with a transient fault.
    pub transient_faults: u64,
    /// Copies destroyed by the permanent fault.
    pub copies_lost: u64,
    /// Jobs resolved as met (within the horizon).
    pub met: u64,
    /// Jobs resolved as missed (within the horizon).
    pub missed: u64,
}

impl JobStats {
    /// Reads each field from its own counter of a run's tally (or of a
    /// registry delta covering whole runs): the engine counts job facts
    /// only there.
    pub fn from_tally(tally: &MetricsSnapshot) -> JobStats {
        JobStats {
            released: tally.counter(CounterId::JobsReleased),
            mandatory: tally.counter(CounterId::MandatoryReleased),
            optional_selected: tally.counter(CounterId::OptionalSelected),
            optional_skipped: tally.counter(CounterId::OptionalSkipped),
            optional_abandoned: tally.counter(CounterId::OptionalAbandoned),
            backups_canceled: tally.counter(CounterId::BackupsCanceled),
            backups_completed: tally.counter(CounterId::BackupsCompleted),
            transient_faults: tally.counter(CounterId::TransientFaults),
            copies_lost: tally.counter(CounterId::CopiesLost),
            met: tally.counter(CounterId::JobsMet),
            missed: tally.counter(CounterId::JobsMissed),
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Simulated span `[0, horizon)`.
    pub horizon: Time,
    /// Per-processor energy breakdown (index 0 = primary, 1 = spare).
    pub energy: [EnergyBreakdown; 2],
    /// Job statistics.
    pub stats: JobStats,
    /// All (m,k)-violations (empty when the guarantee held, which
    /// Theorem 1 promises for schedulable sets).
    pub violations: Vec<MkViolation>,
}

impl SimReport {
    /// Total energy of both processors.
    pub fn total_energy(&self) -> Energy {
        self.energy[0].total() + self.energy[1].total()
    }

    /// Total active (busy) energy of both processors.
    pub fn active_energy(&self) -> Energy {
        self.energy[0].active + self.energy[1].active
    }

    /// Whether the (m,k)-deadlines were assured for every task.
    pub fn mk_assured(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::Energy;

    #[test]
    fn report_totals() {
        let mut r = SimReport {
            policy: "test".into(),
            horizon: Time::from_ms(20),
            energy: [EnergyBreakdown::default(), EnergyBreakdown::default()],
            stats: JobStats::default(),
            violations: vec![],
        };
        r.energy[0].active = Energy::from_units(8.0);
        r.energy[1].active = Energy::from_units(7.0);
        r.energy[1].idle = Energy::from_units(0.5);
        assert!((r.active_energy().units() - 15.0).abs() < 1e-12);
        assert!((r.total_energy().units() - 15.5).abs() < 1e-12);
        assert!(r.mk_assured());
        r.violations.push(MkViolation {
            task: TaskId(0),
            job_index: 3,
        });
        assert!(!r.mk_assured());
    }

    #[test]
    fn every_stats_field_reads_its_own_counter() {
        // A distinct value in every cell, so a field that reads another
        // counter (or the same one as its neighbour) cannot pass.
        let own = |counter: CounterId| 100 + counter.index() as u64;
        let mut tally = MetricsSnapshot::empty();
        for counter in CounterId::ALL {
            tally.set_counter(counter, own(counter));
        }
        let stats = JobStats::from_tally(&tally);
        assert_eq!(
            stats,
            JobStats {
                released: own(CounterId::JobsReleased),
                mandatory: own(CounterId::MandatoryReleased),
                optional_selected: own(CounterId::OptionalSelected),
                optional_skipped: own(CounterId::OptionalSkipped),
                optional_abandoned: own(CounterId::OptionalAbandoned),
                backups_canceled: own(CounterId::BackupsCanceled),
                backups_completed: own(CounterId::BackupsCompleted),
                transient_faults: own(CounterId::TransientFaults),
                copies_lost: own(CounterId::CopiesLost),
                met: own(CounterId::JobsMet),
                missed: own(CounterId::JobsMissed),
            }
        );
    }
}
