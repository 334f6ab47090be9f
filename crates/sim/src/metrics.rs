//! Post-hoc schedule metrics: per-task response times, preemption
//! counts, backup overlap, and energy attribution — distilled from a
//! recorded [`Trace`].
//!
//! These are the quantities the scheduling literature reports beyond raw
//! energy; EXPERIMENTS.md uses them to explain *why* one scheme beats
//! another (e.g. how much canceled-backup work the dual-priority scheme
//! wastes).

use mkss_core::history::JobOutcome;
use mkss_core::job::CopyKind;
use mkss_core::task::{TaskId, TaskSet};
use mkss_core::time::Time;
use serde::{Deserialize, Serialize};

use crate::trace::{SegmentEnd, Trace};

/// Per-task schedule metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskMetrics {
    /// The task.
    pub task: TaskId,
    /// Jobs resolved as met.
    pub met: u64,
    /// Jobs resolved as missed.
    pub missed: u64,
    /// Worst response time among met jobs (resolution − release).
    pub worst_response: Time,
    /// Summed response time among met jobs (divide by `met` for the
    /// mean).
    pub total_response: Time,
    /// Number of preemption boundaries suffered by this task's copies.
    pub preemptions: u64,
    /// Execution time spent in main copies.
    pub main_busy: Time,
    /// Execution time spent in backup copies (completed or canceled).
    pub backup_busy: Time,
    /// Execution time spent in optional copies.
    pub optional_busy: Time,
    /// The part of `backup_busy` that was thrown away by cancellation —
    /// the duplication overhead the paper's schemes try to minimize.
    pub canceled_backup_work: Time,
}

impl TaskMetrics {
    /// Mean response time of met jobs in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        if self.met == 0 {
            return 0.0;
        }
        self.total_response.as_ms_f64() / self.met as f64
    }
}

/// Whole-trace metrics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMetrics {
    /// Per-task rows, priority order.
    pub per_task: Vec<TaskMetrics>,
}

impl TraceMetrics {
    /// Total canceled-backup (wasted duplicate) work across tasks.
    pub fn total_canceled_backup_work(&self) -> Time {
        self.per_task.iter().map(|t| t.canceled_backup_work).sum()
    }

    /// Total execution time across all copies of all tasks.
    pub fn total_busy(&self) -> Time {
        self.per_task
            .iter()
            .map(|t| t.main_busy + t.backup_busy + t.optional_busy)
            .sum()
    }
}

/// Computes the metrics of a recorded trace.
///
/// # Examples
///
/// ```
/// use mkss_core::prelude::*;
/// use mkss_sim::metrics::analyze_trace;
/// use mkss_sim::prelude::*;
/// # use mkss_sim::policy::{Policy, ReleaseCtx, ReleaseDecision};
///
/// # struct Dup;
/// # impl Policy for Dup {
/// #     fn name(&self) -> &str { "dup" }
/// #     fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
/// #         ReleaseDecision::Mandatory { main_proc: ProcId::PRIMARY, backup_delay: Time::ZERO }
/// #     }
/// # }
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2)?])?;
/// let (_, trace) = simulate_traced(&ts, &mut Dup, &SimConfig::active_only(Time::from_ms(40)));
/// let metrics = analyze_trace(&ts, &trace);
/// assert_eq!(metrics.per_task[0].met, 4);
/// assert_eq!(metrics.per_task[0].worst_response, Time::from_ms(2));
/// # Ok(())
/// # }
/// ```
pub fn analyze_trace(ts: &TaskSet, trace: &Trace) -> TraceMetrics {
    let mut per_task: Vec<TaskMetrics> = ts
        .ids()
        .map(|task| TaskMetrics {
            task,
            met: 0,
            missed: 0,
            worst_response: Time::ZERO,
            total_response: Time::ZERO,
            preemptions: 0,
            main_busy: Time::ZERO,
            backup_busy: Time::ZERO,
            optional_busy: Time::ZERO,
            canceled_backup_work: Time::ZERO,
        })
        .collect();

    for r in &trace.resolutions {
        let row = &mut per_task[r.job.task.0];
        match r.outcome {
            JobOutcome::Met => {
                row.met += 1;
                let release = ts.task(r.job.task).release_of(r.job.index);
                let response = r.at.saturating_sub(release);
                row.worst_response = row.worst_response.max(response);
                row.total_response += response;
            }
            JobOutcome::Missed => row.missed += 1,
        }
    }

    for seg in &trace.segments {
        let row = &mut per_task[seg.job.task.0];
        match seg.kind {
            CopyKind::Main => row.main_busy += seg.len(),
            CopyKind::Backup => {
                row.backup_busy += seg.len();
                if seg.ended == SegmentEnd::Canceled {
                    row.canceled_backup_work += seg.len();
                }
            }
            CopyKind::Optional => row.optional_busy += seg.len(),
        }
        if seg.ended == SegmentEnd::Preempted {
            row.preemptions += 1;
        }
    }

    TraceMetrics { per_task }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_traced, SimConfig};
    use crate::policy::{Policy, ReleaseCtx, ReleaseDecision};
    use crate::proc::ProcId;
    use crate::trace::{JobResolution, Segment};
    use mkss_core::job::JobId;
    use mkss_core::task::{Task, TaskSet};

    struct Dup;
    impl Policy for Dup {
        fn name(&self) -> &str {
            "dup"
        }
        fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
            ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay: Time::ZERO,
            }
        }
    }

    fn two_task_set() -> TaskSet {
        TaskSet::new(vec![
            Task::from_ms(5, 4, 3, 2, 4).unwrap(),
            Task::from_ms(10, 10, 3, 1, 2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn counts_and_responses() {
        let ts = two_task_set();
        let (_, trace) = simulate_traced(&ts, &mut Dup, &SimConfig::active_only(Time::from_ms(20)));
        let m = analyze_trace(&ts, &trace);
        // Every job mandatory: τ1 4 jobs, τ2 2 jobs; all met.
        assert_eq!(m.per_task[0].met, 4);
        assert_eq!(m.per_task[1].met, 2);
        assert_eq!(m.per_task[0].missed + m.per_task[1].missed, 0);
        // τ1 never waits: worst response = 3ms; τ2 waits behind τ1.
        assert_eq!(m.per_task[0].worst_response, Time::from_ms(3));
        assert!(m.per_task[1].worst_response > Time::from_ms(3));
        assert!(m.per_task[0].mean_response_ms() >= 3.0);
        // Both copies ran fully (concurrent, no savings).
        assert_eq!(m.per_task[0].main_busy, Time::from_ms(12));
        assert_eq!(m.per_task[0].backup_busy, Time::from_ms(12));
        assert_eq!(m.total_busy(), Time::from_ms(36));
    }

    #[test]
    fn canceled_backup_work_shows_dp_overhead() {
        // Under dual-priority-style delayed backups, canceled segments
        // appear; here with concurrent copies cancellation saves nothing,
        // so canceled work is zero.
        let ts = two_task_set();
        let (_, trace) = simulate_traced(&ts, &mut Dup, &SimConfig::active_only(Time::from_ms(20)));
        let m = analyze_trace(&ts, &trace);
        assert_eq!(m.total_canceled_backup_work(), Time::ZERO);
    }

    #[test]
    fn preemptions_counted() {
        let ts = two_task_set();
        let (_, trace) = simulate_traced(&ts, &mut Dup, &SimConfig::active_only(Time::from_ms(20)));
        let m = analyze_trace(&ts, &trace);
        // τ2's jobs get preempted by τ1 (J21 at t=5 on both processors).
        assert!(m.per_task[1].preemptions >= 2);
        assert_eq!(m.per_task[0].preemptions, 0);
    }

    #[test]
    fn empty_trace_yields_all_zero_rows() {
        let ts = two_task_set();
        let m = analyze_trace(&ts, &Trace::default());
        assert_eq!(m.per_task.len(), ts.len());
        for row in &m.per_task {
            assert_eq!((row.met, row.missed, row.preemptions), (0, 0, 0));
            assert_eq!(row.worst_response, Time::ZERO);
            assert_eq!(row.mean_response_ms(), 0.0);
        }
        assert_eq!(m.total_busy(), Time::ZERO);
        assert_eq!(m.total_canceled_backup_work(), Time::ZERO);
    }

    #[test]
    fn zero_met_jobs_has_finite_mean_response() {
        // Every job missed: mean response over zero met jobs must be an
        // exact 0.0, not NaN/inf from a 0/0.
        let ts = two_task_set();
        let trace = Trace {
            segments: Vec::new(),
            resolutions: vec![
                JobResolution {
                    job: JobId::new(TaskId(0), 1),
                    outcome: JobOutcome::Missed,
                    at: Time::from_ms(4),
                },
                JobResolution {
                    job: JobId::new(TaskId(0), 2),
                    outcome: JobOutcome::Missed,
                    at: Time::from_ms(9),
                },
            ],
        };
        let m = analyze_trace(&ts, &trace);
        assert_eq!(m.per_task[0].met, 0);
        assert_eq!(m.per_task[0].missed, 2);
        let mean = m.per_task[0].mean_response_ms();
        assert!(mean.is_finite());
        assert_eq!(mean, 0.0);
    }

    #[test]
    fn all_backups_canceled_attributes_every_backup_tick_as_waste() {
        // Hand-built schedule: both backup segments end Canceled, so all
        // backup work must be attributed to `canceled_backup_work` and
        // none of it may leak into main/optional busy time.
        let ts = two_task_set();
        let seg = |task: usize, index: u64, kind, start_ms, end_ms, ended| Segment {
            proc: ProcId::SPARE,
            job: JobId::new(TaskId(task), index),
            kind,
            start: Time::from_ms(start_ms),
            end: Time::from_ms(end_ms),
            ended,
        };
        let trace = Trace {
            segments: vec![
                seg(0, 1, CopyKind::Main, 0, 3, SegmentEnd::Completed),
                seg(0, 1, CopyKind::Backup, 1, 3, SegmentEnd::Canceled),
                seg(0, 2, CopyKind::Backup, 5, 8, SegmentEnd::Canceled),
            ],
            resolutions: vec![JobResolution {
                job: JobId::new(TaskId(0), 1),
                outcome: JobOutcome::Met,
                at: Time::from_ms(3),
            }],
        };
        let m = analyze_trace(&ts, &trace);
        let row = &m.per_task[0];
        assert_eq!(row.backup_busy, Time::from_ms(5));
        assert_eq!(row.canceled_backup_work, Time::from_ms(5));
        assert_eq!(m.total_canceled_backup_work(), Time::from_ms(5));
        assert_eq!(row.main_busy, Time::from_ms(3));
        assert_eq!(row.optional_busy, Time::ZERO);
        assert_eq!(m.per_task[1].backup_busy, Time::ZERO);
    }
}
