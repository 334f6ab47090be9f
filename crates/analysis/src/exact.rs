//! Exact schedulability analysis by event-driven sweep of the
//! mandatory-job schedule.
//!
//! The busy-window RTA in [`crate::rta`] bounds response times from the
//! synchronous critical instant. For the deeply-red pattern that bound is
//! tight (all patterns are maximally clustered at time 0), which this
//! module lets us *verify*: it simulates the single-processor
//! fixed-priority preemptive schedule of the mandatory jobs over (a
//! bounded prefix of) the pattern hyperperiod and reports the worst
//! observed response time per task.

use mkss_core::task::{TaskId, TaskSet};
use mkss_core::time::Time;

/// Result of the exact sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactReport {
    /// Span actually swept.
    pub horizon: Time,
    /// Worst observed response time per task (priority order); `None`
    /// if some job of the task missed its deadline.
    pub worst_response: Vec<Option<Time>>,
    /// Whether the swept span covered the full pattern hyperperiod *and*
    /// all work released inside it completed by its end — in that case
    /// the schedule repeats and the verdict holds forever.
    pub repeats: bool,
}

impl ExactReport {
    /// Whether every mandatory job met its deadline in the swept span.
    pub fn schedulable(&self) -> bool {
        self.worst_response.iter().all(Option::is_some)
    }

    /// Whether the sweep *proves* schedulability: no misses and the
    /// schedule provably repeats beyond the swept span.
    pub fn schedulable_forever(&self) -> bool {
        self.schedulable() && self.repeats
    }
}

/// Sweeps the mandatory-only fixed-priority schedule (synchronous
/// release, one processor) over `min(pattern hyperperiod, cap)`.
///
/// Jobs released within the horizon but finishing beyond it are followed
/// to completion, so every released job is accounted for.
///
/// # Examples
///
/// ```
/// use mkss_analysis::exact::exact_sweep;
/// use mkss_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::new(vec![
///     Task::from_ms(10, 10, 3, 2, 3)?,
///     Task::from_ms(15, 15, 8, 1, 2)?,
/// ])?;
/// let report = exact_sweep(&ts, Time::from_ms(10_000));
/// assert!(report.schedulable());
/// // τ2's first job finishes at 14: response 14 ms (matches the RTA).
/// assert_eq!(report.worst_response[1], Some(Time::from_ms(14)));
/// # Ok(())
/// # }
/// ```
pub fn exact_sweep(ts: &TaskSet, cap: Time) -> ExactReport {
    let horizon = ts.hyperperiod().min(cap);
    let covers_hyperperiod = horizon == ts.hyperperiod();
    let n = ts.len();
    // Per-task state.
    let mut next_index = vec![1u64; n];
    // Ready mandatory jobs: (task, release, deadline, remaining).
    struct Ready {
        task: usize,
        release: Time,
        deadline: Time,
        remaining: Time,
    }
    let mut ready: Vec<Ready> = Vec::new();
    let mut worst: Vec<Option<Time>> = vec![Some(Time::ZERO); n];
    let mut clock = Time::ZERO;

    // Advance each task's next_index past optional jobs, returning the
    // release time of its next mandatory job within the horizon.
    let next_mandatory = |ts: &TaskSet, next_index: &mut [u64], task: usize| -> Option<Time> {
        let t = ts.task(TaskId(task));
        loop {
            let j = next_index[task];
            let release = t.release_of(j);
            if release >= horizon {
                return None;
            }
            if t.mk().is_mandatory(j) {
                return Some(release);
            }
            next_index[task] += 1;
        }
    };

    loop {
        // Next release among all tasks.
        let mut next_release: Option<Time> = None;
        for task in 0..n {
            if let Some(r) = next_mandatory(ts, &mut next_index, task) {
                next_release = Some(next_release.map_or(r, |cur: Time| cur.min(r)));
            }
        }
        // Admit releases at the current time.
        for task in 0..n {
            while let Some(r) = next_mandatory(ts, &mut next_index, task) {
                if r > clock {
                    break;
                }
                let t = ts.task(TaskId(task));
                ready.push(Ready {
                    task,
                    release: r,
                    deadline: r + t.deadline(),
                    remaining: t.wcet(),
                });
                next_index[task] += 1;
            }
        }
        // Highest-priority ready job.
        let Some(pos) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (j.task, j.release))
            .map(|(i, _)| i)
        else {
            // Idle: jump to the next release or finish.
            match next_release {
                Some(r) if r < horizon => {
                    clock = r;
                    continue;
                }
                _ => break,
            }
        };
        // Run until completion or the next release, whichever is first.
        let job_end = clock + ready[pos].remaining;
        let until = match next_release {
            Some(r) if r < job_end => r,
            _ => job_end,
        };
        ready[pos].remaining -= until - clock;
        clock = until;
        if ready[pos].remaining.is_zero() {
            let job = ready.swap_remove(pos);
            let response = clock - job.release;
            let slot = &mut worst[job.task];
            if clock > job.deadline {
                *slot = None;
            } else if let Some(w) = slot {
                *slot = Some((*w).max(response));
            }
        }
    }
    // `clock` ends at the last completion (or the last release jump);
    // if every released job finished by the hyperperiod boundary, the
    // synchronous schedule repeats.
    let repeats = covers_hyperperiod && clock <= horizon;
    ExactReport {
        horizon,
        worst_response: worst,
        repeats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::{analyze, InterferenceModel};
    use mkss_core::task::Task;
    use proptest::prelude::*;

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
    fn single_task_response_is_wcet() {
        let ts = set(&[(10, 10, 3, 1, 2)]);
        let report = exact_sweep(&ts, Time::from_ms(1_000));
        assert_eq!(report.worst_response, vec![Some(Time::from_ms(3))]);
    }

    #[test]
    fn fig5_set_matches_rta() {
        let ts = set(&[(10, 10, 3, 2, 3), (15, 15, 8, 1, 2)]);
        let exact = exact_sweep(&ts, Time::from_ms(100_000));
        let rta = analyze(&ts, InterferenceModel::MandatoryOnly);
        assert!(exact.schedulable());
        for (id, _) in ts.iter() {
            assert_eq!(exact.worst_response[id.0], rta.response_time(id));
        }
    }

    #[test]
    fn unschedulable_detected() {
        let ts = set(&[(4, 4, 3, 2, 3), (6, 6, 3, 2, 3)]);
        let report = exact_sweep(&ts, Time::from_ms(10_000));
        assert!(!report.schedulable());
        assert!(report.worst_response[0].is_some());
        assert!(report.worst_response[1].is_none());
    }

    #[test]
    fn horizon_cap_respected() {
        let ts = set(&[(7, 7, 2, 1, 5), (11, 11, 3, 2, 3)]);
        let report = exact_sweep(&ts, Time::from_ms(50));
        assert!(report.horizon <= Time::from_ms(50));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For the deeply-red pattern the synchronous release is the
        /// critical instant, so the busy-window RTA is *exact*: the sweep
        /// must observe the same worst responses (over the full pattern
        /// hyperperiod) and the same schedulability verdict.
        #[test]
        fn rta_is_tight_for_deeply_red(
            seed in 0u64..10_000,
            util_pct in 10u64..80,
        ) {
            use mkss_workload::{Generator, WorkloadConfig};
            let config = WorkloadConfig {
                tasks_min: 2,
                tasks_max: 4,
                period_ms: (4, 12), // small periods keep hyperperiods enumerable
                k_range: (2, 4),
                ..WorkloadConfig::paper()
            };
            let Some(ts) = Generator::new(config, seed).raw_set(util_pct as f64 / 100.0) else {
                return Ok(());
            };
            let hyper = ts.hyperperiod();
            prop_assume!(hyper <= Time::from_ms(100_000));
            let exact = exact_sweep(&ts, hyper);
            let rta = analyze(&ts, InterferenceModel::MandatoryOnly);
            prop_assert_eq!(exact.schedulable(), rta.schedulable());
            if rta.schedulable() {
                for (id, _) in ts.iter() {
                    prop_assert_eq!(
                        exact.worst_response[id.0],
                        rta.response_time(id),
                        "task {} differs", id
                    );
                }
            }
        }
    }
}
