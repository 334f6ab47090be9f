//! Differential test of the verdict-only R-pattern test against the full
//! busy-window report.
//!
//! `is_schedulable_r_pattern` tests the tasks from the lowest priority up
//! and stops at the first miss; `analyze` reports every task. Both decide
//! a task by its first job's fixed point, which every task's `D ≤ P` and
//! `m ≥ 1` make exact. They must agree on a fixed corpus of generator
//! draws across nine 0.1-wide buckets, and on hand-built sets that each
//! exercise one exit of the verdict. On the
//! corpus, the generator's pre-test (`first_job_meets` on an unsorted
//! copy) must also decide as the lowest-priority task's test does.

use mkss::analysis::rta::first_job_meets;
use mkss::prelude::*;

const DEEPLY_RED: InterferenceModel = InterferenceModel::MandatoryOnly;

fn full_verdict(ts: &TaskSet) -> bool {
    analyze(ts, DEEPLY_RED).schedulable()
}

/// Whether every task's first job meets its deadline at the
/// synchronous release.
fn first_jobs_meet(ts: &TaskSet) -> bool {
    ts.ids()
        .all(|id| response_time(ts, id, DEEPLY_RED).is_some())
}

/// The tasks of `ts` out of priority order, higher-priority ones
/// reversed, with `last` moved to the end.
fn unsorted_with_last(ts: &TaskSet, last: TaskId) -> Vec<Task> {
    let mut tasks: Vec<Task> = ts.tasks().iter().rev().copied().collect();
    let at = tasks.len() - 1 - last.0;
    tasks[at..].rotate_left(1);
    tasks
}

#[test]
fn verdict_matches_full_report_on_a_fixed_corpus() {
    let mut generator = Generator::new(WorkloadConfig::paper(), 0x5eed_0019);
    let (mut accepted, mut rejected) = (0, 0);
    for bucket in 1..10 {
        let lo = f64::from(bucket) / 10.0;
        for _ in 0..300 {
            let Some(ts) = generator.raw_set_in(lo, lo + 0.1) else {
                continue;
            };
            let verdict = is_schedulable_r_pattern(&ts);
            assert_eq!(verdict, full_verdict(&ts), "bucket {lo:.1}: {ts:?}");
            // Every task has D ≤ P and a mandatory first job, so a task
            // whose first job meets has a level-i busy window that closes
            // before its second release: the first jobs alone decide.
            assert_eq!(verdict, first_jobs_meet(&ts), "bucket {lo:.1}: {ts:?}");
            // The generator's pre-test: the slice-level first-job test on
            // the unsorted draw, lowest-priority task last, decides as the
            // first-job fixed point of that task and never rejects an
            // accepted set.
            let lowest = TaskId(ts.len() - 1);
            let pre_test = first_job_meets(&unsorted_with_last(&ts, lowest));
            assert_eq!(
                pre_test,
                response_time(&ts, lowest, DEEPLY_RED).is_some(),
                "bucket {lo:.1}: {ts:?}"
            );
            assert!(pre_test || !verdict, "bucket {lo:.1}: {ts:?}");
            if verdict {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // Both exits are exercised; the split is pinned so a changed draw or
    // a verdict that moved in both functions at once shows up here too.
    assert_eq!((accepted, rejected), (1156, 1530));
}

#[test]
fn a_higher_priority_miss_rejects_when_the_lowest_task_meets() {
    // τ2's first job waits for τ1 and finishes at 5, past its deadline 4;
    // τ3 (lowest priority) finishes its first job at 7 of 50.
    let ts = TaskSet::new(vec![
        Task::from_ms(5, 5, 3, 1, 2).unwrap(),
        Task::from_ms(6, 4, 2, 1, 2).unwrap(),
        Task::from_ms(50, 50, 2, 1, 2).unwrap(),
    ])
    .unwrap();
    let report = analyze(&ts, DEEPLY_RED);
    assert_eq!(report.response_time(TaskId(0)), Some(Time::from_ms(3)));
    assert_eq!(report.response_time(TaskId(1)), None);
    assert_eq!(report.response_time(TaskId(2)), Some(Time::from_ms(7)));
    assert!(!is_schedulable_r_pattern(&ts));
}

#[test]
fn a_busy_window_longer_than_time_is_unschedulable_not_a_panic() {
    // Four tasks each demand 2^62 ticks at the synchronous release, so the
    // lowest task's first-job demand (4·2^62 + 1) does not fit in `Time`.
    const QUARTER: u64 = 1 << 62;
    let heavy = Task::new(
        Time::from_ticks(QUARTER),
        Time::from_ticks(QUARTER),
        Time::from_ticks(QUARTER),
        1,
        2,
    )
    .unwrap();
    let light = Task::new(
        Time::from_ticks(QUARTER),
        Time::from_ticks(QUARTER),
        Time::from_ticks(1),
        1,
        2,
    )
    .unwrap();
    let ts = TaskSet::new(vec![heavy, heavy, heavy, heavy, light]).unwrap();
    assert_eq!(response_time(&ts, TaskId(4), DEEPLY_RED), None);
    assert!(!is_schedulable_r_pattern(&ts));
    let report = analyze(&ts, DEEPLY_RED);
    assert_eq!(
        report.response_time(TaskId(0)),
        Some(Time::from_ticks(QUARTER))
    );
    assert_eq!(report.response_time(TaskId(4)), None);
    assert!(!report.schedulable());
}
