//! Differential test of the verdict-only R-pattern test against the full
//! busy-window report.
//!
//! `is_schedulable_r_pattern` first solves every task's first-job
//! response time (lowest priority first) and only then walks the busy
//! windows; `analyze` walks every window. The two must agree on a fixed
//! corpus of generator draws across nine 0.1-wide buckets, and on
//! hand-built sets that each exercise one exit of the two-pass verdict.
//! On the corpus, the generator's pre-test (`first_job_meets` on an
//! unsorted copy) must also decide as pass 1 does.

use mkss::analysis::rta::first_job_meets;
use mkss::prelude::*;

const DEEPLY_RED: InterferenceModel = InterferenceModel::MandatoryOnly(Pattern::DeeplyRed);

fn full_verdict(ts: &TaskSet) -> bool {
    analyze(ts, DEEPLY_RED).schedulable()
}

/// Whether every task's first job meets its deadline at the
/// synchronous release.
fn first_jobs_meet(ts: &TaskSet) -> bool {
    ts.ids()
        .all(|id| response_time(ts, id, DEEPLY_RED).is_some())
}

/// A task set read through serde, which (unlike the constructors) checks
/// neither `D ≤ P` nor `1 ≤ m < k`. Times are in ticks; `(P, D, C, m, k)`
/// per task.
fn unchecked_set(spec: &[(u64, u64, u64, u32, u32)]) -> TaskSet {
    let tasks: Vec<String> = spec
        .iter()
        .map(|&(p, d, c, m, k)| {
            format!(r#"{{"period":{p},"deadline":{d},"wcet":{c},"mk":{{"m":{m},"k":{k}}}}}"#)
        })
        .collect();
    serde_json::from_str(&format!(r#"{{"tasks":[{}]}}"#, tasks.join(","))).unwrap()
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
            // Generated sets have D = P, so a task whose first job meets
            // has a level-i busy window that closes before its second
            // release: the first-job pass alone decides the verdict.
            assert_eq!(verdict, first_jobs_meet(&ts), "bucket {lo:.1}: {ts:?}");
            // The generator's pre-test: the slice-level first-job test on
            // the unsorted draw, lowest-priority task last, decides as
            // pass 1 does for that task and never rejects an accepted set.
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
fn a_later_mandatory_job_miss_is_caught_by_the_busy_window_walk() {
    // Only a deadline past the period lets the level-2 busy window reach
    // τ2's second release after its first job met: τ2's job 1 finishes at
    // 3 (deadline 3), while job 2 (released at 2, mandatory under (2,3))
    // finishes at 6 — 4 units of τ2 work plus τ1's mandatory jobs at 0
    // and 4 — past its deadline 5.
    let ts = unchecked_set(&[(2, 2, 1, 1, 2), (2, 3, 2, 2, 3)]);
    assert!(first_jobs_meet(&ts));
    assert_eq!(
        response_time(&ts, TaskId(1), DEEPLY_RED),
        Some(Time::from_ticks(3))
    );
    let report = analyze(&ts, DEEPLY_RED);
    assert_eq!(report.response_time(TaskId(1)), None);
    assert!(!is_schedulable_r_pattern(&ts));
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

#[test]
fn a_task_without_a_mandatory_first_job_is_not_rejected_by_pass_one() {
    // serde does not check `1 ≤ m < k` either. With m = 0 no job of τ2 is
    // mandatory, so the walk never checks its first job, which would miss
    // (3 own + 2 from τ1 > 4): the set is schedulable.
    let ts = unchecked_set(&[(2, 2, 2, 1, 2), (4, 4, 3, 0, 2)]);
    assert_eq!(response_time(&ts, TaskId(1), DEEPLY_RED), None);
    assert!(full_verdict(&ts));
    assert!(is_schedulable_r_pattern(&ts));
}

#[test]
fn a_task_without_a_mandatory_first_job_simulates_under_every_paper_policy() {
    // m = 0 means no constraint: every miss of τ2 is tolerable, so its
    // history must not index an empty ring of met positions.
    let ts = unchecked_set(&[(2, 2, 2, 1, 2), (4, 4, 3, 0, 2)]);
    let config = SimConfig::builder()
        .horizon(Time::from_ticks(40))
        .faults(FaultConfig::combined(
            ProcId::PRIMARY,
            Time::from_ticks(17),
            0.5,
            7,
        ))
        .build();
    for kind in PolicyKind::PAPER {
        let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
        let report = simulate(&ts, &mut policy, &config);
        assert_eq!(
            report.stats.met + report.stats.missed,
            report.stats.released
        );
        assert!(
            report.violations.iter().all(|v| v.task == TaskId(0)),
            "{kind:?}: the unconstrained task reported a violation"
        );
    }
}

#[test]
fn a_zero_window_fails_to_deserialize() {
    let mk: MkConstraint = serde_json::from_str(r#"{"m":0,"k":2}"#).unwrap();
    assert_eq!((mk.m(), mk.k()), (0, 2));
    let err = serde_json::from_str::<MkConstraint>(r#"{"m":0,"k":0}"#).unwrap_err();
    assert!(err.to_string().contains("(0,0)"), "{err}");
    let task = r#"{"tasks":[{"period":4,"deadline":4,"wcet":1,"mk":{"m":1,"k":0}}]}"#;
    assert!(serde_json::from_str::<TaskSet>(task).is_err());
}
