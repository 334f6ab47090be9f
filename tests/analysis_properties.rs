//! Cross-validation of the offline analyses against the simulator:
//!
//! * every observed mandatory-job response time is bounded by the
//!   busy-window RTA result;
//! * backups postponed by θ (Definitions 2–5) on the static R-pattern
//!   (`dp-theta`), and by Y under Selective's dynamic pattern, always
//!   meet their deadlines even when they must run to completion (main
//!   processor dead from t = 0) — the soundness claim behind Theorem 1;
//! * promotion-time-delayed backups do too (the dual-priority baseline);
//! * the verdict-only R-pattern test agrees with the full report, and
//!   both interference models agree with an independent restatement of
//!   the busy-window walk, on raw sets drawn across all eight Fig. 6
//!   buckets (most top-bucket draws are rejects);
//! * a busy window too long for `Time` reads as unschedulable, both in
//!   the analysis and in the dual-priority build, instead of panicking.

use mkss::prelude::*;
use mkss::workload::bucket_bounds;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn schedulable_set(seed: u64, util_pct: u64) -> Option<TaskSet> {
    let config = WorkloadConfig {
        tasks_min: 3,
        tasks_max: 7,
        ..WorkloadConfig::paper()
    };
    Generator::new(config, seed).schedulable_set(util_pct as f64 / 100.0)
}

/// Completion time per job id from the trace (only fully completed
/// executions).
fn completions(trace: &Trace, proc: ProcId) -> BTreeMap<JobId, Time> {
    let mut map = BTreeMap::new();
    for seg in trace.segments_on(proc) {
        if seg.ended == SegmentEnd::Completed {
            map.insert(seg.job, seg.end);
        }
    }
    map
}

/// Independent restatement of the busy-window RTA: every task analysed
/// in priority order, one full demand sum per fixed-point step, and the
/// hyperperiod re-derived at every step of the busy-window length. Sums
/// are kept in `u128`, so a window longer than `Time` can hold passes the
/// hyperperiod cut-off (which saturates at `Time::MAX`) and reads as
/// unbounded instead of overflowing.
fn reference_analysis(ts: &TaskSet, model: InterferenceModel) -> Vec<TaskResponse> {
    const MAX_ITERATIONS: usize = 100_000;
    let jobs = |j: TaskId, t: u128| -> u128 {
        let task = ts.task(j);
        let releases = Time::from_ticks(t as u64).div_ceil(task.period());
        let counted = match model {
            InterferenceModel::AllJobs => releases,
            InterferenceModel::MandatoryOnly => task.mk().mandatory_among(releases),
        };
        u128::from(counted)
    };
    let work = |levels: usize, t: u128| -> u128 {
        ts.ids()
            .take(levels)
            .map(|j| u128::from(ts.task(j).wcet().ticks()) * jobs(j, t))
            .sum()
    };
    let finish = |i: usize, demand: u128, horizon: u128| -> Option<u128> {
        let mut r = demand;
        for _ in 0..MAX_ITERATIONS {
            let next = demand + work(i, r);
            if next == r {
                return Some(r);
            }
            if next > horizon {
                return None;
            }
            r = next;
        }
        None
    };
    let response = |id: TaskId| -> Option<Time> {
        let task = ts.task(id);
        let (wcet, period, deadline) = (
            u128::from(task.wcet().ticks()),
            u128::from(task.period().ticks()),
            u128::from(task.deadline().ticks()),
        );
        let mut busy_len = wcet;
        let mut iterations = 0;
        loop {
            let next = work(id.0 + 1, busy_len);
            if next == busy_len {
                break;
            }
            iterations += 1;
            if iterations > MAX_ITERATIONS || next > u128::from(ts.hyperperiod().ticks()) {
                return None;
            }
            busy_len = next;
        }
        let (mut worst, mut own) = (0u128, 0u128);
        for index in 0..=1_000_000u64 {
            let release = period * u128::from(index);
            if release >= busy_len && index > 0 {
                return Some(Time::from_ticks(worst as u64));
            }
            let counts = match model {
                InterferenceModel::AllJobs => true,
                InterferenceModel::MandatoryOnly => task.mk().is_mandatory(index + 1),
            };
            if counts {
                own += wcet;
                let done = finish(id.0, own, release + deadline)?;
                if done < release {
                    return Some(Time::from_ticks(worst as u64));
                }
                if done - release > deadline {
                    return None;
                }
                worst = worst.max(done - release);
            }
        }
        None
    };
    ts.ids()
        .map(|task| TaskResponse {
            task,
            response_time: response(task),
        })
        .collect()
}

/// A Fig. 6(c) panel set (fig6 combined, 4 sets per bucket, seed
/// `mix(18, 105)` of the perfbench panel sequence, bucket 2, set 3) whose
/// pattern hyperperiod saturates at `Time::MAX`, with every WCET
/// multiplied by `wcet_scale`. Ticks are µs; (P, C, m, k) per task,
/// `D = P`. At scale 1 its classic utilization is 1.009 and its
/// (m,k)-utilization 0.370.
fn saturated_hyperperiod_set(wcet_scale: u64) -> TaskSet {
    const SPEC: [(u64, u64, u32, u32); 10] = [
        (7000, 1458, 1, 3),
        (11000, 319, 3, 11),
        (17000, 711, 5, 6),
        (25000, 2661, 1, 2),
        (29000, 4633, 7, 14),
        (41000, 1607, 7, 13),
        (42000, 2396, 8, 18),
        (43000, 7242, 3, 12),
        (44000, 2441, 10, 19),
        (46000, 6590, 1, 20),
    ];
    TaskSet::new(
        SPEC.iter()
            .map(|&(p, c, m, k)| {
                let period = Time::from_ticks(p);
                Task::new(period, period, Time::from_ticks(c * wcet_scale), m, k).unwrap()
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn overflowing_busy_window_is_unschedulable_not_a_panic() {
    let ts = saturated_hyperperiod_set(1);
    assert_eq!(ts.hyperperiod(), Time::MAX);
    assert!(ts.utilization() > 1.0);
    // The lowest level's all-jobs busy window grows until its demand sum
    // no longer fits in `Time`: that task is unschedulable.
    let all = analyze(&ts, InterferenceModel::AllJobs);
    assert_eq!(all.response_time(TaskId(0)), Some(Time::from_ticks(1458)));
    assert_eq!(all.response_time(TaskId(9)), None);
    assert_eq!(
        all.tasks,
        reference_analysis(&ts, InterferenceModel::AllJobs)
    );
    // Mandatory-only interference is light: the set is R-pattern
    // schedulable, so every paper policy builds, and the dual-priority
    // baseline gives the task whose all-jobs window never closes `Y = 0`
    // like any other all-jobs-unschedulable task.
    assert!(is_schedulable_r_pattern(&ts));
    for kind in PolicyKind::PAPER {
        assert!(
            kind.build(&ts, &BuildOptions::default()).is_ok(),
            "{kind:?}"
        );
    }
    let dp = MkssDp::new(&ts).unwrap();
    assert_eq!(dp.promotion()[9], Time::ZERO);
    assert!(dp.promotion()[..9].iter().all(|&y| y > Time::ZERO));

    // Tripled WCETs push the (m,k)-utilization above 1: the lowest
    // levels' mandatory-only windows overflow too, and the build reports
    // its typed error for the first task that misses.
    let heavy = saturated_hyperperiod_set(3);
    assert!(heavy.mk_utilization() > 1.0);
    let mandatory = InterferenceModel::MandatoryOnly;
    let report = analyze(&heavy, mandatory);
    assert_eq!(report.response_time(TaskId(9)), None);
    assert_eq!(report.tasks, reference_analysis(&heavy, mandatory));
    assert!(!is_schedulable_r_pattern(&heavy));
    assert_eq!(
        MkssDp::new(&heavy),
        Err(BuildPolicyError::Unschedulable { task: TaskId(4) })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The verdict-only R-pattern test (which stops at the first failing
    /// task) equals the full report's verdict, and `analyze` matches the
    /// reference walk task by task under both interference models.
    #[test]
    fn r_pattern_verdict_matches_full_report(seed in any::<u64>(), bucket in 0usize..8) {
        let (lo, hi) = bucket_bounds(BucketPlan::default())[bucket];
        let mut generator = Generator::new(WorkloadConfig::paper(), seed);
        for _ in 0..8 {
            let Some(ts) = generator.raw_set_in(lo, hi) else { continue };
            let mandatory = InterferenceModel::MandatoryOnly;
            let report = analyze(&ts, mandatory);
            prop_assert_eq!(is_schedulable_r_pattern(&ts), report.schedulable());
            for model in [InterferenceModel::AllJobs, mandatory] {
                prop_assert_eq!(analyze(&ts, model).tasks, reference_analysis(&ts, model), "{:?}", model);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Observed response times of mandatory main jobs on a single
    /// processor never exceed the analyzed worst case.
    #[test]
    fn rta_bounds_observed_response_times(seed in 0u64..5_000, util_pct in 15u64..65) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let report = analyze(&ts, InterferenceModel::MandatoryOnly);
        prop_assert!(report.schedulable());

        // dp-theta keeps every main on the primary: the primary's schedule
        // is exactly the mandatory-only FP schedule the analysis models.
        let mut policy = PolicyKind::DualPriorityTheta.build(&ts, &BuildOptions::default()).unwrap();
        let config = SimConfig::builder().horizon_ms(400).active_only().build();
        let (_, trace) = simulate_traced(&ts, policy.as_mut(), &config);
        let done = completions(&trace, ProcId::PRIMARY);
        for (job, finish) in done {
            let task = ts.task(job.task);
            let release = task.release_of(job.index);
            let response = finish - release;
            let bound = report.response_time(job.task).unwrap();
            prop_assert!(
                response <= bound,
                "{job}: observed response {response} exceeds bound {bound} (seed {seed})"
            );
        }
    }

    /// With the primary dead from t = 0, every postponed backup runs to
    /// completion and the (m,k) guarantee holds: Selective's Y-delayed
    /// backups and dp-theta's θ-delayed ones on the R-pattern.
    #[test]
    fn postponed_backups_always_meet_deadlines(seed in 0u64..5_000, util_pct in 15u64..65) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let config = SimConfig::builder()
            .horizon_ms(400)
            .faults(FaultConfig::permanent(ProcId::PRIMARY, Time::ZERO))
            .build();
        let mut policy = PolicyKind::Selective.build(&ts, &BuildOptions::default()).unwrap();
        let sel = simulate(&ts, policy.as_mut(), &config);
        prop_assert!(sel.mk_assured(), "violations: {:?} (seed {seed})", sel.violations);

        let mut policy = PolicyKind::DualPriorityTheta.build(&ts, &BuildOptions::default()).unwrap();
        let theta = simulate(&ts, policy.as_mut(), &config);
        prop_assert!(theta.mk_assured(), "dp-theta violations: {:?} (seed {seed})", theta.violations);
    }

    /// The same for the dual-priority baseline's promotion-time delays.
    #[test]
    fn promoted_backups_always_meet_deadlines(seed in 0u64..5_000, util_pct in 15u64..65) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let config = SimConfig::builder()
            .horizon_ms(400)
            .faults(FaultConfig::permanent(ProcId::PRIMARY, Time::ZERO))
            .build();
        let mut policy = PolicyKind::DualPriority.build(&ts, &BuildOptions::default()).unwrap();
        let report = simulate(&ts, policy.as_mut(), &config);
        prop_assert!(report.mk_assured(), "violations: {:?} (seed {seed})", report.violations);
    }

    /// θ is always at least the promotion time (the fallback of
    /// Section IV) and the postponement analysis is deterministic.
    #[test]
    fn theta_at_least_promotion(seed in 0u64..5_000, util_pct in 15u64..65) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let post = postponement_intervals(&ts).unwrap();
        for (theta, y) in post.theta.iter().zip(&post.promotion) {
            prop_assert!(theta >= y);
        }
        let again = postponement_intervals(&ts).unwrap();
        prop_assert_eq!(post, again);
    }
}
