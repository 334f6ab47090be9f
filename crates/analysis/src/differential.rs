//! Differential tests: the RTA's first-job shortcut and θ's time-ordered
//! sweep against the code they replaced, kept as oracles
//! ([`crate::rta::analyze_by_walk`], [`crate::postpone::by_rows`]).
//!
//! Every response time, verdict, θ, promotion time and raw-θ variant must
//! be identical on random raw sets (schedulable or not), on the same sets
//! with constrained deadlines (`D < P`), on small tick-scale sets, and on
//! 70- and 1 024-task sets.

use crate::postpone::{by_rows, postponement_intervals};
use crate::rta::{analyze, analyze_by_walk, is_schedulable_r_pattern, InterferenceModel};
use mkss_core::task::{Task, TaskSet};
use mkss_core::time::Time;
use mkss_workload::{Generator, WorkloadConfig};
use proptest::prelude::*;

/// Asserts that every analysis of `ts` agrees with its oracle.
fn assert_matches_oracles(ts: &TaskSet) {
    for model in [InterferenceModel::AllJobs, InterferenceModel::MandatoryOnly] {
        assert_eq!(analyze(ts, model), analyze_by_walk(ts, model), "{ts:?}");
    }
    assert_eq!(
        is_schedulable_r_pattern(ts),
        analyze_by_walk(ts, InterferenceModel::MandatoryOnly).schedulable(),
        "{ts:?}"
    );
    assert_eq!(
        postponement_intervals(ts),
        by_rows::postponement_intervals(ts),
        "{ts:?}"
    );
}

/// `ts` with each task's deadline cut to `C + (P − C)·q/4`, `q` cycling
/// from `phase` through 0..4 (a quarter of the tasks keep `D = P`).
fn constrained(ts: &TaskSet, phase: usize) -> TaskSet {
    let tasks = ts.tasks().iter().enumerate().map(|(i, task)| {
        let q = ((i + phase) % 4) as u64;
        let slack = task.period() - task.wcet();
        let deadline = task.wcet() + Time::from_ticks(slack.ticks() * q / 4);
        Task::with_constraint(task.period(), deadline, task.wcet(), task.mk()).unwrap()
    });
    TaskSet::new(tasks.collect()).unwrap()
}

/// A task set in ticks, `(P, D, C, m, k)` per task.
fn tick_set(spec: &[(u64, u64, u64, u32, u32)]) -> TaskSet {
    let tick = Time::from_ticks;
    let tasks = spec
        .iter()
        .map(|&(p, d, c, m, k)| Task::new(tick(p), tick(d), tick(c), m, k).unwrap());
    TaskSet::new(tasks.collect()).unwrap()
}

/// `n` tasks in rate-monotonic order, periods 10–50 ms, each with a share
/// 0.4/n of the (m,k)-utilization (the root package's
/// `tests/large_task_sets.rs` sets).
fn large_set(n: usize) -> TaskSet {
    const PERIODS_MS: [u64; 4] = [10, 20, 40, 50];
    const MK: [(u32, u32); 4] = [(2, 3), (3, 4), (1, 2), (3, 5)];
    let tasks = (0..n)
        .map(|i| {
            let period = Time::from_ms(PERIODS_MS[i * PERIODS_MS.len() / n]);
            let (m, k) = MK[i % MK.len()];
            let share = 0.4 / n as f64 * f64::from(k) / f64::from(m);
            let wcet = ((share * period.ticks() as f64) as u64).max(1);
            Task::new(period, period, Time::from_ticks(wcet), m, k).unwrap()
        })
        .collect();
    TaskSet::new(tasks).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn raw_sets_match_the_oracles(seed in any::<u64>(), bucket in 1u32..10, phase in 0usize..4) {
        let lo = f64::from(bucket) / 10.0;
        let mut generator = Generator::new(WorkloadConfig::paper(), seed);
        for _ in 0..4 {
            if let Some(ts) = generator.raw_set_in(lo, lo + 0.1) {
                assert_matches_oracles(&ts);
                assert_matches_oracles(&constrained(&ts, phase));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn small_sets_match_the_oracles(draws in proptest::collection::vec(any::<u64>(), 1..5)) {
        // Per task, from one draw: P ∈ [2, 22), C ∈ [1, P], D ∈ [C, P],
        // k ∈ [2, 6) and m ∈ [1, k).
        let spec: Vec<_> = draws
            .iter()
            .map(|&x| {
                let p = 2 + x % 20;
                let c = 1 + (x >> 8) % p;
                let k = 2 + (x >> 32) % 4;
                let d = c + (x >> 16) % (p - c + 1);
                (p, d, c, (1 + (x >> 40) % (k - 1)) as u32, k as u32)
            })
            .collect();
        assert_matches_oracles(&tick_set(&spec));
    }
}

#[test]
fn hand_built_sets_match_the_oracles() {
    for spec in [
        // θ₂ comes from the inspecting point at τ1's postponed release,
        // not the deadline, so it is wrong if that release counts toward
        // its own point.
        &[(5, 5, 3, 1, 4), (10, 4, 1, 1, 2)][..],
        &[(6, 6, 3, 2, 4), (6, 5, 2, 2, 4)],
    ] {
        assert_matches_oracles(&tick_set(spec));
    }
}

#[test]
fn large_sets_match_the_oracles() {
    for n in [70, 1024] {
        let ts = large_set(n);
        assert!(is_schedulable_r_pattern(&ts), "{n} tasks");
        assert_matches_oracles(&ts);
        assert_matches_oracles(&constrained(&ts, 0));
    }
}
