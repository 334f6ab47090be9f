//! Task sets far larger than the generator draws: a 70-task and a
//! 1 024-task set, hand-built at (m,k)-utilization ≈ 0.4, under every
//! paper policy with a permanent fault and transient faults.
//!
//! In debug builds the engine cross-checks every step's next event time
//! against its linear-scan oracle (`next_event_time_scan`), so these runs
//! walk the release min-tree at depths 7 and 10 with hundreds of tasks
//! due at one instant. The reports must also agree between a fresh
//! workspace, a workspace reused across both sets, and a traced run. The
//! whole-run comparison against the scan-mode engine, which gates no
//! phase, is `scan_oracle_and_indexed_reports_are_identical` next to the
//! oracle in `crates/sim/src/engine/scan.rs`; it runs sets of 70 and
//! 1 024 tasks too.

use mkss::prelude::*;

/// `n` tasks in rate-monotonic order, periods 10–50 ms, WCETs in whole
/// microseconds, with each task's share of the (m,k)-utilization 0.4/n.
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

#[test]
fn large_task_sets_run_identically_on_every_path() {
    let mut reused = SimWorkspace::new();
    for (n, horizon_ms) in [(70, 400), (1024, 100)] {
        let ts = large_set(n);
        let horizon = Time::from_ms(horizon_ms);
        let death = Time::from_ticks(horizon.ticks() * 3 / 7);
        let config = SimConfig::builder()
            .horizon(horizon)
            .faults(FaultConfig::combined(ProcId::PRIMARY, death, 0.5, 0x1a76e))
            .build();
        for kind in PolicyKind::PAPER {
            // One build serves all three runs (`init` resets a policy at
            // each run's start): Selective's θ analysis of 1 024 tasks
            // takes seconds in a debug build.
            let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
            let fresh = simulate(&ts, &mut policy, &config);
            let again = simulate_in(&mut reused, &ts, &mut policy, &config);
            let (traced, _) = simulate_traced(&ts, &mut policy, &config);
            let bytes = serde_json::to_string(&fresh).unwrap();
            assert_eq!(
                bytes,
                serde_json::to_string(&again).unwrap(),
                "{n} tasks, {kind:?}"
            );
            assert_eq!(
                bytes,
                serde_json::to_string(&traced).unwrap(),
                "{n} tasks, {kind:?}"
            );

            let stats = &fresh.stats;
            assert!(
                stats.released > 4 * n as u64,
                "{n} tasks, {kind:?}: {stats:?}"
            );
            assert_eq!(stats.met + stats.missed, stats.released);
            assert!(stats.transient_faults > 0, "{n} tasks, {kind:?}: {stats:?}");
            let [primary, spare] = fresh.energy;
            assert_eq!(primary.busy_time + primary.idle_time, death);
            assert_eq!(spare.busy_time + spare.idle_time, horizon);
        }
    }
}
