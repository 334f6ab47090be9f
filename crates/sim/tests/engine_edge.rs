//! Edge-case integration tests for the engine, driven through the public
//! API with purpose-built micro-policies.

use mkss_core::prelude::*;
use mkss_sim::prelude::*;

/// Policy placing the main on a chosen processor with a chosen delay.
struct Place {
    main_proc: ProcId,
    backup_delay: Time,
}
impl Policy for Place {
    fn name(&self) -> &str {
        "place"
    }
    fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
        ReleaseDecision::Mandatory {
            main_proc: self.main_proc,
            backup_delay: self.backup_delay,
        }
    }
}

#[test]
fn backup_can_complete_first_and_cancels_the_main() {
    // A higher-priority job holds the primary while τ2's zero-delay
    // backup runs unobstructed on the spare: cancellation must be
    // symmetric — the *backup's* success cancels the still-running main.
    struct BlockedMainEagerBackup;
    impl Policy for BlockedMainEagerBackup {
        fn name(&self) -> &str {
            "blocked-main-eager-backup"
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            // τ1's backup waits out its promotion time (D − C = 8), so
            // only τ2's backup runs on the spare.
            let backup_delay = if ctx.task.0 == 0 {
                Time::from_ms(8)
            } else {
                Time::ZERO
            };
            ReleaseDecision::Mandatory {
                main_proc: ProcId::PRIMARY,
                backup_delay,
            }
        }
    }
    let ts = TaskSet::new(vec![
        Task::from_ms(10, 10, 2, 1, 2).unwrap(),
        Task::from_ms(20, 20, 4, 1, 2).unwrap(),
    ])
    .unwrap();
    let config = SimConfig::builder().horizon_ms(20).active_only().build();
    let (report, trace) = simulate_traced(&ts, &mut BlockedMainEagerBackup, &config);
    assert!(report.mk_assured());
    // τ2's backup completes at 4 on the spare…
    let backup = trace
        .segments_on(ProcId::SPARE)
        .find(|s| s.kind == CopyKind::Backup)
        .expect("backup ran");
    assert_eq!(backup.job.task, TaskId(1));
    assert_eq!(backup.ended, SegmentEnd::Completed);
    assert_eq!((backup.start, backup.end), (Time::ZERO, Time::from_ms(4)));
    // …and τ2's main, blocked by τ1 until 2 (it would finish at 6), is
    // canceled at 4.
    let main = trace
        .segments_on(ProcId::PRIMARY)
        .find(|s| s.kind == CopyKind::Main && s.job.task == TaskId(1))
        .expect("main ran");
    assert_eq!(main.ended, SegmentEnd::Canceled);
    assert_eq!((main.start, main.end), (Time::from_ms(2), Time::from_ms(4)));
    // τ2's job resolved met exactly once, at the backup's completion.
    let resolved: Vec<_> = trace
        .resolutions
        .iter()
        .filter(|r| r.job.task == TaskId(1))
        .collect();
    assert_eq!(resolved.len(), 1);
    assert_eq!(resolved[0].outcome, JobOutcome::Met);
    assert_eq!(resolved[0].at, Time::from_ms(4));
    // Both of τ1's jobs and τ2's one job are met.
    assert_eq!(report.stats.met, 3);
}

#[test]
fn optional_feasibility_boundary_is_inclusive() {
    // An optional job dispatched exactly at its latest start must run.
    struct LateOptional;
    impl Policy for LateOptional {
        fn name(&self) -> &str {
            "late-optional"
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            if ctx.task.0 == 0 {
                ReleaseDecision::Mandatory {
                    main_proc: ProcId::PRIMARY,
                    backup_delay: Time::from_ms(100),
                }
            } else {
                ReleaseDecision::Optional {
                    proc: ProcId::PRIMARY,
                }
            }
        }
    }
    // τ1 runs [0,6) on the primary; τ2's optional job (release 0,
    // deadline 10, C = 4) becomes feasible-at-the-boundary: starts at 6,
    // finishes exactly at its deadline 10.
    let ts = TaskSet::new(vec![
        Task::from_ms(20, 20, 6, 1, 2).unwrap(),
        Task::from_ms(20, 10, 4, 1, 2).unwrap(),
    ])
    .unwrap();
    let config = SimConfig::builder().horizon_ms(20).active_only().build();
    let (report, trace) = simulate_traced(&ts, &mut LateOptional, &config);
    assert_eq!(report.stats.optional_abandoned, 0);
    assert_eq!(report.stats.met, 2);
    let opt = trace
        .segments
        .iter()
        .find(|s| s.kind == CopyKind::Optional)
        .expect("optional ran");
    assert_eq!((opt.start, opt.end), (Time::from_ms(6), Time::from_ms(10)));
}

#[test]
fn optional_one_tick_late_is_abandoned() {
    struct LateOptional;
    impl Policy for LateOptional {
        fn name(&self) -> &str {
            "late-optional"
        }
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) -> ReleaseDecision {
            if ctx.task.0 == 0 {
                ReleaseDecision::Mandatory {
                    main_proc: ProcId::PRIMARY,
                    backup_delay: Time::from_ms(100),
                }
            } else {
                ReleaseDecision::Optional {
                    proc: ProcId::PRIMARY,
                }
            }
        }
    }
    // As above but the blocking main is one tick longer: the optional
    // job can no longer make its deadline and must be abandoned, never
    // executing.
    let ts = TaskSet::new(vec![
        Task::new(
            Time::from_ms(20),
            Time::from_ms(20),
            Time::from_us(6_001),
            1,
            2,
        )
        .unwrap(),
        Task::from_ms(20, 10, 4, 1, 2).unwrap(),
    ])
    .unwrap();
    let config = SimConfig::builder().horizon_ms(20).active_only().build();
    let (report, trace) = simulate_traced(&ts, &mut LateOptional, &config);
    assert_eq!(report.stats.optional_abandoned, 1);
    assert_eq!(report.stats.met, 1);
    assert_eq!(report.stats.missed, 1);
    assert!(report.mk_assured(), "(1,2) tolerates the single miss");
    assert!(trace.segments.iter().all(|s| s.kind != CopyKind::Optional));
}

#[test]
fn releases_stop_where_the_clock_tops_out() {
    // With a horizon at the clock's top, τ1's fourth deadline (4·2^62
    // ticks) and τ2's fifth release overflow `u64`: each task stops
    // releasing there instead of panicking.
    let period = Time::from_ticks(1 << 62);
    let wcet = Time::from_ms(1);
    let ts = TaskSet::new(vec![
        Task::new(period, period, wcet, 1, 2).unwrap(),
        Task::new(period, Time::from_ticks(1 << 61), wcet, 1, 2).unwrap(),
    ])
    .unwrap();
    let config = SimConfig::builder().horizon(Time::MAX).build();
    let report = simulate(
        &ts,
        &mut Place {
            main_proc: ProcId::PRIMARY,
            backup_delay: Time::ZERO,
        },
        &config,
    );
    assert_eq!(report.stats.released, 3 + 4);
    assert_eq!(report.stats.met, 3 + 4);
    assert!(report.mk_assured());
}

#[test]
fn fault_at_time_zero_on_primary() {
    let ts = TaskSet::new(vec![
        Task::from_ms(10, 10, 3, 2, 3).unwrap(),
        Task::from_ms(15, 15, 8, 1, 2).unwrap(),
    ])
    .unwrap();
    let config = SimConfig::builder()
        .horizon_ms(60)
        .active_only()
        .faults(FaultConfig::permanent(ProcId::PRIMARY, Time::ZERO))
        .build();
    let (report, trace) = simulate_traced(
        &ts,
        &mut Place {
            main_proc: ProcId::PRIMARY,
            backup_delay: Time::ZERO,
        },
        &config,
    );
    assert!(report.mk_assured());
    assert_eq!(
        report.stats.copies_lost, 0,
        "nothing existed to lose at t=0"
    );
    // The primary never executed anything.
    assert_eq!(trace.segments_on(ProcId::PRIMARY).count(), 0);
}

#[test]
fn both_processors_busy_forever_partition_exactly() {
    // Full utilization on both processors: no idle time at all.
    let ts = TaskSet::new(vec![Task::from_ms(10, 10, 10, 1, 2).unwrap()]).unwrap();
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
    let report = simulate(&ts, &mut Dup, &SimConfig::new(Time::from_ms(100)));
    for e in &report.energy {
        // The Dup policy duplicates *every* job and C = P: both
        // processors are saturated, zero idle time.
        assert_eq!(e.busy_time, Time::from_ms(100));
        assert_eq!(e.idle_time, Time::ZERO);
    }
    assert!(report.mk_assured());
}
