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

/// DVS policy at a fixed speed.
struct Scaled(u32);
impl Policy for Scaled {
    fn name(&self) -> &str {
        "scaled"
    }
    fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
        ReleaseDecision::MandatoryScaled {
            main_proc: ProcId::PRIMARY,
            backup_delay: Time::from_ms(50),
            main_speed_permil: self.0,
        }
    }
}

#[test]
fn backup_can_complete_first_and_cancels_the_main() {
    // A DVS-slowed main takes twice its WCET while its full-speed backup
    // (no delay) races ahead on the spare: cancellation must be
    // symmetric — the *backup's* success cancels the still-running main.
    struct SlowMainEagerBackup;
    impl Policy for SlowMainEagerBackup {
        fn name(&self) -> &str {
            "slow-main-eager-backup"
        }
        fn on_release(&mut self, _: &ReleaseCtx<'_>) -> ReleaseDecision {
            ReleaseDecision::MandatoryScaled {
                main_proc: ProcId::PRIMARY,
                backup_delay: Time::ZERO,
                main_speed_permil: 500,
            }
        }
    }
    let ts = TaskSet::new(vec![Task::from_ms(20, 20, 4, 1, 2).unwrap()]).unwrap();
    let config = SimConfig::builder().horizon_ms(20).active_only().build();
    let (report, trace) = simulate_traced(&ts, &mut SlowMainEagerBackup, &config);
    assert!(report.mk_assured());
    // Backup completes at 4 on the spare…
    let backup = trace
        .segments_on(ProcId::SPARE)
        .find(|s| s.kind == CopyKind::Backup)
        .expect("backup ran");
    assert_eq!(backup.ended, SegmentEnd::Completed);
    assert_eq!((backup.start, backup.end), (Time::ZERO, Time::from_ms(4)));
    // …and the half-speed main (would finish at 8) is canceled at 4.
    let main = trace
        .segments_on(ProcId::PRIMARY)
        .find(|s| s.kind == CopyKind::Main)
        .expect("main ran");
    assert_eq!(main.ended, SegmentEnd::Canceled);
    assert_eq!((main.start, main.end), (Time::ZERO, Time::from_ms(4)));
    // The job resolved met exactly once, at the backup's completion.
    assert_eq!(report.stats.met, 1);
    assert_eq!(trace.resolutions[0].at, Time::from_ms(4));
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
fn dvs_scaled_copy_runs_longer_at_lower_energy() {
    let ts = TaskSet::new(vec![Task::from_ms(100, 100, 10, 1, 2).unwrap()]).unwrap();
    let config = SimConfig::builder().horizon_ms(200).active_only().build();
    let (full, full_trace) = simulate_traced(&ts, &mut Scaled(1000), &config);
    let (half, half_trace) = simulate_traced(&ts, &mut Scaled(500), &config);
    assert!(full.mk_assured() && half.mk_assured());
    // The policy makes both released jobs mandatory; at half speed each
    // 10 ms execution stretches to 20 ms.
    let exec_len = |trace: &Trace| {
        trace
            .segments_on(ProcId::PRIMARY)
            .map(|s| s.len())
            .sum::<Time>()
    };
    assert_eq!(exec_len(&full_trace), Time::from_ms(20));
    assert_eq!(exec_len(&half_trace), Time::from_ms(40));
    // …at an eighth of the power → a quarter of the energy (backup is
    // postponed past the main's completion, so only mains burn energy).
    let full_e = full.energy[0].active.units();
    let half_e = half.energy[0].active.units();
    assert!(
        (half_e - full_e / 4.0).abs() < 1e-9,
        "{half_e} vs {full_e}/4"
    );
}

#[test]
#[should_panic(expected = "main speed must be in 1..=1000")]
fn zero_speed_rejected() {
    let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, 1, 2).unwrap()]).unwrap();
    simulate(&ts, &mut Scaled(0), &SimConfig::new(Time::from_ms(20)));
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
