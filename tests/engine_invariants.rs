//! Engine-level invariants checked over random schedulable workloads and
//! every policy:
//!
//! * trace segments on one processor never overlap and fall inside the
//!   horizon;
//! * a processor's busy time equals the sum of its segments; busy + idle
//!   partitions its lifetime;
//! * mandatory copies never execute before their (postponed) release;
//! * per-task job outcomes are resolved in release order;
//! * active energy equals busy time under the active-only power model.

use mkss::obs::{CounterId, Registry, TraceBuffer, TraceRecorder};
use mkss::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn schedulable_set(seed: u64, util_pct: u64) -> Option<TaskSet> {
    let config = WorkloadConfig {
        tasks_min: 3,
        tasks_max: 6,
        ..WorkloadConfig::paper()
    };
    Generator::new(config, seed).schedulable_set(util_pct as f64 / 100.0)
}

fn check_trace(report: &SimReport, trace: &Trace, horizon: Time) {
    for &proc in &ProcId::ALL {
        let mut last_end = Time::ZERO;
        let mut busy = Time::ZERO;
        for seg in trace.segments_on(proc) {
            assert!(seg.start >= last_end, "overlapping segments on {proc}");
            assert!(seg.end <= horizon, "segment beyond horizon");
            assert!(seg.start < seg.end, "empty segment recorded");
            busy += seg.len();
            last_end = seg.end;
        }
        let breakdown = report.energy[proc.index()];
        assert_eq!(
            breakdown.busy_time, busy,
            "bookkept busy time disagrees with trace on {proc}"
        );
    }
}

fn check_resolution_order(trace: &Trace) {
    let mut last_index: BTreeMap<TaskId, u64> = BTreeMap::new();
    for r in &trace.resolutions {
        let prev = last_index.entry(r.job.task).or_insert(0);
        assert!(
            r.job.index > *prev,
            "job {} resolved out of order (prev index {})",
            r.job,
            prev
        );
        *prev = r.job.index;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trace_and_energy_invariants(seed in 0u64..5_000, util_pct in 15u64..65) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let horizon = Time::from_ms(300);
        for kind in [PolicyKind::Static, PolicyKind::DualPriority, PolicyKind::Greedy, PolicyKind::Selective] {
            let config = SimConfig::builder().horizon(horizon).active_only().build();
            let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
            let (report, trace) = simulate_traced(&ts, policy.as_mut(), &config);
            check_trace(&report, &trace, horizon);
            check_resolution_order(&trace);
            // Active-only model: energy units == busy milliseconds.
            let busy_ms: f64 = ProcId::ALL
                .iter()
                .map(|p| report.energy[p.index()].busy_time.as_ms_f64())
                .sum();
            prop_assert!((report.active_energy().units() - busy_ms).abs() < 1e-9);
            // Busy + idle partitions both processor lifetimes.
            for p in ProcId::ALL {
                let b = report.energy[p.index()];
                prop_assert_eq!(b.busy_time + b.idle_time, horizon);
            }
        }
    }

    #[test]
    fn trace_invariants_with_faults(
        seed in 0u64..3_000,
        util_pct in 15u64..55,
        fault_ms in 0u64..300,
        on_primary in any::<bool>(),
    ) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let horizon = Time::from_ms(300);
        let proc = if on_primary { ProcId::PRIMARY } else { ProcId::SPARE };
        let config = SimConfig::builder()
            .horizon(horizon)
            .active_only()
            .faults(FaultConfig::combined(proc, Time::from_ms(fault_ms), 0.005, seed))
            .build();
        let mut policy = MkssSelective::new(&ts).unwrap();
        let (report, trace) = simulate_traced(&ts, &mut policy, &config);
        check_trace(&report, &trace, horizon);
        check_resolution_order(&trace);
        // The dead processor never executes after the fault.
        for seg in trace.segments_on(proc) {
            prop_assert!(seg.end <= Time::from_ms(fault_ms));
        }
        // Its accounted lifetime stops at the fault.
        let b = report.energy[proc.index()];
        prop_assert_eq!(b.busy_time + b.idle_time, Time::from_ms(fault_ms));
    }

    /// The clock only ever moves forward: job resolutions land in
    /// nondecreasing time order across the whole run (each is recorded
    /// at the then-current clock), and the engine never takes a
    /// zero-length step — the `engine_stalls` counter, bumped by the
    /// event loop's hard no-progress guard, stays at zero on every
    /// reachable input.
    #[test]
    fn clock_progress_is_monotone_and_stall_free(
        seed in 0u64..5_000,
        util_pct in 15u64..65,
        fault_ms in 0u64..300,
    ) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let registry = Arc::new(Registry::new(1));
        let capture = Arc::new(TraceRecorder::new(
            TraceBuffer::with_capacity(usize::MAX),
            Some(Arc::new(registry.handle_at(0))),
        ));
        let mut ws = SimWorkspace::with_recorder(capture.clone());
        let horizon = Time::from_ms(300);
        let configs = [
            SimConfig::builder().horizon(horizon).active_only().build(),
            SimConfig::builder()
                .horizon(horizon)
                .active_only()
                .faults(FaultConfig::combined(ProcId::SPARE, Time::from_ms(fault_ms), 0.01, seed))
                .build(),
        ];
        for kind in [PolicyKind::Static, PolicyKind::DualPriority, PolicyKind::Greedy, PolicyKind::Selective] {
            for config in &configs {
                let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
                simulate_in(&mut ws, &ts, policy.as_mut(), config);
                let trace = Trace::from(&capture.take());
                let mut last = Time::ZERO;
                for r in &trace.resolutions {
                    prop_assert!(
                        r.at >= last,
                        "resolution of {} at {} after one at {}", r.job, r.at, last
                    );
                    last = r.at;
                }
            }
        }
        prop_assert_eq!(registry.snapshot().counter(CounterId::EngineStalls), 0);
    }

    /// Optional jobs never displace mandatory work: both the selective
    /// and static schemes assure (m,k) on every schedulable set, and the
    /// selective scheme's executed jobs (mandatory + selected optional)
    /// all come from real releases.
    #[test]
    fn selective_never_starves_mandatory(seed in 0u64..3_000, util_pct in 15u64..60) {
        let Some(ts) = schedulable_set(seed, util_pct) else { return Ok(()); };
        let config = SimConfig::new(Time::from_ms(300));
        let sel = simulate(&ts, &mut MkssSelective::new(&ts).unwrap(), &config);
        let st = simulate(&ts, &mut MkssSt::new(), &config);
        prop_assert!(sel.mk_assured());
        prop_assert!(st.mk_assured());
        prop_assert_eq!(
            sel.stats.mandatory + sel.stats.optional_selected + sel.stats.optional_skipped,
            sel.stats.released
        );
        // The selective scheme never *fails* a mandatory job in a
        // fault-free run: misses only come from unselected/abandoned
        // optional jobs.
        prop_assert!(sel.stats.missed <= sel.stats.optional_skipped + sel.stats.optional_abandoned);
    }
}
