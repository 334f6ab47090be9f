//! Differential test for the reusable-workspace entry point: a single
//! [`SimWorkspace`] reused across many runs must produce reports that are
//! **bit-identical** (byte-for-byte under serde_json) to the legacy
//! throwaway-arena [`simulate`] path — across seeded random task sets,
//! every paper policy, fault scenarios on and off, and a flight-recorder
//! capture attached or not — whose decoded trace must match the throwaway-arena
//! [`simulate_traced`] one. This is the contract that lets the experiment harness
//! thread one workspace per worker without any risk to Figure 6.
//!
//! This same matrix doubles as the indexed-vs-scan differential: every
//! run here advances time through the engine's indexed event sources,
//! and in debug builds the engine cross-checks each chosen event time
//! against the linear-scan oracle (`Engine::next_event_time_scan`)
//! via a per-step `debug_assert_eq!`. The whole-run report comparison
//! lives next to the oracle in `crates/sim/src/engine/scan.rs`
//! (`scan_oracle_and_indexed_reports_are_identical`).

use std::sync::Arc;

use mkss::obs::{TraceBuffer, TraceRecorder};
use mkss::prelude::*;

/// The fault scenarios exercised per task set: fault-free, a permanent
/// fault on either processor mid-horizon, and combined
/// permanent + transient faults (seeded, hence deterministic).
fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::permanent(ProcId::SPARE, Time::from_ms(61)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

#[test]
fn reused_workspace_reports_are_byte_identical_to_fresh_runs() {
    let horizon = Time::from_ms(500);
    // One workspace deliberately reused across *everything*: different
    // task-set shapes, policies, fault plans, and trace settings, so any
    // state leaking between runs shows up as a diff.
    let capture = Arc::new(TraceRecorder::new(
        TraceBuffer::with_capacity(usize::MAX),
        None,
    ));
    let mut ws = SimWorkspace::new();
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7), (44, 0.9)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        for faults in fault_configs() {
            let config = SimConfig::builder().horizon(horizon).faults(faults).build();
            for collect_trace in [false, true] {
                ws.set_recorder(collect_trace.then(|| Arc::clone(&capture) as Arc<dyn Recorder>));
                for kind in PolicyKind::PAPER {
                    let build = || {
                        kind.build(&ts, &BuildOptions::default())
                            .expect("schedulable")
                    };
                    let (mut fresh_policy, mut reuse_policy) = (build(), build());
                    let fresh = simulate(&ts, fresh_policy.as_mut(), &config);
                    let reused = simulate_in(&mut ws, &ts, reuse_policy.as_mut(), &config);
                    let fresh_json = serde_json::to_string(&fresh).expect("report serializes");
                    let reused_json = serde_json::to_string(&reused).expect("report serializes");
                    assert_eq!(
                        fresh_json, reused_json,
                        "divergence: seed {seed} util {util} policy {kind} \
                         trace {collect_trace} faults {faults:?}"
                    );
                    if collect_trace {
                        let (_, fresh_trace) = simulate_traced(&ts, build().as_mut(), &config);
                        assert_eq!(
                            Trace::from(&capture.take()),
                            fresh_trace,
                            "trace divergence: seed {seed} policy {kind} faults {faults:?}"
                        );
                    }
                    runs += 1;
                }
            }
        }
    }
    assert!(runs >= 80, "differential probe barely ran ({runs} pairs)");
}

#[test]
fn back_to_back_reuse_is_self_consistent() {
    // Same workspace, same inputs, run twice in a row: the second run
    // must not observe any residue from the first.
    let ts = Generator::new(WorkloadConfig::paper(), 7)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder().horizon_ms(800).build();
    let capture = Arc::new(TraceRecorder::new(
        TraceBuffer::with_capacity(usize::MAX),
        None,
    ));
    let mut ws = SimWorkspace::with_recorder(capture.clone());
    let mut policy_a = PolicyKind::Selective
        .build(&ts, &BuildOptions::default())
        .unwrap();
    let mut policy_b = PolicyKind::Selective
        .build(&ts, &BuildOptions::default())
        .unwrap();
    let first = simulate_in(&mut ws, &ts, policy_a.as_mut(), &config);
    let first_trace = Trace::from(&capture.take());
    let second = simulate_in(&mut ws, &ts, policy_b.as_mut(), &config);
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    assert_eq!(first_trace, Trace::from(&capture.take()));
}

#[test]
fn large_k_runs_cost_what_their_jobs_cost() {
    // A task with k = 10⁶ at either extreme of m, for 100 jobs: the (m,k)
    // history is touched at every release and resolution, so its cost
    // must not scale with k.
    let config = SimConfig::builder().horizon_ms(1_000).build();
    let mut ws = SimWorkspace::new();
    for m in [1, 999_999] {
        let ts = TaskSet::new(vec![Task::from_ms(10, 10, 2, m, 1_000_000).unwrap()]).unwrap();
        for kind in [PolicyKind::Static, PolicyKind::Selective] {
            let build = || kind.build(&ts, &BuildOptions::default()).unwrap();
            let fresh = simulate(&ts, build().as_mut(), &config);
            let reused = simulate_in(&mut ws, &ts, build().as_mut(), &config);
            assert_eq!(fresh.stats.released, 100, "m {m} policy {kind}");
            assert!(fresh.mk_assured(), "m {m} policy {kind}");
            assert_eq!(
                serde_json::to_string(&fresh).unwrap(),
                serde_json::to_string(&reused).unwrap(),
                "m {m} policy {kind}"
            );
        }
    }
}
