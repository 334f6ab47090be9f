//! Differential test for the observability layer's central contract: a
//! recorder attached to the workspace **observes** the simulation but
//! never feeds back into it, so a recorder-on run's [`SimReport`] must be
//! byte-for-byte identical (under serde_json) to the recorder-off run —
//! across task sets, every paper policy, fault scenarios, and a
//! flight-recorder capture attached or not. Alongside, the registry totals
//! themselves must be deterministic: two recorder-on runs of the same
//! input count the same events.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mkss::obs::{
    CounterId, EchoRecorder, HistogramId, Registry, Reporter, TraceBuffer, TraceRecorder,
    DEFAULT_TRACE_CAPACITY,
};
use mkss::prelude::*;

/// A cloneable in-memory `Reporter` sink, so a test can read back what
/// the `MKSS_LOG=events` narration wrote.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

#[test]
fn recorder_on_reports_are_byte_identical_to_recorder_off() {
    let horizon = Time::from_ms(500);
    let registry = Arc::new(Registry::new(1));
    let counters: Arc<dyn Recorder> = Arc::new(registry.handle_at(0));
    let capture = Arc::new(TraceRecorder::new(
        TraceBuffer::with_capacity(usize::MAX),
        Some(Arc::clone(&counters)),
    ));
    let mut plain_ws = SimWorkspace::new();
    let mut observed_ws = SimWorkspace::new();
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        for faults in fault_configs() {
            let config = SimConfig::builder().horizon(horizon).faults(faults).build();
            for collect_trace in [false, true] {
                observed_ws.set_recorder(Some(if collect_trace {
                    Arc::clone(&capture) as Arc<dyn Recorder>
                } else {
                    Arc::clone(&counters)
                }));
                for kind in PolicyKind::PAPER {
                    let mut plain_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let mut observed_policy = kind
                        .build(&ts, &BuildOptions::default())
                        .expect("schedulable");
                    let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);
                    let observed =
                        simulate_in(&mut observed_ws, &ts, observed_policy.as_mut(), &config);
                    assert_eq!(
                        serde_json::to_string(&plain).expect("report serializes"),
                        serde_json::to_string(&observed).expect("report serializes"),
                        "recorder changed the report: seed {seed} util {util} \
                         policy {kind} trace {collect_trace} faults {faults:?}"
                    );
                    capture.take();
                    runs += 1;
                }
            }
        }
    }
    assert!(runs >= 48, "differential probe barely ran ({runs} pairs)");
    // The whole sweep released work, so the registry actually heard it.
    let snap = registry.snapshot();
    assert!(snap.counter(CounterId::JobsReleased) > 0);
    assert_eq!(
        snap.counter(CounterId::JobsMet) + snap.counter(CounterId::JobsMissed),
        snap.counter(CounterId::JobsReleased),
    );
}

/// Every counter that mirrors a [`JobStats`] field equals it, run by
/// run, over the workspace-differential sets × every policy kind × the
/// fault plans above: the registry sees exactly what the report says.
#[test]
fn counters_mirror_the_report_of_every_run() {
    let config_for = |faults| {
        SimConfig::builder()
            .horizon(Time::from_ms(500))
            .faults(faults)
            .build()
    };
    let registry = Arc::new(Registry::new(1));
    let mut ws = SimWorkspace::with_recorder(Arc::new(registry.handle_at(0)));
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7), (44, 0.9)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        for faults in fault_configs() {
            let config = config_for(faults);
            for kind in PolicyKind::ALL {
                let Ok(mut policy) = kind.build(&ts, &BuildOptions::default()) else {
                    continue;
                };
                let before = registry.snapshot();
                let report = simulate_in(&mut ws, &ts, policy.as_mut(), &config);
                let run = registry.snapshot().delta(&before);
                let stats = &report.stats;
                let at = format!("seed {seed} policy {kind} faults {faults:?}");
                for (counter, field) in [
                    (CounterId::JobsReleased, stats.released),
                    (CounterId::MandatoryReleased, stats.mandatory),
                    (CounterId::OptionalSelected, stats.optional_selected),
                    (CounterId::OptionalSkipped, stats.optional_skipped),
                    (CounterId::OptionalAbandoned, stats.optional_abandoned),
                    (CounterId::BackupsCanceled, stats.backups_canceled),
                    (CounterId::BackupsCompleted, stats.backups_completed),
                    (CounterId::TransientFaults, stats.transient_faults),
                    (CounterId::CopiesLost, stats.copies_lost),
                    (CounterId::JobsMet, stats.met),
                    (CounterId::JobsMissed, stats.missed),
                    (CounterId::MkViolations, report.violations.len() as u64),
                ] {
                    assert_eq!(run.counter(counter), field, "{} at {at}", counter.name());
                }
                assert_eq!(
                    run.counter(CounterId::FaultsInjected),
                    run.counter(CounterId::TransientFaults)
                        + run.counter(CounterId::PermanentFaults),
                    "faults_injected at {at}"
                );
                assert_eq!(
                    run.histogram(HistogramId::MkDistance).iter().sum::<u64>(),
                    stats.met + stats.missed,
                    "mk_distance samples at {at}"
                );
                runs += 1;
            }
        }
    }
    assert!(runs >= 100, "invariant probe barely ran ({runs} runs)");
}

#[test]
fn echo_narration_carries_sim_time_and_leaves_the_report_untouched() {
    let ts = Generator::new(WorkloadConfig::paper(), 5)
        .schedulable_set(0.5)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(300)
        .faults(FaultConfig::transient(5e-4, 0x0b5))
        .build();
    let kind = PolicyKind::Selective;

    let mut plain_ws = SimWorkspace::new();
    let mut plain_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
    let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);

    // The MKSS_LOG=events backend: an EchoRecorder narrating to a sink
    // this test can read back.
    let sink = SharedSink::default();
    let registry = Arc::new(Registry::new(1));
    let echo = EchoRecorder::new(
        registry.handle_at(0),
        Arc::new(Reporter::with_sink(Box::new(sink.clone()))),
    );
    let mut echo_ws = SimWorkspace::with_recorder(Arc::new(echo));
    let mut echo_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
    let echoed = simulate_in(&mut echo_ws, &ts, echo_policy.as_mut(), &config);

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&echoed).unwrap(),
        "narration changed the report"
    );
    let narration = sink.text();
    let timed: Vec<&str> = narration
        .lines()
        .filter(|l| l.starts_with("event t="))
        .collect();
    assert!(
        !timed.is_empty(),
        "no structured-event narration lines in:\n{narration}"
    );
    for line in &timed {
        // Every structured line stamps the simulated instant, not wall
        // time: `event t=<N>us <kind> task=... job=...`.
        let t = line
            .strip_prefix("event t=")
            .and_then(|r| r.split_once("us "))
            .map(|(n, _)| n)
            .expect("sim-time prefix");
        assert!(
            t.chars().all(|c| c.is_ascii_digit()) && !t.is_empty(),
            "bad sim-time in narration line: {line}"
        );
        assert!(line.contains(" task="), "{line}");
        assert!(line.contains(" job="), "{line}");
    }
    // Counter narration rides along too — both hooks share the reporter.
    assert!(narration.contains("event jobs_released"), "{narration}");
}

#[test]
fn flight_recorder_capture_leaves_the_report_untouched() {
    let ts = Generator::new(WorkloadConfig::paper(), 9)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(400)
        .faults(FaultConfig::combined(
            ProcId::SPARE,
            Time::from_ms(123),
            3e-4,
            0x77,
        ))
        .build();
    for kind in PolicyKind::PAPER {
        let mut plain_ws = SimWorkspace::new();
        let mut plain_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
        let plain = simulate_in(&mut plain_ws, &ts, plain_policy.as_mut(), &config);

        let tracer = Arc::new(TraceRecorder::new(TraceBuffer::with_capacity(4096), None));
        let mut traced_ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as _);
        let mut traced_policy = kind.build(&ts, &BuildOptions::default()).unwrap();
        let traced = simulate_in(&mut traced_ws, &ts, traced_policy.as_mut(), &config);

        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "flight recorder changed the report for {kind}"
        );
        assert!(
            !tracer.take().is_empty(),
            "flight recorder captured nothing for {kind}"
        );
    }
}

#[test]
fn registry_totals_are_reproducible() {
    let ts = Generator::new(WorkloadConfig::paper(), 7)
        .schedulable_set(0.6)
        .expect("generatable");
    let config = SimConfig::builder()
        .horizon_ms(800)
        .faults(FaultConfig::combined(
            ProcId::PRIMARY,
            Time::from_ms(444),
            2e-4,
            99,
        ))
        .build();
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let registry = Arc::new(Registry::new(4));
        let mut ws = SimWorkspace::with_recorder(Arc::new(registry.handle()));
        for kind in PolicyKind::PAPER {
            let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
            simulate_in(&mut ws, &ts, policy.as_mut(), &config);
        }
        snapshots.push(registry.snapshot());
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert!(!snapshots[0].is_zero());
}

/// `DEFAULT_TRACE_CAPACITY` promises a full capture of a 1 s Section-V
/// run, closed segments included: the flight recorder drops nothing for
/// any policy on sets across the Fig. 6 utilization range, under
/// combined faults. The worst of these sits near 4.4k events.
#[test]
fn default_trace_capacity_holds_a_section_v_run() {
    let mut worst = 0;
    for (seed, util) in [(18u64, 0.8), (3, 0.6), (5, 0.4), (7, 0.9)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        let config = SimConfig::builder()
            .horizon_ms(1_000)
            .faults(FaultConfig::combined(
                ProcId::PRIMARY,
                Time::from_ms(500),
                1e-4,
                seed,
            ))
            .build();
        for kind in PolicyKind::ALL {
            let Ok(mut policy) = kind.build(&ts, &BuildOptions::default()) else {
                continue;
            };
            let tracer = Arc::new(TraceRecorder::new(
                TraceBuffer::with_capacity(DEFAULT_TRACE_CAPACITY),
                None,
            ));
            let mut ws = SimWorkspace::with_recorder(Arc::clone(&tracer) as _);
            simulate_in(&mut ws, &ts, policy.as_mut(), &config);
            let buffer = tracer.take();
            assert_eq!(
                buffer.dropped(),
                0,
                "{kind} on seed {seed} overflowed the ring"
            );
            worst = worst.max(buffer.total_recorded());
        }
    }
    assert!(
        worst > 1_000,
        "probe captured suspiciously little ({worst} events)"
    );
}
