//! Demonstrates the fault-tolerance guarantees: one permanent processor
//! fault at an arbitrary instant plus transient faults on job executions,
//! with the (m,k)-deadlines still assured by the selective scheme.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use std::sync::Arc;

use mkss::obs::{TraceBuffer, TraceRecorder};
use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4)?,
        Task::from_ms(10, 10, 3, 1, 2)?,
    ])?;
    let horizon = Time::from_ms(100);

    // MKSS_LOG=summary aggregates every scenario's engine events into one
    // registry and prints the counter table at the end. (`events` would
    // narrate the 200-scenario sweep line by line — too chatty here, so
    // this example deliberately stops at counting.)
    let log = LogLevel::from_env()?;
    let registry = log.enabled().then(|| Arc::new(Registry::new(1)));
    let counters = registry
        .as_ref()
        .map(|registry| Arc::new(registry.handle_at(0)) as Arc<dyn Recorder>);
    // Scenario 1 draws a Gantt chart, so its run is also captured
    // (forwarding every event on to the counters).
    let whole_run = TraceBuffer::with_capacity(usize::MAX);
    let capture = Arc::new(TraceRecorder::new(whole_run, counters.clone()));
    let mut ws = SimWorkspace::with_recorder(capture.clone());

    // Scenario 1: permanent fault on the primary at t = 7 ms.
    let config = SimConfig::builder()
        .horizon(horizon)
        .active_only()
        .faults(FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(7)))
        .build();
    let mut policy = MkssSelective::new(&ts)?;
    let report = simulate_in(&mut ws, &ts, &mut policy, &config);
    let trace = Trace::from(&capture.take());
    ws.set_recorder(counters);
    println!("== permanent fault on the primary at 7ms ==");
    println!(
        "copies lost: {}, jobs met: {}, missed: {}, (m,k) assured: {}",
        report.stats.copies_lost,
        report.stats.met,
        report.stats.missed,
        report.mk_assured()
    );
    print!("{}", trace.render_gantt_ms(Time::from_ms(30)));

    // Scenario 2: aggressive transient faults (rate 0.05/ms — about 14%
    // per 3ms execution; the paper's evaluation rate is a negligible
    // 1e-6). Backups re-execute faulted mains; (m,k) still holds.
    let config = SimConfig::builder()
        .horizon(horizon)
        .active_only()
        .faults(FaultConfig::transient(0.05, 42))
        .build();
    let mut policy = MkssSelective::new(&ts)?;
    let report = simulate_in(&mut ws, &ts, &mut policy, &config);
    println!("\n== transient faults at 0.05/ms ==");
    println!(
        "transient faults: {}, backups completed: {}, backups canceled: {}, \
         met: {}, missed: {}, (m,k) assured: {}",
        report.stats.transient_faults,
        report.stats.backups_completed,
        report.stats.backups_canceled,
        report.stats.met,
        report.stats.missed,
        report.mk_assured()
    );

    // Scenario 3: both at once, swept over every fault instant.
    println!("\n== sweep: permanent fault at every ms on either processor + transients ==");
    let mut worst_missed = 0;
    let mut all_assured = true;
    for at in 0..100 {
        for proc in ProcId::ALL {
            let config = SimConfig::builder()
                .horizon(horizon)
                .faults(FaultConfig::combined(proc, Time::from_ms(at), 0.01, at))
                .build();
            let mut policy = MkssSelective::new(&ts)?;
            let report = simulate_in(&mut ws, &ts, &mut policy, &config);
            worst_missed = worst_missed.max(report.stats.missed);
            all_assured &= report.mk_assured();
        }
    }
    println!("200 fault scenarios simulated; all (m,k) assured: {all_assured}; worst missed-count: {worst_missed}");
    if let Some(registry) = &registry {
        print!("\n{}", MetricsDoc::new(registry.snapshot()).render_table());
    }
    Ok(())
}
