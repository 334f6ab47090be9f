//! Quickstart: define a task set, check schedulability, and compare the
//! three standby-sparing schemes on energy.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use mkss::obs::{EchoRecorder, TraceBuffer, TraceRecorder};
use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // MKSS_LOG=summary prints an engine-event counter table at the end;
    // MKSS_LOG=events additionally narrates each event on stderr.
    let log = LogLevel::from_env()?;
    // The Gantt charts below decode a flight-recorder capture of each
    // run, which forwards every engine event on to the logging recorder.
    let registry = log.enabled().then(|| Arc::new(Registry::new(1)));
    let recorder = registry.as_ref().map(|registry| -> Arc<dyn Recorder> {
        match log {
            LogLevel::Events => Arc::new(EchoRecorder::new(
                registry.handle_at(0),
                Arc::new(Reporter::stderr()),
            )),
            _ => Arc::new(registry.handle_at(0)),
        }
    });
    let whole_run = TraceBuffer::with_capacity(usize::MAX);
    let capture = Arc::new(TraceRecorder::new(whole_run, recorder));
    let mut ws = SimWorkspace::with_recorder(capture.clone());

    // A task is (period, deadline, WCET, m, k): at least m of any k
    // consecutive jobs must complete by their deadlines. This is the
    // paper's Section III example set.
    let ts = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4)?,
        Task::from_ms(10, 10, 3, 1, 2)?,
    ])?;
    println!("{ts}");
    println!("(m,k)-utilization: {:.3}", ts.mk_utilization());

    // Offline analysis.
    println!(
        "schedulable under R-pattern: {}",
        is_schedulable_r_pattern(&ts)
    );
    let post = postponement_intervals(&ts)?;
    for (id, _) in ts.iter() {
        println!(
            "  {id}: promotion Y = {}, postponement θ = {}",
            post.promotion[id.0], post.theta[id.0]
        );
    }

    // Simulate one hyperperiod with active-energy accounting.
    let horizon = ts.hyperperiod();
    let config = SimConfig::active_only(horizon);

    for kind in PolicyKind::PAPER {
        let mut policy = kind.build(&ts, &BuildOptions::default())?;
        let report = simulate_in(&mut ws, &ts, policy.as_mut(), &config);
        println!(
            "\n{}: active energy {} over {horizon}, met {} / missed {}, (m,k) assured: {}",
            report.policy,
            report.active_energy(),
            report.stats.met,
            report.stats.missed,
            report.mk_assured(),
        );
        print!("{}", Trace::from(&capture.take()).render_gantt_ms(horizon));
    }
    if let Some(registry) = &registry {
        print!("\n{}", MetricsDoc::new(registry.snapshot()).render_table());
    }
    Ok(())
}
