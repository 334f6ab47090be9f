//! Where does the energy go? Per-task schedule metrics comparing the
//! schemes' duplication overhead: the dual-priority scheme wastes energy
//! on backup work that is later canceled, while the selective scheme
//! replaces duplicated mandatory jobs with single-copy optional ones.
//!
//! ```text
//! cargo run --example schedule_metrics
//! ```

use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4)?,
        Task::from_ms(10, 10, 3, 1, 2)?,
    ])?;
    let horizon = Time::from_ms(200);
    let config = SimConfig::active_only(horizon);

    for kind in [
        PolicyKind::Static,
        PolicyKind::DualPriority,
        PolicyKind::Selective,
    ] {
        let mut policy = kind.build(&ts, &BuildOptions::default())?;
        let (report, trace) = simulate_traced(&ts, policy.as_mut(), &config);
        let metrics = analyze_trace(&ts, &trace);
        println!("== {} ==", report.policy);
        println!(
            "total energy {}, of which canceled-backup waste {}",
            report.active_energy(),
            metrics.total_canceled_backup_work()
        );
        println!(
            "{:>6} {:>5} {:>6} {:>11} {:>10} {:>11} {:>13} {:>12}",
            "task",
            "met",
            "miss",
            "worst resp",
            "mean resp",
            "main busy",
            "backup busy",
            "opt busy"
        );
        for row in &metrics.per_task {
            println!(
                "{:>6} {:>5} {:>6} {:>11} {:>10.2} {:>11} {:>13} {:>12}",
                row.task.to_string(),
                row.met,
                row.missed,
                row.worst_response.to_string(),
                row.mean_response_ms(),
                row.main_busy.to_string(),
                row.backup_busy.to_string(),
                row.optional_busy.to_string(),
            );
        }
        println!();
    }
    Ok(())
}
