//! Walks through the backup release postponement analysis of Section IV
//! (Definitions 2–5) on the paper's Fig. 5 example:
//! τ1 = (10,10,3,2,3), τ2 = (15,15,8,1,2) give θ1 = 7 and θ2 = 4, far
//! beyond τ2's promotion time Y2 = 1.
//!
//! ```text
//! cargo run --example postponement
//! ```

use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = TaskSet::new(vec![
        Task::from_ms(10, 10, 3, 2, 3)?,
        Task::from_ms(15, 15, 8, 1, 2)?,
    ])?;
    println!("{ts}");

    let post = postponement_intervals(&ts)?;
    println!("per-task analysis (deeply-red pattern):");
    for (id, task) in ts.iter() {
        println!(
            "  {id}: Y = {} (promotion, Eq. 2), θ = {} (Defs. 2–5), raw inspecting-point θ = {:?}",
            post.promotion[id.0], post.theta[id.0], post.raw_theta[id.0],
        );
        let jobs = ts.hyperperiod_up_to(id).div_floor(task.period());
        for j in 1..=jobs {
            if task.mk().is_mandatory(j) {
                println!(
                    "    backup J'{},{j}: release {} → postponed to {} (deadline {})",
                    id.0 + 1,
                    task.release_of(j),
                    post.postponed_release(&ts, id, j),
                    task.deadline_of(j),
                );
            }
        }
    }

    // Show the resulting backup schedule on the spare processor under
    // MKSS_selective with a primary that never cancels (force the worst
    // case by failing every main copy with transient faults).
    println!("\nworst case: every main copy transient-faults, backups must complete:");
    let config = SimConfig::builder()
        .horizon_ms(30)
        .active_only()
        .faults(FaultConfig::transient(1e6, 1)) // every execution faults
        .build();
    let (report, trace) = simulate_traced(&ts, &mut MkssSt::new(), &config);
    print!("{}", trace.render_gantt_ms(Time::from_ms(30)));
    println!(
        "note: with every copy faulting, both copies of every job fail — the monitor \
         reports {} violations (this run demonstrates the schedule, not the guarantee).",
        report.violations.len()
    );
    Ok(())
}
