//! Pattern rotation (Quan & Hu, the paper's reference [13]) rescuing a
//! task set the deeply-red pattern cannot schedule, end to end: search,
//! exact proof, and a standby-sparing simulation with the (m,k) monitor.
//!
//! ```text
//! cargo run --example pattern_rotation
//! ```

use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The deeply-red clusters of these two tasks collide at t = 0:
    // τ2's first mandatory job (C = 3, D = 6) sits behind τ1's two
    // clustered 2 ms jobs and misses.
    let ts = TaskSet::new(vec![
        Task::from_ms(4, 4, 2, 2, 3)?,
        Task::from_ms(6, 6, 3, 1, 2)?,
    ])?;
    println!("{ts}");
    println!(
        "deeply-red RTA schedulable: {}",
        is_schedulable_r_pattern(&ts)
    );

    let assignment = find_rotation(&ts, RotationConfig::default()).expect("hyperperiod is tiny");
    println!(
        "rotation search: provably schedulable = {}",
        assignment.schedulable()
    );
    for (i, p) in assignment.patterns.iter().enumerate() {
        println!("  τ{}: offset {}", i + 1, p.offset);
    }

    // Run both on the engine over several hyperperiods.
    let horizon = ts.hyperperiod() * 8;
    println!("\ndeeply-red on the engine:");
    let red = simulate(&ts, &mut MkssSt::new(), &SimConfig::active_only(horizon));
    println!(
        "  met {} / missed {} ((m,k) assured: {})",
        red.stats.met,
        red.stats.missed,
        red.mk_assured()
    );

    println!("rotated assignment on the engine:");
    let mut policy = MkssStRotated::new(assignment.patterns.clone());
    let (rot, rot_trace) = simulate_traced(&ts, &mut policy, &SimConfig::active_only(horizon));
    println!(
        "  met {} / missed {} ((m,k) assured: {})",
        rot.stats.met,
        rot.stats.missed,
        rot.mk_assured()
    );
    print!("{}", &rot_trace.render_gantt_ms(ts.hyperperiod()));
    Ok(())
}
