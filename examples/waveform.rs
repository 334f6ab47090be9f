//! Exports a schedule trace as a VCD waveform, viewable in GTKWave or any
//! other VCD viewer — handy for inspecting multi-hyperperiod schedules.
//!
//! ```text
//! cargo run --example waveform
//! gtkwave mkss_selective.vcd
//! ```

use mkss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4)?,
        Task::from_ms(10, 10, 3, 1, 2)?,
    ])?;
    let horizon = Time::from_ms(60);
    let config = SimConfig::active_only(horizon);
    let mut policy = MkssSelective::new(&ts)?;
    let (_, trace) = simulate_traced(&ts, &mut policy, &config);

    let vcd = render_vcd(&trace, ts.len());
    let path = "mkss_selective.vcd";
    std::fs::write(path, &vcd)?;
    println!(
        "wrote {path}: {} segments, {} job resolutions over {horizon}",
        trace.segments.len(),
        trace.resolutions.len(),
    );
    println!("preview:\n{}", trace.render_gantt_ms(Time::from_ms(30)));
    Ok(())
}
