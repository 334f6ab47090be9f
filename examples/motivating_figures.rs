//! Reproduces the paper's motivating examples (Section III, Figs. 1–4):
//!
//! * Fig. 1 — preference-oriented dual-priority on τ1 = (5,4,3,2,4),
//!   τ2 = (10,10,3,1,2): 15 active energy units in [0, 20).
//! * Fig. 2 — dynamic patterns with FD = 1 optional execution on the
//!   primary: 12 units (−20%).
//! * Fig. 3 — the greedy strawman on τ1 = (5,2.5,2,2,4),
//!   τ2 = (4,4,2,2,4): executes an excessive number of optional jobs.
//! * Fig. 4 — the selective scheme on the same set: 14 units.
//!
//! ```text
//! cargo run --example motivating_figures
//! ```

use mkss::prelude::*;

fn show(title: &str, ts: &TaskSet, policy: &mut dyn Policy, until: Time) {
    let (report, trace) = simulate_traced(ts, policy, &SimConfig::active_only(until));
    println!("== {title} ==");
    println!(
        "policy {}: active energy {} in [0, {until}), (m,k) assured: {}",
        report.policy,
        report.active_energy(),
        report.mk_assured()
    );
    print!("{}", trace.render_gantt_ms(until));
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figures 1 and 2 share this set.
    let fig1_set = TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4)?,
        Task::from_ms(10, 10, 3, 1, 2)?,
    ])?;

    show(
        "Fig. 1: MKSS_DP (preference-oriented, dual priority) — paper: 15 units",
        &fig1_set,
        &mut MkssDp::new(&fig1_set)?,
        Time::from_ms(20),
    );

    let mut fig2_policy = DynamicPolicy::with_config(
        "fig2_dynamic",
        &fig1_set,
        DynamicConfig {
            selection: SelectionRule::FdExactlyOne,
            placement: OptionalPlacement::PrimaryOnly,
        },
    )?;
    show(
        "Fig. 2: dynamic patterns, FD=1 optional jobs on the primary — paper: 12 units",
        &fig1_set,
        &mut fig2_policy,
        Time::from_ms(20),
    );

    // Figures 3 and 4 share this set (τ1 deadline is 2.5 ms).
    let fig3_set = TaskSet::new(vec![
        Task::new(
            Time::from_ms(5),
            Time::from_us(2_500),
            Time::from_ms(2),
            2,
            4,
        )?,
        Task::from_ms(4, 4, 2, 2, 4)?,
    ])?;

    show(
        "Fig. 3: greedy execution of all optional jobs — paper: 20 units",
        &fig3_set,
        &mut DynamicPolicy::greedy(&fig3_set)?,
        Time::from_ms(25),
    );

    show(
        "Fig. 4: MKSS_selective (FD=1, alternating processors) — paper: 14 units",
        &fig3_set,
        &mut MkssSelective::new(&fig3_set)?,
        Time::from_ms(25),
    );

    Ok(())
}
