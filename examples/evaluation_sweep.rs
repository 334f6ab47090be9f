//! A miniature of the paper's Figure 6 evaluation, runnable in seconds:
//! random task sets per (m,k)-utilization bucket, three schemes, three
//! fault scenarios, energies normalized to `MKSS_ST`.
//!
//! For the full-size experiment use the harness binary:
//! `cargo run --release -p mkss-bench --bin fig6`.
//!
//! ```text
//! cargo run --release --example evaluation_sweep
//! ```

use std::sync::Arc;

use mkss::prelude::*;
use mkss_bench::experiment::{run_experiment_observed, ExperimentConfig, HarnessObs, Scenario};
use mkss_bench::table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // MKSS_LOG=summary (or events) aggregates engine events across the
    // whole sweep and prints the counter table at the end.
    let registry = LogLevel::from_env()?
        .enabled()
        .then(|| Arc::new(Registry::new(1)));
    for scenario in Scenario::ALL {
        let mut config = ExperimentConfig::fig6(scenario);
        // Scaled down for example speed; the fig6 binary uses 20 sets per
        // bucket over [0.1, 0.9) with 1 s horizons.
        config.plan.sets_per_bucket = 5;
        config.plan.from = 0.2;
        config.plan.to = 0.8;
        config.horizon = Time::from_ms(400);
        let obs = HarnessObs {
            registry: registry.clone(),
        };
        let result = run_experiment_observed(&config, 0, &obs);
        println!("{}", table::render(&result));
        let max_reduction = result
            .max_reduction_pct(PolicyKind::Selective, PolicyKind::DualPriority)
            .map_or("n/a".to_string(), |pct| format!("{pct:.1}%"));
        println!(
            "selective vs dp: max reduction {}, mean normalized {:.3} vs {:.3}\n",
            max_reduction,
            result.mean_normalized(PolicyKind::Selective),
            result.mean_normalized(PolicyKind::DualPriority),
        );
    }
    if let Some(registry) = &registry {
        print!("{}", MetricsDoc::new(registry.snapshot()).render_table());
    }
    Ok(())
}
