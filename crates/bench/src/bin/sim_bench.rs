//! Throughput snapshot: times the fresh (`simulate`) and
//! reused-workspace (`simulate_in`) engine entry paths on Section-V-sized
//! task sets, plus the workload generator filling a Fig. 6 bucket plan,
//! and writes the `BENCH_sim.json` tracked in the repo root.
//!
//! ```text
//! sim_bench [--sets N] [--reps N] [--horizon-ms MS] [--seed S]
//!           [--out PATH]
//! ```

use std::process::ExitCode;

use mkss_bench::cli::{or_exit, parse_flags};
use mkss_bench::perf::{measure, SimBenchConfig};
use mkss_obs::Reporter;

const USAGE: &str = "usage: sim_bench [--sets N] [--reps N] [--horizon-ms MS] [--seed S] \
                     [--out PATH]";

fn main() -> ExitCode {
    let reporter = Reporter::stderr();
    let mut config = SimBenchConfig::default();
    let mut out: Option<String> = None;
    or_exit(parse_flags(USAGE, |flag, flags| {
        match flag {
            "--sets" => config.sets_per_util = flags.parse()?,
            "--reps" => config.reps = flags.parse()?,
            // Checked as a `Time` (the engine multiplies by 1000), kept in ms.
            "--horizon-ms" => config.horizon_ms = flags.ms()?.as_ms_ceil(),
            "--seed" => config.seed = flags.parse()?,
            "--out" => out = Some(flags.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }));

    let report = measure(&config);
    reporter.line(&format!(
        "{} simulations, {} released jobs per rep",
        report.simulations, report.released_jobs
    ));
    reporter.line(&format!(
        "fresh: {:8.1} ms  {:8.1} sims/s  {:10.0} jobs/s",
        report.fresh.wall_ms, report.fresh.sims_per_second, report.fresh.jobs_per_second
    ));
    reporter.line(&format!(
        "reuse: {:8.1} ms  {:8.1} sims/s  {:10.0} jobs/s  ({:.2}x)",
        report.reuse.wall_ms,
        report.reuse.sims_per_second,
        report.reuse.jobs_per_second,
        report.reuse_speedup()
    ));
    reporter.line(&format!(
        "generate: {:8.1} ms  {:8.0} attempts/s  ({} attempts)",
        report.generate.wall_ms, report.generate.attempts_per_second, report.generate.attempts
    ));
    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(e) => {
            reporter.line(&format!("error: serializing report: {e}"));
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                reporter.line(&format!("error: writing {path}: {e}"));
                return ExitCode::FAILURE;
            }
            reporter.line(&format!("wrote {path}"));
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
