//! Schedulability-ratio experiment (extension beyond the paper's
//! Figure 6): fraction of random Section-V task sets provably
//! schedulable per (m,k)-utilization bucket, under the deeply-red RTA,
//! plus the exact hyperperiod sweep, plus Quan-&-Hu-style pattern
//! rotation.
//!
//! ```text
//! schedulability [--samples N] [--from U] [--to U] [--seed S] [--jobs N]
//!                [--metrics-out FILE] [--progress]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mkss_bench::cli::{check_utilization_range, or_exit, parse_flags, write_output};
use mkss_bench::sched::{render, schedulability_experiment_observed, SchedConfig};
use mkss_core::par;
use mkss_obs::{MetricsSnapshot, Reporter, Stopwatch};

const USAGE: &str = "usage: schedulability [--samples N] [--from U] [--to U] [--seed S] \
                     [--jobs N] [--metrics-out FILE] [--progress]";

fn main() -> ExitCode {
    let reporter = Arc::new(Reporter::stderr());
    let mut config = SchedConfig::default();
    let mut jobs = 0usize;
    let mut metrics_out: Option<String> = None;
    let mut progress = false;
    or_exit(parse_flags(USAGE, |flag, flags| {
        match flag {
            "--samples" => config.samples_per_bucket = flags.parse()?,
            "--from" => config.from = flags.parse()?,
            "--to" => config.to = flags.parse()?,
            "--seed" => config.seed = flags.parse()?,
            "--jobs" => jobs = flags.parse()?,
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--progress" => progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }));
    or_exit(check_utilization_range(
        config.from,
        config.to,
        config.width,
    ));
    let watch = Stopwatch::start();
    let rows = schedulability_experiment_observed(&config, jobs, progress.then_some(&reporter));
    let analyze_ms = watch.elapsed_ms();
    let samples: u64 = rows.iter().map(|r| u64::from(r.samples)).sum();
    reporter.line(&format!(
        "{} buckets, {} samples in {:.1} ms",
        rows.len(),
        samples,
        analyze_ms
    ));
    print!("{}", render(&rows));
    if let Some(path) = &metrics_out {
        // No simulation runs here, so the engine-event snapshot is empty;
        // the document still records the analysis wall time and scale.
        let doc = mkss_obs::metrics_doc(
            "schedulability",
            MetricsSnapshot::empty(),
            &[
                ("buckets", rows.len().to_string()),
                ("samples", samples.to_string()),
                ("jobs", par::effective_jobs(jobs).to_string()),
            ],
            &[("analyze_ms", analyze_ms)],
        );
        if !write_output(&reporter, path, doc.to_json(), "") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
