//! Regenerates the paper's Figure 6: normalized energy vs total
//! (m,k)-utilization for `MKSS_ST`, `MKSS_DP`, and `MKSS_selective`
//! under the three fault scenarios.
//!
//! ```text
//! fig6 [--scenario no-fault|permanent|combined|all]
//!      [--sets N] [--from U] [--to U] [--horizon-ms MS]
//!      [--seed S] [--policies st,dp,selective,...] [--jobs N]
//!      [--json FILE] [--metrics-out FILE] [--progress]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mkss_bench::experiment::{
    metrics_doc, run_experiment_observed, run_replicated_observed, trace_representative,
    ExperimentConfig, HarnessObs, RunStats, Scenario, StageTimes,
};
use mkss_bench::table;
use mkss_core::par;
use mkss_core::time::Time;
use mkss_obs::{Registry, Reporter};
use mkss_policies::PolicyKind;

struct Args {
    scenarios: Vec<Scenario>,
    config_template: ExperimentConfig,
    json: Option<String>,
    html: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    progress: bool,
    replications: u32,
    jobs: usize,
}

/// Stderr report of one run's counters, including warnings that would
/// otherwise hide inside the serialized stats. All lines go through the
/// single-writer reporter so they cannot interleave with worker output.
fn report_stats(reporter: &Reporter, stats: &RunStats) {
    reporter.line(&format!("  {}", stats.summary()));
    for bucket in &stats.buckets {
        if let Some(error) = &bucket.first_build_error {
            reporter.line(&format!(
                "  warning: bucket {:.2} dropped {} set(s) on build errors (first: {error})",
                bucket.midpoint, bucket.skipped_build_errors
            ));
        }
    }
    if stats.empty_buckets > 0 {
        reporter.line(&format!(
            "  warning: {} of {} buckets produced no data and were omitted",
            stats.empty_buckets, stats.buckets_planned
        ));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut scenarios = Scenario::ALL.to_vec();
    let mut template = ExperimentConfig::fig6(Scenario::NoFault);
    let mut json = None;
    let mut html = None;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut progress = false;
    let mut replications = 1u32;
    let mut jobs = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} expects a value"))
        };
        match flag.as_str() {
            "--scenario" => {
                let v = value()?;
                scenarios = if v == "all" {
                    Scenario::ALL.to_vec()
                } else {
                    vec![v.parse().map_err(|e| format!("{e}"))?]
                };
            }
            "--sets" => {
                template.plan.sets_per_bucket =
                    value()?.parse().map_err(|e| format!("--sets: {e}"))?
            }
            "--from" => {
                template.plan.from = value()?.parse().map_err(|e| format!("--from: {e}"))?
            }
            "--to" => template.plan.to = value()?.parse().map_err(|e| format!("--to: {e}"))?,
            "--horizon-ms" => {
                template.horizon =
                    Time::from_ms(value()?.parse().map_err(|e| format!("--horizon-ms: {e}"))?)
            }
            "--seed" => template.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--policies" => {
                template.policies = value()?
                    .split(',')
                    .map(|s| s.trim().parse::<PolicyKind>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--fault-window" => {
                let v = value()?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| "--fault-window expects LO..HI fractions".to_string())?;
                template.permanent_fault_window = (
                    lo.parse().map_err(|e| format!("--fault-window: {e}"))?,
                    hi.parse().map_err(|e| format!("--fault-window: {e}"))?,
                );
            }
            "--json" => json = Some(value()?),
            "--html" => html = Some(value()?),
            "--metrics-out" => metrics_out = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            "--progress" => progress = true,
            "--replications" => {
                replications = value()?
                    .parse()
                    .map_err(|e| format!("--replications: {e}"))?;
                if replications == 0 {
                    return Err("--replications must be at least 1".into());
                }
            }
            "--jobs" => jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--help" | "-h" => {
                println!(
                    "usage: fig6 [--scenario no-fault|permanent|combined|all] [--sets N] \
                     [--from U] [--to U] [--horizon-ms MS] [--seed S] \
                     [--policies st,dp,selective,...] [--fault-window LO..HI] \
                     [--replications N] [--jobs N] [--json FILE] [--html FILE] \
                     [--metrics-out FILE] [--trace-out FILE] [--progress]\n\
                     --jobs N bounds the worker threads (0 = all cores, the default);\n\
                     results are identical for every value.\n\
                     --metrics-out FILE records engine event counters (backups\n\
                     canceled/postponed, faults, …) and per-stage wall times as JSON.\n\
                     --trace-out FILE flight-records one representative run per\n\
                     scenario as Chrome Trace Event JSON (open in Perfetto).\n\
                     --progress streams live per-scenario completion lines on stderr."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(Args {
        scenarios,
        config_template: template,
        json,
        html,
        metrics_out,
        trace_out,
        progress,
        replications,
        jobs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reporter = Arc::new(Reporter::stderr());
    let registry = args
        .metrics_out
        .as_ref()
        .map(|_| Arc::new(Registry::new(par::effective_jobs(args.jobs))));
    let mut stage_totals = StageTimes::default();
    let mut all_results = Vec::new();
    for scenario in &args.scenarios {
        let mut config = args.config_template.clone();
        config.scenario = *scenario;
        reporter.line(&format!(
            "running {} ({} buckets x {} sets, horizon {})…",
            scenario.panel(),
            ((config.plan.to - config.plan.from) / config.plan.width).round() as usize,
            config.plan.sets_per_bucket,
            config.horizon,
        ));
        let obs = HarnessObs {
            registry: registry.clone(),
            progress: args.progress.then(|| Arc::clone(&reporter)),
            label: format!("fig6 {}", scenario.id()),
        };
        if args.replications > 1 {
            let replicated = run_replicated_observed(&config, args.replications, args.jobs, &obs);
            report_stats(&reporter, &replicated.stats);
            println!("{}", table::render_replicated(&replicated));
        }
        let result = run_experiment_observed(&config, args.jobs, &obs);
        report_stats(&reporter, &result.stats);
        stage_totals.absorb(&result.stats.stages);
        println!("{}", table::render(&result));
        all_results.push(result);
    }
    if let Some(path) = args.html {
        if let Err(e) = std::fs::write(&path, mkss_bench::report_html::render_report(&all_results))
        {
            reporter.line(&format!("error writing {path}: {e}"));
            return ExitCode::FAILURE;
        }
        reporter.line(&format!("wrote {path}"));
    }
    if let Some(path) = args.json {
        match serde_json::to_string_pretty(&all_results) {
            Ok(body) => {
                if let Err(e) = std::fs::write(&path, body) {
                    reporter.line(&format!("error writing {path}: {e}"));
                    return ExitCode::FAILURE;
                }
                reporter.line(&format!("wrote {path}"));
            }
            Err(e) => {
                reporter.line(&format!("error serializing results: {e}"));
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.trace_out {
        // One representative run per scenario, each on its own track; the
        // capture is a pure function of the config, so the file is
        // byte-identical across invocations and `--jobs` values.
        let buffers: Vec<_> = args
            .scenarios
            .iter()
            .map(|scenario| {
                let mut config = args.config_template.clone();
                config.scenario = *scenario;
                (scenario.id(), trace_representative(&config))
            })
            .collect();
        let runs: Vec<(&str, &mkss_obs::TraceBuffer)> =
            buffers.iter().map(|(id, b)| (*id, b)).collect();
        if let Err(e) = std::fs::write(path, mkss_obs::chrome_trace(&runs)) {
            reporter.line(&format!("error writing {path}: {e}"));
            return ExitCode::FAILURE;
        }
        reporter.line(&format!("wrote {path}{}", mkss_obs::overflow_note(&runs)));
    }
    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        let scenario_ids: Vec<&str> = args.scenarios.iter().map(|s| s.id()).collect();
        let doc = metrics_doc(
            "fig6",
            registry,
            &stage_totals,
            &[
                ("scenarios", scenario_ids.join(",")),
                ("jobs", par::effective_jobs(args.jobs).to_string()),
            ],
        );
        if let Err(e) = std::fs::write(path, doc.to_json()) {
            reporter.line(&format!("error writing {path}: {e}"));
            return ExitCode::FAILURE;
        }
        reporter.line(&format!("wrote {path}"));
    }
    ExitCode::SUCCESS
}
