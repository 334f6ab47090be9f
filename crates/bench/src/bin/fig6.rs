//! Regenerates the paper's Figure 6: normalized energy vs total
//! (m,k)-utilization for `MKSS_ST`, `MKSS_DP`, and `MKSS_selective`
//! under the three fault scenarios.
//!
//! ```text
//! fig6 [--scenario no-fault|permanent|combined|all]
//!      [--sets N] [--from U] [--to U] [--horizon-ms MS]
//!      [--seed S] [--policies st,dp,selective,...] [--fault-window LO..HI]
//!      [--replications N] [--jobs N] [--json FILE] [--metrics-out FILE]
//!      [--trace-out FILE]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mkss_bench::cli::{check_utilization_range, or_exit, parse_flags, write_output};
use mkss_bench::experiment::{
    metrics_doc, run_experiment_observed, trace_representative, ExperimentConfig, HarnessObs,
    ReplicatedResult, RunStats, Scenario, StageTimes,
};
use mkss_bench::table;
use mkss_core::par;
use mkss_obs::{Registry, Reporter};
use mkss_policies::PolicyKind;

const USAGE: &str = "usage: fig6 [--scenario no-fault|permanent|combined|all] [--sets N] \
                     [--from U] [--to U] [--horizon-ms MS] [--seed S] \
                     [--policies st,dp,selective,...] [--fault-window LO..HI] \
                     [--replications N] [--jobs N] [--json FILE] \
                     [--metrics-out FILE] [--trace-out FILE]\n\
                     --jobs N bounds the worker threads (0 = all cores, the default);\n\
                     results are identical for every value.\n\
                     --metrics-out FILE records engine event counters (backups\n\
                     canceled/postponed, faults, …) and per-stage wall times as JSON.\n\
                     --trace-out FILE flight-records one representative run per\n\
                     scenario as Chrome Trace Event JSON (open in Perfetto).";

struct Args {
    scenarios: Vec<Scenario>,
    config_template: ExperimentConfig,
    json: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
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
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut replications = 1u32;
    let mut jobs = 0usize;
    parse_flags(USAGE, |flag, flags| {
        match flag {
            "--scenario" => {
                let v = flags.value()?;
                scenarios = if v == "all" {
                    Scenario::ALL.to_vec()
                } else {
                    vec![v.parse().map_err(|e| format!("{e}"))?]
                };
            }
            "--sets" => template.plan.sets_per_bucket = flags.parse()?,
            "--from" => template.plan.from = flags.parse()?,
            "--to" => template.plan.to = flags.parse()?,
            "--horizon-ms" => template.horizon = flags.ms()?,
            "--seed" => template.seed = flags.parse()?,
            "--policies" => {
                template.policies = flags
                    .value()?
                    .split(',')
                    .map(|s| s.trim().parse::<PolicyKind>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--fault-window" => {
                let v = flags.value()?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| "--fault-window expects LO..HI fractions".to_string())?;
                let (lo, hi) = (flags.parse_str(lo)?, flags.parse_str(hi)?);
                // A window past the horizon would inject no permanent
                // fault, printing the no-fault panel under panel (b).
                if !(0.0 <= lo && lo <= hi && hi <= 1.0) {
                    return Err(format!(
                        "--fault-window expects fractions 0 <= LO <= HI <= 1, got {v}"
                    ));
                }
                template.permanent_fault_window = (lo, hi);
            }
            "--json" => json = Some(flags.value()?),
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--trace-out" => trace_out = Some(flags.value()?),
            "--replications" => {
                replications = flags.parse()?;
                if replications == 0 {
                    return Err("--replications must be at least 1".into());
                }
            }
            "--jobs" => jobs = flags.parse()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let plan = template.plan;
    check_utilization_range(plan.from, plan.to, plan.width)?;
    Ok(Args {
        scenarios,
        config_template: template,
        json,
        metrics_out,
        trace_out,
        replications,
        jobs,
    })
}

fn main() -> ExitCode {
    let args = or_exit(parse_args());
    let reporter = Reporter::stderr();
    let obs = HarnessObs {
        registry: args
            .metrics_out
            .as_ref()
            .map(|_| Arc::new(Registry::new(par::effective_jobs(args.jobs)))),
    };
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
        let mut runs: Vec<_> = (0..args.replications)
            .map(|r| run_experiment_observed(&config.replication(r), args.jobs, &obs))
            .collect();
        for run in &runs {
            stage_totals.absorb(&run.stats.stages);
        }
        if args.replications > 1 {
            let replicated = ReplicatedResult::of(&runs);
            report_stats(&reporter, &replicated.stats);
            println!("{}", table::render_replicated(&replicated));
        }
        // Replication 0 runs `config` itself: it is the single-run table.
        let result = runs.swap_remove(0);
        report_stats(&reporter, &result.stats);
        println!("{}", table::render(&result));
        all_results.push(result);
    }
    if let Some(path) = &args.json {
        match serde_json::to_string_pretty(&all_results) {
            Ok(body) => {
                if !write_output(&reporter, path, body, "") {
                    return ExitCode::FAILURE;
                }
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
        let note = mkss_obs::overflow_note(&runs);
        if !write_output(&reporter, path, mkss_obs::chrome_trace(&runs), &note) {
            return ExitCode::FAILURE;
        }
    }
    if let (Some(path), Some(registry)) = (&args.metrics_out, &obs.registry) {
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
        if !write_output(&reporter, path, doc.to_json(), "") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
