//! Sensitivity analysis of the model parameters the paper leaves open:
//! the DPD break-even time `T_be`, the idle (leakage) power, and the
//! transient fault rate. For each knob value the harness reports the
//! mean normalized energy of `MKSS_DP` and `MKSS_selective` on a fixed
//! mid-utilization workload — showing how robust the Figure-6
//! conclusions are to the unspecified parameters.
//!
//! ```text
//! sensitivity [--sets N] [--horizon-ms MS] [--seed S] [--jobs N]
//!             [--metrics-out FILE] [--trace-out FILE] [--progress]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mkss_bench::cli::{or_exit, parse_flags, write_output};
use mkss_bench::experiment::{
    metrics_doc, run_experiment_observed, trace_representative, ExperimentConfig, HarnessObs,
    Scenario, StageTimes,
};
use mkss_core::par;
use mkss_core::time::Time;
use mkss_obs::{Registry, Reporter};
use mkss_policies::PolicyKind;

fn base_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
    cfg.plan.from = 0.4;
    cfg.plan.to = 0.6;
    cfg.plan.sets_per_bucket = 10;
    cfg.horizon = Time::from_ms(600);
    cfg
}

/// Shared observability context of one sensitivity sweep.
struct Obs {
    reporter: Arc<Reporter>,
    registry: Option<Arc<Registry>>,
    progress: bool,
    stage_totals: StageTimes,
}

fn report_line(cfg: &ExperimentConfig, jobs: usize, label: &str, obs: &mut Obs) {
    let harness_obs = HarnessObs {
        registry: obs.registry.clone(),
        progress: obs.progress.then(|| Arc::clone(&obs.reporter)),
        label: label.to_string(),
    };
    let result = run_experiment_observed(cfg, jobs, &harness_obs);
    obs.reporter
        .line(&format!("{label}: {}", result.stats.summary()));
    obs.stage_totals.absorb(&result.stats.stages);
    println!(
        "{label:>22}: dp {:.4}  selective {:.4}  (violations {})",
        result.mean_normalized(PolicyKind::DualPriority),
        result.mean_normalized(PolicyKind::Selective),
        result.total_violations(),
    );
}

const USAGE: &str = "usage: sensitivity [--sets N] [--horizon-ms MS] [--seed S] [--jobs N] \
                     [--metrics-out FILE] [--trace-out FILE] [--progress]\n\
                     --trace-out FILE flight-records one representative run per\n\
                     knob family as Chrome Trace Event JSON (open in Perfetto).";

fn main() -> ExitCode {
    let reporter = Arc::new(Reporter::stderr());
    let mut template = base_config();
    let mut jobs = 0usize;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut progress = false;
    or_exit(parse_flags(USAGE, |flag, flags| {
        match flag {
            "--sets" => template.plan.sets_per_bucket = flags.parse()?,
            "--horizon-ms" => template.horizon = flags.ms()?,
            "--seed" => template.seed = flags.parse()?,
            "--jobs" => jobs = flags.parse()?,
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--trace-out" => trace_out = Some(flags.value()?),
            "--progress" => progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }));

    let registry = metrics_out
        .as_ref()
        .map(|_| Arc::new(Registry::new(par::effective_jobs(jobs))));
    let mut obs = Obs {
        reporter: Arc::clone(&reporter),
        registry: registry.clone(),
        progress,
        stage_totals: StageTimes::default(),
    };

    println!("== sensitivity: DPD break-even time T_be (idle power 0.1) ==");
    for tbe_us in [100u64, 500, 1_000, 5_000, 20_000] {
        let mut cfg = template.clone();
        cfg.power.t_be = Time::from_us(tbe_us);
        report_line(
            &cfg,
            jobs,
            &format!("T_be = {}", Time::from_us(tbe_us)),
            &mut obs,
        );
    }

    println!("\n== sensitivity: idle (leakage) power, fraction of P_act ==");
    for p_idle in [0.0, 0.05, 0.1, 0.3, 1.0] {
        let mut cfg = template.clone();
        cfg.power.p_idle = p_idle;
        report_line(&cfg, jobs, &format!("p_idle = {p_idle}"), &mut obs);
    }

    println!("\n== sensitivity: transient fault rate (permanent+transient scenario) ==");
    for rate in [0.0, 1e-6, 1e-4, 1e-3, 1e-2] {
        let mut cfg = template.clone();
        cfg.scenario = Scenario::Combined;
        cfg.transient_rate_per_ms = rate;
        report_line(&cfg, jobs, &format!("λ = {rate}/ms"), &mut obs);
    }

    if let Some(path) = &trace_out {
        // One representative capture per knob family, each at a mid-range
        // knob value, on its own track.
        let mut tbe_cfg = template.clone();
        tbe_cfg.power.t_be = Time::from_us(1_000);
        let mut idle_cfg = template.clone();
        idle_cfg.power.p_idle = 0.1;
        let mut rate_cfg = template.clone();
        rate_cfg.scenario = Scenario::Combined;
        rate_cfg.transient_rate_per_ms = 1e-4;
        let buffers = [
            ("t_be=1ms", trace_representative(&tbe_cfg)),
            ("p_idle=0.1", trace_representative(&idle_cfg)),
            ("rate=1e-4", trace_representative(&rate_cfg)),
        ];
        let runs: Vec<(&str, &mkss_obs::TraceBuffer)> =
            buffers.iter().map(|(id, b)| (*id, b)).collect();
        let note = mkss_obs::overflow_note(&runs);
        if !write_output(&reporter, path, mkss_obs::chrome_trace(&runs), &note) {
            return ExitCode::FAILURE;
        }
    }
    if let (Some(path), Some(registry)) = (&metrics_out, &registry) {
        let doc = metrics_doc(
            "sensitivity",
            registry,
            &obs.stage_totals,
            &[
                ("knobs", "t_be,p_idle,transient_rate".to_string()),
                ("jobs", par::effective_jobs(jobs).to_string()),
            ],
        );
        if !write_output(&reporter, path, doc.to_json(), "") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
