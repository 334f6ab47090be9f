//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. greedy vs selective optional-job execution (Section III's
//!    motivation, Figs. 2–4 at scale);
//! 2. the FD = 1 selection threshold vs FD ≤ 2 / FD ≤ 3;
//! 3. alternating optional placement vs primary-only;
//! 4. θ-postponement vs promotion-times-only vs the static reference;
//! 5. the deeply-red vs the evenly-distributed static pattern.
//!
//! ```text
//! ablations [--sets N] [--horizon-ms MS] [--seed S] [--scenario ...]
//!           [--jobs N] [--metrics-out FILE] [--progress]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mkss_bench::cli::{or_exit, parse_flags, write_output};
use mkss_bench::experiment::{
    metrics_doc, run_experiment_observed, ExperimentConfig, HarnessObs, Scenario, StageTimes,
};
use mkss_bench::table;
use mkss_core::par;
use mkss_obs::{Registry, Reporter};
use mkss_policies::PolicyKind;

const USAGE: &str = "usage: ablations [--sets N] [--horizon-ms MS] [--seed S] \
                     [--scenario no-fault|permanent|combined] [--jobs N] \
                     [--metrics-out FILE] [--progress]";

fn main() -> ExitCode {
    let reporter = Arc::new(Reporter::stderr());
    let mut template = ExperimentConfig::fig6(Scenario::NoFault);
    let mut jobs = 0usize;
    let mut metrics_out: Option<String> = None;
    let mut progress = false;
    or_exit(parse_flags(USAGE, |flag, flags| {
        match flag {
            "--sets" => template.plan.sets_per_bucket = flags.parse()?,
            "--horizon-ms" => template.horizon = flags.ms()?,
            "--seed" => template.seed = flags.parse()?,
            "--scenario" => {
                template.scenario = flags.value()?.parse().map_err(|e| format!("{e}"))?
            }
            "--jobs" => jobs = flags.parse()?,
            "--metrics-out" => metrics_out = Some(flags.value()?),
            "--progress" => progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }));

    let studies: [(&str, Vec<PolicyKind>); 5] = [
        (
            "ablation 1: greedy vs selective optional execution",
            vec![
                PolicyKind::Greedy,
                PolicyKind::Selective,
                PolicyKind::DualPriority,
            ],
        ),
        (
            "ablation 2: flexibility-degree selection threshold",
            vec![
                PolicyKind::Selective,
                PolicyKind::SelectiveFd2,
                PolicyKind::SelectiveFd3,
            ],
        ),
        (
            "ablation 3: optional-job placement",
            vec![PolicyKind::Selective, PolicyKind::SelectivePrimaryOnly],
        ),
        (
            "ablation 4: backup procrastination on the static scheme (Y vs θ)",
            vec![
                PolicyKind::DualPriority,
                PolicyKind::DualPriorityTheta,
                PolicyKind::Selective,
                PolicyKind::SelectiveNoPostpone,
            ],
        ),
        (
            "ablation 5: static pattern shape (deeply-red vs evenly-distributed)",
            vec![PolicyKind::Static, PolicyKind::StaticEven],
        ),
    ];

    let registry = metrics_out
        .as_ref()
        .map(|_| Arc::new(Registry::new(par::effective_jobs(jobs))));
    let mut stage_totals = StageTimes::default();
    let study_count = studies.len();
    for (number, (title, policies)) in studies.into_iter().enumerate() {
        println!("== {title} ==");
        let mut config = template.clone();
        config.policies = policies;
        let obs = HarnessObs {
            registry: registry.clone(),
            progress: progress.then(|| Arc::clone(&reporter)),
            label: format!("ablation {}", number + 1),
        };
        let result = run_experiment_observed(&config, jobs, &obs);
        reporter.line(&format!("{title}: {}", result.stats.summary()));
        stage_totals.absorb(&result.stats.stages);
        println!("{}", table::render(&result));
    }
    if let (Some(path), Some(registry)) = (&metrics_out, &registry) {
        let doc = metrics_doc(
            "ablations",
            registry,
            &stage_totals,
            &[
                ("studies", study_count.to_string()),
                ("jobs", par::effective_jobs(jobs).to_string()),
            ],
        );
        if !write_output(&reporter, path, doc.to_json(), "") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
