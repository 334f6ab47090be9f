//! `fig6`: one Fig. 6(c) panel per operation through the experiment
//! harness — all eight utilization buckets, combined faults, the three
//! paper policies — and its JSON encoding. Workload generation (the
//! unfillable top bucket exhausts its attempt cap) weighs as much as the
//! simulations, so this is the workload a generator or harness change
//! moves.

use std::sync::Arc;

use mkss_bench::experiment::{
    run_experiment_jobs, run_experiment_observed, ExperimentConfig, ExperimentResult, HarnessObs,
    Scenario,
};
use mkss_obs::{CounterId, Registry, Stopwatch};
use mkss_policies::PolicyKind;

use crate::calib::Kernel;
use crate::stats::Layers;
use crate::{mix, timed_setups, unless_panic, Run, Sample};

/// Schedulable sets per bucket: a fifth of the paper's 20, so one run
/// holds enough panels for a stable 90th percentile.
const SETS_PER_BUCKET: usize = 4;
/// Reference kernel whose slowdown under host load follows this workload's.
const KERNEL: Kernel = Kernel::Dispatch;
const SETUP_REPS: usize = 5;

fn panel(seed: u64, index: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::fig6(Scenario::Combined);
    config.plan.sets_per_bucket = SETS_PER_BUCKET;
    config.seed = mix(seed, index);
    config
}

fn encode(result: &ExperimentResult) -> Result<String, String> {
    serde_json::to_string(result).map_err(|e| format!("encoding a panel: {e}"))
}

/// The outputs every panel must have: a row per filled bucket, the
/// reference policy normalized to exactly 1 and positive finite energies
/// for every policy. (m,k) violations are results, not failures: the
/// panel reports them.
fn check(result: &ExperimentResult) -> Result<(), String> {
    if result.buckets.is_empty() {
        return Err("panel has no bucket".into());
    }
    for bucket in &result.buckets {
        if bucket.normalized.get(&PolicyKind::Static) != Some(&1.0) {
            return Err(format!("bucket {}: reference not at 1.0", bucket.midpoint));
        }
        if bucket.normalized.len() != PolicyKind::PAPER.len()
            || !bucket.absolute.values().all(|e| e.is_finite() && *e > 0.0)
        {
            return Err(format!(
                "bucket {}: missing or non-positive energy",
                bucket.midpoint
            ));
        }
    }
    Ok(())
}

pub fn run(seed: u64, window_ms: f64, trace: bool) -> Result<(f64, Run), String> {
    // Set-up warms the process: the harness's workspace pool, allocator
    // arenas and caches all fill on the first panel.
    let (setup_s, ()) = timed_setups(
        SETUP_REPS,
        |_| {
            unless_panic(|| encode(&run_experiment_jobs(&panel(seed, u64::MAX), 1)).map(drop))
                .unwrap_or(Ok(()))
        },
        drop,
    )?;

    let mut run = Run::new(Layers::default(), KERNEL);
    let mut first: Option<(u64, String)> = None;
    let mut skipped = Vec::new();
    let opened = Stopwatch::start();
    let mut index = 0;
    while opened.elapsed_ms() < window_ms {
        run.calib.tick(opened.elapsed_ms());
        let config = panel(seed, index);
        let watch = Stopwatch::start();
        let outcome = unless_panic(|| {
            if trace {
                traced_panel(&config, &mut run.layers)
            } else {
                let result = run_experiment_jobs(&config, 1);
                encode(&result).map(|encoded| (result, encoded))
            }
        });
        let took_ms = watch.elapsed_ms();
        let Some(outcome) = outcome else {
            // An input the program panics on: left out of the workload.
            skipped.push(index);
            index += 1;
            continue;
        };
        let (result, encoded) = outcome?;
        if trace {
            run.layers.op.add(took_ms * 1e6, 1.0);
        }
        match check(&result) {
            Ok(()) => run.samples.push(Sample {
                end_ms: opened.elapsed_ms(),
                took_ms,
            }),
            Err(e) => {
                run.failed += 1;
                run.errors.push(format!("panel {index}: {e}"));
            }
        }
        if first.is_none() {
            first = serde_json::to_string(&result.buckets)
                .ok()
                .map(|rows| (index, rows));
        }
        std::hint::black_box(encoded);
        index += 1;
    }
    run.wall_ms = opened.elapsed_ms();
    run.calib.sample(run.wall_ms);
    if !skipped.is_empty() {
        eprintln!("panels left out (the program panicked on them): {skipped:?}");
    }

    // Byte-identity across worker counts: the first panel again on two
    // workers must reproduce every bucket row.
    if let Some((at, rows)) = first {
        let again = run_experiment_jobs(&panel(seed, at), 2);
        if serde_json::to_string(&again.buckets).ok() != Some(rows) {
            run.errors
                .push(format!("panel {at} differs between 1 and 2 workers"));
        }
    }
    Ok((setup_s, run))
}

/// One panel with the engine's metrics registry attached. The harness's
/// own stage timers split the panel into generate / build / simulate /
/// fold, and the registry's release counter gives the job count.
fn traced_panel(
    config: &ExperimentConfig,
    layers: &mut Layers,
) -> Result<(ExperimentResult, String), String> {
    let registry = Arc::new(Registry::new(1));
    let obs = HarnessObs {
        registry: Some(Arc::clone(&registry)),
        ..HarnessObs::default()
    };
    let result = run_experiment_observed(config, 1, &obs);
    let watch = Stopwatch::start();
    let encoded = encode(&result)?;
    let encode_ns = watch.elapsed_ms() * 1e6;

    let stats = &result.stats;
    let stages = &stats.stages;
    let sets = stats.sets_simulated + stats.skipped_zero_reference + stats.skipped_build_errors;
    let builds = (stats.sets_simulated + stats.skipped_zero_reference)
        * PolicyKind::PAPER.len() as u64
        + stats.skipped_build_errors;
    layers.generate.add(stages.generate_ms * 1e6, sets as f64);
    layers.build.add(stages.build_ms * 1e6, builds as f64);
    layers.engine.add(stages.simulate_ms * 1e6, builds as f64);
    layers.jobs += registry.snapshot().counter(CounterId::JobsReleased) as f64;
    layers.report.add(stages.fold_ms * 1e6 + encode_ns, 1.0);
    layers.attributed_ns +=
        (stages.generate_ms + stages.build_ms + stages.simulate_ms + stages.fold_ms) * 1e6
            + encode_ns;
    Ok((result, encoded))
}
