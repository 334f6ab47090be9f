//! `engine`: one long-horizon simulation per operation — a Section-V
//! task set, one of the three paper policies, a permanent fault halfway
//! and transient faults throughout — on a reused workspace, plus the
//! report's JSON encoding. The event loop dominates; workload generation
//! happens once, in set-up.
//!
//! Each run lasts as long as its set takes to release `JOBS_PER_OP` jobs
//! (about 30 s simulated on average). With a fixed span, how busy the
//! seed's sets happened to be moved the figures by a tenth between seeds.

use std::sync::Arc;

use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::{Registry, Stopwatch};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::prelude::{
    simulate, simulate_in, FaultConfig, ProcId, SimConfig, SimReport, SimWorkspace,
};
use mkss_workload::{Generator, WorkloadConfig};

use crate::calib::Kernel;
use crate::stats::{Acc, Layers};
use crate::{mix, timed_setups, unless_panic, Run, Sample};

/// Jobs released per operation.
const JOBS_PER_OP: f64 = 12_000.0;
/// Target (m,k)-utilizations of the set pool.
const UTILS: [f64; 6] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
const SETS_PER_UTIL: usize = 40;
/// Transient faults per millisecond: a few dozen per run, so the
/// recovery paths stay on the measured path.
const TRANSIENT_PER_MS: f64 = 2e-3;
/// Reference kernel whose slowdown under host load follows this workload's.
const KERNEL: Kernel = Kernel::Table;
const SETUP_REPS: usize = 9;
/// Operations re-run on a fresh workspace after the window.
const CHECKED_OPS: u64 = 6;

/// Generates the set pool: up to `per_util` schedulable sets per target
/// utilization, one generator stream per utilization. Sets on which some
/// paper policy does not build cleanly (see `unless_panic`) are left out.
pub fn generate_pool(
    seed: u64,
    utils: &[f64],
    per_util: usize,
    generate: &mut Acc,
) -> Vec<TaskSet> {
    let mut pool = Vec::new();
    for (i, &util) in utils.iter().enumerate() {
        let mut generator = Generator::new(WorkloadConfig::paper(), mix(seed, i as u64));
        for _ in 0..per_util {
            let watch = Stopwatch::start();
            let set = generator.schedulable_set(util);
            generate.add(watch.elapsed_ms() * 1e6, 0.0);
            if let Some(set) = set {
                generate.units += 1.0;
                if builds_cleanly(&set) {
                    pool.push(set);
                }
            }
        }
    }
    pool
}

/// Whether every paper policy builds on `set` without an error or a panic.
fn builds_cleanly(set: &TaskSet) -> bool {
    PolicyKind::PAPER.iter().all(|kind| {
        matches!(
            unless_panic(|| kind.build(set, &BuildOptions::default())),
            Some(Ok(_))
        )
    })
}

/// Whole milliseconds in which `set` releases about `jobs` jobs.
pub fn span_ms(set: &TaskSet, jobs: f64) -> u64 {
    let per_ms: f64 = set.iter().map(|(_, t)| 1.0 / t.period().as_ms_f64()).sum();
    (jobs / per_ms).ceil() as u64
}

struct Op<'a> {
    set: &'a TaskSet,
    kind: PolicyKind,
    config: SimConfig,
}

fn op(pool: &[TaskSet], seed: u64, index: u64) -> Op<'_> {
    let n = pool.len() as u64;
    let set = &pool[(index % n) as usize];
    let horizon_ms = span_ms(set, JOBS_PER_OP);
    let proc = if index.is_multiple_of(2) {
        ProcId::PRIMARY
    } else {
        ProcId::SPARE
    };
    let faults = FaultConfig::combined(
        proc,
        Time::from_ms(horizon_ms / 2),
        TRANSIENT_PER_MS,
        mix(seed, index),
    );
    Op {
        set,
        kind: PolicyKind::PAPER[((index / n) % 3) as usize],
        config: SimConfig::builder()
            .horizon(Time::from_ms(horizon_ms))
            .faults(faults)
            .build(),
    }
}

fn check(report: &SimReport) -> Result<(), String> {
    let energy = report.total_energy().units();
    if report.stats.released == 0 || !energy.is_finite() || energy <= 0.0 {
        return Err(format!(
            "{}: {} jobs, energy {energy}",
            report.policy, report.stats.released
        ));
    }
    Ok(())
}

pub fn run(seed: u64, window_ms: f64, trace: bool) -> Result<(f64, Run), String> {
    let mut layers = Layers::default();
    // Set-up: generate the pool (which builds every (set, policy) pair
    // once) and warm the workspace with one simulation.
    let (setup_s, pool) = timed_setups(
        SETUP_REPS,
        |_| {
            layers.generate = Acc::default();
            let pool = generate_pool(seed, &UTILS, SETS_PER_UTIL, &mut layers.generate);
            if pool.is_empty() {
                return Err("no schedulable set generated".into());
            }
            let warm = op(&pool, seed, u64::MAX);
            let mut policy = warm
                .kind
                .build(warm.set, &BuildOptions::default())
                .map_err(|e| e.to_string())?;
            std::hint::black_box(simulate(warm.set, policy.as_mut(), &warm.config));
            Ok(pool)
        },
        drop,
    )?;

    let mut run = Run::new(layers, KERNEL);
    let mut workspace = SimWorkspace::new();
    if trace {
        workspace.set_recorder(Some(Arc::new(Arc::new(Registry::new(1)).handle_at(0))));
    }
    let opts = BuildOptions::default();
    let mut encoded_ops: Vec<String> = Vec::new();
    let opened = Stopwatch::start();
    let mut index = 0;
    while opened.elapsed_ms() < window_ms {
        run.calib.tick(opened.elapsed_ms());
        let op = op(&pool, seed, index);
        let watch = Stopwatch::start();
        let outcome = if trace {
            traced_op(&op, &mut workspace, &mut run.layers)
        } else {
            op.kind
                .build(op.set, &opts)
                .map_err(|e| e.to_string())
                .and_then(|mut policy| {
                    let report = simulate_in(&mut workspace, op.set, policy.as_mut(), &op.config);
                    encode(&report).map(|bytes| (report, bytes))
                })
        };
        let took_ms = watch.elapsed_ms();
        match outcome.and_then(|(report, bytes)| check(&report).map(|()| bytes)) {
            Ok(bytes) => {
                run.samples.push(Sample {
                    end_ms: opened.elapsed_ms(),
                    took_ms,
                });
                if trace {
                    run.layers.op.add(took_ms * 1e6, 1.0);
                }
                if index < CHECKED_OPS {
                    encoded_ops.push(bytes);
                }
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(format!("op {index}: {e}"));
            }
        }
        index += 1;
    }
    run.wall_ms = opened.elapsed_ms();
    run.calib.sample(run.wall_ms);
    let l = &mut run.layers;
    l.attributed_ns = l.build.ns + l.engine.ns + l.report.ns;

    // Byte-identity of the reused workspace against a fresh one per run.
    for (i, expected) in encoded_ops.iter().enumerate() {
        let op = op(&pool, seed, i as u64);
        let fresh = op
            .kind
            .build(op.set, &opts)
            .map_err(|e| e.to_string())
            .and_then(|mut policy| encode(&simulate(op.set, policy.as_mut(), &op.config)));
        if fresh.as_ref() != Ok(expected) {
            run.errors
                .push(format!("op {i}: reused workspace differs from a fresh one"));
        }
    }
    Ok((setup_s, run))
}

fn encode(report: &SimReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| format!("encoding a report: {e}"))
}

fn traced_op(
    op: &Op<'_>,
    workspace: &mut SimWorkspace,
    layers: &mut Layers,
) -> Result<(SimReport, String), String> {
    let mut policy = layers
        .build
        .time(|| op.kind.build(op.set, &BuildOptions::default()))
        .map_err(|e| e.to_string())?;
    let report = layers
        .engine
        .time(|| simulate_in(workspace, op.set, policy.as_mut(), &op.config));
    let bytes = layers.report.time(|| encode(&report))?;
    layers.jobs += report.stats.released as f64;
    Ok((report, bytes))
}
