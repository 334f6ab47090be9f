//! Micro-benchmarks of the building blocks: response-time analysis,
//! postponement-interval computation, flexibility-degree queries,
//! workload generation, and single simulation runs per policy.

use criterion::{criterion_group, criterion_main, Criterion};
use mkss_analysis::exact::exact_sweep;
use mkss_analysis::postpone::{job_postponement, postponement_intervals, PostponeConfig};
use mkss_analysis::rotation::{find_rotation, RotationConfig};
use mkss_analysis::rta::{analyze, is_schedulable_r_pattern, InterferenceModel};
use mkss_core::history::{JobOutcome, MkHistory};
use mkss_core::mk::{MkConstraint, Pattern};
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::NoopRecorder;
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate, simulate_in, simulate_traced, SimConfig, SimWorkspace};
use mkss_workload::{Generator, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;

fn sample_set() -> TaskSet {
    Generator::new(WorkloadConfig::paper(), 12345)
        .schedulable_set(0.5)
        .expect("0.5 utilization is generatable")
}

/// Draws per iteration of `workload/top_bucket_attempts`.
const TOP_BUCKET_ATTEMPTS: usize = 100;

/// A raw set from the top Fig. 6 bucket that fails the R-pattern test:
/// the generator's common case while filling high-utilization buckets.
fn rejected_set() -> TaskSet {
    let mut g = Generator::new(WorkloadConfig::paper(), 12345);
    loop {
        if let Some(ts) = g.raw_set_in(0.8, 0.9) {
            if !is_schedulable_r_pattern(&ts) {
                return ts;
            }
        }
    }
}

fn bench_analysis(c: &mut Criterion) {
    let ts = sample_set();
    let rejected = rejected_set();
    c.bench_function("rta/r_pattern_verdict", |b| {
        b.iter(|| black_box(is_schedulable_r_pattern(black_box(&rejected))))
    });
    c.bench_function("rta/mandatory_only", |b| {
        b.iter(|| {
            black_box(analyze(
                black_box(&ts),
                InterferenceModel::MandatoryOnly(Pattern::DeeplyRed),
            ))
        })
    });
    c.bench_function("rta/all_jobs", |b| {
        b.iter(|| black_box(analyze(black_box(&ts), InterferenceModel::AllJobs)))
    });
    c.bench_function("postpone/intervals", |b| {
        b.iter(|| {
            black_box(postponement_intervals(
                black_box(&ts),
                PostponeConfig::default(),
            ))
        })
    });
    c.bench_function("postpone/per_job", |b| {
        b.iter(|| black_box(job_postponement(black_box(&ts), PostponeConfig::default())))
    });
    c.bench_function("exact/sweep_1s", |b| {
        b.iter(|| {
            black_box(exact_sweep(
                black_box(&ts),
                Pattern::DeeplyRed,
                Time::from_ms(1_000),
            ))
        })
    });
}

fn bench_rotation(c: &mut Criterion) {
    let harmonic = WorkloadConfig {
        tasks_min: 4,
        tasks_max: 6,
        period_ms: (4, 32),
        k_range: (2, 8),
        pow2_harmonics: true,
        ..WorkloadConfig::paper()
    };
    let ts = loop {
        // A set the search actually has to work on.
        let mut g = Generator::new(harmonic, 31);
        if let Some(ts) = g.raw_set(0.75) {
            break ts;
        }
    };
    let mut group = c.benchmark_group("rotation");
    group.sample_size(20);
    group.bench_function("search", |b| {
        b.iter(|| black_box(find_rotation(black_box(&ts), RotationConfig::default())))
    });
    group.finish();
}

fn bench_trace_tools(c: &mut Criterion) {
    let ts = sample_set();
    let config = SimConfig::builder().horizon_ms(500).build();
    let mut policy = PolicyKind::Selective
        .build(&ts, &BuildOptions::default())
        .unwrap();
    let (_, trace) = simulate_traced(&ts, policy.as_mut(), &config);
    c.bench_function("trace/vcd_render", |b| {
        b.iter(|| black_box(mkss_sim::vcd::render_vcd(black_box(&trace), ts.len())))
    });
    c.bench_function("trace/metrics", |b| {
        b.iter(|| {
            black_box(mkss_sim::metrics::analyze_trace(
                black_box(&ts),
                black_box(&trace),
            ))
        })
    });
}

fn bench_core(c: &mut Criterion) {
    let mk = MkConstraint::new(7, 20).unwrap();
    c.bench_function("core/flexibility_degree", |b| {
        let mut h = MkHistory::new(mk);
        for i in 0..19 {
            h.record(if i % 3 == 0 {
                JobOutcome::Missed
            } else {
                JobOutcome::Met
            });
        }
        b.iter(|| black_box(black_box(&h).flexibility_degree()))
    });
    c.bench_function("core/pattern_mandatory_among", |b| {
        b.iter(|| black_box(Pattern::DeeplyRed.mandatory_among(black_box(mk), black_box(1_000))))
    });
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.sample_size(30);
    group.bench_function("schedulable_set", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(Generator::new(WorkloadConfig::paper(), seed).schedulable_set(0.4))
        })
    });
    group.bench_function("top_bucket_attempts", |b| {
        b.iter(|| {
            let mut g = Generator::new(WorkloadConfig::paper(), 7);
            let accepted = (0..TOP_BUCKET_ATTEMPTS)
                .filter_map(|_| g.raw_set_in(0.8, 0.9))
                .filter(is_schedulable_r_pattern)
                .count();
            black_box(accepted)
        })
    });
    group.finish();
}

fn bench_simulate(c: &mut Criterion) {
    let ts = sample_set();
    let config = SimConfig::new(Time::from_ms(500));
    let mut group = c.benchmark_group("simulate_500ms");
    for kind in [
        PolicyKind::Static,
        PolicyKind::DualPriority,
        PolicyKind::Selective,
    ] {
        group.bench_function(kind.id(), |b| {
            b.iter(|| {
                let mut policy = kind.build(&ts, &BuildOptions::default()).unwrap();
                black_box(simulate(black_box(&ts), policy.as_mut(), &config))
            })
        });
    }
    group.finish();
}

/// The engine's hot path, isolated from policy construction: one full
/// untraced run (no recorder attached) per iteration, fresh arena vs reused
/// workspace — the pair whose ratio `BENCH_sim.json` tracks.
fn bench_sim_hot_path(c: &mut Criterion) {
    let ts = sample_set();
    let config = SimConfig::builder().horizon_ms(500).build();
    let opts = BuildOptions::default();
    let mut group = c.benchmark_group("sim_hot_path");
    for kind in PolicyKind::PAPER {
        group.bench_function(format!("fresh/{}", kind.id()).as_str(), |b| {
            let mut policy = kind.build(&ts, &opts).unwrap();
            b.iter(|| black_box(simulate(black_box(&ts), policy.as_mut(), &config)))
        });
        group.bench_function(format!("reuse/{}", kind.id()).as_str(), |b| {
            let mut policy = kind.build(&ts, &opts).unwrap();
            let mut ws = SimWorkspace::new();
            b.iter(|| {
                black_box(simulate_in(
                    &mut ws,
                    black_box(&ts),
                    policy.as_mut(),
                    &config,
                ))
            })
        });
        // Same reused-workspace run with a NoopRecorder attached: the
        // observability hooks must cost nothing when nobody listens, so
        // this arm should match `reuse/*` within noise.
        group.bench_function(format!("reuse_noop_recorder/{}", kind.id()).as_str(), |b| {
            let mut policy = kind.build(&ts, &opts).unwrap();
            let mut ws = SimWorkspace::with_recorder(Arc::new(NoopRecorder));
            b.iter(|| {
                black_box(simulate_in(
                    &mut ws,
                    black_box(&ts),
                    policy.as_mut(),
                    &config,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_analysis,
    bench_core,
    bench_workload,
    bench_simulate,
    bench_sim_hot_path,
    bench_rotation,
    bench_trace_tools
);
criterion_main!(benches);
