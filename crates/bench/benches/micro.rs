//! Micro-benchmarks of the building blocks that no perfbench per-layer
//! row times yet: the exact schedulability sweep, the VCD renderer, and
//! the engine with a no-op recorder attached. The rest is measured by
//! perfbench (`perfbench/README.md`) and recorded in
//! `BENCH_perfbench.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use mkss_analysis::exact::exact_sweep;
use mkss_core::mk::Pattern;
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::NoopRecorder;
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, simulate_traced, SimConfig, SimWorkspace};
use mkss_workload::{Generator, WorkloadConfig};
use std::hint::black_box;
use std::sync::Arc;

fn sample_set() -> TaskSet {
    Generator::new(WorkloadConfig::paper(), 12345)
        .schedulable_set(0.5)
        .expect("0.5 utilization is generatable")
}

fn bench_analysis(c: &mut Criterion) {
    let ts = sample_set();
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
}

/// The engine's hot path with a NoopRecorder attached: one full run per
/// iteration on a reused workspace. The observability hooks must cost
/// nothing when nobody listens; perfbench has no recorder-overhead row
/// yet, so this arm stays until one lands.
fn bench_sim_hot_path(c: &mut Criterion) {
    let ts = sample_set();
    let config = SimConfig::builder().horizon_ms(500).build();
    let opts = BuildOptions::default();
    let mut group = c.benchmark_group("sim_hot_path");
    for kind in PolicyKind::PAPER {
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
    bench_sim_hot_path,
    bench_trace_tools
);
criterion_main!(benches);
