//! Hot-path throughput measurement for the simulation engine, backing
//! the checked-in `BENCH_sim.json` snapshot.
//!
//! The quantity tracked is the experiment pipeline's unit of work: build
//! a policy and run one full simulation of a Section-V-sized random task
//! set with no recorder attached. Two variants are timed:
//!
//! * **fresh** — the plain [`mkss_sim::engine::simulate`] entry point,
//!   which sets up a new arena per call;
//! * **reuse** — [`mkss_sim::engine::simulate_in`] against one
//!   [`mkss_sim::engine::SimWorkspace`] reused across all runs, the way
//!   the harness drives it per worker thread.
//!
//! A third path, **generate**, times the Section-V workload generator
//! filling a Fig. 6 bucket plan: the top buckets reject thousands of raw
//! draws, so this is the R-pattern test's rejection path.

use std::time::Instant;

use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate, simulate_in, SimConfig, SimWorkspace};
use mkss_workload::{generate_buckets_jobs, BucketPlan, Generator, WorkloadConfig};
use serde::{Deserialize, Serialize};

/// Configuration of one [`measure`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimBenchConfig {
    /// Task sets per utilization point.
    pub sets_per_util: usize,
    /// Timed repetitions of the whole workload (results are averaged).
    pub reps: usize,
    /// Simulated span per run, in milliseconds.
    pub horizon_ms: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// (m,k)-utilization points sampled.
    pub utils: Vec<f64>,
    /// Policies simulated per set.
    pub policies: Vec<PolicyKind>,
}

/// Schedulable sets per bucket on the generate path: the Fig. 6 plan at
/// a fifth of the paper's 20, where the top bucket still spends its whole
/// 5000-draw cap on rejects.
const GENERATE_SETS_PER_BUCKET: usize = 4;

impl Default for SimBenchConfig {
    /// Section-V-sized sets (5–10 tasks, the paper's generator), the
    /// three Figure-6 policies, 1 s horizons.
    fn default() -> Self {
        SimBenchConfig {
            sets_per_util: 8,
            reps: 3,
            horizon_ms: 1_000,
            seed: 0xbe9c,
            utils: vec![0.3, 0.5, 0.7],
            policies: PolicyKind::PAPER.to_vec(),
        }
    }
}

/// Timing of one engine entry path.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PathStats {
    /// Best-of-`reps` wall time for the whole workload, in milliseconds.
    pub wall_ms: f64,
    /// Simulations per second at that wall time.
    pub sims_per_second: f64,
    /// Released jobs processed per second (a machine-independent-ish
    /// proxy for events).
    pub jobs_per_second: f64,
}

/// Timing of the generate path.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GenerateStats {
    /// Best-of-`reps` wall time for filling the whole plan, in
    /// milliseconds.
    pub wall_ms: f64,
    /// Bucket attempts (a raw draw plus, when the draw succeeds, its
    /// R-pattern verdict) per repetition.
    pub attempts: u64,
    /// Attempts per second at that wall time.
    pub attempts_per_second: f64,
}

/// The `BENCH_sim.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimBenchReport {
    /// Harness configuration.
    pub config: SimBenchConfig,
    /// Simulations per timed repetition (sets × policies).
    pub simulations: u64,
    /// Jobs released per timed repetition, summed over all runs.
    pub released_jobs: u64,
    /// Plain `simulate` (fresh arena per call).
    pub fresh: PathStats,
    /// `simulate_in` with one reused [`SimWorkspace`].
    pub reuse: PathStats,
    /// Bucket generation over the Fig. 6 plan.
    pub generate: GenerateStats,
}

impl SimBenchReport {
    /// Throughput of the reused-workspace path over the fresh path.
    pub fn reuse_speedup(&self) -> f64 {
        self.reuse.sims_per_second / self.fresh.sims_per_second
    }
}

fn sample_sets(config: &SimBenchConfig) -> Vec<TaskSet> {
    let mut sets = Vec::new();
    for (i, &util) in config.utils.iter().enumerate() {
        let mut generator = Generator::new(
            WorkloadConfig::paper(),
            config.seed.wrapping_add(i as u64 * 0x9e37_79b9),
        );
        for _ in 0..config.sets_per_util {
            if let Some(ts) = generator.schedulable_set(util) {
                sets.push(ts);
            }
        }
    }
    sets
}

/// Runs the workload through both entry paths and reports throughput.
/// Each path is timed `config.reps` times; the best repetition counts
/// (standard practice for throughput snapshots — the minimum is the run
/// least disturbed by the machine).
pub fn measure(config: &SimBenchConfig) -> SimBenchReport {
    let sets = sample_sets(config);
    let sim_config = SimConfig::builder()
        .horizon(Time::from_ms(config.horizon_ms))
        .build();
    let opts = BuildOptions::default();

    let mut released = 0u64;
    let mut sims = 0u64;
    for ts in &sets {
        for &kind in &config.policies {
            let mut policy = kind.build(ts, &opts).expect("schedulable set");
            let report = simulate(ts, policy.as_mut(), &sim_config);
            released += report.stats.released;
            sims += 1;
        }
    }

    let time_path = |use_workspace: bool| -> PathStats {
        let mut workspace = SimWorkspace::new();
        let mut best = f64::INFINITY;
        for _ in 0..config.reps.max(1) {
            #[expect(
                clippy::disallowed_methods,
                reason = "throughput measurement; wall time is the measured quantity here"
            )]
            let start = Instant::now();
            for ts in &sets {
                for &kind in &config.policies {
                    let mut policy = kind.build(ts, &opts).expect("schedulable set");
                    let report = if use_workspace {
                        simulate_in(&mut workspace, ts, policy.as_mut(), &sim_config)
                    } else {
                        simulate(ts, policy.as_mut(), &sim_config)
                    };
                    std::hint::black_box(&report);
                }
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        PathStats {
            wall_ms: best,
            sims_per_second: sims as f64 / (best / 1e3),
            jobs_per_second: released as f64 / (best / 1e3),
        }
    };

    let fresh = time_path(false);
    let reuse = time_path(true);
    SimBenchReport {
        config: config.clone(),
        simulations: sims,
        released_jobs: released,
        fresh,
        reuse,
        generate: time_generate(config),
    }
}

/// Times one serial fill of the Fig. 6 bucket plan with
/// [`GENERATE_SETS_PER_BUCKET`] sets per bucket, best of `config.reps`.
fn time_generate(config: &SimBenchConfig) -> GenerateStats {
    let plan = BucketPlan {
        sets_per_bucket: GENERATE_SETS_PER_BUCKET,
        ..BucketPlan::default()
    };
    let mut attempts = 0;
    let mut best = f64::INFINITY;
    for _ in 0..config.reps.max(1) {
        #[expect(
            clippy::disallowed_methods,
            reason = "throughput measurement; wall time is the measured quantity here"
        )]
        let start = Instant::now();
        let buckets = generate_buckets_jobs(WorkloadConfig::paper(), plan, config.seed, 1);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        attempts = buckets.iter().map(|b| b.generated).sum();
    }
    GenerateStats {
        wall_ms: best,
        attempts,
        attempts_per_second: attempts as f64 / (best / 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke() {
        let config = SimBenchConfig {
            sets_per_util: 1,
            reps: 1,
            horizon_ms: 100,
            utils: vec![0.4],
            ..SimBenchConfig::default()
        };
        let report = measure(&config);
        assert!(report.simulations >= 1);
        assert!(report.fresh.sims_per_second > 0.0);
        assert!(report.reuse.sims_per_second > 0.0);
        // The top bucket of the Fig. 6 plan exhausts its attempt cap.
        assert!(report.generate.attempts >= 5_000);
        assert!(report.generate.attempts_per_second > 0.0);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("sims_per_second"));
    }
}
