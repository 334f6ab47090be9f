//! The Figure-6 experiment pipeline: workload generation → per-scenario
//! fault plans → simulation of every policy → normalization against
//! `MKSS_ST`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mkss_core::par;
use mkss_core::task::TaskSet;
use mkss_core::time::Time;
use mkss_obs::{Recorder, Registry, Stopwatch, TraceBuffer, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, SimConfig};
use mkss_sim::fault::FaultConfig;
use mkss_sim::pool::WorkspacePool;
use mkss_sim::power::PowerModel;
use mkss_sim::proc::ProcId;
use mkss_workload::{generate_buckets_jobs, BucketPlan, Generator, WorkloadConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// The three fault scenarios of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scenario {
    /// Fig. 6(a): no fault occurs within the simulated span.
    NoFault,
    /// Fig. 6(b): one permanent fault at a random instant on a random
    /// processor.
    Permanent,
    /// Fig. 6(c): the permanent fault plus Poisson transient faults.
    Combined,
}

impl Scenario {
    /// All scenarios, in the paper's panel order.
    pub const ALL: [Scenario; 3] = [Scenario::NoFault, Scenario::Permanent, Scenario::Combined];

    /// Stable identifier, also used by the `fig6` binary's `--scenario`.
    pub fn id(self) -> &'static str {
        match self {
            Scenario::NoFault => "no-fault",
            Scenario::Permanent => "permanent",
            Scenario::Combined => "combined",
        }
    }

    /// The figure panel this scenario reproduces.
    pub fn panel(self) -> &'static str {
        match self {
            Scenario::NoFault => "Fig. 6(a)",
            Scenario::Permanent => "Fig. 6(b)",
            Scenario::Combined => "Fig. 6(c)",
        }
    }
}

/// Error parsing a [`Scenario`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ParseScenarioError {
    input: String,
}

impl std::fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scenario '{}'; expected no-fault|permanent|combined",
            self.input
        )
    }
}

impl std::error::Error for ParseScenarioError {}

impl std::str::FromStr for Scenario {
    type Err = ParseScenarioError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scenario::ALL
            .into_iter()
            .find(|sc| sc.id() == s)
            .ok_or_else(|| ParseScenarioError {
                input: s.to_owned(),
            })
    }
}

/// Full configuration of one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentConfig {
    /// Fault scenario.
    pub scenario: Scenario,
    /// Policies to compare (the normalization reference `MKSS_ST` is
    /// always simulated regardless).
    pub policies: Vec<PolicyKind>,
    /// Workload generator parameters.
    pub workload: WorkloadConfig,
    /// Utilization bucketing plan.
    pub plan: BucketPlan,
    /// Simulated span per task set (the paper simulates "within the
    /// hyper period"; random-period hyperperiods are astronomically
    /// large, so a fixed span is used — shapes are insensitive to it).
    pub horizon: Time,
    /// Power model.
    pub power: PowerModel,
    /// Transient fault rate per millisecond (used by
    /// [`Scenario::Combined`]; the paper uses `1e-6`).
    pub transient_rate_per_ms: f64,
    /// Window, as fractions of the horizon, in which the permanent
    /// fault's instant is drawn uniformly. `(0.0, 1.0)` = anywhere
    /// (default); the paper observes that its permanent-fault energies
    /// stay "similar to the case when no fault ever occurred", which
    /// corresponds to a late window such as `(0.9, 1.0)`.
    pub permanent_fault_window: (f64, f64),
    /// Master seed; workloads and fault plans derive from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's Figure-6 setup for one scenario.
    pub fn fig6(scenario: Scenario) -> Self {
        ExperimentConfig {
            scenario,
            policies: PolicyKind::PAPER.to_vec(),
            workload: WorkloadConfig::paper(),
            plan: BucketPlan::default(),
            horizon: Time::from_ms(1_000),
            power: PowerModel::default(),
            transient_rate_per_ms: 1e-6,
            permanent_fault_window: (0.0, 1.0),
            seed: 0x6d6b_7373, // "mkss"
        }
    }

    /// Fault configuration for one task set (deterministic per
    /// `set_index`; identical across policies so the comparison is fair).
    pub fn fault_plan(&self, set_index: u64) -> FaultConfig {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ (0xfa17 + set_index));
        let (w_lo, w_hi) = self.permanent_fault_window;
        let lo = (self.horizon.ticks() as f64 * w_lo) as u64;
        let hi = ((self.horizon.ticks() as f64 * w_hi) as u64).max(lo + 1);
        let permanent_at = Time::from_ticks(rng.gen_range(lo..hi));
        let proc = if rng.gen_bool(0.5) {
            ProcId::PRIMARY
        } else {
            ProcId::SPARE
        };
        let transient_seed = rng.gen();
        match self.scenario {
            Scenario::NoFault => FaultConfig::none(),
            Scenario::Permanent => FaultConfig::permanent(proc, permanent_at),
            Scenario::Combined => FaultConfig::combined(
                proc,
                permanent_at,
                self.transient_rate_per_ms,
                transient_seed,
            ),
        }
    }

    /// Replication `r` of this experiment: the same configuration under a
    /// master seed `r` golden-ratio steps away, so it regenerates its
    /// workloads and fault plans independently. Replication 0 is this
    /// configuration itself.
    pub fn replication(&self, r: u32) -> ExperimentConfig {
        let mut config = self.clone();
        config.seed = self
            .seed
            .wrapping_add(u64::from(r).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        config
    }
}

/// Result row for one utilization bucket.
#[derive(Debug, Clone, Serialize)]
pub struct BucketResult {
    /// Bucket midpoint ((m,k)-utilization).
    pub midpoint: f64,
    /// Number of schedulable task sets simulated.
    pub sets: usize,
    /// Task sets generated to fill the bucket.
    pub generated: u64,
    /// Mean energy normalized to `MKSS_ST`, per policy.
    pub normalized: BTreeMap<PolicyKind, f64>,
    /// Mean absolute energy in unit-ms, per policy.
    pub absolute: BTreeMap<PolicyKind, f64>,
    /// Total (m,k)-violations observed per policy (expected 0).
    pub violations: BTreeMap<PolicyKind, u64>,
}

/// Per-bucket observability counters of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BucketStats {
    /// Bucket midpoint ((m,k)-utilization).
    pub midpoint: f64,
    /// Summed wall time of the bucket's set simulations in milliseconds
    /// (CPU time under parallel runs; zeroed by
    /// [`RunStats::strip_timing`]).
    pub wall_ms: f64,
    /// Sets simulated and counted into the bucket's means.
    pub sets_simulated: usize,
    /// Sets the workload generator produced while filling the bucket.
    pub sets_generated: u64,
    /// Sets dropped because a policy could not be built for them.
    pub skipped_build_errors: u64,
    /// Sets dropped because the `MKSS_ST` reference consumed no energy.
    pub skipped_zero_reference: u64,
    /// First policy-build error observed in this bucket, if any.
    pub first_build_error: Option<String>,
}

/// Wall time of the harness pipeline stages, summed across workers (so
/// under `--jobs > 1` these are CPU-time-like totals, not elapsed time).
/// Machine-dependent; zeroed by [`RunStats::strip_timing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StageTimes {
    /// Workload generation (bucket filling).
    pub generate_ms: f64,
    /// Policy construction (analysis: response times, promotion, θ).
    pub build_ms: f64,
    /// Simulation proper (every set × policy).
    pub simulate_ms: f64,
    /// Folding per-set outcomes into bucket rows and stats.
    pub fold_ms: f64,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total_ms(&self) -> f64 {
        self.generate_ms + self.build_ms + self.simulate_ms + self.fold_ms
    }

    /// Add another run's stage times (multi-scenario/replication totals).
    pub fn absorb(&mut self, other: &StageTimes) {
        self.generate_ms += other.generate_ms;
        self.build_ms += other.build_ms;
        self.simulate_ms += other.simulate_ms;
        self.fold_ms += other.fold_ms;
    }
}

/// Observability wiring for an observed harness run: an optional engine
/// event registry. The default records nothing, leaving the hot path
/// untouched.
#[derive(Debug, Clone, Default)]
pub struct HarnessObs {
    /// Sink for engine event counters/histograms. Size it to the worker
    /// count (`Registry::new(par::effective_jobs(jobs))`) for a
    /// contention-free shard per worker.
    pub registry: Option<Arc<Registry>>,
}

/// Assembles the `fig6 --metrics-out` document: the registry snapshot,
/// `binary` plus caller metadata, and the four harness stage wall-times.
/// A thin wrapper over the workspace-wide [`mkss_obs::metrics_doc`]
/// entry point that fixes the stage names to the harness pipeline's.
pub fn metrics_doc(
    binary: &str,
    registry: &Registry,
    stages: &StageTimes,
    meta: &[(&str, String)],
) -> mkss_obs::MetricsDoc {
    mkss_obs::metrics_doc(
        binary,
        registry.snapshot(),
        meta,
        &[
            ("generate_ms", stages.generate_ms),
            ("build_ms", stages.build_ms),
            ("simulate_ms", stages.simulate_ms),
            ("fold_ms", stages.fold_ms),
        ],
    )
}

/// Observability counters of one [`run_experiment_jobs`] call, serialized
/// alongside the results. Timing fields (and the worker count) depend on
/// the machine and scheduling; everything else is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunStats {
    /// Worker threads used (resolved from the `jobs` knob).
    pub jobs: usize,
    /// Total wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// Simulations per wall-clock second (sets × policies / wall time).
    pub sims_per_second: f64,
    /// Buckets in the plan (including ones that came up empty).
    pub buckets_planned: usize,
    /// Buckets omitted from [`ExperimentResult::buckets`] because no
    /// generated set survived simulation.
    pub empty_buckets: usize,
    /// Sets simulated and counted across all buckets.
    pub sets_simulated: u64,
    /// Sets the workload generator produced across all buckets.
    pub sets_generated: u64,
    /// Sets dropped because a policy could not be built.
    pub skipped_build_errors: u64,
    /// Sets dropped because the reference consumed no energy.
    pub skipped_zero_reference: u64,
    /// Total (m,k)-violations per policy across all buckets.
    pub violations: BTreeMap<PolicyKind, u64>,
    /// Per-stage wall time (generate / build / simulate / fold), summed
    /// across workers.
    pub stages: StageTimes,
    /// Per-bucket breakdown (every planned bucket, empty ones included).
    pub buckets: Vec<BucketStats>,
}

impl RunStats {
    /// Counters of a run that has done nothing yet, on `jobs` workers.
    fn empty(jobs: usize) -> RunStats {
        RunStats {
            jobs,
            wall_ms: 0.0,
            sims_per_second: 0.0,
            buckets_planned: 0,
            empty_buckets: 0,
            sets_simulated: 0,
            sets_generated: 0,
            skipped_build_errors: 0,
            skipped_zero_reference: 0,
            violations: BTreeMap::new(),
            stages: StageTimes::default(),
            buckets: Vec::new(),
        }
    }

    /// Zeroes every machine- or schedule-dependent field (wall times,
    /// throughput, worker count), leaving only deterministic counters —
    /// two runs of the same config then compare equal regardless of the
    /// `jobs` knob.
    pub fn strip_timing(&mut self) {
        self.jobs = 0;
        self.wall_ms = 0.0;
        self.sims_per_second = 0.0;
        self.stages = StageTimes::default();
        for bucket in &mut self.buckets {
            bucket.wall_ms = 0.0;
        }
    }

    /// One-line human summary (for stderr progress output).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} sets simulated ({} generated, {} skipped) across {}/{} buckets \
             in {:.1} ms on {} worker(s), {:.0} sims/s",
            self.sets_simulated,
            self.sets_generated,
            self.skipped_build_errors + self.skipped_zero_reference,
            self.buckets_planned - self.empty_buckets,
            self.buckets_planned,
            self.wall_ms,
            self.jobs,
            self.sims_per_second,
        )
    }

    fn absorb(&mut self, other: &RunStats) {
        self.wall_ms += other.wall_ms;
        self.buckets_planned += other.buckets_planned;
        self.empty_buckets += other.empty_buckets;
        self.sets_simulated += other.sets_simulated;
        self.sets_generated += other.sets_generated;
        self.skipped_build_errors += other.skipped_build_errors;
        self.skipped_zero_reference += other.skipped_zero_reference;
        for (&kind, &count) in &other.violations {
            *self.violations.entry(kind).or_default() += count;
        }
        self.stages.absorb(&other.stages);
        self.buckets.extend(other.buckets.iter().cloned());
    }
}

/// Result of a whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentResult {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// One row per utilization bucket **that produced data**; buckets
    /// where no generated set survived simulation are omitted (see
    /// [`RunStats::empty_buckets`]).
    pub buckets: Vec<BucketResult>,
    /// Observability counters of the run.
    pub stats: RunStats,
}

impl ExperimentResult {
    /// Maximum energy reduction (in percent) of `a` relative to `b`
    /// across all buckets — the paper's headline "up to X%" numbers
    /// (e.g. `MKSS_selective` vs `MKSS_DP`). `None` when no bucket has
    /// data for both policies (previously this returned `-inf`).
    pub fn max_reduction_pct(&self, a: PolicyKind, b: PolicyKind) -> Option<f64> {
        self.buckets
            .iter()
            .filter_map(|bkt| {
                let ea = bkt.normalized.get(&a)?;
                let eb = bkt.normalized.get(&b)?;
                if *eb > 0.0 {
                    Some((1.0 - ea / eb) * 100.0)
                } else {
                    None
                }
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |m| m.max(v)))
            })
    }

    /// Mean normalized energy of `policy` across buckets.
    pub fn mean_normalized(&self, policy: PolicyKind) -> f64 {
        let values: Vec<f64> = self
            .buckets
            .iter()
            .filter_map(|b| b.normalized.get(&policy).copied())
            .collect();
        if values.is_empty() {
            return f64::NAN;
        }
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Total violations across all buckets and policies (expected 0 in
    /// every scenario — Theorem 1 plus fault tolerance).
    pub fn total_violations(&self) -> u64 {
        self.buckets
            .iter()
            .flat_map(|b| b.violations.values())
            .sum()
    }
}

/// Per-bucket accumulator used while folding simulation outcomes back
/// into `BucketResult`/`BucketStats` rows.
#[derive(Default)]
struct BucketAccumulator {
    sums: BTreeMap<PolicyKind, f64>,
    abs_sums: BTreeMap<PolicyKind, f64>,
    violations: BTreeMap<PolicyKind, u64>,
    counted: usize,
    build_errors: u64,
    zero_references: u64,
    first_build_error: Option<String>,
    wall_ms: f64,
}

/// Runs the experiment: generates the bucketed workloads, simulates every
/// policy on every set under the scenario's fault plan, and aggregates
/// normalized energies.
///
/// `jobs` bounds the worker-thread pool (`0` = available parallelism).
/// The result is **bit-identical for every `jobs` value** except the
/// timing fields of [`RunStats`]: workloads use one RNG stream per
/// bucket, fault plans key off the set's global index, and sums are
/// folded in set order.
///
/// Task sets where a policy cannot be built (not R-pattern schedulable —
/// excluded by the generator already) or where the reference consumes no
/// energy are skipped and counted in [`RunStats`]. Buckets that end up
/// with no surviving sets are omitted from [`ExperimentResult::buckets`].
pub fn run_experiment_jobs(config: &ExperimentConfig, jobs: usize) -> ExperimentResult {
    run_experiment_observed(config, jobs, &HarnessObs::default())
}

/// [`run_experiment_jobs`] with observability attached: engine events go
/// to `obs.registry` (if any), and per-stage wall times land in
/// [`RunStats::stages`] either way.
///
/// Recording changes **nothing** about the results: counters aggregate
/// commutatively, so even the registry totals are identical for every
/// `jobs` value.
pub fn run_experiment_observed(
    config: &ExperimentConfig,
    jobs: usize,
    obs: &HarnessObs,
) -> ExperimentResult {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock run timing lands in RunStats timing fields only, never in results"
    )]
    let run_start = Instant::now();
    let generate_watch = Stopwatch::start();
    let buckets = generate_buckets_jobs(config.workload, config.plan, config.seed, jobs);
    let generate_ms = generate_watch.elapsed_ms();
    let mut policies = config.policies.clone();
    if !policies.contains(&PolicyKind::Static) {
        policies.push(PolicyKind::Static);
    }
    // Flatten (bucket, set) pairs in bucket order. A set's position in
    // this list equals the running counter the serial loop used, so the
    // per-set fault plans are unchanged.
    let mut work: Vec<(usize, u64, &TaskSet)> = Vec::new();
    for (bucket_index, bucket) in buckets.iter().enumerate() {
        for ts in &bucket.sets {
            work.push((bucket_index, work.len() as u64, ts));
        }
    }
    // One boxed handle per registry shard, built up front so the hot
    // closure only clones `Arc`s (no per-set allocation).
    let handles: Vec<Arc<dyn Recorder>> = match &obs.registry {
        Some(registry) => (0..registry.shard_count())
            .map(|shard| Arc::new(registry.handle_at(shard)) as Arc<dyn Recorder>)
            .collect(),
        None => Vec::new(),
    };
    let outcomes = par::map_indexed(jobs, &work, |index, &(bucket_index, set_index, ts)| {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-set wall timing lands in BucketStats::wall_ms, a timing field, never in results"
        )]
        let set_start = Instant::now();
        let recorder = if handles.is_empty() {
            None
        } else {
            Some(&handles[index % handles.len()])
        };
        let (outcome, timing) = simulate_set(
            ts,
            &policies,
            config,
            config.fault_plan(set_index),
            recorder,
        );
        let elapsed_ms = set_start.elapsed().as_secs_f64() * 1e3;
        (bucket_index, outcome, elapsed_ms, timing)
    });

    // Fold in work order — the summation order (and therefore every
    // float result) matches the serial loop exactly.
    let fold_watch = Stopwatch::start();
    let mut stage_build_ms = 0.0;
    let mut stage_simulate_ms = 0.0;
    let mut accs: Vec<BucketAccumulator> = Vec::with_capacity(buckets.len());
    accs.resize_with(buckets.len(), BucketAccumulator::default);
    for (bucket_index, outcome, elapsed_ms, timing) in outcomes {
        let acc = &mut accs[bucket_index];
        acc.wall_ms += elapsed_ms;
        stage_build_ms += timing.build_ms;
        stage_simulate_ms += timing.simulate_ms;
        match outcome {
            SetOutcome::Row(row) => {
                acc.counted += 1;
                for (kind, (norm, abs, viol)) in row {
                    *acc.sums.entry(kind).or_default() += norm;
                    *acc.abs_sums.entry(kind).or_default() += abs;
                    *acc.violations.entry(kind).or_default() += viol;
                }
            }
            SetOutcome::BuildError(message) => {
                acc.build_errors += 1;
                acc.first_build_error.get_or_insert(message);
            }
            SetOutcome::ZeroReference => acc.zero_references += 1,
        }
    }

    let mut results = Vec::with_capacity(buckets.len());
    let mut stats = RunStats {
        buckets_planned: buckets.len(),
        buckets: Vec::with_capacity(buckets.len()),
        ..RunStats::empty(par::effective_jobs(jobs))
    };
    for (bucket, acc) in buckets.iter().zip(accs) {
        stats.sets_simulated += acc.counted as u64;
        stats.sets_generated += bucket.generated;
        stats.skipped_build_errors += acc.build_errors;
        stats.skipped_zero_reference += acc.zero_references;
        for (&kind, &count) in &acc.violations {
            *stats.violations.entry(kind).or_default() += count;
        }
        stats.buckets.push(BucketStats {
            midpoint: bucket.midpoint(),
            wall_ms: acc.wall_ms,
            sets_simulated: acc.counted,
            sets_generated: bucket.generated,
            skipped_build_errors: acc.build_errors,
            skipped_zero_reference: acc.zero_references,
            first_build_error: acc.first_build_error,
        });
        if acc.counted == 0 {
            // No surviving set: omitting the bucket beats publishing a
            // row of empty maps that panics every `normalized[&kind]`
            // consumer downstream.
            stats.empty_buckets += 1;
            continue;
        }
        let normalized = acc
            .sums
            .iter()
            .map(|(&k, &v)| (k, v / acc.counted as f64))
            .collect();
        let absolute = acc
            .abs_sums
            .iter()
            .map(|(&k, &v)| (k, v / acc.counted as f64))
            .collect();
        results.push(BucketResult {
            midpoint: bucket.midpoint(),
            sets: acc.counted,
            generated: bucket.generated,
            normalized,
            absolute,
            violations: acc.violations,
        });
    }
    stats.stages = StageTimes {
        generate_ms,
        build_ms: stage_build_ms,
        simulate_ms: stage_simulate_ms,
        fold_ms: fold_watch.elapsed_ms(),
    };
    stats.wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    let total_sims = stats.sets_simulated as f64 * policies.len() as f64;
    stats.sims_per_second = if stats.wall_ms > 0.0 {
        total_sims / (stats.wall_ms / 1e3)
    } else {
        0.0
    };
    ExperimentResult {
        config: config.clone(),
        buckets: results,
        stats,
    }
}

/// Captures one representative run of `config` through the flight
/// recorder: the first schedulable set at the plan's middle utilization,
/// simulated under the first buildable policy with the set-0 fault plan.
///
/// A pure function of the config — repeated calls return buffers with
/// identical contents — so harness trace exports are deterministic. An
/// empty buffer is returned when no set can be generated or no policy
/// applies; exporters render it as an empty track.
pub fn trace_representative(config: &ExperimentConfig) -> TraceBuffer {
    let tracer = TraceRecorder::new(TraceBuffer::with_capacity(DEFAULT_TRACE_CAPACITY), None);
    let midpoint = (config.plan.from + config.plan.to) / 2.0;
    let Some(ts) = Generator::new(config.workload, config.seed).schedulable_set(midpoint) else {
        return tracer.take();
    };
    let build_opts = BuildOptions::default();
    let Some(mut policy) = config
        .policies
        .iter()
        .find_map(|kind| kind.build(&ts, &build_opts).ok())
    else {
        return tracer.take();
    };
    let sim_config = SimConfig::builder()
        .horizon(config.horizon)
        .power(config.power)
        .faults(config.fault_plan(0))
        .build();
    let tracer = Arc::new(tracer);
    let mut ws = workspace_pool().checkout();
    ws.set_recorder(Some(Arc::clone(&tracer) as Arc<dyn Recorder>));
    simulate_in(&mut ws, &ts, policy.as_mut(), &sim_config);
    drop(ws);
    tracer.take()
}

/// Mean-and-spread of one quantity across replications.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Spread {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replication).
    pub std: f64,
}

impl Spread {
    /// Mean and sample standard deviation of `values`; `None` for an
    /// empty slice (previously this fabricated a `mean` of `0.0`).
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Some(Spread {
            mean,
            std: var.sqrt(),
        })
    }
}

/// Per-bucket, per-policy mean ± std of the normalized energy across
/// independent replications of one experiment (replication `r` runs
/// [`ExperimentConfig::replication`]`(r)`, which regenerates workloads
/// and fault plans from a distinct master seed).
#[derive(Debug, Clone, Serialize)]
pub struct ReplicatedResult {
    /// The base configuration (its seed is the first replication's).
    pub config: ExperimentConfig,
    /// Replications run.
    pub replications: usize,
    /// Bucket midpoints (same order as the rows). A midpoint appears as
    /// soon as **any** replication produced data for it.
    pub midpoints: Vec<f64>,
    /// `spreads[bucket][policy]`. A policy is absent from a bucket's map
    /// when no replication produced data for that pair.
    pub spreads: Vec<BTreeMap<PolicyKind, Spread>>,
    /// Total violations across every run of every replication.
    pub total_violations: u64,
    /// Combined observability counters of all replications.
    pub stats: RunStats,
}

impl ReplicatedResult {
    /// Aggregates the runs of every replication, in replication order,
    /// into per-bucket normalized-energy spreads. A pure function of
    /// `runs`.
    ///
    /// Buckets are matched **by midpoint**, not position, so a replication
    /// whose low-utilization bucket came up empty cannot shift later
    /// buckets' statistics onto the wrong row.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    ///
    /// ```
    /// use mkss_bench::experiment::{run_experiment_jobs, ExperimentConfig, ReplicatedResult, Scenario};
    /// use mkss_core::time::Time;
    /// use mkss_policies::PolicyKind;
    ///
    /// let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
    /// cfg.plan.sets_per_bucket = 2;
    /// cfg.plan.from = 0.3;
    /// cfg.plan.to = 0.4;
    /// cfg.horizon = Time::from_ms(200);
    /// let runs: Vec<_> = (0..3)
    ///     .map(|r| run_experiment_jobs(&cfg.replication(r), 0))
    ///     .collect();
    /// let result = ReplicatedResult::of(&runs);
    /// assert_eq!(result.replications, 3);
    /// for bucket in &result.spreads {
    ///     if let Some(sel) = bucket.get(&PolicyKind::Selective) {
    ///         assert!(sel.mean > 0.0 && sel.std >= 0.0);
    ///     }
    /// }
    /// ```
    pub fn of(runs: &[ExperimentResult]) -> ReplicatedResult {
        let first = runs.first().expect("need at least one replication");
        let config = &first.config;
        // Key buckets by midpoint bits (midpoints are positive, so the bit
        // order equals the numeric order in the BTreeMap).
        let mut per_midpoint: BTreeMap<u64, BTreeMap<PolicyKind, Vec<f64>>> = BTreeMap::new();
        let mut total_violations = 0;
        let mut stats = RunStats::empty(first.stats.jobs);
        for result in runs {
            total_violations += result.total_violations();
            stats.absorb(&result.stats);
            for bucket in &result.buckets {
                let slot = per_midpoint.entry(bucket.midpoint.to_bits()).or_default();
                for (&kind, &value) in &bucket.normalized {
                    slot.entry(kind).or_default().push(value);
                }
            }
        }
        let mut policy_count = config.policies.len();
        if !config.policies.contains(&PolicyKind::Static) {
            policy_count += 1;
        }
        stats.sims_per_second = if stats.wall_ms > 0.0 {
            stats.sets_simulated as f64 * policy_count as f64 / (stats.wall_ms / 1e3)
        } else {
            0.0
        };
        let mut midpoints = Vec::with_capacity(per_midpoint.len());
        let mut spreads = Vec::with_capacity(per_midpoint.len());
        for (bits, policies) in per_midpoint {
            midpoints.push(f64::from_bits(bits));
            spreads.push(
                policies
                    .into_iter()
                    .filter_map(|(k, values)| Spread::of(&values).map(|s| (k, s)))
                    .collect(),
            );
        }
        ReplicatedResult {
            config: config.clone(),
            replications: runs.len(),
            midpoints,
            spreads,
            total_violations,
            stats,
        }
    }
}

/// What happened to one task set's simulation.
enum SetOutcome {
    /// Per-policy (normalized, absolute, violations).
    Row(BTreeMap<PolicyKind, (f64, f64, u64)>),
    /// A policy could not be built for the set; the whole set is dropped
    /// (comparing the remaining policies on it would be unfair) but the
    /// drop is counted and its reason surfaced instead of silently
    /// discarded.
    BuildError(String),
    /// The `MKSS_ST` reference consumed no energy, so normalization is
    /// undefined.
    ZeroReference,
}

/// Process-wide simulation arena pool shared by every experiment run.
/// Replaces the old per-thread `thread_local!` arenas: a worker checks
/// an arena out per set and returns it on drop, so capacity grown by one
/// run is reused by the next no matter which thread picks it up — and
/// the pool is inspectable/pre-warmable where a thread-local never was.
fn workspace_pool() -> &'static WorkspacePool {
    static POOL: std::sync::OnceLock<WorkspacePool> = std::sync::OnceLock::new();
    POOL.get_or_init(WorkspacePool::new)
}

/// Per-set stage timing (analysis/build vs. simulation proper).
#[derive(Debug, Clone, Copy, Default)]
struct SetTiming {
    build_ms: f64,
    simulate_ms: f64,
}

/// Simulates all policies on one set (inside an arena checked out of the
/// shared pool), optionally reporting engine events to `recorder`.
fn simulate_set(
    ts: &TaskSet,
    policies: &[PolicyKind],
    config: &ExperimentConfig,
    faults: FaultConfig,
    recorder: Option<&Arc<dyn Recorder>>,
) -> (SetOutcome, SetTiming) {
    let sim_config = SimConfig::builder()
        .horizon(config.horizon)
        .power(config.power)
        .faults(faults)
        .build();
    let build_opts = BuildOptions::default();
    let mut timing = SetTiming::default();
    let mut energies: BTreeMap<PolicyKind, (f64, u64)> = BTreeMap::new();
    // One checkout covers every policy on this set; the guard returns the
    // arena (recorder detached) when the set is done.
    let mut ws = workspace_pool().checkout();
    ws.set_recorder(recorder.cloned());
    for &kind in policies {
        let build_watch = Stopwatch::start();
        let mut policy = match kind.build(ts, &build_opts) {
            Ok(policy) => policy,
            Err(error) => {
                timing.build_ms += build_watch.elapsed_ms();
                return (SetOutcome::BuildError(format!("{kind}: {error}")), timing);
            }
        };
        timing.build_ms += build_watch.elapsed_ms();
        let simulate_watch = Stopwatch::start();
        let report = simulate_in(&mut ws, ts, policy.as_mut(), &sim_config);
        timing.simulate_ms += simulate_watch.elapsed_ms();
        energies.insert(
            kind,
            (
                report.total_energy().units(),
                report.violations.len() as u64,
            ),
        );
    }
    let Some(&(reference, _)) = energies.get(&PolicyKind::Static) else {
        return (
            SetOutcome::BuildError("reference MKSS_ST was not simulated".to_string()),
            timing,
        );
    };
    if reference <= 0.0 {
        return (SetOutcome::ZeroReference, timing);
    }
    (
        SetOutcome::Row(
            energies
                .into_iter()
                .map(|(k, (e, v))| (k, (e / reference, e, v)))
                .collect(),
        ),
        timing,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(scenario: Scenario) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::fig6(scenario);
        cfg.plan.sets_per_bucket = 3;
        cfg.plan.from = 0.2;
        cfg.plan.to = 0.6;
        cfg.horizon = Time::from_ms(400);
        cfg
    }

    #[test]
    fn representative_trace_is_deterministic_and_nonempty() {
        let cfg = quick_config(Scenario::Combined);
        let first = trace_representative(&cfg);
        let second = trace_representative(&cfg);
        assert!(!first.is_empty(), "representative run captured no events");
        assert!(
            first.iter().eq(second.iter()),
            "same config must capture the same stream"
        );
    }

    #[test]
    fn scenario_parsing() {
        assert_eq!("no-fault".parse::<Scenario>().unwrap(), Scenario::NoFault);
        assert_eq!("combined".parse::<Scenario>().unwrap(), Scenario::Combined);
        assert!("x".parse::<Scenario>().is_err());
        assert_eq!(Scenario::Permanent.panel(), "Fig. 6(b)");
    }

    #[test]
    fn fault_plans_deterministic_and_scenario_appropriate() {
        let cfg = quick_config(Scenario::Permanent);
        let a = cfg.fault_plan(3);
        let b = cfg.fault_plan(3);
        assert_eq!(a, b);
        assert!(a.permanent.is_some());
        assert_eq!(a.transient_rate_per_ms, 0.0);
        let c = quick_config(Scenario::Combined).fault_plan(3);
        assert!(c.transient_rate_per_ms > 0.0);
        assert!(quick_config(Scenario::NoFault)
            .fault_plan(3)
            .permanent
            .is_none());
    }

    #[test]
    fn no_fault_ordering_matches_paper() {
        let result = run_experiment_jobs(&quick_config(Scenario::NoFault), 0);
        assert_eq!(result.total_violations(), 0);
        for bucket in &result.buckets {
            assert!(bucket.sets > 0, "bucket {} empty", bucket.midpoint);
            let st = bucket.normalized[&PolicyKind::Static];
            let dp = bucket.normalized[&PolicyKind::DualPriority];
            let sel = bucket.normalized[&PolicyKind::Selective];
            assert!((st - 1.0).abs() < 1e-9);
            assert!(dp <= st + 1e-9, "DP {dp} vs ST {st} at {}", bucket.midpoint);
            assert!(
                sel <= st + 1e-9,
                "selective {sel} vs ST at {}",
                bucket.midpoint
            );
            // Selective and DP track each other within a band; see
            // EXPERIMENTS.md for the measured crossover.
            assert!(
                (sel - dp).abs() <= 0.15,
                "selective {sel} vs DP {dp} diverged at {}",
                bucket.midpoint
            );
        }
    }

    #[test]
    fn permanent_fault_scenario_keeps_guarantee() {
        let result = run_experiment_jobs(&quick_config(Scenario::Permanent), 0);
        assert_eq!(result.total_violations(), 0);
    }

    #[test]
    fn combined_scenario_keeps_guarantee() {
        let result = run_experiment_jobs(&quick_config(Scenario::Combined), 0);
        assert_eq!(result.total_violations(), 0);
    }

    #[test]
    fn parallel_runs_are_bit_identical_to_serial() {
        let mut cfg = quick_config(Scenario::Combined);
        cfg.plan.to = 0.5;
        cfg.horizon = Time::from_ms(200);
        let mut serial = run_experiment_jobs(&cfg, 1);
        serial.stats.strip_timing();
        let serial_json = serde_json::to_string(&serial).unwrap();
        for jobs in [0, 2, 5] {
            let mut parallel = run_experiment_jobs(&cfg, jobs);
            parallel.stats.strip_timing();
            let parallel_json = serde_json::to_string(&parallel).unwrap();
            assert_eq!(
                parallel_json, serial_json,
                "jobs={jobs} diverged from serial"
            );
        }
    }

    #[test]
    fn unfillable_bucket_is_omitted_not_panicking() {
        let mut cfg = quick_config(Scenario::NoFault);
        cfg.plan.from = 0.2;
        cfg.plan.to = 0.4;
        cfg.plan.max_generated = 0; // the generator can never fill a bucket
        let result = run_experiment_jobs(&cfg, 0);
        assert!(result.buckets.is_empty());
        assert_eq!(result.stats.buckets_planned, 2);
        assert_eq!(result.stats.empty_buckets, 2);
        assert_eq!(result.stats.sets_simulated, 0);
        assert!(result
            .max_reduction_pct(PolicyKind::Selective, PolicyKind::DualPriority)
            .is_none());
        assert!(result.mean_normalized(PolicyKind::Selective).is_nan());
    }

    #[test]
    fn replicated_handles_all_empty_buckets() {
        let mut cfg = quick_config(Scenario::NoFault);
        cfg.plan.max_generated = 0;
        let runs: Vec<_> = (0..2)
            .map(|r| run_experiment_jobs(&cfg.replication(r), 0))
            .collect();
        let result = ReplicatedResult::of(&runs);
        assert_eq!(result.replications, 2);
        assert!(result.midpoints.is_empty());
        assert!(result.spreads.is_empty());
        assert_eq!(result.total_violations, 0);
        assert_eq!(result.stats.empty_buckets, result.stats.buckets_planned);
    }

    #[test]
    fn replication_zero_is_the_single_run() {
        let cfg = quick_config(Scenario::Combined);
        let mut single = run_experiment_jobs(&cfg, 1);
        single.stats.strip_timing();
        let mut rep0 = run_experiment_jobs(&cfg.replication(0), 2);
        rep0.stats.strip_timing();
        assert_eq!(
            serde_json::to_string(&rep0).unwrap(),
            serde_json::to_string(&single).unwrap()
        );
        assert_ne!(cfg.replication(1).seed, cfg.seed);
    }

    #[test]
    fn run_stats_counters_are_consistent() {
        let result = run_experiment_jobs(&quick_config(Scenario::NoFault), 0);
        let stats = &result.stats;
        assert_eq!(stats.buckets_planned, stats.buckets.len());
        assert_eq!(
            stats.buckets_planned - stats.empty_buckets,
            result.buckets.len()
        );
        assert_eq!(
            stats.sets_simulated,
            result.buckets.iter().map(|b| b.sets as u64).sum::<u64>()
        );
        assert_eq!(
            stats.sets_generated,
            stats.buckets.iter().map(|b| b.sets_generated).sum::<u64>()
        );
        assert_eq!(
            stats.violations.values().sum::<u64>(),
            result.total_violations()
        );
        assert!(stats.wall_ms > 0.0);
        assert!(stats.summary().contains("sets simulated"));
    }

    #[test]
    fn build_failures_are_reported_not_silently_dropped() {
        use mkss_core::task::Task;
        // τ2's response time (8 + interference from τ1's 4 ms mandatory
        // jobs) exceeds its 10 ms deadline, so no policy can be built.
        let ts = TaskSet::new(vec![
            Task::from_ms(5, 5, 4, 3, 4).unwrap(),
            Task::from_ms(10, 10, 8, 3, 4).unwrap(),
        ])
        .unwrap();
        let cfg = quick_config(Scenario::NoFault);
        let (outcome, _) = simulate_set(
            &ts,
            &[PolicyKind::Selective],
            &cfg,
            FaultConfig::none(),
            None,
        );
        match outcome {
            SetOutcome::BuildError(message) => {
                assert!(
                    message.contains("selective"),
                    "unexpected message: {message}"
                );
            }
            _ => panic!("expected a build error for an unschedulable set"),
        }
    }

    #[test]
    fn spread_of_empty_is_none() {
        assert!(Spread::of(&[]).is_none());
        let s = Spread::of(&[2.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn stage_times_are_populated_and_stripped() {
        let mut result = run_experiment_jobs(&quick_config(Scenario::NoFault), 0);
        let stages = result.stats.stages;
        assert!(stages.simulate_ms > 0.0, "{stages:?}");
        assert!(stages.build_ms > 0.0, "{stages:?}");
        assert!(stages.generate_ms >= 0.0 && stages.fold_ms >= 0.0);
        assert!(stages.total_ms() > 0.0);
        result.stats.strip_timing();
        assert_eq!(result.stats.stages, StageTimes::default());
    }

    #[test]
    fn observed_run_matches_unobserved_and_counters_are_jobs_invariant() {
        use mkss_obs::CounterId;
        let cfg = quick_config(Scenario::Combined);
        let mut plain = run_experiment_jobs(&cfg, 1);
        plain.stats.strip_timing();
        let plain_json = serde_json::to_string(&plain).unwrap();
        let mut reference_snapshot = None;
        for jobs in [1usize, 3] {
            let registry = Arc::new(Registry::new(par::effective_jobs(jobs)));
            let obs = HarnessObs {
                registry: Some(Arc::clone(&registry)),
            };
            let mut observed = run_experiment_observed(&cfg, jobs, &obs);
            observed.stats.strip_timing();
            assert_eq!(
                serde_json::to_string(&observed).unwrap(),
                plain_json,
                "recording changed the results (jobs={jobs})"
            );
            let snapshot = registry.snapshot();
            assert_eq!(
                snapshot.counter(CounterId::JobsMet) + snapshot.counter(CounterId::JobsMissed),
                snapshot.counter(CounterId::JobsReleased),
                "released jobs must all resolve"
            );
            assert!(snapshot.counter(CounterId::JobsReleased) > 0);
            match &reference_snapshot {
                None => reference_snapshot = Some(snapshot),
                Some(reference) => assert_eq!(
                    reference, &snapshot,
                    "registry totals diverged across jobs values"
                ),
            }
        }
    }
}
