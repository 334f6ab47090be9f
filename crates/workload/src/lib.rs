//! # mkss-workload
//!
//! Random (m,k)-firm task-set generation replicating the evaluation setup
//! of *Niu & Zhu, DATE 2020*, Section V:
//!
//! * 5 to 10 tasks per set;
//! * periods uniform in `[5, 50] ms`;
//! * `k_i` uniform in `[2, 20]`, `m_i` uniform in `(0, k_i)`;
//! * WCETs uniformly distributed and scaled so the total
//!   (m,k)-utilization `Σ mᵢCᵢ/(kᵢPᵢ)` hits a target value;
//! * the (m,k)-utilization axis divided into intervals of width 0.1, each
//!   populated with at least 20 task sets *schedulable under the
//!   R-pattern* or abandoned after 5000 generated sets.
//!
//! Generation is fully deterministic given the seed.
//!
//! ## Example
//!
//! ```
//! use mkss_workload::{Generator, WorkloadConfig};
//!
//! let mut generator = Generator::new(WorkloadConfig::paper(), 42);
//! let ts = generator.schedulable_set(0.45).expect("0.45 is feasible");
//! assert!((ts.mk_utilization() - 0.45).abs() < 0.01);
//! assert!(mkss_analysis::rta::is_schedulable_r_pattern(&ts));
//! ```

#![forbid(unsafe_code)]

use mkss_analysis::rta::{first_job_meets, is_schedulable_r_pattern};
use mkss_core::mk::MkConstraint;
use mkss_core::task::{Task, TaskSet};
use mkss_core::time::{Time, TICKS_PER_MS};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How worst-case execution times are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed variant set: the two WCET draws the experiments compare; generators match exhaustively"
)]
pub enum WcetModel {
    /// Uniform random weights scaled so the set's (m,k)-utilization hits
    /// the requested target exactly. Efficient (every draw lands in its
    /// bucket) and produces "balanced" sets.
    Scaled,
    /// WCETs drawn uniformly in `(0, D]`, as the paper's Section V
    /// describes ("the worst case execution time of a task was assumed
    /// to be uniformly distributed"); sets are then *binned* by their
    /// resulting (m,k)-utilization. Matches the paper's generation
    /// procedure; full utilizations are much higher at equal
    /// (m,k)-utilization, which is what starves the dual-priority
    /// baseline of promotion slack.
    #[default]
    UniformRaw,
}

/// Parameters of the random task-set generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Minimum number of tasks per set.
    pub tasks_min: usize,
    /// Maximum number of tasks per set (inclusive).
    pub tasks_max: usize,
    /// Period range in whole milliseconds (inclusive).
    pub period_ms: (u64, u64),
    /// Range of `k` (inclusive); `m` is uniform in `1..k`.
    pub k_range: (u32, u32),
    /// Cap on generation attempts per requested set before giving up.
    pub max_attempts: u32,
    /// WCET drawing model.
    pub wcet_model: WcetModel,
}

impl WorkloadConfig {
    /// The paper's Section V parameters.
    pub fn paper() -> Self {
        WorkloadConfig {
            tasks_min: 5,
            tasks_max: 10,
            period_ms: (5, 50),
            k_range: (2, 20),
            max_attempts: 5_000,
            wcet_model: WcetModel::UniformRaw,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper()
    }
}

/// A deterministic random task-set generator.
#[derive(Debug, Clone)]
pub struct Generator {
    config: WorkloadConfig,
    rng: ChaCha8Rng,
    /// Per-task draws of the set being generated, one buffer reused
    /// across calls in place of per-draw temporaries.
    draws: Vec<Draw>,
    /// The candidate's tasks, in draw order but for the one the period
    /// sort puts last, which is moved to the end; reused across calls.
    tasks: Vec<Task>,
}

/// One task's random parameters, before its WCET is scaled.
#[derive(Debug, Clone, Copy)]
struct Draw {
    period_ms: u64,
    mk: MkConstraint,
    /// The task's unnormalized (m,k)-utilization share.
    share_weight: f64,
}

impl Generator {
    /// Creates a generator with the given config and seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        Generator {
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            draws: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Generates one raw task set with total (m,k)-utilization
    /// `target_util` (no schedulability filtering). Returns `None` if the
    /// drawn parameters cannot realize the target (e.g. a WCET would
    /// exceed its deadline); callers typically just retry.
    ///
    /// WCETs are drawn via uniform random weights (the "uniformly
    /// distributed WCET" of Section V) and scaled so that
    /// `Σ mᵢCᵢ/(kᵢPᵢ) = target_util` exactly (up to tick rounding).
    /// Deadlines equal periods (the paper's examples use `D ≤ P`; its
    /// generator does not mention separate deadlines).
    ///
    /// # Panics
    ///
    /// Panics if `target_util` is not in `(0, 1]`.
    pub fn raw_set(&mut self, target_util: f64) -> Option<TaskSet> {
        self.draw_candidate(target_util)?;
        self.take_set()
    }

    /// Generates one raw task set with a target (m,k)-utilization drawn
    /// uniformly from `[lo, hi)` — the per-bucket draw of Section V.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or outside `(0, 1]`.
    pub fn raw_set_in(&mut self, lo: f64, hi: f64) -> Option<TaskSet> {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        let target = self.rng.gen_range(lo..hi);
        self.raw_set(target)
    }

    /// Generates a task set with `target_util` that passes the R-pattern
    /// schedulability test, retrying up to
    /// [`WorkloadConfig::max_attempts`] times.
    ///
    /// # Panics
    ///
    /// Panics if `target_util` is not in `(0, 1]`.
    pub fn schedulable_set(&mut self, target_util: f64) -> Option<TaskSet> {
        (0..self.config.max_attempts).find_map(|_| self.schedulable_candidate(target_util))
    }

    /// One attempt of the R-pattern filter: [`Generator::raw_set`] if the
    /// set it draws is schedulable under the R-pattern, else `None`. The
    /// RNG advances exactly as in `raw_set`.
    ///
    /// Most attempts in the high-utilization buckets fail, and almost all
    /// fail the first test [`is_schedulable_r_pattern`] makes: the first
    /// job of the lowest-priority task. That test runs here on the unsorted
    /// draw, so a rejected candidate is never sorted or copied into a
    /// [`TaskSet`]; a candidate that passes gets the full verdict.
    fn schedulable_candidate(&mut self, target_util: f64) -> Option<TaskSet> {
        // Move the task the period sort puts last to the end with a
        // rotate, not a swap: the others keep their draw order, so the
        // stable sort below still yields the draw's priority order.
        let last = self.draw_candidate(target_util)?;
        self.tasks[last..].rotate_left(1);
        if !first_job_meets(&self.tasks) {
            return None;
        }
        self.take_set().filter(is_schedulable_r_pattern)
    }

    /// Draws one candidate into `self.tasks`, in draw order, and returns
    /// the index of the task the period sort puts last (the largest
    /// period, the last drawn among ties), or `None` if the draw cannot
    /// realize `target_util` or has no task.
    fn draw_candidate(&mut self, target_util: f64) -> Option<usize> {
        assert!(
            target_util > 0.0 && target_util <= 1.0,
            "target (m,k)-utilization must be in (0, 1], got {target_util}"
        );
        let n = self
            .rng
            .gen_range(self.config.tasks_min..=self.config.tasks_max);
        self.draws.clear();
        for _ in 0..n {
            let period_ms = self
                .rng
                .gen_range(self.config.period_ms.0..=self.config.period_ms.1);
            let k = self
                .rng
                .gen_range(self.config.k_range.0..=self.config.k_range.1);
            let m = self.rng.gen_range(1..k);
            let weight: f64 = self.rng.gen_range(0.05..1.0);
            let share_weight = match self.config.wcet_model {
                // Shares proportional to the raw weights.
                WcetModel::Scaled => weight,
                // C ~ U(0, P] (the weight is the fraction of the period),
                // then everything is rescaled uniformly: the WCET
                // *composition* is the paper's uniform draw.
                WcetModel::UniformRaw => f64::from(m) / f64::from(k) * weight,
            };
            #[expect(
                clippy::expect_used,
                reason = "m is drawn from gen_range(1..k), so 1 ≤ m < k always holds"
            )]
            let mk = MkConstraint::new(m, k).expect("1 <= m < k by construction");
            self.draws.push(Draw {
                period_ms,
                mk,
                share_weight,
            });
        }
        // Normalize the shares so the set's total hits `target_util`.
        let sum = mkss_core::fold::sum_f64_by(&self.draws, |d| d.share_weight);
        self.tasks.clear();
        let mut last = 0;
        for d in &self.draws {
            let share = target_util * (d.share_weight / sum);
            // C = share * (k/m) * P.
            let c_ms = share * f64::from(d.mk.k()) / f64::from(d.mk.m()) * d.period_ms as f64;
            let c_ticks = (c_ms * TICKS_PER_MS as f64).round() as u64;
            if c_ticks == 0 {
                return None;
            }
            let period = Time::from_ms(d.period_ms);
            let wcet = Time::from_ticks(c_ticks);
            if wcet > period {
                return None;
            }
            let task = Task::with_constraint(period, period, wcet, d.mk).ok()?;
            if self
                .tasks
                .get(last)
                .is_some_and(|t| t.period() <= task.period())
            {
                last = self.tasks.len();
            }
            self.tasks.push(task);
        }
        (!self.tasks.is_empty()).then_some(last)
    }

    /// The drawn candidate as a [`TaskSet`]. Priority = index order, sorted
    /// by period for a rate-monotonic-like assignment (the paper assumes
    /// priorities are given).
    fn take_set(&mut self) -> Option<TaskSet> {
        self.tasks.sort_by_key(Task::period);
        TaskSet::new(self.tasks.clone()).ok()
    }
}

/// One (m,k)-utilization interval of the evaluation's x-axis, populated
/// with schedulable task sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound of the interval.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
    /// Schedulable task sets with (m,k)-utilization inside the interval.
    pub sets: Vec<TaskSet>,
    /// Total sets generated (schedulable or not) while filling the
    /// bucket.
    pub generated: u64,
}

impl Bucket {
    /// Midpoint of the interval (the x-coordinate used in plots).
    pub fn midpoint(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Configuration for [`generate_buckets`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketPlan {
    /// Lower bound of the first bucket.
    pub from: f64,
    /// Upper bound of the last bucket.
    pub to: f64,
    /// Bucket width (the paper uses 0.1).
    pub width: f64,
    /// Schedulable sets wanted per bucket (the paper uses ≥ 20).
    pub sets_per_bucket: usize,
    /// Generation cap per bucket (the paper uses 5000).
    pub max_generated: u64,
}

impl Default for BucketPlan {
    /// The paper's plan: width-0.1 intervals over `[0.1, 0.9)` with 20
    /// schedulable sets or 5000 attempts each.
    fn default() -> Self {
        BucketPlan {
            from: 0.1,
            to: 0.9,
            width: 0.1,
            sets_per_bucket: 20,
            max_generated: 5_000,
        }
    }
}

/// Fills every interval of `plan` with schedulable task sets, drawing the
/// target utilization uniformly inside each interval (Section V's
/// bucketing procedure). Deterministic given `seed`.
///
/// ```
/// use mkss_workload::{generate_buckets, BucketPlan, WorkloadConfig};
///
/// let plan = BucketPlan { sets_per_bucket: 3, ..BucketPlan::default() };
/// let buckets = generate_buckets(WorkloadConfig::paper(), plan, 7);
/// assert_eq!(buckets.len(), 8); // [0.1,0.2) … [0.8,0.9)
/// for b in &buckets {
///     for ts in &b.sets {
///         let u = ts.mk_utilization();
///         assert!(u >= b.lo - 0.01 && u < b.hi + 0.01);
///     }
/// }
/// ```
pub fn generate_buckets(config: WorkloadConfig, plan: BucketPlan, seed: u64) -> Vec<Bucket> {
    generate_buckets_jobs(config, plan, seed, 1)
}

/// The interval bounds `[lo, hi)` of every bucket in `plan`, in order.
#[must_use]
pub fn bucket_bounds(plan: BucketPlan) -> Vec<(f64, f64)> {
    let mut bounds = Vec::new();
    let mut lo = plan.from;
    while lo + plan.width <= plan.to + 1e-9 {
        bounds.push((lo, lo + plan.width));
        lo += plan.width;
    }
    bounds
}

/// [`generate_buckets`] with the buckets filled in parallel by up to
/// `jobs` worker threads (`0` = available parallelism). Each bucket draws
/// from its own seed-derived RNG stream, so the output is bit-identical
/// to the serial path for any worker count.
pub fn generate_buckets_jobs(
    config: WorkloadConfig,
    plan: BucketPlan,
    seed: u64,
    jobs: usize,
) -> Vec<Bucket> {
    let bounds = bucket_bounds(plan);
    mkss_core::par::map_indexed(jobs, &bounds, |bucket_index, &(lo, hi)| {
        // Independent stream per bucket so buckets are stable regardless
        // of how many attempts earlier buckets consumed.
        let mut generator =
            Generator::new(config, seed.wrapping_add(bucket_index as u64 * 0x9e37_79b9));
        let mut sets = Vec::new();
        let mut generated = 0u64;
        while sets.len() < plan.sets_per_bucket && generated < plan.max_generated {
            let target = generator.rng.gen_range(lo..hi);
            generated += 1;
            sets.extend(generator.schedulable_candidate(target));
        }
        Bucket {
            lo,
            hi,
            sets,
            generated,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_set_hits_target_utilization() {
        let mut g = Generator::new(WorkloadConfig::paper(), 1);
        for target in [0.2, 0.45, 0.7] {
            let mut found = 0;
            for _ in 0..50 {
                if let Some(ts) = g.raw_set(target) {
                    assert!(
                        (ts.mk_utilization() - target).abs() < 0.01,
                        "target {target}, got {}",
                        ts.mk_utilization()
                    );
                    found += 1;
                }
            }
            assert!(found > 30, "too many rejections at {target}");
        }
    }

    #[test]
    fn raw_set_respects_parameter_ranges() {
        let mut g = Generator::new(WorkloadConfig::paper(), 2);
        let ts = loop {
            if let Some(ts) = g.raw_set(0.5) {
                break ts;
            }
        };
        assert!(ts.len() >= 5 && ts.len() <= 10);
        for t in &ts {
            let p_ms = t.period().ticks() / 1000;
            assert!((5..=50).contains(&p_ms));
            assert!((2..=20).contains(&t.mk().k()));
            assert!(t.mk().m() < t.mk().k());
            assert!(t.wcet() <= t.deadline());
            assert_eq!(t.deadline(), t.period());
        }
        // Priorities sorted by period.
        let periods: Vec<_> = ts.iter().map(|(_, t)| t.period()).collect();
        let mut sorted = periods.clone();
        sorted.sort();
        assert_eq!(periods, sorted);
    }

    #[test]
    fn a_surviving_set_keeps_the_period_sort_of_its_draw_on_tied_periods() {
        let mut g = Generator::new(WorkloadConfig::paper(), 4);
        let mut tied = 0;
        while tied < 20 {
            let mut probe = g.clone();
            let survivor = g.schedulable_candidate(0.3);
            let Some(last) = probe.draw_candidate(0.3) else {
                assert!(survivor.is_none());
                continue;
            };
            let mut expected = probe.tasks.clone();
            let max = expected[last].period();
            let at_max: Vec<Task> = expected
                .iter()
                .filter(|t| t.period() == max)
                .copied()
                .collect();
            expected.sort_by_key(Task::period);
            let Some(ts) = survivor else { continue };
            assert_eq!(ts.tasks(), expected);
            // Two tied tasks that differ: a wrong pick among them would
            // change the order.
            if at_max.len() > 1 && at_max.windows(2).all(|w| w[0] != w[1]) {
                assert_eq!(ts.tasks().last(), at_max.last());
                tied += 1;
            }
        }
    }

    #[test]
    fn a_draw_without_tasks_is_refused() {
        let empty = WorkloadConfig {
            tasks_min: 0,
            tasks_max: 0,
            ..WorkloadConfig::paper()
        };
        let mut g = Generator::new(empty, 1);
        assert_eq!(g.raw_set(0.5), None);
        assert_eq!(g.schedulable_set(0.5), None);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_target_panics() {
        Generator::new(WorkloadConfig::paper(), 0).raw_set(0.0);
    }

    #[test]
    fn schedulable_set_passes_rta() {
        let mut g = Generator::new(WorkloadConfig::paper(), 3);
        let ts = g.schedulable_set(0.4).unwrap();
        assert!(is_schedulable_r_pattern(&ts));
    }

    #[test]
    fn determinism() {
        let a = Generator::new(WorkloadConfig::paper(), 9).schedulable_set(0.5);
        let b = Generator::new(WorkloadConfig::paper(), 9).schedulable_set(0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn buckets_follow_plan() {
        let plan = BucketPlan {
            sets_per_bucket: 2,
            ..BucketPlan::default()
        };
        let buckets = generate_buckets(WorkloadConfig::paper(), plan, 11);
        assert_eq!(buckets.len(), 8);
        for b in &buckets {
            assert!(b.generated >= b.sets.len() as u64);
            assert!((b.midpoint() - (b.lo + 0.05)).abs() < 1e-9);
            for ts in &b.sets {
                let u = ts.mk_utilization();
                assert!(u >= b.lo - 0.01 && u < b.hi + 0.01);
                assert!(is_schedulable_r_pattern(ts));
            }
        }
        // Low-utilization buckets fill easily.
        assert_eq!(buckets[0].sets.len(), 2);
        assert_eq!(buckets[3].sets.len(), 2);
    }

    #[test]
    fn wcet_models_hit_the_same_target_differently() {
        let scaled = WorkloadConfig {
            wcet_model: WcetModel::Scaled,
            ..WorkloadConfig::paper()
        };
        let raw = WorkloadConfig::paper();
        assert_eq!(raw.wcet_model, WcetModel::UniformRaw);
        for (cfg, name) in [(scaled, "scaled"), (raw, "raw")] {
            let mut g = Generator::new(cfg, 5);
            let mut hits = 0;
            for _ in 0..30 {
                if let Some(ts) = g.raw_set(0.4) {
                    assert!((ts.mk_utilization() - 0.4).abs() < 0.01, "{name}");
                    hits += 1;
                }
            }
            assert!(hits > 15, "{name} rejected too much");
        }
    }

    #[test]
    fn raw_set_in_draws_inside_interval() {
        let mut g = Generator::new(WorkloadConfig::paper(), 9);
        for _ in 0..20 {
            if let Some(ts) = g.raw_set_in(0.3, 0.4) {
                let u = ts.mk_utilization();
                assert!((0.29..0.41).contains(&u), "got {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn raw_set_in_rejects_empty_interval() {
        Generator::new(WorkloadConfig::paper(), 0).raw_set_in(0.5, 0.5);
    }

    #[test]
    fn parallel_bucket_generation_matches_serial() {
        let plan = BucketPlan {
            sets_per_bucket: 2,
            ..BucketPlan::default()
        };
        let serial = generate_buckets_jobs(WorkloadConfig::paper(), plan, 5, 1);
        for jobs in [0, 2, 7] {
            let parallel = generate_buckets_jobs(WorkloadConfig::paper(), plan, 5, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.sets, b.sets, "jobs={jobs}");
                assert_eq!(a.generated, b.generated, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn bucket_bounds_cover_the_plan() {
        let bounds = bucket_bounds(BucketPlan::default());
        assert_eq!(bounds.len(), 8);
        assert!((bounds[0].0 - 0.1).abs() < 1e-9);
        assert!((bounds[7].1 - 0.9).abs() < 1e-9);
        for w in bounds.windows(2) {
            assert!((w[0].1 - w[1].0).abs() < 1e-9, "gap between buckets");
        }
    }

    #[test]
    fn buckets_deterministic_and_independent() {
        let plan = BucketPlan {
            sets_per_bucket: 1,
            ..BucketPlan::default()
        };
        let a = generate_buckets(WorkloadConfig::paper(), plan, 5);
        let b = generate_buckets(WorkloadConfig::paper(), plan, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sets, y.sets);
        }
    }
}
