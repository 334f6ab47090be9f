//! The evaluation's headline behaviour as integration tests over the
//! real workload generator — the shape of the paper's Figure 6, as our
//! reproduction actually measures it (see EXPERIMENTS.md):
//!
//! * both procrastinating schemes always beat the `MKSS_ST` reference;
//! * `MKSS_selective` beats `MKSS_DP` at moderate-to-high
//!   (m,k)-utilization, by a double-digit percentage at the top — the
//!   paper's headline direction;
//! * at the lowest utilizations our (strong) dual-priority baseline edges
//!   out the selective scheme, because there its promotion slack already
//!   cancels almost every backup while the selective scheme provably
//!   executes `m/(k−1) ≥ m/k` single copies — a documented deviation
//!   from the paper, which claims a win in *all* intervals.

use mkss::prelude::*;
use mkss_bench::experiment::{run_experiment_jobs, ExperimentConfig, ExperimentResult, Scenario};

fn quick(scenario: Scenario) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::fig6(scenario);
    cfg.plan.sets_per_bucket = 6;
    cfg.plan.from = 0.2;
    cfg.plan.to = 0.8;
    cfg.horizon = Time::from_ms(500);
    cfg
}

/// DP−selective normalized-energy gap per populated bucket, low→high.
fn gaps(result: &ExperimentResult) -> Vec<(f64, f64)> {
    result
        .buckets
        .iter()
        .filter(|b| b.sets > 0)
        .map(|b| {
            (
                b.midpoint,
                b.normalized[&PolicyKind::DualPriority] - b.normalized[&PolicyKind::Selective],
            )
        })
        .collect()
}

#[test]
fn fig6a_shape_no_fault() {
    let result = run_experiment_jobs(&quick(Scenario::NoFault), 0);
    assert_eq!(result.total_violations(), 0);
    for bucket in result.buckets.iter().filter(|b| b.sets > 0) {
        let st = bucket.normalized[&PolicyKind::Static];
        let dp = bucket.normalized[&PolicyKind::DualPriority];
        let sel = bucket.normalized[&PolicyKind::Selective];
        assert!((st - 1.0).abs() < 1e-9);
        // Both schemes always save substantially vs the reference.
        assert!(
            dp <= 0.9,
            "dp {dp} barely below reference at {}",
            bucket.midpoint
        );
        assert!(
            sel <= 0.9,
            "selective {sel} barely below reference at {}",
            bucket.midpoint
        );
    }
    // Selective wins the top populated bucket…
    let g = gaps(&result);
    let (top_util, top_gap) = *g.last().expect("populated buckets");
    assert!(
        top_gap > 0.0,
        "selective should win at the top bucket ({top_util}), gap {top_gap}"
    );
    // …and the advantage somewhere is a real percentage.
    let max_red = result
        .max_reduction_pct(PolicyKind::Selective, PolicyKind::DualPriority)
        .expect("populated buckets compare both policies");
    assert!(max_red >= 4.0, "max reduction only {max_red:.1}%");
}

#[test]
fn fig6a_selective_advantage_grows_with_utilization() {
    // In our model the selective advantage comes from displacing
    // duplicated mandatory work, which only exists in quantity once the
    // dual-priority baseline's promotion slack runs out — so the gap
    // *increases* with (m,k)-utilization (crossing zero on the way).
    let result = run_experiment_jobs(&quick(Scenario::NoFault), 0);
    let g = gaps(&result);
    assert!(g.len() >= 4, "too few populated buckets");
    let low = (g[0].1 + g[1].1) / 2.0;
    let high = (g[g.len() - 2].1 + g[g.len() - 1].1) / 2.0;
    assert!(
        high >= low - 0.01,
        "gap should not shrink with utilization: low {low:.3}, high {high:.3}"
    );
}

#[test]
fn fig6b_shape_permanent_fault() {
    let result = run_experiment_jobs(&quick(Scenario::Permanent), 0);
    assert_eq!(result.total_violations(), 0);
    for bucket in result.buckets.iter().filter(|b| b.sets > 0) {
        let dp = bucket.normalized[&PolicyKind::DualPriority];
        let sel = bucket.normalized[&PolicyKind::Selective];
        assert!(dp <= 1.0 + 1e-9);
        assert!(sel <= 1.0 + 1e-9);
        // The two schemes stay close post-failover (single copies both
        // ways); allow a modest band instead of a strict ordering.
        assert!(
            (dp - sel).abs() <= 0.15,
            "dp {dp} vs selective {sel} diverged at {}",
            bucket.midpoint
        );
    }
}

#[test]
fn fig6b_late_fault_recovers_no_fault_shape() {
    // The paper reports the permanent-fault energies as "similar to the
    // case when no fault ever occurred" — which is what we measure when
    // the fault falls late in the simulated span (most energy is spent
    // in normal dual-processor operation).
    let mut cfg = quick(Scenario::Permanent);
    cfg.permanent_fault_window = (0.9, 1.0);
    let faulted = run_experiment_jobs(&cfg, 0);
    let clean = run_experiment_jobs(&quick(Scenario::NoFault), 0);
    assert_eq!(faulted.total_violations(), 0);
    let f_sel = faulted.mean_normalized(PolicyKind::Selective);
    let c_sel = clean.mean_normalized(PolicyKind::Selective);
    assert!(
        (f_sel - c_sel).abs() < 0.08,
        "late-fault selective {f_sel:.3} should be close to no-fault {c_sel:.3}"
    );
}

#[test]
fn fig6c_shape_combined_faults() {
    let result = run_experiment_jobs(&quick(Scenario::Combined), 0);
    assert_eq!(result.total_violations(), 0);
    // At the paper's 1e-6 transient rate the combined scenario is
    // observationally equivalent to the permanent-only one.
    let permanent = run_experiment_jobs(&quick(Scenario::Permanent), 0);
    let a = result.mean_normalized(PolicyKind::Selective);
    let b = permanent.mean_normalized(PolicyKind::Selective);
    assert!((a - b).abs() < 0.02, "combined {a:.3} vs permanent {b:.3}");
}

#[test]
fn ablation_postponement_ladder_on_static_scheme() {
    // More procrastination can only increase backup cancellations:
    // Y_alljobs (paper) ≥ energy of θ.
    let mut cfg = quick(Scenario::NoFault);
    cfg.policies = vec![PolicyKind::DualPriority, PolicyKind::DualPriorityTheta];
    let result = run_experiment_jobs(&cfg, 0);
    assert_eq!(result.total_violations(), 0);
    let y = result.mean_normalized(PolicyKind::DualPriority);
    let theta = result.mean_normalized(PolicyKind::DualPriorityTheta);
    assert!(theta <= y + 0.01, "θ {theta} worse than Y {y}");
}
