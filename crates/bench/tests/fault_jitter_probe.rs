//! Regression probe: hunts the permanent-fault release-jitter scenario
//! over the Figure-6(b) workload and asserts no policy ever violates the
//! (m,k)-guarantee. (Found a real engine-semantics bug during
//! development: post-failover replacement copies released without their
//! backup delay can squeeze two releases of a task closer than its
//! period on the survivor, exceeding the synchronous interference bound.)

use mkss_bench::experiment::{ExperimentConfig, Scenario};
use mkss_policies::{BuildOptions, PolicyKind};
use mkss_sim::engine::{simulate_in, SimConfig, SimWorkspace};
use mkss_workload::generate_buckets;

#[test]
fn no_policy_violates_under_fig6b_fault_plans() {
    let config = ExperimentConfig::fig6(Scenario::Permanent);
    let buckets = generate_buckets(config.workload, config.plan, config.seed);
    let mut set_counter = 0u64;
    let mut checked = 0u64;
    let mut ws = SimWorkspace::new();
    for bucket in &buckets {
        for ts in &bucket.sets {
            let faults = config.fault_plan(set_counter);
            set_counter += 1;
            let sim_config = SimConfig::builder()
                .horizon(config.horizon)
                .power(config.power)
                .faults(faults)
                .build();
            for kind in PolicyKind::ALL {
                let mut policy = kind
                    .build(ts, &BuildOptions::default())
                    .expect("schedulable set");
                let report = simulate_in(&mut ws, ts, policy.as_mut(), &sim_config);
                checked += 1;
                assert!(
                    report.mk_assured(),
                    "policy {kind} violated (m,k) on set #{} (bucket {}) with fault {:?}: {:?}\n{ts}",
                    set_counter - 1,
                    bucket.midpoint(),
                    faults.permanent,
                    report.violations,
                );
            }
        }
    }
    assert!(checked > 500, "probe barely ran ({checked} runs)");
}
