//! Serde round-trips of every serializable data structure the crates
//! expose — configurations, reports, and traces survive a JSON round-trip
//! bit-for-bit (modulo f64 text formatting, which serde_json preserves
//! exactly for finite values). The Fig. 6 result is only ever written,
//! so its test checks the encoded document instead.
//!
//! Task sets have one JSON form, the millisecond `TaskSetSpec` that
//! `mkss-cli` and the daemon read, and it enters through the validating
//! constructors. Tasks, constraints and (m,k) histories have no serde form
//! of their own.

use mkss::prelude::*;
use mkss::serve::task_set::TaskSetSpec;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

/// `ts` written as a `TaskSetSpec` document and read back.
fn spec_roundtrip(ts: &TaskSet) -> TaskSet {
    roundtrip(&TaskSetSpec::from_task_set(ts))
        .to_task_set()
        .expect("validates")
}

fn sample_set() -> TaskSet {
    TaskSet::new(vec![
        Task::from_ms(5, 4, 3, 2, 4).unwrap(),
        Task::from_ms(10, 10, 3, 1, 2).unwrap(),
    ])
    .unwrap()
}

#[test]
fn task_set_roundtrip() {
    let ts = sample_set();
    assert_eq!(spec_roundtrip(&ts), ts);
}

#[test]
fn time_and_constraint_roundtrip() {
    let t = Time::from_us(2_500);
    assert_eq!(roundtrip(&t), t);
    let task = Task::new(Time::from_ms(7), t, t, 3, 7).unwrap();
    let back = spec_roundtrip(&TaskSet::new(vec![task]).unwrap());
    assert_eq!(back.task(TaskId(0)).mk(), MkConstraint::new(3, 7).unwrap());
}

#[test]
fn sim_config_and_fault_config_roundtrip() {
    let config = SimConfig::builder()
        .horizon_ms(500)
        .faults(FaultConfig::combined(
            ProcId::SPARE,
            Time::from_ms(33),
            1e-6,
            77,
        ))
        .build();
    let back = roundtrip(&config);
    assert_eq!(back, config);
}

#[test]
fn report_with_trace_roundtrip() {
    let ts = sample_set();
    let mut policy = MkssSelective::new(&ts).unwrap();
    let (report, trace) =
        simulate_traced(&ts, &mut policy, &SimConfig::active_only(Time::from_ms(40)));
    let back = roundtrip(&report);
    assert_eq!(back.policy, report.policy);
    assert_eq!(roundtrip(&trace), trace);
    assert_eq!(back.stats, report.stats);
    assert!((back.total_energy().units() - report.total_energy().units()).abs() < 1e-12);
}

#[test]
fn workload_config_roundtrip() {
    let cfg = WorkloadConfig::paper();
    assert_eq!(roundtrip(&cfg), cfg);
    let plan = BucketPlan::default();
    assert_eq!(roundtrip(&plan), plan);
}

/// The member of `value` at `path`, one object key per step.
fn member<'a>(value: &'a serde::Value, path: &[&str]) -> &'a serde::Value {
    path.iter().fold(value, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("no member {key}"))
    })
}

#[test]
fn experiment_result_roundtrip() {
    use mkss_bench::experiment::{run_experiment_jobs, ExperimentConfig, Scenario};
    let mut cfg = ExperimentConfig::fig6(Scenario::Combined);
    cfg.plan.sets_per_bucket = 1;
    cfg.plan.from = 0.3;
    cfg.plan.to = 0.4;
    cfg.horizon = Time::from_ms(200);
    let result = run_experiment_jobs(&cfg, 0);
    // `fig6 --json` is written, never read back: check the document as
    // JSON, not through a `Deserialize` of the harness types.
    let json = serde_json::to_string_pretty(&result).expect("serializes");
    let doc = serde_json::parse_value(&json).expect("parses");
    let rows = member(&doc, &["buckets"]).as_array().expect("bucket rows");
    assert_eq!(rows.len(), result.buckets.len());
    for (row, bucket) in rows.iter().zip(&result.buckets) {
        assert_eq!(member(row, &["midpoint"]).as_f64(), Some(bucket.midpoint));
        assert_eq!(member(row, &["sets"]).as_u64(), Some(bucket.sets as u64));
        // Policies in `PolicyKind` order, as the `BTreeMap` holds them.
        let normalized: Vec<f64> = member(row, &["normalized"])
            .as_object()
            .expect("per-policy map")
            .iter()
            .map(|(_, v)| v.as_f64().expect("energy"))
            .collect();
        let expected: Vec<f64> = bucket.normalized.values().copied().collect();
        assert_eq!(normalized, expected);
    }
    assert_eq!(
        member(&doc, &["stats", "sets_simulated"]).as_u64(),
        Some(result.stats.sets_simulated)
    );
    assert_eq!(member(&doc, &["config", "seed"]).as_u64(), Some(cfg.seed));
}
