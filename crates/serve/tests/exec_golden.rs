//! Golden pin of what the daemon's execution path counts and sends.
//!
//! Two FNV-1a digests cover a corpus of [`execute`] calls made with a
//! global metrics tee attached, as the daemon attaches its registry:
//!
//! * one over every response line (result objects, embedded per-request
//!   metrics documents and `trace` members alike);
//! * one over the tee's final [`MetricsSnapshot`], cell by cell in
//!   catalog order.
//!
//! The corpus is generated task sets × every [`PolicyKind`] × fault plans
//! with permanent and transient faults, through `simulate` with and
//! without `"trace": {"last": N}`, plus `compare` and `sweep`. The
//! loadgen differential compares two paths of one build, so a count
//! that changes on both sides slips past it; these digests were recorded
//! before the engine moved to per-run tallies and pin the counts
//! themselves.

use std::sync::Arc;

use mkss_obs::{CounterId, HistogramId, MetricsSnapshot, Registry};
use mkss_policies::PolicyKind;
use mkss_serve::task_set::TaskSetSpec;
use mkss_serve::{execute, ExecEnv, Request};
use mkss_sim::prelude::WorkspacePool;
use mkss_workload::{Generator, WorkloadConfig};

/// FNV-1a over a byte stream, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Request `faults` members: none, a permanent fault on either
/// processor, combined permanent + transient, and transient only.
const FAULTS: [&str; 5] = [
    "{}",
    r#"{"permanent": {"proc": 0, "at_ms": 137}}"#,
    r#"{"permanent": {"proc": 1, "at_ms": 61}}"#,
    r#"{"seed": 64023, "transient_per_ms": 0.0001, "permanent": {"proc": 0, "at_ms": 183}}"#,
    r#"{"seed": 32421, "transient_per_ms": 0.0005}"#,
];

fn snapshot_digest(snapshot: &MetricsSnapshot) -> u64 {
    let mut digest = FNV_OFFSET;
    for counter in CounterId::ALL {
        digest = fnv1a(digest, &snapshot.counter(counter).to_le_bytes());
    }
    for histogram in HistogramId::ALL {
        for bucket in snapshot.histogram(histogram) {
            digest = fnv1a(digest, &bucket.to_le_bytes());
        }
    }
    digest
}

#[test]
fn responses_and_tee_totals_match_the_recorded_digests() {
    let pool = WorkspacePool::new();
    let global = Arc::new(Registry::new(2));
    let env = ExecEnv {
        pool: &pool,
        global: Some(Arc::new(global.handle())),
        fanout: 2,
    };
    let mut requests = Vec::new();
    let mut id = 0u64;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7), (44, 0.9)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        let set = serde_json::to_string(&TaskSetSpec::from_task_set(&ts)).expect("set encodes");
        for faults in FAULTS {
            for kind in PolicyKind::ALL {
                let policy = kind.id();
                id += 1;
                requests.push(format!(
                    r#"{{"id": {id}, "op": "simulate", "task_set": {set}, "policy": "{policy}", "horizon_ms": 300, "faults": {faults}}}"#
                ));
                id += 1;
                requests.push(format!(
                    r#"{{"id": {id}, "op": "simulate", "task_set": {set}, "policy": "{policy}", "horizon_ms": 300, "faults": {faults}, "trace": {{"last": 24}}}}"#
                ));
            }
            id += 1;
            requests.push(format!(
                r#"{{"id": {id}, "op": "compare", "task_set": {set}, "horizon_ms": 300, "faults": {faults}}}"#
            ));
        }
        for kind in PolicyKind::PAPER {
            let policy = kind.id();
            id += 1;
            requests.push(format!(
                r#"{{"id": {id}, "op": "sweep", "task_set": {set}, "policy": "{policy}", "horizon_ms": 200, "faults": {{"transient_per_ms": 0.001, "permanent": {{"proc": 1, "at_ms": 90}}}}, "seeds": 5, "seed_from": {seed}}}"#
            ));
        }
    }

    let mut response_digest = FNV_OFFSET;
    let mut ok = 0usize;
    for line in &requests {
        let request = Request::parse(line).expect("corpus request parses");
        let response = execute(&request, &env);
        ok += usize::from(response.contains("\"ok\":true"));
        response_digest = fnv1a(response_digest, response.as_bytes());
        response_digest = fnv1a(response_digest, b"\n");
    }
    let snapshot = global.snapshot();
    assert!(
        requests.len() >= 300 && ok >= 250,
        "corpus barely ran ({ok} ok of {} requests)",
        requests.len()
    );
    assert!(snapshot.counter(CounterId::JobsReleased) > 0);
    assert_eq!(
        (response_digest, snapshot_digest(&snapshot)),
        (0xde12_0136_ee0c_dfbc, 0x77e5_02c5_ccbb_84e1),
        "execute responses or tee totals changed"
    );
}
