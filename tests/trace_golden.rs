//! Golden pin of the engine's schedule output.
//!
//! Two FNV-1a digests cover the `workspace_differential` corpus (seeded
//! task sets × every policy kind × fault plans): one over the
//! `serde_json` bytes of every schedule [`Trace`], one over the bytes of
//! every [`SimReport`] (a traced and an untraced run each). The values
//! were recorded with the engine's former capture path, which buffered
//! segments and resolutions inside the workspace; the recorder-built
//! trace must reproduce them byte for byte. For the report digest the
//! former `"trace"` member was excised from the bytes, so only the
//! fields a report still carries are hashed. When the DVS and the
//! per-job θ policy kinds, and then the six ablation-only kinds, were
//! removed, the pins were re-recorded on the code before each removal
//! with those kinds skipped, so they prove the remaining kinds unchanged
//! (Selective's switch from θ to Y backups included).

use mkss::prelude::*;

/// FNV-1a over a byte stream, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The fault scenarios of `tests/workspace_differential.rs`.
fn fault_configs() -> Vec<FaultConfig> {
    vec![
        FaultConfig::none(),
        FaultConfig::permanent(ProcId::PRIMARY, Time::from_ms(137)),
        FaultConfig::permanent(ProcId::SPARE, Time::from_ms(61)),
        FaultConfig::combined(ProcId::PRIMARY, Time::from_ms(333), 1e-4, 0xfa17),
        FaultConfig::transient(5e-4, 0x7ea5),
    ]
}

fn report_bytes(report: &SimReport) -> Vec<u8> {
    serde_json::to_string(report)
        .expect("report serializes")
        .into_bytes()
}

#[test]
fn traces_and_reports_match_the_recorded_digests() {
    let horizon = Time::from_ms(500);
    let mut trace_digest = FNV_OFFSET;
    let mut report_digest = FNV_OFFSET;
    let mut runs = 0u32;
    for (seed, util) in [(11u64, 0.3), (22, 0.5), (33, 0.7), (44, 0.9)] {
        let Some(ts) = Generator::new(WorkloadConfig::paper(), seed).schedulable_set(util) else {
            continue;
        };
        for faults in fault_configs() {
            let config = SimConfig::builder().horizon(horizon).faults(faults).build();
            for kind in PolicyKind::ALL {
                let Ok(mut policy) = kind.build(&ts, &BuildOptions::default()) else {
                    continue;
                };
                let (report, trace) = simulate_traced(&ts, policy.as_mut(), &config);
                let mut policy = kind
                    .build(&ts, &BuildOptions::default())
                    .expect("built once already");
                let untraced = simulate(&ts, policy.as_mut(), &config);
                trace_digest = fnv1a(
                    trace_digest,
                    serde_json::to_string(&trace)
                        .expect("trace serializes")
                        .as_bytes(),
                );
                report_digest = fnv1a(report_digest, &report_bytes(&report));
                report_digest = fnv1a(report_digest, &report_bytes(&untraced));
                runs += 1;
            }
        }
    }
    println!("runs {runs}, traces {trace_digest:#018x}, reports {report_digest:#018x}");
    assert_eq!(runs, 75, "corpus size");
    assert_eq!(trace_digest, 0x5aa1_3f97_0be5_f005, "trace digest");
    assert_eq!(report_digest, 0xfe71_b60e_2231_545d, "report digest");
}
