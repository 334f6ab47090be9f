//! Golden pin of the schedule renderer as the CLI drives it.
//!
//! An FNV-1a digest covers the stdout text (summary and ASCII Gantt) of
//! `mkss-cli simulate --gantt` on one generated Section-V set under
//! every policy kind, with a permanent primary fault plus seeded
//! transients. The value was recorded when the schedule trace was still
//! assembled by its own event sink; rebuilding it from the
//! flight-recorder ring must leave every byte unchanged. When the DVS
//! and the per-job θ policy kinds, and then the six ablation-only kinds,
//! were removed, the pin was re-recorded on the code before each removal
//! with those kinds skipped, so it proves the remaining kinds unchanged.

use mkss_policies::PolicyKind;

/// FNV-1a over a byte stream, continued from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    mkss_cli::run(&args).expect("command succeeds")
}

#[test]
fn gantt_matches_the_recorded_digest() {
    let dir = std::env::temp_dir().join(format!("mkss-render-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let set_path = dir.join("set.json");
    let set = run(&["generate", "--util", "0.5", "--seed", "7"]);
    std::fs::write(&set_path, &set).expect("write set");
    let set_path = set_path.to_str().expect("utf-8 path");

    let mut gantt_digest = FNV_OFFSET;
    let mut transients = 0usize;
    for kind in PolicyKind::ALL {
        let text = run(&[
            "simulate",
            set_path,
            "--policy",
            kind.id(),
            "--horizon-ms",
            "400",
            "--permanent",
            "primary@90",
            "--transient",
            "2e-3",
            "--seed",
            "5",
            "--gantt",
        ]);
        assert!(text.contains(" primary: "), "gantt rendered:\n{text}");
        if !text.contains("transient faults 0,") {
            transients += 1;
        }
        gantt_digest = fnv1a(gantt_digest, kind.id().as_bytes());
        gantt_digest = fnv1a(gantt_digest, text.as_bytes());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let tasks = set.matches("period_ms").count();
    println!("tasks {tasks}, runs with transients {transients}, gantt {gantt_digest:#018x}");
    assert!(
        (5..=10).contains(&tasks),
        "a paper-sized set: {tasks} tasks"
    );
    assert!(transients > 0, "the fault plan injects transients");
    assert_eq!(gantt_digest, 0xdcf3_18db_c765_10bd, "gantt digest");
}
