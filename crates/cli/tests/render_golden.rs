//! Golden pin of the schedule renderers as the CLI drives them.
//!
//! Two FNV-1a digests cover `mkss-cli simulate --gantt --vcd` on one
//! generated Section-V set under every policy kind, with a permanent
//! primary fault plus seeded transients: one over the stdout text
//! (summary and ASCII Gantt), one over the VCD file bytes. The values
//! were recorded when the schedule trace was still assembled by its own
//! event sink; rebuilding it from the flight-recorder ring must leave
//! every byte unchanged. When the DVS and the per-job θ policy kinds
//! were removed, the pins were re-recorded on the code before each
//! removal with that kind skipped, so they prove the remaining kinds
//! unchanged.

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
fn gantt_and_vcd_match_the_recorded_digests() {
    let dir = std::env::temp_dir().join(format!("mkss-render-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let set_path = dir.join("set.json");
    let vcd_path = dir.join("out.vcd");
    let set = run(&["generate", "--util", "0.5", "--seed", "7"]);
    std::fs::write(&set_path, &set).expect("write set");
    let (set_path, vcd_path) = (
        set_path.to_str().expect("utf-8 path"),
        vcd_path.to_str().expect("utf-8 path"),
    );

    let mut gantt_digest = FNV_OFFSET;
    let mut vcd_digest = FNV_OFFSET;
    let mut transients = 0usize;
    for kind in PolicyKind::ALL {
        let stdout = run(&[
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
            "--vcd",
            vcd_path,
        ]);
        let text = stdout
            .strip_suffix(&format!("wrote VCD to {vcd_path}\n"))
            .expect("VCD line closes the output");
        assert!(text.contains(" primary: "), "gantt rendered:\n{text}");
        if !text.contains("transient faults 0,") {
            transients += 1;
        }
        gantt_digest = fnv1a(gantt_digest, kind.id().as_bytes());
        gantt_digest = fnv1a(gantt_digest, text.as_bytes());
        vcd_digest = fnv1a(vcd_digest, &std::fs::read(vcd_path).expect("read VCD"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let tasks = set.matches("period_ms").count();
    println!("tasks {tasks}, runs with transients {transients}, gantt {gantt_digest:#018x}, vcd {vcd_digest:#018x}");
    assert!(
        (5..=10).contains(&tasks),
        "a paper-sized set: {tasks} tasks"
    );
    assert!(transients > 0, "the fault plan injects transients");
    assert_eq!(gantt_digest, 0x6558_98e9_e20a_d1b9, "gantt digest");
    assert_eq!(vcd_digest, 0x4fd0_7b86_3fc9_1e81, "vcd digest");
}
