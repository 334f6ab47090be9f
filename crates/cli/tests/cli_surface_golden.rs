//! Golden pin of `mkss-cli`'s command-line surface, driven in-process
//! through [`mkss_cli::run`].
//!
//! For every command with flags (`simulate`, `compare`, `generate`,
//! `serve`, `top`, `metrics`) this pins the diagnostic for a missing
//! value, an unparsable value and an unknown flag, plus `--help` and one
//! minimal run of each command that needs no daemon. Each case renders
//! as the binary would print it — stdout and exit 0 on success,
//! `error: {e}` on stderr and exit 1 on failure — into one transcript
//! compared byte for byte with the workspace's
//! `tests/golden/cli_surface_mkss_cli.txt`.

use std::fmt::Write as _;

/// Stands for the task-set file path in the case arguments.
const SET: &str = "SET";

/// Stands for the path of [`TOP_SAMPLE_SET`], whose deadlines run past
/// the clock's top within the largest accepted horizon.
const TOP_SET: &str = "TOP_SET";

const CASES: &[&[&str]] = &[
    &["--help"],
    &[],
    &["bogus"],
    // simulate
    &["simulate"],
    &["simulate", SET, "--horizon-ms"],
    &["simulate", SET, "--horizon-ms", "x"],
    &["simulate", SET, "--horizon-ms", "-1"],
    &["simulate", SET, "--seed", "x"],
    &["simulate", SET, "--transient", "x"],
    &["simulate", SET, "--policy"],
    &["simulate", SET, "--policy", "nope"],
    &["simulate", SET, "--permanent", "weird"],
    &["simulate", SET, "--permanent", "cpu@3"],
    &["simulate", SET, "--permanent", "primary@x"],
    &["simulate", SET, "--vcd", "out.vcd"],
    &["simulate", SET, "--bogus"],
    &[
        "simulate",
        SET,
        "--policy",
        "dp",
        "--horizon-ms",
        "60",
        "--permanent",
        "primary@7",
        "--transient",
        "0.001",
        "--seed",
        "3",
        "--active-only",
        "--gantt",
    ],
    // compare
    &["compare"],
    &["compare", SET, "--horizon-ms"],
    &["compare", SET, "--horizon-ms", "x"],
    &["compare", SET, "--jobs", "x"],
    &["compare", SET, "--metrics-out"],
    &["compare", SET, "--trace-out"],
    &["compare", SET, "--bogus"],
    &["compare", SET, "--horizon-ms", "100", "--jobs", "2"],
    // generate
    &["generate", "--util"],
    &["generate", "--util", "x"],
    &["generate", "--util", "0"],
    &["generate", "--seed", "x"],
    &["generate", "--tasks", "3"],
    &["generate", "--tasks", "x..4"],
    &["generate", "--tasks", "3..x"],
    &["generate", "--tasks", "7..3"],
    &["generate", "--bogus"],
    &[
        "generate", "--util", "0.4", "--seed", "11", "--tasks", "3..6",
    ],
    // serve
    &["serve"],
    &["serve", "--socket"],
    &["serve", "--workers", "x"],
    &["serve", "--queue", "x"],
    &["serve", "--fanout", "x"],
    &["serve", "--bogus"],
    // top
    &["top"],
    &["top", "--tcp"],
    &["top", "--interval-ms", "x"],
    &["top", "--frames", "no"],
    &["top", "--bogus"],
    // metrics
    &["metrics"],
    &["metrics", "--socket"],
    &["metrics", "--bogus"],
    // Rejections added after the recording above: millisecond counts
    // that used to wrap into a short (or unbounded) run and exit 0.
    &["simulate", SET, "--horizon-ms", "18446744073709552"],
    &["simulate", SET, "--horizon-ms", "18446744073709551615"],
    &["simulate", SET, "--permanent", "primary@18446744073709552"],
    &["compare", SET, "--horizon-ms", "18446744073709552"],
    // The largest accepted horizon: the engine stops releasing at the
    // first deadline past the clock's top instead of overflowing.
    &[
        "simulate",
        TOP_SET,
        "--policy",
        "selective",
        "--horizon-ms",
        "18446744073709551",
    ],
    // A trace packs segment starts into 61 bits of ticks, so a traced
    // run past 2^61 µs is refused instead of exporting wrapped starts.
    &[
        "compare",
        TOP_SET,
        "--horizon-ms",
        "18446744073709551",
        "--trace-out",
        "t.json",
    ],
];

const SAMPLE_SET: &str = r#"{ "tasks": [
    { "period_ms": 5, "deadline_ms": 4, "wcet_ms": 3, "m": 2, "k": 4 },
    { "period_ms": 10, "wcet_ms": 3, "m": 1, "k": 2 }
] }"#;

const TOP_SAMPLE_SET: &str = r#"{"tasks":[{"period_ms":4611686018427,"wcet_ms":1,"m":1,"k":2}]}"#;

/// Runs every case and renders the transcript.
fn transcript(cases: &[&[&str]]) -> String {
    let dir = std::env::temp_dir().join(format!("mkss-cli-surface-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let set_path = dir.join("set.json");
    std::fs::write(&set_path, SAMPLE_SET).expect("write set");
    let set_path = set_path.to_str().expect("utf-8 path");
    let top_set_path = dir.join("top-set.json");
    std::fs::write(&top_set_path, TOP_SAMPLE_SET).expect("write set");
    let top_set_path = top_set_path.to_str().expect("utf-8 path");

    let mut out = String::new();
    for args in cases {
        let argv: Vec<String> = args
            .iter()
            .map(|&arg| match arg {
                SET => set_path,
                TOP_SET => top_set_path,
                _ => arg,
            })
            .map(str::to_owned)
            .collect();
        let _ = writeln!(out, "$ mkss-cli {}", args.join(" "));
        match mkss_cli::run(&argv) {
            Ok(stdout) => {
                let _ = writeln!(out, "exit: 0\nstdout:\n{stdout}");
            }
            Err(e) => {
                let _ = writeln!(out, "exit: 1\nstderr:\nerror: {e}\n");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn commands_match_the_recorded_cli_surface() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/cli_surface_mkss_cli.txt"
    );
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    let actual = transcript(CASES);
    if actual != golden {
        let dump = std::env::temp_dir().join("mkss-cli-surface.actual.txt");
        let _ = std::fs::write(&dump, &actual);
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "CLI surface differs from {golden_path} at line {}; actual transcript in {}",
            first + 1,
            dump.display()
        );
    }
}
