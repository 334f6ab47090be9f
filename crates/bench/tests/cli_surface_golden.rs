//! Golden pin of the experiment binaries' command-line surface.
//!
//! For `fig6`, `ablations`, `sensitivity` and `loadgen` this pins the
//! `--help` text, the exit status and stderr of a missing value, an
//! unparsable value and an unknown flag, and the stdout of one minimal
//! run where the binary needs no daemon (run stderr carries wall times,
//! so only its stdout is pinned). Every case
//! is rendered into one transcript compared byte for byte with the
//! workspace's `tests/golden/cli_surface_bench.txt`.

use std::fmt::Write as _;
use std::process::Command;

/// What a case pins of the process it runs.
#[derive(Clone, Copy)]
enum Pin {
    /// Exit status, stdout and stderr.
    All,
    /// Exit status and stdout; stderr holds timings.
    Stdout,
}

/// One invocation: binary name, its arguments, and what is pinned.
type Case = (&'static str, &'static [&'static str], Pin);

const CASES: &[Case] = &[
    // fig6
    ("fig6", &["--help"], Pin::All),
    ("fig6", &["--sets"], Pin::All),
    ("fig6", &["--sets", "x"], Pin::All),
    ("fig6", &["--from", "x"], Pin::All),
    ("fig6", &["--to", "x"], Pin::All),
    ("fig6", &["--horizon-ms", "x"], Pin::All),
    ("fig6", &["--horizon-ms", "-1"], Pin::All),
    ("fig6", &["--seed", "x"], Pin::All),
    ("fig6", &["--scenario", "bogus"], Pin::All),
    ("fig6", &["--policies", "st,bogus"], Pin::All),
    ("fig6", &["--fault-window", "0.5"], Pin::All),
    ("fig6", &["--fault-window", "a..0.5"], Pin::All),
    ("fig6", &["--replications", "0"], Pin::All),
    ("fig6", &["--replications", "x"], Pin::All),
    ("fig6", &["--jobs", "x"], Pin::All),
    ("fig6", &["--bogus"], Pin::All),
    (
        "fig6",
        &[
            "--scenario",
            "permanent",
            "--sets",
            "1",
            "--horizon-ms",
            "100",
            "--to",
            "0.3",
            "--policies",
            "st,dp,selective",
        ],
        Pin::Stdout,
    ),
    // ablations
    ("ablations", &["--help"], Pin::All),
    ("ablations", &["--sets"], Pin::All),
    ("ablations", &["--sets", "x"], Pin::All),
    ("ablations", &["--horizon-ms", "x"], Pin::All),
    ("ablations", &["--seed", "x"], Pin::All),
    ("ablations", &["--scenario", "bogus"], Pin::All),
    ("ablations", &["--jobs", "x"], Pin::All),
    ("ablations", &["--bogus"], Pin::All),
    (
        "ablations",
        &["--sets", "1", "--horizon-ms", "100"],
        Pin::Stdout,
    ),
    // sensitivity
    ("sensitivity", &["--help"], Pin::All),
    ("sensitivity", &["--sets"], Pin::All),
    ("sensitivity", &["--sets", "x"], Pin::All),
    ("sensitivity", &["--horizon-ms", "x"], Pin::All),
    ("sensitivity", &["--seed", "x"], Pin::All),
    ("sensitivity", &["--jobs", "x"], Pin::All),
    ("sensitivity", &["--bogus"], Pin::All),
    (
        "sensitivity",
        &["--sets", "1", "--horizon-ms", "100"],
        Pin::Stdout,
    ),
    // loadgen
    ("loadgen", &["--help"], Pin::All),
    ("loadgen", &["--clients"], Pin::All),
    ("loadgen", &["--clients", "x"], Pin::All),
    ("loadgen", &["--requests", "x"], Pin::All),
    ("loadgen", &["--seed", "x"], Pin::All),
    ("loadgen", &["--bogus"], Pin::All),
    ("loadgen", &["--clients", "0"], Pin::All),
    ("loadgen", &[], Pin::All),
    // Rejections added after the recording above: inputs that used to
    // exit 0 with a wrapped horizon, an empty table, or a permanent
    // fault past the horizon.
    ("fig6", &["--horizon-ms", "18446744073709552"], Pin::All),
    ("fig6", &["--horizon-ms", "18446744073709551615"], Pin::All),
    (
        "ablations",
        &["--horizon-ms", "18446744073709552"],
        Pin::All,
    ),
    (
        "sensitivity",
        &["--horizon-ms", "18446744073709552"],
        Pin::All,
    ),
    ("fig6", &["--from", "0.6", "--to", "0.5"], Pin::All),
    ("fig6", &["--from", "nan"], Pin::All),
    ("fig6", &["--to", "inf"], Pin::All),
    ("fig6", &["--fault-window", "2..3"], Pin::All),
    ("fig6", &["--fault-window", "0.5..0.2"], Pin::All),
    ("fig6", &["--fault-window", "nan..1"], Pin::All),
    // Ranges with a bucket outside (0, 1], which used to panic in a
    // generator worker.
    (
        "fig6",
        &[
            "--from",
            "0.9",
            "--to",
            "1.1",
            "--sets",
            "1",
            "--horizon-ms",
            "100",
        ],
        Pin::All,
    ),
    (
        "fig6",
        &[
            "--from",
            "-0.1",
            "--to",
            "0.1",
            "--sets",
            "1",
            "--horizon-ms",
            "100",
        ],
        Pin::All,
    ),
];

fn exe(bin: &str) -> &'static str {
    match bin {
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "sensitivity" => env!("CARGO_BIN_EXE_sensitivity"),
        "loadgen" => env!("CARGO_BIN_EXE_loadgen"),
        other => panic!("no binary {other}"),
    }
}

/// Runs every case and renders the transcript.
fn transcript(cases: &[Case]) -> String {
    let mut out = String::new();
    for &(bin, args, pin) in cases {
        let output = Command::new(exe(bin))
            .args(args)
            .output()
            .expect("spawn binary");
        let _ = writeln!(out, "$ {bin} {}", args.join(" "));
        let _ = writeln!(out, "exit: {:?}", output.status.code());
        let _ = writeln!(out, "stdout:\n{}", String::from_utf8_lossy(&output.stdout));
        if let Pin::All = pin {
            let _ = writeln!(out, "stderr:\n{}", String::from_utf8_lossy(&output.stderr));
        }
    }
    out
}

/// Compares `actual` with the golden file; on a mismatch the actual
/// transcript is written to the temp dir for inspection.
fn assert_golden(actual: &str, golden_path: &str) {
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual != golden {
        let dump = std::env::temp_dir().join("mkss-bench-cli-surface.actual.txt");
        let _ = std::fs::write(&dump, actual);
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

#[test]
fn binaries_match_the_recorded_cli_surface() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/cli_surface_bench.txt"
    );
    assert_golden(&transcript(CASES), golden);
}
