//! Golden pin of the paper's Figure 6 as the harness regenerates it.
//!
//! `fig6 --scenario all` with the default plan (8 buckets × 20 sets,
//! 1 s per run, default seed) prints the three panels' tables on
//! stdout; its stderr carries wall times and is not pinned. The stdout
//! must match `tests/golden/fig6_all.txt` byte for byte at one and at
//! two workers, so a change that moves any cell of the figure fails
//! here. Regenerate the golden only for a change meant to alter the
//! figure, and say so where the change is recorded.

use std::process::Command;

fn fig6_stdout(jobs: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(["--scenario", "all", "--jobs", jobs])
        .output()
        .expect("spawn fig6");
    assert!(
        output.status.success(),
        "fig6 --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn fig6_all_matches_the_recorded_figure() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig6_all.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("read the Fig. 6 golden");
    for jobs in ["1", "2"] {
        let actual = fig6_stdout(jobs);
        if actual != golden {
            let dump = std::env::temp_dir().join(format!("mkss-fig6-all-jobs{jobs}.actual.txt"));
            let _ = std::fs::write(&dump, &actual);
            let first = actual
                .lines()
                .zip(golden.lines())
                .position(|(a, g)| a != g)
                .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
            panic!(
                "fig6 --scenario all --jobs {jobs} differs from {golden_path} at line {}; \
                 actual output in {}",
                first + 1,
                dump.display()
            );
        }
    }
}
