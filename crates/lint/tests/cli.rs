//! End-to-end tests of the `mkss-lint` binary: exit codes, the golden
//! `--list-rules` table, and the JSON report —
//! which is round-tripped through the workspace's JSON parser, the
//! vendored `serde_json`.
//!
//! After an intentional rule-table change, regenerate the golden with
//! `MKSS_BLESS=1 cargo test -p mkss-lint --test cli` and review the diff.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LIST_RULES_GOLDEN: &str = include_str!("golden/list_rules.txt");

/// A float accumulation in a lib-crate path: fires MKSS-L011
/// (float-fold-determinism) regardless of what the rest of the item
/// graph contains.
const BAD_SOURCE: &str = "//! Fixture crate.\n\
                          pub fn accumulate(a: &mut f64) {\n\
                          \x20   *a += 1.5;\n\
                          }\n";

const CLEAN_SOURCE: &str = "//! Fixture crate.\n\
                            /// Doubles.\n\
                            pub fn doubled(x: u32) -> u32 {\n\
                            \x20   x * 2\n\
                            }\n";

/// A scratch workspace-shaped directory, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(test: &str, source: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("mkss-lint-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).expect("create fixture tree");
        std::fs::write(src_dir.join("bad.rs"), source).expect("write fixture");
        Fixture { root }
    }

    fn file(&self) -> PathBuf {
        self.root.join("crates/core/src/bad.rs")
    }

    /// Runs the binary with `--root` pointing at the fixture.
    fn lint(&self, extra: &[&str]) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mkss-lint"));
        cmd.arg("--root").arg(&self.root);
        cmd.args(extra);
        cmd.arg(self.file());
        cmd.output().expect("run mkss-lint")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn list_rules_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_mkss-lint"))
        .arg("--list-rules")
        .output()
        .expect("run mkss-lint");
    assert!(out.status.success());
    let text = stdout(&out);
    if std::env::var_os("MKSS_BLESS").is_some() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/list_rules.txt");
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    assert_eq!(text, LIST_RULES_GOLDEN);
    // The table is the public rule catalog: the seven kept stable codes,
    // each exactly once, and none of the retired ones (never reused).
    for n in 1..=13 {
        let code = format!("MKSS-L{n:03}");
        let expected = usize::from(![1, 2, 3, 5, 6, 13].contains(&n));
        assert_eq!(
            text.matches(&code).count(),
            expected,
            "{code} in --list-rules"
        );
    }
}

#[test]
fn findings_fail_and_render_stable_text_format() {
    let fx = Fixture::new("text", BAD_SOURCE);
    let out = fx.lint(&[]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "unexpected text output:\n{text}");
    assert!(
        text.starts_with("crates/core/src/bad.rs:3: [MKSS-L011 float-fold-determinism]"),
        "unexpected text output:\n{text}"
    );
}

#[test]
fn clean_run_exits_zero() {
    let fx = Fixture::new("clean", CLEAN_SOURCE);
    let out = fx.lint(&[]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(stdout(&out), "");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_mkss-lint"))
        .arg("--frobnicate")
        .output()
        .expect("run mkss-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_report_round_trips_through_serde_json() {
    let fx = Fixture::new("json", BAD_SOURCE);
    let out = fx.lint(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let doc = serde_json::parse_value(&stdout(&out)).expect("report is valid JSON");

    assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(2));
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(
            f.get("path").and_then(|v| v.as_str()),
            Some("crates/core/src/bad.rs")
        );
        assert!(f.get("line").and_then(|v| v.as_u64()).is_some());
        let code = f.get("code").and_then(|v| v.as_str()).expect("code");
        assert!(code.starts_with("MKSS-L"), "{code}");
        assert!(f.get("rule").and_then(|v| v.as_str()).is_some());
        assert!(f.get("message").and_then(|v| v.as_str()).is_some());
    }
    let counts = doc.get("counts").expect("counts object");
    assert_eq!(
        counts.get("findings").and_then(|v| v.as_u64()),
        Some(findings.len() as u64)
    );
    for key in ["suppressed", "files"] {
        assert!(counts.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
    }
    assert!(
        counts.get("baselined").is_none(),
        "version 2 has no baseline"
    );
}

#[test]
fn out_flag_writes_the_same_bytes_as_stdout() {
    let fx = Fixture::new("out", BAD_SOURCE);
    let report = fx.root.join("lint-report.json");
    let out = fx.lint(&["--format", "json", "--out", report.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let on_disk = std::fs::read_to_string(&report).expect("report file written");
    assert_eq!(on_disk, stdout(&out));
    serde_json::parse_value(&on_disk).expect("report file is valid JSON");
}
