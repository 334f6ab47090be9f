//! End-to-end tests of the `mkss-lint` binary: exit codes, the text
//! report and the golden `--list-rules` table.
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
    // The table is the public rule catalog: the six kept stable codes,
    // each exactly once, and none of the retired ones (never reused).
    for n in 1..=13 {
        let code = format!("MKSS-L{n:03}");
        let expected = usize::from(![1, 2, 3, 5, 6, 12, 13].contains(&n));
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
    // `--format` and `--out` belonged to the retired JSON report.
    for flag in ["--frobnicate", "--format", "--out"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mkss-lint"))
            .args([flag, "json"])
            .output()
            .expect("run mkss-lint");
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}
