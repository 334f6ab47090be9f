//! The linter's strongest self-test: the workspace it ships in must
//! lint clean, and so must the engine on its own.

use std::path::Path;

use mkss_lint::{lint_paths, lint_workspace};

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn workspace_has_zero_findings() {
    let report = lint_workspace(repo_root()).expect("workspace walk succeeds");
    assert!(
        report.files > 50,
        "suspiciously few files walked: {}",
        report.files
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace must lint clean, got:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn engine_lints_clean_on_its_own() {
    // Linting the real engine.rs with most of the workspace absent
    // must still find nothing: every directive in it parses, and every
    // allow in it still suppresses something. power.rs rides along so
    // the item graph knows `Energy` is a float newtype — without it the
    // engine's float-fold allows would read as unused and fire L008.
    let root = repo_root();
    let engine = root.join("crates/sim/src/engine.rs");
    let power = root.join("crates/sim/src/power.rs");
    assert!(engine.is_file(), "engine.rs moved?");
    let report = lint_paths(root, &[engine, power]).expect("two-file lint succeeds");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "engine.rs must lint clean on its own:\n{}",
        rendered.join("\n")
    );
}
