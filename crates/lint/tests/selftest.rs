//! Rule self-tests: every rule has (at least) one fixture where it
//! fires, one where an `allow` annotation suppresses it, and one where
//! clean code stays silent.
//!
//! Fixtures are in-memory files run through [`mkss_lint::lint_sources`]
//! under workspace-relative virtual paths, so rule scoping (library
//! crates vs. harness vs. tests) is exercised exactly as in a real run.

use mkss_lint::lint_sources;
use mkss_lint::rules::Finding;

/// Lints one virtual file.
fn lint_one(path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), src.to_string())]).findings
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn assert_clean(path: &str, src: &str) {
    let found = lint_one(path, src);
    assert!(found.is_empty(), "expected clean, got: {found:#?}");
}

fn assert_fires(path: &str, src: &str, rule: &str, times: usize) {
    let found = lint_one(path, src);
    let hits = found.iter().filter(|f| f.rule == rule).count();
    assert_eq!(hits, times, "expected {rule} x{times}, got: {found:#?}");
}

/// Suppressed fixtures must produce zero findings *and* count the
/// suppression (the allow is used, so no unused-allow either).
fn assert_suppressed(path: &str, src: &str) {
    let report = lint_sources(&[(path.to_string(), src.to_string())]);
    assert!(
        report.findings.is_empty(),
        "expected full suppression, got: {:#?}",
        report.findings
    );
    assert!(report.suppressed > 0, "nothing was suppressed");
}

// ---------------------------------------------------------------- //
// hot-path-alloc

#[test]
fn hot_path_alloc_fires_inside_region() {
    let src = r#"
fn cold() -> Vec<u32> { Vec::new() }
// mkss-lint: hot-path begin
fn hot(xs: &[u32]) -> Vec<u32> {
    let v: Vec<u32> = xs.iter().copied().collect();
    let w = vec![1u32];
    let s = String::from("hi");
    let b = Box::new(1u32);
    let t = xs.to_vec();
    let _ = (w, s, b, t);
    v
}
// mkss-lint: hot-path end
"#;
    assert_fires("crates/sim/src/fixture.rs", src, "hot-path-alloc", 5);
}

#[test]
fn hot_path_alloc_suppressed_by_allow() {
    let src = r#"
// mkss-lint: hot-path begin
fn hot() -> Vec<u32> {
    // mkss-lint: allow(hot-path-alloc) — cold error branch, runs at most once per simulation
    Vec::new()
}
// mkss-lint: hot-path end
"#;
    assert_suppressed("crates/sim/src/fixture.rs", src);
}

#[test]
fn hot_path_alloc_outside_region_is_silent() {
    let src = r#"
fn cold() -> Vec<u32> { vec![1, 2, 3] }
// mkss-lint: hot-path begin
fn hot(x: u32) -> u32 { x + 1 }
// mkss-lint: hot-path end
fn also_cold() -> String { format!("x") }
"#;
    assert_clean("crates/sim/src/fixture.rs", src);
}

#[test]
fn hot_path_markers_must_balance() {
    assert_fires(
        "crates/sim/src/fixture.rs",
        "// mkss-lint: hot-path begin\nfn f() {}\n",
        "hot-path-alloc",
        1,
    );
    assert_fires(
        "crates/sim/src/fixture.rs",
        "fn f() {}\n// mkss-lint: hot-path end\n",
        "hot-path-alloc",
        1,
    );
}

// ---------------------------------------------------------------- //
// error-hygiene

#[test]
fn error_hygiene_fires_on_bare_error_type() {
    let src = "/// Fixture: declared bare on purpose.\npub struct NakedError;\n";
    let found = lint_one("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&found), vec!["error-hygiene"]);
    assert!(found[0].message.contains("#[non_exhaustive]"));
    assert!(found[0].message.contains("Display"));
}

#[test]
fn error_hygiene_suppressed_by_allow() {
    // The directive line between the doc comment and the item must not
    // break doc attachment (it is an ordinary comment to rustc).
    let src = "\
/// Fixture bridge type.
// mkss-lint: allow(error-hygiene) — internal bridge type, never crosses the API
pub struct BridgeError;
";
    assert_suppressed("crates/core/src/fixture.rs", src);
}

#[test]
fn error_hygiene_clean_on_convention() {
    let src = r#"
use std::error::Error as StdError;
use std::fmt;

/// Fixture error following the convention.
#[derive(Debug)]
#[non_exhaustive]
pub enum GoodError {
    Bad,
}

impl fmt::Display for GoodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad")
    }
}

impl StdError for GoodError {}
"#;
    assert_clean("crates/core/src/fixture.rs", src);
}

#[test]
fn error_hygiene_resolves_impls_across_files() {
    let decl =
        "/// Fixture: impls live in a sibling file.\n#[non_exhaustive]\npub struct SplitError;\n";
    let impls = "use std::fmt;\nuse crate::SplitError;\n\
impl fmt::Display for SplitError { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"e\") } }\n\
impl std::error::Error for SplitError {}\n";
    let report = lint_sources(&[
        ("crates/core/src/decl.rs".into(), decl.into()),
        ("crates/core/src/impls.rs".into(), impls.into()),
    ]);
    assert!(report.findings.is_empty(), "got: {:#?}", report.findings);
}

// ---------------------------------------------------------------- //
// recorder-gated-emit

#[test]
fn recorder_gate_fires_on_unguarded_emit() {
    let src = r#"
fn emit_badly(recorder: &dyn Recorder, c: CounterId) {
    recorder.incr(c, 1);
}
fn observe_badly(recorder: &dyn Recorder, h: HistogramId) {
    recorder.observe(h, 7);
}
"#;
    assert_fires("crates/sim/src/fixture.rs", src, "recorder-gated-emit", 2);
}

#[test]
fn recorder_gate_suppressed_by_allow() {
    let src = r#"
fn emit_knowingly(recorder: &dyn Recorder, c: CounterId) {
    // mkss-lint: allow(recorder-gated-emit) — caller already checked attachment
    recorder.incr(c, 1);
}
"#;
    assert_suppressed("crates/sim/src/fixture.rs", src);
}

#[test]
fn recorder_gate_clean_inside_gate_and_outside_sim() {
    let gated = r#"
fn emit(&self, counter: CounterId) {
    if let Some(recorder) = &self.ws.recorder.0 {
        recorder.incr(counter, 1);
    }
}
"#;
    assert_clean("crates/sim/src/fixture.rs", gated);
    // The rule only guards the simulator; the registry itself (obs
    // crate) calls incr on shards freely.
    assert_clean(
        "crates/obs/src/fixture.rs",
        "fn bump(&self) { self.shard.incr(CounterId::JobsReleased, 1); }",
    );
}

#[test]
fn recorder_gate_else_branch_is_not_gated() {
    let src = r#"
fn emit(&self, counter: CounterId) {
    if let Some(recorder) = &self.ws.recorder.0 {
        recorder.incr(counter, 1);
    } else {
        self.fallback.incr(counter, 1);
    }
}
"#;
    assert_fires("crates/sim/src/fixture.rs", src, "recorder-gated-emit", 1);
}

// ---------------------------------------------------------------- //
// malformed-directive
//
// The directive fixtures use `float-fold-determinism` as the rule to
// allow: `*a += 1.5` in a library crate fires it on its own line.

#[test]
fn malformed_directive_fires() {
    // Missing reason, unknown rule, and a typoed keyword all fire.
    let src = "\
// mkss-lint: allow(float-fold-determinism)
// mkss-lint: allow(no-such-rule) — reason
// mkss-lint: hot-path begins
fn f() {}
";
    assert_fires("crates/core/src/fixture.rs", src, "malformed-directive", 3);
}

#[test]
fn malformed_directive_suppressed_by_allow() {
    let src = "\
// mkss-lint: allow(malformed-directive) — the next line demonstrates a typo on purpose
// mkss-lint: allos(oops)
fn f() {}
";
    assert_suppressed("crates/core/src/fixture.rs", src);
}

#[test]
fn wellformed_directives_are_silent() {
    let src = "\
/// Fixture: a reasoned allow is well-formed.
pub fn f(a: &mut f64) {
    // mkss-lint: allow(float-fold-determinism) — fixture invariant
    *a += 1.5;
}
";
    assert_clean("crates/core/src/fixture.rs", src);
}

// ---------------------------------------------------------------- //
// unused-allow

#[test]
fn unused_allow_fires() {
    let src = "\
// mkss-lint: allow(float-fold-determinism) — nothing here actually accumulates
fn f() {}
";
    assert_fires("crates/core/src/fixture.rs", src, "unused-allow", 1);
}

#[test]
fn unused_allow_suppressed_by_allow() {
    let src = "\
// mkss-lint: allow(unused-allow) — fixture demonstrating a deliberately-unused annotation
// mkss-lint: allow(float-fold-determinism) — nothing here actually accumulates
fn f() {}
";
    assert_suppressed("crates/core/src/fixture.rs", src);
}

#[test]
fn used_allow_is_silent_and_test_code_exempt() {
    let used = "\
/// Fixture: the allow below is consumed.
pub fn f(a: &mut f64) {
    // mkss-lint: allow(float-fold-determinism) — fixture invariant
    *a += 1.5;
}
";
    assert_clean("crates/core/src/fixture.rs", used);
    // Rules do not run inside #[cfg(test)], so an allow there can never
    // be "used"; it must not be punished for it.
    let in_test = "\
#[cfg(test)]
mod tests {
    fn t(a: &mut f64) {
        // mkss-lint: allow(float-fold-determinism) — test-only
        *a += 1.5;
    }
}
";
    assert_clean("crates/core/src/fixture.rs", in_test);
}

// ---------------------------------------------------------------- //
// cross-cutting engine behaviour

#[test]
fn allow_must_be_adjacent() {
    // Two lines above the finding: too far, does not suppress (and is
    // therefore itself unused).
    let src = "\
fn f(a: &mut f64) {
    // mkss-lint: allow(float-fold-determinism) — too far away

    *a += 1.5;
}
";
    let found = lint_one("crates/core/src/fixture.rs", src);
    let mut rules = rules_of(&found);
    rules.sort();
    assert_eq!(rules, vec!["float-fold-determinism", "unused-allow"]);
}

#[test]
fn allow_on_same_line_works() {
    let src = "\
fn f(a: &mut f64) {
    *a += 1.5; // mkss-lint: allow(float-fold-determinism) — trailing form
}
";
    assert_suppressed("crates/core/src/fixture.rs", src);
}

#[test]
fn findings_are_sorted_and_formatted() {
    let report = lint_sources(&[
        (
            "crates/core/src/b.rs".into(),
            "fn f(a: &mut f64) { *a += 1.5; }\n".into(),
        ),
        (
            "crates/core/src/a.rs".into(),
            "fn g(a: &mut f64) { *a += 1.5; }\n".into(),
        ),
    ]);
    let lines: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("crates/core/src/a.rs:1: [MKSS-L011 float-fold-determinism]"));
    assert!(lines[1].starts_with("crates/core/src/b.rs:1: [MKSS-L011 float-fold-determinism]"));
}

#[test]
fn findings_on_one_line_sort_by_code() {
    // L001 and L011 fire on the same line; the error code, not the rule
    // ID (`float-…` < `hot-…`), decides their order.
    let src = "\
// mkss-lint: hot-path begin
fn hot(a: &mut f64) -> Vec<f64> { *a += 1.5; vec![*a] }
// mkss-lint: hot-path end
";
    let found = lint_one("crates/sim/src/fixture.rs", src);
    let codes: Vec<(u32, &str)> = found.iter().map(|f| (f.line, f.code())).collect();
    assert_eq!(codes, vec![(2, "MKSS-L001"), (2, "MKSS-L011")]);
}

// ---------------------------------------------------------------- //
// lock-discipline

#[test]
fn lock_discipline_fires_on_guard_across_blocking() {
    let src = r#"
fn f(&self) {
    let g = lock(&self.shared.conns);
    self.tx.send(1);
    drop(g);
}
"#;
    assert_fires("crates/serve/src/fixture.rs", src, "lock-discipline", 1);
}

#[test]
fn lock_discipline_fires_on_double_acquisition() {
    let src = r#"
fn f(&self) {
    let a = self.state.lock();
    let b = self.state.lock();
    let _ = (a, b);
}
"#;
    assert_fires("crates/core/src/fixture.rs", src, "lock-discipline", 1);
}

#[test]
fn lock_discipline_reports_order_inversion_across_files() {
    let ab = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    let _ = (a, b);\n}\n";
    let ba = "fn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n    let _ = (a, b);\n}\n";
    let report = lint_sources(&[
        ("crates/serve/src/ab.rs".into(), ab.into()),
        ("crates/serve/src/ba.rs".into(), ba.into()),
    ]);
    assert_eq!(rules_of(&report.findings), vec!["lock-discipline"]);
    assert!(report.findings[0].message.contains("inversion"));
    // Reported at the lexicographically later edge (beta-then-alpha).
    assert_eq!(report.findings[0].path, "crates/serve/src/ba.rs");
}

#[test]
fn lock_discipline_suppressed_by_allow() {
    let src = r#"
fn f(&self) {
    let g = lock(&self.shared.conns);
    // mkss-lint: allow(lock-discipline) — fixture: unbounded channel, send never blocks
    self.tx.send(1);
    drop(g);
}
"#;
    assert_suppressed("crates/serve/src/fixture.rs", src);
}

#[test]
fn lock_discipline_clean_on_scoped_guards_and_condvar_protocol() {
    // Guard dies with its block before the blocking call.
    let scoped = r#"
fn f(&self) {
    {
        let g = lock(&self.state);
        let _ = *g;
    }
    self.tx.send(1);
}
"#;
    assert_clean("crates/serve/src/fixture.rs", scoped);
    // A condvar wait consuming its own guard is the protocol working.
    let condvar = r#"
fn f(&self) {
    let mut g = lock(&self.state);
    while !g.ready {
        g = self.cv.wait(g);
    }
}
"#;
    assert_clean("crates/serve/src/fixture.rs", condvar);
    // Early drop releases the guard before the blocking call.
    let dropped = r#"
fn f(&self) {
    let g = lock(&self.state);
    let v = *g;
    drop(g);
    self.tx.send(v);
}
"#;
    assert_clean("crates/serve/src/fixture.rs", dropped);
}

// ---------------------------------------------------------------- //
// atomic-ordering-annotated

#[test]
fn atomic_ordering_fires_without_note() {
    let src = r#"
fn f(flag: &std::sync::atomic::AtomicBool) {
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
}
"#;
    assert_fires(
        "crates/core/src/fixture.rs",
        src,
        "atomic-ordering-annotated",
        1,
    );
}

#[test]
fn atomic_ordering_unused_note_fires() {
    let src = "\
// mkss-lint: ordering — this note justifies nothing
fn f() {}
";
    assert_fires(
        "crates/core/src/fixture.rs",
        src,
        "atomic-ordering-annotated",
        1,
    );
}

#[test]
fn atomic_ordering_note_covers_nearby_site() {
    let src = r#"
fn f(flag: &AtomicBool) {
    // mkss-lint: ordering — fixture: stop flag, no data published through it
    flag.store(true, Ordering::Relaxed);
}
"#;
    assert_clean("crates/core/src/fixture.rs", src);
    // std::cmp::Ordering variants never collide with memory orderings.
    assert_clean(
        "crates/core/src/fixture.rs",
        "fn c(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n",
    );
    // Test sources annotate nothing.
    assert_clean(
        "crates/core/tests/fixture.rs",
        "fn f(flag: &AtomicBool) { flag.store(true, Ordering::SeqCst); }\n",
    );
}

#[test]
fn atomic_ordering_suppressed_by_allow() {
    let src = r#"
fn f(flag: &AtomicBool) {
    // mkss-lint: allow(atomic-ordering-annotated) — fixture demonstrating the plain allow form
    flag.store(true, Ordering::SeqCst);
}
"#;
    assert_suppressed("crates/core/src/fixture.rs", src);
}

// ---------------------------------------------------------------- //
// float-fold-determinism

#[test]
fn float_fold_fires_on_accumulation_and_sum() {
    let src = r#"
fn total(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}

fn total2(xs: &[f64]) -> f64 {
    xs.iter().sum()
}
"#;
    assert_fires(
        "crates/analysis/src/fixture.rs",
        src,
        "float-fold-determinism",
        2,
    );
}

#[test]
fn float_fold_resolves_newtypes_through_item_graph() {
    // `self.0 += j` is float because Energy wraps f64 — resolved via
    // the cross-file item graph, not local tokens.
    let decl = "/// Fixture energy newtype.\npub struct Energy(pub f64);\n";
    let imp = "\
use crate::Energy;
impl Energy {
    fn add(&mut self, j: Energy) {
        self.0 += j.0;
    }
}
";
    let report = lint_sources(&[
        ("crates/sim/src/decl.rs".into(), decl.into()),
        ("crates/sim/src/imp.rs".into(), imp.into()),
    ]);
    assert_eq!(rules_of(&report.findings), vec!["float-fold-determinism"]);
}

#[test]
fn float_fold_suppressed_by_allow() {
    let src = r#"
fn total(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        // mkss-lint: allow(float-fold-determinism) — fixture: slice order is the pinned order
        acc += *x;
    }
    acc
}
"#;
    assert_suppressed("crates/analysis/src/fixture.rs", src);
}

#[test]
fn float_fold_clean_on_integers_and_fold_helpers() {
    let src = r#"
fn count(xs: &[u32]) -> u32 {
    let mut acc = 0u32;
    for x in xs {
        acc += *x;
    }
    acc
}

fn mean(xs: &[f64]) -> f64 {
    mkss_core::fold::sum_f64(xs) / xs.len() as f64
}
"#;
    assert_clean("crates/analysis/src/fixture.rs", src);
    // The fold helpers themselves are the one sanctioned home.
    assert_clean(
        "crates/core/src/fold.rs",
        "/// Fixture.\npub fn sum_f64(xs: &[f64]) -> f64 { let mut a = 0.0; for x in xs { a += *x; } a }\n",
    );
}

// ---------------------------------------------------------------- //
// condvar-wait-in-loop

#[test]
fn condvar_wait_fires_outside_loop() {
    let src = r#"
fn f(&self) {
    let g = lock(&self.state);
    let _r = self.cv.wait_timeout(g, timeout);
}
"#;
    assert_fires(
        "crates/serve/src/fixture.rs",
        src,
        "condvar-wait-in-loop",
        1,
    );
}

#[test]
fn condvar_wait_suppressed_by_allow() {
    let src = r#"
fn f(&self) {
    let g = lock(&self.state);
    // mkss-lint: allow(condvar-wait-in-loop) — fixture: bounded grace period, waking early is safe
    let _r = self.cv.wait_timeout(g, dur);
}
"#;
    assert_suppressed("crates/serve/src/fixture.rs", src);
}

#[test]
fn condvar_wait_clean_in_loop_wait_while_and_child_wait() {
    let src = r#"
fn f(&self) {
    let mut g = lock(&self.state);
    while !g.ready {
        g = self.cv.wait(g);
    }
}

fn w(&self) {
    let g = lock(&self.state);
    let _r = self.cv.wait_while(g, |s| !s.ready);
}

fn h(child: &mut Child) {
    let _status = child.wait();
}
"#;
    assert_clean("crates/serve/src/fixture.rs", src);
}
