//! `mkss-lint` — zero-dependency static enforcement of this
//! workspace's project invariants.
//!
//! The earlier PRs created guarantees that only *runtime* differential
//! tests defended: bit-identical results across `--jobs` (PR 1), a
//! zero-allocation engine hot path (PR 2), and recorder-off
//! byte-identity with jobs-invariant counters (PR 3). In the spirit of
//! the paper's own offline (m,k) guarantees — the pattern-based
//! analysis proves the property before the system runs — this crate
//! moves those checks to CI time.
//!
//! It keeps only the project-specific rules, the ones rustc, clippy and
//! Cargo cannot express: the hot-path allocation ban, recorder gating,
//! error-type hygiene, lock discipline, annotated atomic orderings,
//! fixed-order float folds and condvar wait loops. The conventions the
//! standard tools do enforce (no panics in library code, no
//! nondeterministic collections or clock reads, documented public API)
//! live in the workspace `[lints]` tables and `clippy.toml`; path-only
//! dependencies are a CI check on the lockfiles.
//!
//! The analyzer has two layers. A hand-rolled Rust lexer ([`lexer`])
//! produces a span-exact token stream; a lightweight item parser
//! ([`parser`]) builds per-file item skeletons (fns, impls, structs,
//! brace-matched bodies) and a workspace-wide [`parser::ItemGraph`].
//! The rule engine ([`rules`]) runs token rules and item rules over
//! every non-vendored `.rs` file in the workspace and reports
//! `file:line` findings, each with a stable `MKSS-Lnnn` error code (see
//! `DIAGNOSTICS.md`).
//!
//! Findings are suppressible only via an explicit annotation with a
//! mandatory reason:
//!
//! ```text
//! // mkss-lint: allow(float-fold-determinism) — event order is the pinned order
//! ```
//!
//! The annotation must sit on the finding's line or the line directly
//! above. Unused or malformed annotations are findings themselves, so
//! the suppression inventory can never rot silently. Atomic-ordering
//! sites use the sibling `// mkss-lint: ordering — reason` note.
//!
//! Run `cargo run -p mkss-lint` from anywhere in the workspace; the
//! binary exits nonzero when anything fires. `--format json` emits the
//! machine-readable report ([`output`]). See `DESIGN.md` ("Static
//! analysis & enforced invariants") for the rule table.

pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;

use lexer::{Directive, DirectiveKind, Tok, TokKind};
use parser::{FileItems, ItemGraph};
use rules::error_hygiene::ErrorHygiene;
use rules::lock_discipline::LockDiscipline;
use rules::{Finding, MALFORMED_DIRECTIVE, UNUSED_ALLOW};
use std::path::{Path, PathBuf};

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Surviving findings, sorted by path, line, then code.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by `allow` annotations.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Per-file suppression context: (path, directives, test line spans).
type FileMeta = (String, Vec<Directive>, Vec<(u32, u32)>);

/// Lints an in-memory set of `(workspace-relative path, content)`
/// files. This is the whole engine — the filesystem entry points below
/// only gather the file list. The file set is also the *universe* for
/// cross-file rules: `error-hygiene` resolves impls, `lock-discipline`
/// its order graph, and `float-fold-determinism` its float newtypes
/// against every file in the set.
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut file_meta: Vec<FileMeta> = Vec::new();
    let mut hygiene = ErrorHygiene::default();
    let mut locks = LockDiscipline::default();

    // Pass 1: lex and parse every Rust file.
    struct Parsed<'a> {
        path: &'a str,
        lexed: lexer::Lexed<'a>,
        mask: Vec<bool>,
        test_spans: Vec<(u32, u32)>,
        items: FileItems,
    }
    let mut parsed: Vec<Parsed<'_>> = Vec::new();
    for (path, content) in files.iter().filter(|(path, _)| path.ends_with(".rs")) {
        let lexed = lexer::lex(content);
        let (mask, test_spans) = test_mask(&lexed.toks);
        let items = parser::parse(&lexed);
        parsed.push(Parsed {
            path,
            lexed,
            mask,
            test_spans,
            items,
        });
    }
    let graph = ItemGraph::build(
        &parsed
            .iter()
            .map(|p| (p.path, &p.items))
            .collect::<Vec<_>>(),
    );

    // Pass 2: run every rule with the graph in scope.
    for p in &parsed {
        let ctx = rules::FileCtx {
            path: p.path,
            toks: &p.lexed.toks,
            mask: &p.mask,
            directives: &p.lexed.directives,
            test_spans: &p.test_spans,
            items: &p.items,
            graph: &graph,
        };
        rules::hot_path_alloc::check(&ctx, &mut findings);
        rules::recorder_gate::check(&ctx, &mut findings);
        rules::atomic_ordering::check(&ctx, &mut findings);
        rules::condvar_wait::check(&ctx, &mut findings);
        rules::float_fold::check(&ctx, &mut findings);
        hygiene.collect(&ctx);
        locks.collect(&ctx, &mut findings);
        file_meta.push((
            p.path.to_string(),
            p.lexed.directives.clone(),
            p.test_spans.clone(),
        ));
    }
    findings.extend(hygiene.finalize());
    findings.extend(locks.finalize());

    // Directive diagnostics: malformed directives and unknown rule
    // names are findings (a typo must never silently disable a rule).
    for (path, directives, _) in &file_meta {
        for d in directives {
            match &d.kind {
                DirectiveKind::Malformed(why) => findings.push(Finding {
                    path: path.clone(),
                    line: d.line,
                    rule: MALFORMED_DIRECTIVE,
                    message: why.clone(),
                }),
                DirectiveKind::Allow { rules: ids, .. } => {
                    for id in ids {
                        if !rules::is_known_rule(id) {
                            findings.push(Finding {
                                path: path.clone(),
                                line: d.line,
                                rule: MALFORMED_DIRECTIVE,
                                message: format!(
                                    "allow() names unknown rule `{id}` (see --list-rules)"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Suppression: an allow annotation covers its own line (trailing
    // comment) and the line directly below (standalone comment).
    let mut used = vec![false; count_allows(&file_meta)];
    let mut suppressed = 0usize;
    findings.retain(|f| {
        let keep = !try_suppress(&file_meta, f, &mut used);
        if !keep {
            suppressed += 1;
        }
        keep
    });

    // Unused-allow: every allow that suppressed nothing — outside test
    // code, where rules do not run — is itself a finding…
    let mut unused: Vec<Finding> = Vec::new();
    let mut slot = 0usize;
    for (path, directives, test_spans) in &file_meta {
        for d in directives {
            if let DirectiveKind::Allow { rules: ids, .. } = &d.kind {
                let in_test = test_spans.iter().any(|&(a, b)| a <= d.line && d.line <= b);
                let all_known = ids.iter().all(|id| rules::is_known_rule(id));
                if !used[slot] && !in_test && all_known {
                    unused.push(Finding {
                        path: path.clone(),
                        line: d.line,
                        rule: UNUSED_ALLOW,
                        message: format!("allow({}) suppresses nothing; remove it", ids.join(", ")),
                    });
                }
                slot += 1;
            }
        }
    }
    // …which may itself be suppressed (e.g. a fixture demonstrating an
    // unused allow). One round only; deeper recursion cannot arise
    // because a used allow never produces a finding.
    unused.retain(|f| {
        let keep = !try_suppress(&file_meta, f, &mut used);
        if !keep {
            suppressed += 1;
        }
        keep
    });
    findings.extend(unused);

    findings.sort();
    LintReport {
        findings,
        suppressed,
        files: files.len(),
    }
}

fn count_allows(file_meta: &[FileMeta]) -> usize {
    file_meta
        .iter()
        .flat_map(|(_, d, _)| d)
        .filter(|d| matches!(d.kind, DirectiveKind::Allow { .. }))
        .count()
}

/// Attempts to suppress `f` with an adjacent allow annotation in its
/// file; marks the matching annotation used.
fn try_suppress(file_meta: &[FileMeta], f: &Finding, used: &mut [bool]) -> bool {
    let mut slot = 0usize;
    for (path, directives, _) in file_meta {
        for d in directives {
            if let DirectiveKind::Allow { rules: ids, .. } = &d.kind {
                if path == &f.path
                    && (d.line == f.line || d.line + 1 == f.line)
                    && ids.iter().any(|id| id == f.rule)
                {
                    used[slot] = true;
                    return true;
                }
                slot += 1;
            }
        }
    }
    false
}

/// Computes which tokens belong to test-only items (`#[cfg(test)]`,
/// `#[test]`, `#[bench]`) and the line spans those items cover.
///
/// The attribute's idents decide: containing `test` marks the item
/// test-only unless `not` also appears (`#[cfg(not(test))]` guards
/// *shipped* code). The masked item extends over the attributes, any
/// further attributes, and either the first balanced `{…}` block or the
/// terminating `;`.
fn test_mask(toks: &[Tok<'_>]) -> (Vec<bool>, Vec<(u32, u32)>) {
    let mut mask = vec![false; toks.len()];
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Inner attribute `#![cfg(test)]` marks the whole file.
        if toks[i].is_punct('#')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('!')
            && i + 2 < toks.len()
            && toks[i + 2].is_punct('[')
        {
            let (end, is_test) = scan_attr(toks, i + 2);
            if is_test {
                mask.iter_mut().for_each(|m| *m = true);
                let last_line = toks.last().map_or(1, |t| t.line);
                return (mask, vec![(1, last_line)]);
            }
            i = end;
            continue;
        }
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let start = i;
            let (mut end, mut is_test) = scan_attr(toks, i + 1);
            // Further attributes on the same item.
            while end + 1 < toks.len() && toks[end].is_punct('#') && toks[end + 1].is_punct('[') {
                let (e, t) = scan_attr(toks, end + 1);
                is_test |= t;
                end = e;
            }
            if is_test {
                let item_end = scan_item(toks, end);
                let first_line = toks[start].line;
                let last_line = toks[item_end.saturating_sub(1).min(toks.len() - 1)].line;
                for m in &mut mask[start..item_end.min(toks.len())] {
                    *m = true;
                }
                spans.push((first_line, last_line));
                i = item_end;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    (mask, spans)
}

/// Scans one `[…]` attribute starting at the `[`; returns (index past
/// the closing `]`, attribute-is-test-only).
fn scan_attr(toks: &[Tok<'_>], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, has_test && !has_not);
                }
            }
            TokKind::Ident => {
                has_test |= toks[j].text == "test" || toks[j].text == "bench";
                has_not |= toks[j].text == "not";
            }
            _ => {}
        }
        j += 1;
    }
    (toks.len(), false)
}

/// Scans past one item starting at `from`: through the first balanced
/// `{…}` block, or to a `;` met before any `{`.
fn scan_item(toks: &[Tok<'_>], from: usize) -> usize {
    let mut j = from;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct(';') => return j + 1,
            TokKind::Punct('{') => {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return toks.len();
            }
            _ => j += 1,
        }
    }
    toks.len()
}

// ---------------------------------------------------------------------
// Filesystem entry points
// ---------------------------------------------------------------------

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", "node_modules"];

/// Lints the whole workspace rooted at `root` (every non-vendored `.rs`
/// file).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();
    Ok(lint_sources(&files))
}

/// Lints an explicit set of files and/or directories. Paths inside
/// `root` are reported workspace-relative; outside ones as given. The
/// given set is the whole universe for cross-file rules, which is what
/// the self-tests and the CI bad-file smoke rely on.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_files(root, p, &mut files)?;
        } else {
            push_file(root, p, &mut files)?;
        }
    }
    files.sort();
    Ok(lint_sources(&files))
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            push_file(root, &path, out)?;
        }
    }
    Ok(())
}

fn push_file(root: &Path, path: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let content = std::fs::read_to_string(path)?;
    out.push((rel, content));
    Ok(())
}

/// Ascends from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
