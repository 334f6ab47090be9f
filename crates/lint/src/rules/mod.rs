//! The rule catalog and the per-file context rules run against.
//!
//! Rules come in two layers. The token rules are per-file pattern
//! passes over the lexed stream (plus, for `error-hygiene`, a
//! workspace-wide finalize step). The item rules additionally see the
//! item layer ([`crate::parser`]): brace-matched fn bodies, struct
//! fields and impls, and the cross-file [`crate::parser::ItemGraph`]
//! (float newtypes and fields); `lock-discipline` keeps its own
//! cross-file lock-order graph.
//!
//! Every rule has a stable error code (`MKSS-L001`…, see
//! `DIAGNOSTICS.md`); retired codes are never reused. Conventions that
//! rustc, clippy or Cargo enforce (no panics in library code, no
//! nondeterministic collections or clock reads, no bare condvar waits,
//! documented public API, path-only dependencies) live in the workspace
//! lint tables, `clippy.toml` and the CI lockfile gate instead. Findings
//! are suppressible only by an explicit
//! `// mkss-lint: allow(<rule>) — <reason>` on the same or the
//! preceding line; the reason is mandatory and unused allows are
//! themselves findings, so suppressions stay auditable.

use crate::lexer::{Directive, Tok};
use crate::parser::{FileItems, ItemGraph};

pub mod atomic_ordering;
pub mod error_hygiene;
pub mod float_fold;
pub mod lock_discipline;

/// One reported violation. Findings order by path, line, error code,
/// then message (the order `DIAGNOSTICS.md` documents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule ID from [`RULES`].
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The rule's stable `MKSS-Lnnn` error code (see DIAGNOSTICS.md).
    pub fn code(&self) -> &'static str {
        code_for(self.rule)
    }

    /// The sort key; the rule ID last keeps the order consistent with
    /// `Eq`.
    fn key(&self) -> (&str, u32, &str, &str, &str) {
        (&self.path, self.line, self.code(), &self.message, self.rule)
    }
}

impl Ord for Finding {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Finding {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path,
            self.line,
            self.code(),
            self.rule,
            self.message
        )
    }
}

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    pub id: &'static str,
    /// Stable error code, never reused (`MKSS-L001`…).
    pub code: &'static str,
    pub summary: &'static str,
}

/// Rule IDs (used by findings and `allow(...)` directives).
pub const ERROR_HYGIENE: &str = "error-hygiene";
pub const MALFORMED_DIRECTIVE: &str = "malformed-directive";
pub const UNUSED_ALLOW: &str = "unused-allow";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const ATOMIC_ORDERING_ANNOTATED: &str = "atomic-ordering-annotated";
pub const FLOAT_FOLD_DETERMINISM: &str = "float-fold-determinism";

/// The full catalog, ordered by error code. L001, L002, L003, L005, L006,
/// L012 and L013 are retired (see `DIAGNOSTICS.md`).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: ERROR_HYGIENE,
        code: "MKSS-L004",
        summary: "every `pub` *Error type is #[non_exhaustive] and has Display \
                  and std::error::Error impls",
    },
    RuleInfo {
        id: MALFORMED_DIRECTIVE,
        code: "MKSS-L007",
        summary: "an `mkss-lint:` comment that does not parse (typo, missing \
                  reason, unknown rule) is an error, never silently ignored",
    },
    RuleInfo {
        id: UNUSED_ALLOW,
        code: "MKSS-L008",
        summary: "an allow(...) annotation that suppresses nothing must be \
                  removed",
    },
    RuleInfo {
        id: LOCK_DISCIPLINE,
        code: "MKSS-L009",
        summary: "no Mutex/RwLock guard held across a blocking call (condvar \
                  wait on another lock, channel send/recv, IO, join, sleep) or \
                  across a second acquisition that inverts a lock order seen \
                  elsewhere in the workspace",
    },
    RuleInfo {
        id: ATOMIC_ORDERING_ANNOTATED,
        code: "MKSS-L010",
        summary: "every atomic Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst} \
                  site carries a `// mkss-lint: ordering — reason` note saying \
                  why that strength is right; unused notes are findings too",
    },
    RuleInfo {
        id: FLOAT_FOLD_DETERMINISM,
        code: "MKSS-L011",
        summary: "float accumulation (`+=`, `.sum()`, float folds) in non-test \
                  library code goes through the fixed-order mkss_core::fold \
                  helpers or carries a reasoned allow — protects bit-identical \
                  results across `--jobs`",
    },
];

/// True when `id` names a catalogued rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// The stable error code for a rule ID (`"MKSS-L???"` for unknown
/// IDs, which cannot arise from catalogued findings).
pub fn code_for(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map_or("MKSS-L???", |r| r.code)
}

/// Everything a rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    pub toks: &'a [Tok<'a>],
    /// `mask[i]` is true when token `i` sits in test-only code
    /// (`#[cfg(test)]` / `#[test]` items); rules skip those tokens.
    pub mask: &'a [bool],
    pub directives: &'a [Directive],
    /// Line spans of test-only items (for directive placement checks).
    pub test_spans: &'a [(u32, u32)],
    /// The file's item skeletons (fns, impls, structs, uses).
    pub items: &'a FileItems,
    /// Cross-file facts over the whole lint universe.
    pub graph: &'a ItemGraph,
}

impl<'a> FileCtx<'a> {
    /// Token at `i`, or a sentinel that matches nothing.
    pub fn tok(&self, i: usize) -> Tok<'a> {
        const NONE: Tok<'static> = Tok {
            kind: crate::lexer::TokKind::Punct('\0'),
            text: "",
            line: 0,
            start: 0,
            end: 0,
        };
        self.toks.get(i).copied().unwrap_or(NONE)
    }

    /// True when token `i` is live (exists and is not test-masked).
    pub fn live(&self, i: usize) -> bool {
        i < self.toks.len() && !self.mask.get(i).copied().unwrap_or(false)
    }

    /// True when `line` falls inside a test-only item.
    pub fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    pub fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            path: self.path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Path helpers shared by rule scopes. Paths are workspace-relative
/// with forward slashes.
pub mod scope {
    /// The eight library crates: the ones that opt into the workspace
    /// lint tables, and the scope of `float-fold-determinism` and
    /// `lock-discipline`.
    pub const LIB_CRATES: &[&str] = &[
        "crates/core/src/",
        "crates/workload/src/",
        "crates/policies/src/",
        "crates/analysis/src/",
        "crates/sim/src/",
        "crates/obs/src/",
        "crates/serve/src/",
        "crates/top/src/",
    ];

    pub fn in_lib_crate(path: &str) -> bool {
        LIB_CRATES.iter().any(|p| path.starts_with(p))
    }

    /// Integration-test sources: exempt from the rules that only guard
    /// shipped code paths.
    pub fn is_test_source(path: &str) -> bool {
        path.starts_with("tests/") || path.contains("/tests/")
    }

    /// The fixed-order fold helpers themselves — the one place float
    /// accumulation is the point.
    pub fn is_fold_helper(path: &str) -> bool {
        path == "crates/core/src/fold.rs"
    }
}
