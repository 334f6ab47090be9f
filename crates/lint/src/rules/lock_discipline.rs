//! `lock-discipline` (MKSS-L009): guard lifetimes vs. blocking calls,
//! plus a workspace-wide lock-order graph.
//!
//! Three shapes fire, all scoped to non-test library-crate code:
//!
//! 1. **guard across blocking** — a `Mutex`/`RwLock` guard is live at a
//!    call that can block indefinitely (channel `send`/`recv`, socket
//!    `accept`/`connect`, `join`, `sleep`, line-oriented reads, buffered
//!    writes). Holding a lock there turns one slow peer into a
//!    system-wide stall. A condvar `.wait(g)` *consuming* its own guard
//!    is the protocol working as designed and is exempt — but any
//!    *other* guard live across that wait fires.
//! 2. **double acquisition** — acquiring a lock whose key is already
//!    held in the same fn (self-deadlock with `std::sync::Mutex`).
//! 3. **order inversion** — fn A acquires `x` then `y`, fn B (anywhere
//!    in the lint universe) acquires `y` then `x`. Edges are collected
//!    per file and checked in a finalize pass, like `error-hygiene`.
//!
//! Guards are tracked structurally: `let g = …lock…;` binds to the
//! enclosing block, `if let/while let/for/match …lock… {` to the block
//! it opens, anything else is a temporary that dies at the `;`.
//! `drop(g)` releases early. Lock keys are the last two path segments
//! of the receiver (`self.shared.conns.lock()` and `lock(&self.shared.
//! conns)` both key as `shared.conns`), which makes keys comparable
//! across fns without type resolution.

use super::{scope, FileCtx, Finding, LOCK_DISCIPLINE};
use crate::lexer::TokKind;
use std::collections::BTreeMap;

/// Method names that block indefinitely. `.join()` only matches with
/// empty parens (thread join), so `sep.join(parts)` never fires.
const BLOCKING: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "recv",
    "recv_timeout",
    "send",
    "accept",
    "connect",
    "join",
    "sleep",
    "park",
    "read_line",
    "read_until",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
];

#[derive(Debug, Clone)]
struct Guard {
    key: String,
    /// Binding name when `let`-bound (for `drop(name)` release).
    name: Option<String>,
    /// Brace depth the guard lives at; popped when the block closes.
    depth: usize,
    /// Dies at the next `;` at its depth (un-bound temporary).
    temp: bool,
    line: u32,
}

/// Cross-file state: first-seen site of every ordered pair of lock
/// keys. Collect per file, then [`finalize`](Self::finalize) reports
/// inversions.
#[derive(Debug, Default)]
pub struct LockDiscipline {
    edges: BTreeMap<(String, String), (String, u32)>,
}

impl LockDiscipline {
    pub fn collect(&mut self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if !scope::in_lib_crate(ctx.path) || scope::is_test_source(ctx.path) {
            return;
        }
        let mentions_rwlock = ctx.toks.iter().any(|t| t.is_ident("RwLock"));
        for (_sig, open, close) in ctx.items.fn_bodies() {
            if !ctx.live(open) {
                continue; // test-masked fn
            }
            self.scan_body(ctx, open, close, mentions_rwlock, out);
        }
    }

    fn scan_body(
        &mut self,
        ctx: &FileCtx<'_>,
        open: usize,
        close: usize,
        rwlock: bool,
        out: &mut Vec<Finding>,
    ) {
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 1usize; // inside the body's `{`
        let mut i = open + 1;
        while i < close {
            let t = ctx.tok(i);
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                TokKind::Punct(';') => guards.retain(|g| !(g.temp && g.depth == depth)),
                TokKind::Ident if t.text == "drop" && ctx.tok(i + 1).is_punct('(') => {
                    let dropped = ctx.tok(i + 2).text;
                    guards.retain(|g| g.name.as_deref() != Some(dropped));
                }
                _ => {}
            }

            if let Some(key) = acquisition_at(ctx, i, rwlock) {
                // Re-acquisition of a held key is a self-deadlock.
                if let Some(held) = guards.iter().find(|g| g.key == key) {
                    out.push(ctx.finding(
                        t.line,
                        LOCK_DISCIPLINE,
                        format!(
                            "acquires `{key}` while already holding it \
                             (guard taken on line {}): std::sync::Mutex \
                             self-deadlocks",
                            held.line
                        ),
                    ));
                } else {
                    for held in &guards {
                        self.edges
                            .entry((held.key.clone(), key.clone()))
                            .or_insert_with(|| (ctx.path.to_string(), t.line));
                    }
                    guards.push(bind_guard(ctx, open, i, key, depth, t.line));
                }
            } else if let Some((op, op_line)) = blocking_at(ctx, i) {
                // A condvar wait consumes (and keeps) the guard it is
                // given; every *other* live guard is a finding.
                let consumed = if op.starts_with("wait") {
                    ctx.tok(i + 3).text.to_string()
                } else {
                    String::new()
                };
                for g in &guards {
                    let is_consumed = op.starts_with("wait")
                        && (g.name.as_deref() == Some(consumed.as_str())
                            || g.key.ends_with(consumed.as_str()));
                    if is_consumed {
                        continue;
                    }
                    out.push(ctx.finding(
                        op_line,
                        LOCK_DISCIPLINE,
                        format!(
                            "guard `{}` (taken on line {}) is held across \
                             blocking `.{op}()`; release it first",
                            g.key, g.line
                        ),
                    ));
                }
            }
            i += 1;
        }
    }

    /// Reports every inverted pair once, at the lexicographically later
    /// edge, citing the earlier one.
    pub fn finalize(self) -> Vec<Finding> {
        let mut out = Vec::new();
        for ((a, b), (path, line)) in &self.edges {
            if a <= b {
                continue; // report each pair once, from the (a > b) side
            }
            if let Some((opath, oline)) = self.edges.get(&(b.clone(), a.clone())) {
                out.push(Finding {
                    path: path.clone(),
                    line: *line,
                    rule: LOCK_DISCIPLINE,
                    message: format!(
                        "lock order inversion: `{b}` then `{a}` here, but \
                         `{a}` then `{b}` at {opath}:{oline} — a deadlock \
                         under contention"
                    ),
                });
            }
        }
        out
    }
}

/// When token `i` starts a lock acquisition, returns its key.
///
/// Recognised: `recv.lock()` / `recv.lock_timeout()` methods, the
/// workspace's `lock(&mutex)` free helper, and `.read()` / `.write()`
/// only in files that mention `RwLock` (plain `File::read` stays cold).
fn acquisition_at(ctx: &FileCtx<'_>, i: usize, rwlock: bool) -> Option<String> {
    let t = ctx.tok(i);
    if !ctx.live(i) || t.kind != TokKind::Ident {
        return None;
    }
    let is_method = i > 0 && ctx.tok(i - 1).is_punct('.') && ctx.tok(i + 1).is_punct('(');
    if is_method {
        let lockish = t.text == "lock"
            || t.text.starts_with("lock_")
            || (rwlock && (t.text == "read" || t.text == "write") && ctx.tok(i + 2).is_punct(')'));
        if lockish {
            return Some(receiver_key(ctx, i - 1));
        }
        return None;
    }
    // Free helper `lock(&self.state)` — but not its own `fn lock` decl.
    if t.text == "lock"
        && ctx.tok(i + 1).is_punct('(')
        && !(i > 0 && (ctx.tok(i - 1).is_ident("fn") || ctx.tok(i - 1).is_punct(':')))
    {
        return Some(args_key(ctx, i + 1));
    }
    None
}

/// When token `i` is a blocking call site, returns (name, line).
fn blocking_at(ctx: &FileCtx<'_>, i: usize) -> Option<(&'static str, u32)> {
    let t = ctx.tok(i);
    if !ctx.live(i) || !t.is_punct('.') {
        return None;
    }
    let m = ctx.tok(i + 1);
    if m.kind != TokKind::Ident || !ctx.tok(i + 2).is_punct('(') {
        return None;
    }
    let name = BLOCKING.iter().find(|b| **b == m.text)?;
    // String/path `.join(sep)` and iterator-ish calls with args are not
    // thread joins; thread `.join()` is argless.
    if *name == "join" && !ctx.tok(i + 3).is_punct(')') {
        return None;
    }
    Some((name, m.line))
}

/// Key of a method receiver ending at the `.` token `dot`: the last
/// two non-`self` path segments. `self.shared.conns.lock()` → key
/// `shared.conns`.
fn receiver_key(ctx: &FileCtx<'_>, dot: usize) -> String {
    let mut segs: Vec<&str> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let prev = ctx.tok(j - 1);
        if prev.kind == TokKind::Ident {
            if prev.text != "self" {
                segs.push(prev.text);
            }
            j -= 1;
            if j > 0 && ctx.tok(j - 1).is_punct('.') {
                j -= 1;
                continue;
            }
        } else if prev.is_punct(')') || prev.is_punct(']') {
            // Call or index in the receiver chain (`shards[i].lock()`):
            // skip the group and keep walking the path.
            let mut depth = 0i32;
            let open = if prev.is_punct(')') { '(' } else { '[' };
            let close_c = if prev.is_punct(')') { ')' } else { ']' };
            while j > 0 {
                j -= 1;
                if ctx.tok(j).is_punct(close_c) {
                    depth += 1;
                } else if ctx.tok(j).is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            continue;
        }
        break;
    }
    key_of(segs)
}

/// Key of a free-helper call: the idents inside `lock( … )`.
fn args_key(ctx: &FileCtx<'_>, open: usize) -> String {
    let mut segs: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < ctx.toks.len() {
        let t = ctx.tok(j);
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident && t.text != "self" && t.text != "mut" {
            segs.push(t.text);
        }
        j += 1;
    }
    segs.reverse(); // key_of expects innermost-first
    key_of(segs)
}

/// Joins up to the last two segments (collected innermost-first).
fn key_of(segs: Vec<&str>) -> String {
    let take: Vec<&str> = segs.into_iter().take(2).collect();
    take.into_iter().rev().collect::<Vec<_>>().join(".")
}

/// Index of the token after the group opened at `open` (a `(`), or the
/// end of the file when it never closes.
fn after_group(ctx: &FileCtx<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    for j in open..ctx.toks.len() {
        if ctx.tok(j).is_punct('(') {
            depth += 1;
        } else if ctx.tok(j).is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    ctx.toks.len()
}

/// Whether the acquisition call at token `i` (`lock` in `m.lock()` or
/// `lock(&m)`) is the whole rest of a `let` initializer or of the
/// scrutinee of its `match`, optionally through `.unwrap()`,
/// `.expect(..)`, `.unwrap_or_else(..)` or `?`: the guard is then what
/// the `let` binds (`match m.lock() { Ok(g) => g, .. }` hands it on).
fn ends_initializer(ctx: &FileCtx<'_>, i: usize) -> bool {
    let mut j = after_group(ctx, i + 1);
    loop {
        if ctx.tok(j).is_punct('?') {
            j += 1;
        } else if ctx.tok(j).is_punct('.')
            && matches!(ctx.tok(j + 1).text, "unwrap" | "expect" | "unwrap_or_else")
            && ctx.tok(j + 2).is_punct('(')
        {
            j = after_group(ctx, j + 2);
        } else {
            let end = ctx.tok(j);
            return end.is_punct(';') || end.is_punct('{') || end.is_ident("else");
        }
    }
}

/// Classifies how the guard acquired at token `i` is bound.
fn bind_guard(
    ctx: &FileCtx<'_>,
    body_open: usize,
    i: usize,
    key: String,
    depth: usize,
    line: u32,
) -> Guard {
    // Walk back to the statement boundary.
    let mut j = i;
    let mut stmt_start = body_open;
    while j > body_open {
        j -= 1;
        let t = ctx.tok(j);
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            stmt_start = j + 1;
            break;
        }
    }
    // `let [mut] name = …lock…` binds to the enclosing block, but only
    // when the acquisition ends the initializer (or its `match`
    // scrutinee): in `let n = lock(&m).len();` the chain consumes the
    // guard, a temporary.
    if ctx.tok(stmt_start).is_ident("let") && ends_initializer(ctx, i) {
        let mut n = stmt_start + 1;
        if ctx.tok(n).is_ident("mut") {
            n += 1;
        }
        if ctx.tok(n).kind == TokKind::Ident {
            return Guard {
                key,
                name: Some(ctx.tok(n).text.to_string()),
                depth,
                temp: false,
                line,
            };
        }
    }
    // A block-opener scrutinee (`for … in …lock… {`, `if let … =
    // …lock… {`, `match …lock… {`) lives for the block it opens.
    let opener = matches!(ctx.tok(stmt_start).text, "for" | "if" | "while" | "match")
        && ctx.tok(stmt_start).kind == TokKind::Ident;
    if opener {
        return Guard {
            key,
            name: None,
            depth: depth + 1,
            temp: false,
            line,
        };
    }
    Guard {
        key,
        name: None,
        depth,
        temp: true,
        line,
    }
}
