//! `float-fold-determinism` (MKSS-L011): float addition is not
//! associative, so any float accumulation whose order could ever be
//! refactored (parallel chunking, iterator fusion, reversed ranges)
//! silently breaks the bit-identical-across-`--jobs` guarantee. In
//! non-test library code, float reductions must go through the
//! fixed-order `mkss_core::fold` helpers — one canonical left fold,
//! one place to audit — or carry a reasoned allow explaining why the
//! accumulation order is already pinned (e.g. the simulation engine
//! accumulating energy in event order within a single run).
//!
//! Float-ness is resolved through the item graph: `f64`/`f32` tokens
//! and literals, struct fields whose type is float
//! ([`ItemGraph::float_fields`]), and float newtypes like
//! `Energy(f64)` ([`ItemGraph::float_newtypes`]) — including
//! `self.0 += …` inside an impl of a float newtype.
//!
//! [`ItemGraph::float_fields`]: crate::parser::ItemGraph::float_fields
//! [`ItemGraph::float_newtypes`]: crate::parser::ItemGraph::float_newtypes

use super::{scope, FileCtx, Finding, FLOAT_FOLD_DETERMINISM};
use crate::lexer::TokKind;

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !scope::in_lib_crate(ctx.path)
        || scope::is_test_source(ctx.path)
        || scope::is_fold_helper(ctx.path)
    {
        return;
    }
    for (sig, open, close) in ctx.items.fn_bodies() {
        if !ctx.live(open) {
            continue; // test-masked fn
        }
        let ret_floaty = return_type_floaty(ctx, sig, open);
        let mut i = open + 1;
        while i < close {
            let t = ctx.tok(i);
            // `a += b` — two glued puncts.
            if t.is_punct('+') && ctx.tok(i + 1).is_punct('=') && t.adjacent(&ctx.tok(i + 1)) {
                let (lo, hi) = stmt_span(ctx, open, close, i);
                if lhs_floaty(ctx, open, lo, i) || span_floaty(ctx, i + 2, hi) {
                    out.push(
                        ctx.finding(
                            t.line,
                            FLOAT_FOLD_DETERMINISM,
                            "float `+=` accumulation outside mkss_core::fold; use the \
                         fixed-order helpers or allow with the reason the order \
                         is pinned"
                                .to_string(),
                        ),
                    );
                }
                i += 2;
                continue;
            }
            // `.sum()` / `.product()` / `.fold(0.0, …)`.
            if t.is_punct('.')
                && matches!(ctx.tok(i + 1).text, "sum" | "product" | "fold")
                && ctx.tok(i + 1).kind == TokKind::Ident
                && ctx.live(i + 1)
            {
                let name = ctx.tok(i + 1).text;
                let (lo, hi) = stmt_span(ctx, open, close, i);
                let stmt_float = span_floaty(ctx, lo, hi);
                let stmt_int = span_has_int_type(ctx, lo, hi);
                let fold_float_seed = name == "fold"
                    && ctx.tok(i + 2).is_punct('(')
                    && ctx.tok(i + 3).is_float_literal();
                let fires = match name {
                    "fold" => fold_float_seed,
                    _ => stmt_float || (ret_floaty && !stmt_int),
                };
                if fires {
                    out.push(ctx.finding(
                        ctx.tok(i + 1).line,
                        FLOAT_FOLD_DETERMINISM,
                        format!(
                            "float `.{name}()` reduction outside mkss_core::fold; \
                             use sum_f64/sum_f64_by or allow with the reason the \
                             order is pinned"
                        ),
                    ));
                }
            }
            i += 1;
        }
    }
}

/// The statement's token span `[lo, hi)` around token `i`: from the
/// previous `;`/`{`/`}` to the next `;` at the same brace depth.
fn stmt_span(ctx: &FileCtx<'_>, open: usize, close: usize, i: usize) -> (usize, usize) {
    let mut lo = i;
    while lo > open + 1 {
        let t = ctx.tok(lo - 1);
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    let mut depth = 0i32;
    while hi < close {
        let t = ctx.tok(hi);
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        hi += 1;
    }
    (lo, hi)
}

/// Float evidence anywhere in `[lo, hi)`: an `f64`/`f32` token, a
/// float literal, or a float-newtype name.
fn span_floaty(ctx: &FileCtx<'_>, lo: usize, hi: usize) -> bool {
    (lo..hi).any(|j| {
        let t = ctx.tok(j);
        match t.kind {
            TokKind::Ident => {
                t.text == "f64" || t.text == "f32" || ctx.graph.float_newtypes.contains(t.text)
            }
            TokKind::Literal => t.is_float_literal(),
            _ => false,
        }
    })
}

fn span_has_int_type(ctx: &FileCtx<'_>, lo: usize, hi: usize) -> bool {
    (lo..hi).any(|j| {
        let t = ctx.tok(j);
        t.kind == TokKind::Ident && (INT_TYPES.contains(&t.text) || t.text == "Time")
    })
}

/// Whether the fn's return type (tokens after `->` in the signature)
/// mentions a float or float newtype.
fn return_type_floaty(ctx: &FileCtx<'_>, sig: usize, open: usize) -> bool {
    let mut j = sig;
    while j + 1 < open {
        if ctx.tok(j).is_punct('-')
            && ctx.tok(j + 1).is_punct('>')
            && ctx.tok(j).adjacent(&ctx.tok(j + 1))
        {
            return span_floaty(ctx, j + 2, open);
        }
        j += 1;
    }
    false
}

/// Whether the `+=` left-hand side (tokens `[lo, plus)`) is float:
/// a float field, a tuple index into a float newtype's impl, or a
/// local whose binding shows float evidence.
fn lhs_floaty(ctx: &FileCtx<'_>, body_open: usize, lo: usize, plus: usize) -> bool {
    if plus == lo {
        return false;
    }
    // Direct float evidence in the LHS expression itself.
    if span_floaty(ctx, lo, plus) {
        return true;
    }
    // Find the last path component before the `+=` (skipping a closing
    // index bracket: `self.energy[p] +=` resolves `energy`).
    let mut j = plus;
    if ctx.tok(j - 1).is_punct(']') {
        let mut depth = 0i32;
        while j > lo {
            j -= 1;
            if ctx.tok(j).is_punct(']') {
                depth += 1;
            } else if ctx.tok(j).is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    let last = ctx.tok(j.saturating_sub(1));
    if last.kind == TokKind::Literal && j >= 2 && ctx.tok(j - 2).is_punct('.') {
        // Tuple index `self.0 +=` — float when the enclosing impl is a
        // float newtype (AddAssign for Energy).
        return enclosing_impl_floaty(ctx, plus);
    }
    if last.kind != TokKind::Ident {
        return false;
    }
    let name = last.text;
    let is_field = j >= 2 && ctx.tok(j - 2).is_punct('.');
    if is_field {
        return ctx.graph.float_fields.contains(name);
    }
    // Plain local: look for its `let` binding earlier in the body and
    // check the rest of that statement for float evidence.
    let mut k = body_open;
    while k < plus {
        if ctx.tok(k).is_ident("let") {
            let mut n = k + 1;
            if ctx.tok(n).is_ident("mut") {
                n += 1;
            }
            if ctx.tok(n).is_ident(name) {
                let (_, hi) = stmt_span(ctx, body_open, plus, n);
                if span_floaty(ctx, n + 1, hi) {
                    return true;
                }
            }
        }
        k += 1;
    }
    false
}

/// Whether token `at` sits inside an impl of a float newtype.
fn enclosing_impl_floaty(ctx: &FileCtx<'_>, at: usize) -> bool {
    ctx.items.items.iter().any(|it| {
        it.kind == crate::parser::ItemKind::Impl
            && it.body.is_some_and(|(o, c)| o <= at && at <= c)
            && ctx.graph.float_newtypes.contains(&it.name)
    })
}
