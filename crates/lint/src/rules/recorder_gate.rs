//! Rule `recorder-gated-emit`: histogram samples and structured events
//! must stay one branch per emit site when no recorder is attached.
//!
//! The engine carries an optional `Recorder` with the contract that the
//! recorder-off path costs exactly one predictable branch per histogram
//! or event site — that is what keeps the zero-alloc test and the
//! `sim_hot_path` bench numbers unchanged. Counters are not gated: every
//! run counts them into its plain tally (`tally.incr`), because the
//! report's job statistics are read from those counts. With a recorder
//! attached, a histogram site samples into the same tally, which the
//! recorder absorbs once per run. The shape that guarantees both is
//!
//! ```text
//! if let Some(_recorder) = &self.ws.recorder.0 {
//!     self.ws.tally.observe(histogram, value);
//! }
//! ```
//!
//! so this rule requires every `.observe(` / `.event(` call in
//! `crates/sim/src/` to sit lexically inside a block whose opening
//! statement is an `if let Some(…)` mentioning `recorder`. A call via
//! `.unwrap()`, an `else` branch, or a hoisted handle all land outside
//! such a block and are flagged. `.event(` is the structured
//! flight-recorder hook: its `EngineEvent` argument is a stack-built
//! `Copy` value, so constructing it inside the gate keeps the detached
//! path allocation-free too.

use super::{scope, FileCtx, Finding, RECORDER_GATED_EMIT};
use crate::lexer::TokKind;

pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !scope::in_sim_src(ctx.path) {
        return;
    }
    // Stack of "is this block a recorder gate" flags, one per open
    // brace. A block is a gate when the statement that opened it
    // contains `if let Some` and the identifier `recorder`.
    let mut gates: Vec<bool> = Vec::new();
    let mut stmt_start = 0usize;
    for i in 0..ctx.toks.len() {
        let t = ctx.tok(i);
        match t.kind {
            TokKind::Punct('{') => {
                let stmt = &ctx.toks[stmt_start..i];
                let has = |text: &str| stmt.iter().any(|s| s.is_ident(text));
                let is_gate = has("if") && has("let") && has("Some") && has("recorder");
                gates.push(is_gate);
                stmt_start = i + 1;
            }
            TokKind::Punct('}') => {
                gates.pop();
                stmt_start = i + 1;
            }
            TokKind::Punct(';') => stmt_start = i + 1,
            TokKind::Ident
                if (t.is_ident("observe") || t.is_ident("event"))
                    && ctx.tok(i.wrapping_sub(1)).is_punct('.')
                    && ctx.tok(i + 1).is_punct('(')
                    && ctx.live(i)
                    && !gates.iter().any(|&g| g) =>
            {
                out.push(ctx.finding(
                    t.line,
                    RECORDER_GATED_EMIT,
                    format!(
                        "recorder `.{}()` call outside an `if let Some(recorder)` \
                         gate; the detached path must stay one branch per emit \
                         site",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}
