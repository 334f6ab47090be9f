//! Property tests for the lexer's span and line bookkeeping: for any
//! source assembled from awkward token shapes (raw strings with `#`
//! fences, nested block comments, escaped newlines, char literals vs
//! lifetimes, raw identifiers), every token's recorded byte span must
//! slice back to its text and its recorded line must equal one plus the
//! number of newlines before the span — the invariant every rule's
//! `path:line` anchor rests on.

use mkss_lint::lexer::{lex, TokKind};
use proptest::prelude::*;

/// Token shapes chosen for their historical treachery, not coverage of
/// pretty code. Each is a complete token (or skipped construct), so any
/// interleaving is lexable.
const FRAGMENTS: &[&str] = &[
    "ident",
    "r#type",
    "x7",
    "_",
    "0usize",
    "1.5e3",
    "2e-7",
    "0x1f",
    "42",
    "'a'",
    "'\\n'",
    "'\\''",
    "'static",
    "'a",
    "\"plain\"",
    "\"esc \\\" \\\\ \\n q\"",
    "\"two\nlines\"",
    "\"cont \\\n tail\"",
    "b\"bytes\"",
    "r\"raw\"",
    "r#\"fenced \" quote\"#",
    "r##\"deep \"# fence\"##",
    "// line comment",
    "/// doc line",
    "//! module doc",
    "/* block */",
    "/* nested /* inner */ outer */",
    "/* multi\nline\nblock */",
    "::",
    "->",
    "+=",
    ".",
    "(",
    ")",
    "{",
    "}",
];

const SEPARATORS: &[&str] = &[" ", "  ", "\t", "\n", "\n\n", " \n "];

/// Each pick packs a fragment index (low byte) and a separator index
/// (next byte) — the vendored proptest subset has no tuple strategies.
fn assemble(picks: &[u32]) -> String {
    let mut src = String::new();
    for &p in picks {
        src.push_str(FRAGMENTS[p as usize % FRAGMENTS.len()]);
        src.push_str(SEPARATORS[(p >> 8) as usize % SEPARATORS.len()]);
    }
    src
}

proptest! {
    #[test]
    fn spans_slice_back_and_lines_count_newlines(
        picks in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let src = assemble(&picks);
        let lexed = lex(&src);
        let mut prev_end = 0u32;
        for t in &lexed.toks {
            let (start, end) = (t.start as usize, t.end as usize);
            // Spans are in-bounds, non-empty, ordered, and disjoint.
            prop_assert!(start < end && end <= src.len(), "span {start}..{end} of {:?}", t.text);
            prop_assert!(t.start >= prev_end, "overlapping token at {start}");
            prev_end = t.end;
            // The span slices back to the token text (raw identifiers
            // keep their `r#` prefix in the span but not the text).
            let slice = &src[start..end];
            prop_assert!(
                slice == t.text || (t.kind == TokKind::Ident && slice.ends_with(t.text)),
                "span slice {slice:?} != text {:?}",
                t.text
            );
            // The recorded line is where the token *starts*.
            let newlines_before = src[..start].bytes().filter(|&b| b == b'\n').count() as u32;
            prop_assert_eq!(
                t.line,
                newlines_before + 1,
                "line of {:?} at byte {}", t.text, start
            );
        }
        // Directives carry real line numbers too.
        let total_lines = src.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        for d in &lexed.directives {
            prop_assert!(d.line >= 1 && d.line <= total_lines);
        }
    }

    /// Lexing never panics on arbitrary (possibly malformed) input.
    #[test]
    fn lexer_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lex(&src);
        for t in &lexed.toks {
            prop_assert!((t.end as usize) <= src.len());
        }
    }
}
