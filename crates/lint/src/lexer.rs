//! A hand-rolled Rust lexer, just deep enough for invariant linting.
//!
//! The lexer understands exactly the constructs that would otherwise
//! produce false positives in a token-pattern rule engine:
//!
//! * line comments (`//`), doc comments (`///`, `//!`) and nested block
//!   comments — skipped, so `unwrap()` in prose or a doc example never
//!   fires a rule;
//! * string, raw-string (`r#".."#`), byte-string and char literals —
//!   kept as opaque [`TokKind::Literal`] tokens, so `"Vec::new"` inside
//!   an error message is not a call;
//! * char literals vs. lifetimes (`'a'` vs. `'a`);
//! * raw identifiers (`r#type`);
//! * everything else becomes a [`Tok`] stream of identifiers,
//!   single-char punctuation, and opaque literals, each tagged with its
//!   1-based source line **and its byte span** — concatenating the
//!   spans of all tokens plus the whitespace/comment/lifetime gaps
//!   between them reproduces the file exactly (property-tested).
//!
//! Plain (non-doc) line comments are additionally scanned for
//! `mkss-lint:` control directives ([`Directive`]): suppression
//! annotations and `ordering` notes for atomic-ordering sites.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// String/char/number literal; contents are opaque to the rules
    /// (but the raw source text is kept for float-literal detection).
    Literal,
}

/// One token with its 1-based source line and byte span.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: TokKind,
    /// Identifier text, literal source text, or the punctuation char's
    /// source bytes. For raw identifiers the text is the bare ident
    /// (`type` for `r#type`) while the span covers the `r#` prefix.
    pub text: &'a str,
    pub line: u32,
    /// Byte offset of the token's first byte in the source.
    pub start: u32,
    /// Byte offset one past the token's last byte.
    pub end: u32,
}

impl<'a> Tok<'a> {
    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// True for this punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// True when `other` starts exactly where this token ends — i.e.
    /// the two are glued in the source (`+=`, `::`, `..`).
    pub fn adjacent(&self, other: &Tok<'_>) -> bool {
        self.end == other.start
    }

    /// True for a numeric literal that is spelled as a float (`1.5`,
    /// `2e9`, `1f64`): has a fraction dot, an exponent, or an `f32`/
    /// `f64` suffix. String/char literals never qualify.
    pub fn is_float_literal(&self) -> bool {
        if self.kind != TokKind::Literal {
            return false;
        }
        let t = self.text;
        if !t.starts_with(|c: char| c.is_ascii_digit()) {
            return false;
        }
        if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
            return false;
        }
        if t.contains('.') || t.ends_with("f32") || t.ends_with("f64") {
            return true;
        }
        // An exponent `e`/`E` is followed by a digit or a sign; the `e`
        // of an integer suffix (`0usize`) never is.
        let bytes = t.as_bytes();
        bytes.iter().enumerate().any(|(i, &b)| {
            (b == b'e' || b == b'E')
                && matches!(bytes.get(i + 1), Some(c) if c.is_ascii_digit() || *c == b'+' || *c == b'-')
        })
    }
}

/// A parsed `mkss-lint:` control comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// mkss-lint: allow(rule-a, rule-b) — reason`
    Allow { rules: Vec<String>, reason: String },
    /// `// mkss-lint: ordering — reason`: justifies the atomic memory
    /// ordering chosen on this or the following line (rule
    /// `atomic-ordering-annotated`).
    Ordering { reason: String },
    /// A `mkss-lint:` comment that parses as none of the above; always
    /// reported (rule `malformed-directive`) so typos cannot silently
    /// disable enforcement.
    Malformed(String),
}

/// A directive and the line it appears on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    pub line: u32,
    pub kind: DirectiveKind,
}

/// Lexer output: the token stream plus any control directives.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub toks: Vec<Tok<'a>>,
    pub directives: Vec<Directive>,
}

/// Marker every control comment must contain.
pub const DIRECTIVE_TAG: &str = "mkss-lint:";

/// Parses the text of one comment (without the `//` / `#` lead-in) into
/// a directive, if it contains the [`DIRECTIVE_TAG`].
pub fn parse_directive(comment: &str, line: u32) -> Option<Directive> {
    let at = comment.find(DIRECTIVE_TAG)?;
    let rest = comment[at + DIRECTIVE_TAG.len()..].trim();
    let kind = if let Some(args) = rest.strip_prefix("allow(") {
        match args.split_once(')') {
            Some((list, tail)) => {
                let rules: Vec<String> = list
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let reason = reason_after(tail);
                if rules.is_empty() {
                    DirectiveKind::Malformed("allow() lists no rules".into())
                } else if reason.is_empty() {
                    DirectiveKind::Malformed(
                        "allow(...) needs a reason: `// mkss-lint: allow(rule) — why`".into(),
                    )
                } else {
                    DirectiveKind::Allow {
                        rules,
                        reason: reason.to_string(),
                    }
                }
            }
            None => DirectiveKind::Malformed("unterminated allow(".into()),
        }
    } else if let Some(tail) = rest.strip_prefix("ordering") {
        // `ordering — why this Ordering is strong/weak enough`. The
        // tail must start with a reason separator, so e.g. a future
        // `orderings` directive cannot silently alias this one.
        let reason = reason_after(tail);
        if tail.trim_start() == tail && !tail.is_empty() {
            DirectiveKind::Malformed(format!("unknown directive {rest:?}"))
        } else if reason.is_empty() {
            DirectiveKind::Malformed(
                "ordering needs a reason: `// mkss-lint: ordering — why`".into(),
            )
        } else {
            DirectiveKind::Ordering {
                reason: reason.to_string(),
            }
        }
    } else {
        DirectiveKind::Malformed(format!("unknown directive {rest:?}"))
    };
    Some(Directive { line, kind })
}

/// The mandatory reason after a directive head: `— why`, `- why`, or
/// `: why`. Empty when missing.
fn reason_after(tail: &str) -> &str {
    let tail = tail.trim_start();
    tail.strip_prefix('\u{2014}')
        .or_else(|| tail.strip_prefix('-'))
        .or_else(|| tail.strip_prefix(':'))
        .map(str::trim)
        .unwrap_or("")
}

/// Lexes `src`, producing tokens and directives.
///
/// The lexer is lossless about *placement* (every token knows its line
/// and byte span) and opaque about literal contents, which no rule
/// interprets beyond the float-literal shape test.
pub fn lex(src: &str) -> Lexed<'_> {
    Lexer {
        src,
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed<'a>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.b.get(self.i + ahead).copied().unwrap_or(0)
    }

    /// Pushes a token whose span is `start..self.i` and whose text is
    /// that same source slice.
    fn push_span(&mut self, kind: TokKind, start: usize, line: u32) {
        self.out.toks.push(Tok {
            kind,
            text: &self.src[start..self.i],
            line,
            start: start as u32,
            end: self.i as u32,
        });
    }

    fn run(mut self) -> Lexed<'a> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => self.string_literal(self.i),
                b'\'' => self.char_or_lifetime(self.i),
                b'r' | b'b' if self.raw_or_byte_prefix() => {}
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => {
                    // Multi-byte UTF-8 (arrows in comments never reach
                    // here, but be safe) advances past the whole char.
                    let ch = self.src[self.i..].chars().next().unwrap_or('\u{fffd}');
                    let start = self.i;
                    self.i += ch.len_utf8();
                    self.push_span(TokKind::Punct(ch), start, self.line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let text = &self.src[start..self.i];
        // Only plain `//` comments carry directives; doc text (`///`,
        // `//!`) is documentation, not control flow. `////…` is a plain
        // comment again (rustdoc's rule).
        let doc = text.starts_with("//!") || (text.starts_with("///") && !text.starts_with("////"));
        if doc {
            return;
        }
        if let Some(d) = parse_directive(text, self.line) {
            self.out.directives.push(d);
        }
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == b'*' => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == b'/' => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Consumes a `"..."` literal (escapes understood, may span lines).
    /// `anchor` is where the token began (before any `b` prefix).
    fn string_literal(&mut self, anchor: usize) {
        let line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    // A `\` + newline is the line-continuation escape;
                    // the newline it swallows still advances the line.
                    // Clamp: an unterminated literal ending in `\` must
                    // not run the cursor past the buffer.
                    if self.peek(1) == b'\n' {
                        self.line += 1;
                    }
                    self.i = (self.i + 2).min(self.b.len());
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_span(TokKind::Literal, anchor, line);
    }

    /// `'a'` / `'\n'` / `'…'` are char literals; `'a` / `'static` are
    /// lifetimes (skipped entirely — no rule looks at them). `anchor`
    /// is where the token began (before any `b` prefix).
    fn char_or_lifetime(&mut self, anchor: usize) {
        let next = self.peek(1);
        let is_char = next == b'\\'
            || !next.is_ascii()
            || (next != 0 && self.peek(2) == b'\'' && next != b'\'');
        if is_char {
            self.i += 1;
            while self.i < self.b.len() {
                match self.b[self.i] {
                    b'\\' => self.i = (self.i + 2).min(self.b.len()),
                    b'\'' => {
                        self.i += 1;
                        break;
                    }
                    b'\n' => break, // malformed; bail at line end
                    _ => self.i += 1,
                }
            }
            self.push_span(TokKind::Literal, anchor, self.line);
        } else {
            // Lifetime: skip the quote and the label.
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, and raw
    /// identifiers `r#ident`. Returns false when the `r`/`b` is just the
    /// start of a plain identifier.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let anchor = self.i;
        let mut j = self.i + 1;
        if self.b[self.i] == b'b' {
            match self.peek(1) {
                b'\'' => {
                    // Byte char literal b'x'.
                    self.i += 1;
                    self.char_or_lifetime(anchor);
                    return true;
                }
                b'"' => {
                    self.i += 1;
                    self.string_literal(anchor);
                    return true;
                }
                b'r' => j = self.i + 2,
                _ => return false,
            }
        }
        // At `r…`: count hashes, then expect a quote (raw string) or an
        // identifier start (raw identifier).
        let mut hashes = 0usize;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        match self.b.get(j) {
            Some(&b'"') => {
                let line = self.line;
                self.i = j + 1;
                // Scan for `"` followed by `hashes` hashes.
                'outer: while self.i < self.b.len() {
                    if self.b[self.i] == b'\n' {
                        self.line += 1;
                    } else if self.b[self.i] == b'"' {
                        for h in 0..hashes {
                            if self.b.get(self.i + 1 + h) != Some(&b'#') {
                                self.i += 1;
                                continue 'outer;
                            }
                        }
                        self.i += 1 + hashes;
                        self.push_span(TokKind::Literal, anchor, line);
                        return true;
                    }
                    self.i += 1;
                }
                self.push_span(TokKind::Literal, anchor, line);
                true
            }
            Some(&c) if hashes == 1 && self.b[self.i] == b'r' && is_ident_start(c) => {
                // Raw identifier r#ident: the text is the bare ident,
                // the span covers the `r#` prefix.
                let text_start = j;
                self.i = j;
                while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                    self.i += 1;
                }
                self.out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &self.src[text_start..self.i],
                    line: self.line,
                    start: anchor as u32,
                    end: self.i as u32,
                });
                true
            }
            _ => false,
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push_span(TokKind::Ident, start, self.line);
    }

    fn number(&mut self) {
        let start = self.i;
        // Integer part (also eats hex/suffix letters: 0x1F, 10u64, 1e9).
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            let c = self.b[self.i];
            self.i += 1;
            // Exponent sign in suffix-free exponents: `1e-9`.
            if (c == b'e' || c == b'E')
                && !self.src[start..].starts_with("0x")
                && matches!(self.peek(0), b'+' | b'-')
                && self.peek(1).is_ascii_digit()
            {
                self.i += 1;
            }
        }
        // Fraction: only when `.` is followed by a digit (so `1..n` and
        // `1.min(x)` stay separate tokens).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                let c = self.b[self.i];
                self.i += 1;
                // Exponent sign: `1.5e-3`.
                if (c == b'e' || c == b'E') && matches!(self.peek(0), b'+' | b'-') {
                    self.i += 1;
                }
            }
        }
        self.push_span(TokKind::Literal, start, self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let src = r##"
            // unwrap() in a comment
            /* HashMap in /* nested */ block */
            let s = "Vec::new() inside a string";
            let r = r#"format! raw "quoted" text"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".into()));
        assert!(!ids.contains(&"HashMap".into()));
        assert!(!ids.contains(&"Vec".into()));
        assert!(!ids.contains(&"format".into()));
        assert!(ids.contains(&"let".into()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let ids = idents("fn f<'a>(x: &'a str) -> char { 'x' } // 'y'");
        assert!(ids.contains(&"str".into()));
        // The lifetime label never becomes an identifier token.
        assert!(!ids.contains(&"a".into()));
        let lexed = lex("let c = '\\n'; let d = '…';");
        let lits = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn raw_identifiers_lex_as_plain_idents() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
        // The span still covers the `r#` prefix.
        let lexed = lex("let r#type = 1;");
        let t = lexed.toks.iter().find(|t| t.is_ident("type")).unwrap();
        assert_eq!(
            &"let r#type = 1;"[t.start as usize..t.end as usize],
            "r#type"
        );
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let lexed = lex(src);
        let b_tok = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
        // `\` + newline (line continuation) swallows the newline but the
        // escaped newline still counts toward the line number.
        let src = "let a = \"one \\\n two \\\n three\";\nlet b = 1;";
        let lexed = lex(src);
        let b_tok = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 4);
    }

    #[test]
    fn unterminated_literals_ending_in_backslash_stay_in_bounds() {
        // The escape skip must not run the cursor past the buffer.
        for src in ["let s = \"oops\\", "let c = '\\", "\"\\", "'\\"] {
            let lexed = lex(src);
            for t in &lexed.toks {
                assert!(t.end as usize <= src.len(), "{src:?}: {t:?}");
            }
        }
    }

    #[test]
    fn directives_parse() {
        let src = "\
// mkss-lint: allow(lock-discipline, float-fold-determinism) — proven above
// mkss-lint: allow(x)
/// mkss-lint: allow(doc) — doc comments are not directives
// mkss-lint: hot-path begin";
        let d = lex(src).directives;
        assert_eq!(d.len(), 3); // the doc comment is skipped
        match &d[0].kind {
            DirectiveKind::Allow { rules, reason } => {
                assert_eq!(rules, &["lock-discipline", "float-fold-determinism"]);
                assert_eq!(reason, "proven above");
            }
            other => panic!("expected allow, got {other:?}"),
        }
        assert!(matches!(d[1].kind, DirectiveKind::Malformed(_)));
        // The retired region marker is an unknown directive.
        assert!(matches!(d[2].kind, DirectiveKind::Malformed(_)));
        assert_eq!(d[2].line, 4);
    }

    #[test]
    fn ordering_directive_parses() {
        let d = lex("// mkss-lint: ordering — counter is telemetry only").directives;
        assert_eq!(d.len(), 1);
        match &d[0].kind {
            DirectiveKind::Ordering { reason } => {
                assert_eq!(reason, "counter is telemetry only");
            }
            other => panic!("expected ordering, got {other:?}"),
        }
        // Missing reason and glued tails are malformed, not silently ok.
        let d = lex("// mkss-lint: ordering").directives;
        assert!(matches!(d[0].kind, DirectiveKind::Malformed(_)));
        let d = lex("// mkss-lint: orderings — nope").directives;
        assert!(matches!(d[0].kind, DirectiveKind::Malformed(_)));
    }

    #[test]
    fn numeric_ranges_do_not_eat_dots() {
        let lexed = lex("for i in 0..10 { x[i] = 1.5e-3; }");
        let dots = lexed.toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2); // the `..` of the range, not the float's
    }

    #[test]
    fn float_literal_shapes() {
        // `0usize` contains an `e` but it is a suffix, not an exponent.
        let lexed = lex("let a = (1.5, 2e9, 3f64, 7, 0x1F, 10u64, 1e-9, 0usize);");
        let floats: Vec<bool> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(Tok::is_float_literal)
            .collect();
        assert_eq!(
            floats,
            vec![true, true, true, false, false, false, true, false]
        );
    }

    #[test]
    fn spans_reconstruct_source() {
        let src = "fn f(x: &'a str) -> f64 { x.len() as f64 + 1.5e-3 }";
        let lexed = lex(src);
        for w in lexed.toks.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {:?} {:?}", w[0], w[1]);
        }
        let joined: String = lexed
            .toks
            .iter()
            .map(|t| &src[t.start as usize..t.end as usize])
            .collect::<Vec<_>>()
            .join("");
        assert_eq!(
            joined.replace(' ', ""),
            src.replace("'a", "").replace(' ', "")
        );
    }
}
