//! The item-level layer of mkss-lint: a lightweight parser that turns
//! the token stream into *items* (fns, impls, structs, enums, traits,
//! mods) with brace-matched body spans, plus a workspace-wide
//! [`ItemGraph`] shared by every rule.
//!
//! This is deliberately not a full Rust parser. It recognises item
//! *skeletons* — attributes, visibility, the declaring keyword, the
//! name, and the balanced `{…}` body — and stays heuristic about
//! everything inside expression position. On anything it does not
//! understand it skips a token and resynchronises, so a novel construct
//! degrades to "no item recorded", never to a crash or a false claim.
//!
//! What the rules get out of it:
//!
//! * `float-fold-determinism` resolves struct fields and float
//!   newtypes (`Energy(f64)`) through [`ItemGraph::float_fields`] /
//!   [`ItemGraph::float_newtypes`], return types through the enclosing
//!   fn signature span, and `self.0 +=` through the enclosing impl;
//! * `lock-discipline` analyses one fn body at a time via
//!   [`FileItems::fn_bodies`];
//! * every rule skips the test-only items in
//!   [`FileItems::test_ranges`].

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Union,
    Enum,
    Trait,
    TypeAlias,
    Const,
    Static,
    Mod,
    Impl,
    Macro,
}

/// One parsed item skeleton.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Declared name; for impls the self-type name instead.
    pub name: String,
    /// Index of the item's first token (first attribute, visibility,
    /// or keyword token).
    pub first_tok: usize,
    /// Token indices of the `{` and matching `}` of the body, if any.
    pub body: Option<(usize, usize)>,
}

/// A struct's fields, for the float-propagation analysis.
#[derive(Debug, Clone)]
pub struct StructInfo {
    pub name: String,
    /// Named fields as `(name, type head)` — the head is the last path
    /// segment of the field's type (`Energy` for `crate::power::Energy`,
    /// `f64` for `[f64; 2]`).
    pub fields: Vec<(String, String)>,
    /// Tuple-struct element type heads, in order.
    pub tuple_heads: Vec<String>,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub items: Vec<Item>,
    pub structs: Vec<StructInfo>,
    /// Token ranges `first..end` of test-only items: those carrying
    /// `#[cfg(test)]`, `#[test]` or `#[bench]`, and everything after a
    /// `#![cfg(test)]` to the end of its file or module.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileItems {
    /// Token ranges `(sig_start, open, close)` of every fn body: the
    /// signature starts at the fn's first token, the body is
    /// `toks[open..=close]` with braces included.
    pub fn fn_bodies(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.items.iter().filter_map(|it| {
            if it.kind != ItemKind::Fn {
                return None;
            }
            it.body.map(|(open, close)| (it.first_tok, open, close))
        })
    }
}

/// Parses one lexed file into its item skeletons.
pub fn parse<'a>(lexed: &Lexed<'a>) -> FileItems {
    let mut p = P {
        toks: &lexed.toks,
        out: FileItems::default(),
    };
    p.items_in(0, lexed.toks.len());
    p.out
}

struct P<'a, 't> {
    toks: &'t [Tok<'a>],
    out: FileItems,
}

impl<'a, 't> P<'a, 't> {
    fn tok(&self, i: usize) -> Tok<'a> {
        const NONE: Tok<'static> = Tok {
            kind: TokKind::Punct('\0'),
            text: "",
            line: 0,
            start: 0,
            end: 0,
        };
        self.toks.get(i).copied().unwrap_or(NONE)
    }

    fn items_in(&mut self, mut i: usize, hi: usize) {
        while i < hi {
            i = self.item_at(i, hi);
        }
    }

    /// Parses one item starting at `i`; returns the index past it. On
    /// anything unrecognised, advances one token (resynchronisation).
    fn item_at(&mut self, i: usize, hi: usize) -> usize {
        // Attributes. `#![…]` inner attributes belong to the enclosing
        // scope: they are skipped, and `#![cfg(test)]` marks the rest of
        // that scope test-only.
        let mut j = i;
        let mut outer_start = i;
        let mut test_only = false;
        loop {
            let inner = self.tok(j).is_punct('#') && self.tok(j + 1).is_punct('!');
            let open = if inner { j + 2 } else { j + 1 };
            if j < hi && self.tok(j).is_punct('#') && self.tok(open).is_punct('[') {
                let end = self.skip_balanced(open, '[', ']', hi);
                let is_test = self.is_test_attr(open + 1, end - 1);
                if inner {
                    if is_test {
                        self.out.test_ranges.push((i, hi));
                    }
                    outer_start = end;
                } else {
                    test_only |= is_test;
                }
                j = end;
            } else {
                break;
            }
        }
        let end = self.item_after_attrs(i, j, hi);
        if test_only {
            self.out.test_ranges.push((outer_start, end.min(hi)));
        }
        end
    }

    /// Whether the attribute between brackets, `toks[lo..hi]`, is
    /// exactly `test`, `bench` or `cfg(test)`.
    fn is_test_attr(&self, lo: usize, hi: usize) -> bool {
        let words: Vec<&str> = (lo..hi).map(|k| self.tok(k).text).collect();
        matches!(
            words.as_slice(),
            ["test"] | ["bench"] | ["cfg", "(", "test", ")"]
        )
    }

    /// Parses the item whose attributes span `first..j`.
    fn item_after_attrs(&mut self, first: usize, mut j: usize, hi: usize) -> usize {
        // Visibility.
        if self.tok(j).is_ident("pub") {
            j += 1;
            if self.tok(j).is_punct('(') {
                j = self.skip_balanced(j, '(', ')', hi);
            }
        }

        // Modifier keywords before the declaring keyword.
        loop {
            let t = self.tok(j);
            if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("default") {
                j += 1;
            } else if t.is_ident("extern") && !self.tok(j + 1).is_ident("crate") {
                j += 1;
                if self.tok(j).kind == TokKind::Literal {
                    j += 1; // the ABI string: extern "C" fn …
                }
            } else if t.is_ident("const")
                && (self.tok(j + 1).is_ident("fn") || self.tok(j + 1).is_ident("unsafe"))
            {
                j += 1; // `const fn` / `const unsafe fn`
            } else {
                break;
            }
        }

        let kw = self.tok(j);
        if kw.kind != TokKind::Ident {
            return j.max(first) + 1;
        }
        match kw.text {
            "fn" => self.finish_fn(first, j, hi),
            "struct" | "union" => self.finish_struct(first, j, hi),
            "enum" | "trait" => {
                let kind = if kw.text == "enum" {
                    ItemKind::Enum
                } else {
                    ItemKind::Trait
                };
                let name = self.tok(j + 1).text.to_string();
                let (body, end) = self.find_body_or_semi(j + 2, hi);
                self.out.items.push(Item {
                    kind,
                    name,
                    first_tok: first,
                    body,
                });
                end
            }
            "impl" => self.finish_impl(first, j, hi),
            "mod" => {
                let name = self.tok(j + 1).text.to_string();
                let (body, end) = self.find_body_or_semi(j + 2, hi);
                self.out.items.push(Item {
                    kind: ItemKind::Mod,
                    name,
                    first_tok: first,
                    body,
                });
                if let Some((open, close)) = body {
                    self.items_in(open + 1, close);
                }
                end
            }
            "use" => self.skip_to_semi(j + 1, hi),
            "const" | "static" => {
                let mut n = j + 1;
                if self.tok(n).is_ident("mut") {
                    n += 1;
                }
                let name = self.tok(n).text.to_string();
                let kind = if kw.text == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let end = self.skip_to_semi(n + 1, hi);
                self.out.items.push(Item {
                    kind,
                    name,
                    first_tok: first,
                    body: None,
                });
                end
            }
            "type" => {
                let name = self.tok(j + 1).text.to_string();
                let end = self.skip_to_semi(j + 2, hi);
                self.out.items.push(Item {
                    kind: ItemKind::TypeAlias,
                    name,
                    first_tok: first,
                    body: None,
                });
                end
            }
            "macro_rules" => {
                // macro_rules! name { … }
                let name = self.tok(j + 2).text.to_string();
                let (body, end) = self.find_body_or_semi(j + 3, hi);
                self.out.items.push(Item {
                    kind: ItemKind::Macro,
                    name,
                    first_tok: first,
                    body,
                });
                end
            }
            _ => j + 1,
        }
    }

    /// Skips a balanced `open…close` group starting at `open`'s index;
    /// returns the index past the closer.
    fn skip_balanced(&self, at: usize, open: char, close: char, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut j = at;
        while j < hi {
            if self.tok(j).is_punct(open) {
                depth += 1;
            } else if self.tok(j).is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        hi
    }

    /// From `from`, finds either a `;` or the first `{` at zero
    /// paren/bracket depth, skipping its balanced body. Returns
    /// (body token range, index past the item).
    fn find_body_or_semi(&self, from: usize, hi: usize) -> (Option<(usize, usize)>, usize) {
        let mut j = from;
        let mut depth = 0i32;
        while j < hi {
            match self.tok(j).kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => return (None, j + 1),
                TokKind::Punct('{') if depth <= 0 => {
                    let end = self.skip_balanced(j, '{', '}', hi);
                    return (Some((j, end - 1)), end);
                }
                _ => {}
            }
            j += 1;
        }
        (None, hi)
    }

    /// Skips to the `;` terminating a const/static/type item, balancing
    /// every bracket kind (initialisers may contain `{ … }` blocks).
    fn skip_to_semi(&self, from: usize, hi: usize) -> usize {
        let mut j = from;
        let mut depth = 0i32;
        while j < hi {
            match self.tok(j).kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        hi
    }

    fn finish_fn(&mut self, first: usize, kw: usize, hi: usize) -> usize {
        let name = self.tok(kw + 1).text.to_string();
        let (body, end) = self.find_body_or_semi(kw + 2, hi);
        self.out.items.push(Item {
            kind: ItemKind::Fn,
            name,
            first_tok: first,
            body,
        });
        end
    }

    fn finish_struct(&mut self, first: usize, kw: usize, hi: usize) -> usize {
        let name = self.tok(kw + 1).text.to_string();
        let kind = if self.tok(kw).text == "union" {
            ItemKind::Union
        } else {
            ItemKind::Struct
        };
        let mut j = kw + 2;
        if self.tok(j).is_punct('<') {
            j = self.skip_generics(j, hi);
        }
        let mut info = StructInfo {
            name: name.clone(),
            fields: Vec::new(),
            tuple_heads: Vec::new(),
        };
        let (body, end);
        if self.tok(j).is_punct('(') {
            // Tuple struct: element heads, then `;` (maybe a where
            // clause in between).
            let close = self.skip_balanced(j, '(', ')', hi) - 1;
            info.tuple_heads = self.tuple_elem_heads(j + 1, close);
            body = None;
            end = self.skip_to_semi(close + 1, hi);
        } else if self.tok(j).is_ident("where") || self.tok(j).is_punct('{') {
            while j < hi && !self.tok(j).is_punct('{') && !self.tok(j).is_punct(';') {
                j += 1;
            }
            if self.tok(j).is_punct('{') {
                let close = self.skip_balanced(j, '{', '}', hi) - 1;
                info.fields = self.named_field_heads(j + 1, close);
                body = Some((j, close));
                end = close + 1;
            } else {
                body = None;
                end = (j + 1).min(hi);
            }
        } else {
            // Unit struct `struct X;`.
            body = None;
            end = self.skip_to_semi(j, hi);
        }
        self.out.structs.push(info);
        self.out.items.push(Item {
            kind,
            name,
            first_tok: first,
            body,
        });
        end
    }

    /// Skips a `<…>` generics group, `->`-aware (the `>` of an arrow
    /// inside `Fn() -> T` bounds is not a closer).
    fn skip_generics(&self, at: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut j = at;
        while j < hi {
            let t = self.tok(j);
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = j > 0 && self.tok(j - 1).is_punct('-') && self.tok(j - 1).adjacent(&t);
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            j += 1;
        }
        hi
    }

    /// Type heads of a tuple struct's elements between `(`+1 and `)`.
    fn tuple_elem_heads(&self, lo: usize, close: usize) -> Vec<String> {
        let mut heads = Vec::new();
        let mut j = lo;
        let mut start = lo;
        let mut depth = 0i32;
        while j <= close {
            let t = self.tok(j);
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            }
            if (t.is_punct(',') && depth == 0) || j == close {
                if start < j {
                    heads.push(self.type_head(start, j));
                }
                start = j + 1;
            }
            j += 1;
        }
        heads
    }

    /// Named struct fields between `{`+1 and `}` as (name, type head).
    fn named_field_heads(&self, lo: usize, close: usize) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        let mut j = lo;
        while j < close {
            // Skip attributes and visibility on the field.
            while self.tok(j).is_punct('#') && self.tok(j + 1).is_punct('[') {
                j = self.skip_balanced(j + 1, '[', ']', close + 1);
            }
            if self.tok(j).is_ident("pub") {
                j += 1;
                if self.tok(j).is_punct('(') {
                    j = self.skip_balanced(j, '(', ')', close + 1);
                }
            }
            if self.tok(j).kind == TokKind::Ident && self.tok(j + 1).is_punct(':') {
                let name = self.tok(j).text.to_string();
                let ty_start = j + 2;
                // Field type runs to the `,` at depth 0 or the `}`.
                let mut depth = 0i32;
                let mut k = ty_start;
                while k < close {
                    let t = self.tok(k);
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || t.is_punct('}')
                        || (t.is_punct('>')
                            && !(k > 0
                                && self.tok(k - 1).is_punct('-')
                                && self.tok(k - 1).adjacent(&t)))
                    {
                        depth -= 1;
                    } else if t.is_punct(',') && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                fields.push((name, self.type_head(ty_start, k)));
                j = k + 1;
            } else {
                j += 1;
            }
        }
        fields
    }

    /// The head of a type token run: the last segment of its first
    /// path, skipping reference/array/pointer/qualifier noise.
    /// `&'a mut crate::power::Energy` → `Energy`; `[f64; 2]` → `f64`;
    /// `Vec<Finding>` → `Vec`.
    fn type_head(&self, lo: usize, hi: usize) -> String {
        let mut j = lo;
        while j < hi {
            let t = self.tok(j);
            // Tuple elements carry their own visibility (`Energy(pub f64)`).
            if t.is_ident("pub") {
                j += 1;
                if self.tok(j).is_punct('(') {
                    j = self.skip_balanced(j, '(', ')', hi);
                }
                continue;
            }
            let skip = matches!(t.kind, TokKind::Punct('&' | '*' | '[' | '(' | '<'))
                || t.is_ident("dyn")
                || t.is_ident("mut")
                || t.is_ident("impl")
                || t.is_ident("const");
            if !skip {
                break;
            }
            j += 1;
        }
        if self.tok(j).kind != TokKind::Ident {
            return String::new();
        }
        let mut head = self.tok(j).text;
        // Follow `::` segments to the path's last ident.
        while self.tok(j + 1).is_punct(':')
            && self.tok(j + 2).is_punct(':')
            && self.tok(j + 3).kind == TokKind::Ident
            && j + 3 < hi
        {
            head = self.tok(j + 3).text;
            j += 3;
        }
        head.to_string()
    }

    fn finish_impl(&mut self, first: usize, kw: usize, hi: usize) -> usize {
        let mut j = kw + 1;
        if self.tok(j).is_punct('<') {
            j = self.skip_generics(j, hi);
        }
        // Read the head until `{` / `where`, noting a depth-0 `for`.
        let mut depth = 0i32;
        let mut for_at: Option<usize> = None;
        let head_start = j;
        while j < hi {
            let t = self.tok(j);
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                // `->` arrows: `>` handled below, `<` always opens.
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = j > 0 && self.tok(j - 1).is_punct('-') && self.tok(j - 1).adjacent(&t);
                if !arrow {
                    depth -= 1;
                }
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth <= 0 && t.is_ident("for") {
                for_at = Some(j);
            } else if depth <= 0 && (t.is_punct('{') || t.is_ident("where")) {
                break;
            }
            j += 1;
        }
        let ty_start = for_at.map_or(head_start, |f| f + 1);
        let self_ty = self.last_depth0_ident(ty_start, j);
        while j < hi && !self.tok(j).is_punct('{') {
            j += 1;
        }
        let (body, end) = if self.tok(j).is_punct('{') {
            let close = self.skip_balanced(j, '{', '}', hi) - 1;
            (Some((j, close)), close + 1)
        } else {
            (None, hi)
        };
        self.out.items.push(Item {
            kind: ItemKind::Impl,
            name: self_ty,
            first_tok: first,
            body,
        });
        if let Some((open, close)) = body {
            self.items_in(open + 1, close);
        }
        end
    }

    /// Last identifier at angle-depth 0 in `lo..hi` (the self-type name
    /// of an impl head: `Vec<Finding>` → `Vec`).
    fn last_depth0_ident(&self, lo: usize, hi: usize) -> String {
        let mut depth = 0i32;
        let mut last = "";
        for j in lo..hi {
            let t = self.tok(j);
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = j > 0 && self.tok(j - 1).is_punct('-') && self.tok(j - 1).adjacent(&t);
                if !arrow {
                    depth -= 1;
                }
            } else if depth <= 0 && t.kind == TokKind::Ident && !t.is_ident("where") {
                last = t.text;
            }
        }
        last.to_string()
    }
}

// ---------------------------------------------------------------------
// The workspace-wide item graph
// ---------------------------------------------------------------------

/// Cross-file facts every rule can consult. Collections are BTree so
/// iteration (and therefore reporting) is deterministic.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Tuple structs in library crates whose elements are floats
    /// (`struct Energy(f64)`), closed transitively.
    pub float_newtypes: BTreeSet<String>,
    /// Named struct fields in library crates whose type head is a
    /// float or a float newtype.
    pub float_fields: BTreeSet<String>,
}

impl ItemGraph {
    /// Builds the graph over every parsed file in the lint universe.
    pub fn build(files: &[(&str, &FileItems)]) -> ItemGraph {
        let mut g = ItemGraph::default();
        // Float newtypes close transitively (`struct J(Energy)`); two
        // rounds reach a fixpoint for any sane nesting depth.
        for _ in 0..3 {
            let mut changed = false;
            for (path, items) in files {
                if !crate::rules::scope::in_lib_crate(path) {
                    continue;
                }
                for s in &items.structs {
                    let floaty = s
                        .tuple_heads
                        .iter()
                        .any(|h| h == "f64" || h == "f32" || g.float_newtypes.contains(h));
                    if floaty && g.float_newtypes.insert(s.name.clone()) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (path, items) in files {
            if !crate::rules::scope::in_lib_crate(path) {
                continue;
            }
            for s in &items.structs {
                for (name, head) in &s.fields {
                    if head == "f64" || head == "f32" || g.float_newtypes.contains(head) {
                        g.float_fields.insert(name.clone());
                    }
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileItems {
        parse(&lex(src))
    }

    #[test]
    fn fn_and_struct_skeletons() {
        let src = "\
/// Documented.
pub fn f(x: u32) -> u32 { x + 1 }
struct Energy(f64);
pub struct Row { pub wcet: u64, energy: crate::power::Energy }
";
        let fi = parse_src(src);
        let f = &fi.items[0];
        assert_eq!((f.kind, f.name.as_str()), (ItemKind::Fn, "f"));
        assert!(f.body.is_some());
        let e = &fi.structs[0];
        assert_eq!(e.tuple_heads, vec!["f64"]);
        let r = &fi.structs[1];
        assert_eq!(
            r.fields,
            vec![
                ("wcet".to_string(), "u64".to_string()),
                ("energy".to_string(), "Energy".to_string())
            ]
        );
    }

    #[test]
    fn impls_and_nesting() {
        let src = "\
impl Display for Energy { fn fmt(&self) {} }
impl<T> Wrapper<T> { pub fn get(&self) -> f64 { self.0 } }
mod inner { pub fn hidden() {} }
";
        let fi = parse_src(src);
        let impls: Vec<_> = fi
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Impl)
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(impls, vec!["Energy", "Wrapper"]);
        // Fns nested in impls and mods are items too, with bodies.
        let fns: Vec<_> = fi
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn && i.body.is_some())
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(fns, vec!["fmt", "get", "hidden"]);
    }

    #[test]
    fn attributes_are_skipped() {
        // Single-line, multi-line and inner attributes all resolve to
        // the item they decorate; `use` declarations are skipped.
        let src = "#![forbid(unsafe_code)]\nuse std::fmt;\n\
#[non_exhaustive]\npub enum A { X }\n\
#[derive(\n    Clone,\n    Copy\n)]\npub struct Time(u64);\n";
        let fi = parse_src(src);
        let items: Vec<_> = fi.items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            items,
            vec![(ItemKind::Enum, "A"), (ItemKind::Struct, "Time")]
        );
    }

    #[test]
    fn graph_float_propagation() {
        let a = parse_src("pub struct Energy(f64);\npub struct Joules(Energy);");
        let b = parse_src("pub struct S { idle: Joules, count: u64 }");
        let files = vec![
            ("crates/sim/src/power.rs", &a),
            ("crates/sim/src/engine.rs", &b),
        ];
        let g = ItemGraph::build(&files);
        assert!(g.float_newtypes.contains("Energy"));
        assert!(g.float_newtypes.contains("Joules"));
        assert!(g.float_fields.contains("idle"));
        assert!(!g.float_fields.contains("count"));
    }

    #[test]
    fn fn_body_with_const_generics_and_closures() {
        let src = "pub fn f<const N: usize>(xs: [u8; N]) -> impl Fn(u32) -> u32 {\n\
                       move |x| x + xs.len() as u32\n\
                   }\nfn g();\n";
        let fi = parse_src(src);
        assert_eq!(fi.items.len(), 2);
        assert!(fi.items[0].body.is_some());
        assert!(fi.items[1].body.is_none());
    }
}
