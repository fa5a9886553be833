//! An item-level Rust parser over the [`crate::lexer`] token stream.
//!
//! This is not a full grammar — it recovers exactly the structure the
//! analysis passes need: function definitions (name, owner type, params,
//! body token range), enum definitions (variants with lines), impl blocks,
//! and whether each item sits under `#[cfg(test)]` / `#[test]`, with the
//! token range of every test-only item for the token rules. Everything
//! it does not understand it skips with balanced-delimiter recovery, so a
//! construct outside the recognized subset degrades the analysis (a
//! function not parsed is a function not checked) rather than corrupting
//! it. The known false-negative classes are documented in DESIGN.md §14.

use crate::lexer::{ident_at, tok_at, Tok, Token};

/// A parsed function (free function, impl method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` self-type owning the method, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the item (or an enclosing item) is test-only.
    pub is_test: bool,
    /// Parameter names in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// Whether the signature declares a return type.
    pub has_ret: bool,
    /// Body token range `[start, end)` into the file's token stream, or
    /// `None` for bodyless signatures (trait methods, extern decls).
    pub body: Option<(usize, usize)>,
}

/// One enum variant: name and 1-based definition line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// The variant's name.
    pub name: String,
    /// 1-based line of the variant identifier.
    pub line: u32,
}

/// A parsed enum definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Whether the enum is test-only.
    pub is_test: bool,
    /// The variants in declaration order.
    pub variants: Vec<Variant>,
}

/// A parsed struct definition (field names feed the growth/panic passes).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields as `(name, last type-path segment)` pairs, e.g.
    /// `("tasks", "BTreeMap")`. Tuple structs have no entries.
    pub fields: Vec<(String, String)>,
}

/// Everything parsed from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All function definitions, in source order (impl methods included).
    pub fns: Vec<FnDef>,
    /// All enum definitions.
    pub enums: Vec<EnumDef>,
    /// All struct definitions.
    pub structs: Vec<StructDef>,
    /// Token ranges `[start, end)` of the outermost test-only items, from
    /// the item's first attribute to its end, ascending and disjoint. The
    /// token rules skip them (test code is exempt from every rule).
    pub test_ranges: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Looks up an enum by name.
    pub fn enum_named(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }
}

/// Parses a lexed token stream into items.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(tokens, 0, tokens.len(), false, None, &mut out);
    out
}

/// Skips a balanced delimiter run starting at `i` (which must sit on the
/// opening delimiter); returns the index just past the matching closer.
/// Only the *same* delimiter kind participates in the balance — Rust
/// guarantees brackets of different kinds nest properly, so this is safe.
fn skip_balanced(tokens: &[Token], i: usize, open: &Tok, close: &Tok) -> usize {
    debug_assert_eq!(tok_at(tokens, i), Some(open));
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j].tok;
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skips a generics list starting at `<`. `>` tokens that are part of a
/// `->` arrow do not close the list (e.g. `fn f<F: Fn() -> u64>()`).
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    debug_assert_eq!(tok_at(tokens, i), Some(&Tok::Other('<')));
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Other('<') => depth += 1,
            Tok::Other('>') => {
                let arrow = j > 0 && tokens[j - 1].tok == Tok::Other('-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Whether the attribute starting at `i` (a `#`) marks test-only code.
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    let outer = tok_at(tokens, i + 1) == Some(&Tok::OpenBracket);
    if !outer {
        return false;
    }
    (ident_at(tokens, i + 2) == Some("test") && tok_at(tokens, i + 3) == Some(&Tok::CloseBracket))
        || (ident_at(tokens, i + 2) == Some("cfg")
            && tok_at(tokens, i + 3) == Some(&Tok::OpenParen)
            && ident_at(tokens, i + 4) == Some("test")
            && tok_at(tokens, i + 5) == Some(&Tok::CloseParen)
            && tok_at(tokens, i + 6) == Some(&Tok::CloseBracket))
}

/// Parses items in `tokens[i..end]`, appending to `out`.
fn parse_items(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    in_test: bool,
    owner: Option<&str>,
    out: &mut ParsedFile,
) {
    while i < end {
        let start = i;
        // Attributes: accumulate test-ness, then fall through to the item.
        let mut item_test = in_test;
        while tok_at(tokens, i) == Some(&Tok::Pound) {
            if is_test_attr(tokens, i) {
                item_test = true;
            }
            // `#[...]` or `#![...]`.
            let mut j = i + 1;
            if tok_at(tokens, j) == Some(&Tok::Other('!')) {
                j += 1;
            }
            if tok_at(tokens, j) == Some(&Tok::OpenBracket) {
                i = skip_balanced(tokens, j, &Tok::OpenBracket, &Tok::CloseBracket);
            } else {
                i = j;
            }
        }
        // Modifiers in front of `fn` / `impl` / `trait` belong to the item.
        loop {
            match ident_at(tokens, i) {
                Some("pub") => {
                    i += 1;
                    if tok_at(tokens, i) == Some(&Tok::OpenParen) {
                        i = skip_balanced(tokens, i, &Tok::OpenParen, &Tok::CloseParen);
                    }
                }
                // `const` here only as a fn qualifier (`const fn`); the
                // `const NAME: …` item form is handled below because no
                // declaration keyword follows.
                Some(w @ ("unsafe" | "async" | "const" | "default" | "extern"))
                    if next_decl_follows(tokens, i, end) =>
                {
                    i += 1;
                    if w == "extern" && tok_at(tokens, i) == Some(&Tok::Literal) {
                        i += 1; // the ABI string in `extern "C" fn`
                    }
                }
                _ => break,
            }
        }
        if i >= end {
            break;
        }
        let Some(word) = ident_at(tokens, i) else {
            // Stray punctuation at item level (macro invocation bodies,
            // `;`, …): skip delimiters balanced, everything else singly.
            i = match tok_at(tokens, i) {
                Some(Tok::OpenBrace) => skip_balanced(tokens, i, &Tok::OpenBrace, &Tok::CloseBrace),
                Some(Tok::OpenParen) => skip_balanced(tokens, i, &Tok::OpenParen, &Tok::CloseParen),
                Some(Tok::OpenBracket) => {
                    skip_balanced(tokens, i, &Tok::OpenBracket, &Tok::CloseBracket)
                }
                _ => i + 1,
            };
            continue;
        };
        match word {
            "fn" => {
                i = parse_fn(tokens, i, item_test, owner, out);
            }
            "enum" => {
                i = parse_enum(tokens, i, item_test, out);
            }
            "struct" | "union" => {
                i = parse_struct(tokens, i, out);
            }
            "impl" => {
                i = parse_impl(tokens, i, end, item_test, out);
            }
            "trait" => {
                // `trait Name … { items }` — default methods have bodies.
                let name = ident_at(tokens, i + 1).unwrap_or("").to_string();
                let mut j = i + 2;
                while j < end && tok_at(tokens, j) != Some(&Tok::OpenBrace) {
                    if tok_at(tokens, j) == Some(&Tok::Other(';')) {
                        break;
                    }
                    j += 1;
                }
                if tok_at(tokens, j) == Some(&Tok::OpenBrace) {
                    let body_end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
                    parse_items(tokens, j + 1, body_end - 1, item_test, Some(&name), out);
                    i = body_end;
                } else {
                    i = j + 1;
                }
            }
            "mod" => {
                let mut j = i + 2; // past `mod name`
                match tok_at(tokens, j) {
                    Some(Tok::OpenBrace) => {
                        let body_end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
                        parse_items(tokens, j + 1, body_end - 1, item_test, owner, out);
                        i = body_end;
                    }
                    _ => {
                        while j < end && tok_at(tokens, j) != Some(&Tok::Other(';')) {
                            j += 1;
                        }
                        i = j + 1;
                    }
                }
            }
            "macro_rules" => {
                // `macro_rules! name { … }`.
                let mut j = i;
                while j < end && tok_at(tokens, j) != Some(&Tok::OpenBrace) {
                    j += 1;
                }
                i = if j < end {
                    skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace)
                } else {
                    j
                };
            }
            _ => {
                // `use`, `const NAME`, `static`, `type`, macro invocations,
                // extern blocks without a following decl, …: skip to the
                // terminating `;`, or through one balanced brace block if a
                // `{` comes first (`use a::{b, c};` braces are balanced on
                // the way).
                let mut j = i;
                while j < end {
                    match tok_at(tokens, j) {
                        Some(Tok::Other(';')) => {
                            j += 1;
                            break;
                        }
                        Some(Tok::OpenBrace) => {
                            j = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
                            // `use a::{…};` still ends with `;`; a macro
                            // `foo! { … }` ends at the brace.
                            if tok_at(tokens, j) == Some(&Tok::Other(';')) {
                                j += 1;
                            }
                            break;
                        }
                        None => break,
                        _ => j += 1,
                    }
                }
                i = j.max(i + 1);
            }
        }
        if item_test && !in_test {
            out.test_ranges.push((start, i));
        }
    }
}

/// Whether a declaration keyword follows the modifier at `i` close enough
/// to treat `tokens[i]` as a qualifier rather than an item in itself.
fn next_decl_follows(tokens: &[Token], i: usize, end: usize) -> bool {
    for j in (i + 1)..(i + 3).min(end) {
        if let Some(w) = ident_at(tokens, j) {
            if matches!(w, "fn" | "impl" | "trait" | "unsafe" | "extern") {
                return true;
            }
        }
        if tok_at(tokens, j) == Some(&Tok::Literal) {
            continue; // `extern "C" fn`
        }
    }
    false
}

/// Parses `fn name<…>(params) -> Ret where … { body }` starting at `fn`.
/// Returns the index just past the item.
fn parse_fn(
    tokens: &[Token],
    i: usize,
    is_test: bool,
    owner: Option<&str>,
    out: &mut ParsedFile,
) -> usize {
    let line = tokens[i].line;
    let Some(name) = ident_at(tokens, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();
    let mut j = i + 2;
    if tok_at(tokens, j) == Some(&Tok::Other('<')) {
        j = skip_generics(tokens, j);
    }
    // Parameters.
    let mut params = Vec::new();
    if tok_at(tokens, j) == Some(&Tok::OpenParen) {
        let close = skip_balanced(tokens, j, &Tok::OpenParen, &Tok::CloseParen);
        let mut depth = 0i32;
        let mut k = j;
        while k < close {
            match tok_at(tokens, k) {
                Some(Tok::OpenParen) => depth += 1,
                Some(Tok::CloseParen) => depth -= 1,
                Some(Tok::Colon) if depth == 1 => {
                    // `name:` at top level of the list; closures/types keep
                    // their colons at deeper paren depth or after generics.
                    if let Some(p) = ident_at(tokens, k - 1) {
                        if p != "self" {
                            params.push(p.to_string());
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = close;
    }
    // Return type and where clause: scan to the body `{` or a `;`.
    let mut has_ret = false;
    while j < tokens.len() {
        match tok_at(tokens, j) {
            Some(Tok::Other('>')) if j > 0 && tokens[j - 1].tok == Tok::Other('-') => {
                has_ret = true;
                j += 1;
            }
            Some(Tok::OpenBrace) | Some(Tok::Other(';')) => break,
            // Generic arguments in the return type (`Option<(u32, &E)>`)
            // may contain braces never — but closures in where-bounds may:
            // none appear in this workspace's subset.
            Some(Tok::Other('<')) => j = skip_generics(tokens, j),
            _ => j += 1,
        }
    }
    let body = if tok_at(tokens, j) == Some(&Tok::OpenBrace) {
        let end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
        let r = Some((j + 1, end - 1));
        j = end;
        r
    } else {
        j += 1; // past `;`
        None
    };
    out.fns.push(FnDef {
        name,
        owner: owner.map(|s| s.to_string()),
        line,
        is_test,
        params,
        has_ret,
        body,
    });
    j
}

/// Parses `impl<…> [Trait for] Type { items }` starting at `impl`; the
/// owner recorded for methods is the self-type's leaf identifier (the last
/// path segment before its generic arguments).
fn parse_impl(
    tokens: &[Token],
    i: usize,
    end: usize,
    is_test: bool,
    out: &mut ParsedFile,
) -> usize {
    let mut j = i + 1;
    if tok_at(tokens, j) == Some(&Tok::Other('<')) {
        j = skip_generics(tokens, j);
    }
    // Scan the header up to the body `{`, remembering the last identifier
    // seen overall and the last seen after a `for` (trait impls name the
    // self type there). Generic argument lists are skipped so `IdMap<K, V>`
    // yields `IdMap`, not `V`.
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut in_where = false;
    while j < end {
        match tok_at(tokens, j) {
            Some(Tok::OpenBrace) | Some(Tok::Other(';')) => break,
            Some(Tok::Other('<')) => {
                j = skip_generics(tokens, j);
                continue;
            }
            Some(Tok::Ident(s)) if !in_where => {
                if s == "for" {
                    saw_for = true;
                } else if s == "where" {
                    // Bound idents must not override the self type.
                    in_where = true;
                } else if s != "dyn" && s != "mut" {
                    // Later path segments override earlier ones, so
                    // `std :: ops :: Index` yields the leaf `Index`.
                    if saw_for {
                        after_for = Some(s.clone());
                    } else {
                        last_ident = Some(s.clone());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    let owner = after_for.or(last_ident);
    if tok_at(tokens, j) != Some(&Tok::OpenBrace) {
        return j + 1;
    }
    let body_end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
    parse_items(tokens, j + 1, body_end - 1, is_test, owner.as_deref(), out);
    body_end
}

/// Parses `enum Name<…> { V1, V2(..), V3 { .. } }` starting at `enum`.
fn parse_enum(tokens: &[Token], i: usize, is_test: bool, out: &mut ParsedFile) -> usize {
    let line = tokens[i].line;
    let Some(name) = ident_at(tokens, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();
    let mut j = i + 2;
    if tok_at(tokens, j) == Some(&Tok::Other('<')) {
        j = skip_generics(tokens, j);
    }
    while j < tokens.len()
        && tok_at(tokens, j) != Some(&Tok::OpenBrace)
        && tok_at(tokens, j) != Some(&Tok::Other(';'))
    {
        j += 1; // where clause
    }
    if tok_at(tokens, j) != Some(&Tok::OpenBrace) {
        return j + 1;
    }
    let end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < end - 1 {
        match tok_at(tokens, k) {
            Some(Tok::Pound) => {
                // Variant attribute.
                let mut m = k + 1;
                if tok_at(tokens, m) == Some(&Tok::OpenBracket) {
                    m = skip_balanced(tokens, m, &Tok::OpenBracket, &Tok::CloseBracket);
                }
                k = m;
            }
            Some(Tok::Ident(_)) => {
                let vname = ident_at(tokens, k).unwrap_or("").to_string();
                let vline = tokens[k].line;
                let mut m = k + 1;
                match tok_at(tokens, m) {
                    Some(Tok::OpenParen) => {
                        m = skip_balanced(tokens, m, &Tok::OpenParen, &Tok::CloseParen);
                    }
                    Some(Tok::OpenBrace) => {
                        m = skip_balanced(tokens, m, &Tok::OpenBrace, &Tok::CloseBrace);
                    }
                    _ => {}
                }
                // Discriminant `= expr` runs to the next top-level comma.
                while m < end - 1 && tok_at(tokens, m) != Some(&Tok::Other(',')) {
                    m = match tok_at(tokens, m) {
                        Some(Tok::OpenParen) => {
                            skip_balanced(tokens, m, &Tok::OpenParen, &Tok::CloseParen)
                        }
                        Some(Tok::OpenBrace) => {
                            skip_balanced(tokens, m, &Tok::OpenBrace, &Tok::CloseBrace)
                        }
                        _ => m + 1,
                    };
                }
                variants.push(Variant {
                    name: vname,
                    line: vline,
                });
                k = m + 1; // past the comma
            }
            _ => k += 1,
        }
    }
    out.enums.push(EnumDef {
        name,
        line,
        is_test,
        variants,
    });
    end
}

/// Parses `struct Name { field: Type, … }` (or tuple/unit struct) starting
/// at `struct`.
fn parse_struct(tokens: &[Token], i: usize, out: &mut ParsedFile) -> usize {
    let line = tokens[i].line;
    let Some(name) = ident_at(tokens, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();
    let mut j = i + 2;
    if tok_at(tokens, j) == Some(&Tok::Other('<')) {
        j = skip_generics(tokens, j);
    }
    // Tuple struct `struct X(u32);` or unit `struct X;`.
    if tok_at(tokens, j) == Some(&Tok::OpenParen) {
        j = skip_balanced(tokens, j, &Tok::OpenParen, &Tok::CloseParen);
        if tok_at(tokens, j) == Some(&Tok::Other(';')) {
            j += 1;
        }
        out.structs.push(StructDef {
            name,
            line,
            fields: Vec::new(),
        });
        return j;
    }
    while j < tokens.len()
        && tok_at(tokens, j) != Some(&Tok::OpenBrace)
        && tok_at(tokens, j) != Some(&Tok::Other(';'))
    {
        j += 1;
    }
    if tok_at(tokens, j) != Some(&Tok::OpenBrace) {
        return j + 1;
    }
    let end = skip_balanced(tokens, j, &Tok::OpenBrace, &Tok::CloseBrace);
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut k = j;
    while k < end {
        match tok_at(tokens, k) {
            Some(Tok::OpenBrace) => depth += 1,
            Some(Tok::CloseBrace) => depth -= 1,
            Some(Tok::OpenParen) => {
                k = skip_balanced(tokens, k, &Tok::OpenParen, &Tok::CloseParen);
                continue;
            }
            Some(Tok::Other('<')) => {
                k = skip_generics(tokens, k);
                continue;
            }
            Some(Tok::Colon) if depth == 1 => {
                if let Some(fname) = ident_at(tokens, k - 1) {
                    // The type's head segment: first ident after the colon,
                    // walking the final `::` path segment forward.
                    let mut m = k + 1;
                    while matches!(
                        tok_at(tokens, m),
                        Some(Tok::Amp) | Some(Tok::Lifetime) | Some(Tok::Ident(_))
                    ) {
                        if let Some(Tok::Ident(_)) = tok_at(tokens, m) {
                            break;
                        }
                        m += 1;
                    }
                    let mut head = ident_at(tokens, m).unwrap_or("").to_string();
                    // Walk `std :: collections :: BTreeMap` to the leaf.
                    while tok_at(tokens, m + 1) == Some(&Tok::PathSep)
                        && ident_at(tokens, m + 2).is_some()
                    {
                        m += 2;
                        head = ident_at(tokens, m).unwrap_or("").to_string();
                    }
                    fields.push((fname.to_string(), head));
                }
            }
            _ => {}
        }
        k += 1;
    }
    out.structs.push(StructDef { name, line, fields });
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).tokens)
    }

    #[test]
    fn parses_free_and_impl_fns() {
        let src = r#"
            pub fn alpha(x: u32, y: &str) -> u32 { x }
            struct S { n: u64 }
            impl S {
                fn beta(&self, k: u64) { let _ = k; }
                pub(crate) fn gamma(self) -> bool { true }
            }
            impl Clone for S {
                fn clone(&self) -> S { S { n: self.n } }
            }
        "#;
        let p = parse_src(src);
        let names: Vec<(Option<&str>, &str)> = p
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "alpha"),
                (Some("S"), "beta"),
                (Some("S"), "gamma"),
                (Some("S"), "clone"),
            ]
        );
        assert_eq!(p.fns[0].params, vec!["x", "y"]);
        assert!(p.fns[0].has_ret);
        assert_eq!(p.fns[1].params, vec!["k"]);
        assert!(!p.fns[1].has_ret);
        assert_eq!(p.structs[0].fields, vec![("n".into(), "u64".into())]);
    }

    #[test]
    fn fn_generics_with_arrow_bounds_do_not_derail() {
        let src = "fn f<F: Fn() -> u64>(g: F) -> u64 { g() }\nfn h() {}\n";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "f");
        assert_eq!(p.fns[0].params, vec!["g"]);
        assert_eq!(p.fns[1].name, "h");
    }

    #[test]
    fn parses_enum_variants_with_payloads() {
        let src = r#"
            pub enum Fault {
                MasterFail,
                SlaveRestart(NodeId),
                DiskDegrade(NodeId, u32, SimDuration),
                Detail { node: u32, percent: u32 },
            }
        "#;
        let p = parse_src(src);
        let e = p.enum_named("Fault").expect("enum parsed");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["MasterFail", "SlaveRestart", "DiskDegrade", "Detail"]
        );
    }

    #[test]
    fn test_items_are_marked() {
        let src = r#"
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn checks() {}
            }
            #[cfg(test)]
            pub(crate) fn probe() {}
        "#;
        let toks = lex(src).tokens;
        let p = parse(&toks);
        let marked: Vec<bool> = p.fns.iter().map(|f| f.is_test).collect();
        assert_eq!(marked, [false, true, true, true]);
        // One range per outermost test item, from its attribute to its end.
        let pounds: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].tok == Tok::Pound)
            .collect();
        assert_eq!(
            p.test_ranges,
            [(pounds[0], pounds[2]), (pounds[2], toks.len())]
        );
    }

    #[test]
    fn trait_default_methods_carry_the_trait_owner() {
        let src = r#"
            trait Sink {
                fn record(&mut self, x: u32);
                fn flush(&mut self) { let _ = self; }
            }
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Sink"));
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn impl_for_generic_type_names_the_leaf() {
        let src = r#"
            impl<K: DenseId, V> std::ops::Index<&K> for IdMap<K, V> {
                fn index(&self, k: &K) -> &V { self.get(k).unwrap() }
            }
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("IdMap"));
    }

    #[test]
    fn bodies_are_token_ranges_into_the_stream() {
        let src = "fn f() { inner_call(); }\n";
        let toks = lex(src).tokens;
        let p = parse(&toks);
        let (s, e) = p.fns[0].body.expect("body");
        let body: Vec<&Tok> = toks[s..e].iter().map(|t| &t.tok).collect();
        assert!(body.contains(&&Tok::Ident("inner_call".into())));
        assert!(!body.contains(&&Tok::Ident("fn".into())));
    }
}
