//! A minimal Rust lexer — just enough structure for the determinism rules.
//!
//! The lexer's contract is narrow: produce identifiers, the punctuation the
//! rule matchers care about, and line numbers, while *correctly skipping*
//! everything that could fake a match — string literals (including raw and
//! byte strings), char literals, lifetimes, and comments. Comments are not
//! entirely discarded: `// lint: allow(...)` suppression directives are
//! collected on the way through.

/// One lexed token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind (and text, for identifiers).
    pub tok: Tok,
    /// 1-based line number.
    pub line: u32,
}

/// Token kinds. Literals collapse to a single opaque kind: no lint rule
/// inspects literal contents, they only need to not be mistaken for code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword, with its text.
    Ident(String),
    /// `::`
    PathSep,
    /// `.`
    Dot,
    /// `&`
    Amp,
    /// `#`
    Pound,
    /// `:` (single colon)
    Colon,
    /// `=` (single equals; `==` lexes as two of these)
    Eq,
    /// `(`
    OpenParen,
    /// `)`
    CloseParen,
    /// `[`
    OpenBracket,
    /// `]`
    CloseBracket,
    /// `{`
    OpenBrace,
    /// `}`
    CloseBrace,
    /// Any string/char/byte/numeric literal.
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Any other single character of punctuation.
    Other(char),
}

/// A `// lint: allow(...)` comment, parsed or rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// A well-formed `// lint: allow(RULE, reason = "...")` with a
    /// non-empty reason. Suppresses matching violations on its own line or
    /// the line directly below.
    Allow {
        /// 1-based line the comment sits on.
        line: u32,
        /// The rule id being allowed, e.g. `D02`.
        rule: String,
        /// The human justification (guaranteed non-empty).
        reason: String,
    },
    /// A comment that names `lint:` but does not parse, or parses with an
    /// empty reason. Always reported as rule `A00`.
    Malformed {
        /// 1-based line the comment sits on.
        line: u32,
        /// What was wrong with it.
        detail: String,
    },
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Every `lint:` comment encountered, in source order.
    pub directives: Vec<Directive>,
}

/// The token at `i`, if any.
pub(crate) fn tok_at(tokens: &[Token], i: usize) -> Option<&Tok> {
    tokens.get(i).map(|t| &t.tok)
}

/// The identifier at `i`, if the token there is one.
pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tok_at(tokens, i) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Lexes `src`, returning tokens and lint directives.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                let text = &src[start..j];
                if let Some(d) = parse_directive(text, line) {
                    out.directives.push(d);
                }
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments, as Rust allows.
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    match b[j] {
                        b'\n' => line += 1,
                        b'/' if b.get(j + 1) == Some(&b'*') => {
                            depth += 1;
                            j += 1;
                        }
                        b'*' if b.get(j + 1) == Some(&b'/') => {
                            depth -= 1;
                            j += 1;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j;
            }
            b'"' => {
                let tok_line = line;
                i = skip_string(b, i, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Literal,
                    line: tok_line,
                });
            }
            b'\'' => {
                let tok_line = line;
                let (next, tok) = lex_quote(b, i, &mut line);
                i = next;
                out.tokens.push(Token {
                    tok,
                    line: tok_line,
                });
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                i = skip_number(b, i);
                out.tokens.push(Token {
                    tok: Tok::Literal,
                    line: tok_line,
                });
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let tok_line = line;
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let ident = &src[start..i];
                // Raw / byte string prefixes lex as part of the literal.
                // Only `r`/`br` take hash guards; `b#` is not a literal
                // prefix and must fall through to a plain ident + Pound.
                if ((ident == "r" || ident == "br") && matches!(b.get(i), Some(b'"') | Some(b'#')))
                    || (ident == "b" && b.get(i) == Some(&b'"'))
                {
                    if ident == "r" && b.get(i) == Some(&b'#') && is_ident_start(b.get(i + 1)) {
                        // r#ident raw identifier, not a raw string.
                        i += 1;
                        let rstart = i;
                        while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                            i += 1;
                        }
                        out.tokens.push(Token {
                            tok: Tok::Ident(src[rstart..i].to_string()),
                            line: tok_line,
                        });
                        continue;
                    }
                    i = if ident == "b" {
                        skip_string(b, i, &mut line)
                    } else {
                        skip_raw_string(b, i, &mut line)
                    };
                    out.tokens.push(Token {
                        tok: Tok::Literal,
                        line: tok_line,
                    });
                    continue;
                }
                if ident == "b" && b.get(i) == Some(&b'\'') {
                    let (next, _) = lex_quote(b, i, &mut line);
                    i = next;
                    out.tokens.push(Token {
                        tok: Tok::Literal,
                        line: tok_line,
                    });
                    continue;
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(ident.to_string()),
                    line: tok_line,
                });
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                out.tokens.push(Token {
                    tok: Tok::PathSep,
                    line,
                });
                i += 2;
            }
            _ => {
                let tok = match c {
                    b'.' => Tok::Dot,
                    b'&' => Tok::Amp,
                    b'#' => Tok::Pound,
                    b':' => Tok::Colon,
                    b'=' => Tok::Eq,
                    b'(' => Tok::OpenParen,
                    b')' => Tok::CloseParen,
                    b'[' => Tok::OpenBracket,
                    b']' => Tok::CloseBracket,
                    b'{' => Tok::OpenBrace,
                    b'}' => Tok::CloseBrace,
                    c => Tok::Other(c as char),
                };
                out.tokens.push(Token { tok, line });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(c: Option<&u8>) -> bool {
    matches!(c, Some(c) if *c == b'_' || c.is_ascii_alphabetic())
}

/// Skips a `"..."` string starting at the opening quote; returns the index
/// just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // An escaped newline is a line continuation — the newline is
                // consumed as part of the escape, so count it here or every
                // later token in the file drifts up a line.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string body starting at the first `#` or `"` after the `r`
/// / `br` prefix; returns the index just past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return i; // not actually a raw string; resync
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        } else if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Lexes the construct starting at a `'`: a char literal or a lifetime.
fn lex_quote(b: &[u8], i: usize, line: &mut u32) -> (usize, Tok) {
    // Byte-char prefix: caller passes i at the quote either way.
    let q = if b[i] == b'\'' { i } else { i + 1 };
    match b.get(q + 1) {
        Some(b'\\') => {
            // Escaped char literal: skip the backslash and the escaped
            // character (so `'\''` works), then scan for the closing quote.
            let mut j = q + 3;
            while j < b.len() && b[j] != b'\'' {
                if b[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            (j + 1, Tok::Literal)
        }
        Some(c) if *c == b'_' || c.is_ascii_alphanumeric() => {
            // 'x' is a char literal; 'x not followed by a quote is a
            // lifetime (consume the identifier run).
            let mut j = q + 2;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            if j == q + 2 && b.get(j) == Some(&b'\'') {
                (j + 1, Tok::Literal)
            } else if b.get(j) == Some(&b'\'') && j > q + 2 {
                // Multi-char quoted run only occurs in char literals like
                // '\u{..}' (already handled) — treat as literal defensively.
                (j + 1, Tok::Literal)
            } else {
                (j, Tok::Lifetime)
            }
        }
        Some(b'\n') => {
            *line += 1;
            (q + 2, Tok::Other('\''))
        }
        Some(_) => {
            // Some other single char, e.g. '.' — char literal if closed.
            if b.get(q + 2) == Some(&b'\'') {
                (q + 3, Tok::Literal)
            } else {
                (q + 1, Tok::Other('\''))
            }
        }
        None => (q + 1, Tok::Other('\'')),
    }
}

/// Skips a numeric literal (integers, floats, suffixes, underscores).
fn skip_number(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        let c = b[i];
        if c == b'_' || c.is_ascii_alphanumeric() {
            i += 1;
        } else if c == b'.' && matches!(b.get(i + 1), Some(d) if d.is_ascii_digit()) {
            // `1.5` continues the literal; `0..10` and `1.method()` do not.
            i += 1;
        } else if (c == b'+' || c == b'-')
            && i > 0
            && (b[i - 1] == b'e' || b[i - 1] == b'E')
            && matches!(b.get(i + 1), Some(d) if d.is_ascii_digit())
        {
            // Exponent sign, as in `1e-3`.
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Parses a line comment's text into a directive.
///
/// Only comments that *begin* with `lint:` count — prose that merely
/// mentions the directive syntax (like this sentence) is ignored, and doc
/// comments (`/// lint:` lexes as `/ lint:`) cannot carry suppressions.
fn parse_directive(text: &str, line: u32) -> Option<Directive> {
    let rest = text.trim_start().strip_prefix("lint:")?;
    let rest = rest.trim_start();
    let malformed = |detail: &str| {
        Some(Directive::Malformed {
            line,
            detail: detail.to_string(),
        })
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        return malformed("expected `allow(<rule>, reason = \"...\")` after `lint:`");
    };
    let args = args.trim_start();
    let rule_len = args
        .bytes()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
        .count();
    if rule_len == 0 {
        return malformed("missing rule id in `lint: allow(...)`");
    }
    let rule = args[..rule_len].to_string();
    let rest = args[rule_len..].trim_start();
    let Some(rest) = rest.strip_prefix(',') else {
        return malformed("missing `, reason = \"...\"` in `lint: allow(...)`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("reason") else {
        return malformed("expected `reason = \"...\"` after the rule id");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('=') else {
        return malformed("expected `=` after `reason`");
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return malformed("reason must be a double-quoted string");
    };
    let Some(end) = rest.find('"') else {
        return malformed("unterminated reason string");
    };
    let reason = rest[..end].trim();
    if reason.is_empty() {
        return malformed("empty reason — say why the rule does not apply here");
    }
    if !rest[end + 1..].trim_start().starts_with(')') {
        return malformed("expected `)` closing `lint: allow(...)`");
    }
    Some(Directive::Allow {
        line,
        rule,
        reason: reason.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_idents() {
        let src = r##"
            let x = "Instant::now inside a string";
            // Instant::now inside a comment
            /* SystemTime in /* nested */ block */
            let y = r#"SystemTime raw"#;
            let z = b"HashMap bytes";
            let c = 'h';
        "##;
        let ids = idents(src);
        assert!(ids
            .iter()
            .all(|s| s != "Instant" && s != "SystemTime" && s != "HashMap"));
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "z", "let", "c"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a HashMap<u8, u8>) {}");
        assert!(ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn directive_roundtrip() {
        let out = lex("foo(); // lint: allow(D01, reason = \"bench timer\")\n");
        assert_eq!(
            out.directives,
            vec![Directive::Allow {
                line: 1,
                rule: "D01".into(),
                reason: "bench timer".into()
            }]
        );
    }

    #[test]
    fn empty_reason_is_malformed() {
        let out = lex("// lint: allow(P01, reason = \"\")\n// lint: allow(P01)\n");
        assert_eq!(out.directives.len(), 2);
        assert!(matches!(
            out.directives[0],
            Directive::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            out.directives[1],
            Directive::Malformed { line: 2, .. }
        ));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;\n";
        let out = lex(src);
        let b_line = out
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    fn line_of(src: &str, name: &str) -> Option<u32> {
        lex(src)
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident(name.into()))
            .map(|t| t.line)
    }

    #[test]
    fn string_line_continuations_count_their_newline() {
        // `\` at end of line continues the string; the newline is consumed
        // by the escape arm, not the `\n` arm.
        let src = "let a = \"one \\\ntwo\";\nlet marker = 1;\n";
        assert_eq!(line_of(src, "marker"), Some(3));
    }

    #[test]
    fn raw_strings_with_hash_guards_do_not_end_early() {
        // The `"#` inside an `r##"…"##` body must not close the literal.
        let src = "let a = r##\"body with \"# inside and Instant::now\"##;\nlet marker = 1;\n";
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"inside".to_string()));
        assert_eq!(line_of(src, "marker"), Some(2));
    }

    #[test]
    fn byte_raw_strings_take_hash_guards() {
        let src = "let a = br#\"SystemTime \" quote\"#;\nlet marker = 1;\n";
        let ids = idents(src);
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert_eq!(line_of(src, "marker"), Some(2));
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let src = "let a = r#\"one\ntwo\nthree\"#;\nlet marker = 1;\n";
        assert_eq!(line_of(src, "marker"), Some(4));
    }

    #[test]
    fn nested_block_comments_balance_and_count_lines() {
        let src = "/* outer\n/* inner\n*/ still comment HashMap\n*/\nlet marker = 1;\n";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert_eq!(line_of(src, "marker"), Some(5));
    }

    #[test]
    fn block_comment_edge_sequences() {
        // `/*/` opens without closing itself; `/**/` is a complete comment.
        let src = "/**/ let a = 1; /*/ not code */ let marker = 2;\n";
        let ids = idents(src);
        assert!(ids.contains(&"a".to_string()));
        assert!(!ids.contains(&"not".to_string()));
        assert!(ids.contains(&"marker".to_string()));
    }

    #[test]
    fn b_followed_by_pound_is_not_a_literal_prefix() {
        // `b # [x]` must lex as ident + pound, not trip the byte-string
        // path (skip_string asserts its cursor sits on a quote).
        let out = lex("let b = 1; let c = b # 2;\n");
        assert!(out.tokens.iter().any(|t| t.tok == Tok::Pound));
        assert!(
            out.tokens
                .iter()
                .filter(|t| t.tok == Tok::Ident("b".into()))
                .count()
                >= 2
        );
    }
}
