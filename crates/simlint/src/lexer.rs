//! A dependency-free Rust lexer producing a line-annotated token stream.
//!
//! A line-oriented scrubber that blanks comments and string literals and
//! then greps the remains is fast but lexically blind: it cannot tell an
//! aliased import from a local type, and every rule is limited to what
//! fits on one line. This lexer is the foundation of the token pass: it
//! produces real tokens with 1-based line spans, handling the corners
//! that fool lexical scans —
//!
//! * raw strings `r"…"` / `r#"…"#` with arbitrary hash depth (and raw
//!   *byte* strings `br#"…"#`),
//! * nested block comments `/* /* … */ */`,
//! * char literals vs. lifetimes (`'x'` vs `'a`), including escaped and
//!   quote chars (`'\''`, `'"'`) and byte chars `b'x'`,
//! * raw identifiers `r#type`,
//! * numeric literals with suffixes (`1_000u64`, `1.0e-9f64`, `0xff`),
//!   so a suffix never leaks an identifier token.
//!
//! String/char/number *contents* are dropped — rules only care that a
//! literal occupied the spot — but identifiers keep their text, which is
//! what alias resolution needs.

use std::fmt;

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// What the token is.
    pub kind: TokKind,
}

/// Token kinds, at the granularity the lint rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are unescaped: `r#type` → `type`).
    Ident(String),
    /// A lifetime such as `'a` or `'_` (name without the tick).
    Lifetime(String),
    /// String literal (`"…"`), contents dropped.
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`), contents dropped.
    RawStr,
    /// Char or byte-char literal (`'x'`, `b'\n'`), contents dropped.
    Char,
    /// Numeric literal; true when it carries an `f32`/`f64` suffix.
    Num {
        /// Whether the literal ends in an explicit float suffix.
        float_suffix: bool,
    },
    /// A single punctuation character (`:`, `.`, `#`, `{`, …).
    Punct(char),
}

impl TokKind {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl fmt::Display for TokKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokKind::Ident(s) => write!(f, "{s}"),
            TokKind::Lifetime(s) => write!(f, "'{s}"),
            TokKind::Str => write!(f, "\"…\""),
            TokKind::RawStr => write!(f, "r\"…\""),
            TokKind::Char => write!(f, "'…'"),
            TokKind::Num { .. } => write!(f, "<num>"),
            TokKind::Punct(c) => write!(f, "{c}"),
        }
    }
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// Total number of source lines.
    pub lines: usize,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_cont(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into tokens; comments are skipped.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed {
        tokens: Vec::new(),
        lines: src.lines().count().max(1),
    };
    let mut i = 0;
    let mut line = 1usize;

    // Skip a shebang line (`#!/usr/bin/env …`) that is not an inner attribute.
    if chars.first() == Some(&'#') && chars.get(1) == Some(&'!') && chars.get(2) != Some(&'[') {
        while i < chars.len() && chars[i] != '\n' {
            i += 1;
        }
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            // Line comment, plain or doc: skipped to the end of the line.
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            // Block comment, nested.
            '/' if next == Some('*') => {
                let mut depth = 1u32;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&chars, i + 1, &mut line);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Str,
                });
            }
            '\'' => {
                // Char literal vs lifetime.
                let n1 = chars.get(i + 1).copied();
                let n2 = chars.get(i + 2).copied();
                if n1 == Some('\\') {
                    // Escaped char literal: skip to closing quote.
                    let mut j = i + 2;
                    while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Char,
                    });
                    i = j + 1;
                } else if n1.is_some_and(is_ident_start) && n2 != Some('\'') {
                    // Lifetime: tick + identifier, not closed by a quote.
                    let mut j = i + 1;
                    let start = j;
                    while j < chars.len() && is_ident_cont(chars[j]) {
                        j += 1;
                    }
                    let name: String = chars[start..j].iter().collect();
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Lifetime(name),
                    });
                    i = j;
                } else if n2 == Some('\'') && n1 != Some('\'') {
                    // Simple char literal 'x' (including '"' and digits).
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Char,
                    });
                    i += 3;
                } else {
                    // Bare tick (e.g. `'_` handled above; anything else:
                    // emit punct and move on).
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Punct('\''),
                    });
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let (j, float_suffix) = skip_number(&chars, i);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Num { float_suffix },
                });
                i = j;
            }
            c if is_ident_start(c) => {
                // Check literal prefixes: r"…", r#"…"#, b"…", b'…', br"…",
                // and raw identifiers r#ident.
                let word_start = i;
                let mut j = i;
                while j < chars.len() && is_ident_cont(chars[j]) {
                    j += 1;
                }
                let word: String = chars[word_start..j].iter().collect();
                let after = chars.get(j).copied();
                match (word.as_str(), after) {
                    ("r", Some('"')) | ("br", Some('"')) => {
                        i = skip_raw_string(&chars, j + 1, 0, &mut line);
                        out.tokens.push(Token {
                            line,
                            kind: TokKind::RawStr,
                        });
                    }
                    ("r", Some('#')) | ("br", Some('#')) => {
                        let mut k = j;
                        let mut hashes = 0usize;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            i = skip_raw_string(&chars, k + 1, hashes, &mut line);
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::RawStr,
                            });
                        } else if word == "r"
                            && hashes == 1
                            && chars.get(k).copied().is_some_and(is_ident_start)
                        {
                            // Raw identifier r#type → Ident("type").
                            let start = k;
                            let mut m = k;
                            while m < chars.len() && is_ident_cont(chars[m]) {
                                m += 1;
                            }
                            let name: String = chars[start..m].iter().collect();
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Ident(name),
                            });
                            i = m;
                        } else {
                            out.tokens.push(Token {
                                line,
                                kind: TokKind::Ident(word),
                            });
                            i = j;
                        }
                    }
                    ("b", Some('"')) => {
                        i = skip_string(&chars, j + 1, &mut line);
                        out.tokens.push(Token {
                            line,
                            kind: TokKind::Str,
                        });
                    }
                    ("b", Some('\'')) => {
                        // Byte char literal b'x' / b'\n'.
                        let mut k = j + 1;
                        if chars.get(k) == Some(&'\\') {
                            k += 1;
                            while k < chars.len() && chars[k] != '\'' && chars[k] != '\n' {
                                k += 1;
                            }
                        } else if k < chars.len() {
                            k += 1;
                        }
                        if chars.get(k) == Some(&'\'') {
                            k += 1;
                        }
                        out.tokens.push(Token {
                            line,
                            kind: TokKind::Char,
                        });
                        i = k;
                    }
                    _ => {
                        out.tokens.push(Token {
                            line,
                            kind: TokKind::Ident(word),
                        });
                        i = j;
                    }
                }
            }
            other => {
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

/// Skip a (non-raw) string body starting just after the opening quote;
/// returns the index just past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string body starting just after the opening quote; returns
/// the index just past the closing `"##…`.
fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        if chars[i] == '"' {
            let mut seen = 0;
            let mut j = i + 1;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            if chars[i] == '\n' {
                *line += 1;
            }
            i += 1;
        }
    }
    i
}

/// Skip a numeric literal starting at `i` (which holds an ASCII digit);
/// returns (index past the literal, has-float-suffix). The suffix is
/// folded into the literal so `1.0f64` never yields an `f64` identifier.
fn skip_number(chars: &[char], mut i: usize) -> (usize, bool) {
    // Radix prefix?
    if chars[i] == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b')) {
        i += 2;
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        return (i, false);
    }
    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
        i += 1;
    }
    // Fractional part: a dot followed by a digit (so `0..5` and `1.method()`
    // keep their dots).
    if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
        i += 1;
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
            i += 1;
        }
    } else if chars.get(i) == Some(&'.')
        && !chars
            .get(i + 1)
            .is_some_and(|c| is_ident_start(*c) || *c == '.')
    {
        // Trailing-dot float like `1.` (not a range, not a method call).
        i += 1;
    }
    // Exponent.
    if matches!(chars.get(i), Some('e') | Some('E')) {
        let mut j = i + 1;
        if matches!(chars.get(j), Some('+') | Some('-')) {
            j += 1;
        }
        if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
            i = j;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    // Type suffix (u64, f64, usize, …) folded into the literal.
    let suffix_start = i;
    while i < chars.len() && is_ident_cont(chars[i]) {
        i += 1;
    }
    let suffix: String = chars[suffix_start..i].iter().collect();
    (i, suffix == "f32" || suffix == "f64")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn raw_strings_hide_contents_at_any_hash_depth() {
        let src = "let a = r\"x y\"; let b = r#\"p \"q\" r\"#; let c = r##\"s \"# t\"##;\n";
        assert_eq!(idents(src), vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn raw_byte_strings_and_byte_chars() {
        let src = "let a = br#\"HashMap\"#; let b = b\"Instant\"; let c = b'x'; let d = b'\\n';\n";
        assert_eq!(
            idents(src),
            vec!["let", "a", "let", "b", "let", "c", "let", "d"]
        );
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* a /* b */ still comment */ real\n";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let s = '_'; }\n");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Lifetime(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        // 'x', '\'' and the char literal '_' (underscore closes with a quote).
        assert_eq!(chars, 3);
    }

    #[test]
    fn raw_identifiers_unescape() {
        assert_eq!(idents("let r#type = 1;\n"), vec!["let", "type"]);
    }

    #[test]
    fn numeric_suffixes_do_not_leak_idents() {
        let src = "let x = 1.0f64 + 2e9 + 0xffu64 + 1_000.5e-3f32 + t.0;\n";
        assert_eq!(idents(src), vec!["let", "x", "t"]);
        let floats = lex(src)
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Num { float_suffix: true }))
            .count();
        assert_eq!(floats, 2);
    }

    #[test]
    fn ranges_are_not_floats() {
        let lexed = lex("for i in 0..5 { v[i] = i; }\n");
        let dots = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* one\ntwo\nthree */\nmarker\n";
        let lexed = lex(src);
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].line, 4);
    }

    #[test]
    fn strings_never_produce_idents() {
        let src = "let s = \"// simlint: allow(unordered, reason=nope) HashMap\";\n";
        assert_eq!(idents(src), vec!["let", "s"]);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let src = "let s = \"a \\\" b\"; let t = 'c';\nHashMap\n";
        let lexed = lex(src);
        let on_line_2: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.line == 2)
            .filter_map(|t| t.kind.ident())
            .collect();
        assert_eq!(on_line_2, vec!["HashMap"]);
    }
}
