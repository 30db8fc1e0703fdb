//! The token-stream analyzer: the two rules a name ban cannot express,
//! over the lexer's output.
//!
//! The name bans themselves (hash containers, the wall clock, host
//! threads, ambient entropy, `unsafe`) live in the toolchain: the root
//! `clippy.toml` and the workspace `unsafe_code = "forbid"`, where
//! rustc's own name resolution sees through aliases and shadowing. What
//! stays here needs tokens, not names:
//!
//! * **`float-sort`** scans the whole argument list of a `sort_by*`
//!   call, so a closure split across lines does not hide `partial_cmp`.
//! * **`time-float-cast`** pairs a time-valued name with a float `as`
//!   cast on one line, in core and model crates.
//! * **`#[cfg(test)]` spans** — attributes are matched to the item they
//!   gate (brace-matched through the token stream). Test-only code (plus
//!   `tests/` directories) relaxes `time-float-cast`, and the semantic
//!   rules, ledger sites and taint sinks read the same extents.
//! * **Imports** — every `use` declaration is parsed into name → path
//!   bindings, which the interprocedural call graph resolves calls
//!   through.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::Layer;
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::Finding;

/// Per-file lint context, derived from the workspace graph.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx {
    /// The owning crate's architectural layer.
    pub layer: Layer,
    /// True when the file lives in a `tests/` directory.
    pub tests_dir: bool,
}

impl FileCtx {
    /// Build a context for `rel_path` given the owning crate's layer.
    pub fn new(layer: Layer, rel_path: &str) -> FileCtx {
        let tests_dir = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
        FileCtx { layer, tests_dir }
    }
}

/// Token-pass state for one file: its findings plus everything the
/// later per-file passes (the semantic rules, the taint facts) need.
pub(crate) struct Scan {
    /// Findings, in emission order.
    pub(crate) findings: Vec<Finding>,
    /// The lexed file, for item-level passes.
    pub(crate) lexed: Lexed,
    /// Per-line `#[cfg(test)]` / tests-dir extents (index = 1-based line).
    pub(crate) test_lines: Vec<bool>,
}

/// Run the token rules over one file.
pub(crate) fn scan_source(ctx: FileCtx, rel_path: &str, source: &str) -> Scan {
    let lexed = lex(source);
    let toks = &lexed.tokens;

    let test_lines = collect_test_lines(ctx, toks, lexed.lines);
    let lines = collect_line_info(toks, lexed.lines);

    // One finding per (line, rule): both rules' messages are fixed.
    let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: &str| {
        if seen.insert((line, rule)) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                rule,
                message: message.to_string(),
            });
        }
    };

    // --- float-sort: sort_by* whose argument list mentions partial_cmp.
    for k in 0..toks.len() {
        let Some(name) = toks[k].kind.ident() else {
            continue;
        };
        if !matches!(
            name,
            "sort_by"
                | "sort_unstable_by"
                | "sort_by_key"
                | "sort_unstable_by_key"
                | "sort_by_cached_key"
        ) {
            continue;
        }
        if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct('(')) {
            continue;
        }
        let mut depth = 0i32;
        for t in &toks[k + 1..] {
            match &t.kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(id) if id == "partial_cmp" => {
                    push(
                        toks[k].line,
                        "float-sort",
                        "float sort via partial_cmp panics on NaN and invites \
                         platform-dependent totalization; sort on integer keys \
                         (e.g. nanoseconds) instead",
                    );
                    break;
                }
                _ => {}
            }
        }
    }

    // --- time-float-cast: per-line time context × float cast.
    if matches!(ctx.layer, Layer::Core | Layer::Model) {
        for (idx, li) in lines.iter().enumerate() {
            let line = idx + 1;
            if test_lines[line] {
                continue;
            }
            let time_ctx = li.idents.iter().any(|s| {
                matches!(
                    s.as_str(),
                    "SimTime" | "SimDuration" | "as_nanos" | "from_nanos"
                ) || s.ends_with("_ns")
            });
            if !time_ctx {
                continue;
            }
            let float_cast = li.casts.iter().any(|c| c == "f64" || c == "f32")
                || (li.casts.iter().any(|c| c == "u64")
                    && (li.methods.iter().any(|m| m == "round" || m == "mean")
                        || li.idents.iter().any(|s| s.contains("f64"))
                        || li.float_num));
            if float_cast {
                push(
                    line,
                    "time-float-cast",
                    "bare `as` cast between u64 time and float loses nanoseconds \
                     silently; go through SimDuration's *_f64 \
                     constructors/accessors",
                );
            }
        }
    }

    Scan {
        findings,
        lexed,
        test_lines,
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// Parse every `use` declaration into name → full-path bindings. The
/// interprocedural call-graph builder resolves a plain call through
/// this alias table.
pub(crate) fn collect_bindings(toks: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut bindings = BTreeMap::new();
    let mut k = 0;
    while k < toks.len() {
        if toks[k].kind.ident() == Some("use") {
            k = parse_use_tree(toks, k + 1, &Vec::new(), &mut bindings);
        } else {
            k += 1;
        }
    }
    bindings
}

/// Parse one use-tree starting at `i`; returns the index just past it.
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    prefix: &[String],
    bindings: &mut BTreeMap<String, Vec<String>>,
) -> usize {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut glob = false;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Ident(s) if s == "as" => {
                // Alias: bind the alias name to the accumulated path.
                if let Some(TokKind::Ident(alias)) = toks.get(i + 1).map(|t| &t.kind) {
                    bindings.insert(alias.clone(), normalize(&segs));
                    i += 2;
                } else {
                    i += 1;
                }
                // Skip to the tree boundary.
                while i < toks.len() && !matches!(toks[i].kind, TokKind::Punct(',' | '}' | ';')) {
                    i += 1;
                }
                return finish_tree(toks, i);
            }
            TokKind::Ident(s) => {
                segs.push(s.clone());
                i += 1;
            }
            TokKind::Punct(':') => i += 1,
            TokKind::Punct('*') => {
                glob = true;
                i += 1;
            }
            TokKind::Punct('{') => {
                i += 1;
                loop {
                    i = parse_use_tree(toks, i, &segs, bindings);
                    match toks.get(i).map(|t| &t.kind) {
                        Some(TokKind::Punct(',')) => i += 1,
                        Some(TokKind::Punct('}')) => {
                            i += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                return finish_tree(toks, i);
            }
            TokKind::Punct(',' | '}' | ';') => break,
            _ => i += 1,
        }
    }
    if !glob && segs.len() > prefix.len() {
        let path = normalize(&segs);
        if let Some(name) = path.last().cloned() {
            bindings.insert(name, path);
        }
    } else if !glob && segs.len() == prefix.len() && !segs.is_empty() {
        // `self` inside a group collapsed to the prefix itself.
        let path = normalize(&segs);
        if let Some(name) = path.last().cloned() {
            bindings.insert(name, path);
        }
    }
    finish_tree(toks, i)
}

/// Drop a trailing `self` segment (`use a::b::{self}` binds `b`).
fn normalize(segs: &[String]) -> Vec<String> {
    let mut path = segs.to_vec();
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    path
}

fn finish_tree(toks: &[Token], i: usize) -> usize {
    // Leave terminators for the caller, but consume a statement-ending
    // semicolon so the outer loop moves on.
    if toks.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(';')) {
        i + 1
    } else {
        i
    }
}

/// Per-line token aggregates for the line-scoped `time-float-cast` rule.
#[derive(Default)]
struct LineInfo {
    idents: Vec<String>,
    methods: Vec<String>,
    casts: Vec<String>,
    float_num: bool,
}

fn collect_line_info(toks: &[Token], nlines: usize) -> Vec<LineInfo> {
    let mut lines: Vec<LineInfo> = (0..nlines + 1).map(|_| LineInfo::default()).collect();
    for k in 0..toks.len() {
        let line = toks[k].line;
        let Some(li) = lines.get_mut(line - 1) else {
            continue;
        };
        match &toks[k].kind {
            TokKind::Ident(s) => {
                li.idents.push(s.clone());
                if k > 0 && toks[k - 1].kind == TokKind::Punct('.') {
                    li.methods.push(s.clone());
                }
                if k > 0 && toks[k - 1].kind.ident() == Some("as") {
                    li.casts.push(s.clone());
                }
            }
            TokKind::Num { float_suffix: true } => li.float_num = true,
            _ => {}
        }
    }
    lines
}

/// Which lines are test-only: the whole file for `tests/` dirs or an
/// inner `#![cfg(test)]`, else the brace-matched extent of every item
/// gated by `#[cfg(test)]` (or `#[test]`).
fn collect_test_lines(ctx: FileCtx, toks: &[Token], nlines: usize) -> Vec<bool> {
    let mut test = vec![ctx.tests_dir; nlines + 2];
    if ctx.tests_dir {
        return test;
    }
    let mut k = 0;
    while k < toks.len() {
        if toks[k].kind != TokKind::Punct('#') {
            k += 1;
            continue;
        }
        let mut j = k + 1;
        let inner = toks.get(j).map(|t| &t.kind) == Some(&TokKind::Punct('!'));
        if inner {
            j += 1;
        }
        if toks.get(j).map(|t| &t.kind) != Some(&TokKind::Punct('[')) {
            k += 1;
            continue;
        }
        let Some(close) = match_bracket(toks, j, '[', ']') else {
            break;
        };
        let attr = &toks[j + 1..close];
        let is_cfg_test = attr.first().and_then(|t| t.kind.ident()) == Some("cfg")
            && attr.iter().any(|t| t.kind.ident() == Some("test"));
        let is_test_attr = attr.len() == 1 && attr[0].kind.ident() == Some("test");
        if !(is_cfg_test || is_test_attr) {
            k = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test-only.
            for t in test.iter_mut() {
                *t = true;
            }
            return test;
        }
        // Skip any further attributes, then mark the gated item's extent.
        let mut m = close + 1;
        while toks.get(m).map(|t| &t.kind) == Some(&TokKind::Punct('#'))
            && toks.get(m + 1).map(|t| &t.kind) == Some(&TokKind::Punct('['))
        {
            match match_bracket(toks, m + 1, '[', ']') {
                Some(c) => m = c + 1,
                None => break,
            }
        }
        let start_line = toks[k].line;
        let mut end_line = start_line;
        let mut n = m;
        while n < toks.len() {
            match &toks[n].kind {
                TokKind::Punct('{') => {
                    if let Some(c) = match_bracket(toks, n, '{', '}') {
                        end_line = toks[c].line;
                    }
                    break;
                }
                TokKind::Punct(';') => {
                    end_line = toks[n].line;
                    break;
                }
                _ => n += 1,
            }
        }
        for line in start_line..=end_line {
            if let Some(t) = test.get_mut(line) {
                *t = true;
            }
        }
        k = close + 1;
    }
    test
}

/// Index of the token closing the bracket opened at `open_idx`.
fn match_bracket(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks[open_idx..].iter().enumerate() {
        if t.kind == TokKind::Punct(open) {
            depth += 1;
        } else if t.kind == TokKind::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(open_idx + off);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(ctx: FileCtx, rel_path: &str, source: &str) -> Vec<Finding> {
        let mut found = scan_source(ctx, rel_path, source).findings;
        found.sort_by_key(|f| (f.line, f.rule));
        found
    }

    fn ctx_model() -> FileCtx {
        FileCtx::new(Layer::Model, "crates/systems/src/x.rs")
    }

    fn run(ctx: FileCtx, src: &str) -> Vec<(usize, &'static str)> {
        findings(ctx, "crates/systems/src/x.rs", src)
            .iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn grouped_aliased_and_self_imports_bind() {
        let src = "\
use std::collections::{BTreeMap, HashSet as Unique};
use crate::queue::{self, EventQueue as Q};
";
        let b = collect_bindings(&lex(src).tokens);
        let path = |name: &str| b.get(name).map(|p| p.join("::"));
        assert_eq!(path("Unique").as_deref(), Some("std::collections::HashSet"));
        assert_eq!(
            path("BTreeMap").as_deref(),
            Some("std::collections::BTreeMap")
        );
        assert_eq!(path("queue").as_deref(), Some("crate::queue"));
        assert_eq!(path("Q").as_deref(), Some("crate::queue::EventQueue"));
        assert_eq!(path("HashSet"), None);
    }

    #[test]
    fn tests_dir_relaxes_time_float_cast() {
        let src = "fn f(d: SimDuration) -> f64 { d.as_nanos() as f64 }\n";
        let in_src = FileCtx::new(Layer::Model, "crates/systems/src/x.rs");
        let in_tests = FileCtx::new(Layer::Model, "crates/systems/tests/x.rs");
        assert_eq!(run(in_src, src), vec![(1, "time-float-cast")]);
        assert!(findings(in_tests, "crates/systems/tests/x.rs", src).is_empty());
    }

    #[test]
    fn multiline_float_sort_is_caught() {
        let src = "\
v.sort_by(|a, b| {
    a.partial_cmp(b).unwrap()
});
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "float-sort")]);
    }

    #[test]
    fn partial_cmp_impl_is_not_a_float_sort() {
        let src = "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n";
        assert!(run(ctx_model(), src).is_empty());
    }

    #[test]
    fn raw_strings_and_comments_never_fire() {
        let src = "\
// v.sort_by(|a, b| a.partial_cmp(b).unwrap()) in prose
let s = r#\"v.sort_by(|a, b| a.partial_cmp(b))\"#;
/* let x = t.as_nanos() as f64; in /* nested */ comment */
let t = \"SimDuration::from_nanos(x as f64 as u64)\";
";
        assert!(run(ctx_model(), src).is_empty());
    }

    #[test]
    fn time_float_cast_matches_legacy_heuristics() {
        let model = ctx_model();
        assert_eq!(
            run(model, "let d = SimDuration::from_nanos(x as f64 as u64);\n"),
            vec![(1, "time-float-cast")]
        );
        assert!(run(model, "let n = queue_len_ns as u64;\n").is_empty());
        assert!(run(model, "let share = busy as f64 / total;\n").is_empty());
        assert_eq!(
            run(model, "let m = SimDuration::from_nanos(h.mean() as u64);\n"),
            vec![(1, "time-float-cast")]
        );
    }
}
