//! The token-stream analyzer: alias-aware determinism rules over the
//! lexer's output.
//!
//! Where a line grep sees scrubbed text, this pass works on real tokens
//! and a little name resolution per file:
//!
//! * **Imports** — every `use` declaration is parsed into bindings
//!   (`use std::collections::HashMap as Fast;` binds `Fast` →
//!   `std::collections::HashMap`), so an aliased hazard still fires and
//!   a re-export (`pub use`) is caught at the declaration.
//! * **Local definitions** — `struct Instant` (or enum/trait/type/fn/…)
//!   defined in the file shadows the hazard name: uses of a same-named
//!   local type are not findings. This is the class of false positive a
//!   lexical grep cannot avoid.
//! * **`#[cfg(test)]` spans** — attributes are matched to the item they
//!   gate (brace-matched through the token stream), and test-only code
//!   (plus `tests/` directories) relaxes `wall-clock` and
//!   `time-float-cast`: timing assertions in tests cannot touch model
//!   state. Everything else (`unordered`, `ambient-rng`, `host-thread`,
//!   `unsafe-code`, `float-sort`) still applies in tests — a flaky test
//!   is a bug too.
//! * **Multi-token matching** — `float-sort` scans the whole argument
//!   list of a `sort_by*` call, so a closure split across lines no
//!   longer hides `partial_cmp`.
//!
//! Rule *scoping* comes from the workspace graph ([`crate::graph`]):
//! the crate's declared layer decides whether `unordered`/
//! `time-float-cast` apply (core + model), whether `host-thread` applies
//! (every layer but harness), and whether `src/bin/` files may read the
//! wall clock (harness only). No hand-maintained path lists.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::Layer;
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::rules::waivers::{Waiver, WaiverSet};
use crate::Finding;

/// Per-file lint context, derived from the workspace graph.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx {
    /// The owning crate's architectural layer.
    pub layer: Layer,
    /// True for `src/bin/` files of a harness-layer crate (drivers that
    /// time real builds with the wall clock).
    pub harness_bin: bool,
    /// True when the file lives in a `tests/` directory.
    pub tests_dir: bool,
}

impl FileCtx {
    /// Build a context for `rel_path` given the owning crate's layer.
    pub fn new(layer: Layer, rel_path: &str) -> FileCtx {
        let in_bin = rel_path.contains("/src/bin/");
        let tests_dir = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
        FileCtx {
            layer,
            harness_bin: layer == Layer::Harness && in_bin,
            tests_dir,
        }
    }
}

/// The result of analyzing one file.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Findings after waiver suppression, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// Well-formed waivers declared in the file (for the ledger).
    pub waivers: Vec<Waiver>,
}

/// Pre-waiver scan state for one file: the token-pass candidate findings
/// plus everything a later pass (the semantic rules) needs to add its
/// own candidates before waivers are applied once, at the end.
pub(crate) struct Scan {
    /// Candidate findings, pre-waiver, in emission order.
    pub(crate) candidates: Vec<Finding>,
    /// Parsed waivers with usage tracking not yet consumed.
    pub(crate) wset: WaiverSet,
    /// The lexed file, for item-level passes.
    pub(crate) lexed: Lexed,
    /// Per-line `#[cfg(test)]` / tests-dir extents (index = 1-based line).
    pub(crate) test_lines: Vec<bool>,
}

/// Run the token rules, producing pre-waiver candidates.
pub(crate) fn scan_source(ctx: FileCtx, rel_path: &str, source: &str) -> Scan {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let wset = WaiverSet::parse(&lexed.comments);

    let bindings = collect_bindings(toks);
    let defs = collect_defs(toks);
    let test_lines = collect_test_lines(ctx, toks, lexed.lines);
    let lines = collect_line_info(toks, lexed.lines);

    // Candidate findings keyed for dedupe: (line, rule, display name).
    let mut seen: BTreeSet<(usize, &'static str, String)> = BTreeSet::new();
    let mut candidates: Vec<Finding> = Vec::new();
    let mut push = |line: usize, rule: &'static str, name: String, message: String| {
        if seen.insert((line, rule, name)) {
            candidates.push(Finding {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    let model_scope = matches!(ctx.layer, Layer::Core | Layer::Model);

    // --- Path-chain rules: unordered / wall-clock / ambient-rng / host-thread.
    for chain in collect_chains(toks) {
        let root = &chain.segs[0];
        let (canon, via_alias) = match bindings.get(root.1.as_str()) {
            Some(path) => {
                let mut canon: Vec<String> = path.clone();
                canon.extend(chain.segs[1..].iter().map(|(_, s)| s.clone()));
                // Alias display only when the binding renamed the item.
                let renamed = path.last().is_some_and(|l| l != &root.1);
                (canon, renamed.then(|| root.1.clone()))
            }
            None if defs.contains(root.1.as_str()) => continue, // local shadow
            None => (chain.segs.iter().map(|(_, s)| s.clone()).collect(), None),
        };
        if matches!(canon[0].as_str(), "crate" | "super" | "self") {
            continue; // crate-local path, not a std hazard
        }
        let seg_line = |i: usize| {
            chain
                .segs
                .get(i)
                .or_else(|| chain.segs.last())
                .map(|(l, _)| *l)
                .unwrap_or(chain.line)
        };
        for (i, seg) in canon.iter().enumerate() {
            // Segments inherited from a binding sit on the use line; the
            // chain's own tokens carry their real lines.
            let extra = canon.len() - chain.segs.len();
            let line = if i < extra {
                chain.line
            } else {
                seg_line(i - extra)
            };
            let display = |seg: &str| match &via_alias {
                Some(a) => format!("{a} (aliasing {seg})"),
                None => seg.to_string(),
            };
            if model_scope && matches!(seg.as_str(), "HashMap" | "HashSet") {
                push(
                    line,
                    "unordered",
                    display(seg),
                    format!(
                        "{} iterates in hasher order, which is not stable across \
                         runs; use BTreeMap/BTreeSet or waive with \
                         `// simlint: allow(unordered, reason=...)`",
                        display(seg)
                    ),
                );
            }
            if !ctx.harness_bin
                && !test_lines[line]
                && matches!(seg.as_str(), "Instant" | "SystemTime" | "UNIX_EPOCH")
            {
                push(
                    line,
                    "wall-clock",
                    display(seg),
                    format!(
                        "{} reads the wall clock, which differs across runs and \
                         machines; simulated time must come from the engine clock",
                        display(seg)
                    ),
                );
            }
            if !ctx.harness_bin {
                if matches!(seg.as_str(), "thread_rng" | "from_entropy" | "OsRng") {
                    push(
                        line,
                        "ambient-rng",
                        display(seg),
                        format!(
                            "{} draws from ambient entropy; all randomness must \
                             come from seeded sim_core::Rng streams",
                            display(seg)
                        ),
                    );
                }
                if seg == "rand" && canon.get(i + 1).is_some_and(|s| s == "random") {
                    push(
                        line,
                        "ambient-rng",
                        "rand::random".into(),
                        "rand::random draws from ambient entropy; all randomness \
                         must come from seeded sim_core::Rng streams"
                            .into(),
                    );
                }
            }
            if ctx.layer != Layer::Harness {
                let std_thread = seg == "std" && canon.get(i + 1).is_some_and(|s| s == "thread");
                let bare_thread = seg == "thread"
                    && canon
                        .get(i + 1)
                        .is_some_and(|s| matches!(s.as_str(), "spawn" | "scope"));
                if std_thread || bare_thread {
                    push(
                        line,
                        "host-thread",
                        "std::thread".into(),
                        "std::thread puts OS threads inside the simulation; models \
                         run on one deterministic event loop, and only crates whose \
                         manifest declares layer = \"harness\" may fan independent \
                         runs across threads"
                            .into(),
                    );
                }
            }
        }
    }

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
                        name.to_string(),
                        "float sort via partial_cmp panics on NaN and invites \
                         platform-dependent totalization; sort on integer keys \
                         (e.g. nanoseconds) instead"
                            .into(),
                    );
                    break;
                }
                _ => {}
            }
        }
    }

    // --- unsafe-code: the keyword itself.
    for t in toks {
        if t.kind.ident() == Some("unsafe") {
            push(
                t.line,
                "unsafe-code",
                "unsafe".into(),
                "unsafe block in a workspace that promises #![forbid(unsafe_code)] \
                 everywhere; the simulation has no business touching raw memory"
                    .into(),
            );
        }
    }

    // --- time-float-cast: per-line time context × float cast.
    if model_scope {
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
                    "as-cast".into(),
                    "bare `as` cast between u64 time and float loses nanoseconds \
                     silently; go through SimDuration's *_f64 \
                     constructors/accessors or waive with a reason"
                        .into(),
                );
            }
        }
    }

    Scan {
        candidates,
        wset,
        lexed,
        test_lines,
    }
}

/// Apply waivers to the accumulated candidates and emit bad/stale
/// waiver findings. Runs once, after every pass contributed candidates,
/// so a waiver for a semantic rule is never falsely reported stale.
pub(crate) fn finalize(
    rel_path: &str,
    mut candidates: Vec<Finding>,
    mut wset: WaiverSet,
) -> Analysis {
    candidates.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    let mut findings: Vec<Finding> = Vec::new();
    for cand in candidates {
        if !wset.suppresses(cand.line, cand.rule) {
            findings.push(cand);
        }
    }
    for (line, msg) in &wset.bad {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: *line,
            rule: "bad-waiver",
            message: msg.clone(),
        });
    }
    findings.extend(wset.stale_findings(rel_path));
    findings.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    Analysis {
        findings,
        waivers: wset.waivers,
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

struct Chain {
    /// (line, segment) pairs in path order.
    segs: Vec<(usize, String)>,
    /// Line of the first segment.
    line: usize,
}

/// Extract maximal `a::b::c` identifier chains. An identifier directly
/// following the `as` keyword is skipped: it is either a cast target
/// (handled by the per-line cast info) or a `use … as alias` name, whose
/// hazard — if any — is carried by the imported path on the same line.
fn collect_chains(toks: &[Token]) -> Vec<Chain> {
    let mut chains = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        let is_ident = matches!(toks[k].kind, TokKind::Ident(_));
        if !is_ident {
            k += 1;
            continue;
        }
        if k > 0 && toks[k - 1].kind.ident() == Some("as") {
            k += 1;
            continue;
        }
        let mut segs = vec![(toks[k].line, toks[k].kind.ident().unwrap().to_string())];
        let mut j = k + 1;
        while j + 2 < toks.len()
            && toks[j].kind == TokKind::Punct(':')
            && toks[j + 1].kind == TokKind::Punct(':')
            && matches!(toks[j + 2].kind, TokKind::Ident(_))
        {
            segs.push((
                toks[j + 2].line,
                toks[j + 2].kind.ident().unwrap().to_string(),
            ));
            j += 3;
        }
        let line = segs[0].0;
        chains.push(Chain { segs, line });
        k = j;
    }
    chains
}

/// Parse every `use` declaration into name → full-path bindings. Shared
/// with the interprocedural call-graph builder, which resolves a plain
/// call through the same alias table the token rules use.
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

/// Names of items defined in this file (struct/enum/trait/type/fn/…),
/// which shadow same-named std hazards.
fn collect_defs(toks: &[Token]) -> BTreeSet<String> {
    let mut defs = BTreeSet::new();
    for k in 0..toks.len() {
        let Some(kw) = toks[k].kind.ident() else {
            continue;
        };
        if matches!(
            kw,
            "struct" | "enum" | "trait" | "union" | "type" | "fn" | "mod" | "const" | "static"
        ) {
            if let Some(TokKind::Ident(name)) = toks.get(k + 1).map(|t| &t.kind) {
                defs.insert(name.clone());
            }
        }
    }
    defs
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

    fn analyze_source(ctx: FileCtx, rel_path: &str, source: &str) -> Analysis {
        let scan = scan_source(ctx, rel_path, source);
        finalize(rel_path, scan.candidates, scan.wset)
    }

    fn ctx_model() -> FileCtx {
        FileCtx::new(Layer::Model, "crates/systems/src/x.rs")
    }

    fn run(ctx: FileCtx, src: &str) -> Vec<(usize, &'static str)> {
        analyze_source(ctx, "crates/systems/src/x.rs", src)
            .findings
            .iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn aliased_hashmap_import_fires_at_import_and_use() {
        let src = "\
use std::collections::HashMap as Fast;
fn f() { let m: Fast<u32, u32> = Fast::new(); }
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "unordered"), (2, "unordered")]);
    }

    #[test]
    fn grouped_and_self_imports_resolve() {
        let src = "\
use std::collections::{BTreeMap, HashSet as Unique};
fn f() { let s = Unique::new(); let m = BTreeMap::new(); }
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "unordered"), (2, "unordered")]);
    }

    #[test]
    fn local_type_with_hazard_name_is_not_a_finding() {
        let src = "\
struct Instant(u64);
impl Instant {
    fn now() -> Instant { Instant(0) }
}
fn f() -> Instant { Instant::now() }
";
        assert!(run(ctx_model(), src).is_empty());
    }

    #[test]
    fn std_time_instant_fires_without_import() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "wall-clock")]);
    }

    #[test]
    fn aliased_wall_clock_fires() {
        let src = "\
use std::time::Instant as Clock;
fn f() { let t = Clock::now(); }
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "wall-clock"), (2, "wall-clock")]);
    }

    #[test]
    fn cfg_test_module_relaxes_wall_clock_but_not_rng() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn timing() {
        let t = Instant::now();
        let r = thread_rng();
    }
}
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(8, "ambient-rng")]);
    }

    #[test]
    fn tests_dir_relaxes_time_float_cast() {
        let src = "fn f(d: SimDuration) -> f64 { d.as_nanos() as f64 }\n";
        let in_src = FileCtx::new(Layer::Model, "crates/systems/src/x.rs");
        let in_tests = FileCtx::new(Layer::Model, "crates/systems/tests/x.rs");
        assert_eq!(run(in_src, src), vec![(1, "time-float-cast")]);
        assert!(analyze_source(in_tests, "crates/systems/tests/x.rs", src)
            .findings
            .is_empty());
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
    fn aliased_thread_module_fires() {
        let src = "\
use std::thread as host;
fn f() { host::spawn(|| {}); }
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "host-thread"), (2, "host-thread")]);
    }

    #[test]
    fn harness_layer_may_thread_but_not_model() {
        let src = "std::thread::scope(|s| { s.spawn(|| {}); });\n";
        assert_eq!(run(ctx_model(), src), vec![(1, "host-thread")]);
        let harness = FileCtx::new(Layer::Harness, "crates/experiments/src/sweep.rs");
        assert!(
            analyze_source(harness, "crates/experiments/src/sweep.rs", src)
                .findings
                .is_empty()
        );
    }

    #[test]
    fn harness_bin_may_read_wall_clock_but_lib_may_not() {
        let src = "let t = std::time::Instant::now();\n";
        let bin = FileCtx::new(Layer::Harness, "crates/bench/src/bin/perf.rs");
        let lib = FileCtx::new(Layer::Harness, "crates/bench/src/lib.rs");
        assert!(analyze_source(bin, "crates/bench/src/bin/perf.rs", src)
            .findings
            .is_empty());
        assert_eq!(
            analyze_source(lib, "crates/bench/src/lib.rs", src).findings[0].rule,
            "wall-clock"
        );
    }

    #[test]
    fn raw_strings_and_comments_never_fire() {
        let src = "\
// HashMap Instant thread_rng in prose
let s = r#\"HashMap unsafe OsRng\"#;
/* std::thread in /* nested */ comment */
let t = \"SystemTime\";
";
        assert!(run(ctx_model(), src).is_empty());
    }

    #[test]
    fn allow_block_waiver_covers_its_span_and_tracks_usage() {
        let src = "\
// simlint: allow-block(unordered, lines=3, reason=fixture table keyed once)
use std::collections::HashMap;
fn f() { let a: HashMap<u8, u8> = HashMap::new(); }
fn g() {}
use std::collections::HashSet;
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(5, "unordered")]);
    }

    #[test]
    fn stale_waiver_fires_when_nothing_is_suppressed() {
        let src = "\
// simlint: allow(unordered, reason=nothing here anymore)
fn clean() {}
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "stale-waiver")]);
    }

    #[test]
    fn rand_random_fires_and_crate_local_paths_do_not() {
        let src = "\
fn f() -> f64 { rand::random() }
fn g() { let h = crate::util::HashMap::new(); }
";
        let f = run(ctx_model(), src);
        assert_eq!(f, vec![(1, "ambient-rng")]);
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

    #[test]
    fn unsafe_keyword_fires_but_forbid_attr_does_not() {
        assert_eq!(run(ctx_model(), "unsafe { }\n"), vec![(1, "unsafe-code")]);
        assert!(run(ctx_model(), "#![forbid(unsafe_code)]\n").is_empty());
    }
}
