//! Forward determinism-taint facts, per function.
//!
//! The token pass flags *mentions* of nondeterminism (`HashMap` in a
//! type, `Instant::now()` in model code). This pass flags *flows*: a
//! nondeterministic value produced at a source reaching an
//! ordering-sensitive sink. Sources:
//!
//! * iteration over an unordered container (`HashMap`/`HashSet` locals,
//!   fields, or parameters — `.iter()`, `.keys()`, `.drain()`, or a
//!   bare `for x in map`),
//! * pointer/address casts (`as *const`, `.as_ptr()`, `addr_of!`) —
//!   addresses vary run to run under ASLR,
//! * float-keyed comparisons (`partial_cmp`, `total_cmp`) — NaN-order
//!   hazards in keys,
//! * unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`),
//! * the return value of a call, tainted iff the callee's summary is.
//!
//! Taint propagates through `let` bindings, assignments, and `for`/`if
//! let` patterns. Sinks:
//!
//! * comparator-driven ordering (`sort_by*`, `binary_search_by*`),
//! * event-queue scheduling (`schedule`, `schedule_at`, `schedule_in`,
//!   `schedule_now`),
//! * inserts/pushes into ordered or queue-shaped receivers (`BTreeMap`
//!   key construction, `push` on a heap/queue/events receiver),
//! * probe/CSV emission (`record`/`emit`/`observe` methods, `writeln!`
//!   and friends).
//!
//! Nothing here looks at other functions: calls are recorded unresolved,
//! and [`crate::interproc`] resolves them against the workspace call
//! graph to decide which sinks fire.
//!
//! This is a lint, not a verifier: it is flow-insensitive within a
//! statement, field-insensitive beyond name matching, and its precision
//! contract is pinned by the fixture corpus, exactly like the token
//! rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileItems;
use crate::lexer::{TokKind, Token};

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "IndexMap"];
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap", "VecDeque"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
const SORT_SINKS: &[&str] = &[
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search_by",
    "binary_search_by_key",
];
const SCHED_SINKS: &[&str] = &["schedule", "schedule_at", "schedule_in", "schedule_now"];
const PUSH_SINKS: &[&str] = &["push", "push_back", "push_front", "insert"];
const EMIT_SINKS: &[&str] = &["record", "emit", "observe", "probe"];
const EMIT_MACROS: &[&str] = &["writeln", "write", "println", "print", "eprintln", "format"];
const RNG_SOURCES: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// Primitive type names: they show up in annotations (`let v: Vec<u64>`)
/// and must not become phantom bindings.
const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str", "dyn",
];

/// Keywords that can precede `(` syntactically but never name a call.
const NOT_CALLABLE: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "let", "fn", "else",
    "unsafe", "await", "ref", "mut", "impl", "dyn", "where", "use", "pub", "mod", "const",
    "static", "enum", "struct", "trait", "type", "self",
];

/// Split a body token range into statement fragments at `;`, `{`, `}`
/// (any depth — blocks become their own fragment sequence).
pub(crate) fn split_statements(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut s = start;
    let stop = end.min(toks.len());
    for (k, t) in toks.iter().enumerate().take(stop).skip(start) {
        if matches!(t.kind, TokKind::Punct(';' | '{' | '}')) {
            if k > s {
                out.push((s, k));
            }
            s = k + 1;
        }
    }
    if end.min(toks.len()) > s {
        out.push((s, end.min(toks.len())));
    }
    out
}

/// If the statement binds names (`let`, `for … in`, assignment), return
/// (bound lowercase-initial names, token index where the rhs starts).
pub(crate) fn binding_split(stmt: &[Token]) -> Option<(Vec<String>, usize)> {
    // `for PAT in EXPR`
    if let Some(fp) = stmt.iter().position(|t| t.kind.ident() == Some("for")) {
        if let Some(ip) = stmt[fp..].iter().position(|t| t.kind.ident() == Some("in")) {
            let names = pattern_names(&stmt[fp + 1..fp + ip]);
            if !names.is_empty() {
                return Some((names, fp + ip + 1));
            }
        }
    }
    // `let PAT = EXPR` (covers `if let` / `while let`)
    if let Some(lp) = stmt.iter().position(|t| t.kind.ident() == Some("let")) {
        if let Some(eq) = assign_pos(stmt, lp + 1) {
            let names = pattern_names(&stmt[lp + 1..eq]);
            if !names.is_empty() {
                return Some((names, eq + 1));
            }
        }
        return None;
    }
    // Plain or compound assignment.
    if let Some(eq) = assign_pos(stmt, 0) {
        let names = pattern_names(&stmt[..eq]);
        if !names.is_empty() {
            return Some((names, eq + 1));
        }
    }
    None
}

/// Index of the first standalone `=` (not `==`, `=>`, `<=`, comparison)
/// at or after `from`; compound assignments (`+=` etc.) count, with the
/// index of the `=` itself returned. The lexer emits `>` and `=` as
/// separate tokens, so `Vec<u64> = …` would read as `>=` without angle
/// tracking: a `>` that closes an open generic list is not a comparison.
fn assign_pos(stmt: &[Token], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut gt_closed_generic = false;
    for k in from..stmt.len() {
        match &stmt[k].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => {
                let arrow = k > 0 && stmt[k - 1].kind == TokKind::Punct('-');
                gt_closed_generic = false;
                if !arrow && angle > 0 {
                    angle -= 1;
                    gt_closed_generic = true;
                }
            }
            TokKind::Punct('=') => {
                let next = stmt.get(k + 1).map(|t| &t.kind);
                if next == Some(&TokKind::Punct('=')) || next == Some(&TokKind::Punct('>')) {
                    continue;
                }
                if k > from {
                    if let TokKind::Punct(p) = stmt[k - 1].kind {
                        match p {
                            '=' | '<' | '!' => continue,
                            '>' if !gt_closed_generic => continue,
                            // `+=`, `-=`, … assign to an existing binding.
                            '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' => return Some(k),
                            _ => {}
                        }
                    }
                }
                return Some(k);
            }
            _ => {}
        }
    }
    None
}

/// Lowercase-initial identifiers in a binding pattern (skips keywords,
/// type names, and primitive-typed annotations do no harm).
fn pattern_names(pat: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for t in pat {
        if let Some(s) = t.kind.ident() {
            if matches!(s, "mut" | "ref" | "let" | "if" | "while" | "self" | "_") {
                continue;
            }
            if PRIMITIVES.contains(&s) {
                continue;
            }
            if s.starts_with(|c: char| c.is_lowercase() || c == '_') {
                out.push(s.to_string());
            }
        }
    }
    out
}

/// Ordering-sensitive sinks present in this statement.
fn stmt_sinks(stmt: &[Token], ordered: &BTreeSet<String>, extra_sched: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, t) in stmt.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let is_method = k > 0 && stmt[k - 1].kind == TokKind::Punct('.');
        if is_method && SORT_SINKS.contains(&s) {
            out.push(format!("comparator sink `.{s}(..)`"));
        }
        if is_method && (SCHED_SINKS.contains(&s) || extra_sched.iter().any(|x| x == s)) {
            out.push(format!("event-queue sink `.{s}(..)`"));
        }
        if is_method && EMIT_SINKS.contains(&s) {
            out.push(format!("probe/CSV emission sink `.{s}(..)`"));
        }
        if is_method && PUSH_SINKS.contains(&s) {
            // Receiver shape: `recv.push(..)` — the ident before the dot.
            if let Some(recv) = stmt[..k - 1].iter().rev().find_map(|t| t.kind.ident()) {
                let name = recv.to_ascii_lowercase();
                let queue_shaped = ["queue", "events", "heap", "ready", "pending"]
                    .iter()
                    .any(|q| name.contains(q));
                if queue_shaped || ordered.contains(recv) {
                    out.push(format!("ordered-insert sink `{recv}.{s}(..)`"));
                }
            }
        }
        if EMIT_MACROS.contains(&s)
            && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('!'))
        {
            out.push(format!("probe/CSV emission sink `{s}!(..)`"));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// One taint origin as recorded in per-function facts.
///
/// `call: None` is a local source (`label` is its origin label, `line`
/// its source line). `call: Some(name)` is a value obtained from a call
/// to `name`, tainted iff the resolved callee's summary is — the
/// interprocedural engine decides that, not this file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginFact {
    /// Callee name for call-carried origins; `None` for local sources.
    pub call: Option<String>,
    /// Origin label (empty for call-carried origins).
    pub label: String,
    /// 1-based line of the originating token.
    pub line: usize,
}

/// An ordering-sensitive sink statement that at least one origin
/// reaches.
#[derive(Debug, Clone)]
pub struct SinkFact {
    /// 1-based line of the sink statement.
    pub line: usize,
    /// Sink label (`event-queue sink `.push(..)``, …).
    pub label: String,
    /// Origins reaching this sink, in token order.
    pub origins: Vec<OriginFact>,
}

/// One call site, for the workspace call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// The called function's name (last path segment).
    pub name: String,
    /// True for method-call syntax (`recv.name(..)`).
    pub method: bool,
    /// Leading `::` path segments (`gen::pick(..)` → `["gen"]`,
    /// `Gen::pick(..)` → `["Gen"]`); empty for a plain call.
    pub path: Vec<String>,
}

/// The taint-relevant facts of one function body.
#[derive(Debug, Clone, Default)]
pub struct FnTaintFacts {
    /// Sinks some origin reaches.
    pub sinks: Vec<SinkFact>,
    /// Origins the return value may carry, in token order.
    pub ret: Vec<OriginFact>,
    /// Distinct call sites in the body.
    pub calls: Vec<CallFact>,
    /// Lines mentioning ambient-RNG sources (shard-hazard input).
    pub rng_lines: Vec<usize>,
}

/// Append `o` to an origin list kept in token order, once.
fn push_origin(list: &mut Vec<OriginFact>, o: &OriginFact) {
    if !list.contains(o) {
        list.push(o.clone());
    }
}

/// Collect per-function taint facts for every function in the file,
/// parallel to `items.fns`.
pub fn collect_fn_facts(
    toks: &[Token],
    items: &FileItems,
    extra_sched: &[String],
) -> Vec<FnTaintFacts> {
    let mut field_unordered: BTreeSet<String> = BTreeSet::new();
    let mut field_ordered: BTreeSet<String> = BTreeSet::new();
    for st in &items.structs {
        for f in &st.fields {
            if f.type_idents
                .iter()
                .any(|t| UNORDERED_TYPES.contains(&t.as_str()))
            {
                field_unordered.insert(f.name.clone());
            }
            if f.type_idents
                .iter()
                .any(|t| ORDERED_TYPES.contains(&t.as_str()))
            {
                field_ordered.insert(f.name.clone());
            }
        }
    }
    items
        .fns
        .iter()
        .map(|f| {
            // Parameters typed as containers seed shape knowledge too:
            // interprocedural helpers take their maps as arguments
            // instead of aliasing them through an annotated `let`.
            let (param_un, param_ord) = param_shapes(toks, f.sig);
            let mut un = field_unordered.clone();
            un.extend(param_un);
            let mut ord = field_ordered.clone();
            ord.extend(param_ord);
            let (sinks, ret) = scan_fn_facts(toks, f.body, &un, &ord, extra_sched);
            FnTaintFacts {
                sinks,
                ret,
                calls: collect_calls(toks, f.body),
                rng_lines: collect_rng_lines(toks, f.body),
            }
        })
        .collect()
}

/// Parameters in `sig` whose type annotation names an unordered or
/// ordered container: each container-type token is walked back to the
/// `name:` annotation that owns it. Path separators (`::`) are skipped;
/// hitting a `(`, `)`, or `,` first means the token is not inside a
/// parameter annotation (e.g. a return type) and is ignored.
fn param_shapes(toks: &[Token], sig: (usize, usize)) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut un = BTreeSet::new();
    let mut ord = BTreeSet::new();
    let sig_toks = &toks[sig.0.min(toks.len())..sig.1.min(toks.len())];
    for (k, t) in sig_toks.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let is_un = UNORDERED_TYPES.contains(&s);
        let is_ord = ORDERED_TYPES.contains(&s);
        if !is_un && !is_ord {
            continue;
        }
        let mut i = k;
        let name = loop {
            if i == 0 {
                break None;
            }
            i -= 1;
            match &sig_toks[i].kind {
                TokKind::Punct(':') => {
                    if i > 0 && sig_toks[i - 1].kind == TokKind::Punct(':') {
                        i -= 1; // path separator, keep walking
                        continue;
                    }
                    break sig_toks[..i]
                        .last()
                        .and_then(|t| t.kind.ident())
                        .filter(|n| n.starts_with(|c: char| c.is_lowercase() || c == '_'))
                        .map(str::to_string);
                }
                TokKind::Punct('(' | ')' | ',') => break None,
                _ => {}
            }
        };
        if let Some(n) = name {
            if is_un {
                un.insert(n.clone());
            }
            if is_ord {
                ord.insert(n);
            }
        }
    }
    (un, ord)
}

/// Scan one function body: returns (sinks some origin reaches, origins
/// of the return value). Origins are multi-valued and calls are recorded
/// unresolved.
fn scan_fn_facts(
    toks: &[Token],
    body: (usize, usize),
    field_unordered: &BTreeSet<String>,
    field_ordered: &BTreeSet<String>,
    extra_sched: &[String],
) -> (Vec<SinkFact>, Vec<OriginFact>) {
    let stmts = split_statements(toks, body.0, body.1);
    let mut tainted: BTreeMap<String, Vec<OriginFact>> = BTreeMap::new();
    let mut unordered: BTreeSet<String> = field_unordered.clone();
    let mut ordered: BTreeSet<String> = field_ordered.clone();
    let mut sinks: Vec<SinkFact> = Vec::new();
    let mut ret: Vec<OriginFact> = Vec::new();
    let push_ret = |ret: &mut Vec<OriginFact>, os: &[OriginFact]| {
        for o in os {
            push_origin(ret, o);
        }
    };

    // Two forward passes: loop bodies can use bindings that are only
    // re-tainted on a later statement of the same body.
    for pass in 0..2 {
        let emit = pass == 1;
        for &(s, e) in &stmts {
            let stmt = &toks[s..e];
            if stmt.is_empty() {
                continue;
            }
            let origins = stmt_origins(stmt, &tainted, &unordered);

            // Propagation: bind lhs names when the statement binds.
            if let Some((lhs, rhs_at)) = binding_split(stmt) {
                let rhs = &stmt[rhs_at..];
                let rhs_origins = stmt_origins(rhs, &tainted, &unordered);
                // Shape flows through type annotations too (`let m2:
                // &HashMap<..> = m;`), so scan the whole statement.
                let rhs_unordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| UNORDERED_TYPES.contains(&s) || unordered.contains(s))
                });
                let rhs_ordered = stmt.iter().any(|t| {
                    t.kind
                        .ident()
                        .is_some_and(|s| ORDERED_TYPES.contains(&s) || ordered.contains(s))
                });
                let has_local = rhs_origins.iter().any(|o| o.call.is_none());
                for name in lhs {
                    if !rhs_origins.is_empty() {
                        // A local source always taints the new value. A
                        // right-hand side of calls alone may resolve clean,
                        // so the binding keeps its earlier origins after them.
                        let mut v = rhs_origins.clone();
                        if !has_local {
                            for o in tainted.get(&name).into_iter().flatten() {
                                push_origin(&mut v, o);
                            }
                        }
                        tainted.insert(name.clone(), v);
                    }
                    if rhs_unordered && !has_local {
                        // Alias of a container, not yet an iterated value.
                        unordered.insert(name.clone());
                    }
                    if rhs_ordered {
                        ordered.insert(name.clone());
                    }
                }
            }

            if !emit {
                continue;
            }
            if !origins.is_empty() {
                let line = stmt[0].line;
                for label in stmt_sinks(stmt, &ordered, extra_sched) {
                    sinks.push(SinkFact {
                        line,
                        label,
                        origins: origins.clone(),
                    });
                }
            }
            if stmt.iter().any(|t| t.kind.ident() == Some("return")) {
                push_ret(&mut ret, &origins);
            }
        }
        // Tail expression: the last fragment taints the return value.
        if let Some(&(s, e)) = stmts.last() {
            let os = stmt_origins(&toks[s..e], &tainted, &unordered);
            push_ret(&mut ret, &os);
        }
    }
    (sinks, ret)
}

/// Every origin a statement fragment carries, in token order, with
/// unresolved calls as first-class origins.
fn stmt_origins(
    stmt: &[Token],
    tainted: &BTreeMap<String, Vec<OriginFact>>,
    unordered: &BTreeSet<String>,
) -> Vec<OriginFact> {
    let mut out: Vec<OriginFact> = Vec::new();
    let push = |out: &mut Vec<OriginFact>, o: OriginFact| push_origin(out, &o);
    for (k, t) in stmt.iter().enumerate() {
        let Some(s) = t.kind.ident() else { continue };
        let line = t.line;
        let local = |label: String| OriginFact {
            call: None,
            label,
            line,
        };
        if s == "as"
            && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('*'))
            && matches!(
                stmt.get(k + 2).and_then(|t| t.kind.ident()),
                Some("const" | "mut")
            )
        {
            push(&mut out, local("address-cast value".to_string()));
            continue;
        }
        if matches!(s, "as_ptr" | "as_mut_ptr" | "addr_of" | "addr_of_mut") {
            push(&mut out, local("address-cast value".to_string()));
            continue;
        }
        if matches!(s, "partial_cmp" | "total_cmp") {
            push(&mut out, local("float-keyed comparison".to_string()));
            continue;
        }
        if RNG_SOURCES.contains(&s) {
            push(&mut out, local(format!("unseeded RNG (`{s}`)")));
            continue;
        }
        if s == "random"
            && k >= 3
            && stmt[k - 1].kind == TokKind::Punct(':')
            && stmt[k - 2].kind == TokKind::Punct(':')
            && stmt[k - 3].kind.ident() == Some("rand")
        {
            push(&mut out, local("unseeded RNG (`rand::random`)".to_string()));
            continue;
        }
        if unordered.contains(s) {
            let method_after = stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('.'))
                && stmt
                    .get(k + 2)
                    .and_then(|t| t.kind.ident())
                    .is_some_and(|m| ITER_METHODS.contains(&m));
            let for_subject = k > 0
                && stmt[..k]
                    .iter()
                    .rev()
                    .find_map(|t| t.kind.ident())
                    .is_some_and(|p| p == "in");
            if method_after || for_subject {
                push(
                    &mut out,
                    local(format!("iteration over unordered container `{s}`")),
                );
            }
        }
        if let Some(origins) = tainted.get(s) {
            for o in origins {
                push(&mut out, o.clone());
            }
        }
        if is_call_name(s) && stmt.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('(')) {
            push(
                &mut out,
                OriginFact {
                    call: Some(s.to_string()),
                    label: String::new(),
                    line,
                },
            );
        }
    }
    out
}

/// Is this identifier plausibly a callable name? Lowercase-initial and
/// not a control-flow keyword (which can precede `(` syntactically).
fn is_call_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_lowercase() || c == '_') && !NOT_CALLABLE.contains(&s)
}

/// Distinct call sites in a body: `name(..)`, `recv.name(..)`, and
/// path-qualified `a::b::name(..)` forms. Macros (`name!(..)`) and
/// uppercase constructors (`Variant(..)`) are not calls.
pub fn collect_calls(toks: &[Token], body: (usize, usize)) -> Vec<CallFact> {
    let mut out: Vec<CallFact> = Vec::new();
    let end = body.1.min(toks.len());
    for k in body.0..end {
        let Some(s) = toks[k].kind.ident() else {
            continue;
        };
        if !is_call_name(s) {
            continue;
        }
        if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct('(')) {
            continue;
        }
        let method = k > 0 && toks[k - 1].kind == TokKind::Punct('.');
        let mut path: Vec<String> = Vec::new();
        if !method {
            // Walk backward through `seg ::` pairs.
            let mut j = k;
            while j >= 3
                && toks[j - 1].kind == TokKind::Punct(':')
                && toks[j - 2].kind == TokKind::Punct(':')
            {
                match toks[j - 3].kind.ident() {
                    Some(seg) => {
                        path.insert(0, seg.to_string());
                        j -= 3;
                    }
                    None => break,
                }
            }
        }
        let cf = CallFact {
            name: s.to_string(),
            method,
            path,
        };
        if !out.contains(&cf) {
            out.push(cf);
        }
    }
    out
}

/// Lines in a body mentioning ambient-RNG sources (`thread_rng`,
/// `from_entropy`, `OsRng`, `rand::random`).
fn collect_rng_lines(toks: &[Token], body: (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    let end = body.1.min(toks.len());
    for k in body.0..end {
        let Some(s) = toks[k].kind.ident() else {
            continue;
        };
        let hit = RNG_SOURCES.contains(&s)
            || (s == "random"
                && k >= 3
                && toks[k - 1].kind == TokKind::Punct(':')
                && toks[k - 2].kind == TokKind::Punct(':')
                && toks[k - 3].kind.ident() == Some("rand"));
        if hit && !out.contains(&toks[k].line) {
            out.push(toks[k].line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::interproc::Workspace;

    /// Taint finding messages of `src` linted as the only file of a
    /// model-layer workspace.
    fn flows(src: &str, extra_sched: &[String]) -> Vec<String> {
        let files = [crate::model_facts(
            "m",
            "crates/m/src/lib.rs",
            src,
            extra_sched,
        )];
        let ws = Workspace::new(&files);
        ws.interproc_findings(&ws.summaries())
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    fn taint(src: &str) -> Vec<String> {
        flows(src, &[])
    }

    #[test]
    fn declared_sched_sinks_extend_the_builtin_family() {
        let src = "\
fn arm(q: &mut EventQueue<u64>, m: &HashMap<u64, u64>) {
    let m2: &HashMap<u64, u64> = m;
    let first: u64 = m2.keys().copied().next().unwrap_or(0);
    q.push_handle(SimTime::from_nanos(first), first);
}
";
        // Not a sink by default...
        assert!(taint(src).is_empty());
        // ...but declared via manifest metadata, the same flow fires.
        let fs = flows(src, &["push_handle".to_string()]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].contains("event-queue sink `.push_handle(..)`"),
            "{fs:?}"
        );
    }

    #[test]
    fn hashmap_iteration_reaching_sort_fires() {
        let src = "\
fn order(m: &HashMap<u64, u64>) -> Vec<u64> {
    let m2: &HashMap<u64, u64> = m;
    let mut v: Vec<u64> = m2.keys().copied().collect();
    v.sort_by(|a, b| a.cmp(b));
    v
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("unordered container"), "{fs:?}");
        assert!(fs[0].contains("comparator sink"), "{fs:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "\
fn order(m: &BTreeMap<u64, u64>) -> Vec<u64> {
    let m2: &BTreeMap<u64, u64> = m;
    let mut v: Vec<u64> = m2.keys().copied().collect();
    v.sort_by(|a, b| a.cmp(b));
    v
}
";
        assert!(taint(src).is_empty());
    }

    #[test]
    fn address_cast_into_schedule_fires() {
        let src = "\
fn go(&mut self, task: &Task) {
    let key = task as *const Task as usize;
    self.eq.schedule(SimTime::ZERO, key as u64);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("address-cast"), "{fs:?}");
        assert!(fs[0].contains("event-queue sink"), "{fs:?}");
    }

    #[test]
    fn taint_through_same_file_helper_return() {
        let src = "\
fn pick(m: &HashMap<u64, u64>) -> u64 {
    let m2: &HashMap<u64, u64> = m;
    let first = m2.keys().next();
    first.copied().unwrap_or(0)
}
fn drive(&mut self) {
    let k = pick(&self.live);
    self.events.push(k);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("via `pick()`"), "{fs:?}");
        assert!(fs[0].contains("ordered-insert sink"), "{fs:?}");
    }

    #[test]
    fn unordered_struct_field_for_loop_into_emit_fires() {
        let src = "\
struct Reg { live: HashMap<u64, u64> }
impl Reg {
    fn dump(&self, out: &mut String) {
        for k in self.live.keys() {
            writeln!(out, \"{}\", k).unwrap();
        }
    }
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("`live`"), "{fs:?}");
        assert!(fs[0].contains("writeln!"), "{fs:?}");
    }

    #[test]
    fn a_long_call_chain_does_not_crowd_out_a_local_source() {
        let src = "\
fn go(&mut self, v: &[u8]) {
    let key = v.c1().c2().c3().c4().c5().c6().c7().c8().c9().c10().c11().c12().c13().as_ptr() as u64;
    self.eq.schedule(SimTime::ZERO, key);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].starts_with("address-cast value flows"), "{fs:?}");
    }

    #[test]
    fn a_tainted_helper_after_many_calls_still_fires() {
        let src = "\
fn pick(m: &Slot) -> u64 {
    m as *const Slot as u64
}
fn go(&mut self, m: &Slot) {
    let k = a(1).min(b(2)).max(c(3)).pow(d(4)) + pick(m);
    self.q.schedule(k);
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].starts_with("address-cast value (via `pick()`) flows"),
            "{fs:?}"
        );
    }

    #[test]
    fn a_clean_call_rebinding_keeps_the_earlier_taint() {
        let src = "\
struct Reg {
    live: HashMap<u64, u64>,
}
fn go(&mut self) {
    let mut k = self.live.keys().copied().next().unwrap_or(0);
    k = fresh();
    self.q.schedule(k);
}
fn fresh() -> u64 {
    7
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("unordered container `live`"), "{fs:?}");
    }

    #[test]
    fn untainted_sinks_do_not_fire() {
        let src = "\
fn go(&mut self, t: SimTime, id: u64) {
    self.eq.schedule(t, id);
    let mut v = vec![3u64, 1, 2];
    v.sort_by(|a, b| a.cmp(b));
}
";
        assert!(taint(src).is_empty());
    }

    #[test]
    fn rng_into_sort_key_fires() {
        let src = "\
fn shuffle(v: &mut Vec<u64>) {
    let mut rng = thread_rng();
    v.sort_by_key(|_| rng.gen::<u64>());
}
";
        let fs = taint(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].contains("unseeded RNG"), "{fs:?}");
    }
}
