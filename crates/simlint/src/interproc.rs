//! Workspace-level interprocedural analysis: the cross-file, cross-crate
//! call graph, SCC condensation, and bottom-up taint summaries.
//!
//! The per-file half is [`FileFacts`]: a pure function of one file's
//! source and its crate's manifest metadata, holding the pre-waiver lint
//! candidates alongside call/taint/static facts. The global half is
//! [`Workspace`]: an index over every file's facts that
//!
//! 1. resolves each [`CallFact`] to candidate definitions — same file
//!    first, then through `use`-alias bindings, then by name within the
//!    owning crate; method calls resolve to every workspace `impl` fn of
//!    that name, `Type::method` forms narrow to impls of `Type`, and
//!    `Self::method` to the caller's impl type;
//! 2. condenses the call graph into SCCs (iterative Tarjan) and computes
//!    bottom-up per-function taint summaries in callees-first order,
//!    iterating each SCC to a fixpoint (a summary is never overwritten
//!    once resolved, so cycles terminate);
//! 3. emits determinism-taint findings for sinks fed by a local source
//!    or a call whose summary is tainted, with the *source* location
//!    attached when the chain crosses files.
//!
//! Resolution is deliberately over-approximate (a lint, not a linker):
//! an unresolvable call simply has no edges, and a name collision adds
//! edges. Both err toward *more* reachability, which is the conservative
//! direction for taint and for the shard-safety certificate built on the
//! same graph ([`crate::shard`]).

use std::collections::BTreeMap;

use crate::dataflow::{CallFact, FnTaintFacts, OriginFact};
use crate::items::FileItems;
use crate::lexer::{TokKind, Token};
use crate::rules::semantic::{LedgerSites, INTERIOR_MUTABLE};
use crate::rules::waivers::WaiverSet;
use crate::Finding;

/// A mention of an all-caps (static-shaped) identifier in a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalRef {
    /// The identifier.
    pub name: String,
    /// 1-based line of the mention.
    pub line: usize,
    /// True when the mention looks like a write (`NAME = ..`,
    /// `NAME += ..`, or a mutating/locking method call on it).
    pub write: bool,
}

/// One `static` (or `thread_local!` static) declaration, classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFact {
    /// The static's name.
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// `static mut`.
    pub mutable: bool,
    /// Declared inside a `thread_local!` extent.
    pub tls: bool,
    /// Type mentions an interior-mutable wrapper (`Mutex`, `OnceLock`,
    /// `Atomic*`, …).
    pub interior: bool,
}

/// One function with its interprocedural facts.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Owning `impl` type name for methods (`impl Dispatcher` →
    /// `Some("Dispatcher")`); `None` for free functions.
    pub impl_type: Option<String>,
    /// Taint facts of the body.
    pub taint: FnTaintFacts,
    /// Static-shaped identifier mentions in the body.
    pub global_refs: Vec<GlobalRef>,
}

/// Everything the global passes need from one file — a pure function of
/// the file's source plus its crate's manifest metadata.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Pre-waiver candidates from the per-file passes (token rules and
    /// semantic rules).
    pub candidates: Vec<Finding>,
    /// The file's parsed waivers, applied once at finalize time.
    pub wset: WaiverSet,
    /// Per declared ledger field: this file's non-test sites.
    pub ledger: Vec<(String, LedgerSites)>,
    /// `use`-alias bindings: visible name → full path segments.
    pub bindings: BTreeMap<String, Vec<String>>,
    /// Per-function facts, in file order.
    pub fns: Vec<FnFact>,
    /// Classified statics.
    pub statics: Vec<StaticFact>,
    /// True when taint findings may be emitted for this file
    /// (core/model layer, not a tests dir).
    pub taint_scope: bool,
    /// File contains `#![forbid(unsafe_code)]` (the missing-forbid input
    /// for crate roots).
    pub has_forbid: bool,
}

/// Classify the file's statics, marking those inside `thread_local!`
/// extents as TLS.
pub fn collect_statics(toks: &[Token], items: &FileItems) -> Vec<StaticFact> {
    let tls_spans = tls_extents(toks);
    items
        .statics
        .iter()
        .map(|st| {
            let interior = st
                .type_idents
                .iter()
                .any(|t| INTERIOR_MUTABLE.contains(&t.as_str()) || t.starts_with("Atomic"));
            let tls = tls_spans.iter().any(|&(a, b)| a <= st.line && st.line <= b);
            StaticFact {
                name: st.name.clone(),
                line: st.line,
                mutable: st.mutable,
                tls,
                interior,
            }
        })
        .collect()
}

/// Line extents of `thread_local! { .. }` invocations.
fn tls_extents(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind.ident() != Some("thread_local") {
            continue;
        }
        if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct('!')) {
            continue;
        }
        let Some(open) =
            (k + 2..toks.len().min(k + 4)).find(|&i| toks[i].kind == TokKind::Punct('{'))
        else {
            continue;
        };
        let mut depth = 0i32;
        let mut close = None;
        for (off, t) in toks[open..].iter().enumerate() {
            if t.kind == TokKind::Punct('{') {
                depth += 1;
            } else if t.kind == TokKind::Punct('}') {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + off);
                    break;
                }
            }
        }
        if let Some(c) = close {
            out.push((toks[k].line, toks[c].line));
        }
    }
    out
}

/// Methods that mutate (or hand out mutable access to) the receiver —
/// touching a static through one of these counts as a write.
const WRITE_METHODS: &[&str] = &[
    "set",
    "get_or_init",
    "get_or_insert_with",
    "get_or_try_init",
    "lock",
    "write",
    "borrow_mut",
    "get_mut",
    "store",
    "swap",
    "insert",
    "push",
    "remove",
    "clear",
    "replace",
    "take",
    "init",
    "with_borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Collect all-caps identifier mentions in a body with a read/write
/// classification. Only names that match an actual workspace `static`
/// matter downstream; everything else is ignored at certification time.
pub fn collect_global_refs(toks: &[Token], body: (usize, usize)) -> Vec<GlobalRef> {
    let mut out: Vec<GlobalRef> = Vec::new();
    let end = body.1.min(toks.len());
    for k in body.0..end {
        let Some(s) = toks[k].kind.ident() else {
            continue;
        };
        if s.len() < 2
            || !s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            || !s
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        {
            continue;
        }
        let next = toks.get(k + 1).map(|t| &t.kind);
        let write = match next {
            Some(TokKind::Punct('.')) => toks
                .get(k + 2)
                .and_then(|t| t.kind.ident())
                .is_some_and(|m| WRITE_METHODS.contains(&m)),
            Some(TokKind::Punct('=')) => {
                // `NAME = ..` but not `NAME == ..`.
                toks.get(k + 2).map(|t| &t.kind) != Some(&TokKind::Punct('='))
            }
            Some(TokKind::Punct(op @ ('+' | '-' | '*' | '/' | '%' | '|' | '&' | '^'))) => {
                let _ = op;
                toks.get(k + 2).map(|t| &t.kind) == Some(&TokKind::Punct('='))
            }
            _ => false,
        };
        let gr = GlobalRef {
            name: s.to_string(),
            line: toks[k].line,
            write,
        };
        if !out.contains(&gr) {
            out.push(gr);
        }
    }
    out
}

/// A function's identity in the workspace: (file index, fn index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into that file's [`FileFacts::fns`].
    pub idx: usize,
}

/// A resolved taint summary: the origin a function's return value
/// carries, with the chain-root source location for cross-file
/// reporting.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Origin label, `(via ..)` clauses included.
    pub label: String,
    /// File index of the chain-root local source.
    pub file: usize,
    /// 1-based line of the chain-root local source.
    pub line: usize,
}

/// One determinism-taint finding, pre-formatting.
#[derive(Debug, Clone)]
pub struct InterFinding {
    /// File index of the sink.
    pub file: usize,
    /// 1-based sink line.
    pub line: usize,
    /// `{origin} flows into {sink}`.
    pub message: String,
    /// Chain-root `(file index, line)` of every live origin reaching the
    /// sink, the reported one first.
    pub sources: Vec<(usize, usize)>,
}

/// The workspace call-graph index over every file's facts.
pub struct Workspace<'a> {
    /// The indexed files.
    pub files: &'a [FileFacts],
    /// Normalized (`-` → `_`) crate name → canonical crate name.
    crate_norm: BTreeMap<String, String>,
    /// (crate name, fn name) → definitions.
    by_crate: BTreeMap<(String, String), Vec<FnRef>>,
    /// Method name → impl-owned definitions, workspace-wide.
    methods: BTreeMap<String, Vec<FnRef>>,
    /// (impl type name, fn name) → definitions.
    by_type: BTreeMap<(String, String), Vec<FnRef>>,
    /// Static name → worst-case (mutable, tls, interior) over all
    /// same-named statics, with one declaration site.
    statics: BTreeMap<String, (StaticFact, usize)>,
}

impl<'a> Workspace<'a> {
    /// Build the index.
    pub fn new(files: &'a [FileFacts]) -> Workspace<'a> {
        let mut ws = Workspace {
            files,
            crate_norm: BTreeMap::new(),
            by_crate: BTreeMap::new(),
            methods: BTreeMap::new(),
            by_type: BTreeMap::new(),
            statics: BTreeMap::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            ws.crate_norm
                .insert(f.crate_name.replace('-', "_"), f.crate_name.clone());
            for (xi, fun) in f.fns.iter().enumerate() {
                let r = FnRef { file: fi, idx: xi };
                ws.by_crate
                    .entry((f.crate_name.clone(), fun.name.clone()))
                    .or_default()
                    .push(r);
                if let Some(ty) = &fun.impl_type {
                    ws.methods.entry(fun.name.clone()).or_default().push(r);
                    ws.by_type
                        .entry((ty.clone(), fun.name.clone()))
                        .or_default()
                        .push(r);
                }
            }
            for st in &f.statics {
                ws.statics
                    .entry(st.name.clone())
                    .and_modify(|(cur, _)| {
                        cur.mutable |= st.mutable;
                        cur.tls |= st.tls;
                        cur.interior |= st.interior;
                    })
                    .or_insert_with(|| (st.clone(), fi));
            }
        }
        ws
    }

    /// Worst-case classification of the named workspace static, with the
    /// file index of its first declaration.
    pub fn static_named(&self, name: &str) -> Option<&(StaticFact, usize)> {
        self.statics.get(name)
    }

    /// Definitions of `Type::name` across the workspace.
    pub fn fns_of_type(&self, ty: &str, name: &str) -> Vec<FnRef> {
        self.by_type
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Definitions of `name` within `krate`.
    pub fn fns_in_crate(&self, krate: &str, name: &str) -> Vec<FnRef> {
        self.by_crate
            .get(&(krate.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn crate_from_seg(&self, seg: &str, own: &str) -> String {
        match seg {
            "crate" | "self" | "super" => own.to_string(),
            _ => self
                .crate_norm
                .get(&seg.replace('-', "_"))
                .cloned()
                .unwrap_or_else(|| own.to_string()),
        }
    }

    fn same_file(&self, file: usize, name: &str) -> Vec<FnRef> {
        self.files[file]
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name)
            .map(|(idx, _)| FnRef { file, idx })
            .collect()
    }

    /// Resolve a call site in `at`'s body to candidate definitions.
    pub fn resolve(&self, at: FnRef, call: &CallFact) -> Vec<FnRef> {
        let file = at.file;
        let facts = &self.files[file];
        let own = facts.crate_name.as_str();
        let mut out: Vec<FnRef>;
        if call.method {
            // `recv.m(..)`: any same-file fn named m, plus every
            // workspace impl-owned fn of that name.
            out = self.same_file(file, &call.name);
            if let Some(v) = self.methods.get(&call.name) {
                out.extend(v.iter().copied());
            }
        } else if let Some(seg) = call.path.last() {
            // Resolve a leading alias on the qualifier.
            let seg = facts
                .bindings
                .get(seg)
                .and_then(|p| p.last())
                .map(String::as_str)
                .unwrap_or(seg);
            if seg == "Self" {
                // `Self::m(..)`: the caller's impl type, else any
                // same-file fn of that name (a trait's default body).
                out = facts.fns[at.idx]
                    .impl_type
                    .as_ref()
                    .map(|ty| self.fns_of_type(ty, &call.name))
                    .unwrap_or_default();
                if out.is_empty() {
                    out = self.same_file(file, &call.name);
                }
            } else if seg.starts_with(|c: char| c.is_ascii_uppercase()) {
                // `Type::m(..)`.
                out = self.fns_of_type(seg, &call.name);
            } else {
                // Module path: the first segment picks the crate.
                let first = call.path.first().map(String::as_str).unwrap_or(seg);
                let first = facts
                    .bindings
                    .get(first)
                    .and_then(|p| p.first())
                    .map(String::as_str)
                    .unwrap_or(first);
                let krate = self.crate_from_seg(first, own);
                out = self
                    .by_crate
                    .get(&(krate, call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        } else {
            // Plain `name(..)`: same file, then the `use` binding, then
            // same crate by name.
            out = self.same_file(file, &call.name);
            if out.is_empty() {
                if let Some(path) = facts.bindings.get(&call.name) {
                    if let (Some(first), Some(last)) = (path.first(), path.last()) {
                        let krate = self.crate_from_seg(first, own);
                        out = self
                            .by_crate
                            .get(&(krate, last.clone()))
                            .cloned()
                            .unwrap_or_default();
                    }
                }
            }
            if out.is_empty() {
                out = self
                    .by_crate
                    .get(&(own.to_string(), call.name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn node_list(&self) -> (Vec<FnRef>, BTreeMap<FnRef, usize>) {
        let mut nodes = Vec::new();
        let mut index = BTreeMap::new();
        for (fi, f) in self.files.iter().enumerate() {
            for xi in 0..f.fns.len() {
                let r = FnRef { file: fi, idx: xi };
                index.insert(r, nodes.len());
                nodes.push(r);
            }
        }
        (nodes, index)
    }

    /// Call-graph adjacency (node index → callee node indices), plus the
    /// node list itself.
    pub fn call_graph(&self) -> (Vec<FnRef>, Vec<Vec<usize>>) {
        let (nodes, index) = self.node_list();
        let mut adj = vec![Vec::new(); nodes.len()];
        for (ni, r) in nodes.iter().enumerate() {
            let fun = &self.files[r.file].fns[r.idx];
            let mut outs: Vec<usize> = fun
                .taint
                .calls
                .iter()
                .flat_map(|c| self.resolve(*r, c))
                .filter_map(|t| index.get(&t).copied())
                .collect();
            outs.sort_unstable();
            outs.dedup();
            adj[ni] = outs;
        }
        (nodes, adj)
    }

    /// Bottom-up taint summaries for every function, keyed the same way
    /// as [`FileFacts::fns`] (outer: file index, inner: fn index).
    ///
    /// SCCs are processed callees-first; within an SCC the resolution
    /// iterates to a fixpoint. A function's summary is its *first*
    /// return origin that resolves live — a local source always does, a
    /// call-carried origin does once its callee has a summary — and a
    /// summary is never overwritten, which guarantees termination on
    /// cycles.
    pub fn summaries(&self) -> Vec<Vec<Option<Summary>>> {
        let (nodes, adj) = self.call_graph();
        let index: BTreeMap<FnRef, usize> =
            nodes.iter().enumerate().map(|(i, r)| (*r, i)).collect();
        let sccs = tarjan_sccs(&adj);
        let mut sums: Vec<Option<Summary>> = vec![None; nodes.len()];
        for scc in &sccs {
            // Fixpoint within the SCC (singletons converge in one pass).
            for _round in 0..scc.len().max(1) {
                let mut changed = false;
                for &ni in scc {
                    if sums[ni].is_some() {
                        continue;
                    }
                    let r = nodes[ni];
                    let fun = &self.files[r.file].fns[r.idx];
                    for o in &fun.taint.ret {
                        let resolved = self.resolve_origin(r, o, |t| {
                            index.get(&t).and_then(|&ti| sums[ti].clone())
                        });
                        if let Some(s) = resolved {
                            sums[ni] = Some(s);
                            changed = true;
                            break;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        // Re-key by (file, fn).
        let mut out: Vec<Vec<Option<Summary>>> =
            self.files.iter().map(|f| vec![None; f.fns.len()]).collect();
        for (ni, r) in nodes.iter().enumerate() {
            out[r.file][r.idx] = sums[ni].take();
        }
        out
    }

    /// The summary an origin in `at`'s body resolves to: a local source
    /// is its own summary; a call-carried origin takes the first resolved
    /// callee's summary (looked up through `summary_of`), labelled with
    /// a `(via `f()`)` suffix.
    fn resolve_origin(
        &self,
        at: FnRef,
        o: &OriginFact,
        summary_of: impl Fn(FnRef) -> Option<Summary>,
    ) -> Option<Summary> {
        let Some(callee) = &o.call else {
            return Some(Summary {
                label: o.label.clone(),
                file: at.file,
                line: o.line,
            });
        };
        let fun = &self.files[at.file].fns[at.idx];
        let call = fun.taint.calls.iter().find(|c| c.name == *callee)?;
        let s = self.resolve(at, call).into_iter().find_map(summary_of)?;
        Some(Summary {
            label: format!("{} (via `{}()`)", s.label, callee),
            ..s
        })
    }

    /// Determinism-taint findings: every sink with a live origin — a
    /// local source, or a call whose resolved summary is tainted — is
    /// reported once, from its first live origin, in files where taint
    /// findings are in scope.
    pub fn interproc_findings(&self, sums: &[Vec<Option<Summary>>]) -> Vec<InterFinding> {
        let mut out = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            if !f.taint_scope {
                continue;
            }
            for (xi, fun) in f.fns.iter().enumerate() {
                let at = FnRef { file: fi, idx: xi };
                for sink in &fun.taint.sinks {
                    let live: Vec<Summary> = sink
                        .origins
                        .iter()
                        .filter_map(|o| self.resolve_origin(at, o, |t| sums[t.file][t.idx].clone()))
                        .collect();
                    let Some(s) = live.first() else {
                        continue;
                    };
                    out.push(InterFinding {
                        file: fi,
                        line: sink.line,
                        message: format!("{} flows into {}", s.label, sink.label),
                        sources: live.iter().map(|l| (l.file, l.line)).collect(),
                    });
                }
            }
        }
        out
    }
}

/// Iterative Tarjan SCC. Returns components in completion order, which
/// is callees-first — exactly the order bottom-up summary resolution
/// wants.
pub fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next child position) — the explicit DFS frame.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{collect_fn_facts, SinkFact};
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn facts_for(crate_name: &str, rel: &str, src: &str) -> FileFacts {
        crate::model_facts(crate_name, rel, src, &[])
    }

    #[test]
    fn tarjan_orders_callees_first() {
        // 0 → 1 → 2, cycle {3,4} → 2.
        let adj = vec![vec![1], vec![2], vec![], vec![4, 2], vec![3]];
        let sccs = tarjan_sccs(&adj);
        let pos = |n: usize| sccs.iter().position(|c| c.contains(&n)).unwrap();
        assert!(pos(2) < pos(1) && pos(1) < pos(0));
        assert_eq!(sccs[pos(3)], vec![3, 4]);
    }

    #[test]
    fn cross_crate_summary_resolves_through_use_binding() {
        let a = facts_for(
            "gen",
            "crates/gen/src/lib.rs",
            "pub fn pick(m: &HashMap<u32, u32>) -> Vec<u32> {\n    let order: Vec<u32> = m.keys().copied().collect();\n    order\n}\n",
        );
        let b = facts_for(
            "engine",
            "crates/engine/src/lib.rs",
            "use gen::pick;\nfn drive(m: &HashMap<u32, u32>, q: &mut Queue) {\n    let order = pick(m);\n    q.schedule(order);\n}\n",
        );
        let files = vec![a, b];
        let ws = Workspace::new(&files);
        let sums = ws.summaries();
        assert!(
            sums[0][0]
                .as_ref()
                .is_some_and(|s| s.label.contains("unordered container `m`")),
            "{sums:?}"
        );
        let found = ws.interproc_findings(&sums);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("(via `pick()`)"),
            "{}",
            found[0].message
        );
        assert_eq!(found[0].sources, vec![(0, 2)], "{found:?}");
    }

    #[test]
    fn method_calls_resolve_to_workspace_impls() {
        let a = facts_for(
            "model",
            "crates/model/src/lib.rs",
            "impl Sampler {\n    pub fn order(&self) -> Vec<u32> {\n        let v: Vec<u32> = self.map.keys().copied().collect();\n        v\n    }\n}\nstruct Sampler { map: HashMap<u32, u32> }\n",
        );
        let b = facts_for(
            "engine",
            "crates/engine/src/lib.rs",
            "fn drive(s: &Sampler, q: &mut Q) {\n    let order = s.order();\n    q.schedule_at(order);\n}\n",
        );
        let files = vec![a, b];
        let ws = Workspace::new(&files);
        let found = ws.interproc_findings(&ws.summaries());
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("via `order()`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn scc_cycles_terminate_and_still_resolve() {
        let a = facts_for(
            "m",
            "crates/m/src/lib.rs",
            "fn ping(n: u32, m: &HashMap<u32, u32>) -> Vec<u32> {\n    if n == 0 {\n        let base: Vec<u32> = m.keys().copied().collect();\n        return base;\n    }\n    pong(n - 1, m)\n}\nfn pong(n: u32, m: &HashMap<u32, u32>) -> Vec<u32> {\n    ping(n, m)\n}\n",
        );
        let files = vec![a];
        let ws = Workspace::new(&files);
        let sums = ws.summaries();
        assert!(sums[0][0].is_some(), "{sums:?}");
        assert!(sums[0][1].is_some(), "{sums:?}");
    }

    #[test]
    fn global_ref_write_classification() {
        let src = "fn f() {\n    REG.get_or_init(make);\n    let v = LIMIT;\n    COUNT += 1;\n}\n";
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let refs = collect_global_refs(&lexed.tokens, items.fns[0].body);
        let get = |n: &str| refs.iter().find(|r| r.name == n).unwrap();
        assert!(get("REG").write);
        assert!(!get("LIMIT").write);
        assert!(get("COUNT").write);
    }

    #[test]
    fn tls_statics_are_classified() {
        let src = "thread_local! {\n    static TLS: Cell<u64> = Cell::new(0);\n}\nstatic PLAIN: u64 = 0;\n";
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let st = collect_statics(&lexed.tokens, &items);
        let get = |n: &str| st.iter().find(|s| s.name == n).unwrap();
        assert!(get("TLS").tls);
        assert!(!get("PLAIN").tls);
    }

    #[test]
    fn sink_facts_record_call_carried_values() {
        let src = "fn drive(q: &mut Q) {\n    let order = helper();\n    q.schedule(order);\n}\nfn helper() -> Vec<u32> { Vec::new() }\n";
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let taint = collect_fn_facts(&lexed.tokens, &items, &[]);
        let sinks: &[SinkFact] = &taint[0].sinks;
        assert_eq!(sinks.len(), 1, "{sinks:?}");
        // The collection over-approximates (the sink method itself is
        // recorded too — it resolves to nothing and is harmless); what
        // matters is that the value-carrying call is present.
        assert!(
            sinks[0]
                .origins
                .iter()
                .any(|o| o.call.as_deref() == Some("helper")),
            "{sinks:?}"
        );
        // A clean helper must not leak a *local* origin — call-carried
        // candidates (`Vec::new`) resolve to no summary and stay inert.
        let ret: &[OriginFact] = &taint[1].ret;
        assert!(ret.iter().all(|o| o.call.is_some()), "{ret:?}");
    }
}
