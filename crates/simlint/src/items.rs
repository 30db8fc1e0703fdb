//! The item parser: structure on top of the token stream.
//!
//! The token pass sees tokens; the semantic rules ([`crate::rules::semantic`])
//! and the taint pass ([`crate::dataflow`]) need *items* — which tokens
//! form a function body, which `impl` block implements which trait for
//! which type, which fields a struct declares, which `static`s exist.
//! This module extracts exactly that, with the same dependency-free,
//! heuristic-but-honest approach as the lexer: it does not aim to parse
//! all of Rust, only the subset this workspace's style produces, and the
//! fixture corpus pins its behavior.
//!
//! Two deliberate simplifications:
//!
//! * Generic argument lists are skipped with an angle-depth counter that
//!   treats `->` as an arrow (never a closing angle), which is correct
//!   for item headers — shifts (`<<`, `>>`) do not appear there.
//! * `'static` is a [`TokKind::Lifetime`] token, so the `static` *item*
//!   keyword below never false-positives on `&'static str`.

use crate::lexer::{TokKind, Token};

/// One `fn` item (free, impl-associated, or trait-default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range of the body, *inside* the braces (empty for
    /// bodyless declarations such as trait method signatures).
    pub body: (usize, usize),
    /// Token index range of the signature (`fn` up to the body brace or
    /// terminating semicolon, exclusive).
    pub sig: (usize, usize),
    /// Index into [`FileItems::impls`] when defined inside an impl.
    pub owner: Option<usize>,
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// Last path segment of the first type chain after `for` (or after
    /// `impl` for inherent impls). `impl T for Box<dyn T>` yields `Box`.
    pub type_name: String,
}

/// One named struct field (or tuple field with an empty name).
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name; empty for tuple-struct fields.
    pub name: String,
    /// 1-based line of the field.
    pub line: usize,
    /// Identifiers appearing in the field's type.
    pub type_idents: Vec<String>,
}

/// One struct definition with its fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Declared fields (empty for unit structs).
    pub fields: Vec<FieldItem>,
}

/// One `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// The static's name.
    pub name: String,
    /// 1-based line of the `static` keyword.
    pub line: usize,
    /// True for `static mut`.
    pub mutable: bool,
    /// Identifiers appearing in the declared type.
    pub type_idents: Vec<String>,
}

/// One macro invocation worth knowing about (`thread_local!`).
#[derive(Debug, Clone)]
pub struct MacroUse {
    /// The macro name (without the `!`).
    pub name: String,
    /// 1-based line of the invocation.
    pub line: usize,
}

/// Every item extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
    pub structs: Vec<StructItem>,
    pub statics: Vec<StaticItem>,
    pub macros: Vec<MacroUse>,
}

/// Parse the items of one file from its token stream.
pub fn parse_items(toks: &[Token]) -> FileItems {
    let mut items = FileItems::default();
    parse_range(toks, 0, toks.len(), None, &mut items);
    collect_flat(toks, &mut items);
    items
}

/// Recursive walk that understands `fn`, `impl`, and `struct` nesting.
fn parse_range(
    toks: &[Token],
    start: usize,
    end: usize,
    owner: Option<usize>,
    items: &mut FileItems,
) {
    let mut k = start;
    while k < end {
        match toks[k].kind.ident() {
            Some("fn") => k = parse_fn(toks, k, end, owner, items),
            Some("impl") if owner.is_none() => k = parse_impl(toks, k, end, items),
            Some("struct") => k = parse_struct(toks, k, end, items),
            Some("trait") | Some("mod") => {
                // Recurse into the body so trait-default fns and inner
                // modules are still seen (owner resets: their fns are not
                // impl members).
                let mut j = k + 1;
                while j < end && !matches!(toks[j].kind, TokKind::Punct('{' | ';')) {
                    j += 1;
                }
                if j < end && toks[j].kind == TokKind::Punct('{') {
                    if let Some(close) = match_brace(toks, j, end) {
                        parse_range(toks, j + 1, close, None, items);
                        k = close + 1;
                        continue;
                    }
                }
                k = j + 1;
            }
            _ => k += 1,
        }
    }
}

fn parse_fn(
    toks: &[Token],
    at: usize,
    end: usize,
    owner: Option<usize>,
    items: &mut FileItems,
) -> usize {
    let Some(TokKind::Ident(name)) = toks.get(at + 1).map(|t| &t.kind) else {
        return at + 1;
    };
    // The signature runs to the first `{` or `;` outside parens/angles
    // (closure bodies cannot appear in a signature).
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if toks[j - 1].kind != TokKind::Punct('-') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => break,
            TokKind::Punct(';') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let line = toks[at].line;
    if j < end && toks[j].kind == TokKind::Punct('{') {
        let close = match_brace(toks, j, end).unwrap_or(end);
        items.fns.push(FnItem {
            name: name.clone(),
            line,
            body: (j + 1, close),
            sig: (at, j),
            owner,
        });
        // Nested fns inside the body are free fns, not impl members.
        parse_range(toks, j + 1, close.min(end), None, items);
        close + 1
    } else {
        items.fns.push(FnItem {
            name: name.clone(),
            line,
            body: (j, j),
            sig: (at, j),
            owner,
        });
        j + 1
    }
}

fn parse_impl(toks: &[Token], at: usize, end: usize, items: &mut FileItems) -> usize {
    // Header: collect ident chains at angle-depth 0 until `{`, noting a
    // standalone `for` keyword and stopping chain collection at `where`.
    let mut j = at + 1;
    let mut angle = 0i32;
    let mut before_for: Option<String> = None; // last segment of the first chain
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut saw_where = false;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if toks[j - 1].kind != TokKind::Punct('-') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => break,
            TokKind::Ident(s) if angle <= 0 && s == "for" => saw_for = true,
            TokKind::Ident(s) if angle <= 0 && s == "where" => saw_where = true,
            TokKind::Ident(s) if angle <= 0 && !saw_where && s != "dyn" => {
                // Walk the whole `a::b::c` chain; keep its last segment.
                let mut last = s.clone();
                while j + 2 < end
                    && toks[j + 1].kind == TokKind::Punct(':')
                    && toks[j + 2].kind == TokKind::Punct(':')
                {
                    j += 2;
                    if let Some(TokKind::Ident(seg)) = toks.get(j).map(|t| &t.kind) {
                        last = seg.clone();
                    }
                }
                let side = if saw_for {
                    &mut after_for
                } else {
                    &mut before_for
                };
                side.get_or_insert(last);
            }
            _ => {}
        }
        j += 1;
    }
    if j >= end || toks[j].kind != TokKind::Punct('{') {
        return at + 1;
    }
    let close = match_brace(toks, j, end).unwrap_or(end);
    let type_name = if saw_for { after_for } else { before_for };
    let idx = items.impls.len();
    items.impls.push(ImplItem {
        type_name: type_name.unwrap_or_default(),
    });
    parse_range(toks, j + 1, close.min(end), Some(idx), items);
    close + 1
}

fn parse_struct(toks: &[Token], at: usize, end: usize, items: &mut FileItems) -> usize {
    let Some(TokKind::Ident(name)) = toks.get(at + 1).map(|t| &t.kind) else {
        return at + 1;
    };
    let line = toks[at].line;
    // Skip generics / where clause to the body-or-terminator.
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if toks[j - 1].kind != TokKind::Punct('-') => angle -= 1,
            TokKind::Punct('{' | '(' | ';') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut fields = Vec::new();
    match toks.get(j).map(|t| &t.kind) {
        Some(TokKind::Punct('{')) => {
            let close = match_brace(toks, j, end).unwrap_or(end);
            parse_named_fields(toks, j + 1, close, &mut fields);
            items.structs.push(StructItem {
                name: name.clone(),
                line,
                fields,
            });
            close + 1
        }
        Some(TokKind::Punct('(')) => {
            let close = match_paren(toks, j, end).unwrap_or(end);
            let mut type_idents = Vec::new();
            for t in &toks[j + 1..close.min(end)] {
                if let TokKind::Ident(s) = &t.kind {
                    type_idents.push(s.clone());
                }
            }
            fields.push(FieldItem {
                name: String::new(),
                line,
                type_idents,
            });
            items.structs.push(StructItem {
                name: name.clone(),
                line,
                fields,
            });
            close + 1
        }
        _ => {
            items.structs.push(StructItem {
                name: name.clone(),
                line,
                fields,
            });
            j + 1
        }
    }
}

/// Parse `name: Type, …` fields between braces, splitting on top-level
/// commas (angle- and paren-aware) and skipping `#[…]` attributes and
/// visibility modifiers.
fn parse_named_fields(toks: &[Token], start: usize, end: usize, out: &mut Vec<FieldItem>) {
    let mut k = start;
    while k < end {
        // Skip attributes.
        while k < end && toks[k].kind == TokKind::Punct('#') {
            if toks.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('[')) {
                let mut depth = 0i32;
                let mut m = k + 1;
                while m < end {
                    match &toks[m].kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m + 1;
            } else {
                k += 1;
            }
        }
        // Skip `pub` / `pub(crate)` / `pub(super)`.
        if k < end && toks[k].kind.ident() == Some("pub") {
            k += 1;
            if k < end && toks[k].kind == TokKind::Punct('(') {
                k = match_paren(toks, k, end).map_or(end, |c| c + 1);
            }
        }
        let Some(TokKind::Ident(fname)) = toks.get(k).filter(|_| k < end).map(|t| &t.kind) else {
            break;
        };
        let fline = toks[k].line;
        if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct(':')) {
            break;
        }
        // Type tokens up to the next top-level comma.
        let mut m = k + 2;
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut type_idents = Vec::new();
        while m < end {
            match &toks[m].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if toks[m - 1].kind != TokKind::Punct('-') => angle -= 1,
                TokKind::Punct('(' | '[') => paren += 1,
                TokKind::Punct(')' | ']') => paren -= 1,
                TokKind::Punct(',') if angle <= 0 && paren <= 0 => break,
                TokKind::Ident(s) => type_idents.push(s.clone()),
                _ => {}
            }
            m += 1;
        }
        out.push(FieldItem {
            name: fname.clone(),
            line: fline,
            type_idents,
        });
        k = m + 1;
    }
}

/// Context-free single scan for `static` items and `thread_local!`-style
/// macro uses, anywhere in the file (function bodies included — a local
/// `static` is still process-shared state).
fn collect_flat(toks: &[Token], items: &mut FileItems) {
    let mut k = 0;
    while k < toks.len() {
        if toks[k].kind.ident() == Some("static") {
            let mut j = k + 1;
            let mutable = toks.get(j).and_then(|t| t.kind.ident()) == Some("mut");
            if mutable {
                j += 1;
            }
            if let Some(TokKind::Ident(name)) = toks.get(j).map(|t| &t.kind) {
                if toks.get(j + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':')) {
                    let mut m = j + 2;
                    let mut angle = 0i32;
                    let mut type_idents = Vec::new();
                    while m < toks.len() {
                        match &toks[m].kind {
                            TokKind::Punct('<') => angle += 1,
                            TokKind::Punct('>') if toks[m - 1].kind != TokKind::Punct('-') => {
                                angle -= 1;
                            }
                            TokKind::Punct('=' | ';') if angle <= 0 => break,
                            TokKind::Ident(s) => type_idents.push(s.clone()),
                            _ => {}
                        }
                        m += 1;
                    }
                    items.statics.push(StaticItem {
                        name: name.clone(),
                        line: toks[k].line,
                        mutable,
                        type_idents,
                    });
                    k = m;
                    continue;
                }
            }
        }
        if let Some(name) = toks[k].kind.ident() {
            if name == "thread_local"
                && toks.get(k + 1).map(|t| &t.kind) == Some(&TokKind::Punct('!'))
            {
                items.macros.push(MacroUse {
                    name: name.to_string(),
                    line: toks[k].line,
                });
            }
        }
        k += 1;
    }
}

fn match_brace(toks: &[Token], open: usize, end: usize) -> Option<usize> {
    match_pair(toks, open, end, '{', '}')
}

fn match_paren(toks: &[Token], open: usize, end: usize) -> Option<usize> {
    match_pair(toks, open, end, '(', ')')
}

fn match_pair(
    toks: &[Token],
    open_idx: usize,
    end: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in toks[open_idx..end.min(toks.len())].iter().enumerate() {
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
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn fns_get_bodies_and_impl_owners() {
        let src = "\
fn free(x: u64) -> u64 { x + 1 }
struct S;
impl S {
    fn method(&self) {}
}
";
        let it = items(src);
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "method"]);
        assert!(it.fns[0].owner.is_none());
        assert_eq!(it.fns[1].owner, Some(0));
        assert!(it.fns[0].body.1 > it.fns[0].body.0);
    }

    #[test]
    fn impls_record_their_type() {
        let src = "\
impl super::SchedPolicy for Fcfs {
    fn init(&mut self) {}
    fn pick_next(&mut self) {}
}
impl<T: Clone> Wrapper<T> {
    fn get(&self) {}
}
impl SchedPolicy for Box<dyn SchedPolicy> {}
";
        let it = items(src);
        assert_eq!(it.impls[0].type_name, "Fcfs");
        assert_eq!(it.impls[1].type_name, "Wrapper");
        assert_eq!(it.impls[2].type_name, "Box");
    }

    #[test]
    fn struct_fields_carry_type_idents() {
        let src = "\
pub struct Dispatcher {
    pub queue: BTreeMap<u64, Task>,
    shared: Rc<RefCell<u64>>,
}
struct Pair(u64, Rc<u8>);
struct Unit;
";
        let it = items(src);
        assert_eq!(it.structs[0].fields[0].name, "queue");
        assert!(it.structs[0].fields[0]
            .type_idents
            .contains(&"BTreeMap".to_string()));
        assert!(it.structs[0].fields[1]
            .type_idents
            .contains(&"Rc".to_string()));
        assert_eq!(it.structs[1].fields.len(), 1);
        assert!(it.structs[1].fields[0]
            .type_idents
            .contains(&"Rc".to_string()));
        assert!(it.structs[2].fields.is_empty());
    }

    #[test]
    fn statics_and_thread_local_are_found_but_static_lifetimes_are_not() {
        let src = "\
static LIMIT: u64 = 4;
static mut RAW: u64 = 0;
static COUNTER: AtomicU64 = AtomicU64::new(0);
fn f(s: &'static str) -> &'static str { s }
thread_local! { static TLS: Cell<u64> = Cell::new(0); }
";
        let it = items(src);
        // thread_local!'s inner `static TLS` is also collected — that is
        // fine, the macro use itself is the finding anchor.
        let names: Vec<&str> = it.statics.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["LIMIT", "RAW", "COUNTER", "TLS"]);
        assert!(it.statics[1].mutable);
        assert!(it.statics[2].type_idents.contains(&"AtomicU64".to_string()));
        assert_eq!(it.macros.len(), 1);
        assert_eq!(it.macros[0].name, "thread_local");
    }

    #[test]
    fn arrow_in_signature_does_not_break_generics_tracking() {
        let src = "fn pick<F: Fn(u64) -> u64>(f: F) -> u64 { f(1) }\n";
        let it = items(src);
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "pick");
        assert!(it.fns[0].body.1 > it.fns[0].body.0);
    }
}
