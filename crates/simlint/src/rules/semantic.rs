//! Item-graph semantic rules: shard-isolation and ledger-pairing.
//!
//! These rules need structure the token pass cannot see — which `fn`s an
//! `impl` defines, what type a `static` holds, where a struct field is
//! debited and credited — so they run on [`crate::items::FileItems`]
//! (and, for ledger-pairing, on per-crate aggregation done by the
//! caller). Scope filtering (layer, `#[cfg(test)]` extents) is the
//! caller's job; everything here is per-file and layer-blind.

use crate::dataflow::{binding_split, split_statements};
use crate::items::FileItems;
use crate::lexer::{TokKind, Token};

/// A candidate finding: (1-based line, message). The caller attaches the
/// rule name, file path, and scope filtering.
pub type Candidate = (usize, String);

/// Type identifiers that make a `static` interior-mutable.
pub(crate) const INTERIOR_MUTABLE: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "Lazy",
];

/// Shard-isolation: process-global mutable state and non-`Send`-shaped
/// sharing that would couple future shards invisibly.
pub fn shard_isolation(items: &FileItems) -> Vec<Candidate> {
    let mut out = Vec::new();
    for st in &items.statics {
        if st.mutable {
            out.push((
                st.line,
                format!(
                    "`static mut {}` is process-global mutable state; shards \
                     must not share ambient globals — thread state through \
                     `&mut self`",
                    st.name
                ),
            ));
            continue;
        }
        let interior = st
            .type_idents
            .iter()
            .find(|t| INTERIOR_MUTABLE.contains(&t.as_str()) || t.starts_with("Atomic"));
        if let Some(ty) = interior {
            out.push((
                st.line,
                format!(
                    "static `{}` holds interior-mutable `{ty}`; process-global \
                     mutable state breaks the shard-isolation precondition — \
                     thread state through `&mut self`",
                    st.name
                ),
            ));
        }
    }
    for m in &items.macros {
        if m.name == "thread_local" {
            out.push((
                m.line,
                "`thread_local!` state is invisible to the shard partitioner; \
                 model state must live in the partitioned object graph"
                    .to_string(),
            ));
        }
    }
    for st in &items.structs {
        for f in &st.fields {
            if f.type_idents.iter().any(|t| t == "Rc") {
                out.push((
                    f.line,
                    format!(
                        "field `{}.{}` holds `Rc`-shaped shared ownership, \
                         which is not Send; shards cannot move it across the \
                         partition boundary — use owned state or indices",
                        st.name, f.name
                    ),
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Debit/credit sites of one declared ledger field within one file.
#[derive(Debug, Default, Clone)]
pub struct LedgerSites {
    /// Lines where the field is debited (`+=`, `.insert(`).
    pub debits: Vec<usize>,
    /// Lines where the field is credited (`-=`, `.remove(`, `.clear(`).
    pub credits: Vec<usize>,
}

/// Find debit/credit sites of each declared `fields` entry in this file.
/// Follows `get_mut` aliases within a function body: `if let Some(c) =
/// self.field.get_mut(..)` makes later `*c -= 1` a credit of `field`.
pub fn ledger_sites(toks: &[Token], items: &FileItems, fields: &[String]) -> Vec<LedgerSites> {
    let mut out = vec![LedgerSites::default(); fields.len()];
    for f in &items.fns {
        let stmts = split_statements(toks, f.body.0, f.body.1);
        // alias name → index into `fields`
        let mut aliases: Vec<(String, usize)> = Vec::new();
        for &(s, e) in &stmts {
            let stmt = &toks[s..e];
            if stmt.is_empty() {
                continue;
            }
            // New aliases: a binding whose rhs is `field.get_mut(..)` or
            // `field.entry(..)`.
            if let Some((lhs, rhs_at)) = binding_split(stmt) {
                let rhs = &stmt[rhs_at..];
                for (fi, field) in fields.iter().enumerate() {
                    let aliased = rhs.windows(3).any(|w| {
                        w[0].kind.ident() == Some(field.as_str())
                            && w[1].kind == TokKind::Punct('.')
                            && matches!(w[2].kind.ident(), Some("get_mut" | "entry"))
                    });
                    if aliased {
                        for name in &lhs {
                            aliases.push((name.clone(), fi));
                        }
                    }
                }
            }
            for (fi, field) in fields.iter().enumerate() {
                let names: Vec<&str> = std::iter::once(field.as_str())
                    .chain(
                        aliases
                            .iter()
                            .filter(|(_, i)| *i == fi)
                            .map(|(n, _)| n.as_str()),
                    )
                    .collect();
                let mentions = stmt
                    .iter()
                    .any(|t| t.kind.ident().is_some_and(|s| names.contains(&s)));
                if !mentions {
                    continue;
                }
                let line = stmt[0].line;
                if has_compound(stmt, '+') || has_field_method(stmt, field, &["insert"]) {
                    out[fi].debits.push(line);
                }
                if has_compound(stmt, '-')
                    || has_field_method(stmt, field, &["remove", "clear", "take"])
                {
                    out[fi].credits.push(line);
                }
            }
        }
    }
    for s in &mut out {
        s.debits.sort_unstable();
        s.debits.dedup();
        s.credits.sort_unstable();
        s.credits.dedup();
    }
    out
}

/// `op=` appears as adjacent tokens anywhere in the statement.
fn has_compound(stmt: &[Token], op: char) -> bool {
    stmt.windows(2)
        .any(|w| w[0].kind == TokKind::Punct(op) && w[1].kind == TokKind::Punct('='))
}

/// `field.method(` for any of `methods`.
fn has_field_method(stmt: &[Token], field: &str, methods: &[&str]) -> bool {
    stmt.windows(4).any(|w| {
        w[0].kind.ident() == Some(field)
            && w[1].kind == TokKind::Punct('.')
            && w[2].kind.ident().is_some_and(|m| methods.contains(&m))
            && w[3].kind == TokKind::Punct('(')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn over(src: &str) -> (Vec<Token>, FileItems) {
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        (lexed.tokens, items)
    }

    #[test]
    fn global_mutable_statics_fire_and_plain_ones_do_not() {
        let src = "\
static LIMIT: u64 = 8;
static NAME: &'static str = \"x\";
static HITS: AtomicU64 = AtomicU64::new(0);
static mut RAW: u64 = 0;
static REG: Mutex<Vec<u64>> = Mutex::new(Vec::new());
thread_local! { static TLS: Cell<u64> = Cell::new(0); }
";
        let (_, items) = over(src);
        let out = shard_isolation(&items);
        let lines: Vec<usize> = out.iter().map(|c| c.0).collect();
        // AtomicU64, static mut, Mutex, thread_local! (and its inner
        // Cell static) — but not LIMIT or NAME.
        assert!(lines.contains(&3) && lines.contains(&4) && lines.contains(&5));
        assert!(lines.contains(&6));
        assert!(!lines.contains(&1) && !lines.contains(&2), "{out:?}");
    }

    #[test]
    fn rc_fields_fire_and_owned_fields_do_not() {
        let src = "\
struct Shared {
    cache: Rc<RefCell<u64>>,
    owned: BTreeMap<u64, u64>,
}
";
        let (_, items) = over(src);
        let out = shard_isolation(&items);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].1.contains("Shared.cache"), "{}", out[0].1);
    }

    #[test]
    fn ledger_debits_and_credits_are_paired_through_aliases() {
        let src = "\
impl Dispatcher {
    fn issue(&mut self, key: u64) {
        *self.reclaimed.entry(key).or_insert(0) += 1;
        self.in_flight.insert(key, 1);
    }
    fn settle(&mut self, key: u64) {
        if let Some(c) = self.reclaimed.get_mut(&key) {
            *c -= 1;
        }
        self.in_flight.remove(&key);
    }
}
";
        let (toks, items) = over(src);
        let fields = vec!["reclaimed".to_string(), "in_flight".to_string()];
        let sites = ledger_sites(&toks, &items, &fields);
        assert!(!sites[0].debits.is_empty(), "{sites:?}");
        assert!(!sites[0].credits.is_empty(), "{sites:?}");
        assert!(!sites[1].debits.is_empty(), "{sites:?}");
        assert!(!sites[1].credits.is_empty(), "{sites:?}");
    }

    #[test]
    fn unmatched_debit_has_no_credit_site() {
        let src = "\
impl Dispatcher {
    fn issue(&mut self, key: u64) {
        *self.leaked.entry(key).or_insert(0) += 1;
    }
}
";
        let (toks, items) = over(src);
        let fields = vec!["leaked".to_string()];
        let sites = ledger_sites(&toks, &items, &fields);
        assert!(!sites[0].debits.is_empty());
        assert!(sites[0].credits.is_empty(), "{sites:?}");
    }
}
