//! The rule registry — the single source of truth for every rule simlint
//! knows, and the modules that implement them.
//!
//! Everything that *describes* a rule derives from [`TABLE`]: the
//! `--list-rules` and `--explain` CLI output, the generated markdown
//! table in `RULES.md` (included into the crate docs and mirrored in the
//! repository README between `<!-- simlint-rules:begin/end -->`
//! markers), and the SARIF rule list. A test
//! (`tests/docs_sync.rs`) renders [`TABLE`] to markdown and fails if
//! `RULES.md` or the README drifted.

pub mod semantic;
pub mod tokens;

/// One rule's description, scope, and remediation text.
#[derive(Debug, Clone, Copy)]
pub struct RuleSpec {
    /// Stable rule name, as used in findings.
    pub name: &'static str,
    /// Where the rule applies, in one phrase.
    pub scope: &'static str,
    /// What trips it, in one phrase (markdown).
    pub fires_on: &'static str,
    /// The longer story for `--explain`: why the hazard matters and what
    /// to do instead.
    pub detail: &'static str,
}

/// Every rule simlint knows, in listing order.
pub const TABLE: &[RuleSpec] = &[
    RuleSpec {
        name: "float-sort",
        scope: "everywhere",
        fires_on: "`sort_by*` whose arguments contain `partial_cmp`",
        detail: "Float sorts via partial_cmp panic on NaN and invite \
                 platform-dependent totalization; sort on integer keys \
                 (nanoseconds) instead. The token pass matches the whole \
                 argument list, so splitting the closure across lines no \
                 longer hides it.",
    },
    RuleSpec {
        name: "time-float-cast",
        scope: "core + model crates, non-test code",
        fires_on: "bare `as` casts between u64 time and floats",
        detail: "A bare `as` cast between nanosecond counts and floats loses \
                 precision silently. Go through SimDuration's *_f64 \
                 constructors/accessors, which round explicitly at one \
                 audited boundary.",
    },
    RuleSpec {
        name: "missing-forbid",
        scope: "every crate root",
        fires_on: "`src/lib.rs` without `#![forbid(unsafe_code)]`",
        detail: "Every crate root must carry the forbid attribute so the \
                 guarantee survives even if the Cargo-level lint table is \
                 edited away.",
    },
    RuleSpec {
        name: "layer-violation",
        scope: "crate manifests (the workspace dependency graph)",
        fires_on: "an edge that breaks the architecture DAG, or missing \
                   `layer` metadata",
        detail: "Each crate declares its architectural layer in \
                 `[package.metadata.simlint]`: core (sim-core) depends on no \
                 internal crate; model crates may depend on core + model; \
                 harness crates (experiments, bench) on anything below; the \
                 root app on all of those; the tool layer (simlint) stands \
                 alone. Model crates can never depend on harness crates, the \
                 graph must stay acyclic, and every crate must declare a \
                 layer.",
    },
    RuleSpec {
        name: "determinism-taint",
        scope: "core + model crates, non-test code",
        fires_on: "a nondeterministic value flowing into an \
                   ordering-sensitive sink",
        detail: "The dataflow pass tracks values from nondeterminism \
                 sources — iteration over unordered containers, \
                 pointer/address casts (ASLR), float-keyed comparisons, \
                 unseeded RNG — through let bindings, assignments, for/if-let \
                 patterns, and function returns, into sinks where ordering \
                 escapes into simulation state or output: comparator sorts, \
                 event-queue schedule calls, inserts into ordered or \
                 queue-shaped receivers, and probe/CSV emission. The \
                 pass is interprocedural across the whole workspace: a \
                 cross-file, cross-crate call graph with SCC condensation and \
                 bottom-up summaries resolves taint through any call chain \
                 (`use`-aliased paths and impl methods included), and a \
                 cross-file finding is reported at the sink line and names \
                 its source site. It flags *flows*, not mentions: a source \
                 matters only where it reaches a sink. (Naming a hash \
                 container, the wall clock or ambient entropy at all is \
                 banned by the workspace clippy.toml.)",
    },
    RuleSpec {
        name: "shard-isolation",
        scope: "core + model crates, non-test code",
        fires_on: "`static` items with interior mutability, `static mut`, \
                   `thread_local!`, `Rc`-shaped struct fields",
        detail: "The planned intra-run sharding work partitions model state \
                 across workers; any process-global mutable state (statics \
                 holding Mutex/RefCell/Cell/atomics, `static mut`, \
                 thread-local storage) or non-Send shared ownership (`Rc` \
                 fields) would couple shards invisibly and break the \
                 partition proof. This rule is the machine-checked \
                 precondition: model state must reach code through `&mut \
                 self`, never through ambient globals.",
    },
    RuleSpec {
        name: "ledger-pairing",
        scope: "crates declaring `ledger = [\"field\", …]` metadata",
        fires_on: "a declared exactly-once ledger field with debits but no \
                   credits (or vice versa), or never touched at all",
        detail: "Recovery correctness rests on exactly-once ledgers: every \
                 increment (debit) of a declared field must have a matching \
                 decrement/removal site (credit) somewhere in the crate, \
                 else retries double-count or leak. Declare the audited \
                 fields in `[package.metadata.simlint] ledger = [\"name\"]`; \
                 the pass finds `+=`/`insert` debits and `-=`/`remove`/\
                 `clear` credits, following `get_mut` aliases within a \
                 function.",
    },
    RuleSpec {
        name: "shard-cert",
        scope: "crates declaring `shard_roots = [\"Type::method\", …]` metadata",
        fires_on: "a declared shard entry point that resolves to no \
                   function in the crate",
        detail: "The shard-safety certification pass proves everything \
                 reachable from a crate's declared entry points \
                 (`[package.metadata.simlint] shard_roots`) touches only \
                 shard-local state — no `static mut`, `thread_local!`, or \
                 interior-mutable static writes, no ambient RNG — walking \
                 the workspace call graph and recording per-crate verdicts \
                 with witness paths in `SHARD_SAFETY.json`, the build-time \
                 gate the future partitioned engine consumes (ROADMAP open \
                 item 2). A root that resolves to nothing certifies \
                 nothing, so it is a finding on the declaring manifest.",
    },
];

/// Look up one rule's spec by name.
pub fn spec(name: &str) -> Option<&'static RuleSpec> {
    TABLE.iter().find(|r| r.name == name)
}

/// Render the rule table as the markdown checked into `RULES.md` and the
/// README. One source of truth: this function.
pub fn render_rules_table() -> String {
    let mut out = String::from("| rule | scope | fires on |\n|------|-------|----------|\n");
    for r in TABLE {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            r.name,
            r.scope,
            r.fires_on.replace('\n', " ")
        ));
    }
    out
}

/// Render the full `RULES.md` document body.
pub fn render_rules_doc() -> String {
    let mut out = String::from(
        "## Rules\n\nGenerated from `simlint::rules::TABLE` — edit the table, \
         not this file, then run `cargo run -p simlint -- --write-rules-doc`.\n\n",
    );
    out.push_str(&render_rules_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_explains_itself() {
        for r in TABLE {
            assert!(!r.detail.is_empty(), "{} has no detail", r.name);
            assert!(spec(r.name).is_some());
        }
    }
}
