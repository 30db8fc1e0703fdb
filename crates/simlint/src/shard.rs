//! Shard-safety certification: prove that everything reachable from a
//! crate's declared shard entry points touches only shard-local state.
//!
//! ROADMAP open item 2 wants one simulation partitioned across cores
//! BEE-style while staying bit-identical. That is only sound if no code
//! a shard executes reaches ambient process-global state: a `static mut`
//! or a written interior-mutable static couples shards invisibly, a
//! `thread_local!` is invisible to the partitioner, and ambient RNG
//! diverges per shard. Crates opt in by declaring entry points in their
//! manifest:
//!
//! ```toml
//! [package.metadata.simlint]
//! shard_roots = ["Dispatcher::on_request", "Dispatcher::on_done"]
//! ```
//!
//! A root is either `Type::method` (every workspace impl of `Type`
//! defining `method`, restricted to the declaring crate) or a bare free
//! function name. From the resolved roots this pass walks the
//! interprocedural call graph ([`crate::interproc::Workspace`]) —
//! crossing files and crates, over-approximate in the conservative
//! direction — and classifies every touched static:
//!
//! * `static mut` touch (read *or* write): unsafe,
//! * `thread_local!` static touch: unsafe,
//! * interior-mutable static (`Mutex`, `OnceLock`, `Atomic*`, …)
//!   **write**: unsafe; read-only access is recorded as a note,
//! * ambient RNG (`thread_rng`, `OsRng`, `rand::random`): unsafe.
//!
//! Every unsafe reason carries a witness path — the call chain from the
//! root to the offending function — so the verdict is auditable. The
//! result serializes to `SHARD_SAFETY.json` (schema 1), which is checked
//! in and compared byte for byte: any difference fails, and the failure
//! says which crate regressed or improved. A root that does not resolve
//! is a `shard-cert` finding on the declaring manifest — an unresolvable
//! entry point certifies nothing.

use std::collections::BTreeMap;

use crate::interproc::{FnRef, Workspace};
use crate::report::{json_str, parse_json};
use crate::Finding;

/// One reason a crate's shard verdict is `unsafe`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Reason {
    /// What was touched, and where.
    pub detail: String,
    /// Call chain from a shard root to the touching function, rendered
    /// as `crate::fn (file:line)` hops.
    pub witness: Vec<String>,
}

/// The certification result for one crate.
#[derive(Debug, Clone, Default)]
pub struct CrateVerdict {
    /// The declared roots, as written in the manifest.
    pub roots: Vec<String>,
    /// True when no unsafe reason was found.
    pub safe: bool,
    /// Unsafe reasons with witness paths (empty when safe).
    pub reasons: Vec<Reason>,
    /// Benign observations (read-only interior-mutable access).
    pub notes: Vec<String>,
}

/// The whole certificate: per-crate verdicts for every crate declaring
/// `shard_roots`.
#[derive(Debug, Clone, Default)]
pub struct ShardCert {
    /// Crate name → verdict.
    pub crates: BTreeMap<String, CrateVerdict>,
}

/// One crate's shard-root declaration, as read from its manifest.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// The declaring crate.
    pub crate_name: String,
    /// Workspace-relative manifest path (finding site for bad roots).
    pub manifest: String,
    /// Declared roots.
    pub roots: Vec<String>,
}

/// Certify every declaring crate. Returns the certificate plus
/// `shard-cert` findings for roots that resolve to nothing.
pub fn certify(specs: &[RootSpec], ws: &Workspace) -> (ShardCert, Vec<Finding>) {
    let mut cert = ShardCert::default();
    let mut findings = Vec::new();
    let (nodes, adj) = ws.call_graph();
    let index: BTreeMap<FnRef, usize> = nodes.iter().enumerate().map(|(i, r)| (*r, i)).collect();

    for spec in specs {
        if spec.roots.is_empty() {
            continue;
        }
        let mut verdict = CrateVerdict {
            roots: spec.roots.clone(),
            ..CrateVerdict::default()
        };
        let mut queue: Vec<usize> = Vec::new();
        for root in &spec.roots {
            let refs = resolve_root(ws, &spec.crate_name, root);
            if refs.is_empty() {
                findings.push(Finding {
                    file: spec.manifest.clone(),
                    line: 1,
                    rule: "shard-cert",
                    message: format!(
                        "shard root `{root}` does not resolve to any function in \
                         crate `{}`; an unresolvable entry point certifies \
                         nothing — fix the name or drop it",
                        spec.crate_name
                    ),
                });
                verdict.reasons.push(Reason {
                    detail: format!("shard root `{root}` is unresolvable"),
                    witness: Vec::new(),
                });
                continue;
            }
            queue.extend(refs.iter().filter_map(|r| index.get(r).copied()));
        }

        // BFS with parent tracking for witness reconstruction.
        let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut seen: Vec<bool> = vec![false; nodes.len()];
        let mut order: Vec<usize> = Vec::new();
        let mut head = 0usize;
        queue.sort_unstable();
        queue.dedup();
        for &q in &queue {
            if !seen[q] {
                seen[q] = true;
                order.push(q);
            }
        }
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    parent[w] = Some(v);
                    order.push(w);
                }
            }
        }

        let witness = |ni: usize| -> Vec<String> {
            let mut chain = Vec::new();
            let mut cur = Some(ni);
            while let Some(c) = cur {
                chain.push(render_fn(ws, nodes[c]));
                cur = parent[c];
            }
            chain.reverse();
            chain
        };

        for &ni in &order {
            let r = nodes[ni];
            let facts = &ws.files[r.file];
            let fun = &facts.fns[r.idx];
            for &line in &fun.taint.rng_lines {
                verdict.reasons.push(Reason {
                    detail: format!(
                        "ambient RNG at {}:{line} is reachable from a shard root; \
                         shards must draw from a seeded per-shard stream",
                        facts.rel
                    ),
                    witness: witness(ni),
                });
            }
            for gr in &fun.global_refs {
                let Some((st, sfi)) = ws.static_named(&gr.name) else {
                    continue;
                };
                let decl = format!("{}:{}", ws.files[*sfi].rel, st.line);
                if st.mutable {
                    verdict.reasons.push(Reason {
                        detail: format!(
                            "`static mut {}` (declared at {decl}) is touched at \
                             {}:{}; shards must not share ambient globals",
                            gr.name, facts.rel, gr.line
                        ),
                        witness: witness(ni),
                    });
                } else if st.tls {
                    verdict.reasons.push(Reason {
                        detail: format!(
                            "`thread_local!` static `{}` (declared at {decl}) is \
                             touched at {}:{}; TLS is invisible to the shard \
                             partitioner",
                            gr.name, facts.rel, gr.line
                        ),
                        witness: witness(ni),
                    });
                } else if st.interior && gr.write {
                    verdict.reasons.push(Reason {
                        detail: format!(
                            "interior-mutable static `{}` (declared at {decl}) is \
                             written at {}:{}; cross-shard writes break isolation",
                            gr.name, facts.rel, gr.line
                        ),
                        witness: witness(ni),
                    });
                } else if st.interior {
                    verdict.notes.push(format!(
                        "read-only access to interior-mutable static `{}` at \
                         {}:{} (allowed; watched)",
                        gr.name, facts.rel, gr.line
                    ));
                }
            }
        }
        verdict.reasons.sort();
        verdict.reasons.dedup();
        verdict.notes.sort();
        verdict.notes.dedup();
        verdict.safe = verdict.reasons.is_empty();
        cert.crates.insert(spec.crate_name.clone(), verdict);
    }
    (cert, findings)
}

/// Resolve one declared root within its crate: `Type::method` narrows to
/// impls of `Type`; a bare name prefers free functions, falling back to
/// any same-named fn in the crate.
fn resolve_root(ws: &Workspace, crate_name: &str, root: &str) -> Vec<FnRef> {
    let in_crate = |r: &FnRef| ws.files[r.file].crate_name == crate_name;
    if let Some((ty, method)) = root.split_once("::") {
        let mut refs = ws.fns_of_type(ty, method);
        refs.retain(in_crate);
        return refs;
    }
    let all = ws.fns_in_crate(crate_name, root);
    let free: Vec<FnRef> = all
        .iter()
        .copied()
        .filter(|r| ws.files[r.file].fns[r.idx].impl_type.is_none())
        .collect();
    if free.is_empty() {
        all
    } else {
        free
    }
}

fn render_fn(ws: &Workspace, r: FnRef) -> String {
    let facts = &ws.files[r.file];
    let fun = &facts.fns[r.idx];
    let qual = fun
        .impl_type
        .as_ref()
        .map(|t| format!("{t}::"))
        .unwrap_or_default();
    format!(
        "{}::{qual}{} ({}:{})",
        facts.crate_name, fun.name, facts.rel, fun.line
    )
}

impl ShardCert {
    /// Serialize to the checked-in `SHARD_SAFETY.json` form (schema 1).
    /// Deterministic: crates and reasons are ordered, so equal inputs
    /// produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"crates\": {");
        let mut first_crate = true;
        for (name, v) in &self.crates {
            if !first_crate {
                out.push(',');
            }
            first_crate = false;
            out.push_str(&format!("\n    {}: {{\n", json_str(name)));
            out.push_str("      \"roots\": [");
            out.push_str(
                &v.roots
                    .iter()
                    .map(|r| json_str(r))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            out.push_str("],\n");
            out.push_str(&format!(
                "      \"verdict\": {},\n",
                json_str(if v.safe { "safe" } else { "unsafe" })
            ));
            out.push_str("      \"reasons\": [");
            let mut first_r = true;
            for r in &v.reasons {
                if !first_r {
                    out.push(',');
                }
                first_r = false;
                out.push_str(&format!(
                    "\n        {{\"detail\": {}, \"witness\": [{}]}}",
                    json_str(&r.detail),
                    r.witness
                        .iter()
                        .map(|w| json_str(w))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if !v.reasons.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n");
            out.push_str("      \"notes\": [");
            let mut first_n = true;
            for n in &v.notes {
                if !first_n {
                    out.push(',');
                }
                first_n = false;
                out.push_str(&format!("\n        {}", json_str(n)));
            }
            if !v.notes.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Compare the freshly computed certificate against the checked-in one.
///
/// Any byte difference fails. Each error says why: a crate losing its
/// `safe` verdict, a new unsafe reason, a certified crate disappearing,
/// a crate becoming `safe` or newly declaring roots, and otherwise the
/// bare byte drift. Every case is fixed the same way, by regenerating
/// the certificate with `--shard-cert` and reviewing the diff.
pub fn compare(current: &ShardCert, checked_in: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let parsed = match parse_json(checked_in) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("unparsable shard certificate: {e}")]),
    };
    if parsed.get("schema").and_then(|v| v.as_usize()) != Some(1) {
        return Err(vec!["shard certificate must declare \"schema\": 1".into()]);
    }
    let empty = BTreeMap::new();
    let base_crates = match parsed.get("crates") {
        Some(crate::report::Value::Object(m)) => m,
        _ => &empty,
    };
    for (name, bv) in base_crates {
        let base_safe = bv.get("verdict").and_then(|v| v.as_str()) == Some("safe");
        let base_reasons: Vec<String> = bv
            .get("reasons")
            .and_then(|v| v.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|r| r.get("detail").and_then(|d| d.as_str()))
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        match current.crates.get(name) {
            None => errors.push(format!(
                "crate `{name}` is certified in the checked-in certificate \
                 but no longer declares shard_roots; re-certify or remove it"
            )),
            Some(cv) => {
                if base_safe && !cv.safe {
                    errors.push(format!(
                        "crate `{name}` regressed from `safe` to `unsafe`: {}",
                        cv.reasons
                            .iter()
                            .map(|r| r.detail.as_str())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ));
                } else {
                    for r in &cv.reasons {
                        if !base_reasons.contains(&r.detail) {
                            errors.push(format!(
                                "crate `{name}` gained a new unsafe reason: {}",
                                r.detail
                            ));
                        }
                    }
                }
                if !base_safe && cv.safe {
                    errors.push(format!(
                        "crate `{name}` is now `safe`; re-certify to record the \
                         improvement"
                    ));
                }
            }
        }
    }
    for name in current.crates.keys() {
        if !base_crates.contains_key(name) {
            errors.push(format!(
                "crate `{name}` newly declares shard_roots; re-certify to \
                 record it"
            ));
        }
    }
    if errors.is_empty() && current.to_json() != checked_in {
        errors.push(
            "shard certificate drift: the checked-in SHARD_SAFETY.json \
             does not match the computed certificate byte-for-byte; regenerate \
             with --shard-cert"
                .into(),
        );
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::FileFacts;

    fn facts_for(crate_name: &str, rel: &str, src: &str) -> FileFacts {
        crate::model_facts(crate_name, rel, src, &[])
    }

    fn spec(name: &str, roots: &[&str]) -> RootSpec {
        RootSpec {
            crate_name: name.to_string(),
            manifest: format!("crates/{name}/Cargo.toml"),
            roots: roots.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn clean_root_certifies_safe() {
        let files = vec![facts_for(
            "core",
            "crates/core/src/lib.rs",
            "impl Engine {\n    pub fn run(&mut self) -> u64 {\n        self.step()\n    }\n    fn step(&mut self) -> u64 { 1 }\n}\n",
        )];
        let ws = Workspace::new(&files);
        let (cert, findings) = certify(&[spec("core", &["Engine::run"])], &ws);
        assert!(findings.is_empty(), "{findings:?}");
        let v = &cert.crates["core"];
        assert!(v.safe, "{v:?}");
        assert!(v.reasons.is_empty());
    }

    #[test]
    fn reachable_static_mut_is_unsafe_with_witness() {
        let files = vec![facts_for(
            "core",
            "crates/core/src/lib.rs",
            "static mut RAW: u64 = 0;\nimpl Engine {\n    pub fn run(&mut self) {\n        self.deep();\n    }\n    fn deep(&mut self) {\n        unsafe { RAW += 1 };\n    }\n}\n",
        )];
        let ws = Workspace::new(&files);
        let (cert, _) = certify(&[spec("core", &["Engine::run"])], &ws);
        let v = &cert.crates["core"];
        assert!(!v.safe, "{v:?}");
        assert!(v.reasons[0].detail.contains("static mut RAW"), "{v:?}");
        let w = &v.reasons[0].witness;
        assert_eq!(w.len(), 2, "{w:?}");
        assert!(w[0].contains("Engine::run"), "{w:?}");
        assert!(w[1].contains("Engine::deep"), "{w:?}");
    }

    #[test]
    fn cross_crate_reachability_is_followed() {
        let files = vec![
            facts_for(
                "model",
                "crates/model/src/lib.rs",
                "pub fn sample() -> u64 {\n    let mut rng = thread_rng();\n    7\n}\n",
            ),
            facts_for(
                "core",
                "crates/core/src/lib.rs",
                "use model::sample;\nimpl Engine {\n    pub fn run(&mut self) -> u64 {\n        sample()\n    }\n}\n",
            ),
        ];
        let ws = Workspace::new(&files);
        let (cert, _) = certify(&[spec("core", &["Engine::run"])], &ws);
        let v = &cert.crates["core"];
        assert!(!v.safe, "{v:?}");
        assert!(v.reasons[0].detail.contains("ambient RNG"), "{v:?}");
        assert!(v.reasons[0].witness.len() == 2, "{v:?}");
    }

    #[test]
    fn read_only_interior_access_is_a_note_not_a_reason() {
        let files = vec![facts_for(
            "core",
            "crates/core/src/lib.rs",
            "static REG: OnceLock<u64> = OnceLock::new();\npub fn run() -> u64 {\n    *REG.get().unwrap_or(&0)\n}\npub fn install() {\n    REG.get_or_init(|| 7);\n}\n",
        )];
        let ws = Workspace::new(&files);
        let (cert, _) = certify(&[spec("core", &["run"])], &ws);
        let v = &cert.crates["core"];
        assert!(v.safe, "{v:?}");
        assert_eq!(v.notes.len(), 1, "{v:?}");
        // But certifying the writer flips the verdict.
        let (cert2, _) = certify(&[spec("core", &["install"])], &ws);
        assert!(!cert2.crates["core"].safe, "{cert2:?}");
    }

    #[test]
    fn unresolvable_root_is_a_finding_and_a_reason() {
        let files = vec![facts_for(
            "core",
            "crates/core/src/lib.rs",
            "pub fn run() {}\n",
        )];
        let ws = Workspace::new(&files);
        let (cert, findings) = certify(&[spec("core", &["Engine::missing"])], &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "shard-cert");
        assert!(findings[0].file.ends_with("Cargo.toml"));
        assert!(!cert.crates["core"].safe);
    }

    #[test]
    fn certificate_json_round_trips_through_compare() {
        let files = vec![facts_for(
            "core",
            "crates/core/src/lib.rs",
            "pub fn run() {}\n",
        )];
        let ws = Workspace::new(&files);
        let (cert, _) = certify(&[spec("core", &["run"])], &ws);
        let text = cert.to_json();
        assert_eq!(compare(&cert, &text), Ok(()));
        // A safe→unsafe regression fails and says so.
        let mut worse = cert.clone();
        worse.crates.get_mut("core").unwrap().safe = false;
        worse.crates.get_mut("core").unwrap().reasons.push(Reason {
            detail: "x".into(),
            witness: vec![],
        });
        let errors = compare(&worse, &text).unwrap_err();
        assert!(errors[0].contains("regressed from `safe`"), "{errors:?}");
        // A certificate that differs only in bytes fails too.
        let shuffled = text.replace("\"notes\": []", "\"notes\": [ ]");
        assert_ne!(shuffled, text, "certificate format changed under the test");
        let errors = compare(&cert, &shuffled).unwrap_err();
        assert!(errors[0].contains("byte-for-byte"), "{errors:?}");
    }
}
