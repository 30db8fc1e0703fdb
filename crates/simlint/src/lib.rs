//! simlint — determinism and architecture lints for the simulation
//! workspace.
//!
//! A dependency-free lexer ([`lexer`]) feeds the token rules
//! ([`rules::tokens`]) scoped by the workspace dependency graph
//! ([`graph`]); an item parser ([`items`]) feeds the semantic rules
//! ([`rules::semantic`]) and a determinism-taint dataflow pass
//! ([`dataflow`]). Every file is reduced to per-file facts
//! ([`interproc::FileFacts`]); a cross-file, cross-crate call graph with
//! SCC condensation and bottom-up taint summaries ([`interproc`])
//! resolves every taint flow, and a shard-safety certification pass
//! ([`shard`]) proves manifest-declared entry points touch only
//! shard-local state, emitting the checked-in `SHARD_SAFETY.json` gate.
//!
//! The names that break reproducibility (hash containers, the wall clock,
//! host threads, ambient entropy, `unsafe`) are banned by the root
//! `clippy.toml` and the workspace lint table, not here: simlint checks
//! what a name ban cannot express.
//!
//! There is one gate: any finding exits 1, and so does a
//! `--compare-shard-cert` certificate that differs from the computed one
//! in any byte. No source comment suppresses a finding; the scope
//! exceptions live in crate manifest metadata (`layer`, `time_boundary`,
//! `sched_sinks`, `ledger`, `shard_roots`). A bad command line exits 2.
//!
//! CLI:
//!
//! ```text
//! simlint [--root DIR] [--json] [--out FILE] [--annotations]
//!         [--sarif FILE] [--list-rules] [--explain RULE]
//!         [--write-rules-doc] [--shard-cert FILE]
//!         [--compare-shard-cert FILE]
//! ```
//!
#![doc = include_str!("rules/RULES.md")]
#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod dataflow;
pub mod graph;
pub mod interproc;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod shard;

use graph::WorkspaceGraph;
use interproc::{FileFacts, FnFact};
use report::Report;
use rules::tokens::FileCtx;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule name (one of [`rules::TABLE`]'s).
    pub rule: &'static str,
    /// Human-readable explanation with remediation.
    pub message: String,
}

impl Finding {
    /// `file:line: [rule] message` — the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect `.rs` files under `dir`, sorted for deterministic output.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Reduce one file to the facts the workspace passes consume: the
/// findings of the per-file rules (token rules, then the semantic rules
/// in model scope), the file's ledger sites, and its per-function call,
/// taint and global facts.
///
/// `exempt_time_boundary` drops `time-float-cast` findings: the owning
/// crate declared this file as its audited float/time conversion
/// boundary (`time_boundary` metadata).
///
/// `sched_sinks` extends the taint pass's built-in `schedule*` sink
/// family with the owning crate's declared scheduling entry points
/// (`sched_sinks` metadata) — e.g. the timer-wheel lane's `schedule_far`
/// and the handle-returning `push_handle`/`reschedule` surface.
pub(crate) fn collect_file_facts(
    ctx: FileCtx,
    rel_path: &str,
    crate_name: &str,
    source: &str,
    ledger_fields: &[String],
    sched_sinks: &[String],
    exempt_time_boundary: bool,
) -> FileFacts {
    let rules::tokens::Scan {
        mut findings,
        lexed,
        test_lines,
    } = rules::tokens::scan_source(ctx, rel_path, source);
    if exempt_time_boundary {
        findings.retain(|f| f.rule != "time-float-cast");
    }
    let is_test = |line: usize| test_lines.get(line).copied().unwrap_or(false);
    let model_scope = matches!(ctx.layer, graph::Layer::Core | graph::Layer::Model);
    let parsed = items::parse_items(&lexed.tokens);

    let mut semantic = Vec::new();
    if model_scope && !ctx.tests_dir {
        semantic.extend(
            rules::semantic::shard_isolation(&parsed)
                .into_iter()
                .map(|(line, message)| (line, "shard-isolation", message)),
        );
    }
    findings.extend(
        semantic
            .into_iter()
            .filter(|&(line, _, _)| !is_test(line))
            .map(|(line, rule, message)| Finding {
                file: rel_path.to_string(),
                line,
                rule,
                message,
            }),
    );
    let mut ledger = Vec::new();
    if !ledger_fields.is_empty() && !ctx.tests_dir {
        let sites = rules::semantic::ledger_sites(&lexed.tokens, &parsed, ledger_fields);
        for (field, mut s) in ledger_fields.iter().cloned().zip(sites) {
            s.debits.retain(|&l| !is_test(l));
            s.credits.retain(|&l| !is_test(l));
            ledger.push((field, s));
        }
    }

    let taint_facts = dataflow::collect_fn_facts(&lexed.tokens, &parsed, sched_sinks);
    let fns = parsed
        .fns
        .iter()
        .zip(taint_facts)
        .map(|(f, mut t)| {
            // Sinks inside #[cfg(test)] extents never fire.
            t.sinks.retain(|s| !is_test(s.line));
            FnFact {
                name: f.name.clone(),
                line: f.line,
                impl_type: f.owner.map(|o| parsed.impls[o].type_name.clone()),
                taint: t,
                global_refs: interproc::collect_global_refs(&lexed.tokens, f.body),
            }
        })
        .collect();

    FileFacts {
        rel: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        findings,
        ledger,
        bindings: rules::tokens::collect_bindings(&lexed.tokens),
        fns,
        statics: interproc::collect_statics(&lexed.tokens, &parsed),
        taint_scope: model_scope && !ctx.tests_dir,
        has_forbid: source.contains("#![forbid(unsafe_code)]"),
    }
}

/// The facts of one model-layer file, for unit tests over small
/// workspaces.
#[cfg(test)]
pub(crate) fn model_facts(crate_name: &str, rel: &str, src: &str, sched: &[String]) -> FileFacts {
    let ctx = FileCtx::new(graph::Layer::Model, rel);
    collect_file_facts(ctx, rel, crate_name, src, &[], sched, false)
}

/// The result of a workspace lint: the findings report and the
/// shard-safety certificate.
#[derive(Debug)]
pub struct LintOutcome {
    /// The findings.
    pub report: Report,
    /// Per-crate shard-safety verdicts (empty when no crate declares
    /// `shard_roots`).
    pub cert: shard::ShardCert,
}

/// Lint the whole workspace in three phases.
///
/// * **Phase A (per file):** graph rules first, then every `src/` and
///   `tests/` file of every workspace crate (the simlint crate included;
///   `tests/fixtures` trees excluded — they exist to contain hazards) is
///   reduced to [`FileFacts`].
/// * **Phase B (global):** the workspace call graph is built and
///   condensed ([`interproc::Workspace`]), bottom-up taint summaries
///   resolve every determinism-taint flow, same-file or across files and
///   crates, and the shard-safety certificate is computed from
///   manifest-declared roots ([`shard::certify`]).
/// * **Phase C (assembly):** every file's findings and the taint
///   findings at their sinks join the report; crate-level ledger pairing
///   and the `missing-forbid` check close it out, and one sort orders it.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let graph = WorkspaceGraph::load(root)?;
    let mut report = Report {
        findings: graph.check(),
        ..Report::default()
    };

    // Phase A: reduce every file to facts.
    let mut files: Vec<FileFacts> = Vec::new();
    for info in graph.crates.values() {
        let crate_dir = root.join(&info.dir);
        let boundary_rel = info.time_boundary.as_ref().map(|b| {
            if info.dir.is_empty() {
                b.clone()
            } else {
                format!("{}/{}", info.dir, b)
            }
        });
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            collect_rs_files(&dir, &mut paths)?;
            for path in paths {
                let rel = rel_to(root, &path);
                if rel.contains("tests/fixtures") {
                    continue;
                }
                let source = fs::read_to_string(&path)?;
                report.files_scanned += 1;
                let layer = info.layer.unwrap_or(graph::Layer::Model);
                let exempt = boundary_rel.as_deref() == Some(rel.as_str());
                files.push(collect_file_facts(
                    FileCtx::new(layer, &rel),
                    &rel,
                    &info.name,
                    &source,
                    &info.ledger,
                    &info.sched_sinks,
                    exempt,
                ));
            }
        }
    }

    // Phase B: global passes over the fact base.
    let ws = interproc::Workspace::new(&files);
    let sums = ws.summaries();
    let inter = ws.interproc_findings(&sums);
    let specs: Vec<shard::RootSpec> = graph
        .crates
        .values()
        .filter(|i| !i.shard_roots.is_empty())
        .map(|i| shard::RootSpec {
            crate_name: i.name.clone(),
            manifest: i.manifest.clone(),
            roots: i.shard_roots.clone(),
        })
        .collect();
    let (cert, cert_findings) = shard::certify(&specs, &ws);
    report.findings.extend(cert_findings);

    // Phase C: every file's findings, then the taint findings at their
    // sinks. A cross-file flow names its source site.
    for facts in &mut files {
        report.findings.append(&mut facts.findings);
    }
    for f in inter {
        let mut message = f.message;
        let (sf, sl) = f.source;
        if sf != f.file {
            message = format!("{message} (source at {}:{})", files[sf].rel, sl);
        }
        let finding = Finding {
            file: files[f.file].rel.clone(),
            line: f.line,
            rule: "determinism-taint",
            message: format!(
                "{message}; break the flow (ordered container, stable key, \
                 seeded stream)"
            ),
        };
        // Repeated sinks on one line report one finding.
        if !report.findings.contains(&finding) {
            report.findings.push(finding);
        }
    }

    // Crate-level rules from the aggregated facts.
    for info in graph.crates.values() {
        type Site = (String, usize);
        let mut ledger: Vec<(String, Vec<Site>, Vec<Site>)> = info
            .ledger
            .iter()
            .map(|f| (f.clone(), Vec::new(), Vec::new()))
            .collect();
        for facts in files.iter().filter(|f| f.crate_name == info.name) {
            for (field, sites) in &facts.ledger {
                if let Some(entry) = ledger.iter_mut().find(|(f, _, _)| f == field) {
                    entry
                        .1
                        .extend(sites.debits.iter().map(|&l| (facts.rel.clone(), l)));
                    entry
                        .2
                        .extend(sites.credits.iter().map(|&l| (facts.rel.clone(), l)));
                }
            }
        }
        for (field, debits, credits) in ledger {
            let manifest = &info.manifest;
            match (debits.first(), credits.first()) {
                (None, None) => report.findings.push(Finding {
                    file: manifest.clone(),
                    line: 1,
                    rule: "ledger-pairing",
                    message: format!(
                        "manifest declares exactly-once ledger field `{field}` \
                         but no debit or credit site exists in the crate; \
                         remove the declaration or wire the ledger"
                    ),
                }),
                (Some((file, line)), None) => report.findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: "ledger-pairing",
                    message: format!(
                        "ledger field `{field}` is debited here but never \
                         credited (`-=` / `.remove(` / `.clear(`) anywhere in \
                         the crate; exactly-once accounting needs both sides"
                    ),
                }),
                (None, Some((file, line))) => report.findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: "ledger-pairing",
                    message: format!(
                        "ledger field `{field}` is credited here but never \
                         debited (`+=` / `.insert(`) anywhere in the crate; \
                         exactly-once accounting needs both sides"
                    ),
                }),
                (Some(_), Some(_)) => {}
            }
        }
        let lib_rel = if info.dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{}/src/lib.rs", info.dir)
        };
        if let Some(facts) = files.iter().find(|f| f.rel == lib_rel) {
            if !facts.has_forbid {
                report.findings.push(Finding {
                    file: lib_rel,
                    line: 1,
                    rule: "missing-forbid",
                    message: "crate root lacks #![forbid(unsafe_code)]; every crate \
                              must carry the guarantee locally"
                        .into(),
                });
            }
        }
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(LintOutcome { report, cert })
}

/// CLI entry point; returns the process exit code: 0 when the run is
/// clean, 1 on any finding or certificate mismatch, 2 on a bad command
/// line or an unreadable or unwritable file.
pub fn run(args: &[String]) -> i32 {
    let mut root_arg: Option<PathBuf> = None;
    let mut json = false;
    let mut out_file: Option<PathBuf> = None;
    let mut annotations = false;
    let mut sarif_file: Option<PathBuf> = None;
    let mut shard_cert_file: Option<PathBuf> = None;
    let mut compare_shard_cert: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let path_slot = match args[i].as_str() {
            "--root" => Some(&mut root_arg),
            "--out" => Some(&mut out_file),
            "--sarif" => Some(&mut sarif_file),
            "--shard-cert" => Some(&mut shard_cert_file),
            "--compare-shard-cert" => Some(&mut compare_shard_cert),
            _ => None,
        };
        if let Some(slot) = path_slot {
            // A following flag is not a path: `--out --json` must not
            // write a file named `--json` and drop the `--json`.
            let Some(path) = args.get(i + 1).filter(|p| !p.starts_with("--")) else {
                eprintln!("simlint: {} needs a path", args[i]);
                return 2;
            };
            *slot = Some(PathBuf::from(path));
            i += 2;
            continue;
        }
        match args[i].as_str() {
            "--json" => json = true,
            "--annotations" => annotations = true,
            "--list-rules" => {
                for r in rules::TABLE {
                    println!("{:<16} {}", r.name, r.fires_on.replace('\n', " "));
                }
                return 0;
            }
            "--explain" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--explain needs a rule name; try --list-rules");
                    return 2;
                };
                let Some(spec) = rules::spec(name) else {
                    eprintln!("unknown rule `{name}`; try --list-rules");
                    return 2;
                };
                println!("{}", spec.name);
                println!("  scope:    {}", spec.scope);
                println!("  fires on: {}", spec.fires_on.replace('\n', " "));
                println!("\n{}", spec.detail);
                return 0;
            }
            "--write-rules-doc" => {
                let root = match resolve_root(root_arg.as_deref()) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("simlint: {e}");
                        return 2;
                    }
                };
                let path = root.join("crates/simlint/src/rules/RULES.md");
                if let Err(e) = fs::write(&path, rules::render_rules_doc()) {
                    eprintln!("simlint: cannot write {}: {e}", path.display());
                    return 2;
                }
                println!("wrote {}", path.display());
                return 0;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}`");
                return 2;
            }
        }
        i += 1;
    }

    let root = match resolve_root(root_arg.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return 2;
        }
    };

    let LintOutcome { report, cert } = match lint_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simlint: {e}");
            return 2;
        }
    };

    let mut failed = !report.findings.is_empty();
    for f in &report.findings {
        println!("{}", f.render());
    }
    if annotations {
        print!("{}", report.to_annotations());
    }
    if json {
        print!("{}", report.to_json());
    }
    if let Some(path) = out_file {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if let Some(path) = sarif_file {
        if let Err(e) = fs::write(&path, report.to_sarif()) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote SARIF {}", path.display());
    }
    if let Some(path) = shard_cert_file {
        if let Err(e) = fs::write(&path, cert.to_json()) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote shard certificate {}", path.display());
    }
    if let Some(path) = compare_shard_cert {
        match fs::read_to_string(&path) {
            Ok(text) => match shard::compare(&cert, &text) {
                Ok(()) => println!("shard-safety gate: OK ({})", path.display()),
                Err(errors) => {
                    for e in errors {
                        eprintln!("shard-safety gate: {e}");
                    }
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!(
                    "simlint: cannot read shard certificate {}: {e}",
                    path.display()
                );
                return 2;
            }
        }
    }
    if !json {
        println!(
            "simlint: scanned {} files, {} finding(s)",
            report.files_scanned,
            report.findings.len()
        );
    }
    i32::from(failed)
}

fn resolve_root(arg: Option<&Path>) -> Result<PathBuf, String> {
    match arg {
        Some(p) => Ok(p.to_path_buf()),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).ok_or_else(|| "no workspace root found above cwd".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_render_is_stable() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            rule: "float-sort",
            message: "m".into(),
        };
        assert_eq!(f.render(), "crates/x/src/lib.rs:3: [float-sort] m");
    }

    #[test]
    fn workspace_root_is_found_from_nested_dir() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("inside the workspace");
        assert!(root.join("crates/simlint").is_dir());
    }
}
