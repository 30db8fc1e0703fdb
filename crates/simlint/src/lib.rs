//! simlint — determinism and architecture lints for the simulation
//! workspace.
//!
//! v2 is a token-stream analyzer: a dependency-free lexer
//! ([`lexer`]) feeds alias-aware rules ([`rules::tokens`]) scoped by the
//! workspace dependency graph ([`graph`]), with a waiver lifecycle that
//! detects its own dead entries ([`rules::waivers`]) and a checked-in
//! findings baseline ([`report`]) gating CI the same way the perf gate
//! (`BENCH_5.json`) does. The v1 line-oriented pass survives verbatim in
//! [`legacy`] as an executable specification: a differential test keeps
//! the token pass a strict superset of it modulo the known false
//! positives the lexer removes.
//!
//! CLI:
//!
//! v4 lifts the analysis to the workspace: every file is first reduced
//! to cacheable per-file facts ([`interproc::FileFacts`], served
//! incrementally by [`cache`]), then a cross-file, cross-crate call
//! graph with SCC condensation and bottom-up taint summaries
//! ([`interproc`]) propagates determinism taint through any call chain
//! in the workspace, and a shard-safety certification pass ([`shard`])
//! proves manifest-declared entry points touch only shard-local state,
//! emitting the checked-in `SHARD_SAFETY.json` gate.
//!
//! ```text
//! simlint [--root DIR] [--deny-all] [--json] [--out FILE]
//!         [--annotations] [--sarif FILE] [--compare BASELINE] [--strict]
//!         [--write-baseline FILE] [--self] [--legacy] [--list-rules]
//!         [--explain RULE] [--write-rules-doc] [--no-cache]
//!         [--shard-cert FILE] [--compare-shard-cert FILE]
//! ```
//!
#![doc = include_str!("rules/RULES.md")]
#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod cache;
pub mod dataflow;
pub mod graph;
pub mod interproc;
pub mod items;
pub mod legacy;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod shard;

use std::collections::BTreeSet;

use graph::WorkspaceGraph;
use interproc::{FileFacts, FnFact};
use report::{Report, WaiverRecord};
use rules::semantic::LedgerSites;
use rules::tokens::{Analysis, FileCtx};
use rules::waivers::WaiverSet;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule name (one of [`rules::RULES`]).
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

/// The result of the v3 per-file analysis: the merged token + semantic
/// findings, plus the file's ledger debit/credit sites for the caller to
/// aggregate per crate.
#[derive(Debug, Default)]
pub struct V3Analysis {
    /// Post-waiver findings and the file's waiver ledger.
    pub analysis: Analysis,
    /// Per declared ledger field: this file's non-test sites.
    pub ledger: Vec<(String, LedgerSites)>,
}

/// Analyze one file with the full v3 pipeline: the v2 token scan, the
/// item parser, the determinism-taint dataflow pass, and the semantic
/// rules — all contributing *pre-waiver* candidates, so one waiver
/// application at the end serves every rule family (a waiver for a
/// semantic rule is never falsely stale).
///
/// `exempt_time_boundary` drops `time-float-cast` candidates: the owning
/// crate declared this file as its audited float/time conversion
/// boundary (`time_boundary` metadata), which replaces per-line waivers.
///
/// `sched_sinks` extends the taint pass's built-in `schedule*` sink
/// family with the owning crate's declared scheduling entry points
/// (`sched_sinks` metadata) — e.g. the timer-wheel lane's `schedule_far`
/// and the handle-returning `push_handle`/`reschedule` surface.
pub fn analyze_source_v3(
    ctx: FileCtx,
    rel_path: &str,
    source: &str,
    ledger_fields: &[String],
    sched_sinks: &[String],
    exempt_time_boundary: bool,
) -> V3Analysis {
    let scan = rules::tokens::scan_source(ctx, rel_path, source);
    let rules::tokens::Scan {
        mut candidates,
        wset,
        lexed,
        test_lines,
    } = scan;
    if exempt_time_boundary {
        candidates.retain(|f| f.rule != "time-float-cast");
    }
    let is_test = |line: usize| test_lines.get(line).copied().unwrap_or(false);
    let model_scope = matches!(ctx.layer, graph::Layer::Core | graph::Layer::Model);
    let parsed = items::parse_items(&lexed.tokens);

    if model_scope && !ctx.tests_dir {
        for tf in dataflow::analyze_taint(&lexed.tokens, &parsed, sched_sinks) {
            if is_test(tf.line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line: tf.line,
                rule: "determinism-taint",
                message: format!(
                    "{}; break the flow (ordered container, stable key, seeded \
                     stream) or waive with a reason",
                    tf.message
                ),
            });
        }
        for (line, message) in rules::semantic::shard_isolation(&parsed) {
            if is_test(line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "shard-isolation",
                message,
            });
        }
    }
    if ctx.layer == graph::Layer::Model && !ctx.tests_dir {
        for (line, message) in rules::semantic::hook_conformance(&lexed.tokens, &parsed) {
            if is_test(line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "hook-conformance",
                message,
            });
        }
    }
    let mut ledger = Vec::new();
    if !ledger_fields.is_empty() && !ctx.tests_dir {
        let sites = rules::semantic::ledger_sites(&lexed.tokens, &parsed, ledger_fields);
        for (field, mut s) in ledger_fields.iter().cloned().zip(sites) {
            s.debits.retain(|&l| !is_test(l));
            s.credits.retain(|&l| !is_test(l));
            ledger.push((field, s));
        }
    }
    V3Analysis {
        analysis: rules::tokens::finalize(rel_path, candidates, wset),
        ledger,
    }
}

/// Collect one file's cacheable facts: the v3 pre-waiver candidates
/// (token rules, semantic rules, local taint — byte-identical to what
/// [`analyze_source_v3`] would produce before waiver application) plus
/// the interprocedural facts the global passes consume. A pure function
/// of the source and the manifest metadata, which is what lets the
/// incremental cache key it by content hash.
pub fn collect_file_facts(
    ctx: FileCtx,
    rel_path: &str,
    crate_name: &str,
    source: &str,
    ledger_fields: &[String],
    sched_sinks: &[String],
    exempt_time_boundary: bool,
) -> FileFacts {
    let scan = rules::tokens::scan_source(ctx, rel_path, source);
    let rules::tokens::Scan {
        mut candidates,
        wset,
        lexed,
        test_lines,
    } = scan;
    if exempt_time_boundary {
        candidates.retain(|f| f.rule != "time-float-cast");
    }
    let is_test = |line: usize| test_lines.get(line).copied().unwrap_or(false);
    let model_scope = matches!(ctx.layer, graph::Layer::Core | graph::Layer::Model);
    let parsed = items::parse_items(&lexed.tokens);

    if model_scope && !ctx.tests_dir {
        for tf in dataflow::analyze_taint(&lexed.tokens, &parsed, sched_sinks) {
            if is_test(tf.line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line: tf.line,
                rule: "determinism-taint",
                message: format!(
                    "{}; break the flow (ordered container, stable key, seeded \
                     stream) or waive with a reason",
                    tf.message
                ),
            });
        }
        for (line, message) in rules::semantic::shard_isolation(&parsed) {
            if is_test(line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "shard-isolation",
                message,
            });
        }
    }
    if ctx.layer == graph::Layer::Model && !ctx.tests_dir {
        for (line, message) in rules::semantic::hook_conformance(&lexed.tokens, &parsed) {
            if is_test(line) {
                continue;
            }
            candidates.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "hook-conformance",
                message,
            });
        }
    }
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
            // Interprocedural findings obey the same test-extent filter
            // as the v3 pass: sinks inside #[cfg(test)] never fire.
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
        candidates,
        waivers: wset.waivers.clone(),
        bad_waivers: wset.bad.clone(),
        ledger,
        bindings: rules::tokens::collect_bindings(&lexed.tokens),
        fns,
        statics: interproc::collect_statics(&lexed.tokens, &parsed),
        taint_scope: model_scope && !ctx.tests_dir,
        has_forbid: source.contains("#![forbid(unsafe_code)]"),
    }
}

/// Options for [`lint_workspace_opts`].
#[derive(Debug, Default)]
pub struct LintOptions {
    /// When set, load/store per-file facts at this path, keyed by
    /// content hash and salted with rules + manifest metadata.
    pub cache_path: Option<PathBuf>,
}

/// The full v4 result: the findings report, the shard-safety
/// certificate, and cache statistics.
#[derive(Debug)]
pub struct LintOutcome {
    /// Post-waiver findings and waiver records.
    pub report: Report,
    /// Per-crate shard-safety verdicts (empty when no crate declares
    /// `shard_roots`).
    pub cert: shard::ShardCert,
    /// Files served from the incremental cache.
    pub cache_hits: usize,
    /// Files analyzed cold.
    pub cache_misses: usize,
}

/// Lint the whole workspace with the v3 per-file pipeline. Kept as the
/// plain-`Report` entry point; delegates to [`lint_workspace_opts`].
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_workspace_opts(root, &LintOptions::default())?.report)
}

/// Lint the whole workspace with the v4 three-phase pipeline.
///
/// * **Phase A (per file, cacheable):** graph rules first, then every
///   `src/` and `tests/` file of every workspace crate (the simlint
///   crate included; `tests/fixtures` trees excluded — they exist to
///   contain hazards) is reduced to [`FileFacts`], via the incremental
///   cache when enabled.
/// * **Phase B (global):** the workspace call graph is built and
///   condensed ([`interproc::Workspace`]), bottom-up taint summaries
///   resolve cross-file/cross-crate flows, and the shard-safety
///   certificate is computed from manifest-declared roots
///   ([`shard::certify`]).
/// * **Phase C (per file):** interprocedural findings join the file's
///   candidates (deduplicated against the same-file chains the v3 pass
///   already reported), source-side waivers of cross-file flows are
///   credited so they do not rot into `stale-waiver`, and one waiver
///   application finalizes each file. Crate-level ledger pairing and
///   the `missing-forbid` check close out the report.
pub fn lint_workspace_opts(root: &Path, opts: &LintOptions) -> io::Result<LintOutcome> {
    let graph = WorkspaceGraph::load(root)?;
    let mut report = Report {
        findings: graph.check(),
        ..Report::default()
    };

    // Cache salt: the rule inventory plus every crate's analysis-shaping
    // manifest metadata.
    let mut meta = String::new();
    for info in graph.crates.values() {
        meta.push_str(&format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}\n",
            info.name,
            info.dir,
            info.layer,
            info.time_boundary,
            info.ledger,
            info.sched_sinks,
            info.shard_roots,
        ));
    }
    let salt = cache::salt(&meta);
    let mut file_cache = opts
        .cache_path
        .as_deref()
        .map(|p| cache::Cache::load(p, &salt));
    let (mut cache_hits, mut cache_misses) = (0usize, 0usize);

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
                let hash = format!("{:016x}", cache::fnv64(source.as_bytes()));
                if let Some(facts) = file_cache.as_ref().and_then(|c| c.lookup(&rel, &hash)) {
                    cache_hits += 1;
                    files.push(facts.clone());
                    continue;
                }
                cache_misses += 1;
                let layer = info.layer.unwrap_or(graph::Layer::Model);
                let exempt = boundary_rel.as_deref() == Some(rel.as_str());
                let facts = collect_file_facts(
                    FileCtx::new(layer, &rel),
                    &rel,
                    &info.name,
                    &source,
                    &info.ledger,
                    &info.sched_sinks,
                    exempt,
                );
                if let Some(c) = file_cache.as_mut() {
                    c.insert(&rel, &hash, facts.clone());
                }
                files.push(facts);
            }
        }
    }
    if let (Some(c), Some(p)) = (file_cache.as_mut(), opts.cache_path.as_deref()) {
        let live: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();
        c.retain_files(&live);
        let _ = c.save(p); // best-effort: an unwritable cache is a cold run next time
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

    // Route each interprocedural finding to its sink file; collect
    // source-side waiver credits for cross-file flows.
    let mut extra: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
    let mut credits: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for f in inter {
        let mut message = f.message;
        if let Some((sf, sl)) = f.source {
            message = format!("{message} (source at {}:{})", files[sf].rel, sl);
            credits[sf].push(sl);
        }
        extra[f.file].push(Finding {
            file: files[f.file].rel.clone(),
            line: f.line,
            rule: "determinism-taint",
            message: format!(
                "{message}; break the flow (ordered container, stable key, \
                 seeded stream) or waive with a reason"
            ),
        });
    }

    // Phase C: finalize each file once, with interprocedural candidates
    // deduplicated against the v3 same-file chains by (line, message).
    for (idx, facts) in files.iter().enumerate() {
        let mut candidates = facts.candidates.clone();
        let mut seen: BTreeSet<(usize, String)> = candidates
            .iter()
            .map(|c| (c.line, c.message.clone()))
            .collect();
        for f in &extra[idx] {
            if seen.insert((f.line, f.message.clone())) {
                candidates.push(f.clone());
            }
        }
        let mut wset = WaiverSet::from_parts(facts.waivers.clone(), facts.bad_waivers.clone());
        for &line in &credits[idx] {
            wset.credit(line, "determinism-taint");
        }
        let analysis = rules::tokens::finalize(&facts.rel, candidates, wset);
        report.findings.extend(analysis.findings);
        report
            .waivers
            .extend(analysis.waivers.into_iter().map(|w| WaiverRecord {
                file: facts.rel.clone(),
                line: w.line,
                rules: w.rules,
                block: w.block,
            }));
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
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintOutcome {
        report,
        cert,
        cache_hits,
        cache_misses,
    })
}

/// Run the v1 line-oriented pass over the file set it historically
/// covered (everything but the simlint crate itself). Kept for
/// `--legacy` and the differential test.
pub fn lint_workspace_legacy(root: &Path) -> io::Result<Vec<Finding>> {
    let graph = WorkspaceGraph::load(root)?;
    let mut findings = Vec::new();
    for info in graph.crates.values() {
        if info.name == "simlint" {
            continue;
        }
        for sub in ["src", "tests"] {
            let dir = root.join(&info.dir).join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&dir, &mut files)?;
            for path in files {
                let rel = rel_to(root, &path);
                if rel.contains("tests/fixtures") {
                    continue;
                }
                let source = fs::read_to_string(&path)?;
                findings.extend(legacy::lint_source_legacy(&rel, &source));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// CLI entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut root_arg: Option<PathBuf> = None;
    let mut json = false;
    let mut out_file: Option<PathBuf> = None;
    let mut annotations = false;
    let mut compare_file: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut self_lint = false;
    let mut use_legacy = false;
    let mut sarif_file: Option<PathBuf> = None;
    let mut strict = false;
    let mut no_cache = false;
    let mut shard_cert_file: Option<PathBuf> = None;
    let mut compare_shard_cert: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny-all" => {} // compatibility: findings always fail
            "--json" => json = true,
            "--annotations" => annotations = true,
            "--self" => self_lint = true,
            "--legacy" => use_legacy = true,
            "--strict" => strict = true,
            "--no-cache" => no_cache = true,
            "--shard-cert" => {
                i += 1;
                shard_cert_file = args.get(i).map(PathBuf::from);
            }
            "--compare-shard-cert" => {
                i += 1;
                compare_shard_cert = args.get(i).map(PathBuf::from);
            }
            "--sarif" => {
                i += 1;
                sarif_file = args.get(i).map(PathBuf::from);
            }
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
                println!("  waivable: {}", if spec.waivable { "yes" } else { "no" });
                println!("\n{}", spec.detail);
                return 0;
            }
            "--root" => {
                i += 1;
                root_arg = args.get(i).map(PathBuf::from);
            }
            "--out" => {
                i += 1;
                out_file = args.get(i).map(PathBuf::from);
            }
            "--compare" => {
                i += 1;
                compare_file = args.get(i).map(PathBuf::from);
            }
            "--write-baseline" => {
                i += 1;
                write_baseline = args.get(i).map(PathBuf::from);
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

    if use_legacy {
        let findings = match lint_workspace_legacy(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("simlint: {e}");
                return 2;
            }
        };
        for f in &findings {
            println!("{}", f.render());
        }
        println!("simlint (legacy pass): {} finding(s)", findings.len());
        return i32::from(!findings.is_empty());
    }

    let opts = LintOptions {
        cache_path: (!no_cache).then(|| root.join("target/simlint-cache.json")),
    };
    let outcome = match lint_workspace_opts(&root, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simlint: {e}");
            return 2;
        }
    };
    let LintOutcome {
        mut report,
        cert,
        cache_hits,
        cache_misses,
    } = outcome;

    if self_lint {
        report
            .findings
            .retain(|f| f.file.starts_with("crates/simlint/"));
        report
            .waivers
            .retain(|w| w.file.starts_with("crates/simlint/"));
        if !report.waivers.is_empty() {
            for w in &report.waivers {
                eprintln!(
                    "{}:{}: the linter may not waive its own rules ({})",
                    w.file,
                    w.line,
                    w.rules.join(", ")
                );
            }
            return 1;
        }
    }

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
    if let Some(path) = write_baseline {
        if let Err(e) = fs::write(&path, report.to_baseline_json()) {
            eprintln!("simlint: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("wrote baseline {}", path.display());
    }
    if let Some(path) = compare_file {
        match fs::read_to_string(&path) {
            Ok(text) => match report::compare(&report, &text) {
                Ok(notes) if strict && !notes.is_empty() => {
                    // Under --strict, drift in *either* direction fails:
                    // unexplained disappearances mean the baseline lies.
                    for n in notes {
                        eprintln!("baseline gate (strict): {n}");
                    }
                    eprintln!(
                        "baseline gate (strict): findings disappeared without a \
                         baseline update; re-ratchet with --write-baseline"
                    );
                    failed = true;
                }
                Ok(notes) => {
                    for n in notes {
                        println!("note: {n}");
                    }
                    println!("baseline gate: OK ({})", path.display());
                }
                Err(errors) => {
                    for e in errors {
                        eprintln!("baseline gate: {e}");
                    }
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("simlint: cannot read baseline {}: {e}", path.display());
                return 2;
            }
        }
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
            Ok(text) => match shard::compare(&cert, &text, strict) {
                Ok(notes) => {
                    for n in notes {
                        println!("note: {n}");
                    }
                    println!("shard-safety gate: OK ({})", path.display());
                }
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
            "simlint: scanned {} files ({cache_hits} cached, {cache_misses} cold), \
             {} finding(s), {} waiver(s)",
            report.files_scanned,
            report.findings.len(),
            report.waivers.len()
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
            rule: "unordered",
            message: "m".into(),
        };
        assert_eq!(f.render(), "crates/x/src/lib.rs:3: [unordered] m");
    }

    #[test]
    fn workspace_root_is_found_from_nested_dir() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("inside the workspace");
        assert!(root.join("crates/simlint").is_dir());
    }
}
