//! The workspace dependency graph and the `layer-violation` rule.
//!
//! Every workspace crate declares its architectural layer in its
//! manifest:
//!
//! ```toml
//! [package.metadata.simlint]
//! layer = "model"
//! ```
//!
//! The layers form the architecture DAG the repository promises:
//!
//! ```text
//!        app      (mindgap root package: binaries + re-exports)
//!         │
//!      harness    (experiments, bench — drive and time the models; the
//!         │        one thread pool lives here)
//!       model     (net-wire, nic-model, cpu-model, workload, nicsched,
//!         │        systems — deterministic simulation state)
//!        core     (sim-core — depends on no internal crate)
//!
//!       [tool]    (simlint — depends on nothing; nothing depends on it)
//! ```
//!
//! A crate may depend only on layers at or below its own (`tool` and
//! `core` on none), so a model crate can never pull in a harness crate —
//! the dependency direction that would let wall clocks, OS threads and
//! ambient entropy leak into simulation state. Vendored stand-ins under
//! `vendor/` (bytes, proptest, stats_alloc) are third-party surface and
//! exempt, like any external dependency.
//!
//! This module parses each `Cargo.toml` with a small section-aware
//! scanner (no TOML dependency), builds the graph, and emits
//! `layer-violation` findings for: missing or unknown layer metadata,
//! forbidden edges (normal, dev, or build dependencies alike), and
//! cycles. The per-file rules read their scope from these layers: the
//! model-state rules (`time-float-cast`, `determinism-taint`,
//! `shard-isolation`) apply to core and model crates only.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::Finding;

/// Architectural layer of one workspace crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `sim-core`: the deterministic kernel; no internal dependencies.
    Core,
    /// Simulation-state crates; may depend on core + model.
    Model,
    /// Host-side drivers (experiments, bench); may fan OS threads.
    Harness,
    /// The workspace-root package; may depend on anything below.
    App,
    /// Standalone tooling (simlint); depends on nothing internal.
    Tool,
}

impl Layer {
    /// Parse the manifest string form.
    pub fn parse(s: &str) -> Option<Layer> {
        match s {
            "core" => Some(Layer::Core),
            "model" => Some(Layer::Model),
            "harness" => Some(Layer::Harness),
            "app" => Some(Layer::App),
            "tool" => Some(Layer::Tool),
            _ => None,
        }
    }

    /// The manifest string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Model => "model",
            Layer::Harness => "harness",
            Layer::App => "app",
            Layer::Tool => "tool",
        }
    }

    /// May a crate of layer `self` depend on an internal crate of layer
    /// `dep`? This is the architecture DAG in one function.
    pub fn may_depend_on(self, dep: Layer) -> bool {
        match self {
            Layer::Core | Layer::Tool => false,
            Layer::Model => matches!(dep, Layer::Core | Layer::Model),
            Layer::Harness => matches!(dep, Layer::Core | Layer::Model | Layer::Harness),
            Layer::App => matches!(dep, Layer::Core | Layer::Model | Layer::Harness),
        }
    }
}

/// One internal dependency edge as written in a manifest.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Dependency crate name.
    pub to: String,
    /// 1-based line in the manifest where the edge is declared.
    pub line: usize,
    /// `dependencies`, `dev-dependencies`, or `build-dependencies`.
    pub section: String,
}

/// One workspace crate as the graph sees it.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package] name`.
    pub name: String,
    /// Workspace-relative manifest path with forward slashes.
    pub manifest: String,
    /// Workspace-relative crate directory ("" for the root package).
    pub dir: String,
    /// Declared layer, if any.
    pub layer: Option<Layer>,
    /// Raw layer string when it failed to parse.
    pub layer_raw: Option<String>,
    /// All declared dependency names (internal and external).
    pub deps: Vec<DepEdge>,
    /// Crate-relative path of the declared float-to-time boundary file
    /// (`time_boundary = "src/time.rs"`): the one audited file where the
    /// canonical `*_f64` conversions may cast between time and floats.
    pub time_boundary: Option<String>,
    /// Exactly-once ledger fields (`ledger = ["reclaimed"]`): every
    /// declared field must have matched debit and credit sites somewhere
    /// in the crate (the `ledger-pairing` rule).
    pub ledger: Vec<String>,
    /// Additional event-queue scheduling entry points (`sched_sinks =
    /// ["push_handle"]`): method names the determinism-taint pass treats
    /// as ordering-sensitive sinks in this crate's files, alongside the
    /// built-in `schedule*` family — how a crate that grows its own
    /// queue lanes (e.g. the timer wheel) keeps them under taint
    /// analysis without a lint release.
    pub sched_sinks: Vec<String>,
    /// Shard entry points (`shard_roots = ["Dispatcher::on_request"]`):
    /// the functions a future intra-run shard calls into. The shard
    /// certification pass proves everything reachable from these roots
    /// touches only shard-local state and records the per-crate verdict
    /// in `SHARD_SAFETY.json`. `Type::method` names an impl method; a
    /// bare name matches free functions of that name in the crate.
    pub shard_roots: Vec<String>,
}

/// The parsed workspace graph.
#[derive(Debug, Default)]
pub struct WorkspaceGraph {
    /// Crates by package name, deterministic order.
    pub crates: BTreeMap<String, CrateInfo>,
}

impl WorkspaceGraph {
    /// Load the graph from a workspace root: every `crates/*` member with
    /// a manifest, plus the root package if the root manifest has a
    /// `[package]` section. `vendor/*` members are exempt third-party
    /// stand-ins and are not graph nodes.
    pub fn load(root: &Path) -> io::Result<WorkspaceGraph> {
        let mut graph = WorkspaceGraph::default();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
            entries.sort_by_key(|e| e.file_name());
            for entry in entries {
                let manifest = entry.path().join("Cargo.toml");
                if !manifest.is_file() {
                    continue;
                }
                let dir = format!("crates/{}", entry.file_name().to_string_lossy());
                let text = fs::read_to_string(&manifest)?;
                if let Some(info) = parse_manifest(&text, &format!("{dir}/Cargo.toml"), &dir) {
                    graph.crates.insert(info.name.clone(), info);
                }
            }
        }
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            let text = fs::read_to_string(&root_manifest)?;
            if let Some(info) = parse_manifest(&text, "Cargo.toml", "") {
                graph.crates.insert(info.name.clone(), info);
            }
        }
        Ok(graph)
    }

    /// Evaluate the `layer-violation` rule over the whole graph.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        let layer_of: BTreeMap<&str, Option<Layer>> = self
            .crates
            .values()
            .map(|c| (c.name.as_str(), c.layer))
            .collect();

        for c in self.crates.values() {
            match (&c.layer, &c.layer_raw) {
                (Some(_), _) => {}
                (None, Some(raw)) => findings.push(Finding {
                    file: c.manifest.clone(),
                    line: 1,
                    rule: "layer-violation",
                    message: format!(
                        "unknown layer `{raw}`; declare one of \
                         core/model/harness/app/tool in [package.metadata.simlint]"
                    ),
                }),
                (None, None) => findings.push(Finding {
                    file: c.manifest.clone(),
                    line: 1,
                    rule: "layer-violation",
                    message: "crate declares no architectural layer; add \
                              `[package.metadata.simlint] layer = \"…\"` so the \
                              dependency DAG stays machine-checkable"
                        .into(),
                }),
            }
            let Some(from) = c.layer else { continue };
            for dep in &c.deps {
                // Only internal crates are graph edges; vendor and
                // registry dependencies are external surface.
                let Some(&to_layer) = layer_of.get(dep.to.as_str()) else {
                    continue;
                };
                let Some(to_layer) = to_layer else { continue };
                if !from.may_depend_on(to_layer) {
                    findings.push(Finding {
                        file: c.manifest.clone(),
                        line: dep.line,
                        rule: "layer-violation",
                        message: format!(
                            "`{}` (layer {}) must not depend on `{}` (layer {}): \
                             {} may only depend on {}; this edge would let \
                             harness-side nondeterminism reach simulation state",
                            c.name,
                            from.as_str(),
                            dep.to,
                            to_layer.as_str(),
                            from.as_str(),
                            allowed_list(from),
                        ),
                    });
                }
            }
        }

        findings.extend(self.cycle_findings());
        findings
    }

    /// Cycle detection over internal edges (DFS, deterministic order).
    fn cycle_findings(&self) -> Vec<Finding> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let names: Vec<&str> = self.crates.keys().map(String::as_str).collect();
        let mut marks: BTreeMap<&str, Mark> = names.iter().map(|n| (*n, Mark::White)).collect();
        let mut findings = Vec::new();

        fn visit(
            graph: &WorkspaceGraph,
            name: &str,
            marks: &mut BTreeMap<&str, Mark>,
            stack: &mut Vec<String>,
            findings: &mut Vec<Finding>,
        ) {
            let Some(info) = graph.crates.get(name) else {
                return;
            };
            match marks.get(name) {
                Some(Mark::Black) => return,
                Some(Mark::Grey) => {
                    let start = stack.iter().position(|n| n == name).unwrap_or(0);
                    findings.push(Finding {
                        file: info.manifest.clone(),
                        line: 1,
                        rule: "layer-violation",
                        message: format!(
                            "dependency cycle: {} -> {}",
                            stack[start..].join(" -> "),
                            name
                        ),
                    });
                    return;
                }
                _ => {}
            }
            if let Some(m) = marks.get_mut(name) {
                *m = Mark::Grey;
            }
            stack.push(name.to_string());
            let deps: Vec<String> = info.deps.iter().map(|d| d.to.clone()).collect();
            for dep in deps {
                if graph.crates.contains_key(dep.as_str()) {
                    visit(graph, &dep, marks, stack, findings);
                }
            }
            stack.pop();
            if let Some(m) = marks.get_mut(name) {
                *m = Mark::Black;
            }
        }

        for name in names {
            visit(self, name, &mut marks, &mut Vec::new(), &mut findings);
        }
        findings
    }
}

fn allowed_list(from: Layer) -> &'static str {
    match from {
        Layer::Core => "no internal crate",
        Layer::Tool => "no internal crate",
        Layer::Model => "core and model crates",
        Layer::Harness => "core, model and harness crates",
        Layer::App => "core, model and harness crates",
    }
}

/// Parse one manifest with a minimal section-aware scanner. Returns
/// `None` when the manifest has no `[package]` section (e.g. a pure
/// `[workspace]` root).
fn parse_manifest(text: &str, manifest_rel: &str, dir_rel: &str) -> Option<CrateInfo> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        Package,
        Metadata,
        Deps,
        DevDeps,
        BuildDeps,
        Other,
    }
    let mut section = Section::Other;
    let mut name = None;
    let mut layer_raw: Option<String> = None;
    let mut time_boundary: Option<String> = None;
    let mut ledger: Vec<String> = Vec::new();
    let mut sched_sinks: Vec<String> = Vec::new();
    let mut shard_roots: Vec<String> = Vec::new();
    let mut deps = Vec::new();
    let mut saw_package = false;

    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.starts_with('[') {
            section = match line {
                "[package]" => {
                    saw_package = true;
                    Section::Package
                }
                "[package.metadata.simlint]" => Section::Metadata,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                "[build-dependencies]" => Section::BuildDeps,
                _ => Section::Other,
            };
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            Section::Metadata => {
                if let Some(rest) = line.strip_prefix("layer") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        layer_raw = Some(v.trim().trim_matches('"').to_string());
                    }
                } else if let Some(rest) = line.strip_prefix("time_boundary") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        time_boundary = Some(v.trim().trim_matches('"').to_string());
                    }
                } else if let Some(rest) = line.strip_prefix("ledger") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        let inner = v.trim().trim_start_matches('[').trim_end_matches(']');
                        ledger = inner
                            .split(',')
                            .map(|s| s.trim().trim_matches('"').to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                    }
                } else if let Some(rest) = line.strip_prefix("sched_sinks") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        let inner = v.trim().trim_start_matches('[').trim_end_matches(']');
                        sched_sinks = inner
                            .split(',')
                            .map(|s| s.trim().trim_matches('"').to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                    }
                } else if let Some(rest) = line.strip_prefix("shard_roots") {
                    let rest = rest.trim_start();
                    if let Some(v) = rest.strip_prefix('=') {
                        let inner = v.trim().trim_start_matches('[').trim_end_matches(']');
                        shard_roots = inner
                            .split(',')
                            .map(|s| s.trim().trim_matches('"').to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                    }
                }
            }
            Section::Deps | Section::DevDeps | Section::BuildDeps => {
                // `key = …`, `key.workspace = true`, `key = { … }`.
                let key: String = line
                    .chars()
                    .take_while(|c| !matches!(c, '=' | '.' | ' ' | '\t'))
                    .collect();
                if !key.is_empty() {
                    deps.push(DepEdge {
                        to: key.trim_matches('"').to_string(),
                        line: idx + 1,
                        section: match section {
                            Section::DevDeps => "dev-dependencies",
                            Section::BuildDeps => "build-dependencies",
                            _ => "dependencies",
                        }
                        .to_string(),
                    });
                }
            }
            Section::Other => {}
        }
    }
    if !saw_package {
        return None;
    }
    let name = name?;
    let (layer, layer_raw) = match layer_raw {
        Some(raw) => match Layer::parse(&raw) {
            Some(l) => (Some(l), None),
            None => (None, Some(raw)),
        },
        None => (None, None),
    };
    Some(CrateInfo {
        name,
        manifest: manifest_rel.to_string(),
        dir: dir_rel.to_string(),
        layer,
        layer_raw,
        deps,
        time_boundary,
        ledger,
        sched_sinks,
        shard_roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &str, dir: &str, layer: &str, deps: &[&str]) -> CrateInfo {
        let text = format!(
            "[package]\nname = \"{name}\"\n\n[package.metadata.simlint]\nlayer = \"{layer}\"\n\n\
             [dependencies]\n{}",
            deps.iter()
                .map(|d| format!("{d}.workspace = true\n"))
                .collect::<String>()
        );
        parse_manifest(&text, &format!("{dir}/Cargo.toml"), dir).unwrap()
    }

    fn graph(crates: Vec<CrateInfo>) -> WorkspaceGraph {
        WorkspaceGraph {
            crates: crates.into_iter().map(|c| (c.name.clone(), c)).collect(),
        }
    }

    #[test]
    fn manifest_parsing_extracts_name_layer_and_deps() {
        let c = mk("systems", "crates/systems", "model", &["sim-core", "bytes"]);
        assert_eq!(c.name, "systems");
        assert_eq!(c.layer, Some(Layer::Model));
        let names: Vec<_> = c.deps.iter().map(|d| d.to.as_str()).collect();
        assert_eq!(names, vec!["sim-core", "bytes"]);
        assert!(c.deps[0].line > 0);
    }

    #[test]
    fn manifest_parsing_extracts_boundary_and_ledger_metadata() {
        let text = "[package]\nname = \"sim-core\"\n\n[package.metadata.simlint]\n\
                    layer = \"core\"\ntime_boundary = \"src/time.rs\"\n\
                    ledger = [\"reclaimed\", \"in_flight\"]\n";
        let c = parse_manifest(text, "crates/sim-core/Cargo.toml", "crates/sim-core").unwrap();
        assert_eq!(c.time_boundary.as_deref(), Some("src/time.rs"));
        assert_eq!(c.ledger, vec!["reclaimed", "in_flight"]);
        let plain = mk("net-wire", "crates/net-wire", "model", &[]);
        assert_eq!(plain.time_boundary, None);
        assert!(plain.ledger.is_empty());
        assert!(plain.sched_sinks.is_empty());
    }

    #[test]
    fn manifest_parsing_extracts_sched_sink_metadata() {
        let text = "[package]\nname = \"sim-core\"\n\n[package.metadata.simlint]\n\
                    layer = \"core\"\nsched_sinks = [\"push_handle\", \"schedule_far\"]\n";
        let c = parse_manifest(text, "crates/sim-core/Cargo.toml", "crates/sim-core").unwrap();
        assert_eq!(c.sched_sinks, vec!["push_handle", "schedule_far"]);
        assert!(c.shard_roots.is_empty());
    }

    #[test]
    fn manifest_parsing_extracts_shard_root_metadata() {
        let text = "[package]\nname = \"nicsched\"\n\n[package.metadata.simlint]\n\
                    layer = \"model\"\n\
                    shard_roots = [\"Dispatcher::on_request\", \"kick\"]\n";
        let c = parse_manifest(text, "crates/nicsched/Cargo.toml", "crates/nicsched").unwrap();
        assert_eq!(c.shard_roots, vec!["Dispatcher::on_request", "kick"]);
    }

    #[test]
    fn model_depending_on_harness_is_a_violation() {
        let g = graph(vec![
            mk("sim-core", "crates/sim-core", "core", &[]),
            mk(
                "systems",
                "crates/systems",
                "model",
                &["sim-core", "experiments"],
            ),
            mk(
                "experiments",
                "crates/experiments",
                "harness",
                &["sim-core"],
            ),
        ]);
        let f = g.check();
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "layer-violation");
        assert!(f[0].message.contains("experiments"), "{}", f[0].message);
        assert_eq!(f[0].file, "crates/systems/Cargo.toml");
    }

    #[test]
    fn core_depending_on_anything_internal_is_a_violation() {
        let g = graph(vec![
            mk("sim-core", "crates/sim-core", "core", &["net-wire"]),
            mk("net-wire", "crates/net-wire", "model", &[]),
        ]);
        let f = g.check();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sim-core"));
    }

    #[test]
    fn external_deps_are_not_edges() {
        let g = graph(vec![mk(
            "net-wire",
            "crates/net-wire",
            "model",
            &["bytes", "proptest"],
        )]);
        assert!(g.check().is_empty());
    }

    #[test]
    fn missing_layer_is_a_violation() {
        let text = "[package]\nname = \"mystery\"\n";
        let c = parse_manifest(text, "crates/mystery/Cargo.toml", "crates/mystery").unwrap();
        let g = graph(vec![c]);
        let f = g.check();
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no architectural layer"));
    }

    #[test]
    fn unknown_layer_is_a_violation() {
        let c = mk("odd", "crates/odd", "quantum", &[]);
        assert!(c.layer.is_none());
        let g = graph(vec![c]);
        let f = g.check();
        assert!(f[0].message.contains("quantum"));
    }

    #[test]
    fn cycles_are_violations() {
        let g = graph(vec![
            mk("a", "crates/a", "model", &["b"]),
            mk("b", "crates/b", "model", &["a"]),
        ]);
        let f = g.check();
        assert!(f.iter().any(|f| f.message.contains("cycle")), "{f:?}");
    }

    #[test]
    fn the_real_dag_shape_is_clean() {
        let g = graph(vec![
            mk("sim-core", "crates/sim-core", "core", &[]),
            mk("net-wire", "crates/net-wire", "model", &["bytes"]),
            mk(
                "nic-model",
                "crates/nic-model",
                "model",
                &["sim-core", "net-wire"],
            ),
            mk(
                "systems",
                "crates/systems",
                "model",
                &["sim-core", "nic-model"],
            ),
            mk("experiments", "crates/experiments", "harness", &["systems"]),
            mk("bench", "crates/bench", "harness", &["experiments"]),
            mk("mindgap", "", "app", &["systems", "experiments"]),
            mk("simlint", "crates/simlint", "tool", &[]),
        ]);
        assert!(g.check().is_empty(), "{:?}", g.check());
    }
}
