//! Cross-crate corpus: mini-workspaces under `tests/fixtures/xcrate/`
//! exercising the interprocedural engine end to end — call chains
//! across two and three crates, SCC cycles, impl-method resolution,
//! waiver scoping of cross-file findings, and the shard-safety
//! certificate with its witness paths.

use std::path::{Path, PathBuf};
use std::process::Command;

use simlint::{lint_workspace, LintOutcome};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/xcrate")
        .join(name)
}

fn outcome(name: &str) -> LintOutcome {
    lint_workspace(&fixture(name)).expect("lint fixture")
}

/// Findings of one rule, as (file, line, message).
fn of_rule(out: &LintOutcome, rule: &str) -> Vec<(String, usize, String)> {
    out.report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line, f.message.clone()))
        .collect()
}

#[test]
fn chain2_cross_crate_flow_is_found_with_source_attached() {
    let out = outcome("chain2");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, line, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert_eq!(*line, 5, "sink line");
    assert!(msg.contains("unordered container"), "{msg}");
    assert!(msg.contains("via `pick()`"), "{msg}");
    assert!(msg.contains("event-queue sink `.schedule(..)`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:4)"), "{msg}");
}

#[test]
fn chain3_flow_resolves_through_a_wrapper_crate() {
    let out = outcome("chain3");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `relay()`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:4)"), "{msg}");
}

#[test]
fn scc_cycle_terminates_and_the_flow_still_resolves() {
    let out = outcome("scc");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `ping()`"), "{msg}");
    assert!(msg.contains("(source at crates/gen/src/lib.rs:"), "{msg}");
}

#[test]
fn method_call_resolves_to_a_foreign_impl() {
    let out = outcome("method_chain");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "{taint:?}");
    let (file, _, msg) = &taint[0];
    assert_eq!(file, "crates/engine/src/lib.rs");
    assert!(msg.contains("via `order()`"), "{msg}");
    assert!(
        msg.contains("(source at crates/sampler/src/lib.rs:"),
        "{msg}"
    );
}

#[test]
fn ordered_containers_carry_no_flow() {
    let out = outcome("clean_chain");
    assert!(of_rule(&out, "determinism-taint").is_empty());
}

#[test]
fn shard_safe_root_certifies_safe() {
    let out = outcome("shard_safe");
    let v = out.cert.crates.get("app").expect("app verdict");
    assert!(v.safe, "{v:?}");
    assert!(v.reasons.is_empty(), "{v:?}");
    assert!(of_rule(&out, "shard-cert").is_empty());
}

#[test]
fn cross_crate_static_write_is_unsafe_with_a_witness_path() {
    let out = outcome("shard_unsafe_static");
    let v = out.cert.crates.get("app").expect("app verdict");
    assert!(!v.safe, "{v:?}");
    let r = &v.reasons[0];
    assert!(
        r.detail.contains("interior-mutable static `COUNTER`"),
        "{r:?}"
    );
    assert!(r.detail.contains("crates/util/src/lib.rs"), "{r:?}");
    // The witness chain walks root → hazard, crossing the crate boundary.
    assert!(r.witness[0].contains("app::Engine::run"), "{:?}", r.witness);
    assert!(
        r.witness.last().unwrap().contains("util::bump"),
        "{:?}",
        r.witness
    );
}

#[test]
fn tls_touch_is_unsafe() {
    let out = outcome("shard_unsafe_tls");
    let v = out.cert.crates.get("app").expect("app verdict");
    assert!(!v.safe, "{v:?}");
    assert!(
        v.reasons.iter().any(|r| r.detail.contains("thread_local!")),
        "{v:?}"
    );
}

#[test]
fn ambient_rng_is_unsafe() {
    let out = outcome("shard_unsafe_rng");
    let v = out.cert.crates.get("app").expect("app verdict");
    assert!(!v.safe, "{v:?}");
    assert!(
        v.reasons.iter().any(|r| r.detail.contains("ambient RNG")),
        "{v:?}"
    );
}

#[test]
fn sink_line_waiver_suppresses_and_source_waiver_is_credited() {
    let out = outcome("waiver_sink");
    assert!(
        of_rule(&out, "determinism-taint").is_empty(),
        "suppressed at sink"
    );
    // Neither the sink-side nor the source-side waiver may rot.
    assert!(
        of_rule(&out, "stale-waiver").is_empty(),
        "{:?}",
        out.report.findings
    );
}

#[test]
fn source_only_waiver_does_not_suppress_but_is_not_stale() {
    let out = outcome("waiver_source_only");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(
        taint.len(),
        1,
        "cross-file findings are waivable at the sink only: {taint:?}"
    );
    assert_eq!(taint[0].0, "crates/engine/src/lib.rs");
    assert!(
        of_rule(&out, "stale-waiver").is_empty(),
        "{:?}",
        out.report.findings
    );
}

#[test]
fn source_waiver_is_credited_when_a_local_source_is_reported_first() {
    let out = outcome("waiver_source_shadowed");
    let taint = of_rule(&out, "determinism-taint");
    assert_eq!(taint.len(), 1, "one finding per sink: {taint:?}");
    assert_eq!(taint[0].0, "crates/engine/src/lib.rs");
    assert!(
        taint[0].2.starts_with("address-cast value flows into"),
        "{taint:?}"
    );
    // The flow through `pick()` still reaches the sink, so the waiver at
    // its source line stays live.
    assert!(
        of_rule(&out, "stale-waiver").is_empty(),
        "{:?}",
        out.report.findings
    );
}

#[test]
fn lying_shard_certificate_fails_the_gate() {
    let root = fixture("shard_unsafe_static");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args([
            "--root",
            root.to_str().unwrap(),
            "--compare-shard-cert",
            root.join("SHARD_SAFETY.json").to_str().unwrap(),
            "--strict",
        ])
        .output()
        .expect("run simlint");
    assert_ne!(
        out.status.code(),
        Some(0),
        "a safe-claiming cert over an unsafe tree must fail"
    );
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("shard"), "{text}");
}
