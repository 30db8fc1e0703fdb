//! Integration tests over the live workspace and over throwaway fixture
//! workspaces: the merged tree must be clean, the layer-violation rule
//! must fail a workspace whose model crate depends on a harness crate,
//! stale waivers must fail the build, and the baseline gate must hold.

mod common;

use std::fs;
use std::process::Command;

use common::{repo_root, scratch_ws};
use simlint::lint_workspace;

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .output()
        .expect("run simlint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn merged_tree_is_clean_with_a_bounded_waiver_ledger() {
    let report = lint_workspace(&repo_root()).expect("lint workspace").report;
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has findings:\n{}",
        rendered.join("\n")
    );
    // The waiver ledger may only shrink: 3 waivers as of the v3
    // dataflow migration, which burned down every time-float-cast
    // waiver via the SimDuration float accessors (the `time_boundary`
    // metadata audits that one file instead). What remains: 1
    // hook-conformance on the dispatcherless resilient baseline, 2
    // shard-isolation on nicsched's write-once registries. If you
    // legitimately removed one, lower this number; never raise it.
    assert!(
        report.waivers.len() <= 3,
        "waiver ledger grew to {}: the ledger may only shrink",
        report.waivers.len()
    );
    for w in &report.waivers {
        assert!(
            w.rules == vec!["hook-conformance".to_string()]
                || w.rules == vec!["shard-isolation".to_string()],
            "unexpected waiver on the live tree: {w:?}"
        );
    }
}

#[test]
fn cli_passes_on_the_live_workspace() {
    let root = repo_root();
    let (code, out, err) = run_cli(&["--deny-all", "--root", root.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("0 finding(s)"), "{out}");
}

#[test]
fn self_lint_passes_with_zero_waivers() {
    let root = repo_root();
    let (code, out, err) = run_cli(&["--self", "--root", root.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("0 waiver(s)"), "{out}");
}

#[test]
fn model_crate_depending_on_harness_crate_fails_the_build() {
    let ws = scratch_ws(
        "layer",
        &[
            (
                "modelcrate",
                "model",
                "[dependencies]\nharnesscrate = { path = \"../harnesscrate\" }\n",
                &[("lib.rs", "#![forbid(unsafe_code)]\npub fn step() {}\n")],
            ),
            (
                "harnesscrate",
                "harness",
                "",
                &[("lib.rs", "#![forbid(unsafe_code)]\npub fn drive() {}\n")],
            ),
        ],
    );
    let (code, out, _err) = run_cli(&["--deny-all", "--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("layer-violation"), "{out}");
    assert!(out.contains("harnesscrate"), "{out}");
    fs::remove_dir_all(&ws).ok();
}

#[test]
fn crate_without_layer_metadata_fails_the_build() {
    let ws = scratch_ws(
        "nolayer",
        &[(
            "plain",
            "model",
            "",
            &[("lib.rs", "#![forbid(unsafe_code)]\npub fn ok() {}\n")],
        )],
    );
    // Strip the metadata table the helper wrote.
    let manifest = ws.join("crates/plain/Cargo.toml");
    let text = fs::read_to_string(&manifest)
        .unwrap()
        .replace("[package.metadata.simlint]\nlayer = \"model\"\n", "");
    fs::write(&manifest, text).unwrap();
    let (code, out, _err) = run_cli(&["--deny-all", "--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("declares no architectural layer"), "{out}");
    fs::remove_dir_all(&ws).ok();
}

#[test]
fn stale_waiver_fails_the_build() {
    let ws = scratch_ws(
        "stale",
        &[(
            "modelcrate",
            "model",
            "",
            &[(
                "lib.rs",
                "#![forbid(unsafe_code)]\n\
                 // simlint: allow(unordered, reason=was needed once)\npub fn clean() {}\n",
            )],
        )],
    );
    let (code, out, _err) = run_cli(&["--deny-all", "--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("stale-waiver"), "{out}");
    fs::remove_dir_all(&ws).ok();
}

#[test]
fn hazardous_model_crate_fails_with_alias_resolution() {
    let ws = scratch_ws(
        "hazard",
        &[(
            "modelcrate",
            "model",
            "",
            &[(
                "lib.rs",
                "#![forbid(unsafe_code)]\nuse std::collections::HashMap as Fast;\n\
                 pub fn t() -> Fast<u8, u8> { Fast::new() }\n",
            )],
        )],
    );
    let (code, out, _err) = run_cli(&["--deny-all", "--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("unordered"), "{out}");
    assert!(out.contains("aliasing HashMap"), "{out}");
    fs::remove_dir_all(&ws).ok();
}

#[test]
fn baseline_gate_passes_then_rejects_growth() {
    let root = repo_root();
    let baseline = root.join("SIMLINT_BASELINE.json");
    assert!(
        baseline.is_file(),
        "SIMLINT_BASELINE.json must be checked in"
    );
    let (code, out, err) = run_cli(&[
        "--root",
        root.to_str().unwrap(),
        "--compare",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("baseline gate: OK"), "{out}");

    // Tamper: a baseline allowing fewer waivers than the tree carries
    // must fail the gate (this is what catches ledger growth in CI).
    let tampered = root.join("target/simlint-scratch");
    fs::create_dir_all(&tampered).unwrap();
    let tampered = tampered.join(format!("tampered-{}.json", std::process::id()));
    fs::write(&tampered, "{\"findings\": [], \"waiver_counts\": {}}").unwrap();
    let (code, _out, err) = run_cli(&[
        "--root",
        root.to_str().unwrap(),
        "--compare",
        tampered.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "tampered baseline must fail");
    assert!(err.contains("waiver ledger grew"), "{err}");
    fs::remove_file(&tampered).ok();
}

#[test]
fn strict_gate_fails_on_unratcheted_shrinkage() {
    // A baseline carrying a finding the tree no longer has: the plain
    // gate notes the improvement and passes; `--strict` (what CI runs)
    // fails until --write-baseline re-ratchets, so the checked-in
    // ledger can never silently overstate the debt.
    let root = repo_root();
    let real = fs::read_to_string(root.join("SIMLINT_BASELINE.json")).unwrap();
    let phantom = real.replace(
        "\"findings\": [\n  ]",
        "\"findings\": [\n    {\"file\": \"crates/sim-core/src/lib.rs\", \
         \"line\": 1, \"rule\": \"unordered\"}\n  ]",
    );
    assert_ne!(phantom, real, "baseline format changed under the test");
    let dir = root.join("target/simlint-scratch");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("phantom-{}.json", std::process::id()));
    fs::write(&path, phantom).unwrap();

    let (code, out, err) = run_cli(&[
        "--root",
        root.to_str().unwrap(),
        "--compare",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "plain gate must tolerate shrinkage:\n{out}\n{err}");
    assert!(out.contains("baseline gate: OK"), "{out}");

    let (code, _out, err) = run_cli(&[
        "--root",
        root.to_str().unwrap(),
        "--compare",
        path.to_str().unwrap(),
        "--strict",
    ]);
    assert_eq!(code, 1, "strict gate must fail on shrinkage:\n{err}");
    assert!(err.contains("baseline gate (strict)"), "{err}");
    assert!(err.contains("--write-baseline"), "{err}");
    fs::remove_file(&path).ok();
}

#[test]
fn sarif_output_is_written_and_well_formed() {
    let root = repo_root();
    let dir = root.join("target/simlint-scratch");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("sarif-{}.sarif", std::process::id()));
    let (code, out, err) = run_cli(&[
        "--root",
        root.to_str().unwrap(),
        "--sarif",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    let sarif = fs::read_to_string(&path).unwrap();
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"simlint\""), "{sarif}");
    for rule in simlint::rules::RULES {
        assert!(sarif.contains(rule), "SARIF rules array missing {rule}");
    }
    fs::remove_file(&path).ok();
}

#[test]
fn list_rules_and_explain_share_one_source_of_truth() {
    let (code, out, _) = run_cli(&["--list-rules"]);
    assert_eq!(code, 0);
    for rule in simlint::rules::RULES {
        assert!(out.contains(rule), "--list-rules missing {rule}");
    }
    let (code, out, _) = run_cli(&["--explain", "stale-waiver"]);
    assert_eq!(code, 0);
    let spec = simlint::rules::spec("stale-waiver").unwrap();
    assert!(
        out.contains(spec.detail.split_whitespace().next().unwrap()),
        "{out}"
    );
    assert!(out.contains("waivable: no"), "{out}");
    let (code, _, err) = run_cli(&["--explain", "no-such-rule"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown rule"), "{err}");
}
