//! Integration tests over the live workspace and over throwaway fixture
//! workspaces: the merged tree must be clean, the layer-violation rule
//! must fail a workspace whose model crate depends on a harness crate,
//! any finding must fail the run, and a malformed command line must exit
//! 2 instead of running a weaker gate.

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
fn merged_tree_is_clean() {
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
}

#[test]
fn cli_passes_on_the_live_workspace() {
    let root = repo_root();
    let (code, out, err) = run_cli(&["--root", root.to_str().unwrap()]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("0 finding(s)"), "{out}");
}

#[test]
fn a_path_flag_without_its_value_exits_2() {
    for flag in [
        "--root",
        "--out",
        "--sarif",
        "--shard-cert",
        "--compare-shard-cert",
    ] {
        // Missing at the end, or followed by another flag.
        for args in [["--json", flag], [flag, "--json"]] {
            let (code, out, err) = run_cli(&args);
            assert_eq!(code, 2, "{args:?} must not run:\n{out}");
            assert!(
                err.contains(&format!("{flag} needs a path")),
                "{args:?}: {err}"
            );
            assert!(!out.contains("finding(s)"), "{args:?} ran a lint:\n{out}");
        }
    }
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
    let (code, out, _err) = run_cli(&["--root", ws.to_str().unwrap()]);
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
    let (code, out, _err) = run_cli(&["--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("declares no architectural layer"), "{out}");
    fs::remove_dir_all(&ws).ok();
}

#[test]
fn hazardous_model_crate_fails_with_alias_resolution() {
    // The address cast hides behind a `use … as` rename in another file;
    // the taint pass resolves the call through the alias to `keys.rs`.
    let ws = scratch_ws(
        "hazard",
        &[(
            "modelcrate",
            "model",
            "",
            &[
                (
                    "lib.rs",
                    "#![forbid(unsafe_code)]\nmod keys;\nuse keys::addr as stable_key;\n\
                     pub struct S { q: Q }\n\
                     impl S { pub fn go(&mut self, t: &u8) { self.q.schedule(stable_key(t)); } }\n",
                ),
                (
                    "keys.rs",
                    "pub fn addr(t: &u8) -> u64 { t as *const u8 as u64 }\n",
                ),
            ],
        )],
    );
    let (code, out, _err) = run_cli(&["--root", ws.to_str().unwrap()]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(out.contains("determinism-taint"), "{out}");
    assert!(
        out.contains("(source at crates/modelcrate/src/keys.rs:1)"),
        "{out}"
    );
    fs::remove_dir_all(&ws).ok();
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
    for rule in simlint::rules::TABLE.iter().map(|r| r.name) {
        assert!(sarif.contains(rule), "SARIF rules array missing {rule}");
    }
    fs::remove_file(&path).ok();
}

#[test]
fn list_rules_and_explain_share_one_source_of_truth() {
    let (code, out, _) = run_cli(&["--list-rules"]);
    assert_eq!(code, 0);
    for rule in simlint::rules::TABLE.iter().map(|r| r.name) {
        assert!(out.contains(rule), "--list-rules missing {rule}");
    }
    let (code, out, _) = run_cli(&["--explain", "determinism-taint"]);
    assert_eq!(code, 0);
    let spec = simlint::rules::spec("determinism-taint").unwrap();
    assert!(
        out.contains(spec.detail.split_whitespace().next().unwrap()),
        "{out}"
    );
    assert!(
        out.contains(&format!("  scope:    {}", spec.scope)),
        "{out}"
    );
    let (code, _, err) = run_cli(&["--explain", "no-such-rule"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown rule"), "{err}");
}
