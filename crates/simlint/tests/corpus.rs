//! Expected-findings goldens over the single-file fixture corpus.
//!
//! Each `tests/fixtures/corpus/<name>.rs` is linted by the full
//! [`lint_workspace`] pipeline as the only file of a one-crate
//! `layer = "model"` workspace (`ledger_*` fixtures also declare
//! `ledger = ["reclaimed"]`). The rendered findings must equal
//! `<name>.expected` line for line; an empty golden means the fixture is
//! clean. The goldens pin every finding's line, rule and message, so a
//! regression that adds, drops or rewords one anywhere fails loudly.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use simlint::lint_workspace;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus")
}

fn fixtures() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    names
}

#[test]
fn every_fixture_matches_its_expected_findings() {
    let names = fixtures();
    assert!(names.len() >= 15, "corpus shrank: {names:?}");
    let mut mismatches = Vec::new();
    for name in &names {
        let stem = name.trim_end_matches(".rs");
        let source = fs::read_to_string(corpus_dir().join(name)).unwrap();
        let extra = if stem.starts_with("ledger_") {
            "ledger = [\"reclaimed\"]\n"
        } else {
            ""
        };
        let files = [(name.as_str(), source.as_str())];
        let ws = common::scratch_ws(
            &format!("corpus-{stem}"),
            &[("corpus", "model", extra, &files)],
        );
        let outcome = lint_workspace(&ws).expect("lint fixture workspace");
        fs::remove_dir_all(&ws).ok();
        let actual: String = outcome
            .report
            .findings
            .iter()
            .map(|f| f.render() + "\n")
            .collect();
        let expected =
            fs::read_to_string(corpus_dir().join(format!("{stem}.expected"))).unwrap_or_default();
        if actual != expected {
            mismatches.push(format!(
                "{name}:\n--- expected\n{expected}--- actual\n{actual}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn every_fixture_has_an_expected_file() {
    let missing: Vec<String> = fixtures()
        .into_iter()
        .map(|n| n.trim_end_matches(".rs").to_string() + ".expected")
        .filter(|e| !corpus_dir().join(e).is_file())
        .collect();
    assert!(missing.is_empty(), "fixtures without a golden: {missing:?}");
}
