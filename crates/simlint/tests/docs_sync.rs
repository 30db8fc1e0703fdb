//! The rule registry has one source of truth: `simlint::rules::TABLE`.
//! `RULES.md` (included into the crate docs) and the README table are
//! generated from it; this test fails if either drifted.

use std::fs;
use std::path::Path;

use simlint::find_workspace_root;
use simlint::rules::{render_rules_doc, render_rules_table};

#[test]
fn rules_md_matches_the_table() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/rules/RULES.md");
    let on_disk = fs::read_to_string(&path).expect("RULES.md");
    assert_eq!(
        on_disk,
        render_rules_doc(),
        "RULES.md drifted from rules::TABLE; run `cargo run -p simlint -- --write-rules-doc`"
    );
}

#[test]
fn readme_table_matches_the_table() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    let begin = "<!-- simlint-rules:begin -->\n";
    let end = "<!-- simlint-rules:end -->";
    let start = readme
        .find(begin)
        .expect("README missing simlint-rules:begin marker")
        + begin.len();
    let stop = readme
        .find(end)
        .expect("README missing simlint-rules:end marker");
    assert_eq!(
        &readme[start..stop],
        render_rules_table(),
        "README rules table drifted from rules::TABLE; paste the output of \
         render_rules_table() between the markers"
    );
}

#[test]
fn every_rule_appears_in_architecture_docs() {
    // Weaker than exact sync, but keeps prose honest: each rule name is
    // at least mentioned in ARCHITECTURE.md's correctness section.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let arch = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    for rule in simlint::rules::TABLE.iter().map(|r| r.name) {
        assert!(
            arch.contains(rule),
            "ARCHITECTURE.md never mentions `{rule}`"
        );
    }
}
