//! The one scratch-workspace builder the integration tests share.

use std::fs;
use std::path::{Path, PathBuf};

use simlint::find_workspace_root;

/// One crate of a scratch workspace: (directory and package name,
/// `layer` metadata, extra manifest text appended after the metadata
/// table, files under `src/` as (file name, source)).
pub type ScratchCrate<'a> = (&'a str, &'a str, &'a str, &'a [(&'a str, &'a str)]);

pub fn repo_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

/// Build a throwaway workspace under the repo's target dir and return its
/// root. Every file is written verbatim.
pub fn scratch_ws(name: &str, crates: &[ScratchCrate]) -> PathBuf {
    let root = repo_root()
        .join("target/simlint-scratch")
        .join(format!("{name}-{}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(root.join("crates")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    )
    .unwrap();
    for (dir, layer, extra, files) in crates {
        let cdir = root.join("crates").join(dir);
        fs::create_dir_all(cdir.join("src")).unwrap();
        fs::write(
            cdir.join("Cargo.toml"),
            format!(
                "[package]\nname = \"{dir}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
                 [package.metadata.simlint]\nlayer = \"{layer}\"\n\n{extra}"
            ),
        )
        .unwrap();
        for (file, source) in *files {
            fs::write(cdir.join("src").join(file), source).unwrap();
        }
    }
    root
}
