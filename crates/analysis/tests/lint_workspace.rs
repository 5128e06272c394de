//! The workspace must lint clean: this is the same check CI runs via
//! `cargo run -p analysis --bin lint`, wired into `cargo test` so a
//! violation fails the ordinary test suite too.

use std::path::PathBuf;

#[test]
fn workspace_has_no_lint_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("analysis crate lives two levels under the workspace root")
        .to_path_buf();
    let findings = analysis::lint::lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn nested_workspaces_are_not_walked() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint-nested-workspace");
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(path, text).expect("write");
    };
    let clock = "fn f() { let _t = std::time::Instant::now(); }\n";
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
    write("crates/a/src/lib.rs", clock);
    write(
        "bench/Cargo.toml",
        "[package]\nname = \"bench\"\n\n[workspace]\n",
    );
    write("bench/src/main.rs", clock);
    let files: Vec<String> = analysis::lint::lint_workspace(&root)
        .iter()
        .map(|f| f.file.display().to_string())
        .collect();
    // The member crate is linted; the tree with its own `[workspace]` is
    // not, although the root manifest declares one too.
    assert_eq!(files, ["crates/a/src/lib.rs"]);
}
