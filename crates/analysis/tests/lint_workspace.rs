//! End-to-end lint driver checks: the real workspace must be clean, and a
//! seeded violation in a scratch tree must be reported.

use std::fs;
use std::path::Path;

use pup_analysis::lint::{lint_workspace, Rule};

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace is readable");
    assert!(report.files_checked > 40, "walk found too few files: {}", report.files_checked);
    assert!(
        report.diagnostics.is_empty(),
        "workspace must lint clean, found:\n{}",
        report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_violation_is_reported() {
    let dir = std::env::temp_dir().join(format!("pup-lint-seed-{}", std::process::id()));
    let src = dir.join("crates/bad/src");
    fs::create_dir_all(&src).expect("temp tree");
    fs::write(src.join("lib.rs"), "pub fn f(p: f64) -> bool {\n    p == 0.5\n}\n")
        .expect("write seed file");
    let report = lint_workspace(&dir).expect("temp tree is readable");
    fs::remove_dir_all(&dir).ok();
    assert_eq!(report.files_checked, 1);
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule, Rule::FloatEq);
    assert_eq!(report.diagnostics[0].line, 2);
}
