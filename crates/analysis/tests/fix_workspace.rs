//! End-to-end check of `lint --fix` (`fix::fix_workspace`) on a seeded
//! tree holding a stale name of each kind the fixer deletes: after one run
//! neither the lint nor the audits report a stale escape, no finding is
//! added, and a second run changes nothing.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::Path;

use pup_analysis::{concurrency, fix, hotpath, lint};

const SERVE: &str = "crates/serve/src/lib.rs";
const DEMO: &str = "crates/demo/src/lib.rs";

/// Findings as `(rule or pass, message)`.
type Findings = Vec<(String, String)>;

/// Every finding of the lint (strict) and both audits, split into escape
/// hygiene and the rest.
fn findings(root: &Path) -> (Findings, Findings) {
    let mut all = Findings::new();
    for d in lint::lint_workspace_with(root, true).expect("lint").diagnostics {
        all.push((d.rule.name().to_string(), d.message));
    }
    for f in concurrency::audit_workspace(root).expect("audit-concurrency").findings {
        all.push((f.pass.name().to_string(), f.message));
    }
    for f in hotpath::audit_workspace(root).expect("audit-hotpath").findings {
        all.push((f.pass.name().to_string(), f.message));
    }
    all.into_iter().partition(|(rule, _)| rule == "stale-allow" || rule == "escape")
}

#[test]
fn one_fix_run_leaves_no_stale_escape_and_a_second_changes_nothing() {
    let serve = concat!(
        "pub struct Handler {\n",
        "    // pup-audit: allow(non-send): one worker owns each handler\n",
        "    // pup-lint: allow(float-eq)\n",
        "    state: std::rc::Rc<u32>,\n",
        "}\n",
        "// pup-audit: allow(non-send): nothing here is shared\n",
        "pub fn idle() {}\n",
        "// pup-audit: allow(relaxed-handoff)\n",
        "pub fn unreviewed() {}\n",
        "pub fn close(p: f64) -> bool {\n",
        "    // pup-lint: allow(float-eq, clone-in-loop)\n",
        "    p == 0.5\n",
        "}\n",
    );
    let demo = concat!(
        "// pup-hot: fixture-root\n",
        "// pup-lint: allow(untraced-hot-root)\n",
        "pub fn handle(x: Option<u32>) -> u32 {\n",
        "    // pup-audit: allow(hotpath-panic): the caller checked it\n",
        "    x.unwrap()\n",
        "}\n",
        "pub fn cold(x: Option<u32>) -> u32 {\n",
        "    // pup-audit: allow(hotpath-panic): never on a hot path\n",
        "    x.unwrap()\n",
        "}\n",
    );
    let root = std::env::temp_dir().join(format!("pup-fix-tree-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    for (rel, src) in [(SERVE, serve), (DEMO, demo)] {
        fs::create_dir_all(root.join(rel).parent().expect("a file path")).expect("mkdir");
        fs::write(root.join(rel), src).expect("write seed file");
    }
    let (hygiene_before, before) = findings(&root);
    assert_eq!(hygiene_before.len(), 6, "{hygiene_before:?}");

    let read = |rel| fs::read_to_string(root.join(rel)).expect("read a fixed file");
    let once = fix::fix_workspace(&root).expect("first fix run");
    let (serve_fixed, demo_fixed) = (read(SERVE), read(DEMO));
    let (hygiene_after, after) = findings(&root);
    let twice = fix::fix_workspace(&root).expect("second fix run");
    let tree_twice = (read(SERVE), read(DEMO));
    fs::remove_dir_all(&root).ok();

    // The lint name goes first, so the audit escape it separated from its
    // site is live on the rewritten tree; a single pass over the original
    // tree would have deleted that escape as stale.
    assert_eq!(
        serve_fixed,
        concat!(
            "pub struct Handler {\n",
            "    // pup-audit: allow(non-send): one worker owns each handler\n",
            "    state: std::rc::Rc<u32>,\n",
            "}\n",
            "pub fn idle() {}\n",
            "// pup-audit: allow(relaxed-handoff)\n",
            "pub fn unreviewed() {}\n",
            "pub fn close(p: f64) -> bool {\n",
            "    // pup-lint: allow(float-eq)\n",
            "    p == 0.5\n",
            "}\n",
        )
    );
    assert!(!demo_fixed.contains("never on a hot path"), "{demo_fixed}");
    assert!(demo_fixed.contains("the caller checked it"), "{demo_fixed}");
    assert_eq!((once.escapes_removed, once.files_changed.len()), (4, 2));

    // Only the reasonless escape is left: it is not stale, so it stays.
    assert_eq!(hygiene_after.len(), 1, "{hygiene_after:?}");
    assert!(hygiene_after[0].1.contains("allow(relaxed-handoff)` has no reason"));
    assert!(after.iter().all(|f| before.contains(f)), "fix added a finding: {after:?}");

    assert_eq!((twice.escapes_removed, twice.files_changed.len()), (0, 0));
    assert_eq!(tree_twice, (serve_fixed, demo_fixed));
}

/// A comment holding both markers, where the `pup-audit` escape is stale
/// and the `pup-lint` list half live: the fix keeps the live `float-eq`
/// names, so it adds no finding.
#[test]
fn a_stale_marker_leaves_the_other_markers_live_names() {
    let demo = concat!(
        "pub fn close(p: f64) -> bool {\n",
        "    p == 2.5 // pup-lint: allow(float-eq, float-eq, as-cast-truncation) \
         pup-audit: allow(non-send): mixed\n",
        "}\n",
    );
    let root = std::env::temp_dir().join(format!("pup-fix-mixed-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(root.join(DEMO).parent().expect("a file path")).expect("mkdir");
    fs::write(root.join(DEMO), demo).expect("write seed file");
    let (hygiene_before, before) = findings(&root);
    let once = fix::fix_workspace(&root).expect("fix run");
    let fixed = fs::read_to_string(root.join(DEMO)).expect("read the fixed file");
    let (hygiene_after, after) = findings(&root);
    fs::remove_dir_all(&root).ok();

    assert_eq!(hygiene_before.len(), 2, "{hygiene_before:?}");
    assert_eq!(once.escapes_removed, 2);
    assert_eq!(
        fixed,
        concat!(
            "pub fn close(p: f64) -> bool {\n",
            "    p == 2.5 // pup-lint: allow(float-eq, float-eq)\n",
            "}\n",
        )
    );
    assert!(hygiene_after.is_empty(), "{hygiene_after:?}");
    assert!(after.iter().all(|f| before.contains(f)), "fix added a finding: {after:?}");
}
