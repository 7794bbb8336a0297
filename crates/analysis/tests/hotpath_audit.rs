//! End-to-end checks for `audit-hotpath` over seeded scratch trees: each
//! fixture plants exactly the violation a pass exists to catch and asserts
//! the certifier reports it through the interprocedural machinery — the
//! seeded panic or lock is never in the hot root itself, so a report
//! proves the call graph carried the fact caller-ward. The real workspace
//! is covered too: it must certify clean against the committed ratchet.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use pup_analysis::hotpath::{audit_workspace, read_ratchet, update_ratchet, Pass, RATCHET_PATH};

/// Builds a scratch workspace from `(relative path, source)` pairs and
/// returns its root. Callers remove it when done.
fn seed(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("pup-hotpath-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents")).expect("mkdir");
        fs::write(&path, src).expect("write seed file");
    }
    root
}

#[test]
fn panic_two_helpers_deep_reaches_the_root() {
    let root = seed(
        "leak",
        &[(
            "crates/demo/src/lib.rs",
            concat!(
                "// pup-hot: fixture-root\n",
                "pub fn handle(x: Option<u32>) -> u32 {\n",
                "    helper_one(x)\n",
                "}\n",
                "fn helper_one(x: Option<u32>) -> u32 {\n",
                "    helper_two(x)\n",
                "}\n",
                "fn helper_two(x: Option<u32>) -> u32 {\n",
                "    x.unwrap()\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let panics: Vec<_> = report.findings.iter().filter(|f| f.pass == Pass::PanicReach).collect();
    assert_eq!(panics.len(), 1, "one leaked panic site: {:?}", report.findings);
    assert_eq!(panics[0].line, 9, "the finding points at the unwrap, not the root");
    assert!(
        panics[0].message.contains("lib::handle -> lib::helper_one -> lib::helper_two"),
        "the worklist names the full call chain: {}",
        panics[0].message
    );
}

#[test]
fn panic_behind_a_trait_method_call_is_reached() {
    let root = seed(
        "trait",
        &[(
            "crates/demo/src/lib.rs",
            concat!(
                "pub trait Scorer {\n",
                "    fn score_one(&self, item: usize) -> f64;\n",
                "}\n",
                "pub struct Risky {\n",
                "    table: Vec<f64>,\n",
                "}\n",
                "impl Scorer for Risky {\n",
                "    fn score_one(&self, item: usize) -> f64 {\n",
                "        self.table[item]\n",
                "    }\n",
                "}\n",
                "// pup-hot: fixture-root\n",
                "pub fn handle(s: &Risky) -> f64 {\n",
                "    s.score_one(0)\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let panics: Vec<_> = report.findings.iter().filter(|f| f.pass == Pass::PanicReach).collect();
    assert_eq!(panics.len(), 1, "indexing in the impl leaks: {:?}", report.findings);
    assert_eq!(panics[0].line, 9, "the site is inside the trait impl");
    assert!(
        panics[0].message.contains("Risky::score_one"),
        "the chain crosses the method-call edge: {}",
        panics[0].message
    );
}

#[test]
fn lock_in_a_helper_lands_in_the_budget() {
    let root = seed(
        "lock",
        &[(
            "crates/demo/src/lib.rs",
            concat!(
                "use std::sync::Mutex;\n",
                "// pup-hot: fixture-root\n",
                "pub fn handle(total: &Mutex<u32>, n: u32) {\n",
                "    for _ in 0..n {\n",
                "        bump(total);\n",
                "    }\n",
                "}\n",
                "fn bump(total: &Mutex<u32>) {\n",
                "    if let Ok(mut t) = total.lock() {\n",
                "        *t += 1;\n",
                "    }\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    // The lock never appears in the root's own body — only the call graph
    // connects the loop in `handle` to the `.lock()` in `bump`.
    let fixture_root =
        report.roots.iter().find(|r| r.label == "fixture-root").expect("root is discovered");
    assert_eq!(fixture_root.reachable, 2, "handle + bump");
    assert_eq!(fixture_root.locks, 1, "the helper's lock counts: {:?}", report.sites);
    assert!(
        report.sites.iter().any(|s| s.root == "fixture-root" && s.line == 9),
        "the budget names the helper's lock site: {:?}",
        report.sites
    );
}

/// Panic sites are keyed by line and lock sites by byte offset: a lock
/// whose offset equals the line of a panic site in the same file still
/// counts in the budget.
#[test]
fn a_lock_at_a_panic_lines_number_keeps_its_budget() {
    let mut src = String::from("// pup-hot: r\npub fn hh(m: M, x: X) {\nm.lock();\n");
    src.push_str(&"\n".repeat(35));
    src.push_str("x.unwrap();\n}\n");
    assert_eq!(src.find(".lock").expect("a lock"), 39, "the lock's byte offset");
    assert_eq!(src[..src.find(".unwrap").expect("a panic")].lines().count(), 39);
    let root = seed("collide", &[("crates/demo/src/lib.rs", &src)]);
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let r = report.roots.iter().find(|r| r.label == "r").expect("root is discovered");
    assert_eq!(r.locks, 1, "1 lock site(s): {:?}", report.sites);
    let panics: Vec<_> = report.findings.iter().filter(|f| f.pass == Pass::PanicReach).collect();
    assert_eq!(panics.len(), 1, "{:?}", report.findings);
    assert_eq!(panics[0].line, 39);
}

#[test]
fn ratchet_grow_fails_and_shrink_prompts() {
    let clean = concat!(
        "use std::sync::Mutex;\n",
        "// pup-hot: fixture-root\n",
        "pub fn handle(m: &Mutex<u32>) -> bool {\n",
        "    m.lock().is_ok()\n",
        "}\n",
    );
    let grown = concat!(
        "use std::sync::Mutex;\n",
        "// pup-hot: fixture-root\n",
        "pub fn handle(m: &Mutex<u32>) -> bool {\n",
        "    m.lock().is_ok() && m.lock().is_ok()\n",
        "}\n",
    );
    let root = seed("ratchet", &[("crates/demo/src/lib.rs", clean)]);

    // No ratchet + nonzero budget: the audit prompts for --update-ratchet.
    let report = audit_workspace(&root).expect("seeded tree is readable");
    assert!(
        report.findings.iter().any(|f| f.pass == Pass::Ratchet),
        "missing ratchet must prompt: {:?}",
        report.findings
    );

    // Committing the ratchet makes the same tree certify clean; it
    // carries a recorded allocation count through untouched.
    update_ratchet(&root, &report.roots).expect("ratchet writes");
    let ratchet = root.join(RATCHET_PATH);
    let written = fs::read_to_string(&ratchet).expect("ratchet reads");
    fs::write(&ratchet, written.replace("\"allocs\": 0", "\"allocs\": 7")).expect("record allocs");
    let report = audit_workspace(&root).expect("seeded tree is readable");
    assert!(report.findings.is_empty(), "committed ratchet certifies: {:?}", report.findings);

    // Growing the budget fails the gate.
    fs::write(root.join("crates/demo/src/lib.rs"), grown).expect("grow rewrite");
    let report = audit_workspace(&root).expect("seeded tree is readable");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == Pass::Ratchet && f.message.contains("lock budget grew")),
        "grow must fail: {:?}",
        report.findings
    );

    // Shrinking back below the recorded budget prompts to lock it in.
    update_ratchet(&root, &report.roots).expect("ratchet writes");
    assert_eq!(read_ratchet(&root).expect("ratchet reads")["fixture-root"], (7, 2));
    fs::write(root.join("crates/demo/src/lib.rs"), clean).expect("shrink rewrite");
    let report = audit_workspace(&root).expect("seeded tree is readable");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == Pass::Ratchet && f.message.contains("lock budget shrank")),
        "shrink must prompt: {:?}",
        report.findings
    );

    // A root the ratchet does not record prompts an update too.
    fs::write(root.join("crates/demo/src/extra.rs"), clean.replace("fixture-root", "new-root"))
        .expect("add root");
    let report = audit_workspace(&root).expect("seeded tree is readable");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == Pass::Ratchet && f.message.contains("`new-root` has no recorded")),
        "an unrecorded root must prompt: {:?}",
        report.findings
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn escape_without_a_reason_is_rejected() {
    let root = seed(
        "noreason",
        &[(
            "crates/demo/src/lib.rs",
            concat!(
                "// pup-hot: fixture-root\n",
                "pub fn handle(x: Option<u32>) -> u32 {\n",
                "    // pup-audit: allow(hotpath-panic)\n",
                "    x.unwrap()\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    assert!(
        report.findings.iter().any(|f| f.pass == Pass::Escape && f.message.contains("no reason")),
        "reasonless escape is a violation: {:?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.pass == Pass::PanicReach),
        "a reasonless escape earns no suppression — the panic site stays reported: {:?}",
        report.findings
    );
}

#[test]
fn real_workspace_certifies_clean_against_the_committed_ratchet() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&repo).expect("workspace is readable");
    assert_eq!(
        report.roots.len(),
        5,
        "serve-request, train-epoch, eval-rank, swap-request, net-conn: {:?}",
        report.roots
    );
    assert!(
        report.findings.is_empty(),
        "the workspace must certify clean; new panic sites on the hot path need a reviewed \
         escape, new locks need the ratchet story: {:?}",
        report.findings
    );
}
