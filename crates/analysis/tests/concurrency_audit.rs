//! End-to-end checks for `audit-concurrency` over seeded scratch trees:
//! each fixture plants exactly the hazard a pass exists to catch and
//! asserts the audit reports it (and nothing else). The real workspace is
//! covered too — it must stay clean.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use pup_analysis::concurrency::{audit_workspace, Pass};

/// Builds a scratch workspace from `(relative path, source)` pairs and
/// returns its root. Callers remove it when done.
fn seed(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("pup-audit-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents")).expect("mkdir");
        fs::write(&path, src).expect("write seed file");
    }
    root
}

#[test]
fn rc_in_a_must_be_send_crate_is_flagged() {
    let root = seed(
        "nonsend",
        &[(
            "crates/serve/src/lib.rs",
            "use std::rc::Rc;\n\npub struct Handler {\n    state: Rc<u32>,\n}\n",
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let non_send: Vec<_> = report.findings.iter().filter(|f| f.pass == Pass::NonSend).collect();
    assert_eq!(non_send.len(), 2, "use + field site: {:?}", report.findings);
    assert!(non_send.iter().any(|f| f.line == 4), "field site on line 4");
}

#[test]
fn reviewed_escape_suppresses_a_non_send_finding() {
    let root = seed(
        "escape",
        &[(
            "crates/serve/src/lib.rs",
            "pub struct Handler {\n    // pup-audit: allow(non-send): single-threaded repl \
             owns this handler\n    state: std::rc::Rc<u32>,\n}\n",
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    assert!(
        report.findings.is_empty(),
        "escape with a reason must suppress: {:?}",
        report.findings
    );
}

#[test]
fn lock_ordering_cycle_is_detected() {
    let root = seed(
        "cycle",
        &[(
            "crates/serve/src/locks.rs",
            concat!(
                "use std::sync::Mutex;\n",
                "static A: Mutex<u32> = Mutex::new(0);\n",
                "static B: Mutex<u32> = Mutex::new(0);\n",
                "pub fn forward() {\n",
                "    let ga = A.lock();\n",
                "    let gb = B.lock();\n",
                "    drop((ga, gb));\n",
                "}\n",
                "pub fn backward() {\n",
                "    let gb = B.lock();\n",
                "    let ga = A.lock();\n",
                "    drop((ga, gb));\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let cycles: Vec<_> = report.findings.iter().filter(|f| f.pass == Pass::LockOrder).collect();
    assert_eq!(cycles.len(), 1, "one deduped cycle: {:?}", report.findings);
    assert!(
        cycles[0].message.contains("locks::A") && cycles[0].message.contains("locks::B"),
        "cycle names both locks: {}",
        cycles[0].message
    );
    assert!(report.lock_edges.len() >= 2, "both orderings recorded: {:?}", report.lock_edges);
}

#[test]
fn consistent_lock_ordering_is_clean() {
    let root = seed(
        "ordered",
        &[(
            "crates/serve/src/locks.rs",
            concat!(
                "use std::sync::Mutex;\n",
                "static A: Mutex<u32> = Mutex::new(0);\n",
                "static B: Mutex<u32> = Mutex::new(0);\n",
                "pub fn one() {\n",
                "    let ga = A.lock();\n",
                "    let gb = B.lock();\n",
                "    drop((ga, gb));\n",
                "}\n",
                "pub fn two() {\n",
                "    let ga = A.lock();\n",
                "    let gb = B.lock();\n",
                "    drop((ga, gb));\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    assert!(report.findings.is_empty(), "same order everywhere: {:?}", report.findings);
}

#[test]
fn relaxed_atomic_bool_handoff_is_flagged() {
    let root = seed(
        "relaxed",
        &[(
            "crates/serve/src/flags.rs",
            concat!(
                "use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};\n",
                "static READY: AtomicBool = AtomicBool::new(false);\n",
                "static HITS: AtomicU64 = AtomicU64::new(0);\n",
                "pub fn publish() {\n",
                "    READY.store(true, Ordering::Relaxed);\n",
                "    HITS.fetch_add(1, Ordering::Relaxed);\n",
                "}\n",
            ),
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    let relaxed: Vec<_> =
        report.findings.iter().filter(|f| f.pass == Pass::RelaxedHandoff).collect();
    assert_eq!(relaxed.len(), 1, "flag the bool, not the counter: {:?}", report.findings);
    assert_eq!(relaxed[0].line, 5);
}

#[test]
fn tensor_rc_sites_produce_no_finding() {
    let root = seed(
        "tensor",
        &[(
            "crates/tensor/src/tape.rs",
            "use std::rc::Rc;\n\npub struct Tape {\n    nodes: Rc<Vec<u32>>,\n}\n",
        )],
    );
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    assert!(report.findings.is_empty(), "the tape is single-threaded: {:?}", report.findings);
}

#[test]
fn real_workspace_audit_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = audit_workspace(&root).expect("workspace is readable");
    assert!(report.files_checked > 40, "walk found too few files: {}", report.files_checked);
    assert!(
        report.findings.is_empty(),
        "workspace audit must be clean:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
