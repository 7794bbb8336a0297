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

/// A scoring crate: a free fn, plus methods named like a local closure
/// (`rank`) and a std constructor (`new`).
const MODELS: (&str, &str) = (
    "crates/models/src/lib.rs",
    "pub fn score_all(user: u32) -> u32 {\n    user\n}\npub struct Shortlist;\nimpl Shortlist {\n    \
     pub fn new() -> Shortlist {\n        Shortlist\n    }\n    \
     pub fn rank(self) -> Vec<u32> {\n        Vec::new()\n    }\n}\n",
);

/// Audits a `crates/serve/src/locks.rs` holding `body` beside [`MODELS`],
/// after two locks `A`, `B` and a guard-returning helper `locked` (lines 1-6).
fn audit_serve(tag: &str, body: &str) -> pup_analysis::concurrency::AuditReport {
    let src = format!(
        "use std::sync::{{Mutex, MutexGuard, PoisonError}};\n\
         static A: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
         static B: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
         fn locked(m: &Mutex<Vec<u32>>) -> MutexGuard<'_, Vec<u32>> {{\n    \
         m.lock().unwrap_or_else(PoisonError::into_inner)\n}}\n{body}"
    );
    let root = seed(tag, &[MODELS, ("crates/serve/src/locks.rs", &src)]);
    let report = audit_workspace(&root).expect("seeded tree is readable");
    fs::remove_dir_all(&root).ok();
    report
}

#[test]
fn guard_across_a_scoring_call_is_flagged() {
    let report = audit_serve(
        "scoring",
        "pub fn hold() -> u32 {\n    let g = locked(&A);\n    let s = score_all(3);\n    \
         drop(g);\n    s\n}\n",
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!((f.pass, f.line), (Pass::GuardAcrossScoring, 9), "the `score_all(3)` line");
    assert!(f.message.contains("score_all"), "{}", f.message);
}

#[test]
fn a_local_closure_and_a_std_constructor_under_a_guard_are_not_scoring() {
    let report = audit_serve(
        "closure",
        "pub fn hold() -> Vec<u32> {\n    let g = locked(&A);\n    let rank = |x: u32| x + 1;\n    \
         let v = vec![rank(1)];\n    let w: Vec<u32> = Vec::new();\n    drop(g);\n    [v, w].concat()\n}\n",
    );
    assert!(report.findings.is_empty(), "neither reaches pup-models: {:?}", report.findings);
}

#[test]
fn let_bound_helper_guards_in_opposite_orders_form_a_cycle() {
    let report = audit_serve(
        "helper-cycle",
        "pub fn forward() {\n    let ga = locked(&A);\n    let gb = locked(&B);\n    \
         drop((ga, gb));\n}\n\
         pub fn backward() {\n    let gb = locked(&B);\n    let ga = locked(&A);\n    \
         drop((ga, gb));\n}\n",
    );
    assert_eq!(report.findings.len(), 1, "one deduped cycle: {:?}", report.findings);
    assert_eq!(report.findings[0].pass, Pass::LockOrder);
    assert_eq!(report.lock_edges.len(), 2, "{:?}", report.lock_edges);
}

#[test]
fn a_helper_guard_followed_by_a_method_chain_is_a_temporary() {
    let report = audit_serve(
        "temporary",
        "pub fn sizes() -> usize {\n    let n = locked(&A).len();\n    let gb = locked(&B);\n    \
         n + gb.len()\n}\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(
        report.lock_edges.is_empty(),
        "A's guard dies with its statement: {:?}",
        report.lock_edges
    );
}

#[test]
fn dropping_a_guard_ends_its_liveness() {
    let report = audit_serve(
        "dropped",
        "pub fn handoff() -> usize {\n    let ga = locked(&A);\n    let n = ga.len();\n    \
         drop(ga);\n    let gb = locked(&B);\n    n + gb.len()\n}\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.lock_edges.is_empty(), "A is released before B: {:?}", report.lock_edges);
}
