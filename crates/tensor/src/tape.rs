//! Tape IR export: record a forward pass as a flat, inspectable node list.
//!
//! The autograd tape in [`crate::autograd`] is a linked structure of
//! reference-counted [`Var`] handles, built for one purpose: walking
//! backwards to accumulate gradients. That shape is awkward for *static*
//! analysis — the graph auditor in `pup-analysis` wants to ask questions
//! like "does this parameter reach the loss?" or "is this op's output shape
//! consistent with its inputs?" without re-running anything.
//!
//! This module answers by exporting the tape as an IR: a flat `Vec` of
//! [`TapeNode`]s (op name, input ids, output shape, requires-grad flag)
//! plus the id of the root (loss) node. Recording is opt-in and scoped:
//!
//! ```
//! use pup_tensor::{Matrix, Var, ops, tape};
//!
//! let x = Var::param(Matrix::ones(2, 2));
//! tape::start_recording();
//! let loss = ops::sum(&ops::square(&x));
//! let ir = tape::finish_recording(&loss);
//! assert_eq!(ir.nodes.len(), 3); // leaf, square, sum
//! ```
//!
//! When no recording is active the hooks in [`crate::autograd`] cost one
//! thread-local flag check per op — forward/backward behavior is unchanged.
//!
//! Nodes created *before* recording started (typically parameter leaves, but
//! also any cached sub-graph) are pulled into the tape lazily the first time
//! an op consumes them. A parameter that is never touched by the recorded
//! forward pass therefore does not appear in the IR at all — which is exactly
//! the signal the dead-parameter pass keys on.
//!
//! One caveat: [`Var::from_op`] drops its parent edges when no parent
//! requires gradient (the node can never participate in backward). A
//! non-differentiable sub-graph built before recording started is thus pulled
//! in as an opaque effective leaf. Ops constructed *while* recording always
//! capture their true inputs, so model forward passes — the audit target —
//! are recorded faithfully.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

use crate::autograd::Var;
use crate::checks;
use crate::ops;

/// One node of the exported tape IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeNode {
    /// The producing [`Var`]'s unique creation id.
    pub id: u64,
    /// Op name (`"leaf"` / `"constant"` for leaves).
    pub op: &'static str,
    /// Ids of the input nodes, in argument order. Empty for leaves.
    pub inputs: Vec<u64>,
    /// Shape of the produced value.
    pub shape: (usize, usize),
    /// Whether gradients flow into this node.
    pub requires_grad: bool,
}

impl TapeNode {
    /// Whether this node is a leaf (parameter or constant).
    pub fn is_leaf(&self) -> bool {
        self.op == "leaf" || self.op == "constant"
    }
}

/// A recorded forward pass: nodes sorted by creation id, plus the root.
///
/// Fields are public so analyses and tests can construct tapes by hand
/// (e.g. to exercise a shape-checker on a deliberately inconsistent graph).
#[derive(Debug, Clone)]
pub struct Tape {
    /// All recorded nodes, sorted by ascending `id` (creation order; every
    /// node's inputs precede it).
    pub nodes: Vec<TapeNode>,
    /// Id of the root (loss) node the recording was finished on.
    pub root: u64,
}

impl Tape {
    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A content hash of the tape that is invariant to the process-global
    /// id counter: ids are remapped to dense creation-order indices before
    /// hashing, so two recordings of the same computation — even in
    /// different processes — hash equal, while any difference in op names,
    /// shapes, wiring, or gradient flags changes the hash.
    pub fn canonical_hash(&self) -> u64 {
        // Ids are unique and `nodes` is sorted by id, so a binary search
        // gives the dense index. FNV-1a, 64-bit.
        let index_of = |id: u64| -> u64 {
            match self.nodes.binary_search_by_key(&id, |n| n.id) {
                Ok(i) => i as u64,
                Err(_) => u64::MAX, // dangling reference: still hashed, still detectable
            }
        };
        fn eat(h: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for node in &self.nodes {
            h = eat(h, node.op.as_bytes());
            h = eat(h, &[0xff, u8::from(node.requires_grad)]); // 0xff: op terminator
            h = eat(h, &(node.shape.0 as u64).to_le_bytes());
            h = eat(h, &(node.shape.1 as u64).to_le_bytes());
            h = eat(h, &(node.inputs.len() as u64).to_le_bytes());
            for &input in &node.inputs {
                h = eat(h, &index_of(input).to_le_bytes());
            }
        }
        eat(h, &index_of(self.root).to_le_bytes())
    }
}

struct Recorder {
    nodes: Vec<TapeNode>,
    seen: HashSet<u64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Whether a recording is active on this thread.
pub fn is_recording() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Starts recording ops constructed on this thread into a fresh tape.
///
/// # Panics
/// Panics if a recording is already active (recordings do not nest).
pub fn start_recording() {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        assert!(slot.is_none(), "tape: start_recording() while a recording is already active");
        *slot = Some(Recorder { nodes: Vec::new(), seen: HashSet::new() });
    });
}

/// Stops recording and returns the tape, rooted at `root`.
///
/// `root` (and, if needed, its reachable ancestry) is added to the tape if
/// it was created before recording started.
///
/// # Panics
/// Panics if no recording is active.
#[expect(clippy::expect_used, reason = "the panic is this function's documented contract")]
pub fn finish_recording(root: &Var) -> Tape {
    ensure_recorded(root);
    let mut recorder = RECORDER.with(|r| {
        r.borrow_mut().take().expect("tape: finish_recording() without start_recording()")
    });
    recorder.nodes.sort_unstable_by_key(|n| n.id);
    Tape { nodes: recorder.nodes, root: root.id() }
}

/// Aborts an active recording, discarding the partial tape. No-op when no
/// recording is active (safe to call from cleanup paths).
pub fn abort_recording() {
    RECORDER.with(|r| {
        r.borrow_mut().take();
    });
}

/// Hook for [`Var`] construction sites: records `v` (with explicit `inputs`
/// ids) if a recording is active and `v` is not already on the tape.
///
/// `inputs` must be captured from the op's argument list *before* the node
/// is built, because [`Var::from_op`] drops parent edges for
/// non-differentiable results.
pub(crate) fn record_node(v: &Var, inputs: &[u64]) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            push_node(rec, v, inputs.to_vec());
        }
    });
}

/// Hook for op construction: pulls pre-existing parents (nodes created
/// before the recording started — parameters, cached constants) into the
/// tape so every edge of the recorded graph resolves.
pub(crate) fn ensure_recorded(v: &Var) {
    if !is_recording() {
        return;
    }
    // Iterative DFS; the graph is a DAG, `seen` breaks sharing.
    let mut stack = vec![v.clone()];
    while let Some(node) = stack.pop() {
        let already = RECORDER
            .with(|r| r.borrow().as_ref().map(|rec| rec.seen.contains(&node.id())).unwrap_or(true));
        if already {
            continue;
        }
        let parents = node.parents();
        let inputs: Vec<u64> = parents.iter().map(Var::id).collect();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                push_node(rec, &node, inputs);
            }
        });
        stack.extend(parents);
    }
}

fn push_node(rec: &mut Recorder, v: &Var, inputs: Vec<u64>) {
    if !rec.seen.insert(v.id()) {
        return;
    }
    rec.nodes.push(TapeNode {
        id: v.id(),
        op: v.op_name(),
        inputs,
        shape: v.shape(),
        requires_grad: v.requires_grad(),
    });
}

// ---------------------------------------------------------------------------
// Custom-op name registry
// ---------------------------------------------------------------------------

/// Names reserved for leaves; no op may use them.
const RESERVED_OPS: &[&str] = &["leaf", "constant"];

fn custom_registry() -> &'static Mutex<HashSet<&'static str>> {
    static REGISTRY: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashSet::new()))
}

/// All custom-op names seen by [`Var::custom_op`] so far in this process,
/// sorted. The graph auditor uses this to extend its op-coverage universe.
pub fn registered_custom_ops() -> Vec<&'static str> {
    let mut names: Vec<&'static str> =
        custom_registry().lock().map(|g| g.iter().copied().collect()).unwrap_or_default();
    names.sort_unstable();
    names
}

/// Validates and registers a [`Var::custom_op`] name.
///
/// Under the tape auditor (debug builds / `strict-checks`) the name must be
/// non-empty, a stable `snake_case` identifier, and must not collide with
/// the reserved leaf names or any built-in op in [`crate::ops`] — so tape
/// diffs and the op-coverage cross-check can key on names reliably.
/// Re-using the *same* name for repeated constructions of the same logical
/// op is allowed (that is what "stable" means); the registry exists so
/// analyses can enumerate every custom op the process has built.
pub(crate) fn validate_custom_op_name(op: &'static str) {
    if !checks::ENABLED {
        return;
    }
    assert!(!op.is_empty(), "custom_op: op name must be non-empty");
    assert!(
        op.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "custom_op: op name `{op}` must be a stable snake_case identifier \
         ([a-z0-9_] only) so tape diffs can key on it"
    );
    assert!(!RESERVED_OPS.contains(&op), "custom_op: op name `{op}` is reserved for leaf nodes");
    assert!(
        !ops::BUILTIN_OPS.contains(&op),
        "custom_op: op name `{op}` collides with a built-in op in pup_tensor::ops"
    );
    if let Ok(mut registry) = custom_registry().lock() {
        registry.insert(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::ops;

    #[test]
    fn recording_captures_ops_and_lazy_leaves() {
        let x = Var::param(Matrix::ones(2, 3)); // created BEFORE recording
        start_recording();
        let y = ops::square(&x);
        let loss = ops::sum(&y);
        let tape = finish_recording(&loss);
        assert_eq!(tape.nodes.len(), 3);
        assert_eq!(tape.root, loss.id());
        let ops_seen: Vec<&str> = tape.nodes.iter().map(|n| n.op).collect();
        assert_eq!(ops_seen, vec!["leaf", "square", "sum"]);
        // Edges resolve: every input id is on the tape.
        for node in &tape.nodes {
            for input in &node.inputs {
                assert!(tape.nodes.iter().any(|n| n.id == *input), "dangling input {input}");
            }
        }
        assert_eq!(tape.nodes[2].shape, (1, 1));
    }

    #[test]
    fn unused_parameters_stay_off_the_tape() {
        let used = Var::param(Matrix::ones(1, 2));
        let unused = Var::param(Matrix::ones(1, 2));
        start_recording();
        let loss = ops::sum(&used);
        let tape = finish_recording(&loss);
        assert!(tape.nodes.iter().all(|n| n.id != unused.id()));
        assert!(tape.nodes.iter().any(|n| n.id == used.id()));
    }

    #[test]
    fn no_recording_means_no_overhead_or_state() {
        assert!(!is_recording());
        let x = Var::param(Matrix::ones(1, 1));
        let _ = ops::square(&x);
        assert!(!is_recording());
    }

    #[test]
    fn canonical_hash_is_id_invariant_and_content_sensitive() {
        let build = |scale: f64| {
            let x = Var::param(Matrix::full(2, 2, 1.5));
            start_recording();
            let loss = ops::sum(&ops::scale(&x, scale));
            finish_recording(&loss)
        };
        // Same computation, different absolute ids (global counter advanced).
        let a = build(2.0);
        let b = build(2.0);
        assert_ne!(a.nodes[0].id, b.nodes[0].id, "ids should differ across recordings");
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        // Different wiring hashes differently.
        let x = Var::param(Matrix::full(2, 3, 1.5));
        start_recording();
        let loss = ops::sum(&ops::scale(&x, 2.0));
        let c = finish_recording(&loss);
        assert_ne!(a.canonical_hash(), c.canonical_hash(), "shape change must change the hash");
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_recording_panics() {
        start_recording();
        // Ensure cleanup for other tests on this thread even though this
        // test panics: the double-start panic fires before any state change.
        let result = std::panic::catch_unwind(start_recording);
        abort_recording();
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn custom_op_names_are_validated_and_registered() {
        let x = Var::param(Matrix::ones(1, 1));
        let v = Var::custom_op(
            "tape_test_custom",
            x.value_clone(),
            vec![x],
            Box::new(|g, parents| parents[0].accumulate_grad(g)),
        );
        assert_eq!(v.op_name(), "tape_test_custom");
        assert!(registered_custom_ops().contains(&"tape_test_custom"));
    }

    #[test]
    #[should_panic(expected = "collides with a built-in op")]
    fn custom_op_rejects_builtin_name() {
        let x = Var::param(Matrix::ones(1, 1));
        let _ = Var::custom_op("matmul", x.value_clone(), vec![x], Box::new(|_, _| {}));
    }

    #[test]
    #[should_panic(expected = "reserved for leaf nodes")]
    fn custom_op_rejects_reserved_name() {
        let x = Var::param(Matrix::ones(1, 1));
        let _ = Var::custom_op("leaf", x.value_clone(), vec![x], Box::new(|_, _| {}));
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn custom_op_rejects_unstable_name() {
        let x = Var::param(Matrix::ones(1, 1));
        let _ = Var::custom_op("Bad Name!", x.value_clone(), vec![x], Box::new(|_, _| {}));
    }
}
