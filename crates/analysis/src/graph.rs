//! Static passes over the tape IR exported by `pup_tensor::tape`.
//!
//! The models in this workspace are exactly the kind of architecture where
//! a wiring bug trains without crashing and just scores worse: PUP's
//! two-branch decoder slices embeddings column-wise, NGCF sums three
//! embedding tables, DeepFM shares field embeddings between two components.
//! A price embedding that never reaches the loss, a slice that aliases the
//! wrong columns — nothing panics, the metrics quietly degrade.
//!
//! This module audits a recorded forward pass *before* any training run
//! spends cycles. Passes:
//!
//! 1. **dead-parameter** — every registered parameter must have a
//!    gradient path to the loss root;
//! 2. **dead-subgraph** — every recorded op must reach the root;
//! 3. **shape** — re-derive each op's output shape from its inputs and op
//!    semantics, diff against the recorded shape;
//! 4. **op-coverage** — every op name on any tape, every op constructor in
//!    `crates/tensor/src/ops.rs`, and every name in
//!    [`pup_tensor::ops::BUILTIN_OPS`] must appear in the gradcheck sweep
//!    registry ([`crate::gradcheck::SWEPT_OPS`]);
//! 5. **determinism** — two same-seed forward recordings must produce
//!    identical canonical tape hashes.
//!
//! [`audit_workspace`] runs all five against all seven model types on a
//! tiny synthetic dataset; `cargo run -p pup-analysis -- audit-graph`
//! wraps it in the same exit-0/1/2 protocol as `lint`. Diagnostics are
//! file-less (`model: [pass] message`) — they describe a recorded graph,
//! not a source location.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_models::trainer::BprModel;
use pup_models::{
    BprMf, DeepFm, Fm, GcMc, Ngcf, Padq, PadqConfig, ParamRegistry, Pup, PupConfig, PupVariant,
    TrainData,
};
use pup_tensor::ops;
use pup_tensor::tape::{self, Tape};

use crate::gradcheck::SWEPT_OPS;

/// The five static passes, used to tag diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// A registered parameter has no path to the loss root.
    DeadParameter,
    /// A recorded op's output never reaches the loss root.
    DeadSubgraph,
    /// A recorded shape disagrees with the shape derived from op semantics.
    Shape,
    /// An op dodges the gradcheck sweep registry.
    OpCoverage,
    /// Two same-seed recordings produced different tapes.
    Determinism,
}

impl Pass {
    /// Stable diagnostic tag.
    pub fn name(self) -> &'static str {
        match self {
            Pass::DeadParameter => "dead-parameter",
            Pass::DeadSubgraph => "dead-subgraph",
            Pass::Shape => "shape",
            Pass::OpCoverage => "op-coverage",
            Pass::Determinism => "determinism",
        }
    }
}

/// One finding: which model's graph, which pass, what is wrong.
#[derive(Clone, Debug)]
pub struct GraphDiagnostic {
    /// Model the recorded graph belongs to (`"workspace"` for cross-model
    /// checks like the `ops.rs` registry diff).
    pub model: String,
    /// The pass that fired.
    pub pass: Pass,
    /// Human-readable description, including the offending name/op.
    pub message: String,
}

impl fmt::Display for GraphDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.model, self.pass.name(), self.message)
    }
}

/// A parameter as the auditor sees it: stable name + tape id.
#[derive(Clone, Debug)]
pub struct AuditedParam {
    /// Field-level name from the model's [`ParamRegistry`].
    pub name: String,
    /// The parameter leaf's node id.
    pub id: u64,
}

/// Ids of all nodes with a path to the root (following input edges
/// backwards from the root).
pub fn reachable_from_root(tape: &Tape) -> HashSet<u64> {
    let by_id: HashMap<u64, &[u64]> =
        tape.nodes.iter().map(|n| (n.id, n.inputs.as_slice())).collect();
    let mut reach = HashSet::new();
    let mut stack = vec![tape.root];
    while let Some(id) = stack.pop() {
        if !reach.insert(id) {
            continue;
        }
        if let Some(inputs) = by_id.get(&id) {
            stack.extend(inputs.iter().copied());
        }
    }
    reach
}

/// Pass 1: every registered parameter must be used by the forward pass and
/// reach the loss root.
pub fn check_dead_parameters(
    model: &str,
    tape: &Tape,
    params: &[AuditedParam],
) -> Vec<GraphDiagnostic> {
    let reach = reachable_from_root(tape);
    let on_tape: HashSet<u64> = tape.nodes.iter().map(|n| n.id).collect();
    let mut diags = Vec::new();
    for p in params {
        let message = if !on_tape.contains(&p.id) {
            format!("parameter `{}` is never used by the recorded forward pass", p.name)
        } else if !reach.contains(&p.id) {
            format!("parameter `{}` is used but its outputs never reach the loss root", p.name)
        } else {
            continue;
        };
        diags.push(GraphDiagnostic {
            model: model.to_string(),
            pass: Pass::DeadParameter,
            message,
        });
    }
    diags
}

/// Pass 2: every recorded non-leaf op must reach the root. (Leaves are
/// covered per-name by the dead-parameter pass; an unreachable *op* means
/// the forward pass computed something it then threw away.)
pub fn check_dead_subgraphs(model: &str, tape: &Tape) -> Vec<GraphDiagnostic> {
    let reach = reachable_from_root(tape);
    tape.nodes
        .iter()
        .filter(|n| !n.is_leaf() && !reach.contains(&n.id))
        .map(|n| GraphDiagnostic {
            model: model.to_string(),
            pass: Pass::DeadSubgraph,
            message: format!(
                "op `{}` (node {}, {}x{}) never reaches the loss root",
                n.op, n.id, n.shape.0, n.shape.1
            ),
        })
        .collect()
}

/// Pass 3: re-derive every op's output shape from its input shapes and diff
/// against the recorded shape. Ops with unknown semantics (custom ops) and
/// constraints the IR cannot express (the sparse operand of `spmm`, the
/// index list of `gather_rows`) are checked only partially; every partial
/// check is still directional (columns preserved, slices no wider than the
/// input).
pub fn check_shapes(model: &str, tape: &Tape) -> Vec<GraphDiagnostic> {
    let shape_of: HashMap<u64, (usize, usize)> =
        tape.nodes.iter().map(|n| (n.id, n.shape)).collect();
    let mut diags = Vec::new();
    let mut push = |op: &str, id: u64, message: String| {
        diags.push(GraphDiagnostic {
            model: model.to_string(),
            pass: Pass::Shape,
            message: format!("op `{op}` (node {id}): {message}"),
        });
    };
    for n in &tape.nodes {
        if n.is_leaf() {
            continue;
        }
        let inputs: Vec<(usize, usize)> =
            match n.inputs.iter().map(|i| shape_of.get(i).copied()).collect::<Option<Vec<_>>>() {
                Some(shapes) => shapes,
                None => {
                    push(n.op, n.id, "has an input id that is not on the tape".to_string());
                    continue;
                }
            };
        let got = n.shape;
        let arity_is = |k: usize| inputs.len() == k;
        let expect = |cond: bool, what: &str, diags_push: &mut dyn FnMut(String)| {
            if !cond {
                diags_push(format!(
                    "{what} (inputs {:?}, recorded output {}x{})",
                    inputs, got.0, got.1
                ));
            }
        };
        let mut fail = |msg: String| push(n.op, n.id, msg);
        match n.op {
            "add" | "sub" | "mul" => {
                expect(
                    arity_is(2) && inputs[0] == inputs[1] && got == inputs[0],
                    "elementwise op needs two equal-shape inputs and preserves the shape",
                    &mut fail,
                );
            }
            "scale" | "tanh" | "sigmoid" | "leaky_relu" | "square" | "softplus" | "dropout" => {
                expect(
                    arity_is(1) && got == inputs[0],
                    "unary op must preserve its input shape",
                    &mut fail,
                );
            }
            "matmul" => {
                expect(
                    arity_is(2) && inputs[0].1 == inputs[1].0 && got == (inputs[0].0, inputs[1].1),
                    "matmul needs (m,k)x(k,n) -> (m,n)",
                    &mut fail,
                );
            }
            // The sparse operand is not a tape node, so only the dense
            // operand constrains the output: columns are preserved.
            "spmm" => {
                expect(
                    arity_is(1) && got.1 == inputs[0].1,
                    "spmm must preserve the dense operand's column count",
                    &mut fail,
                );
            }
            // Row count equals the (unrecorded) index count; columns are
            // preserved.
            "gather_rows" => {
                expect(
                    arity_is(1) && got.1 == inputs[0].1,
                    "gather_rows must preserve the column count",
                    &mut fail,
                );
            }
            "rowwise_dot" => {
                expect(
                    arity_is(2) && inputs[0] == inputs[1] && got == (inputs[0].0, 1),
                    "rowwise_dot needs two equal-shape inputs -> (rows,1)",
                    &mut fail,
                );
            }
            "row_sums" => {
                expect(
                    arity_is(1) && got == (inputs[0].0, 1),
                    "row_sums maps (r,c) -> (r,1)",
                    &mut fail,
                );
            }
            "sum" => {
                expect(arity_is(1) && got == (1, 1), "sum reduces to a 1x1 scalar", &mut fail);
            }
            "concat_cols" => {
                expect(
                    arity_is(2)
                        && inputs[0].0 == inputs[1].0
                        && got == (inputs[0].0, inputs[0].1 + inputs[1].1),
                    "concat_cols needs equal rows, output cols = sum of input cols",
                    &mut fail,
                );
            }
            "concat_rows" => {
                expect(
                    arity_is(2)
                        && inputs[0].1 == inputs[1].1
                        && got == (inputs[0].0 + inputs[1].0, inputs[0].1),
                    "concat_rows needs equal cols, output rows = sum of input rows",
                    &mut fail,
                );
            }
            "slice_rows" => {
                expect(
                    arity_is(1) && got.1 == inputs[0].1 && got.0 <= inputs[0].0,
                    "slice_rows must preserve cols and not widen rows",
                    &mut fail,
                );
            }
            "slice_cols" => {
                expect(
                    arity_is(1) && got.0 == inputs[0].0 && got.1 <= inputs[0].1,
                    "slice_cols must preserve rows and not widen cols",
                    &mut fail,
                );
            }
            "add_row_broadcast" => {
                expect(
                    arity_is(2) && inputs[1] == (1, inputs[0].1) && got == inputs[0],
                    "add_row_broadcast needs (r,c) + (1,c) -> (r,c)",
                    &mut fail,
                );
            }
            // Custom op: semantics unknown to the auditor, nothing to derive.
            _ => {}
        }
    }
    diags
}

/// Pass 4a: every op name recorded on `tape` must be in the gradcheck sweep
/// registry (custom ops registered via `Var::custom_op` count as covered
/// only if the sweep lists them explicitly).
pub fn check_tape_op_coverage(model: &str, tape: &Tape, swept: &[&str]) -> Vec<GraphDiagnostic> {
    let mut missing: Vec<&str> = tape
        .nodes
        .iter()
        .filter(|n| !n.is_leaf())
        .map(|n| n.op)
        .filter(|op| !swept.contains(op))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    missing
        .into_iter()
        .map(|op| GraphDiagnostic {
            model: model.to_string(),
            pass: Pass::OpCoverage,
            message: format!(
                "op `{op}` appears on the tape but not in the gradcheck sweep registry"
            ),
        })
        .collect()
}

/// Pass 4b: registry diff that needs no recorded tape — every name in
/// [`ops::BUILTIN_OPS`] must be swept, and (when `ops_rs_source` is
/// available) every `Var::from_op("name", ...)` literal in
/// `crates/tensor/src/ops.rs` must match `BUILTIN_OPS` exactly, so a new op
/// constructor cannot dodge either registry.
pub fn check_registry_coverage(
    swept: &[&str],
    ops_rs_source: Option<&str>,
) -> Vec<GraphDiagnostic> {
    let mut diags = Vec::new();
    let mut push = |message: String| {
        diags.push(GraphDiagnostic {
            model: "workspace".to_string(),
            pass: Pass::OpCoverage,
            message,
        });
    };
    for op in ops::BUILTIN_OPS {
        if !swept.contains(op) {
            push(format!("built-in op `{op}` is not in the gradcheck sweep registry"));
        }
    }
    if let Some(source) = ops_rs_source {
        let scraped = scrape_from_op_names(source);
        for op in &scraped {
            if !ops::BUILTIN_OPS.contains(&op.as_str()) {
                push(format!(
                    "ops.rs constructs op `{op}` that is missing from pup_tensor::ops::BUILTIN_OPS"
                ));
            }
        }
        for op in ops::BUILTIN_OPS {
            if !scraped.iter().any(|s| s == op) {
                push(format!("BUILTIN_OPS lists `{op}` but ops.rs has no such constructor"));
            }
        }
    }
    diags
}

/// Op-name literals passed to `Var::from_op(` in `ops.rs` source text.
fn scrape_from_op_names(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = source;
    while let Some(at) = rest.find("from_op(") {
        rest = &rest[at + "from_op(".len()..];
        // The op name is the first string literal after the call opens
        // (rustfmt may put it on the next line).
        let Some(q0) = rest.find('"') else { break };
        let after = &rest[q0 + 1..];
        let Some(q1) = after.find('"') else { break };
        let name = &after[..q1];
        // Skip the declaration site (`fn from_op(`) which has no literal
        // before the next call; a name with non-identifier chars means we
        // grabbed something else — ignore it.
        if !name.is_empty()
            && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            names.push(name.to_string());
        }
        rest = &after[q1..];
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Pass 5: two same-seed recordings must hash identically.
pub fn check_determinism(model: &str, first: &Tape, second: &Tape) -> Vec<GraphDiagnostic> {
    let (a, b) = (first.canonical_hash(), second.canonical_hash());
    if a == b {
        return Vec::new();
    }
    vec![GraphDiagnostic {
        model: model.to_string(),
        pass: Pass::Determinism,
        message: format!(
            "same-seed forward passes recorded different tapes \
             (hash {a:#018x} vs {b:#018x}; {} vs {} nodes)",
            first.len(),
            second.len()
        ),
    }]
}

/// Runs the per-tape passes (1-3 and 4a) on one recorded model graph.
pub fn audit_tape(
    model: &str,
    tape: &Tape,
    params: &[AuditedParam],
    swept: &[&str],
) -> Vec<GraphDiagnostic> {
    let mut diags = check_dead_parameters(model, tape, params);
    diags.extend(check_dead_subgraphs(model, tape));
    diags.extend(check_shapes(model, tape));
    diags.extend(check_tape_op_coverage(model, tape, swept));
    diags
}

// ---------------------------------------------------------------------------
// Workspace audit driver
// ---------------------------------------------------------------------------

/// Per-model summary line for the audit report.
#[derive(Clone, Debug)]
pub struct ModelAudit {
    /// Model name.
    pub model: &'static str,
    /// Nodes on the recorded tape.
    pub nodes: usize,
    /// Registered parameters.
    pub params: usize,
}

/// Everything `audit-graph` produces.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All findings across all models and passes.
    pub diagnostics: Vec<GraphDiagnostic>,
    /// One summary entry per audited model.
    pub models: Vec<ModelAudit>,
    /// Non-finding observations (e.g. a skipped source scan).
    pub notes: Vec<String>,
}

/// 4 users x 4 items, 2 categories, 2 price levels — every entity
/// participates in the graph (mirrors the gradcheck sweep's toy dataset).
const TRAIN: [(usize, usize); 8] = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)];
const PRICE_LEVEL: [usize; 4] = [0, 1, 0, 1];
const CATEGORY: [usize; 4] = [0, 0, 1, 1];

fn toy_data() -> TrainData<'static> {
    TrainData {
        n_users: 4,
        n_items: 4,
        n_categories: 2,
        n_price_levels: 2,
        item_price_level: &PRICE_LEVEL,
        item_category: &CATEGORY,
        train: &TRAIN,
    }
}

fn audited_params(model: &impl ParamRegistry) -> Vec<AuditedParam> {
    model
        .named_params()
        .into_iter()
        .map(|p| AuditedParam { name: p.name, id: p.var.id() })
        .collect()
}

/// Records one BPR training step (sampling, both score batches, the BPR
/// loss) of `model` as a tape, mirroring how `train_bpr` drives models.
fn record_bpr_step<M: BprModel>(model: &mut M, seed: u64) -> Tape {
    let users = [0usize, 1, 2, 3];
    let pos = [0usize, 1, 2, 3];
    let neg = [2usize, 3, 0, 1];
    let mut rng = StdRng::seed_from_u64(seed);
    tape::start_recording();
    model.begin_step(&users, &pos, &neg, &mut rng);
    let s_pos = model.score_batch(&users, &pos);
    let s_neg = model.score_batch(&users, &neg);
    let margin = ops::sub(&s_pos, &s_neg);
    let loss = ops::mean(&ops::softplus(&ops::scale(&margin, -1.0)));
    tape::finish_recording(&loss)
}

fn audit_bpr_model<M: BprModel + ParamRegistry>(
    name: &'static str,
    model: &mut M,
    report: &mut AuditReport,
) {
    let params = audited_params(model);
    let tape = record_bpr_step(model, 7);
    let again = record_bpr_step(model, 7);
    report.models.push(ModelAudit { model: name, nodes: tape.len(), params: params.len() });
    report.diagnostics.extend(audit_tape(name, &tape, &params, SWEPT_OPS));
    report.diagnostics.extend(check_determinism(name, &tape, &again));
}

/// Instantiates all seven model types on the toy dataset, records their
/// training-loss graphs, and runs every pass. `root` is the workspace root,
/// used only to locate `crates/tensor/src/ops.rs` for the registry scan.
pub fn audit_workspace(root: &Path) -> AuditReport {
    let mut report = AuditReport::default();
    let data = toy_data();

    audit_bpr_model("bprmf", &mut BprMf::new(&data, 4, 12), &mut report);
    audit_bpr_model("fm", &mut Fm::new(&data, 4, 13), &mut report);
    audit_bpr_model("deepfm", &mut DeepFm::new(&data, 4, 6, 16), &mut report);
    // Non-zero dropout so the dropout op is part of the audited graphs.
    audit_bpr_model("gcmc", &mut GcMc::new(&data, 4, 0.3, 15), &mut report);
    audit_bpr_model("ngcf", &mut Ngcf::new(&data, 4, 2, 0.3, 14), &mut report);
    let pup_cfg = PupConfig {
        global_dim: 4,
        category_dim: 3,
        n_layers: 1,
        dropout: 0.3,
        variant: PupVariant::Full,
        seed: 11,
        ..Default::default()
    };
    audit_bpr_model("pup", &mut Pup::new(&data, pup_cfg), &mut report);

    // PaDQ owns its fitting procedure; record its collective-MF objective.
    let padq_cfg = PadqConfig { dim: 4, epochs: 1, batch_size: 8, seed: 17, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(padq_cfg.seed);
    let padq = Padq::init(&data, &padq_cfg, &mut rng);
    let chunk: Vec<usize> = (0..data.train.len()).collect();
    let record_padq = |padq: &Padq, seed: u64| -> Tape {
        let mut rng = StdRng::seed_from_u64(seed);
        tape::start_recording();
        let loss = padq.training_loss(&data, &chunk, &padq_cfg, &mut rng);
        tape::finish_recording(&loss)
    };
    let params = audited_params(&padq);
    let tape = record_padq(&padq, 7);
    let again = record_padq(&padq, 7);
    report.models.push(ModelAudit { model: "padq", nodes: tape.len(), params: params.len() });
    report.diagnostics.extend(audit_tape("padq", &tape, &params, SWEPT_OPS));
    report.diagnostics.extend(check_determinism("padq", &tape, &again));

    // Registry diff (pass 4b): tape-independent.
    let ops_rs = root.join("crates").join("tensor").join("src").join("ops.rs");
    let source = std::fs::read_to_string(&ops_rs).ok();
    if source.is_none() {
        report.notes.push(format!(
            "note: {} not readable; skipped the ops.rs constructor scan \
             (BUILTIN_OPS vs sweep registry still checked)",
            ops_rs.display()
        ));
    }
    report.diagnostics.extend(check_registry_coverage(SWEPT_OPS, source.as_deref()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_tensor::tape::TapeNode;
    use pup_tensor::{Matrix, Var};

    fn record_simple() -> (Tape, Var, Var) {
        let used = Var::param(Matrix::ones(2, 2));
        let unused = Var::param(Matrix::ones(2, 2));
        tape::start_recording();
        let loss = ops::sum(&ops::square(&used));
        (tape::finish_recording(&loss), used, unused)
    }

    #[test]
    fn unused_parameter_is_reported_dead() {
        let (tape, used, unused) = record_simple();
        let params = vec![
            AuditedParam { name: "used".into(), id: used.id() },
            AuditedParam { name: "unused".into(), id: unused.id() },
        ];
        let diags = check_dead_parameters("fixture", &tape, &params);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, Pass::DeadParameter);
        assert!(diags[0].message.contains("`unused`"), "got: {}", diags[0].message);
    }

    #[test]
    fn dangling_subgraph_is_reported() {
        let x = Var::param(Matrix::ones(2, 2));
        tape::start_recording();
        let _dead_end = ops::tanh(&x); // computed, then thrown away
        let loss = ops::sum(&x);
        let tape = tape::finish_recording(&loss);
        let diags = check_dead_subgraphs("fixture", &tape);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`tanh`"));
        // The parameter itself is fine: it reaches the loss.
        let params = vec![AuditedParam { name: "x".into(), id: x.id() }];
        assert!(check_dead_parameters("fixture", &tape, &params).is_empty());
    }

    #[test]
    fn consistent_recorded_graph_passes_shape_check() {
        let (tape, ..) = record_simple();
        assert!(check_shapes("fixture", &tape).is_empty());
    }

    #[test]
    fn hand_crafted_shape_mismatch_is_detected() {
        // matmul claims (2,3)x(3,4) -> (9,9): impossible.
        let tape = Tape {
            nodes: vec![
                TapeNode { id: 0, op: "leaf", inputs: vec![], shape: (2, 3), requires_grad: true },
                TapeNode { id: 1, op: "leaf", inputs: vec![], shape: (3, 4), requires_grad: true },
                TapeNode {
                    id: 2,
                    op: "matmul",
                    inputs: vec![0, 1],
                    shape: (9, 9),
                    requires_grad: true,
                },
            ],
            root: 2,
        };
        let diags = check_shapes("fixture", &tape);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, Pass::Shape);
        assert!(diags[0].message.contains("matmul"), "got: {}", diags[0].message);
    }

    #[test]
    fn unswept_op_fails_coverage() {
        let tape = Tape {
            nodes: vec![
                TapeNode { id: 0, op: "leaf", inputs: vec![], shape: (1, 1), requires_grad: true },
                TapeNode {
                    id: 1,
                    op: "mystery_op",
                    inputs: vec![0],
                    shape: (1, 1),
                    requires_grad: true,
                },
            ],
            root: 1,
        };
        let diags = check_tape_op_coverage("fixture", &tape, SWEPT_OPS);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("mystery_op"));
    }

    #[test]
    fn registry_scan_matches_builtin_ops() {
        // Run against the real ops.rs via a relative path from the
        // workspace; when the layout changes this test should move with it.
        let source = include_str!("../../tensor/src/ops.rs");
        assert!(check_registry_coverage(SWEPT_OPS, Some(source)).is_empty());
        let scraped = scrape_from_op_names(source);
        assert_eq!(scraped.len(), ops::BUILTIN_OPS.len());
    }

    #[test]
    fn registry_scan_flags_unlisted_constructor() {
        let doctored = r#"
            Var::from_op(
                "sneaky_new_op",
                value,
            )
        "#;
        let diags = check_registry_coverage(SWEPT_OPS, Some(doctored));
        assert!(diags.iter().any(|d| d.message.contains("sneaky_new_op")), "got: {diags:?}");
    }

    #[test]
    fn determinism_flags_differing_tapes() {
        let (a, ..) = record_simple();
        let x = Var::param(Matrix::ones(3, 3)); // different shape -> different hash
        tape::start_recording();
        let loss = ops::sum(&ops::square(&x));
        let b = tape::finish_recording(&loss);
        assert_eq!(check_determinism("fixture", &a, &a).len(), 0);
        assert_eq!(check_determinism("fixture", &a, &b).len(), 1);
    }
}
