//! Integration tests for the tape-IR exporter and computation-graph
//! auditor: a golden snapshot of PUP's recorded training-loss graph, a
//! seeded disconnected-parameter fixture that must fail the dead-parameter
//! pass, a hand-built shape-mismatch tape, and the end-to-end
//! `audit_workspace` run that backs `cargo run -p pup-analysis -- audit-graph`.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use pup_analysis::graph::{self, check_dead_parameters, check_shapes, AuditedParam, Pass};
use pup_models::trainer::BprModel;
use pup_models::{ParamRegistry, Pup, PupConfig, PupVariant, TrainData};
use pup_tensor::tape::{self, Tape, TapeNode};
use pup_tensor::{ops, Matrix, Var};

/// Same toy dataset the auditor uses: 4 users x 4 items, 2 categories,
/// 2 price levels, every entity on the graph.
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

/// Mirrors the auditor's recording protocol: one BPR step (sampling, both
/// score batches, softplus margin loss) under a fixed-seed RNG.
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

fn pup_config() -> PupConfig {
    PupConfig {
        global_dim: 4,
        category_dim: 3,
        n_layers: 1,
        dropout: 0.3,
        variant: PupVariant::Full,
        seed: 11,
        ..Default::default()
    }
}

/// Golden snapshot: PUP's recorded training-loss graph on the fixed-seed
/// toy dataset has a stable node count, parameter count, and canonical
/// hash. If a refactor changes the forward pass's structure, this test
/// fails and the literals below must be re-derived (run
/// `cargo run -p pup-analysis -- audit-graph` and inspect).
#[test]
fn pup_tape_golden_snapshot() {
    let data = toy_data();
    let mut model = Pup::new(&data, pup_config());
    let params = model.named_params();
    assert_eq!(params.len(), 2, "PUP registers global.emb + category.emb");

    let tape = record_bpr_step(&mut model, 7);
    assert_eq!(tape.len(), 21, "PUP training-loss graph node count changed");

    // Both parameters appear as requires-grad leaves on the tape.
    for p in &params {
        let node = tape
            .nodes
            .iter()
            .find(|n| n.id == p.var.id())
            .unwrap_or_else(|| panic!("parameter `{}` missing from the tape", p.name));
        assert!(node.is_leaf(), "parameter `{}` must be a leaf node", p.name);
        assert!(node.requires_grad, "parameter `{}` must require grad", p.name);
    }

    // Same seed, same graph: the canonical hash is reproducible.
    let again = record_bpr_step(&mut model, 7);
    assert_eq!(tape.canonical_hash(), again.canonical_hash());

    // Different sampling seed still yields the same *structure* (the toy
    // batch is fixed; only dropout masks differ, and masks are values, not
    // structure).
    let other_seed = record_bpr_step(&mut model, 8);
    assert_eq!(tape.len(), other_seed.len());
}

/// A seeded fixture with a parameter that never joins the forward pass:
/// the dead-parameter pass must name it.
#[test]
fn disconnected_parameter_fails_dead_parameter_pass() {
    let mut rng = StdRng::seed_from_u64(42);
    let used = Var::param(Matrix::from_fn(4, 2, |_, _| rng.gen_range(-0.1..0.1)));
    let orphan = Var::param(Matrix::from_fn(4, 2, |_, _| rng.gen_range(-0.1..0.1)));

    tape::start_recording();
    let loss = ops::sum(&ops::square(&used));
    let tape = tape::finish_recording(&loss);

    let params = [
        AuditedParam { name: "used.emb".into(), id: used.id() },
        AuditedParam { name: "orphan.emb".into(), id: orphan.id() },
    ];
    let diags = check_dead_parameters("fixture", &tape, &params);
    assert_eq!(diags.len(), 1, "exactly the orphan must be flagged: {diags:?}");
    assert_eq!(diags[0].pass, Pass::DeadParameter);
    assert!(
        diags[0].message.contains("orphan.emb"),
        "diagnostic must name the dead parameter: {}",
        diags[0].message
    );
    assert_eq!(diags[0].pass.name(), "dead-parameter");
}

/// A hand-built tape whose recorded matmul shape contradicts its inputs:
/// the shape pass must flag the node.
#[test]
fn shape_mismatch_fails_shape_pass() {
    let tape = Tape {
        nodes: vec![
            TapeNode { id: 1, op: "leaf", inputs: vec![], shape: (2, 3), requires_grad: true },
            TapeNode { id: 2, op: "leaf", inputs: vec![], shape: (3, 4), requires_grad: false },
            TapeNode {
                id: 3,
                op: "matmul",
                inputs: vec![1, 2],
                shape: (9, 9),
                requires_grad: true,
            },
        ],
        root: 3,
    };
    let diags = check_shapes("fixture", &tape);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, Pass::Shape);
    assert!(diags[0].message.contains("matmul"), "{}", diags[0].message);
}

/// End-to-end: the full workspace audit (the same call the
/// `audit-graph` subcommand makes) is clean for all seven models.
#[test]
fn workspace_audit_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = graph::audit_workspace(&root);
    assert!(report.diagnostics.is_empty(), "audit-graph must be clean: {:?}", report.diagnostics);
    assert_eq!(report.models.len(), 7, "all seven models audited");
    for m in &report.models {
        assert!(m.nodes > 0, "{} recorded an empty tape", m.model);
        assert!(m.params > 0, "{} registered no parameters", m.model);
    }
    assert!(report.notes.is_empty(), "ops.rs must be readable from the workspace root");
}
