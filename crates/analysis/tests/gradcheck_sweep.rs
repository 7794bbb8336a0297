//! Gradient sweep: every public op in `pup_tensor::ops` and the BPR loss of
//! all six models, checked against central finite differences.
//!
//! Acceptance bar: max relative gradient error < 1e-3 per op. The op checks
//! run at the tighter default (tol 1e-4); the model losses compound several
//! ops and a graph propagation, so they use the 1e-3 bar directly.

use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_analysis::gradcheck::{gradcheck, GradcheckConfig};
use pup_models::trainer::BprModel;
use pup_models::{BprMf, DeepFm, Fm, GcMc, Ngcf, Pup, PupConfig, PupVariant, TrainData};
use pup_tensor::{ops, CsrMatrix, Matrix, Var};

fn param(rows: usize, cols: usize, seed: u64) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    Var::param(Matrix::from_fn(rows, cols, |_, _| rand::Rng::gen_range(&mut rng, -1.0..1.0)))
}

/// A parameter bounded away from zero (for kinked activations).
fn param_off_kink(rows: usize, cols: usize, seed: u64) -> Var {
    let mut rng = StdRng::seed_from_u64(seed);
    Var::param(Matrix::from_fn(rows, cols, |_, _| {
        let v: f64 = rand::Rng::gen_range(&mut rng, 0.2..1.0);
        if rand::Rng::gen_bool(&mut rng, 0.5) {
            v
        } else {
            -v
        }
    }))
}

fn check(f: impl Fn(&[Var]) -> Var, inputs: &[Var]) {
    let report = gradcheck(f, inputs, GradcheckConfig::default())
        .unwrap_or_else(|e| panic!("gradcheck failed: {e}"));
    assert!(report.max_rel_err < 1e-3, "rel err too large: {}", report.max_rel_err);
}

#[test]
fn sweep_add_sub_mul_scale() {
    let b = Var::constant(Matrix::from_fn(2, 3, |r, c| 0.4 * r as f64 - 0.1 * c as f64));
    check(|i| ops::sum(&ops::square(&ops::add(&i[0], &b))), &[param(2, 3, 1)]);
    check(|i| ops::sum(&ops::square(&ops::sub(&i[0], &b))), &[param(2, 3, 2)]);
    check(|i| ops::sum(&ops::mul(&i[0], &i[1])), &[param(2, 3, 3), param(2, 3, 4)]);
    // Aliased operands exercise the accumulate-twice path.
    check(|i| ops::sum(&ops::mul(&i[0], &i[0])), &[param(2, 3, 5)]);
    check(|i| ops::sum(&ops::scale(&i[0], -2.5)), &[param(2, 3, 6)]);
}

#[test]
fn sweep_matmul_dense_and_sparse() {
    check(
        |i| ops::sum(&ops::square(&ops::matmul(&i[0], &i[1]))),
        &[param(2, 3, 7), param(3, 2, 8)],
    );
    let a = Arc::new(CsrMatrix::from_triplets(
        3,
        4,
        &[(0, 0, 0.5), (0, 2, -0.5), (1, 1, 1.0), (2, 3, 0.25), (2, 0, 0.75)],
    ));
    check(move |i| ops::sum(&ops::square(&ops::spmm(&a, &i[0]))), &[param(4, 2, 9)]);
}

#[test]
fn sweep_activations() {
    check(|i| ops::sum(&ops::tanh(&i[0])), &[param(2, 3, 10)]);
    check(|i| ops::sum(&ops::sigmoid(&i[0])), &[param(2, 3, 11)]);
    check(|i| ops::sum(&ops::softplus(&i[0])), &[param(2, 3, 12)]);
    check(|i| ops::sum(&ops::relu(&i[0])), &[param_off_kink(2, 3, 13)]);
    check(|i| ops::sum(&ops::leaky_relu(&i[0], 0.2)), &[param_off_kink(2, 3, 14)]);
    check(|i| ops::sum(&ops::square(&i[0])), &[param(2, 3, 15)]);
}

#[test]
fn sweep_gather_and_dots() {
    check(|i| ops::sum(&ops::square(&ops::gather_rows(&i[0], &[0, 2, 2, 4]))), &[param(5, 3, 16)]);
    check(|i| ops::sum(&ops::rowwise_dot(&i[0], &i[1])), &[param(3, 4, 17), param(3, 4, 18)]);
    check(|i| ops::sum(&ops::rowwise_dot(&i[0], &i[0])), &[param(3, 4, 19)]);
    // Eq. 7 over table rows: repeated rows within a list, and a row two
    // lists share, so the gradient sums over both.
    let lists = || [vec![0, 1, 1, 2], vec![3, 3, 4, 2], vec![5, 0, 5, 5]];
    check(|i| ops::sum(&ops::square(&ops::pairwise_rows(&i[0], lists()))), &[param(6, 3, 24)]);
    check(|i| ops::sum(&ops::square(&ops::row_sums(&i[0]))), &[param(3, 4, 20)]);
}

#[test]
fn sweep_reductions() {
    check(|i| ops::sum(&ops::square(&i[0])), &[param(3, 3, 21)]);
    check(|i| ops::mean(&ops::square(&i[0])), &[param(3, 3, 22)]);
    check(|i| ops::l2_penalty(&i[0]), &[param(3, 3, 23)]);
}

#[test]
fn sweep_shape_ops() {
    check(
        |i| ops::sum(&ops::square(&ops::concat_cols(&i[0], &i[1]))),
        &[param(3, 2, 24), param(3, 3, 25)],
    );
    check(
        |i| ops::sum(&ops::square(&ops::concat_rows(&i[0], &i[1]))),
        &[param(2, 3, 26), param(3, 3, 27)],
    );
    check(|i| ops::sum(&ops::square(&ops::slice_rows(&i[0], 1, 4))), &[param(5, 3, 28)]);
    check(|i| ops::sum(&ops::square(&ops::slice_cols(&i[0], 1, 3))), &[param(3, 4, 29)]);
    check(
        |i| ops::sum(&ops::square(&ops::add_row_broadcast(&i[0], &i[1]))),
        &[param(4, 3, 30), param(1, 3, 31)],
    );
}

#[test]
fn sweep_dropout() {
    // Eval mode (p = 0): identity, gradient passes straight through.
    check(
        |i| {
            let mut rng = StdRng::seed_from_u64(0);
            ops::sum(&ops::square(&ops::dropout(&i[0], 0.0, &mut rng)))
        },
        &[param(3, 4, 32)],
    );
    // Active dropout with a re-seeded RNG: the mask is identical on every
    // evaluation, so the sampled subnetwork is deterministic and checkable.
    check(
        |i| {
            let mut rng = StdRng::seed_from_u64(99);
            ops::sum(&ops::square(&ops::dropout(&i[0], 0.4, &mut rng)))
        },
        &[param(3, 4, 33)],
    );
    // A row subset of a 7-row mask: rows 1, 4 and 6 take their mask rows.
    check(
        |i| {
            let mut rng = StdRng::seed_from_u64(99);
            ops::sum(&ops::square(&ops::dropout_rows(&i[0], 0.4, &mut rng, 7, &[1, 4, 6])))
        },
        &[param(3, 4, 34)],
    );
}

// --- Model losses ------------------------------------------------------

/// 4 users x 4 items, 2 categories, 2 price levels, with enough pairs that
/// every entity participates in the graph.
const TRAIN: [(usize, usize); 8] = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)];
const PRICE_LEVEL: [usize; 4] = [0, 1, 0, 1];
const CATEGORY: [usize; 4] = [0, 0, 1, 1];

fn train_data() -> TrainData<'static> {
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

/// Checks the full BPR loss of a model against finite differences. The
/// closure re-seeds the step RNG so repeated evaluations are identical.
fn check_model_loss<M: BprModel>(model: M) {
    let params = model.params();
    let model = RefCell::new(model);
    let users = [0usize, 1, 2, 3];
    let pos = [0usize, 1, 2, 3];
    let neg = [2usize, 3, 0, 1];
    let loss = |_: &[Var]| {
        let mut m = model.borrow_mut();
        let mut rng = StdRng::seed_from_u64(7);
        m.begin_step(&users, &pos, &neg, &mut rng);
        let s_pos = m.score_batch(&users, &pos);
        let s_neg = m.score_batch(&users, &neg);
        let margin = ops::sub(&s_pos, &s_neg);
        ops::mean(&ops::softplus(&ops::scale(&margin, -1.0)))
    };
    let report = gradcheck(loss, &params, GradcheckConfig { eps: 1e-5, tol: 1e-3 })
        .unwrap_or_else(|e| panic!("model loss gradcheck failed: {e}"));
    assert!(report.entries_checked > 0, "model exposed no parameters");
    assert!(report.max_rel_err < 1e-3, "rel err too large: {}", report.max_rel_err);
}

#[test]
fn model_loss_pup() {
    let cfg = PupConfig {
        global_dim: 4,
        category_dim: 3,
        n_layers: 1,
        dropout: 0.0,
        variant: PupVariant::Full,
        seed: 11,
        ..Default::default()
    };
    check_model_loss(Pup::new(&train_data(), cfg));
}

#[test]
fn model_loss_bprmf() {
    check_model_loss(BprMf::new(&train_data(), 4, 12));
}

#[test]
fn model_loss_fm() {
    check_model_loss(Fm::new(&train_data(), 4, 13));
}

#[test]
fn model_loss_ngcf() {
    check_model_loss(Ngcf::new(&train_data(), 4, 2, 0.0, 14));
}

#[test]
fn model_loss_gcmc() {
    check_model_loss(GcMc::new(&train_data(), 4, 0.0, 15));
}

#[test]
fn model_loss_deepfm() {
    check_model_loss(DeepFm::new(&train_data(), 4, 6, 16));
}

/// Registry honesty: `SWEPT_OPS` is a hand-written list, so nothing stops
/// it from silently drifting from reality. This test builds every public
/// op constructor under tape recording and asserts the set of recorded op
/// names equals the registry exactly — in both directions. A new op that
/// records an unlisted name fails here (add it to the sweep *and* the
/// registry); a registry entry no op produces anymore fails here too.
#[test]
fn swept_ops_registry_matches_recorded_reality() {
    use std::collections::BTreeSet;

    use pup_analysis::gradcheck::SWEPT_OPS;
    use pup_tensor::tape;

    let mut rng = StdRng::seed_from_u64(99);
    let sp = Arc::new(CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 2, 0.5), (2, 1, -1.0)]));

    tape::start_recording();
    let a = param(3, 3, 90);
    let b = param(3, 3, 91);
    let bias = param(1, 3, 92);
    let mut total = ops::sum(&ops::add(&a, &b));
    let mut absorb = |v: Var| {
        total = ops::add(&total, &ops::sum(&v));
    };
    absorb(ops::sub(&a, &b));
    absorb(ops::mul(&a, &b));
    absorb(ops::scale(&a, -0.5));
    absorb(ops::matmul(&a, &b));
    absorb(ops::spmm(&sp, &a));
    absorb(ops::tanh(&a));
    absorb(ops::sigmoid(&a));
    absorb(ops::relu(&a)); // records `leaky_relu`
    absorb(ops::leaky_relu(&a, 0.1));
    absorb(ops::square(&a));
    absorb(ops::softplus(&a));
    absorb(ops::gather_rows(&a, &[0, 2]));
    absorb(ops::rowwise_dot(&a, &b));
    absorb(ops::pairwise_rows(&a, [vec![0, 1], vec![2, 2], vec![1, 0]]));
    absorb(ops::row_sums(&a));
    absorb(ops::mean(&a)); // records `scale` + `sum`
    absorb(ops::concat_cols(&a, &b));
    absorb(ops::concat_rows(&a, &b));
    absorb(ops::slice_rows(&a, 0, 2));
    absorb(ops::slice_cols(&a, 1, 3));
    absorb(ops::add_row_broadcast(&a, &bias));
    absorb(ops::dropout(&a, 0.3, &mut rng));
    absorb(ops::dropout_rows(&a, 0.3, &mut rng, 5, &[0, 2, 4])); // records `dropout`
    absorb(ops::l2_penalty(&a)); // records `square` + `sum`
    let tape = tape::finish_recording(&total);

    let recorded: BTreeSet<&str> =
        tape.nodes.iter().filter(|n| !n.is_leaf()).map(|n| n.op).collect();
    let registry: BTreeSet<&str> = SWEPT_OPS.iter().copied().collect();
    let missing: Vec<&&str> = recorded.difference(&registry).collect();
    let phantom: Vec<&&str> = registry.difference(&recorded).collect();
    assert!(missing.is_empty(), "recorded ops absent from SWEPT_OPS: {missing:?}");
    assert!(phantom.is_empty(), "SWEPT_OPS entries no op records: {phantom:?}");
}
