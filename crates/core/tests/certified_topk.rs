//! Differential test of the certified top-K pass.
//!
//! `Recommender::try_top_k` followed by `Shortlist::rank` must equal
//! `try_score_items` followed by `try_rank_candidates` bit for bit: the
//! same ids in the same order, and the same typed error. The dot-product
//! decoder (`DotScorer`) answers from a per-row-scaled i8 copy of its item
//! table against the user's row in i16, and rescores only the candidates
//! its error bound cannot rule out, so this checks that bound end to end:
//!
//! - every restorable model kind, restored from its checkpoint, and its
//!   frozen form, at k = 0, 1, 20, 50 and more than the candidates, over
//!   all items, a subset, the unseen items and no item at all (a user who
//!   has seen everything), plus an out-of-range user;
//! - exact ties (duplicate item rows) and signed zeros;
//! - NaN, ±inf, subnormal and huge entries, and rows wider than 516,
//!   which take the exact path;
//! - item rows and user rows with one dominant entry, whose small entries
//!   round to code 0, and user codes at ±32767;
//! - an item pair whose i8 scores order the other way round from their
//!   f64 scores, and tables of near-duplicate rows, where such reversals
//!   are common;
//! - proptest-generated tables.

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pup_data::synthetic::{generate, GeneratorConfig};
use pup_eval::try_rank_candidates;
use pup_models::{
    BprMf, BprModel, BprTrainer, Candidates, DeepFm, DotScorer, Fm, GcMc, Ngcf, ParamRegistry, Pup,
    PupConfig, PupVariant, Recommender, Shortlist, TrainConfig,
};
use pup_recsys::{FitConfig, ModelKind, Pipeline};
use pup_tensor::Matrix;

/// Ranks `candidates` for `user` through the top-K entry point and through
/// the reference path, and asserts the two agree. Returns whether the
/// certified pass answered (rather than the exact path).
fn same_top_k(model: &dyn Recommender, user: usize, candidates: Candidates<'_>, k: usize) -> bool {
    let shortlist = model.try_top_k(user, candidates, k);
    let certified = shortlist.as_ref().is_ok_and(|s| s.survivors_len().is_some());
    let got = shortlist.and_then(Shortlist::rank);
    let ids: Vec<u32> = candidates.iter().collect();
    let want = model.try_score_items(user).and_then(|s| try_rank_candidates(&s, &ids, k));
    assert_eq!(got, want, "{}: user {user}, k {k}, candidates {candidates:?}", model.name());
    certified
}

/// Every user (and one out of range) at every k over four candidate sets.
/// Returns how many calls the certified pass answered.
fn sweep(model: &dyn Recommender, n_users: usize, n_items: usize, seen: &[Vec<u32>]) -> usize {
    let all: Vec<u32> = (0..n_items as u32).collect();
    let subset: Vec<u32> = all.iter().copied().filter(|i| i % 3 != 1).collect();
    let mut certified = 0;
    for user in 0..=n_users {
        let unseen =
            Candidates::Unseen { n_items, seen: seen.get(user).map_or(&[], Vec::as_slice) };
        let nothing = Candidates::Unseen { n_items, seen: &all };
        for k in [0, 1, 20, 50, n_items + 3] {
            for candidates in [Candidates::Ids(&all), Candidates::Ids(&subset), unseen, nothing] {
                certified += usize::from(same_top_k(model, user, candidates, k));
            }
        }
    }
    certified
}

fn fit_config(seed: u64) -> FitConfig {
    FitConfig {
        dim: 6,
        dropout: 0.0,
        ngcf_layers: 2,
        deepfm_hidden: 5,
        seed,
        train: TrainConfig { epochs: 1, batch_size: 32, ..Default::default() },
    }
}

/// Trains `model` for one epoch, restores it from its checkpoint as
/// `kind`, and sweeps the restored model and its frozen form. Returns the
/// certified calls of the frozen form.
fn check<M>(pipeline: &Pipeline, kind: ModelKind, cfg: &FitConfig, mut model: M) -> usize
where
    M: BprModel + ParamRegistry + Recommender,
{
    let data = pipeline.train_data();
    let (n_users, n_items) = (data.n_users, data.n_items);
    let mut trainer = BprTrainer::new(&model, n_users, n_items, data.train, &cfg.train);
    trainer.run_epoch(&mut model).expect("one epoch trains");
    model.finalize();
    let restored =
        pipeline.restore_from_checkpoint(kind, cfg, &trainer.checkpoint(&model)).expect("restores");
    let seen = pipeline.split().train_items_by_user();
    sweep(&*restored, n_users, n_items, &seen);
    sweep(&*restored.freeze(), n_users, n_items, &seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_restorable_kind_ranks_bit_for_bit(seed in 0u64..1_000, n_items in 30usize..70) {
        let dataset = generate(&GeneratorConfig {
            n_users: 16,
            n_items,
            n_categories: 3,
            n_price_levels: 4,
            n_interactions: 300,
            kcore: 0,
            seed,
            ..Default::default()
        })
        .dataset;
        let pipeline = Pipeline::new(dataset);
        let cfg = fit_config(seed);
        let data = pipeline.train_data();

        let dot = check(&pipeline, ModelKind::BprMf, &cfg, BprMf::new(&data, cfg.dim, cfg.seed));
        prop_assert!(dot > 0, "BPR-MF's frozen form never took the certified pass");
        check(&pipeline, ModelKind::Fm, &cfg, Fm::new(&data, cfg.dim, cfg.seed));
        let deepfm = DeepFm::new(&data, cfg.dim, cfg.deepfm_hidden, cfg.seed);
        check(&pipeline, ModelKind::DeepFm, &cfg, deepfm);
        let gcmc = GcMc::new(&data, cfg.dim, cfg.dropout, cfg.seed);
        prop_assert!(check(&pipeline, ModelKind::GcMc, &cfg, gcmc) > 0);
        let ngcf = Ngcf::new(&data, cfg.dim, cfg.ngcf_layers, cfg.dropout, cfg.seed);
        prop_assert!(check(&pipeline, ModelKind::Ngcf, &cfg, ngcf) > 0);
        for variant in
            [PupVariant::Full, PupVariant::PriceOnly, PupVariant::CategoryOnly, PupVariant::Bipartite]
        {
            let pup_cfg = PupConfig {
                global_dim: 8,
                category_dim: 4,
                variant,
                dropout: cfg.dropout,
                seed: cfg.seed,
                ..Default::default()
            };
            let pup = Pup::new(&data, pup_cfg.clone());
            prop_assert!(check(&pipeline, ModelKind::Pup(pup_cfg), &cfg, pup) > 0);
        }
        let itempop = pipeline.fit(ModelKind::ItemPop, &cfg);
        let seen = pipeline.split().train_items_by_user();
        sweep(&*itempop, data.n_users, data.n_items, &seen);
    }
}

/// A decoder over row-major `users` and `items` tables of width `d`.
fn scorer(d: usize, users: Vec<f64>, items: Vec<f64>) -> DotScorer {
    DotScorer::new(
        "table",
        Matrix::from_vec(users.len() / d, d, users),
        Matrix::from_vec(items.len() / d, d, items),
    )
}

/// Ranks every candidate set of [`sweep`] for every user of `model`.
fn sweep_table(model: &DotScorer, n_items: usize) -> usize {
    sweep(model, model.n_users(), n_items, &[])
}

#[test]
fn exact_ties_and_signed_zeros_rank_by_id() {
    let users = vec![1.0, 0.5, -0.0, 2.0, 0.25, -0.0, -1.0, 0.5];
    let items = vec![
        1.0, 2.0, // 0
        0.0, 0.0, // 1: a zero row
        1.0, 2.0, // 2: ties item 0
        -0.0, 0.0, // 3: signed zeros
        0.0, -0.0, // 4
        -1.0, 1.0, // 5
        1.0, 2.0, // 6: ties item 0
        -0.0, -0.0, // 7
    ];
    let model = scorer(2, users, items);
    assert!(sweep_table(&model, 8) > 0, "the certified pass never ran");
    // Zero rows have a zero-width interval; at k = 4 the k-th best lower
    // bound is theirs, so an upper bound equal to it must survive.
    let items = vec![1.0, 1.0, 0.0, 0.0, 1.0, 2.0, -0.0, 0.0, 0.0, -0.0, -1.0, 1.0, 2.0, 1.0];
    let model = scorer(2, vec![1.0, 1.0, -1.0, 0.5], items);
    let all: Vec<u32> = (0..7).collect();
    for (user, k) in (0..2).flat_map(|u| (0..=8).map(move |k| (u, k))) {
        assert!(same_top_k(&model, user, Candidates::Ids(&all), k) || k == 0);
    }
}

#[test]
fn non_finite_subnormal_and_huge_entries_take_the_exact_path() {
    let base = vec![0.5, -1.0, 2.0, 1.0, 1.0, 0.0, -0.5, 0.25, 3.0];
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -1e-310, 1e200, -1e300] {
        // In the item table: every call takes the exact path.
        let mut items = base.clone();
        items[4] = bad;
        let model = scorer(3, vec![1.0, -2.0, 0.5, 0.0, 1.0, 1.0], items);
        assert_eq!(sweep_table(&model, 3), 0, "table entry {bad}");
        // In one user's row: that user takes the exact path, the other does not.
        let model = scorer(3, vec![1.0, bad, 0.5, 0.0, 1.0, 1.0], base.clone());
        let all = [0, 1, 2];
        assert!(!same_top_k(&model, 0, Candidates::Ids(&all), 1), "user entry {bad}");
        assert!(same_top_k(&model, 1, Candidates::Ids(&all), 1), "user entry {bad}");
        sweep_table(&model, 3);
    }
    // Tiny normal entries beside ordinary ones stay on the certified pass.
    let model = scorer(2, vec![1.0, 1e-300], vec![1e-300, 1.0, 2.0, -1e-200, 1.0, 1e-250]);
    assert!(sweep_table(&model, 3) > 0);
    // A zero user row has no valid norm: the exact path.
    let model = scorer(2, vec![0.0, -0.0], vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(sweep_table(&model, 2), 0);
}

/// `row`'s i8 score against a user row of ones: `s·Σq`, with
/// `s = max|row| / 127` (in f32) and `q = round(row / s)`.
fn code_score(row: &[f64]) -> f64 {
    let scale = f64::from(row.iter().fold(0.0f64, |m, x| m.max(x.abs())) as f32 / 127.0);
    scale * row.iter().map(|x| (x / scale).round()).sum::<f64>()
}

#[test]
fn a_rounding_reversal_keeps_the_exact_winner() {
    // Both rows have scale 1/127. Item 0's second entry rounds down by
    // 0.49 of a step and item 1's rounds up by 0.49, so item 1 wins on
    // codes although item 0 wins in f64 by 0.02 of a step.
    let step = 1.0 / 127.0;
    let items = vec![1.0, 10.49 * step, 0.0, 1.0, 10.51 * step, -0.04 * step];
    let (a, b) = (&items[..3], &items[3..]);
    let exact = |row: &[f64]| row.iter().sum::<f64>();
    assert!(exact(a) > exact(b) && code_score(a) < code_score(b), "the pair reverses");
    let model = scorer(3, vec![1.0, 1.0, 1.0], items);
    assert!(same_top_k(&model, 0, Candidates::Ids(&[0, 1]), 1));
    sweep_table(&model, 2);
}

#[test]
fn a_dominant_item_entry_leaves_a_residual_the_bound_covers() {
    // Every second entry is below half a step of its row's scale
    // (0.0039 < 0.5 · 0.998 / 127), so all round to code 0, and the rows
    // differ on codes only by their first entry: item 1 wins on codes,
    // item 0 in f64. Only the residual term `t‖p‖·r_i` keeps item 0 in
    // the shortlist.
    let items = vec![
        0.998, 0.0039, // 0: 1.0019, codes 0.998
        1.0, 0.0, // 1: 1.0, codes 1.0
        0.5, 0.003, // 2
        -1.0, 0.002, // 3
    ];
    let model = scorer(2, vec![1.0, 1.0, 0.5, -2.0], items);
    assert!(same_top_k(&model, 0, Candidates::Ids(&[0, 1, 2, 3]), 1));
    assert!(sweep_table(&model, 4) > 0);
}

#[test]
fn a_dominant_user_entry_leaves_a_residual_the_bound_covers() {
    // The user's second entry is a third of a code step, so it rounds to
    // code 0. The item rows are exact multiples of their scales (no item
    // residual), and on codes item 0 (0.98438) beats item 1 (0.984375),
    // while in f64 item 1 wins by 5e-6. Only `‖ρ_u‖` keeps item 1.
    let delta = 1e-5;
    let s0 = f64::from((0.98438f64 / 127.0) as f32);
    let items = vec![127.0 * s0, 0.0, 126.0 / 128.0, 127.0 / 128.0];
    assert!(126.0 / 128.0 < 127.0 * s0 && 127.0 * s0 < 126.0 / 128.0 + delta * 127.0 / 128.0);
    let model = scorer(2, vec![1.0, delta], items);
    assert!(same_top_k(&model, 0, Candidates::Ids(&[0, 1]), 1));
    sweep_table(&model, 2);
}

#[test]
fn user_codes_at_the_limit_stay_in_range() {
    // `t = 2^-10` exactly, so the largest entries sit at ±32767·t and
    // round to codes ±32767.
    let t = 1.0 / 1024.0;
    let users =
        vec![32_767.0 * t, -32_767.0 * t, 5.0 * t, 0.3, -32_767.0 * t, 32_767.0 * t, 0.0, 1.0];
    let mut rng = StdRng::seed_from_u64(11);
    let items: Vec<f64> = (0..40 * 4).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let model = scorer(4, users, items);
    assert!(sweep_table(&model, 40) > 0);
}

#[test]
fn rows_wider_than_516_take_the_exact_path() {
    // At width 516 the largest codes give `p · q = 516·32767·127`, just
    // below 2^31; one more entry would overflow i32.
    let mut rng = StdRng::seed_from_u64(13);
    for (width, certified) in [(516, true), (517, false)] {
        let n_items = 30;
        let mut items: Vec<f64> = vec![1.0; width];
        items.extend(vec![-1.0; width]);
        items.extend((0..(n_items - 2) * width).map(|_| rng.gen_range(-1.0..1.0)));
        let mut users = vec![1.0; width];
        users.extend((0..width).map(|_| rng.gen_range(-1.0..1.0)));
        let model = scorer(width, users, items);
        assert_eq!(sweep_table(&model, n_items) > 0, certified, "width {width}");
    }
}

/// A table of `n_items` rows, each a small relative perturbation of one
/// base row: rounding to codes reorders many of their scores.
fn near_duplicates(rng: &mut StdRng, d: usize, n_items: usize, spread: f64) -> Vec<f64> {
    let base: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (0..n_items)
        .flat_map(|_| {
            base.iter().map(|&x| x * (1.0 + spread * rng.gen_range(-1.0..1.0))).collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn near_duplicate_rows_rank_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(5);
    for (d, spread) in [(1, 1e-7), (2, 1e-7), (8, 3e-8), (65, 1e-8), (65, 1e-6), (200, 1e-8)] {
        let n_items = 120;
        let users: Vec<f64> = (0..3 * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let model = scorer(d, users, near_duplicates(&mut rng, d, n_items, spread));
        assert!(sweep_table(&model, n_items) > 0, "d {d}");
    }
}

/// One random entry: mostly ordinary values over several magnitudes, with
/// exact zeros, negative zeros and tiny normal values mixed in.
fn entry(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..20) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen_range(-1.0..1.0) * 1e-200,
        _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3i32..4)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_tables_rank_bit_for_bit(
        seed in 0u64..1_000_000,
        d in 1usize..80,
        n_items in 1usize..150,
        n_users in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let users: Vec<f64> = (0..n_users * d).map(|_| entry(&mut rng)).collect();
        let mut items: Vec<f64> = Vec::with_capacity(n_items * d);
        for i in 0..n_items {
            // Some rows repeat an earlier row exactly, some nearly.
            let row: Vec<f64> = match (i, rng.gen_range(0..6)) {
                (1.., 0) => items[..d].to_vec(),
                (1.., 1) => items[..d].iter().map(|x| x * (1.0 + 1e-9 * rng.gen_range(-1.0..1.0))).collect(),
                _ => (0..d).map(|_| entry(&mut rng)).collect(),
            };
            items.extend(row);
        }
        let model = scorer(d, users, items);
        sweep_table(&model, n_items);
        let candidates: Vec<u32> = (0..n_items as u32).filter(|_| rng.gen_bool(0.7)).collect();
        for user in 0..n_users {
            for k in [1, 3, rng.gen_range(0..n_items + 2)] {
                same_top_k(&model, user, Candidates::Ids(&candidates), k);
            }
        }
    }
}
