//! Differential test of the certified top-K pass.
//!
//! `Recommender::try_top_k` followed by `Shortlist::rank` must equal
//! `try_score_items` followed by `try_rank_candidates` bit for bit: the
//! same ids in the same order, and the same typed error. The dot-product
//! decoder (`DotScorer`) answers from an f32 copy of its item table and
//! rescores only the candidates its error bound cannot rule out, so this
//! checks that bound end to end:
//!
//! - every restorable model kind, restored from its checkpoint, and its
//!   frozen form, at k = 0, 1, 20, 50 and more than the candidates, over
//!   all items, a subset, the unseen items and no item at all (a user who
//!   has seen everything), plus an out-of-range user;
//! - exact ties (duplicate item rows) and signed zeros;
//! - NaN, ±inf, subnormal and huge entries, which take the exact path;
//! - an item pair whose f32 scores order the other way round from their
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

#[test]
fn a_rounding_reversal_keeps_the_exact_winner() {
    // Near 1, f32 values are 2^-23 apart. Item 0 rounds its first entry
    // down by 0.49 of that step and item 1 rounds its first entry up by
    // 0.49, so item 1 wins in f32 although item 0 wins in f64 by 0.02.
    let ulp = f64::from(f32::EPSILON);
    let items = vec![1.0 + 0.49 * ulp, 0.25, 1.0 + 0.51 * ulp, 0.25 - 0.04 * ulp];
    let (a, b) = (&items[..2], &items[2..]);
    let exact = |row: &[f64]| row.iter().sum::<f64>();
    let approx = |row: &[f64]| row.iter().map(|&x| x as f32).sum::<f32>();
    assert!(exact(a) > exact(b) && approx(a) < approx(b), "the pair reverses");
    let model = scorer(2, vec![1.0, 1.0], items);
    assert!(same_top_k(&model, 0, Candidates::Ids(&[0, 1]), 1));
    sweep_table(&model, 2);
}

/// A table of `n_items` rows, each a small relative perturbation of one
/// base row: f32 rounding reorders many of their scores.
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
