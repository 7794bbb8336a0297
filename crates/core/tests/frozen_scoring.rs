//! Differential test of the frozen scoring forms (`Recommender::freeze`)
//! on random generated datasets. For every model kind
//! `Pipeline::restore_from_checkpoint` accepts, and all four PUP variants
//! (at small dims and at the served `PupConfig::default()` dims),
//! the frozen form of a restored model must equal its `score_items` bit for
//! bit, match the trained model's `score_batch` (within 1e-12 for BPR-MF,
//! whose score is one dot product, and 1e-10 otherwise), and reject an
//! out-of-range user with `ScoreError::UserOutOfRange`; ItemPop's must
//! still score any user id.

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_ckpt::Checkpoint;
use pup_data::synthetic::{generate, GeneratorConfig};
use pup_models::{
    BprMf, BprModel, BprTrainer, DeepFm, Fm, GcMc, Ngcf, ParamRegistry, Pup, PupConfig, PupVariant,
    Recommender, ScoreError, TrainConfig,
};
use pup_recsys::{FitConfig, ModelKind, Pipeline};

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn fit_config(seed: u64) -> FitConfig {
    FitConfig {
        dim: 6,
        // Dropout off: `begin_step` then propagates exactly as `finalize`.
        dropout: 0.0,
        ngcf_layers: 2,
        deepfm_hidden: 5,
        seed,
        train: TrainConfig { epochs: 1, batch_size: 32, ..Default::default() },
    }
}

/// Trains `model` for one epoch, restores it from its checkpoint as
/// `kind`, and checks the restored model's frozen form. Returns the
/// checkpoint.
fn check<M>(pipeline: &Pipeline, kind: ModelKind, cfg: &FitConfig, mut model: M) -> Checkpoint
where
    M: BprModel + ParamRegistry + Recommender,
{
    let data = pipeline.train_data();
    let (n_users, n_items) = (data.n_users, data.n_items);
    let mut trainer = BprTrainer::new(&model, n_users, n_items, data.train, &cfg.train);
    let loss = trainer.run_epoch(&mut model).expect("one epoch trains");
    assert!(loss.is_finite());
    model.finalize();
    let ckpt = trainer.checkpoint(&model);
    let tol = if matches!(kind, ModelKind::BprMf) { 1e-12 } else { 1e-10 };
    let restored = pipeline.restore_from_checkpoint(kind, cfg, &ckpt).expect("restores");
    let frozen = restored.freeze();
    assert_eq!(frozen.name(), restored.name());
    assert_eq!(frozen.n_users(), n_users);

    let (users, items): (Vec<usize>, Vec<usize>) = ((0..n_users).collect(), (0..n_items).collect());
    model.begin_step(&users, &items, &items, &mut StdRng::seed_from_u64(0));
    for user in 0..n_users {
        let scores = frozen.score_items(user);
        assert_eq!(bits(&scores), bits(&restored.score_items(user)), "user {user}");
        let batch = model.score_batch(&vec![user; n_items], &items).value_clone();
        for (i, &s) in scores.iter().enumerate() {
            let diff = (batch.get(i, 0) - s).abs();
            assert!(diff < tol, "{} user {user} item {i}: off by {diff}", frozen.name());
        }
    }
    assert_eq!(restored.try_score_items(n_users - 1).map(|s| s.len()), Ok(n_items));
    let out_of_range = Err(ScoreError::UserOutOfRange { user: n_users, n_users });
    assert_eq!(restored.try_score_items(n_users), out_of_range);
    assert_eq!(frozen.try_score_items(n_users), out_of_range);
    ckpt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frozen_forms_match_the_reference_scoring_paths(
        seed in 0u64..1_000,
        n_users in 8usize..24,
        n_items in 8usize..24,
        n_categories in 1usize..4,
        n_price_levels in 1usize..5,
        n_interactions in 60usize..160,
        n_layers in 1usize..4,
    ) {
        let dataset = generate(&GeneratorConfig {
            n_users,
            n_items,
            n_categories,
            n_price_levels,
            n_interactions,
            kcore: 0,
            seed,
            ..Default::default()
        })
        .dataset;
        let pipeline = Pipeline::new(dataset);
        let cfg = fit_config(seed);
        let data = pipeline.train_data();

        let ckpt = check(&pipeline, ModelKind::BprMf, &cfg, BprMf::new(&data, cfg.dim, cfg.seed));
        check(&pipeline, ModelKind::Fm, &cfg, Fm::new(&data, cfg.dim, cfg.seed));
        let deepfm = DeepFm::new(&data, cfg.dim, cfg.deepfm_hidden, cfg.seed);
        check(&pipeline, ModelKind::DeepFm, &cfg, deepfm);
        check(&pipeline, ModelKind::GcMc, &cfg, GcMc::new(&data, cfg.dim, cfg.dropout, cfg.seed));
        let ngcf = Ngcf::new(&data, cfg.dim, cfg.ngcf_layers, cfg.dropout, cfg.seed);
        check(&pipeline, ModelKind::Ngcf, &cfg, ngcf);
        // Small dims, and the dims that serve (`PupConfig::default()`).
        let served = PupConfig::default();
        for (global_dim, category_dim, alpha) in
            [(5, 3, 0.7), (served.global_dim, served.category_dim, served.alpha)]
        {
            for variant in [
                PupVariant::Full,
                PupVariant::PriceOnly,
                PupVariant::CategoryOnly,
                PupVariant::Bipartite,
            ] {
                let pup_cfg = PupConfig {
                    global_dim,
                    category_dim,
                    alpha,
                    n_layers,
                    variant,
                    dropout: cfg.dropout,
                    seed: cfg.seed,
                    ..Default::default()
                };
                check(&pipeline, ModelKind::Pup(pup_cfg.clone()), &cfg, Pup::new(&data, pup_cfg));
            }
        }

        // ItemPop is fitted, not restored from parameters, and scores any user.
        let itempop = pipeline.restore_from_checkpoint(ModelKind::ItemPop, &cfg, &ckpt).expect("fits");
        let frozen = itempop.freeze();
        let reference = bits(&itempop.score_items(0));
        prop_assert_eq!(bits(&frozen.score_items(0)), reference.clone());
        for model in [&*itempop, &*frozen] {
            let anyone = model.try_score_items(usize::MAX - 1).expect("any user id scores");
            prop_assert_eq!(bits(&anyone), reference.clone());
        }
    }
}
