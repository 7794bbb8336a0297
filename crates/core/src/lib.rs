//! # pup-recsys
//!
//! Public facade of the PUP reproduction (*Price-aware Recommendation with
//! Graph Convolutional Networks*, ICDE 2020): one entry point that wires
//! datasets → temporal split → model training → ranking evaluation.
//!
//! ```
//! use pup_recsys::prelude::*;
//!
//! // A small synthetic price-aware dataset and the paper's 60/20/20 split.
//! let synth = pup_data::synthetic::generate(&GeneratorConfig {
//!     n_users: 60, n_items: 80, n_categories: 6, n_price_levels: 4,
//!     n_interactions: 2_500, kcore: 2, seed: 7, ..Default::default()
//! });
//! let pipeline = Pipeline::new(synth.dataset);
//!
//! // Train PUP and a baseline, then compare Recall/NDCG.
//! let cfg = FitConfig { train: TrainConfig { epochs: 4, ..Default::default() }, ..Default::default() };
//! let pup = pipeline.fit(ModelKind::Pup(PupConfig::default()), &cfg);
//! let pop = pipeline.fit(ModelKind::ItemPop, &cfg);
//! let report = pipeline.evaluate(pup.as_ref(), &[20]);
//! let baseline = pipeline.evaluate(pop.as_ref(), &[20]);
//! assert_eq!(report.at_k.len(), 1);
//! assert_eq!(baseline.model, "ItemPop");
//! ```

use std::path::Path;

use pup_data::split::{temporal_split, SplitRatios};
use pup_data::{Dataset, Split};
use pup_eval::{evaluate, evaluate_users, MetricReport};
use pup_models::common::ParamRegistry;
use pup_models::{
    train_bpr, train_bpr_resilient, BprMf, BprModel, DeepFm, Fm, GcMc, ItemPop, Ngcf, Padq,
    PadqConfig, Pup, PupConfig, Recommender, RecoveryPolicy, TrainConfig, TrainData, TrainError,
    TrainStats,
};

/// Commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use crate::{EarlyStopping, FitConfig, ModelKind, Pipeline, ValidationHistory};
    pub use pup_data::synthetic::{amazon_like, beibei_like, yelp_like, GeneratorConfig};
    pub use pup_data::{Dataset, Quantization, Split, SplitRatios};
    pub use pup_eval::{ColdStartProtocol, MetricPair, MetricReport, Table};
    pub use pup_models::{
        PupConfig, PupVariant, Recommender, RecoveryPolicy, TrainConfig, TrainError,
    };
}

/// Which model to fit (paper Table II rows plus the PUP ablations).
#[derive(Clone, Debug)]
pub enum ModelKind {
    /// Popularity baseline.
    ItemPop,
    /// BPR matrix factorization.
    BprMf,
    /// Collective MF with price matrices.
    Padq,
    /// Factorization Machine with price/category features.
    Fm,
    /// DeepFM.
    DeepFm,
    /// GC-MC on the bipartite graph.
    GcMc,
    /// NGCF with price-augmented item inputs.
    Ngcf,
    /// PUP (any [`PupConfig`], including ablation variants).
    Pup(PupConfig),
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::ItemPop => "ItemPop",
            ModelKind::BprMf => "BPR-MF",
            ModelKind::Padq => "PaDQ",
            ModelKind::Fm => "FM",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::GcMc => "GC-MC",
            ModelKind::Ngcf => "NGCF",
            ModelKind::Pup(_) => "PUP",
        }
    }

    /// All baseline kinds of Table II in paper order (PUP excluded).
    pub fn table2_baselines() -> Vec<ModelKind> {
        vec![
            ModelKind::ItemPop,
            ModelKind::BprMf,
            ModelKind::Padq,
            ModelKind::Fm,
            ModelKind::DeepFm,
            ModelKind::GcMc,
            ModelKind::Ngcf,
        ]
    }
}

/// Shared fitting hyperparameters (paper §V-A3: embedding size 64 for every
/// model; the GNN baselines add dropout and layer counts).
#[derive(Clone, Debug)]
pub struct FitConfig {
    /// Total embedding dimension for every model (paper: 64).
    pub dim: usize,
    /// BPR training hyperparameters.
    pub train: TrainConfig,
    /// Feature dropout for the GNN models.
    pub dropout: f64,
    /// Propagation layers for NGCF.
    pub ngcf_layers: usize,
    /// MLP width for DeepFM.
    pub deepfm_hidden: usize,
    /// Parameter-init seed.
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            train: TrainConfig::default(),
            dropout: 0.1,
            ngcf_layers: 2,
            deepfm_hidden: 64,
            seed: 7,
        }
    }
}

/// Early-stopping policy for [`Pipeline::fit_with_early_stopping`].
#[derive(Clone, Debug)]
pub struct EarlyStopping {
    /// Validation metric cutoff (Recall@k).
    pub k: usize,
    /// Check the validation metric every this many epochs.
    pub check_every: usize,
    /// Stop after this many consecutive non-improving checks.
    pub patience: usize,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        Self { k: 50, check_every: 5, patience: 3 }
    }
}

/// Telemetry from a validated training run.
#[derive(Clone, Debug, Default)]
pub struct ValidationHistory {
    /// Mean BPR loss per completed epoch.
    pub epoch_losses: Vec<f64>,
    /// `(epoch, validation recall)` at each check.
    pub validation_recalls: Vec<(usize, f64)>,
    /// Best validation recall (the restored parameters').
    pub best_recall: f64,
    /// Whether patience ran out before the epoch budget.
    pub stopped_early: bool,
}

/// A dataset with its temporal split: the unit every experiment runs on.
pub struct Pipeline {
    dataset: Dataset,
    split: Split,
}

/// Unwraps a training result for the infallible `fit` facade, pointing the
/// caller at the recoverable alternative.
fn must_train(result: Result<TrainStats, TrainError>) -> TrainStats {
    match result {
        Ok(stats) => stats,
        Err(e) => panic!(
            "model training failed: {e}; use Pipeline::fit_checkpointed for \
             checkpointing and divergence recovery"
        ),
    }
}

/// `pup_cfg` with the dropout and seed of `cfg`, which every fitting and
/// restore path gives PUP.
fn fit_pup_config(pup_cfg: PupConfig, cfg: &FitConfig) -> PupConfig {
    PupConfig { dropout: cfg.dropout, seed: cfg.seed, ..pup_cfg }
}

/// A model the shared BPR trainer fits, checkpoints and restores.
trait Trainable: BprModel + ParamRegistry + Recommender {}

impl<M: BprModel + ParamRegistry + Recommender> Trainable for M {}

/// What [`Pipeline::untrained`] builds for a [`ModelKind`].
enum Untrained {
    /// A model with its own fitting procedure, already fitted (ItemPop, PaDQ).
    Fitted(Box<dyn Recommender>),
    /// A freshly initialized model for the BPR trainer.
    Bpr(Box<dyn Trainable>),
}

impl Pipeline {
    /// Splits the dataset 60/20/20 by time (paper §V-A1).
    pub fn new(dataset: Dataset) -> Self {
        Self::with_ratios(dataset, SplitRatios::PAPER)
    }

    /// Splits with explicit ratios.
    pub fn with_ratios(dataset: Dataset, ratios: SplitRatios) -> Self {
        dataset.validate();
        let split = temporal_split(&dataset, ratios);
        Self { dataset, split }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The temporal split.
    pub fn split(&self) -> &Split {
        &self.split
    }

    /// The training view handed to models.
    pub fn train_data(&self) -> TrainData<'_> {
        TrainData::new(&self.dataset, &self.split)
    }

    /// Fits a model of the given kind.
    ///
    /// # Panics
    /// Panics if the optimization diverges (non-finite loss). For a
    /// recoverable path with checkpointing, rollback and learning-rate
    /// backoff, use [`Pipeline::fit_checkpointed`].
    pub fn fit(&self, kind: ModelKind, cfg: &FitConfig) -> Box<dyn Recommender> {
        let _span = pup_obs::span("fit");
        match self.untrained(kind, cfg) {
            Untrained::Fitted(model) => model,
            Untrained::Bpr(mut model) => {
                let data = self.train_data();
                must_train(train_bpr(
                    &mut *model,
                    data.n_users,
                    data.n_items,
                    data.train,
                    &cfg.train,
                ));
                model
            }
        }
    }

    /// Fits a model with crash-safe checkpointing and divergence recovery
    /// (see `pup_models::resilient`): training state is checkpointed to
    /// `ckpt_dir` per `policy`, a non-finite loss rolls back to the last
    /// good checkpoint with a learning-rate backoff, and `resume = true`
    /// continues a previous run from its newest valid checkpoint.
    ///
    /// Returns the fitted model together with its [`TrainStats`] (which
    /// surface any recoveries that occurred). `ItemPop` and `PaDQ` own
    /// their (fast, non-iterative or closed-form-ish) fitting procedures and
    /// are fitted directly; their stats are empty.
    pub fn fit_checkpointed(
        &self,
        kind: ModelKind,
        cfg: &FitConfig,
        policy: &RecoveryPolicy,
        ckpt_dir: &Path,
        resume: bool,
    ) -> Result<(Box<dyn Recommender>, TrainStats), TrainError> {
        let _span = pup_obs::span("fit");
        match self.untrained(kind, cfg) {
            Untrained::Fitted(model) => Ok((model, TrainStats::empty())),
            Untrained::Bpr(mut model) => {
                let data = self.train_data();
                let stats = train_bpr_resilient(
                    &mut *model,
                    data.n_users,
                    data.n_items,
                    data.train,
                    &cfg.train,
                    policy,
                    ckpt_dir,
                    resume,
                )?;
                Ok((model, stats))
            }
        }
    }

    /// Rebuilds a trained model from the newest valid checkpoint in
    /// `ckpt_dir` without re-training: the model skeleton comes from the
    /// same builder as [`Pipeline::fit_checkpointed`]'s, its
    /// parameters are restored via [`pup_models::restore_params`], and the
    /// model is finalized so cached propagation state matches the restored
    /// weights. `cfg` must match the run that wrote the checkpoint; a
    /// dimension disagreement surfaces as `CkptError::ShapeMismatch`.
    ///
    /// `ItemPop` has no learned parameters and is fitted directly from the
    /// training split. `PaDQ`'s sampled state is not checkpointable and is
    /// reported as `CkptError::StateMismatch`.
    pub fn load_checkpointed(
        &self,
        kind: ModelKind,
        cfg: &FitConfig,
        ckpt_dir: &Path,
    ) -> Result<Box<dyn Recommender>, pup_ckpt::CkptError> {
        let _span = pup_obs::span("load_checkpointed");
        let latest = pup_ckpt::store::load_latest(ckpt_dir)?;
        self.restore_from_checkpoint(kind, cfg, &latest.checkpoint)
    }

    /// Rebuilds a trained model from an already-decoded [`pup_ckpt::Checkpoint`]
    /// — the registry-based path (`pup_ckpt::registry::ModelRegistry::load`)
    /// and [`Pipeline::load_checkpointed`] share this restore logic. PUP is
    /// built straight from the checkpoint's tables ([`Pup::restore`]); the
    /// other kinds are built as for training and then overwritten.
    pub fn restore_from_checkpoint(
        &self,
        kind: ModelKind,
        cfg: &FitConfig,
        ckpt: &pup_ckpt::Checkpoint,
    ) -> Result<Box<dyn Recommender>, pup_ckpt::CkptError> {
        match kind {
            ModelKind::Padq => {
                return Err(pup_ckpt::CkptError::StateMismatch {
                    what: "PaDQ's sampled factorization state is not checkpointable; re-fit it"
                        .to_string(),
                })
            }
            ModelKind::Pup(pup_cfg) => {
                let mut model =
                    Pup::restore(&self.train_data(), fit_pup_config(pup_cfg, cfg), ckpt)?;
                model.finalize();
                return Ok(Box::new(model));
            }
            _ => {}
        }
        match self.untrained(kind, cfg) {
            Untrained::Fitted(model) => Ok(model),
            Untrained::Bpr(mut model) => {
                pup_models::restore_params(&*model, ckpt)?;
                model.finalize();
                Ok(model)
            }
        }
    }

    /// Builds a model of `kind` from `cfg`: the one place every fitting
    /// path, and every restore but PUP's, constructs its model. PUP takes
    /// its dropout and seed from `cfg`, not from its [`PupConfig`].
    fn untrained(&self, kind: ModelKind, cfg: &FitConfig) -> Untrained {
        let data = self.train_data();
        let model: Box<dyn Trainable> = match kind {
            ModelKind::ItemPop => return Untrained::Fitted(Box::new(ItemPop::fit(&data))),
            ModelKind::Padq => {
                let pcfg = PadqConfig {
                    dim: cfg.dim,
                    epochs: cfg.train.epochs,
                    batch_size: cfg.train.batch_size,
                    lr: cfg.train.lr,
                    l2: cfg.train.l2,
                    seed: cfg.train.seed,
                    ..Default::default()
                };
                return Untrained::Fitted(Box::new(Padq::fit(&data, &pcfg)));
            }
            ModelKind::BprMf => Box::new(BprMf::new(&data, cfg.dim, cfg.seed)),
            ModelKind::Fm => Box::new(Fm::new(&data, cfg.dim, cfg.seed)),
            ModelKind::DeepFm => Box::new(DeepFm::new(&data, cfg.dim, cfg.deepfm_hidden, cfg.seed)),
            ModelKind::GcMc => Box::new(GcMc::new(&data, cfg.dim, cfg.dropout, cfg.seed)),
            // NGCF's design uses the full embedding size per layer and
            // concatenates the (layers + 1) blocks into the final
            // representation, exactly as in Wang et al. [18].
            ModelKind::Ngcf => {
                Box::new(Ngcf::new(&data, cfg.dim, cfg.ngcf_layers, cfg.dropout, cfg.seed))
            }
            ModelKind::Pup(pup_cfg) => Box::new(Pup::new(&data, fit_pup_config(pup_cfg, cfg))),
        };
        Untrained::Bpr(model)
    }

    /// Fits PUP and returns the concrete type (for price-affinity
    /// introspection in the examples).
    ///
    /// Unlike `fit(ModelKind::Pup(..))`, this ignores `cfg.dropout` and
    /// `cfg.seed` and keeps the dropout and seed of `pup_cfg`.
    ///
    /// # Panics
    /// Panics if the optimization diverges; see [`Pipeline::fit`].
    pub fn fit_pup(&self, pup_cfg: PupConfig, cfg: &FitConfig) -> Pup {
        let data = self.train_data();
        let mut m = Pup::new(&data, pup_cfg);
        must_train(train_bpr(&mut m, data.n_users, data.n_items, data.train, &cfg.train));
        m
    }

    /// Trains any [`pup_models::BprModel`] with early stopping on validation
    /// Recall@K (paper §V-A1 holds out the middle 20% as a validation set).
    ///
    /// Every `check_every` epochs the model is finalized and evaluated on
    /// the validation pairs; training stops when `patience` consecutive
    /// checks fail to improve, and the best-scoring parameters are restored.
    pub fn fit_with_early_stopping<M>(
        &self,
        model: &mut M,
        cfg: &FitConfig,
        stopping: &EarlyStopping,
    ) -> Result<ValidationHistory, TrainError>
    where
        M: pup_models::BprModel + Recommender,
    {
        assert!(stopping.check_every > 0 && stopping.patience > 0, "degenerate early stopping");
        assert!(!self.split.valid.is_empty(), "early stopping needs a non-empty validation split");
        let data = self.train_data();
        let mut trainer =
            pup_models::BprTrainer::new(model, data.n_users, data.n_items, data.train, &cfg.train);
        // Validation protocol: rank all non-train items, truth = valid pairs.
        let valid_truth = self.split.valid_items_by_user();
        let train_items = self.split.train_items_by_user();
        let mut users = Vec::new();
        let mut pools = Vec::new();
        let mut truths = Vec::new();
        for u in 0..self.split.n_users {
            if valid_truth[u].is_empty() {
                continue;
            }
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            let pool: Vec<u32> = (0..self.split.n_items as u32)
                .filter(|i| train_items[u].binary_search(i).is_err())
                .collect();
            users.push(u);
            pools.push(pool);
            // pup-lint: allow(clone-in-loop) — per-user ground-truth copy, built once before training.
            truths.push(valid_truth[u].clone());
        }

        let mut history = ValidationHistory::default();
        let mut best: Option<(f64, Vec<pup_tensor::Matrix>)> = None;
        let mut bad_checks = 0usize;
        for _ in 0..cfg.train.epochs {
            let loss = trainer.run_epoch(model)?;
            history.epoch_losses.push(loss);
            if !trainer.completed_epochs().is_multiple_of(stopping.check_every) {
                continue;
            }
            model.finalize();
            let report = pup_eval::evaluate_pools(&*model, &users, &pools, &truths, &[stopping.k]);
            let score = report.at(stopping.k).recall;
            history.validation_recalls.push((trainer.completed_epochs(), score));
            let improved = best.as_ref().map(|(b, _)| score > *b).unwrap_or(true);
            if improved {
                // pup-lint: allow(clone-in-loop) — best-model snapshot, only on validation improvement.
                best = Some((score, model.params().iter().map(|p| p.value_clone()).collect()));
                bad_checks = 0;
            } else {
                bad_checks += 1;
                if bad_checks >= stopping.patience {
                    history.stopped_early = true;
                    break;
                }
            }
        }
        if let Some((score, params)) = best {
            for (p, v) in model.params().iter().zip(params) {
                p.set_value(v);
            }
            history.best_recall = score;
        }
        model.finalize();
        Ok(history)
    }

    /// Standard full-ranking evaluation at the given cutoffs.
    pub fn evaluate(&self, model: &dyn Recommender, ks: &[usize]) -> MetricReport {
        evaluate(model, &self.split, ks)
    }

    /// Evaluation restricted to a user subset.
    pub fn evaluate_users(
        &self,
        model: &dyn Recommender,
        users: &[usize],
        ks: &[usize],
    ) -> MetricReport {
        evaluate_users(model, &self.split, users, ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_data::synthetic::{generate, GeneratorConfig};

    fn small_pipeline() -> Pipeline {
        let synth = generate(&GeneratorConfig {
            n_users: 50,
            n_items: 60,
            n_categories: 5,
            n_price_levels: 4,
            n_interactions: 2_000,
            kcore: 2,
            seed: 3,
            ..Default::default()
        });
        Pipeline::new(synth.dataset)
    }

    fn quick_cfg() -> FitConfig {
        FitConfig {
            dim: 16,
            train: TrainConfig { epochs: 3, batch_size: 256, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn every_model_kind_fits_and_evaluates() {
        let p = small_pipeline();
        let cfg = quick_cfg();
        let mut kinds = ModelKind::table2_baselines();
        kinds.push(ModelKind::Pup(PupConfig {
            global_dim: 12,
            category_dim: 4,
            ..Default::default()
        }));
        for kind in kinds {
            let name = kind.name();
            let model = p.fit(kind, &cfg);
            let report = p.evaluate(model.as_ref(), &[10]);
            assert!(report.n_users > 0, "{name}: no users evaluated");
            let m = report.at(10);
            assert!((0.0..=1.0).contains(&m.recall), "{name}: recall out of range");
            assert!((0.0..=1.0).contains(&m.ndcg), "{name}: ndcg out of range");
        }
    }

    #[test]
    fn pipeline_split_is_consistent_with_dataset() {
        let p = small_pipeline();
        assert_eq!(p.split().n_users, p.dataset().n_users);
        let total = p.split().train.len() + p.split().valid.len() + p.split().test.len();
        assert!(total <= p.dataset().n_interactions());
        assert!(!p.split().train.is_empty());
    }

    #[test]
    fn early_stopping_tracks_and_restores_best() {
        let p = small_pipeline();
        let data = p.train_data();
        let mut m = pup_models::Pup::new(
            &data,
            PupConfig { global_dim: 12, category_dim: 4, ..Default::default() },
        );
        let cfg = FitConfig {
            train: TrainConfig { epochs: 8, batch_size: 256, ..Default::default() },
            ..Default::default()
        };
        let history = p
            .fit_with_early_stopping(
                &mut m,
                &cfg,
                &EarlyStopping { k: 20, check_every: 2, patience: 2 },
            )
            .expect("training");
        assert!(!history.validation_recalls.is_empty(), "checks must have run");
        assert!(history.epoch_losses.len() <= 8);
        // The restored parameters reproduce the best validation recall.
        let best_seen = history.validation_recalls.iter().map(|&(_, r)| r).fold(f64::MIN, f64::max);
        assert!((history.best_recall - best_seen).abs() < 1e-12);
        // Model is usable for inference after restoration.
        let report = p.evaluate(&m, &[10]);
        assert!(report.n_users > 0);
    }

    #[test]
    fn fit_checkpointed_trains_persists_and_resumes() {
        let p = small_pipeline();
        let cfg = quick_cfg();
        let dir = std::env::temp_dir().join(format!("pup-core-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let (model, stats) = p
            .fit_checkpointed(ModelKind::BprMf, &cfg, &RecoveryPolicy::default(), &dir, false)
            .expect("checkpointed fit");
        assert_eq!(stats.epoch_losses.len(), cfg.train.epochs);
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(stats.recoveries.is_empty());
        let report = p.evaluate(model.as_ref(), &[10]);
        assert!(report.n_users > 0);
        assert!(
            !pup_ckpt::store::list_checkpoints(&dir).expect("list").is_empty(),
            "checkpoints must be on disk"
        );

        // Resuming the finished run replays the identical loss history.
        let (_, resumed) = p
            .fit_checkpointed(ModelKind::BprMf, &cfg, &RecoveryPolicy::default(), &dir, true)
            .expect("resume of finished run");
        let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stats.epoch_losses), bits(&resumed.epoch_losses));

        // Non-iterative models bypass the trainer with empty stats.
        let (_, pop_stats) = p
            .fit_checkpointed(ModelKind::ItemPop, &cfg, &RecoveryPolicy::default(), &dir, false)
            .expect("itempop fit");
        assert!(pop_stats.epoch_losses.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_checkpointed_reproduces_trained_scores() {
        let p = small_pipeline();
        let cfg = quick_cfg();
        let dir = std::env::temp_dir().join(format!("pup-core-load-{}", std::process::id()));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // Every checkpointable kind is built the same way by `fit`,
        // `fit_checkpointed` and `load_checkpointed`: all three score
        // bit-identically. BPR-MF runs last: the checks below read its
        // checkpoint.
        let checkpointable = [
            ModelKind::Fm,
            ModelKind::DeepFm,
            ModelKind::GcMc,
            ModelKind::Ngcf,
            ModelKind::Pup(PupConfig { global_dim: 12, category_dim: 4, ..Default::default() }),
            ModelKind::BprMf,
        ];
        for kind in checkpointable {
            let name = kind.name();
            std::fs::remove_dir_all(&dir).ok();
            let (trained, _) = p
                .fit_checkpointed(kind.clone(), &cfg, &RecoveryPolicy::default(), &dir, false)
                .expect("checkpointed fit");
            let plain = p.fit(kind.clone(), &cfg);
            let loaded = p.load_checkpointed(kind, &cfg, &dir).expect("load from checkpoint");
            for user in [0, p.split().n_users - 1] {
                let a = trained.score_items(user);
                assert_eq!(bits(&a), bits(&plain.score_items(user)), "{name}: fit differs");
                assert_eq!(bits(&a), bits(&loaded.score_items(user)), "{name}: restore differs");
            }
        }

        // A dimension mismatch is a typed shape error, not a panic.
        let wrong = FitConfig { dim: cfg.dim + 1, ..cfg.clone() };
        match p.load_checkpointed(ModelKind::BprMf, &wrong, &dir) {
            Err(pup_ckpt::CkptError::ShapeMismatch { .. }) => {}
            Err(e) => panic!("expected ShapeMismatch, got {e}"),
            Ok(_) => panic!("expected ShapeMismatch, got a model"),
        }
        // PaDQ is honestly non-checkpointable.
        assert!(matches!(
            p.load_checkpointed(ModelKind::Padq, &cfg, &dir),
            Err(pup_ckpt::CkptError::StateMismatch { .. })
        ));
        // An empty directory reports NoCheckpoint.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            p.load_checkpointed(ModelKind::BprMf, &cfg, &dir),
            Err(pup_ckpt::CkptError::NoCheckpoint)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_pup_exposes_price_affinity() {
        let p = small_pipeline();
        let cfg = quick_cfg();
        let pup =
            p.fit_pup(PupConfig { global_dim: 12, category_dim: 4, ..Default::default() }, &cfg);
        let aff = pup.user_price_affinity(0);
        assert_eq!(aff.len(), p.dataset().n_price_levels);
        assert!(aff.iter().all(|a| a.is_finite()));
    }
}
