//! Shared BPR training loop (paper §III-D and §V-A3).
//!
//! Every learnable model trains with the same recipe the paper applies to
//! all methods: BPR pairwise loss over sampled positive/negative item pairs,
//! Adam, mini-batches, 1:1 negative sampling and a two-step learning-rate
//! decay. Models plug in through [`BprModel`].
//!
//! The trainer is crash-safe and divergence-aware: [`BprTrainer::save_checkpoint`]
//! / [`BprTrainer::resume`] give bit-exact kill-and-resume (see `pup-ckpt`),
//! a non-finite epoch loss surfaces as [`TrainError::Diverged`] instead of a
//! panic, and [`crate::resilient::train_bpr_resilient`] layers rollback +
//! learning-rate backoff on top.

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pup_ckpt::chaos::FaultPlan;
use pup_ckpt::{store, Checkpoint, CkptError, ConfigFingerprint, ParamBlob};
use pup_tensor::optim::{Adam, AdamState, LrSchedule, Optimizer};
use pup_tensor::{ops, Var};

use crate::common::ParamRegistry;

/// Hook interface for models trained with BPR.
pub trait BprModel {
    /// Prepares the step's forward state (e.g. graph propagation with
    /// dropout). Called once per mini-batch before scoring, with the
    /// batch's users and its positive and negative items: the step scores
    /// only `(users, pos)` and `(users, neg)` pairs, so a model may prepare
    /// just the rows those read.
    fn begin_step(&mut self, users: &[usize], pos: &[usize], neg: &[usize], rng: &mut StdRng);

    /// Differentiable scores for `(users[k], items[k])` pairs, shape
    /// `(batch, 1)`. Called twice per step (positives, then negatives) and
    /// must reuse the state prepared by [`BprModel::begin_step`].
    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var;

    /// All trainable parameters.
    fn params(&self) -> Vec<Var>;

    /// Refreshes inference-time state after training (e.g. a final dropout-
    /// free propagation).
    fn finalize(&mut self);
}

/// Training hyperparameters (defaults follow the paper §V-A3, with a smaller
/// epoch budget appropriate for the scaled-down synthetic datasets).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training pairs.
    pub epochs: usize,
    /// Mini-batch size (paper: 1024).
    pub batch_size: usize,
    /// Initial learning rate (paper: 1e-2).
    pub lr: f64,
    /// L2 regularization strength λ (applied as Adam weight decay).
    pub l2: f64,
    /// Negative samples per positive (paper: 1).
    pub negatives_per_positive: usize,
    /// RNG seed for shuffling/sampling.
    pub seed: u64,
    /// Whether to apply the paper's two-step ×0.1 lr decay.
    pub lr_decay: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 1024,
            lr: 1e-2,
            l2: 1e-5,
            negatives_per_positive: 1,
            seed: 1,
            lr_decay: true,
        }
    }
}

impl TrainConfig {
    /// The checkpoint-compatibility fingerprint of this configuration.
    ///
    /// Two configurations resume-compatibly iff their fingerprints are
    /// equal (floats compared by bit pattern).
    pub fn fingerprint(&self) -> ConfigFingerprint {
        ConfigFingerprint {
            epochs: self.epochs as u64,
            batch_size: self.batch_size as u64,
            negatives_per_positive: self.negatives_per_positive as u64,
            seed: self.seed,
            lr_bits: self.lr.to_bits(),
            l2_bits: self.l2.to_bits(),
            lr_decay: self.lr_decay,
        }
    }
}

/// Why training stopped before completing its epoch budget.
#[derive(Debug)]
pub enum TrainError {
    /// The epoch loss went non-finite (NaN/∞) — the optimization diverged.
    Diverged {
        /// Epoch (0-based) in which the divergence was observed.
        epoch: usize,
        /// Global mini-batch step at which it was observed.
        step: u64,
    },
    /// A checkpoint could not be saved, loaded, or applied.
    Ckpt(CkptError),
    /// Divergence recovery gave up after the configured retry budget.
    RetriesExhausted {
        /// Epoch of the final (fatal) divergence.
        epoch: usize,
        /// Retries that had been consumed.
        retries: u32,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Diverged { epoch, step } => {
                write!(f, "training diverged (non-finite loss) at epoch {epoch}, step {step}")
            }
            Self::Ckpt(e) => write!(f, "checkpoint error: {e}"),
            Self::RetriesExhausted { epoch, retries } => write!(
                f,
                "training diverged at epoch {epoch} and recovery gave up after {retries} retries"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ckpt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        Self::Ckpt(e)
    }
}

/// One rollback performed by the divergence-recovery driver
/// ([`crate::resilient::train_bpr_resilient`]).
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Epoch in which the divergence was observed.
    pub at_epoch: usize,
    /// Epoch of the checkpoint training rolled back to.
    pub rolled_back_to: usize,
    /// Which retry this was (1-based).
    pub retry: u32,
    /// Learning-rate multiplier in effect after the rollback.
    pub lr_factor: f64,
}

/// Per-epoch training telemetry.
#[derive(Clone, Debug)]
pub struct TrainStats {
    /// Mean BPR loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock duration of each epoch, index-aligned with
    /// `epoch_losses`. Epochs restored from a checkpoint (not re-run in
    /// this process) report [`Duration::ZERO`]. Measured unconditionally —
    /// two clock reads per epoch, no full telemetry needed.
    pub epoch_durations: Vec<Duration>,
    /// Wall-clock duration of the whole training call, including
    /// finalization and (for the resilient path) rollback/retry overhead.
    pub total_duration: Duration,
    /// Divergence rollbacks performed during the run (empty for the plain
    /// [`train_bpr`] path, which does not recover).
    pub recoveries: Vec<RecoveryEvent>,
}

impl TrainStats {
    /// Stats for a run that trained nothing (e.g. a heuristic model).
    pub fn empty() -> Self {
        TrainStats {
            epoch_losses: Vec::new(),
            epoch_durations: Vec::new(),
            total_duration: Duration::ZERO,
            recoveries: Vec::new(),
        }
    }

    /// Loss of the final epoch, or `None` when no epoch completed.
    pub fn final_loss(&self) -> Option<f64> {
        self.epoch_losses.last().copied()
    }

    /// Mean duration of the epochs actually run in this process (restored
    /// epochs are excluded), or `None` when none ran.
    pub fn mean_epoch_duration(&self) -> Option<Duration> {
        let run: Vec<&Duration> = self.epoch_durations.iter().filter(|d| !d.is_zero()).collect();
        if run.is_empty() {
            return None;
        }
        // pup-lint: allow(as-cast-truncation) — run.len() is a small window size
        Some(run.iter().copied().sum::<Duration>() / run.len() as u32)
    }
}

/// Uniform negative sampler that avoids a user's training positives.
pub struct NegativeSampler {
    n_items: usize,
    /// Sorted positive item lists per user.
    positives: Vec<Vec<u32>>,
}

/// Rejection draws before [`NegativeSampler::sample`] falls back to a direct
/// rank-based draw. With the fallback, even a user holding all but one item
/// terminates after a bounded number of RNG calls.
const MAX_REJECTIONS: usize = 32;

impl NegativeSampler {
    /// Builds the sampler from training pairs.
    pub fn new(n_users: usize, n_items: usize, train: &[(usize, usize)]) -> Self {
        let mut positives = vec![Vec::new(); n_users];
        for &(u, i) in train {
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            positives[u].push(i as u32);
        }
        for l in &mut positives {
            l.sort_unstable();
            l.dedup();
        }
        Self { n_items, positives }
    }

    /// Samples an item the user has not interacted with in training.
    ///
    /// Uses rejection sampling (uniform over all items, retry on a positive)
    /// for the common sparse case, but falls back to drawing the k-th
    /// non-positive directly after [`MAX_REJECTIONS`] failed attempts, so
    /// near-saturated users terminate deterministically instead of spinning.
    ///
    /// # Panics
    /// Panics when the user has interacted with every item (no negative
    /// exists at all).
    pub fn sample(&self, user: usize, rng: &mut impl Rng) -> usize {
        // pup-audit: allow(hotpath-panic): user < n_users: the sampler draws from the dataset's user range
        let pos = &self.positives[user];
        // pup-audit: allow(hotpath-panic): fail-fast dataset invariant: a user owning every item cannot be sampled
        assert!(pos.len() < self.n_items, "user {user} has no negative items");
        pup_obs::counter_add("sampler.draws", 1);
        for attempt in 0..MAX_REJECTIONS {
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            let cand = rng.gen_range(0..self.n_items) as u32;
            if pos.binary_search(&cand).is_err() {
                pup_obs::counter_add("sampler.rejections", attempt as u64);
                return cand as usize;
            }
        }
        pup_obs::counter_add("sampler.rejections", MAX_REJECTIONS as u64);
        pup_obs::counter_add("sampler.fallbacks", 1);
        // Near-saturated user: draw a rank among the non-positives and walk
        // the sorted positive list to translate rank -> item id.
        let k = rng.gen_range(0..self.n_items - pos.len());
        let mut item = k;
        for &p in pos {
            if (p as usize) <= item {
                item += 1;
            } else {
                break;
            }
        }
        item
    }

    /// The user's sorted positive training items.
    pub fn positives(&self, user: usize) -> &[u32] {
        &self.positives[user]
    }
}

/// Incremental BPR trainer: owns the optimizer, sampler and shuffling state
/// so callers can interleave epochs with validation (early stopping lives in
/// `pup-recsys`), checkpoint after any epoch, and resume bit-exactly.
pub struct BprTrainer {
    sampler: NegativeSampler,
    opt: Adam,
    schedule: LrSchedule,
    rng: StdRng,
    order: Vec<usize>,
    train: Vec<(usize, usize)>,
    cfg: TrainConfig,
    epoch: usize,
    /// Mean loss of every completed epoch (restored on resume).
    losses: Vec<f64>,
    /// Wall-clock time of epochs run in this process; restored epochs are
    /// padded with zero to stay index-aligned with `losses`.
    durations: Vec<Duration>,
    /// Divergence-recovery learning-rate multiplier (1.0 = no backoff).
    lr_factor: f64,
    /// Divergence retries consumed so far (carried through checkpoints).
    retries_used: u32,
    /// Global mini-batch counter across the whole run.
    step: u64,
    /// Scripted faults to inject (tests only; `None` in production).
    faults: Option<FaultPlan>,
}

impl BprTrainer {
    /// Prepares a trainer for `model` on the given training pairs.
    pub fn new<M: BprModel + ?Sized>(
        model: &M,
        n_users: usize,
        n_items: usize,
        train: &[(usize, usize)],
        cfg: &TrainConfig,
    ) -> Self {
        assert!(!train.is_empty(), "training set is empty");
        assert!(cfg.batch_size > 0 && cfg.epochs > 0, "degenerate training config");
        let schedule = if cfg.lr_decay {
            LrSchedule::paper_default(cfg.lr, cfg.epochs)
        } else {
            LrSchedule::constant(cfg.lr)
        };
        Self {
            sampler: NegativeSampler::new(n_users, n_items, train),
            opt: Adam::new(model.params(), cfg.lr, cfg.l2),
            schedule,
            rng: StdRng::seed_from_u64(cfg.seed),
            order: (0..train.len()).collect(),
            train: train.to_vec(),
            cfg: cfg.clone(),
            epoch: 0,
            losses: Vec::new(),
            durations: Vec::new(),
            lr_factor: 1.0,
            retries_used: 0,
            step: 0,
            faults: None,
        }
    }

    /// Number of completed epochs.
    pub fn completed_epochs(&self) -> usize {
        self.epoch
    }

    /// Mean loss of every completed epoch (includes epochs restored from a
    /// checkpoint on resume).
    pub fn epoch_losses(&self) -> &[f64] {
        &self.losses
    }

    /// Wall-clock duration of every completed epoch, index-aligned with
    /// [`BprTrainer::epoch_losses`]. Epochs restored from a checkpoint (not
    /// re-run in this process) report [`Duration::ZERO`].
    pub fn epoch_durations(&self) -> &[Duration] {
        &self.durations
    }

    /// The learning-rate backoff multiplier currently in effect.
    pub fn lr_factor(&self) -> f64 {
        self.lr_factor
    }

    /// Divergence retries consumed so far.
    pub fn retries_used(&self) -> u32 {
        self.retries_used
    }

    /// Installs a scripted fault plan (see `pup_ckpt::chaos`). Faults are
    /// consumed as they fire; [`BprTrainer::take_faults`] recovers the plan
    /// from a diverged trainer so a rollback does not re-arm spent faults.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes and returns the installed fault plan, if any.
    pub fn take_faults(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Sets the divergence-recovery state (used by the rollback driver after
    /// restoring from a checkpoint).
    pub fn set_recovery(&mut self, lr_factor: f64, retries_used: u32) {
        assert!(lr_factor.is_finite() && lr_factor > 0.0, "lr_factor must be positive");
        self.lr_factor = lr_factor;
        self.retries_used = retries_used;
    }

    /// Runs one epoch; returns the mean mini-batch BPR loss.
    ///
    /// A non-finite loss aborts the epoch immediately with
    /// [`TrainError::Diverged`] — the offending batch's gradients are never
    /// applied, the epoch counter does not advance, and the caller decides
    /// whether to roll back (see `crate::resilient`).
    // pup-hot: train-epoch
    pub fn run_epoch<M: BprModel + ?Sized>(&mut self, model: &mut M) -> Result<f64, TrainError> {
        let epoch_start = Instant::now();
        let _span = pup_obs::span("epoch");
        self.opt.set_lr(self.schedule.lr_at(self.epoch) * self.lr_factor);
        shuffle(&mut self.order, &mut self.rng);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        let mut examples = 0usize;
        let npp = self.cfg.negatives_per_positive;
        // Triple buffers reused by every batch of the epoch.
        let (mut users, mut pos, mut neg) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in self.order.chunks(self.cfg.batch_size) {
            // Expand each positive into `negatives_per_positive` triples.
            users.clear();
            pos.clear();
            neg.clear();
            for &k in chunk {
                // pup-audit: allow(hotpath-panic): k is drawn from 0..train.len() by the shuffled visit order
                let (u, i) = self.train[k];
                for _ in 0..npp {
                    users.push(u);
                    pos.push(i);
                    neg.push(self.sampler.sample(u, &mut self.rng));
                }
            }
            model.begin_step(&users, &pos, &neg, &mut self.rng);
            let s_pos = model.score_batch(&users, &pos);
            let s_neg = model.score_batch(&users, &neg);
            // BPR: -ln σ(s_pos - s_neg) == softplus(-(s_pos - s_neg)).
            let margin = ops::sub(&s_pos, &s_neg);
            let loss = ops::mean(&ops::softplus(&ops::scale(&margin, -1.0)));
            let mut loss_value = loss.scalar();
            if let Some(plan) = &mut self.faults {
                if plan.fire_nan(self.step) {
                    loss_value = f64::NAN;
                }
            }
            if !loss_value.is_finite() {
                return Err(TrainError::Diverged { epoch: self.epoch, step: self.step });
            }
            loss_sum += loss_value;
            batches += 1;
            examples += users.len();
            self.step += 1;
            if pup_obs::enabled() {
                // Positive/negative score gap: how far apart the decoder
                // pushes the sampled pairs this batch.
                pup_obs::observe("train.score_gap", batch_score_gap(&s_pos, &s_neg));
            }
            loss.backward();
            if pup_obs::enabled() {
                let sq_sum: f64 = self.opt.params().iter().filter_map(Var::grad_sq_norm).sum();
                pup_obs::gauge_set("train.grad_norm", sq_sum.sqrt());
            }
            self.opt.step();
        }
        self.epoch += 1;
        // `order` is never empty (asserted in `new`), but guard the division
        // anyway so a zero-batch epoch reads as zero loss, not NaN.
        let mean = if batches == 0 { 0.0 } else { loss_sum / batches as f64 };
        self.losses.push(mean);
        let elapsed = epoch_start.elapsed();
        self.durations.push(elapsed);
        pup_obs::record("train.epoch_loss", mean);
        pup_obs::record("train.epoch_duration_ms", elapsed.as_secs_f64() * 1e3);
        if pup_obs::enabled() {
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 { examples as f64 / secs } else { 0.0 };
            pup_obs::gauge_set("train.examples_per_sec", rate);
        }
        Ok(mean)
    }

    /// Captures everything needed to resume this trainer bit-exactly:
    /// model parameters (by registry name), full Adam state, RNG state,
    /// shuffle order, loss history and recovery bookkeeping.
    pub fn checkpoint<M: ParamRegistry + ?Sized>(&self, model: &M) -> Checkpoint {
        let params = model
            .named_params()
            .iter()
            .map(|np| ParamBlob { name: np.name.clone(), value: np.var.value_clone() })
            .collect();
        let adam = self.opt.state();
        Checkpoint {
            epoch: self.epoch as u64,
            lr_factor: self.lr_factor,
            retries_used: self.retries_used,
            config: self.cfg.fingerprint(),
            epoch_losses: self.losses.clone(),
            order: self.order.iter().map(|&o| o as u64).collect(),
            rng_state: self.rng.get_state(),
            params,
            adam_t: adam.t,
            adam_moments: adam.moments,
        }
    }

    /// Writes a checkpoint of this trainer + `model` atomically to `path`
    /// (see `pup_ckpt::store::save_atomic` for the crash-safety protocol).
    pub fn save_checkpoint<M: ParamRegistry + ?Sized>(
        &self,
        model: &M,
        path: &Path,
    ) -> Result<(), TrainError> {
        let _span = pup_obs::span("checkpoint_save");
        pup_obs::counter_add("ckpt.saves", 1);
        store::save_atomic(&self.checkpoint(model), path)?;
        Ok(())
    }

    /// Reconstructs a trainer (and restores `model`'s parameters) from a
    /// checkpoint, such that continuing training is **bit-exact** with the
    /// uninterrupted run the checkpoint was taken from.
    ///
    /// The checkpoint is validated against the live state first: the config
    /// fingerprint, interaction count, parameter names and shapes, Adam
    /// moment shapes and RNG state must all agree, otherwise a typed error
    /// is returned and nothing is mutated.
    pub fn resume<M: BprModel + ParamRegistry + ?Sized>(
        model: &mut M,
        n_users: usize,
        n_items: usize,
        train: &[(usize, usize)],
        cfg: &TrainConfig,
        ckpt: &Checkpoint,
    ) -> Result<Self, TrainError> {
        let _span = pup_obs::span("checkpoint_restore");
        pup_obs::counter_add("ckpt.restores", 1);
        let fp = cfg.fingerprint();
        if fp != ckpt.config {
            return Err(CkptError::StateMismatch {
                what: format!(
                    "config fingerprint differs (checkpoint {:?}, live {:?})",
                    ckpt.config, fp
                ),
            }
            .into());
        }
        if ckpt.epoch as usize > cfg.epochs {
            return Err(CkptError::StateMismatch {
                what: format!(
                    "checkpoint is at epoch {} but the run budget is {} epochs",
                    ckpt.epoch, cfg.epochs
                ),
            }
            .into());
        }
        if ckpt.epoch_losses.len() != ckpt.epoch as usize {
            return Err(CkptError::StateMismatch {
                what: format!(
                    "{} recorded losses for epoch {}",
                    ckpt.epoch_losses.len(),
                    ckpt.epoch
                ),
            }
            .into());
        }
        let order = validate_order(&ckpt.order, train.len())?;
        if ckpt.rng_state.iter().all(|&w| w == 0) {
            return Err(
                CkptError::StateMismatch { what: "RNG state is all-zero".to_string() }.into()
            );
        }

        restore_params(model, ckpt)?;

        let mut trainer = Self::new(model, n_users, n_items, train, cfg);
        trainer
            .opt
            .restore_state(AdamState { t: ckpt.adam_t, moments: ckpt.adam_moments.clone() })
            .map_err(|e| CkptError::StateMismatch { what: e.to_string() })?;
        trainer.rng.set_state(ckpt.rng_state);
        trainer.order = order;
        trainer.epoch = ckpt.epoch as usize;
        trainer.losses.clone_from(&ckpt.epoch_losses);
        // Restored epochs were not run in this process; keep the duration
        // vector index-aligned with the loss history.
        trainer.durations = vec![Duration::ZERO; trainer.losses.len()];
        trainer.lr_factor = ckpt.lr_factor;
        trainer.retries_used = ckpt.retries_used;
        trainer.step = ckpt.epoch * batches_per_epoch(train.len(), cfg) as u64;
        Ok(trainer)
    }
}

/// Restores every parameter of `model` from `ckpt`, validating first so a
/// bad checkpoint cannot leave the model half-restored.
///
/// All parameter names and shapes are checked against the live registry
/// (missing, unknown, and shape-mismatched parameters each surface as their
/// own typed [`CkptError`]) before any value is written. Shared between
/// [`BprTrainer::resume`] (training continuation) and the serving path,
/// which loads inference replicas from the same checkpoints without
/// constructing a trainer.
pub fn restore_params<M: ParamRegistry + ?Sized>(
    model: &M,
    ckpt: &Checkpoint,
) -> Result<(), CkptError> {
    let named = model.named_params();
    let expected: Vec<(&str, (usize, usize))> =
        named.iter().map(|np| (np.name.as_str(), np.var.shape())).collect();
    check_params(&expected, ckpt)?;
    for np in &named {
        // `check_params` found every name; a vanished one here is impossible.
        if let Some(blob) = ckpt.param(&np.name) {
            // pup-lint: allow(clone-in-loop) — one copy per restored parameter is the operation itself.
            np.var.set_value(blob.value.clone());
        }
    }
    Ok(())
}

/// Checks that `ckpt` holds exactly the `expected` `(name, shape)`
/// parameters: a missing name, a shape mismatch (both in `expected`'s
/// order) and then a checkpoint parameter outside the list each surface as
/// their own typed [`CkptError`].
pub(crate) fn check_params(
    expected: &[(&str, (usize, usize))],
    ckpt: &Checkpoint,
) -> Result<(), CkptError> {
    for &(name, shape) in expected {
        let blob =
            ckpt.param(name).ok_or_else(|| CkptError::MissingParam { name: name.to_string() })?;
        let found = blob.value.shape();
        if found != shape {
            return Err(CkptError::ShapeMismatch {
                name: name.to_string(),
                expected: shape,
                found,
            });
        }
    }
    for blob in &ckpt.params {
        if !expected.iter().any(|&(name, _)| name == blob.name) {
            // pup-lint: allow(clone-in-loop) — cold error path, owning the name for the error.
            return Err(CkptError::UnknownParam { name: blob.name.clone() });
        }
    }
    Ok(())
}

/// Mini-batch steps one epoch performs (ceil of pairs / batch size).
fn batches_per_epoch(n_pairs: usize, cfg: &TrainConfig) -> usize {
    n_pairs.div_ceil(cfg.batch_size)
}

/// Mean positive score minus mean negative score of one mini-batch
/// (telemetry only; computed from the already-materialized forward values).
fn batch_score_gap(s_pos: &Var, s_neg: &Var) -> f64 {
    let pos_sum: f64 = s_pos.value().as_slice().iter().sum();
    let neg_sum: f64 = s_neg.value().as_slice().iter().sum();
    let count = s_pos.shape().0.max(1) as f64;
    (pos_sum - neg_sum) / count
}

/// Checks that a checkpointed order is a permutation of `0..n` and converts
/// it back to `usize` indices.
fn validate_order(order: &[u64], n: usize) -> Result<Vec<usize>, CkptError> {
    if order.len() != n {
        return Err(CkptError::StateMismatch {
            what: format!("checkpoint order has {} entries for {n} training pairs", order.len()),
        });
    }
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(n);
    for &o in order {
        let idx = o as usize;
        if o >= n as u64 || seen[idx] {
            return Err(CkptError::StateMismatch {
                what: format!("checkpoint order is not a permutation of 0..{n}"),
            });
        }
        seen[idx] = true;
        out.push(idx);
    }
    Ok(out)
}

/// Trains `model` with BPR on `train` pairs for the configured number of
/// epochs; returns per-epoch losses.
///
/// This is the plain, non-recovering path: a divergence surfaces as
/// [`TrainError::Diverged`]. For rollback + learning-rate backoff use
/// [`crate::resilient::train_bpr_resilient`].
pub fn train_bpr<M: BprModel + ?Sized>(
    model: &mut M,
    n_users: usize,
    n_items: usize,
    train: &[(usize, usize)],
    cfg: &TrainConfig,
) -> Result<TrainStats, TrainError> {
    let start = Instant::now();
    let mut trainer = BprTrainer::new(model, n_users, n_items, train, cfg);
    for _ in 0..cfg.epochs {
        trainer.run_epoch(model)?;
    }
    model.finalize();
    Ok(TrainStats {
        epoch_losses: trainer.losses,
        epoch_durations: trainer.durations,
        total_duration: start.elapsed(),
        recoveries: Vec::new(),
    })
}

/// Fisher–Yates shuffle (avoids depending on `rand`'s slice extension).
fn shuffle<T>(v: &mut [T], rng: &mut impl Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_tensor::init;

    /// Minimal MF model used to exercise the trainer.
    struct TinyMf {
        users: Var,
        items: Var,
    }

    impl TinyMf {
        fn new(n_users: usize, n_items: usize, d: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            Self {
                users: Var::param(init::normal(n_users, d, 0.1, &mut rng)),
                items: Var::param(init::normal(n_items, d, 0.1, &mut rng)),
            }
        }
    }

    impl BprModel for TinyMf {
        fn begin_step(&mut self, _: &[usize], _: &[usize], _: &[usize], _: &mut StdRng) {}
        fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
            let u = ops::gather_rows(&self.users, users);
            let i = ops::gather_rows(&self.items, items);
            ops::rowwise_dot(&u, &i)
        }
        fn params(&self) -> Vec<Var> {
            vec![self.users.clone(), self.items.clone()]
        }
        fn finalize(&mut self) {}
    }

    impl ParamRegistry for TinyMf {
        fn named_params(&self) -> Vec<crate::common::NamedParam> {
            vec![
                crate::common::NamedParam::new("users", &self.users),
                crate::common::NamedParam::new("items", &self.items),
            ]
        }
    }

    fn block_train_pairs() -> Vec<(usize, usize)> {
        // Users 0-4 like items 0-4; users 5-9 like items 5-9.
        let mut train = Vec::new();
        for u in 0..10 {
            for i in 0..10 {
                if (u < 5) == (i < 5) && (u + i) % 2 == 0 {
                    train.push((u, i));
                }
            }
        }
        train
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let train = block_train_pairs();
        let mut model = TinyMf::new(10, 10, 8, 3);
        let cfg =
            TrainConfig { epochs: 30, batch_size: 8, lr: 0.05, l2: 0.0, ..Default::default() };
        let stats = train_bpr(&mut model, 10, 10, &train, &cfg).expect("training");
        let first = stats.epoch_losses[0];
        let last = stats.final_loss().expect("at least one epoch ran");
        assert!(last < first * 0.5, "BPR loss should at least halve: {first} -> {last}");
        assert!(stats.recoveries.is_empty());
    }

    #[test]
    fn final_loss_is_none_before_training() {
        let stats = TrainStats::empty();
        assert_eq!(stats.final_loss(), None);
        assert_eq!(stats.mean_epoch_duration(), None);
    }

    #[test]
    fn trained_mf_ranks_in_block_items_higher() {
        // Hold out (0,2), which has genuine collaborative support: users 2
        // and 4 share items 0 and 4 with user 0 and both like item 2. (The
        // parity structure of `block_train_pairs` means an *untrained*
        // in-block pair like (0,3) has no collaborative path, so the
        // original form of this test was a pure init lottery.) The held-out
        // pair is still a legal negative sample, so require a majority of
        // seeds rather than betting on one.
        let train: Vec<(usize, usize)> =
            block_train_pairs().into_iter().filter(|&p| p != (0, 2)).collect();
        let mut wins = 0;
        for seed in 0..5 {
            let mut model = TinyMf::new(10, 10, 8, seed);
            let cfg = TrainConfig {
                epochs: 60,
                batch_size: 8,
                lr: 0.05,
                l2: 0.0,
                seed,
                ..Default::default()
            };
            train_bpr(&mut model, 10, 10, &train, &cfg).expect("training");
            let score = |u: usize, i: usize| {
                let uu = model.users.value().gather_rows(&[u]);
                let ii = model.items.value().gather_rows(&[i]);
                uu.rowwise_dot(&ii).get(0, 0)
            };
            let in_block = score(0, 2);
            let out_block: f64 = (5..10).map(|i| score(0, i)).fold(f64::MIN, f64::max);
            if in_block > out_block {
                wins += 1;
            }
        }
        assert!(wins >= 3, "CF structure not learned: {wins}/5 seeds recovered the held-out pair");
    }

    #[test]
    fn negative_sampler_avoids_positives() {
        let train = vec![(0, 0), (0, 1), (0, 2)];
        let sampler = NegativeSampler::new(1, 5, &train);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let n = sampler.sample(0, &mut rng);
            assert!(n >= 3, "sampled a positive item {n}");
        }
    }

    #[test]
    #[should_panic(expected = "no negative items")]
    fn negative_sampler_rejects_saturated_user() {
        let train = vec![(0, 0), (0, 1)];
        let sampler = NegativeSampler::new(1, 2, &train);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sampler.sample(0, &mut rng);
    }

    #[test]
    fn negative_sampler_terminates_for_near_saturated_user() {
        // User 0 holds every item except item 7: rejection sampling would
        // expect n_items draws per success; the rank-based fallback must
        // find item 7 after a bounded number of draws, every time.
        let n_items = 200;
        let train: Vec<(usize, usize)> = (0..n_items).filter(|&i| i != 7).map(|i| (0, i)).collect();
        let sampler = NegativeSampler::new(1, n_items, &train);
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..500 {
            assert_eq!(sampler.sample(0, &mut rng), 7);
        }
    }

    #[test]
    fn negative_sampler_fallback_is_uniform_over_gaps() {
        // User 0 holds all even items; both fallback survivors (odd items)
        // must all stay reachable.
        let n_items = 20;
        let train: Vec<(usize, usize)> = (0..n_items).step_by(2).map(|i| (0, i)).collect();
        let sampler = NegativeSampler::new(1, n_items, &train);
        let mut rng = StdRng::seed_from_u64(9);
        let mut hit = vec![false; n_items];
        for _ in 0..2_000 {
            let n = sampler.sample(0, &mut rng);
            assert_eq!(n % 2, 1, "sampled a positive item {n}");
            hit[n] = true;
        }
        let odd_hits = hit.iter().skip(1).step_by(2).filter(|&&h| h).count();
        assert_eq!(odd_hits, n_items / 2, "some negatives are unreachable");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let train = block_train_pairs();
        let run = |seed| {
            let mut model = TinyMf::new(10, 10, 4, 9);
            let cfg = TrainConfig { epochs: 5, batch_size: 8, seed, ..Default::default() };
            train_bpr(&mut model, 10, 10, &train, &cfg).expect("training").epoch_losses
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn incremental_trainer_matches_train_bpr() {
        let train = block_train_pairs();
        let losses_a = {
            let mut model = TinyMf::new(10, 10, 4, 9);
            let cfg = TrainConfig { epochs: 6, batch_size: 8, ..Default::default() };
            train_bpr(&mut model, 10, 10, &train, &cfg).expect("training").epoch_losses
        };
        let losses_b = {
            let mut model = TinyMf::new(10, 10, 4, 9);
            let cfg = TrainConfig { epochs: 6, batch_size: 8, ..Default::default() };
            let mut t = BprTrainer::new(&model, 10, 10, &train, &cfg);
            let mut out = Vec::new();
            for _ in 0..6 {
                out.push(t.run_epoch(&mut model).expect("epoch"));
            }
            assert_eq!(t.completed_epochs(), 6);
            assert_eq!(t.epoch_losses(), out.as_slice());
            out
        };
        assert_eq!(losses_a, losses_b, "wrapper and incremental paths must agree");
    }

    #[test]
    fn multiple_negatives_per_positive() {
        let train = block_train_pairs();
        let mut model = TinyMf::new(10, 10, 4, 1);
        let cfg = TrainConfig {
            epochs: 3,
            negatives_per_positive: 4,
            batch_size: 8,
            ..Default::default()
        };
        let stats = train_bpr(&mut model, 10, 10, &train, &cfg).expect("training");
        assert_eq!(stats.epoch_losses.len(), 3);
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn injected_nan_surfaces_as_diverged() {
        let train = block_train_pairs();
        let mut model = TinyMf::new(10, 10, 4, 2);
        let cfg = TrainConfig { epochs: 4, batch_size: 8, ..Default::default() };
        let mut t = BprTrainer::new(&model, 10, 10, &train, &cfg);
        // 26 pairs at batch 8 -> 4 steps per epoch; step 5 is epoch 1's
        // second batch.
        t.inject_faults(FaultPlan::nan_at_steps([5]));
        assert!(t.run_epoch(&mut model).is_ok(), "epoch 0 (steps 0..=3) must survive");
        let err = t.run_epoch(&mut model).expect_err("step 5 falls in epoch 1");
        match err {
            TrainError::Diverged { epoch, step } => {
                assert_eq!(epoch, 1);
                assert_eq!(step, 5);
            }
            other => panic!("expected Diverged, got {other}"),
        }
        assert_eq!(t.completed_epochs(), 1, "the diverged epoch must not count");
        assert_eq!(t.take_faults().expect("plan still installed").pending(), 0);
        // The poisoned batch never backpropagated, so no NaN reached the
        // parameters.
        assert!(model.users.value().all_finite());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_exact_mid_run() {
        let train = block_train_pairs();
        let cfg = TrainConfig { epochs: 8, batch_size: 8, ..Default::default() };

        // Straight-through reference run.
        let mut ref_model = TinyMf::new(10, 10, 4, 9);
        let mut ref_trainer = BprTrainer::new(&ref_model, 10, 10, &train, &cfg);
        let mut ref_losses = Vec::new();
        for _ in 0..8 {
            ref_losses.push(ref_trainer.run_epoch(&mut ref_model).expect("epoch"));
        }

        // Interrupted run: checkpoint (in memory) after epoch 3, then
        // resume into a *differently initialized* model — the checkpoint
        // alone must determine the continuation.
        let mut model_a = TinyMf::new(10, 10, 4, 9);
        let mut t_a = BprTrainer::new(&model_a, 10, 10, &train, &cfg);
        for _ in 0..3 {
            t_a.run_epoch(&mut model_a).expect("epoch");
        }
        let ckpt = t_a.checkpoint(&model_a);
        drop((t_a, model_a));

        let mut model_b = TinyMf::new(10, 10, 4, 777);
        let mut t_b =
            BprTrainer::resume(&mut model_b, 10, 10, &train, &cfg, &ckpt).expect("resume");
        assert_eq!(t_b.completed_epochs(), 3);
        for _ in 3..8 {
            t_b.run_epoch(&mut model_b).expect("epoch");
        }

        let bits = |m: &TinyMf| {
            let mut v: Vec<u64> = m.users.value().as_slice().iter().map(|x| x.to_bits()).collect();
            v.extend(m.items.value().as_slice().iter().map(|x| x.to_bits()));
            v
        };
        let loss_bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            loss_bits(t_b.epoch_losses()),
            loss_bits(&ref_losses),
            "per-epoch losses must match bit-for-bit"
        );
        assert_eq!(bits(&ref_model), bits(&model_b), "final params must match bit-for-bit");
    }

    #[test]
    fn resume_rejects_mismatched_state() {
        let train = block_train_pairs();
        let cfg = TrainConfig { epochs: 4, batch_size: 8, ..Default::default() };
        let mut model = TinyMf::new(10, 10, 4, 9);
        let mut t = BprTrainer::new(&model, 10, 10, &train, &cfg);
        t.run_epoch(&mut model).expect("epoch");
        let good = t.checkpoint(&model);

        // Different config.
        let other_cfg = TrainConfig { lr: 0.5, ..cfg };
        let mut m2 = TinyMf::new(10, 10, 4, 9);
        assert!(matches!(
            BprTrainer::resume(&mut m2, 10, 10, &train, &other_cfg, &good),
            Err(TrainError::Ckpt(CkptError::StateMismatch { .. }))
        ));

        // Different interaction count.
        assert!(matches!(
            BprTrainer::resume(&mut m2, 10, 10, &train[1..], &cfg, &good),
            Err(TrainError::Ckpt(CkptError::StateMismatch { .. }))
        ));

        // Shape mismatch (different embedding dim).
        let mut wide = TinyMf::new(10, 10, 6, 9);
        assert!(matches!(
            BprTrainer::resume(&mut wide, 10, 10, &train, &cfg, &good),
            Err(TrainError::Ckpt(CkptError::ShapeMismatch { .. }))
        ));

        // Order that is not a permutation.
        let mut bad_order = good.clone();
        bad_order.order[0] = bad_order.order[1];
        assert!(matches!(
            BprTrainer::resume(&mut m2, 10, 10, &train, &cfg, &bad_order),
            Err(TrainError::Ckpt(CkptError::StateMismatch { .. }))
        ));
    }
}
