//! Divergence-recovering, checkpoint-backed training driver.
//!
//! [`train_bpr_resilient`] wraps the plain BPR loop with the fault-tolerance
//! policy a long paper-scale run needs (lr 1e-2 over 200 epochs diverges
//! occasionally, and a crash at epoch 199 must not lose the run):
//!
//! 1. after every `checkpoint_every`-th epoch the full training state is
//!    written atomically to the checkpoint directory;
//! 2. a non-finite loss ([`TrainError::Diverged`]) rolls the model back to
//!    the newest *loadable* checkpoint (corrupt/truncated files are skipped
//!    with typed errors, never panics), shrinks the learning rate by
//!    `lr_backoff`, and retries — up to `max_retries` times across the whole
//!    run (the count survives checkpoints);
//! 3. `resume = true` continues a previous run from its newest valid
//!    checkpoint, bit-exactly.

use std::fs;
use std::path::Path;
use std::time::Instant;

use pup_ckpt::chaos::FaultPlan;
use pup_ckpt::{store, CkptError};

use crate::common::ParamRegistry;
use crate::trainer::{BprModel, BprTrainer, RecoveryEvent, TrainConfig, TrainError, TrainStats};

/// How the resilient driver reacts to divergence and when it checkpoints.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Total divergence retries allowed across the run.
    pub max_retries: u32,
    /// Learning-rate multiplier applied per retry (`factor = backoff^retry`).
    pub lr_backoff: f64,
    /// Checkpoint after every N-th completed epoch (the final epoch is
    /// always checkpointed).
    pub checkpoint_every: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, lr_backoff: 0.1, checkpoint_every: 1 }
    }
}

/// Trains `model` with checkpointing and divergence recovery; see the
/// module docs for the policy. `resume = true` continues from the newest
/// valid checkpoint in `ckpt_dir` (starting fresh if there is none).
#[allow(clippy::too_many_arguments)]
pub fn train_bpr_resilient<M: BprModel + ParamRegistry + ?Sized>(
    model: &mut M,
    n_users: usize,
    n_items: usize,
    train: &[(usize, usize)],
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    ckpt_dir: &Path,
    resume: bool,
) -> Result<TrainStats, TrainError> {
    train_bpr_resilient_with_faults(
        model, n_users, n_items, train, cfg, policy, ckpt_dir, resume, None,
    )
}

/// [`train_bpr_resilient`] with a scripted [`FaultPlan`] installed — the
/// entry point the fault-injection tests drive. Production callers pass
/// `None` (or use the plain wrapper).
#[allow(clippy::too_many_arguments)]
pub fn train_bpr_resilient_with_faults<M: BprModel + ParamRegistry + ?Sized>(
    model: &mut M,
    n_users: usize,
    n_items: usize,
    train: &[(usize, usize)],
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    ckpt_dir: &Path,
    resume: bool,
    faults: Option<FaultPlan>,
) -> Result<TrainStats, TrainError> {
    assert!(policy.checkpoint_every > 0, "checkpoint_every must be at least 1");
    assert!(policy.lr_backoff > 0.0 && policy.lr_backoff <= 1.0, "lr_backoff must be in (0, 1]");
    let start = Instant::now();
    fs::create_dir_all(ckpt_dir).map_err(CkptError::from)?;

    let mut trainer = if resume {
        match store::load_latest(ckpt_dir) {
            Ok(latest) => {
                BprTrainer::resume(model, n_users, n_items, train, cfg, &latest.checkpoint)?
            }
            Err(CkptError::NoCheckpoint) => {
                fresh_with_initial_checkpoint(model, n_users, n_items, train, cfg, ckpt_dir)?
            }
            Err(e) => return Err(e.into()),
        }
    } else {
        fresh_with_initial_checkpoint(model, n_users, n_items, train, cfg, ckpt_dir)?
    };
    if let Some(plan) = faults {
        trainer.inject_faults(plan);
    }

    let mut recoveries = Vec::new();
    while trainer.completed_epochs() < cfg.epochs {
        match trainer.run_epoch(model) {
            Ok(_) => {
                let epoch = trainer.completed_epochs();
                if epoch % policy.checkpoint_every == 0 || epoch == cfg.epochs {
                    trainer
                        .save_checkpoint(model, &store::checkpoint_path(ckpt_dir, epoch as u64))?;
                }
            }
            Err(TrainError::Diverged { epoch, .. }) => {
                let retry = trainer.retries_used() + 1;
                if retry > policy.max_retries {
                    return Err(TrainError::RetriesExhausted {
                        epoch,
                        retries: trainer.retries_used(),
                    });
                }
                // Keep the (partially consumed) fault plan: a fault that
                // already fired must not re-fire on the replayed steps.
                let plan = trainer.take_faults();
                let latest = store::load_latest(ckpt_dir)?;
                let mut rolled =
                    BprTrainer::resume(model, n_users, n_items, train, cfg, &latest.checkpoint)?;
                // pup-lint: allow(as-cast-truncation) — exponent is a small bounded counter
                let lr_factor = policy.lr_backoff.powi(retry as i32);
                rolled.set_recovery(lr_factor, retry);
                if let Some(plan) = plan {
                    rolled.inject_faults(plan);
                }
                // Re-persist the rollback point with the updated recovery
                // bookkeeping, so a crash right now still remembers the
                // spent retries and the backed-off learning rate.
                rolled.save_checkpoint(
                    model,
                    &store::checkpoint_path(ckpt_dir, latest.checkpoint.epoch),
                )?;
                pup_obs::counter_add("train.recoveries", 1);
                pup_obs::gauge_set("train.lr_backoff_factor", lr_factor);
                recoveries.push(RecoveryEvent {
                    at_epoch: epoch,
                    rolled_back_to: latest.checkpoint.epoch as usize,
                    retry,
                    lr_factor,
                });
                trainer = rolled;
            }
            Err(other) => return Err(other),
        }
    }

    model.finalize();
    Ok(TrainStats {
        epoch_losses: trainer.epoch_losses().to_vec(),
        epoch_durations: trainer.epoch_durations().to_vec(),
        total_duration: start.elapsed(),
        recoveries,
    })
}

/// Starts a fresh trainer and immediately checkpoints the initial state, so
/// a divergence in epoch 0 has a rollback target.
fn fresh_with_initial_checkpoint<M: BprModel + ParamRegistry + ?Sized>(
    model: &M,
    n_users: usize,
    n_items: usize,
    train: &[(usize, usize)],
    cfg: &TrainConfig,
    ckpt_dir: &Path,
) -> Result<BprTrainer, TrainError> {
    let trainer = BprTrainer::new(model, n_users, n_items, train, cfg);
    trainer.save_checkpoint(model, &store::checkpoint_path(ckpt_dir, 0))?;
    Ok(trainer)
}
