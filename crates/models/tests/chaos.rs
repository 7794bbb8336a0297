//! Fault-injection suite for the divergence-recovery driver: scripted NaN
//! losses trigger rollback + learning-rate backoff, corrupted checkpoint
//! files degrade to the previous good one with typed errors (never a
//! panic), and a retry budget that runs dry surfaces as
//! `TrainError::RetriesExhausted`.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pup_ckpt::chaos::{self, FaultPlan};
use pup_ckpt::{store, CkptError};
use pup_models::common::TrainData;
use pup_models::trainer::{BprTrainer, TrainConfig, TrainError};
use pup_models::{train_bpr_resilient, train_bpr_resilient_with_faults, BprMf, RecoveryPolicy};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pup-chaos-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const N_USERS: usize = 6;
const PRICES: [usize; 8] = [0, 1, 2, 0, 1, 2, 0, 1];
const CATS: [usize; 8] = [0, 0, 1, 1, 0, 0, 1, 1];

fn train_pairs() -> Vec<(usize, usize)> {
    let mut train = Vec::new();
    for u in 0..N_USERS {
        for i in 0..PRICES.len() {
            if i % 2 == u % 2 {
                train.push((u, i));
            }
        }
    }
    train
}

fn data(train: &[(usize, usize)]) -> TrainData<'_> {
    TrainData {
        n_users: N_USERS,
        n_items: PRICES.len(),
        n_categories: 2,
        n_price_levels: 3,
        item_price_level: &PRICES,
        item_category: &CATS,
        train,
    }
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig { epochs, batch_size: 8, seed: 7, ..Default::default() }
}

#[test]
fn injected_nan_triggers_rollback_backoff_and_finite_completion() {
    let train = train_pairs();
    let dir = scratch_dir("nan");
    let mut model = BprMf::new(&data(&train), 5, 11);
    // 24 pairs / batch 8 = 3 steps per epoch; step 7 is inside epoch 2.
    let stats = train_bpr_resilient_with_faults(
        &mut model,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(6),
        &RecoveryPolicy::default(),
        &dir,
        false,
        Some(FaultPlan::nan_at_steps([7])),
    )
    .expect("recovery must complete the run");

    assert_eq!(stats.epoch_losses.len(), 6, "the full epoch budget must complete");
    assert!(stats.epoch_losses.iter().all(|l| l.is_finite()), "losses: {:?}", stats.epoch_losses);
    assert_eq!(stats.recoveries.len(), 1, "exactly one rollback expected");
    let rec = &stats.recoveries[0];
    assert_eq!(rec.at_epoch, 2, "step 7 falls in epoch 2");
    assert_eq!(rec.rolled_back_to, 2, "newest good checkpoint is after epoch 2's predecessor");
    assert_eq!(rec.retry, 1);
    assert_eq!(rec.lr_factor.to_bits(), 0.1f64.to_bits(), "one retry = one x0.1 backoff");
    // The re-persisted rollback checkpoint remembers the recovery state.
    let latest = store::load_latest(&dir).expect("checkpoints exist");
    assert_eq!(latest.checkpoint.retries_used, 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_latest_checkpoint_falls_back_to_previous_good_on_resume() {
    let train = train_pairs();
    let total = 6usize;

    // Reference: the same seed straight through, no interruptions.
    let mut ref_model = BprMf::new(&data(&train), 5, 11);
    let mut ref_trainer = BprTrainer::new(&ref_model, N_USERS, PRICES.len(), &train, &cfg(total));
    for _ in 0..total {
        ref_trainer.run_epoch(&mut ref_model).expect("reference epoch");
    }
    let ref_losses: Vec<u64> = ref_trainer.epoch_losses().iter().map(|x| x.to_bits()).collect();

    // Interrupted run: checkpoint after every epoch, killed after epoch 3.
    let dir = scratch_dir("fallback");
    {
        let mut model = BprMf::new(&data(&train), 5, 11);
        let mut trainer = BprTrainer::new(&model, N_USERS, PRICES.len(), &train, &cfg(total));
        for e in 1..=3u64 {
            trainer.run_epoch(&mut model).expect("epoch");
            trainer.save_checkpoint(&model, &store::checkpoint_path(&dir, e)).expect("save");
        }
    }

    // The newest checkpoint (epoch 3) was torn mid-write; the epoch-2 one
    // is intact. The typed rejection is observable via the store...
    chaos::truncate_to(&store::checkpoint_path(&dir, 3), 40).expect("truncate");
    let latest = store::load_latest(&dir).expect("fallback");
    assert_eq!(latest.checkpoint.epoch, 2);
    assert_eq!(latest.rejected.len(), 1);
    assert!(matches!(latest.rejected[0].1, CkptError::Truncated { .. }));

    // ...and the resilient driver resumes from epoch 2 and still reproduces
    // the reference run bit-exactly (epoch 3 is simply recomputed).
    let mut model = BprMf::new(&data(&train), 5, 999);
    let stats = train_bpr_resilient(
        &mut model,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(total),
        &RecoveryPolicy::default(),
        &dir,
        true,
    )
    .expect("resume past the corrupt file");
    let losses: Vec<u64> = stats.epoch_losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(losses, ref_losses, "fallback resume must still be bit-exact");
    assert!(stats.recoveries.is_empty(), "corruption fallback is not a divergence retry");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_checkpoint_is_rejected_with_typed_error() {
    let train = train_pairs();
    let dir = scratch_dir("flip");
    {
        let mut model = BprMf::new(&data(&train), 5, 11);
        let mut trainer = BprTrainer::new(&model, N_USERS, PRICES.len(), &train, &cfg(2));
        trainer.run_epoch(&mut model).expect("epoch");
        trainer.save_checkpoint(&model, &store::checkpoint_path(&dir, 1)).expect("save");
    }
    let path = store::checkpoint_path(&dir, 1);
    chaos::flip_byte(&path, 100).expect("flip");
    assert!(matches!(store::load(&path), Err(CkptError::ChecksumMismatch { .. })));
    // With no valid file left, resuming reports NoCheckpoint-driven fresh
    // start rather than panicking.
    let mut model = BprMf::new(&data(&train), 5, 11);
    let stats = train_bpr_resilient(
        &mut model,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(2),
        &RecoveryPolicy::default(),
        &dir,
        true,
    )
    .expect("fresh start behind the corrupt file");
    assert_eq!(stats.epoch_losses.len(), 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn retry_budget_exhaustion_is_a_typed_error() {
    let train = train_pairs();
    let dir = scratch_dir("exhaust");
    let mut model = BprMf::new(&data(&train), 5, 11);
    let policy = RecoveryPolicy { max_retries: 1, ..Default::default() };
    // Two faults: the first consumes the only retry, the second is fatal.
    let err = train_bpr_resilient_with_faults(
        &mut model,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(4),
        &policy,
        &dir,
        false,
        Some(FaultPlan::nan_at_steps([1, 2])),
    )
    .expect_err("two divergences cannot fit in a one-retry budget");
    match err {
        TrainError::RetriesExhausted { retries, .. } => assert_eq!(retries, 1),
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resilient_run_without_faults_matches_plain_training() {
    let train = train_pairs();
    let dir = scratch_dir("clean");

    let mut plain = BprMf::new(&data(&train), 5, 11);
    let plain_stats = pup_models::train_bpr(&mut plain, N_USERS, PRICES.len(), &train, &cfg(4))
        .expect("plain training");

    let mut resilient = BprMf::new(&data(&train), 5, 11);
    let resilient_stats = train_bpr_resilient(
        &mut resilient,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(4),
        &RecoveryPolicy::default(),
        &dir,
        false,
    )
    .expect("resilient training");

    let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&plain_stats.epoch_losses),
        bits(&resilient_stats.epoch_losses),
        "checkpointing must not perturb the trajectory"
    );
    assert!(resilient_stats.recoveries.is_empty());
    // One checkpoint per epoch plus the initial epoch-0 one.
    assert_eq!(store::list_checkpoints(&dir).expect("list").len(), 5);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_finished_run_is_a_noop_with_full_history() {
    let train = train_pairs();
    let dir = scratch_dir("finished");
    let mut model = BprMf::new(&data(&train), 5, 11);
    let first = train_bpr_resilient(
        &mut model,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(3),
        &RecoveryPolicy::default(),
        &dir,
        false,
    )
    .expect("first run");

    let mut again = BprMf::new(&data(&train), 5, 999);
    let second = train_bpr_resilient(
        &mut again,
        N_USERS,
        PRICES.len(),
        &train,
        &cfg(3),
        &RecoveryPolicy::default(),
        &dir,
        true,
    )
    .expect("resume of a finished run");
    let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first.epoch_losses), bits(&second.epoch_losses));
}
