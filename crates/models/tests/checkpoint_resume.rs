//! Bit-exact kill-and-resume through the on-disk checkpoint format.
//!
//! The acceptance bar from the issue: training N epochs straight vs.
//! training N/2, checkpointing to disk, dropping *all* process state, and
//! resuming into a differently-initialized model must produce identical
//! per-epoch losses and identical final parameter bytes — for PUP (whose
//! `begin_step` consumes trainer RNG for dropout) and BPR-MF.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pup_ckpt::store;
use pup_models::common::{ParamRegistry, TrainData};
use pup_models::trainer::{BprModel, BprTrainer, TrainConfig};
use pup_models::{BprMf, Pup, PupConfig, PupVariant};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pup-resume-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const N_USERS: usize = 6;
const PRICES: [usize; 8] = [0, 1, 2, 0, 1, 2, 0, 1];
const CATS: [usize; 8] = [0, 0, 1, 1, 0, 0, 1, 1];

fn train_pairs() -> Vec<(usize, usize)> {
    // Every user likes items sharing their parity, plus one cross pair.
    let mut train = Vec::new();
    for u in 0..N_USERS {
        for i in 0..PRICES.len() {
            if i % 2 == u % 2 {
                train.push((u, i));
            }
        }
    }
    train.push((0, 1));
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

fn param_bits<M: ParamRegistry>(model: &M) -> Vec<(String, Vec<u64>)> {
    model
        .named_params()
        .iter()
        .map(|np| {
            (np.name.clone(), np.var.value().as_slice().iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

fn loss_bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|x| x.to_bits()).collect()
}

/// Drives the straight-vs-interrupted comparison for any model: `build(seed)`
/// must construct the model from scratch (different seeds => different
/// init, proving the checkpoint alone determines the continuation).
fn assert_bit_exact_resume<M, F>(tag: &str, build: F)
where
    M: BprModel + ParamRegistry,
    F: Fn(u64) -> M,
{
    let train = train_pairs();
    let cfg = TrainConfig { epochs: 10, batch_size: 8, seed: 21, ..Default::default() };
    let n_items = PRICES.len();

    // Reference: 10 epochs straight through.
    let mut ref_model = build(9);
    let mut ref_trainer = BprTrainer::new(&ref_model, N_USERS, n_items, &train, &cfg);
    for _ in 0..10 {
        ref_trainer.run_epoch(&mut ref_model).expect("reference epoch");
    }
    let ref_losses = ref_trainer.epoch_losses().to_vec();
    let ref_params = param_bits(&ref_model);

    // Interrupted: 5 epochs, checkpoint to disk, drop everything.
    let dir = scratch_dir(tag);
    let ckpt_path = store::checkpoint_path(&dir, 5);
    {
        let mut model = build(9);
        let mut trainer = BprTrainer::new(&model, N_USERS, n_items, &train, &cfg);
        for _ in 0..5 {
            trainer.run_epoch(&mut model).expect("first-half epoch");
        }
        trainer.save_checkpoint(&model, &ckpt_path).expect("save checkpoint");
        // `model` and `trainer` drop here — the simulated kill.
    }

    // Resume into a model with a *different* init seed: every trained bit
    // must come from the checkpoint, not the constructor.
    let loaded = store::load(&ckpt_path).expect("load checkpoint");
    let mut model = build(4242);
    let mut trainer =
        BprTrainer::resume(&mut model, N_USERS, n_items, &train, &cfg, &loaded).expect("resume");
    assert_eq!(trainer.completed_epochs(), 5);
    for _ in 5..10 {
        trainer.run_epoch(&mut model).expect("second-half epoch");
    }

    assert_eq!(
        loss_bits(trainer.epoch_losses()),
        loss_bits(&ref_losses),
        "{tag}: per-epoch losses must be bit-identical"
    );
    let resumed_params = param_bits(&model);
    assert_eq!(resumed_params.len(), ref_params.len());
    for ((name_a, bits_a), (name_b, bits_b)) in resumed_params.iter().zip(&ref_params) {
        assert_eq!(name_a, name_b);
        assert_eq!(bits_a, bits_b, "{tag}: parameter `{name_a}` bytes differ after resume");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bprmf_resume_is_bit_exact() {
    let pairs = train_pairs();
    assert_bit_exact_resume("bprmf", move |seed| BprMf::new(&data(&pairs), 6, seed));
}

#[test]
fn pup_resume_is_bit_exact() {
    // Full PUP with dropout: `begin_step` consumes trainer RNG every batch,
    // so this also proves the RNG state round-trips through disk.
    let pairs = train_pairs();
    assert_bit_exact_resume("pup", move |seed| {
        let cfg = PupConfig {
            global_dim: 8,
            category_dim: 4,
            variant: PupVariant::Full,
            dropout: 0.1,
            seed,
            ..Default::default()
        };
        Pup::new(&data(&pairs), cfg)
    });
}

#[test]
fn resume_at_every_kill_epoch_matches_reference() {
    // Kill-at-any-epoch: for each k, save at epoch k, resume, finish, and
    // compare against the straight run. BPR-MF keeps this sweep fast.
    let train = train_pairs();
    let cfg = TrainConfig { epochs: 6, batch_size: 8, seed: 3, ..Default::default() };
    let n_items = PRICES.len();

    let mut ref_model = BprMf::new(&data(&train), 5, 9);
    let mut ref_trainer = BprTrainer::new(&ref_model, N_USERS, n_items, &train, &cfg);
    for _ in 0..6 {
        ref_trainer.run_epoch(&mut ref_model).expect("reference epoch");
    }
    let ref_losses = loss_bits(ref_trainer.epoch_losses());
    let ref_params = param_bits(&ref_model);

    for kill_at in 1..6 {
        let dir = scratch_dir(&format!("kill{kill_at}"));
        let path = store::checkpoint_path(&dir, kill_at as u64);
        {
            let mut model = BprMf::new(&data(&train), 5, 9);
            let mut trainer = BprTrainer::new(&model, N_USERS, n_items, &train, &cfg);
            for _ in 0..kill_at {
                trainer.run_epoch(&mut model).expect("epoch");
            }
            trainer.save_checkpoint(&model, &path).expect("save");
        }
        let loaded = store::load(&path).expect("load");
        let mut model = BprMf::new(&data(&train), 5, 1000 + kill_at as u64);
        let mut trainer = BprTrainer::resume(&mut model, N_USERS, n_items, &train, &cfg, &loaded)
            .expect("resume");
        while trainer.completed_epochs() < 6 {
            trainer.run_epoch(&mut model).expect("epoch");
        }
        assert_eq!(
            loss_bits(trainer.epoch_losses()),
            ref_losses,
            "kill at epoch {kill_at}: losses diverged"
        );
        assert_eq!(param_bits(&model), ref_params, "kill at epoch {kill_at}: params diverged");
        fs::remove_dir_all(&dir).ok();
    }
}
