//! Adversarial tests for the versioned model registry: publish/promote/
//! rollback life cycle, corrupt-manifest and corrupt-checkpoint handling,
//! generation-id monotonicity, kill-mid-pointer-flip recovery, and stale
//! tmp cleanup. Registry corruption must always degrade to a typed error
//! or a skipped generation — never a panic, never serving damaged bytes.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pup_ckpt::registry::{ModelRegistry, PromoteOutcome};
use pup_ckpt::store::clean_stale_tmps;
use pup_ckpt::{chaos, Checkpoint, CkptError, ConfigFingerprint, ParamBlob};
use pup_tensor::Matrix;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pup-registry-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sample_checkpoint(epoch: u64) -> Checkpoint {
    let emb = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.25 - 1.0 + epoch as f64);
    Checkpoint {
        epoch,
        lr_factor: 1.0,
        retries_used: 0,
        config: ConfigFingerprint {
            epochs: 10,
            batch_size: 4,
            negatives_per_positive: 1,
            seed: 42,
            lr_bits: 0.01f64.to_bits(),
            l2_bits: 1e-5f64.to_bits(),
            lr_decay: true,
        },
        epoch_losses: (0..epoch).map(|e| 0.7 - e as f64 * 0.01).collect(),
        order: vec![3, 0, 2, 1, 4],
        rng_state: [1, 2, 3, epoch + 1],
        params: vec![ParamBlob { name: "user.emb".to_string(), value: emb.clone() }],
        adam_t: epoch,
        adam_moments: vec![(emb.scale(0.01), emb.scale(0.001))],
    }
}

#[test]
fn publish_promote_rollback_lifecycle() {
    let dir = scratch_dir("lifecycle");
    let reg = ModelRegistry::open(&dir).expect("open");
    assert_eq!(reg.current().expect("current"), None);

    // First publish auto-promotes so a fleet always has a pointee.
    let g0 = reg.publish(&sample_checkpoint(1)).expect("publish g0");
    assert_eq!(g0.gen, 0);
    assert_eq!(reg.current().expect("current"), Some(0));

    // Later publishes do not move CURRENT by themselves.
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");
    assert_eq!(g1.gen, 1);
    assert_eq!(reg.current().expect("current"), Some(0));

    let listed = reg.list().expect("list");
    assert_eq!(listed.iter().map(|m| m.gen).collect::<Vec<_>>(), vec![0, 1]);
    assert_eq!(listed[1].epoch, 2);

    reg.promote(1).expect("promote");
    assert_eq!(reg.current().expect("current"), Some(1));

    // Rollback returns to the newest valid generation below CURRENT.
    assert_eq!(reg.rollback().expect("rollback"), 0);
    assert_eq!(reg.current().expect("current"), Some(0));
    assert!(
        matches!(reg.rollback(), Err(CkptError::StateMismatch { .. })),
        "nothing below generation 0 to roll back to"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn loaded_generation_is_bit_identical() {
    let dir = scratch_dir("bits");
    let reg = ModelRegistry::open(&dir).expect("open");
    let ckpt = sample_checkpoint(3);
    let m = reg.publish(&ckpt).expect("publish");
    let back = reg.load(m.gen).expect("load");
    assert_eq!(back.to_bytes(), ckpt.to_bytes(), "registry round-trip must be bitwise");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_fails_validation_and_promotion() {
    let dir = scratch_dir("corrupt-ckpt");
    let reg = ModelRegistry::open(&dir).expect("open");
    reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");

    reg.corrupt_generation_for_chaos(g1.gen).expect("corrupt");
    assert!(matches!(reg.validate(g1.gen), Err(CkptError::ChecksumMismatch { .. })));
    assert!(reg.promote(g1.gen).is_err(), "a damaged generation must not be promotable");
    assert_eq!(reg.current().expect("current"), Some(0), "CURRENT untouched by failed promote");
    // The undamaged generation still validates and loads.
    assert!(reg.validate(0).is_ok());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_checkpoint_is_reported_against_its_manifest() {
    let dir = scratch_dir("truncated");
    let reg = ModelRegistry::open(&dir).expect("open");
    let m = reg.publish(&sample_checkpoint(1)).expect("publish");
    chaos::truncate_to(&reg.checkpoint_path(m.gen), 16).expect("truncate");
    assert!(matches!(reg.validate(m.gen), Err(CkptError::Truncated { .. })));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_manifest_hides_generation_but_never_reuses_its_id() {
    let dir = scratch_dir("corrupt-manifest");
    let reg = ModelRegistry::open(&dir).expect("open");
    reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");

    chaos::flip_byte(&reg.manifest_path(g1.gen), 20).expect("flip");
    let listed = reg.list().expect("list");
    assert_eq!(listed.iter().map(|m| m.gen).collect::<Vec<_>>(), vec![0]);
    assert!(reg.validate(g1.gen).is_err());

    // The next publish must skip the damaged id: ids are never reused.
    let g2 = reg.publish(&sample_checkpoint(3)).expect("publish g2");
    assert_eq!(g2.gen, 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_generation_is_a_typed_error() {
    let dir = scratch_dir("unknown");
    let reg = ModelRegistry::open(&dir).expect("open");
    assert!(matches!(reg.validate(7), Err(CkptError::UnknownGeneration { gen: 7 })));
    assert!(matches!(reg.load(7), Err(CkptError::UnknownGeneration { gen: 7 })));
    assert!(reg.promote(7).is_err());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_pointer_flip_keeps_old_generation_current() {
    let dir = scratch_dir("kill-flip");
    let reg = ModelRegistry::open(&dir).expect("open");
    reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");

    let outcome = reg.promote_chaos(g1.gen, true).expect("promote under kill");
    assert_eq!(outcome, PromoteOutcome::KilledMidFlip);
    assert_eq!(reg.current().expect("current"), Some(0), "rename never happened");
    assert!(dir.join("CURRENT.tmp").exists(), "the staged pointer survives the crash");

    // "Restart": reopening the registry cleans the dropping and the old
    // generation is still what a server resolves.
    let reg = ModelRegistry::open(&dir).expect("reopen");
    assert!(!dir.join("CURRENT.tmp").exists(), "stale tmp removed on open");
    assert_eq!(reg.serving_generation().expect("serving").gen, 0);

    // The interrupted promotion can simply be retried.
    assert_eq!(reg.promote_chaos(g1.gen, false).expect("retry"), PromoteOutcome::Flipped);
    assert_eq!(reg.current().expect("current"), Some(1));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_generation_survives_corrupt_pointer_and_corrupt_current() {
    let dir = scratch_dir("serving");
    let reg = ModelRegistry::open(&dir).expect("open");
    reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");
    reg.promote(g1.gen).expect("promote");

    // Corrupt pointer: strict read errors, robust resolution falls back to
    // the newest valid generation.
    chaos::flip_byte(&dir.join("CURRENT"), 10).expect("flip pointer");
    assert!(reg.current().is_err());
    assert_eq!(reg.serving_generation().expect("serving").gen, 1);

    // Repair the pointer, then damage the current generation itself: the
    // resolver degrades to the older valid one.
    reg.promote(g1.gen).expect("re-promote");
    reg.corrupt_generation_for_chaos(g1.gen).expect("corrupt g1");
    assert_eq!(reg.serving_generation().expect("serving").gen, 0);

    // Damage everything: typed NoCheckpoint, not a panic.
    reg.corrupt_generation_for_chaos(0).expect("corrupt g0");
    assert!(matches!(reg.serving_generation(), Err(CkptError::NoCheckpoint)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_cleans_stale_tmps_but_spares_foreign_files() {
    let dir = scratch_dir("tmps");
    fs::write(dir.join("gen-000003.pupckpt.tmp"), b"half a checkpoint").expect("stage");
    fs::write(dir.join("gen-000003.gen.tmp"), b"half a manifest").expect("stage");
    fs::write(dir.join("CURRENT.tmp"), b"half a pointer").expect("stage");
    fs::write(dir.join("notes.tmp"), b"someone else's file").expect("stranger");

    let reg = ModelRegistry::open(&dir).expect("open");
    assert!(!dir.join("gen-000003.pupckpt.tmp").exists());
    assert!(!dir.join("gen-000003.gen.tmp").exists());
    assert!(!dir.join("CURRENT.tmp").exists());
    assert!(dir.join("notes.tmp").exists(), "foreign tmp files are not ours to delete");

    // The half-published generation never committed, but its id is burned.
    assert!(reg.list().expect("list").is_empty());
    let half = reg.publish(&sample_checkpoint(1)).expect("publish");
    assert_eq!(half.gen, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_stale_tmps_reports_what_it_removed() {
    let dir = scratch_dir("clean");
    fs::write(dir.join("ckpt-000009.pupckpt.tmp"), b"dropping").expect("stage");
    fs::write(dir.join("keep.txt"), b"data").expect("keep");
    let removed = clean_stale_tmps(&dir).expect("clean");
    assert_eq!(removed.len(), 1);
    assert!(removed[0].ends_with("ckpt-000009.pupckpt.tmp"));
    assert!(dir.join("keep.txt").exists());
    assert!(clean_stale_tmps(&dir.join("missing")).expect("missing dir").is_empty());
    fs::remove_dir_all(&dir).ok();
}
