//! Adversarial tests for the checkpoint wire format and the atomic store:
//! bitwise roundtrip, exhaustive truncation and byte-flip sweeps (every
//! damaged file must yield a typed error, never a panic), and corrupt-latest
//! fallback in the store.

#![allow(clippy::expect_used)]

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pup_ckpt::store::{checkpoint_path, list_checkpoints, load, load_latest, save_atomic};
use pup_ckpt::{chaos, Checkpoint, CkptError, ConfigFingerprint, ParamBlob, MAGIC};
use pup_tensor::Matrix;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pup-ckpt-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sample_checkpoint() -> Checkpoint {
    let emb = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.25 - 1.0);
    let bias = Matrix::from_vec(1, 3, vec![0.5, -0.5, f64::MIN_POSITIVE]);
    Checkpoint {
        epoch: 2,
        lr_factor: 0.1,
        retries_used: 1,
        config: ConfigFingerprint {
            epochs: 10,
            batch_size: 4,
            negatives_per_positive: 1,
            seed: 42,
            lr_bits: 0.01f64.to_bits(),
            l2_bits: 1e-5f64.to_bits(),
            lr_decay: true,
        },
        epoch_losses: vec![0.693, 0.641],
        order: vec![3, 0, 2, 1, 4],
        rng_state: [1, 2, 3, 4],
        params: vec![
            ParamBlob { name: "user.emb".to_string(), value: emb.clone() },
            ParamBlob { name: "item.bias".to_string(), value: bias.clone() },
        ],
        adam_t: 11,
        adam_moments: vec![
            (emb.scale(0.01), emb.scale(0.001)),
            (bias.scale(0.01), bias.scale(0.001)),
        ],
    }
}

fn assert_matrix_bits_eq(a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "matrix payload changed: {x} vs {y}");
    }
}

#[test]
fn roundtrip_is_bitwise_exact() {
    let ckpt = sample_checkpoint();
    let bytes = ckpt.to_bytes();
    let back = Checkpoint::from_bytes(&bytes).expect("roundtrip");

    assert_eq!(back.epoch, ckpt.epoch);
    assert_eq!(back.lr_factor.to_bits(), ckpt.lr_factor.to_bits());
    assert_eq!(back.retries_used, ckpt.retries_used);
    assert_eq!(back.config, ckpt.config);
    assert_eq!(back.order, ckpt.order);
    assert_eq!(back.rng_state, ckpt.rng_state);
    assert_eq!(back.adam_t, ckpt.adam_t);
    let loss_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(loss_bits(&back.epoch_losses), loss_bits(&ckpt.epoch_losses));
    assert_eq!(back.params.len(), ckpt.params.len());
    for (a, b) in back.params.iter().zip(&ckpt.params) {
        assert_eq!(a.name, b.name);
        assert_matrix_bits_eq(&a.value, &b.value);
    }
    for ((am, av), (bm, bv)) in back.adam_moments.iter().zip(&ckpt.adam_moments) {
        assert_matrix_bits_eq(am, bm);
        assert_matrix_bits_eq(av, bv);
    }
    // Encoding is deterministic: same checkpoint, same bytes.
    assert_eq!(bytes, back.to_bytes());
}

#[test]
fn nan_and_infinity_losses_survive_roundtrip() {
    // A checkpoint taken right before divergence detection may hold extreme
    // values; the format must carry them verbatim.
    let mut ckpt = sample_checkpoint();
    ckpt.params[0].value = Matrix::from_vec(1, 3, vec![f64::NAN, f64::INFINITY, -0.0]);
    ckpt.adam_moments[0] =
        (Matrix::from_vec(1, 3, vec![0.0; 3]), Matrix::from_vec(1, 3, vec![0.0; 3]));
    let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip");
    let got = back.params[0].value.as_slice();
    assert!(got[0].is_nan());
    assert_eq!(got[1], f64::INFINITY);
    assert_eq!(got[2].to_bits(), (-0.0f64).to_bits());
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = sample_checkpoint().to_bytes();
    for len in 0..bytes.len() {
        let err = Checkpoint::from_bytes(&bytes[..len])
            .expect_err(&format!("prefix of {len}/{} bytes must not parse", bytes.len()));
        // Any typed error is acceptable; reaching here at all proves no panic.
        match err {
            CkptError::Truncated { .. }
            | CkptError::ChecksumMismatch { .. }
            | CkptError::Corrupt { .. }
            | CkptError::BadMagic { .. }
            | CkptError::UnsupportedVersion(_) => {}
            other => panic!("unexpected error class for prefix {len}: {other}"),
        }
    }
}

#[test]
fn every_byte_flip_is_detected() {
    let bytes = sample_checkpoint().to_bytes();
    for offset in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0xFF;
        assert!(
            Checkpoint::from_bytes(&damaged).is_err(),
            "flip at byte {offset}/{} went undetected",
            bytes.len()
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_checkpoint().to_bytes();
    bytes.extend_from_slice(b"junk");
    assert!(matches!(Checkpoint::from_bytes(&bytes), Err(CkptError::Corrupt { .. })));
}

#[test]
fn bad_magic_and_bad_version_are_reported_precisely() {
    let good = sample_checkpoint().to_bytes();

    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        Checkpoint::from_bytes(&wrong_magic),
        Err(CkptError::BadMagic { found }) if found[0] == b'X' && found[1..] == MAGIC[1..]
    ));

    let mut future_version = good;
    future_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&future_version),
        Err(CkptError::UnsupportedVersion(99))
    ));
}

#[test]
fn save_load_roundtrips_through_disk() {
    let dir = scratch_dir("saveload");
    let path = checkpoint_path(&dir, 7);
    let ckpt = sample_checkpoint();
    save_atomic(&ckpt, &path).expect("save");
    let back = load(&path).expect("load");
    assert_eq!(back.epoch, ckpt.epoch);
    assert_eq!(back.order, ckpt.order);
    assert!(
        !dir.join("ckpt-000007.pupckpt.tmp").exists(),
        "temporary file must not survive a successful save"
    );
    // Overwriting an existing checkpoint also goes through the tmp+rename path.
    save_atomic(&ckpt, &path).expect("overwrite");
    assert!(load(&path).is_ok());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_checkpoints_orders_by_epoch_and_ignores_strangers() {
    let dir = scratch_dir("list");
    for epoch in [3u64, 0, 11] {
        save_atomic(&sample_checkpoint(), &checkpoint_path(&dir, epoch)).expect("save");
    }
    fs::write(dir.join("notes.txt"), b"not a checkpoint").expect("write stranger");
    fs::write(dir.join("ckpt-abc.pupckpt"), b"bad name").expect("write stranger");
    let found = list_checkpoints(&dir).expect("list");
    let epochs: Vec<u64> = found.iter().map(|(e, _)| *e).collect();
    assert_eq!(epochs, vec![0, 3, 11]);
    assert!(list_checkpoints(&dir.join("missing")).expect("missing dir is empty").is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_latest_falls_back_past_corrupt_files() {
    let dir = scratch_dir("fallback");
    let mut older = sample_checkpoint();
    older.epoch = 2;
    older.epoch_losses = vec![0.7, 0.6];
    let mut newer = sample_checkpoint();
    newer.epoch = 4;
    newer.epoch_losses = vec![0.7, 0.6, 0.5, 0.4];
    save_atomic(&older, &checkpoint_path(&dir, 2)).expect("save older");
    save_atomic(&newer, &checkpoint_path(&dir, 4)).expect("save newer");

    // Undamaged: the newest wins.
    let latest = load_latest(&dir).expect("latest");
    assert_eq!(latest.checkpoint.epoch, 4);
    assert!(latest.rejected.is_empty());

    // Corrupt the newest: fall back to the older one, reporting the reject.
    chaos::flip_byte(&checkpoint_path(&dir, 4), 30).expect("flip");
    let latest = load_latest(&dir).expect("fallback");
    assert_eq!(latest.checkpoint.epoch, 2);
    assert_eq!(latest.rejected.len(), 1);
    assert!(matches!(latest.rejected[0].1, CkptError::ChecksumMismatch { .. }));

    // Truncate the older one too: nothing valid remains.
    chaos::truncate_to(&checkpoint_path(&dir, 2), 10).expect("truncate");
    assert!(matches!(load_latest(&dir), Err(CkptError::NoCheckpoint)));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_latest_falls_back_past_truncated_files() {
    let dir = scratch_dir("truncfallback");
    let mut older = sample_checkpoint();
    older.epoch = 2;
    older.epoch_losses = vec![0.7, 0.6];
    let mut newer = sample_checkpoint();
    newer.epoch = 4;
    newer.epoch_losses = vec![0.7, 0.6, 0.5, 0.4];
    save_atomic(&older, &checkpoint_path(&dir, 2)).expect("save older");
    save_atomic(&newer, &checkpoint_path(&dir, 4)).expect("save newer");

    // A crash mid-write would normally only hurt the tmp file, but a torn
    // download or failing disk can truncate the final name too.
    chaos::truncate_to(&checkpoint_path(&dir, 4), 25).expect("truncate");
    let latest = load_latest(&dir).expect("fallback");
    assert_eq!(latest.checkpoint.epoch, 2);
    assert_eq!(latest.rejected.len(), 1);
    assert!(matches!(latest.rejected[0].1, CkptError::Truncated { .. }));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_latest_ignores_and_cleans_stale_tmps() {
    let dir = scratch_dir("staletmp");
    save_atomic(&sample_checkpoint(), &checkpoint_path(&dir, 2)).expect("save");
    // A killed save_atomic leaves a half-written tmp next to the real file.
    fs::write(dir.join("ckpt-000003.pupckpt.tmp"), b"half-written").expect("stage tmp");
    fs::write(dir.join("notes.tmp"), b"foreign").expect("stranger");

    // Discovery never even considers the tmp (wrong suffix)...
    let listed = list_checkpoints(&dir).expect("list");
    assert_eq!(listed.len(), 1);
    // ...and load_latest removes it as a best-effort cleanup pass, leaving
    // files it did not stage alone.
    let latest = load_latest(&dir).expect("load");
    assert_eq!(latest.checkpoint.epoch, sample_checkpoint().epoch);
    assert!(latest.rejected.is_empty(), "a tmp dropping is not a rejected checkpoint");
    assert!(!dir.join("ckpt-000003.pupckpt.tmp").exists(), "stale tmp cleaned");
    assert!(dir.join("notes.tmp").exists(), "foreign tmp spared");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_plan_fires_each_step_once() {
    let mut plan = chaos::FaultPlan::nan_at_steps([5, 2, 5, 9]);
    assert_eq!(plan.pending(), 3, "duplicates collapse");
    assert!(!plan.fire_nan(0));
    assert!(plan.fire_nan(2));
    assert!(!plan.fire_nan(2), "a fault must fire at most once");
    assert!(plan.fire_nan(5));
    assert!(plan.fire_nan(9));
    assert_eq!(plan.pending(), 0);
    assert_eq!(chaos::FaultPlan::none().pending(), 0);
}

#[test]
fn chaos_helpers_validate_their_inputs() {
    let dir = scratch_dir("chaos");
    let path = checkpoint_path(&dir, 0);
    save_atomic(&sample_checkpoint(), &path).expect("save");
    let size = fs::metadata(&path).expect("stat").len() as usize;
    assert!(matches!(chaos::flip_byte(&path, size), Err(CkptError::Corrupt { .. })));
    assert!(matches!(chaos::truncate_to(&path, size + 1), Err(CkptError::Corrupt { .. })));
    assert!(load(&path).is_ok(), "failed chaos calls must leave the file intact");
    fs::remove_dir_all(&dir).ok();
}
