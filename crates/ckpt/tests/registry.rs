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

// --- error parity: one read, one hash pass, one decode ----------------------

/// FNV-1a 64, the hash of the checkpoint trailer and the manifest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Manifest byte offsets (see the `registry` module docs): the checkpoint
/// length and checksum fields, and the frame length.
const MANIFEST_CKPT_LEN: usize = 28;
const MANIFEST_CKPT_SUM: usize = 36;
const MANIFEST_LEN: usize = 101;
/// Checkpoint header (magic, version, payload length) and trailer lengths.
const CKPT_HEADER: usize = 20;
const CKPT_TRAILER: usize = 8;

/// Rewrites generation `gen`'s manifest so it vouches for `ckpt` (its
/// length and checksum), with a valid manifest trailer. The damaged file
/// then passes the manifest checks and the checkpoint's own checks decide.
fn reseal_manifest(reg: &ModelRegistry, gen: u64, ckpt: &[u8]) {
    let path = reg.manifest_path(gen);
    let mut m = fs::read(&path).expect("read manifest");
    assert_eq!(m.len(), MANIFEST_LEN);
    m[MANIFEST_CKPT_LEN..MANIFEST_CKPT_LEN + 8].copy_from_slice(&(ckpt.len() as u64).to_le_bytes());
    m[MANIFEST_CKPT_SUM..MANIFEST_CKPT_SUM + 8].copy_from_slice(&fnv1a(ckpt).to_le_bytes());
    let sum = fnv1a(&m[..MANIFEST_LEN - 8]);
    m[MANIFEST_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, m).expect("write manifest");
}

/// Rewrites a checkpoint's trailer to match its (possibly damaged) body.
fn reseal_trailer(ckpt: &mut [u8]) {
    let split = ckpt.len() - CKPT_TRAILER;
    let sum = fnv1a(&ckpt[..split]);
    ckpt[split..].copy_from_slice(&sum.to_le_bytes());
}

/// The two-step path `load` replaced, for inputs that pass the manifest
/// checks: `Checkpoint::from_bytes` hashes and decodes on its own, then the
/// payload must agree with the manifest's config and epoch.
fn two_step_decode(bytes: &[u8], want: &Checkpoint) -> Result<Checkpoint, CkptError> {
    let ckpt = Checkpoint::from_bytes(bytes)?;
    if ckpt.config != want.config || ckpt.epoch != want.epoch {
        return Err(CkptError::StateMismatch {
            what: "generation 1 payload disagrees with its manifest".to_string(),
        });
    }
    Ok(ckpt)
}

/// Writes `bytes` as generation 1's checkpoint and requires `validate`,
/// `load` and `promote` to agree with `expected`: the same typed error
/// (compared by its debug form), or success with `load` returning the
/// checkpoint decoded from exactly these bytes.
fn assert_all_paths(
    reg: &ModelRegistry,
    bytes: &[u8],
    expected: &Result<Checkpoint, CkptError>,
    case: &str,
) {
    fs::write(reg.checkpoint_path(1), bytes).expect("write damaged checkpoint");
    let debug = |r: Result<(), CkptError>| format!("{:?}", r.err());
    let want = format!("{:?}", expected.as_ref().err());
    assert_eq!(debug(reg.validate(1).map(|_| ())), want, "validate, {case}");
    let loaded = reg.load(1);
    if let (Ok(got), Ok(exp)) = (&loaded, expected) {
        assert_eq!(got.to_bytes(), exp.to_bytes(), "load, {case}");
    }
    assert_eq!(debug(loaded.map(|_| ())), want, "load, {case}");
    assert_eq!(debug(reg.promote(1)), want, "promote, {case}");
    let current = if expected.is_ok() { 1 } else { 0 };
    assert_eq!(reg.current().expect("current"), Some(current), "CURRENT, {case}");
    if current == 1 {
        reg.promote(0).expect("restore CURRENT");
    }
}

#[test]
fn damaged_generation_errors_are_the_same_on_every_path() {
    let dir = scratch_dir("parity");
    let reg = ModelRegistry::open(&dir).expect("open");
    reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let want = sample_checkpoint(3);
    let g1 = reg.publish(&want).expect("publish g1");
    let good = fs::read(reg.checkpoint_path(1)).expect("read g1");
    let full = good.len();
    assert_eq!(g1.ckpt_len, full as u64);
    let read_u64 =
        |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"));

    // Against the published manifest: a short file fails the length check,
    // and any flipped byte fails the whole-file checksum.
    for len in 0..full {
        let expected = Err(CkptError::Truncated { expected: full, found: len });
        assert_all_paths(&reg, &good[..len], &expected, &format!("truncated to {len}"));
    }
    for at in 0..full {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        let expected =
            Err(CkptError::ChecksumMismatch { expected: g1.ckpt_checksum, found: fnv1a(&bad) });
        assert_all_paths(&reg, &bad, &expected, &format!("byte {at} flipped"));
    }

    // Against a manifest resealed to the damaged file: the checkpoint's
    // frame and trailer decide. A short file is short of its header, then
    // of its declared payload.
    for len in 0..full {
        reseal_manifest(&reg, 1, &good[..len]);
        let expected =
            if len < CKPT_HEADER + CKPT_TRAILER { CKPT_HEADER + CKPT_TRAILER } else { full };
        let expected = Err(CkptError::Truncated { expected, found: len });
        assert_all_paths(&reg, &good[..len], &expected, &format!("resealed, truncated to {len}"));
    }
    for at in 0..full {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        reseal_manifest(&reg, 1, &bad);
        let split = full - CKPT_TRAILER;
        let expected = match at {
            0..8 => {
                let mut found = [0u8; 8];
                found.copy_from_slice(&bad[..8]);
                CkptError::BadMagic { found }
            }
            8..12 => CkptError::UnsupportedVersion(u32::from_le_bytes(
                bad[8..12].try_into().expect("four bytes"),
            )),
            12..20 => {
                let declared = (CKPT_HEADER + CKPT_TRAILER) as u64 + read_u64(&bad, 12);
                if declared > full as u64 {
                    CkptError::Truncated {
                        expected: usize::try_from(declared).expect("fits"),
                        found: full,
                    }
                } else {
                    CkptError::Corrupt {
                        what: format!("{} trailing bytes after checksum", full as u64 - declared),
                    }
                }
            }
            _ => CkptError::ChecksumMismatch {
                expected: fnv1a(&bad[..split]),
                found: read_u64(&bad, split),
            },
        };
        assert_all_paths(&reg, &bad, &Err(expected), &format!("resealed, byte {at} flipped"));
    }

    // With the trailer resealed too, the payload decode and the manifest
    // agreement decide: the same outcome as the two-step path.
    let (mut ok, mut failed) = (0, 0);
    for at in CKPT_HEADER..full - CKPT_TRAILER {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        reseal_trailer(&mut bad);
        reseal_manifest(&reg, 1, &bad);
        let expected = two_step_decode(&bad, &want);
        if expected.is_ok() {
            ok += 1;
        } else {
            failed += 1;
        }
        assert_all_paths(&reg, &bad, &expected, &format!("payload byte {at} flipped"));
    }
    assert!(ok > 0 && failed > 0, "payload flips must both decode and fail ({ok} / {failed})");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_load_records_one_timing_and_its_bytes_once() {
    let dir = scratch_dir("telemetry");
    let reg = ModelRegistry::open(&dir).expect("open");
    let m = reg.publish(&sample_checkpoint(2)).expect("publish");
    pup_obs::start();
    reg.validate(m.gen).expect("validate");
    let validated = pup_obs::finish();
    pup_obs::start();
    reg.load(m.gen).expect("load");
    let loaded = pup_obs::finish();
    assert_eq!(validated.hist("io.ckpt_load").map(|h| h.count), None, "validate loads nothing");
    assert_eq!(validated.counter("ckpt.bytes_read"), None);
    assert_eq!(loaded.hist("io.ckpt_load").map(|h| h.count), Some(1), "one timed load");
    assert_eq!(loaded.counter("ckpt.bytes_read"), Some(m.ckpt_len), "the file, counted once");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_serving_falls_back_like_serving_generation_and_reads_one_file() {
    let dir = scratch_dir("load-serving");
    let reg = ModelRegistry::open(&dir).expect("open");
    let g0 = reg.publish(&sample_checkpoint(1)).expect("publish g0");
    let g1 = reg.publish(&sample_checkpoint(2)).expect("publish g1");
    let g2 = reg.publish(&sample_checkpoint(3)).expect("publish g2");
    reg.promote(g1.gen).expect("promote g1");

    // Returns what serving_generation then load return, with one timed
    // load and the bytes of one file.
    let load_serving = |want: &pup_ckpt::registry::GenerationManifest, epoch| {
        assert_eq!(reg.serving_generation().expect("serving"), *want);
        pup_obs::start();
        let (m, ckpt) = reg.load_serving().expect("load serving");
        let obs = pup_obs::finish();
        assert_eq!(m, *want);
        assert_eq!(ckpt.to_bytes(), sample_checkpoint(epoch).to_bytes());
        assert_eq!(obs.hist("io.ckpt_load").map(|h| h.count), Some(1), "one timed load");
        assert_eq!(obs.counter("ckpt.bytes_read"), Some(want.ckpt_len), "one file's bytes");
    };
    // CURRENT wins over the newer generation 2.
    load_serving(&g1, 2);
    // A corrupt CURRENT generation falls back to the newest valid one.
    reg.corrupt_generation_for_chaos(g1.gen).expect("corrupt g1");
    load_serving(&g2, 3);
    // So does a corrupt pointer.
    reg.promote(g0.gen).expect("promote g0");
    chaos::flip_byte(&dir.join("CURRENT"), 10).expect("flip pointer");
    load_serving(&g2, 3);
    reg.corrupt_generation_for_chaos(g2.gen).expect("corrupt g2");
    load_serving(&g0, 1);

    // Nothing valid left: the same typed error.
    reg.corrupt_generation_for_chaos(g0.gen).expect("corrupt g0");
    assert!(matches!(reg.serving_generation(), Err(CkptError::NoCheckpoint)));
    assert!(matches!(reg.load_serving(), Err(CkptError::NoCheckpoint)));
    fs::remove_dir_all(&dir).ok();
}
