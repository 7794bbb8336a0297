//! Versioned model registry: the durable half of zero-downtime swaps.
//!
//! A registry directory holds immutable, monotonically numbered model
//! *generations* plus one atomically flipped `CURRENT` pointer naming the
//! generation a serving fleet should load:
//!
//! ```text
//! registry/
//!   gen-000000.pupckpt   checkpoint payload (standard wire format)
//!   gen-000000.gen       generation manifest (see below)
//!   gen-000001.pupckpt
//!   gen-000001.gen
//!   CURRENT              pointer file -> generation 1
//! ```
//!
//! Every file is written with the same tmp + fsync + rename protocol as
//! the checkpoint store ([`crate::store::write_atomic`]), so a crash at
//! any point leaves either the old state or the new state — promotion is
//! the rename of `CURRENT`, and a process killed between staging the
//! pointer and renaming it leaves the previous generation serving.
//!
//! # Manifest wire format
//!
//! ```text
//! +---------------------+----------------+---------------------------------+
//! | magic "PUPGEN\0\0" 8B | version u32 LE | gen u64 | epoch u64           |
//! | ckpt_len u64 | ckpt_checksum u64 | config fingerprint (6 u64 + 1 u8)   |
//! +---------------------+------------------------------------------------ -+
//! | checksum u64 LE — FNV-1a over every preceding byte                     |
//! +------------------------------------------------------------------------+
//! ```
//!
//! The manifest commits a generation: a checkpoint file without one is an
//! interrupted publish and is ignored (its id is still never reused). The
//! `CURRENT` pointer has its own tiny framed format (`"PUPCUR\0\0"`,
//! version, generation, FNV-1a trailer). All decoding is bounds-checked
//! and surfaces typed [`CkptError`]s — a flipped byte anywhere degrades to
//! a skipped generation or an explicit validation failure, never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use crate::store::{clean_stale_tmps, write_atomic, EXTENSION};
use crate::{chaos, fnv1a, format, Checkpoint, CkptError, ConfigFingerprint};

/// File-format magic of a generation manifest.
pub const GEN_MAGIC: [u8; 8] = *b"PUPGEN\0\0";

/// File-format magic of the `CURRENT` pointer.
pub const CURRENT_MAGIC: [u8; 8] = *b"PUPCUR\0\0";

/// Current (and only) registry wire-format version.
pub const REGISTRY_VERSION: u32 = 1;

/// Name of the pointer file inside a registry directory.
pub const CURRENT_FILE: &str = "CURRENT";

/// magic (8) + version (4) + gen/epoch/ckpt_len/ckpt_checksum (4 × 8)
/// + fingerprint (6 × 8 + 1) + trailer (8).
const MANIFEST_LEN: usize = 8 + 4 + 32 + 49 + 8;

/// magic (8) + version (4) + gen (8) + trailer (8).
const CURRENT_LEN: usize = 8 + 4 + 8 + 8;

/// The committed metadata of one published generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenerationManifest {
    /// Monotonic generation id (never reused, even after corruption).
    pub gen: u64,
    /// Training epoch the checkpoint was taken at.
    pub epoch: u64,
    /// Exact byte length of the generation's checkpoint file.
    pub ckpt_len: u64,
    /// FNV-1a 64 over the checkpoint file's bytes.
    pub ckpt_checksum: u64,
    /// Fingerprint of the training configuration (must match the
    /// checkpoint payload's own fingerprint).
    pub config: ConfigFingerprint,
}

/// How a [`ModelRegistry::promote_chaos`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PromoteOutcome {
    /// The `CURRENT` pointer was atomically renamed to the new generation.
    Flipped,
    /// The simulated process death hit between staging the pointer's tmp
    /// file and renaming it: `CURRENT` still names the old generation.
    KilledMidFlip,
}

/// A versioned, checksummed store of model generations with an atomic
/// `CURRENT` pointer.
///
/// The registry itself is just a path — it is `Send + Sync` and cheap to
/// clone, and every operation re-reads the directory, so multiple
/// processes (a trainer publishing, a server swapping) can share one
/// registry with rename-level atomicity as the only coordination.
#[derive(Clone, Debug)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// Opens (creating if needed) the registry at `dir` and removes stale
    /// `.tmp` droppings left by interrupted atomic writes.
    pub fn open(dir: &Path) -> Result<Self, CkptError> {
        fs::create_dir_all(dir)?;
        let removed = clean_stale_tmps(dir)?;
        pup_obs::counter_add("registry.stale_tmps_removed", removed.len() as u64);
        Ok(Self { dir: dir.to_path_buf() })
    }

    /// The registry's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of generation `gen`'s checkpoint file.
    pub fn checkpoint_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("gen-{gen:06}.{EXTENSION}"))
    }

    /// Path of generation `gen`'s manifest file.
    pub fn manifest_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("gen-{gen:06}.gen"))
    }

    fn current_path(&self) -> PathBuf {
        self.dir.join(CURRENT_FILE)
    }

    /// All committed generations, oldest first. Manifests that fail to
    /// decode are skipped — a corrupt generation disappears from the list
    /// but keeps its id reserved (see [`Self::publish`]).
    pub fn list(&self) -> Result<Vec<GenerationManifest>, CkptError> {
        let mut found = Vec::new();
        for (gen, path) in self.generation_files("gen")? {
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Ok(m) = decode_manifest(&bytes) {
                // A renamed manifest must agree with its own file name.
                if m.gen == gen {
                    found.push(m);
                }
            }
        }
        found.sort_by_key(|m| m.gen);
        Ok(found)
    }

    /// Publishes `ckpt` as the next generation: writes the checkpoint,
    /// then commits it with a manifest (both atomically). The first
    /// generation in an empty registry is auto-promoted so a fleet always
    /// has something to serve; later generations must be promoted
    /// explicitly (after shadow validation).
    pub fn publish(&self, ckpt: &Checkpoint) -> Result<GenerationManifest, CkptError> {
        let gen = self.next_gen()?;
        let bytes = ckpt.to_bytes();
        write_atomic(&self.checkpoint_path(gen), &bytes)?;
        let manifest = GenerationManifest {
            gen,
            epoch: ckpt.epoch,
            ckpt_len: bytes.len() as u64,
            ckpt_checksum: fnv1a(&bytes),
            config: ckpt.config.clone(),
        };
        write_atomic(&self.manifest_path(gen), &encode_manifest(&manifest))?;
        pup_obs::counter_add("registry.published", 1);
        if self.current()?.is_none() {
            self.flip_current(gen)?;
        }
        Ok(manifest)
    }

    /// The generation `CURRENT` points at, or `None` when no pointer has
    /// been written yet. A corrupt pointer is a typed error — callers that
    /// want robustness use [`Self::serving_generation`].
    pub fn current(&self) -> Result<Option<u64>, CkptError> {
        let bytes = match fs::read(self.current_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        decode_current(&bytes).map(Some)
    }

    /// The generation a server should load: the `CURRENT` pointee when it
    /// exists and validates, otherwise the newest generation that does.
    /// This is the crash-recovery entry point — a corrupt pointer or a
    /// damaged current generation degrades to the best earlier one.
    pub fn serving_generation(&self) -> Result<GenerationManifest, CkptError> {
        self.first_serving(|gen| self.validate(gen))
    }

    /// [`Self::serving_generation`] and [`Self::load`] in one read: the
    /// generation a server should load, in the same fallback order, and
    /// its checkpoint, decoded from the very bytes checked against the
    /// manifest. Each generation tried is read once.
    pub fn load_serving(&self) -> Result<(GenerationManifest, Checkpoint), CkptError> {
        let _t = pup_obs::time("io", "ckpt_load");
        self.first_serving(|gen| self.load_checked(gen))
    }

    /// The first success of `try_gen` on the `CURRENT` pointee, then on
    /// every other listed generation, newest first.
    fn first_serving<T>(
        &self,
        mut try_gen: impl FnMut(u64) -> Result<T, CkptError>,
    ) -> Result<T, CkptError> {
        let current = self.current().ok().flatten();
        if let Some(found) = current.and_then(|gen| try_gen(gen).ok()) {
            return Ok(found);
        }
        for m in self.list()?.into_iter().rev().filter(|m| Some(m.gen) != current) {
            if let Ok(found) = try_gen(m.gen) {
                return Ok(found);
            }
        }
        Err(CkptError::NoCheckpoint)
    }

    /// Fully validates generation `gen`: the manifest decodes, the
    /// checkpoint file matches the manifest's length and checksum, the
    /// payload decodes, and the payload's config fingerprint and epoch
    /// agree with the manifest. Returns the manifest on success. Runs the
    /// checks [`Self::load`] runs, but copies no table out of the file.
    pub fn validate(&self, gen: u64) -> Result<GenerationManifest, CkptError> {
        self.read_checked(gen, |_| ()).map(|(manifest, (), _)| manifest)
    }

    /// Loads (and fully validates) generation `gen`'s checkpoint. The
    /// checkpoint returned is decoded from the very bytes checked against
    /// the manifest: the file is read once.
    pub fn load(&self, gen: u64) -> Result<Checkpoint, CkptError> {
        let _t = pup_obs::time("io", "ckpt_load");
        self.load_checked(gen).map(|(_, ckpt)| ckpt)
    }

    /// [`Self::read_checked`] building the checkpoint, with its bytes
    /// counted once.
    fn load_checked(&self, gen: u64) -> Result<(GenerationManifest, Checkpoint), CkptError> {
        let (manifest, ckpt, len) = self.read_checked(gen, |walked| walked.build())?;
        pup_obs::counter_add("ckpt.bytes_read", len as u64);
        Ok((manifest, ckpt))
    }

    /// The one read behind [`Self::validate`], [`Self::load`] and
    /// [`Self::load_serving`]: reads the checkpoint file once, hashes it in
    /// one pass and walks its payload once. Checks run in a fixed order, so
    /// the first failure names the same typed error whichever caller asked:
    /// manifest, file length, file checksum, then the checkpoint's frame,
    /// trailer and payload, then config and epoch agreement. Only then does
    /// `finish` take the checked payload. Returns the manifest, what
    /// `finish` made of the payload, and the file's length.
    fn read_checked<T>(
        &self,
        gen: u64,
        finish: impl FnOnce(format::Walked<'_>) -> T,
    ) -> Result<(GenerationManifest, T, usize), CkptError> {
        let manifest = self.manifest(gen)?;
        let bytes = fs::read(self.checkpoint_path(gen))?;
        if bytes.len() as u64 != manifest.ckpt_len {
            return Err(CkptError::Truncated {
                expected: usize::try_from(manifest.ckpt_len).unwrap_or(usize::MAX),
                found: bytes.len(),
            });
        }
        // The manifest stores the whole-file hash; the trailer stores the
        // hash of the bytes before it. One pass yields both.
        let (body_hash, file_hash) = format::hash_file(&bytes);
        if file_hash != manifest.ckpt_checksum {
            return Err(CkptError::ChecksumMismatch {
                expected: manifest.ckpt_checksum,
                found: file_hash,
            });
        }
        let walked = format::walk(&bytes, Some(body_hash))?;
        if *walked.config() != manifest.config || walked.epoch() != manifest.epoch {
            return Err(CkptError::StateMismatch {
                what: format!("generation {gen} payload disagrees with its manifest"),
            });
        }
        Ok((manifest, finish(walked), bytes.len()))
    }

    /// Validates generation `gen` and atomically flips `CURRENT` to it.
    pub fn promote(&self, gen: u64) -> Result<(), CkptError> {
        match self.promote_chaos(gen, false)? {
            PromoteOutcome::Flipped => Ok(()),
            // Unreachable with `kill_mid_flip == false`; spelled out so the
            // match stays exhaustive if outcomes grow.
            PromoteOutcome::KilledMidFlip => Err(CkptError::StateMismatch {
                what: "promotion reported a kill without one being injected".to_string(),
            }),
        }
    }

    /// [`Self::promote`] with an injectable process death between staging
    /// the pointer's tmp file and renaming it. With `kill_mid_flip` the
    /// tmp file is written and fsynced, then the call returns
    /// [`PromoteOutcome::KilledMidFlip`] *without* renaming — exactly the
    /// on-disk state a real crash in that window leaves behind.
    pub fn promote_chaos(
        &self,
        gen: u64,
        kill_mid_flip: bool,
    ) -> Result<PromoteOutcome, CkptError> {
        self.validate(gen)?;
        if kill_mid_flip {
            let staged = crate::store::tmp_path(&self.current_path());
            // The dead process never renames: CURRENT keeps its old pointee.
            // pup-lint: allow(crash-unsafe-io) — this *is* the crash simulator
            fs::write(&staged, encode_current(gen))?;
            return Ok(PromoteOutcome::KilledMidFlip);
        }
        self.flip_current(gen)?;
        Ok(PromoteOutcome::Flipped)
    }

    /// Flips `CURRENT` back to the newest valid generation strictly below
    /// the current one and returns it. Errors when there is no current
    /// pointer or nothing valid to roll back to.
    pub fn rollback(&self) -> Result<u64, CkptError> {
        let Some(cur) = self.current()? else {
            return Err(CkptError::NoCheckpoint);
        };
        for m in self.list()?.into_iter().rev() {
            if m.gen < cur && self.validate(m.gen).is_ok() {
                self.flip_current(m.gen)?;
                return Ok(m.gen);
            }
        }
        Err(CkptError::StateMismatch {
            what: format!("no valid generation below {cur} to roll back to"),
        })
    }

    /// Damages generation `gen`'s checkpoint file in place (one flipped
    /// byte mid-file), for chaos tests exercising the corrupt-new-
    /// checkpoint swap fault.
    pub fn corrupt_generation_for_chaos(&self, gen: u64) -> Result<(), CkptError> {
        let path = self.checkpoint_path(gen);
        let len = fs::metadata(&path)?.len();
        let mid = usize::try_from(len / 2).unwrap_or(0);
        chaos::flip_byte(&path, mid)
    }

    /// Decodes generation `gen`'s manifest (strict: corruption is an
    /// error here, unlike [`Self::list`]).
    fn manifest(&self, gen: u64) -> Result<GenerationManifest, CkptError> {
        let bytes = match fs::read(self.manifest_path(gen)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CkptError::UnknownGeneration { gen })
            }
            Err(e) => return Err(e.into()),
        };
        let m = decode_manifest(&bytes)?;
        if m.gen != gen {
            return Err(CkptError::Corrupt {
                what: format!("manifest file for generation {gen} claims generation {}", m.gen),
            });
        }
        Ok(m)
    }

    /// The next unused generation id. Scans *file names* of both
    /// checkpoints and manifests, so a generation whose manifest was
    /// corrupted (and thus vanished from [`Self::list`]) still never has
    /// its id reused.
    fn next_gen(&self) -> Result<u64, CkptError> {
        let mut max: Option<u64> = None;
        for suffix in [EXTENSION, "gen"] {
            for (gen, _) in self.generation_files(suffix)? {
                max = Some(max.map_or(gen, |m| m.max(gen)));
            }
        }
        Ok(max.map_or(0, |m| m.saturating_add(1)))
    }

    /// `(gen, path)` for every `gen-NNNNNN.<suffix>` file, unordered.
    fn generation_files(&self, suffix: &str) -> Result<Vec<(u64, PathBuf)>, CkptError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut found = Vec::new();
        for entry in entries {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) =
                name.strip_prefix("gen-").and_then(|rest| rest.strip_suffix(&format!(".{suffix}")))
            else {
                continue;
            };
            if let Ok(gen) = stem.parse::<u64>() {
                found.push((gen, path));
            }
        }
        Ok(found)
    }

    /// Atomically repoints `CURRENT` at `gen` (tmp + fsync + rename).
    fn flip_current(&self, gen: u64) -> Result<(), CkptError> {
        write_atomic(&self.current_path(), &encode_current(gen))?;
        pup_obs::counter_add("registry.current_flips", 1);
        Ok(())
    }
}

// --- manifest + pointer codecs ----------------------------------------------

fn encode_manifest(m: &GenerationManifest) -> Vec<u8> {
    let mut out = Vec::with_capacity(MANIFEST_LEN);
    out.extend_from_slice(&GEN_MAGIC);
    out.extend_from_slice(&REGISTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&m.gen.to_le_bytes());
    out.extend_from_slice(&m.epoch.to_le_bytes());
    out.extend_from_slice(&m.ckpt_len.to_le_bytes());
    out.extend_from_slice(&m.ckpt_checksum.to_le_bytes());
    let c = &m.config;
    for v in [c.epochs, c.batch_size, c.negatives_per_positive, c.seed, c.lr_bits, c.l2_bits] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(u8::from(c.lr_decay));
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<GenerationManifest, CkptError> {
    check_frame(bytes, MANIFEST_LEN, &GEN_MAGIC)?;
    let mut r = FixedReader { bytes, pos: 12 };
    let gen = r.u64();
    let epoch = r.u64();
    let ckpt_len = r.u64();
    let ckpt_checksum = r.u64();
    let config = ConfigFingerprint {
        epochs: r.u64(),
        batch_size: r.u64(),
        negatives_per_positive: r.u64(),
        seed: r.u64(),
        lr_bits: r.u64(),
        l2_bits: r.u64(),
        lr_decay: match r.u8() {
            0 => false,
            1 => true,
            other => {
                return Err(CkptError::Corrupt {
                    what: format!("lr_decay flag must be 0 or 1, found {other}"),
                })
            }
        },
    };
    Ok(GenerationManifest { gen, epoch, ckpt_len, ckpt_checksum, config })
}

fn encode_current(gen: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(CURRENT_LEN);
    out.extend_from_slice(&CURRENT_MAGIC);
    out.extend_from_slice(&REGISTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn decode_current(bytes: &[u8]) -> Result<u64, CkptError> {
    check_frame(bytes, CURRENT_LEN, &CURRENT_MAGIC)?;
    let mut r = FixedReader { bytes, pos: 12 };
    Ok(r.u64())
}

/// Shared frame validation: exact length, magic, version, FNV-1a trailer.
fn check_frame(bytes: &[u8], expected_len: usize, magic: &[u8; 8]) -> Result<(), CkptError> {
    if bytes.len() < expected_len {
        return Err(CkptError::Truncated { expected: expected_len, found: bytes.len() });
    }
    if bytes.len() > expected_len {
        return Err(CkptError::Corrupt {
            what: format!("{} trailing bytes after frame", bytes.len() - expected_len),
        });
    }
    if &bytes[..8] != magic {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(CkptError::BadMagic { found });
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(v);
    if version != REGISTRY_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let body = &bytes[..expected_len - 8];
    let mut c = [0u8; 8];
    c.copy_from_slice(&bytes[expected_len - 8..]);
    let stored = u64::from_le_bytes(c);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { expected: computed, found: stored });
    }
    Ok(())
}

/// Infallible cursor for fixed-size frames whose length [`check_frame`]
/// already vouched for. Reads past the end are impossible by construction
/// (the frame length is a compile-time constant), and out-of-range reads
/// yield zero rather than panicking.
struct FixedReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl FixedReader<'_> {
    fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        if let Some(src) = self.bytes.get(self.pos..self.pos + 8) {
            b.copy_from_slice(src);
        }
        self.pos += 8;
        u64::from_le_bytes(b)
    }

    fn u8(&mut self) -> u8 {
        let v = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        v
    }
}
