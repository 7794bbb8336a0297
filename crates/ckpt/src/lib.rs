//! Crash-safe checkpointing for the PUP training stack.
//!
//! The ROADMAP's north star is a production-scale training system; this crate
//! supplies the fault-tolerance half: a versioned, checksummed, hand-rolled
//! binary checkpoint format (no serde — the build environment is offline), an
//! atomic on-disk store (tmp file + fsync + rename), and a deterministic
//! fault-injection harness for proving the recovery paths.
//!
//! A [`Checkpoint`] captures everything the trainer needs for a **bit-exact**
//! resume: model parameters (by [`ParamRegistry`] name), full Adam state
//! (moments + step counter), the xoshiro256++ RNG state, the current shuffle
//! order, per-epoch loss history, and the divergence-recovery bookkeeping
//! (learning-rate backoff factor, retries used).
//!
//! [`ParamRegistry`]: https://docs.rs/pup-models — `pup_models::ParamRegistry`
//!
//! # Wire format
//!
//! ```text
//! +---------------------+----------------+---------------------+-----------+
//! | magic "PUPCKPT\0" 8B | version u32 LE | payload_len u64 LE  | payload   |
//! +---------------------+----------------+---------------------+-----------+
//! | checksum u64 LE — FNV-1a over every preceding byte                      |
//! +-------------------------------------------------------------------------+
//! ```
//!
//! All integers are little-endian; floats are stored as IEEE-754 bit
//! patterns (`f64::to_bits`), so round-trips are bitwise. The checksum is
//! FNV-1a 64 — the same hash family `pup_tensor::tape::canonical_hash` uses —
//! so any single flipped or missing byte is detected on load. Corruption
//! (truncation, bad magic, checksum mismatch, shape mismatch against the
//! live model) surfaces as a typed [`CkptError`]; loading never panics.

pub mod chaos;
mod format;
pub mod registry;
pub mod store;

use std::fmt;
use std::io;

use pup_tensor::Matrix;

/// File-format magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"PUPCKPT\0";

/// Current (and only) wire-format version.
pub const FORMAT_VERSION: u32 = 1;

/// One named model parameter as captured in a checkpoint.
#[derive(Clone, Debug)]
pub struct ParamBlob {
    /// Registry name, e.g. `"global.emb"` (see `ParamRegistry::named_params`).
    pub name: String,
    /// The parameter's value at checkpoint time.
    pub value: Matrix,
}

/// Fingerprint of the training configuration a checkpoint was produced
/// under.
///
/// A resume against a different configuration would silently change the
/// optimization trajectory, so the trainer refuses to resume unless the
/// fingerprint matches exactly. Floats are compared by bit pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigFingerprint {
    /// Total epoch budget.
    pub epochs: u64,
    /// Mini-batch size.
    pub batch_size: u64,
    /// Negatives drawn per positive interaction.
    pub negatives_per_positive: u64,
    /// Trainer RNG seed.
    pub seed: u64,
    /// Base learning rate, as IEEE-754 bits.
    pub lr_bits: u64,
    /// L2 regularization weight, as IEEE-754 bits.
    pub l2_bits: u64,
    /// Whether the paper's two-step learning-rate decay is enabled.
    pub lr_decay: bool,
}

/// Everything needed to resume training bit-exactly after a crash.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Number of epochs fully completed when this checkpoint was taken.
    pub epoch: u64,
    /// Divergence-recovery learning-rate multiplier (1.0 = no backoff).
    pub lr_factor: f64,
    /// Divergence retries consumed so far.
    pub retries_used: u32,
    /// Fingerprint of the `TrainConfig` the run was started with.
    pub config: ConfigFingerprint,
    /// Mean BPR loss of each completed epoch, oldest first.
    pub epoch_losses: Vec<f64>,
    /// The trainer's interaction shuffle order (history-dependent — the
    /// Fisher–Yates shuffle mutates it in place each epoch, so it cannot be
    /// re-derived from the seed alone).
    pub order: Vec<u64>,
    /// Raw xoshiro256++ state of the trainer RNG (never all-zero).
    pub rng_state: [u64; 4],
    /// Model parameters, in `named_params` order.
    pub params: Vec<ParamBlob>,
    /// Adam step counter (drives bias correction).
    pub adam_t: u64,
    /// Adam `(first, second)` moment estimates, in parameter order.
    pub adam_moments: Vec<(Matrix, Matrix)>,
}

impl Checkpoint {
    /// Serializes the checkpoint to its binary wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        format::encode(self)
    }

    /// Parses a checkpoint from its binary wire format.
    ///
    /// Detects truncation, bad magic, unsupported versions, checksum
    /// mismatches, and structurally invalid payloads as typed errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        format::decode(bytes, None)
    }

    /// Looks up a captured parameter by registry name.
    pub fn param(&self, name: &str) -> Option<&ParamBlob> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// Why a checkpoint could not be loaded, parsed, or applied.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first eight bytes actually found (zero-padded if shorter).
        found: [u8; 8],
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The FNV-1a trailer does not match the file contents.
    ChecksumMismatch {
        /// Checksum recomputed from the file body.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
    },
    /// The payload is structurally invalid (despite a valid checksum).
    Corrupt {
        /// Human-readable description of the first inconsistency found.
        what: String,
    },
    /// A captured parameter's shape disagrees with the live model.
    ShapeMismatch {
        /// Registry name of the offending parameter.
        name: String,
        /// Shape the live model expects.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
    /// The live model has a parameter the checkpoint does not.
    MissingParam {
        /// Registry name of the absent parameter.
        name: String,
    },
    /// The checkpoint has a parameter the live model does not.
    UnknownParam {
        /// Registry name of the extra parameter.
        name: String,
    },
    /// Trainer-level state disagrees with the checkpoint (config
    /// fingerprint, interaction count, …).
    StateMismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
    /// No (valid) checkpoint exists in the requested directory.
    NoCheckpoint,
    /// The model registry holds no generation with this id.
    UnknownGeneration {
        /// The generation that was requested.
        gen: u64,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic { found } => {
                write!(f, "not a PUP checkpoint (magic {found:02x?})")
            }
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            Self::Truncated { expected, found } => {
                write!(f, "checkpoint truncated: {found} bytes present, {expected} expected")
            }
            Self::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: stored {found:#018x}, recomputed {expected:#018x}"
            ),
            Self::Corrupt { what } => write!(f, "corrupt checkpoint payload: {what}"),
            Self::ShapeMismatch { name, expected, found } => write!(
                f,
                "parameter `{name}` has shape {found:?} in checkpoint, model expects {expected:?}"
            ),
            Self::MissingParam { name } => {
                write!(f, "checkpoint is missing parameter `{name}`")
            }
            Self::UnknownParam { name } => {
                write!(f, "checkpoint has unknown parameter `{name}`")
            }
            Self::StateMismatch { what } => write!(f, "checkpoint does not match trainer: {what}"),
            Self::NoCheckpoint => write!(f, "no valid checkpoint found"),
            Self::UnknownGeneration { gen } => {
                write!(f, "model registry holds no generation {gen}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64 offset basis: the hash of the empty string.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — the same hash family `tape::canonical_hash` uses.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash whose state after the preceding bytes is `h`.
/// FNV-1a is a streaming hash, so `fnv1a(a ++ b) == fnv1a_continue(fnv1a(a), b)`.
pub(crate) fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
