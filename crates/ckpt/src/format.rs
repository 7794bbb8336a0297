//! Binary encode/decode for [`Checkpoint`] (see the crate docs for the wire
//! layout). Decoding is fully bounds-checked: any structural inconsistency
//! surfaces as a typed [`CkptError`], never a panic — the fault-injection
//! tests drive every byte of a valid file through truncation and bit flips.

use pup_tensor::Matrix;

use crate::{
    fnv1a, fnv1a_continue, Checkpoint, CkptError, ConfigFingerprint, ParamBlob, FORMAT_VERSION,
    MAGIC,
};

/// magic (8) + version (4) + payload_len (8).
const HEADER_LEN: usize = 20;
/// FNV-1a trailer.
const TRAILER_LEN: usize = 8;

// --- encoding ---------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.f64(v);
        }
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }
    fn matrix(&mut self, m: &Matrix) {
        let (r, c) = m.shape();
        self.u64(r as u64);
        self.u64(c as u64);
        self.f64_slice(m.as_slice());
    }
}

/// Serializes `ckpt` to the framed, checksummed wire format.
pub(crate) fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.u64(ckpt.epoch);
    w.f64(ckpt.lr_factor);
    w.u32(ckpt.retries_used);

    let cfg = &ckpt.config;
    w.u64(cfg.epochs);
    w.u64(cfg.batch_size);
    w.u64(cfg.negatives_per_positive);
    w.u64(cfg.seed);
    w.u64(cfg.lr_bits);
    w.u64(cfg.l2_bits);
    w.u8(u8::from(cfg.lr_decay));

    w.u64(ckpt.epoch_losses.len() as u64);
    w.f64_slice(&ckpt.epoch_losses);

    w.u64(ckpt.order.len() as u64);
    for &o in &ckpt.order {
        w.u64(o);
    }

    for &s in &ckpt.rng_state {
        w.u64(s);
    }

    w.u64(ckpt.params.len() as u64);
    for p in &ckpt.params {
        w.u64(p.name.len() as u64);
        w.bytes(p.name.as_bytes());
        w.matrix(&p.value);
    }

    w.u64(ckpt.adam_t);
    w.u64(ckpt.adam_moments.len() as u64);
    for (m, v) in &ckpt.adam_moments {
        w.matrix(m);
        w.matrix(v);
    }

    let payload = w.buf;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

// --- decoding ---------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CkptError::Corrupt { what: "length overflow in payload".to_string() })?;
        if end > self.bytes.len() {
            return Err(CkptError::Corrupt {
                what: format!(
                    "payload ends at byte {} but {} bytes were requested at offset {}",
                    self.bytes.len(),
                    n,
                    self.pos
                ),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take_bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take_bytes(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take_bytes(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a count that prefixes `elem_size`-byte elements, rejecting
    /// counts the remaining payload cannot possibly hold (so corrupt counts
    /// fail fast instead of triggering huge allocations).
    fn element_count(&mut self, elem_size: usize, what: &str) -> Result<usize, CkptError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        let feasible =
            n.checked_mul(elem_size as u64).map(|total| total <= remaining).unwrap_or(false);
        if !feasible {
            return Err(CkptError::Corrupt {
                what: format!("{what} count {n} exceeds remaining payload ({remaining} bytes)"),
            });
        }
        Ok(n as usize)
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, CkptError> {
        Ok(f64s(self.take_bytes(n * 8)?))
    }

    /// Reads a `rows × cols` table's header and claims its bytes, without
    /// copying them out.
    fn table(&mut self, what: &str) -> Result<RawTable<'a>, CkptError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let len = rows.checked_mul(cols).ok_or_else(|| CkptError::Corrupt {
            what: format!("{what}: {rows}x{cols} overflows"),
        })?;
        // Re-check feasibility against the remaining bytes before claiming.
        if len.checked_mul(8).map(|b| b > self.bytes.len() - self.pos).unwrap_or(true) {
            return Err(CkptError::Corrupt {
                what: format!("{what}: {rows}x{cols} matrix exceeds remaining payload"),
            });
        }
        Ok(RawTable { rows, cols, bytes: self.take_bytes(len * 8)? })
    }
}

/// A matrix table as it sits in the payload: its shape and its
/// `rows × cols` little-endian f64 bit patterns, not yet copied out.
struct RawTable<'a> {
    rows: usize,
    cols: usize,
    bytes: &'a [u8],
}

impl RawTable<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, f64s(self.bytes))
    }
}

/// Little-endian f64 bit patterns, eight bytes each.
fn f64s(raw: &[u8]) -> Vec<f64> {
    raw.chunks_exact(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            f64::from_bits(u64::from_le_bytes(b))
        })
        .collect()
}

/// A checkpoint file that passed every check of the format, its tables
/// still in place in the file's bytes. [`decode`] builds a [`Checkpoint`]
/// from it; a registry check reads only its epoch and config.
pub(crate) struct Walked<'a> {
    epoch: u64,
    lr_factor: f64,
    retries_used: u32,
    config: ConfigFingerprint,
    epoch_losses: Vec<f64>,
    order: Vec<u64>,
    rng_state: [u64; 4],
    params: Vec<(String, RawTable<'a>)>,
    adam_t: u64,
    adam_moments: Vec<(RawTable<'a>, RawTable<'a>)>,
}

impl Walked<'_> {
    /// Training epoch the checkpoint was taken at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The payload's config fingerprint.
    pub(crate) fn config(&self) -> &ConfigFingerprint {
        &self.config
    }

    /// Copies the tables out into an owned [`Checkpoint`]. Infallible: every
    /// check ran during the walk.
    pub(crate) fn build(self) -> Checkpoint {
        Checkpoint {
            epoch: self.epoch,
            lr_factor: self.lr_factor,
            retries_used: self.retries_used,
            config: self.config,
            epoch_losses: self.epoch_losses,
            order: self.order,
            rng_state: self.rng_state,
            params: self
                .params
                .into_iter()
                .map(|(name, table)| ParamBlob { name, value: table.to_matrix() })
                .collect(),
            adam_t: self.adam_t,
            adam_moments: self
                .adam_moments
                .into_iter()
                .map(|(m, v)| (m.to_matrix(), v.to_matrix()))
                .collect(),
        }
    }
}

/// Hashes a checkpoint file in one pass. Returns `(body, file)`: FNV-1a
/// over every byte before the trailer (the value a well-formed trailer
/// stores) and over the whole file (the value a registry manifest stores),
/// the second continuing the first over the trailer's bytes.
pub(crate) fn hash_file(bytes: &[u8]) -> (u64, u64) {
    let split = bytes.len().saturating_sub(TRAILER_LEN);
    let body = fnv1a(&bytes[..split]);
    (body, fnv1a_continue(body, &bytes[split..]))
}

/// Parses the framed wire format back into a [`Checkpoint`].
///
/// `body_hash`, when given, must be the first half of [`hash_file`] over
/// `bytes`; the trailer is then checked against it instead of hashing the
/// body again.
pub(crate) fn decode(bytes: &[u8], body_hash: Option<u64>) -> Result<Checkpoint, CkptError> {
    walk(bytes, body_hash).map(Walked::build)
}

/// Runs every check of the wire format over `bytes`, in a fixed order, and
/// returns the checked payload with its tables left in place. A caller
/// that only validates drops the result; [`decode`] copies the tables out,
/// so both see the same first failure as the same typed error. The frame
/// checks that run first guarantee the body is exactly the bytes before
/// the trailer whenever the trailer is compared.
pub(crate) fn walk(bytes: &[u8], body_hash: Option<u64>) -> Result<Walked<'_>, CkptError> {
    // Frame: magic, version, declared payload length, checksum trailer.
    if bytes.len() < MAGIC.len() {
        return Err(CkptError::Truncated {
            expected: HEADER_LEN + TRAILER_LEN,
            found: bytes.len(),
        });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(CkptError::BadMagic { found });
    }
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CkptError::Truncated {
            expected: HEADER_LEN + TRAILER_LEN,
            found: bytes.len(),
        });
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(v);
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let mut l = [0u8; 8];
    l.copy_from_slice(&bytes[12..20]);
    let payload_len = u64::from_le_bytes(l);
    let expected = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .filter(|&n| n <= usize::MAX as u64)
        .map(|n| n as usize)
        .ok_or(CkptError::Corrupt { what: "declared payload length overflows".to_string() })?;
    if bytes.len() < expected {
        return Err(CkptError::Truncated { expected, found: bytes.len() });
    }
    if bytes.len() > expected {
        return Err(CkptError::Corrupt {
            what: format!("{} trailing bytes after checksum", bytes.len() - expected),
        });
    }
    let body = &bytes[..expected - TRAILER_LEN];
    let mut c = [0u8; 8];
    c.copy_from_slice(&bytes[expected - TRAILER_LEN..]);
    let stored = u64::from_le_bytes(c);
    let computed = body_hash.unwrap_or_else(|| fnv1a(body));
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { expected: computed, found: stored });
    }

    // Payload. The checksum has already vouched for these bytes, but every
    // read stays bounds-checked so a buggy or hand-crafted file cannot
    // panic the loader.
    let mut r = Reader { bytes: &bytes[HEADER_LEN..expected - TRAILER_LEN], pos: 0 };

    let epoch = r.u64()?;
    let lr_factor = r.f64()?;
    if !lr_factor.is_finite() || lr_factor <= 0.0 {
        return Err(CkptError::Corrupt {
            what: format!("lr_factor {lr_factor} is not a positive finite number"),
        });
    }
    let retries_used = r.u32()?;

    let config = ConfigFingerprint {
        epochs: r.u64()?,
        batch_size: r.u64()?,
        negatives_per_positive: r.u64()?,
        seed: r.u64()?,
        lr_bits: r.u64()?,
        l2_bits: r.u64()?,
        lr_decay: match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(CkptError::Corrupt {
                    what: format!("lr_decay flag must be 0 or 1, found {other}"),
                })
            }
        },
    };

    let n_losses = r.element_count(8, "epoch_losses")?;
    let epoch_losses = r.f64_vec(n_losses)?;
    if epoch_losses.len() as u64 != epoch {
        return Err(CkptError::Corrupt {
            what: format!("{} epoch losses recorded for epoch {epoch}", epoch_losses.len()),
        });
    }

    let n_order = r.element_count(8, "order")?;
    let mut order = Vec::with_capacity(n_order);
    for _ in 0..n_order {
        order.push(r.u64()?);
    }

    let mut rng_state = [0u64; 4];
    for s in &mut rng_state {
        *s = r.u64()?;
    }
    if rng_state.iter().all(|&w| w == 0) {
        return Err(CkptError::Corrupt { what: "RNG state is all-zero".to_string() });
    }

    let n_params = r.element_count(8, "params")?;
    let mut params = Vec::with_capacity(n_params);
    for i in 0..n_params {
        let name_len = r.element_count(1, "param name")?;
        let name = std::str::from_utf8(r.take_bytes(name_len)?)
            .map_err(|_| CkptError::Corrupt { what: format!("param {i} name is not UTF-8") })?
            .to_string();
        let value = r.table(&format!("param `{name}`"))?;
        params.push((name, value));
    }

    let adam_t = r.u64()?;
    let n_moments = r.element_count(16, "adam moments")?;
    if n_moments != params.len() {
        return Err(CkptError::Corrupt {
            what: format!("{n_moments} Adam moment pairs for {} params", params.len()),
        });
    }
    let mut adam_moments = Vec::with_capacity(n_moments);
    for i in 0..n_moments {
        let m = r.table(&format!("adam moment m[{i}]"))?;
        let v = r.table(&format!("adam moment v[{i}]"))?;
        if m.shape() != v.shape() {
            return Err(CkptError::Corrupt {
                what: format!(
                    "adam moment pair {i} shapes disagree: {:?} vs {:?}",
                    m.shape(),
                    v.shape()
                ),
            });
        }
        adam_moments.push((m, v));
    }

    if r.pos != r.bytes.len() {
        return Err(CkptError::Corrupt {
            what: format!("{} unread bytes at end of payload", r.bytes.len() - r.pos),
        });
    }

    Ok(Walked {
        epoch,
        lr_factor,
        retries_used,
        config,
        epoch_losses,
        order,
        rng_state,
        params,
        adam_t,
        adam_moments,
    })
}
