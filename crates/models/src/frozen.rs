//! Frozen scoring forms: a trained model's parameter values as plain data.
//!
//! After training, every model's score is a fixed function of plain
//! matrices. [`Recommender::freeze`] hands that function out as a
//! [`Frozen`] scorer: `Send + Sync`, so one copy serves every thread,
//! while the autograd `Var`s (`Rc<RefCell>`) stay on the thread that
//! trained them. Each model's `score_items` runs the same inference code
//! as its frozen form, so the two agree bit for bit.
//! BPR-MF, PaDQ, GC-MC, NGCF and PUP (whose eq. 7 `Pup::finalize` folds
//! into one dot product per item) all freeze into [`DotScorer`].
//!
//! [`DotScorer`] keeps two copies of its item table. Dense scoring
//! (`score_items`) scans a copy blocked 16 items at a time
//! ([`RowBlocks`]), which sums each score as [`Matrix::matmul_t`] does; the
//! row-major table serves the certified pass's f64 rescore, which reads a
//! few survivor rows each (DESIGN.md §17).
//!
//! [`DotScorer`] ranks a top-K request from a certified integer pass: it
//! keeps a per-row-scaled i8 copy of its item table, scores every
//! candidate exactly in integers against the user's row rounded to i16,
//! bounds each score's distance to the exact f64 score, and rescores in
//! f64 only the candidates whose bound can still reach the top K
//! (DESIGN.md §17).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pup_tensor::{Matrix, RowBlocks};

use crate::common::{Recommender, ScoreError};
use crate::topk::{total_order_key, Candidates, Shortlist};

/// A frozen model: plain-data parameters behind the [`Recommender`]
/// interface, shareable across threads.
pub type Frozen = Box<dyn Recommender + Send + Sync>;

/// `e_u · e_i` for every item — the live decoder routine behind BPR-MF and
/// PaDQ; [`DotScorer`]'s blocked scan returns the same scores, bit for bit.
pub(crate) fn dot_scores(users: &Matrix, items: &Matrix, user: usize) -> Vec<f64> {
    users.gather_rows(&[user]).matmul_t(items).into_vec()
}

/// The frozen dot-product decoder `s(u, i) = e_u · e_i` over final user
/// and item representations. Clones (and so [`Recommender::freeze`])
/// share the tables rather than copy them.
#[derive(Clone, Debug)]
pub struct DotScorer {
    name: &'static str,
    /// The user representations, one row per user.
    pub(crate) users: Arc<Matrix>,
    /// The item representations, row-major: the certified pass rescores
    /// its survivors from these rows.
    items: Arc<Matrix>,
    /// `items` in blocks of 16 rows, which dense scoring scans.
    blocks: Arc<RowBlocks>,
    /// The i8 copy of `items` the certified top-K pass reads; `None` when
    /// the table is outside the bound's valid range.
    codes: Option<Arc<ItemCodes>>,
}

/// A per-row-scaled i8 copy of an item table, with what the certified
/// bound needs.
#[derive(Clone, Debug)]
struct ItemCodes {
    /// `q_i = round(e_i / s_i)`, row-major, each in `[−127, 127]`.
    codes: Vec<i8>,
    /// Each row's scale and bound terms.
    rows: Vec<RowScale>,
    /// The bound's rounding coefficient for this row width
    /// ([`rounding_coefficient`]).
    c: f64,
}

/// One item row's scale and the two norms its bound reads. Stored as
/// f32, since the pass reads every row's: rounded up, they only widen
/// the bound.
#[derive(Clone, Copy, Debug)]
struct RowScale {
    /// `s_i = max|e_i| / 127`, rounded up to f32; the codes are rounded
    /// against this exact value.
    scale: f32,
    /// `r_i ≥ ‖e_i − s_i·q_i‖`.
    residual: f32,
    /// `‖e_i‖`, rounded up.
    norm: f32,
}

/// The smallest nonzero row norm the bound admits, 2^-40: above it, an
/// underflow's absolute error is a negligible share of `‖e_u‖·‖e_i‖`.
const NORM_MIN: f64 = 1.0 / 1_099_511_627_776.0;
/// The largest row norm the bound admits, 2^60: below it, every stored
/// scale and norm fits f32, and no f64 product or sum overflows.
const NORM_MAX: f64 = 1_152_921_504_606_846_976.0;
/// The largest item code: `q_i ∈ [−127, 127]`.
const ITEM_CODE_MAX: f64 = 127.0;
/// The largest user code: `p ∈ [−32767, 32767]`.
const USER_CODE_MAX: f64 = 32_767.0;
/// The widest row the integer pass admits: `|p · q_i| ≤ n·32767·127`
/// stays below 2^31, so no partial sum of an i32 dot product overflows.
const MAX_WIDTH: usize = 516;
const _: () = assert!(MAX_WIDTH * 32_767 * 127 < 1 << 31);
/// The bound's relative slack: it covers the f64 rounding of the norms,
/// of `t‖p‖` and of `ε` itself, each a relative 2^-40 or less.
const SLACK: f64 = 1.01;

/// The coefficient `c` of `‖e_u‖·‖e_i‖` in the certified bound
/// `|ŝ_i − σ_i| ≤ t‖p‖·r_i + (‖ρ_u‖ + c·‖e_u‖)·‖e_i‖` on the distance from
/// the integer pass's score `ŝ_i` to the exact f64 score `σ_i` (summed in
/// order; derivation: DESIGN.md §17), for rows of `width` entries whose
/// norms lie in `[NORM_MIN, NORM_MAX]`. With `v` the f64 unit roundoff and
/// `γ(n) = n·v / (1 − n·v)`, the terms are:
/// - `γ(n)`: the exact path's own rounding;
/// - `7v`: rounding `ŝ_i = t·s_i·D` (at most `2.2v`), computing the two
///   residuals (`2.02v`) and `ŝ_i ± ε_i` (`1.1v`), each against
///   `‖e_u‖·‖e_i‖`;
/// - the last two: underflow in the exact path and in the residual norms.
fn rounding_coefficient(width: usize) -> f64 {
    let n = width as f64;
    let v = f64::EPSILON / 2.0;
    let eta = f64::from_bits(1);
    let underflow = n * eta / (NORM_MIN * NORM_MIN) + 2.01 * (n * eta).sqrt() / NORM_MIN;
    n * v / (1.0 - n * v) + 7.0 * v + underflow
}

/// The L2 norm of `row`, in f64.
fn norm(row: &[f64]) -> f64 {
    row.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The largest `|x|` in `row`.
fn max_abs(row: &[f64]) -> f64 {
    row.iter().map(|x| x.abs()).reduce(f64::max).unwrap_or(0.0)
}

/// `x ≥ 0` rounded up to f32; `x` must be below f32's overflow.
fn f32_up(x: f64) -> f32 {
    // pup-lint: allow(as-cast-truncation) — a value rounded down steps up below
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// Rounds each entry of `row` to the nearest multiple `scale·q` with
/// `|q| ≤ limit`, hands each `q` to `emit`, and returns the residual norm
/// `‖row − scale·q‖`. A zero `scale` (an all-zero row) emits zeros.
fn quantize(row: &[f64], scale: f64, limit: f64, mut emit: impl FnMut(f64)) -> f64 {
    let mut sum = 0.0;
    for &x in row {
        // pup-lint: allow(float-eq) — only an all-zero row has a zero scale
        let q = if scale == 0.0 { 0.0 } else { (x / scale).round().clamp(-limit, limit) };
        let d = x - scale * q;
        sum += d * d;
        emit(q);
    }
    sum.sqrt()
}

/// Whether a row can enter the certified bound: every entry zero or
/// normal (not NaN, infinite or subnormal), and a norm in
/// `[NORM_MIN, NORM_MAX]` unless every entry is zero.
fn in_bound_range(row: &[f64], norm: f64) -> bool {
    // pup-lint: allow(float-eq) — exact zeros are the entries the bound needs no range for
    row.iter().all(|&x| x == 0.0 || x.is_normal())
        // pup-lint: allow(float-eq) — an all-zero row scores exactly zero on both paths
        && ((NORM_MIN..=NORM_MAX).contains(&norm) || row.iter().all(|&x| x == 0.0))
}

impl ItemCodes {
    /// The i8 copy of `items`, or `None` when the table is wider than the
    /// integer pass admits or a row is outside the bound's valid range.
    fn build(items: &Matrix) -> Option<Self> {
        let width = items.cols();
        if width == 0 || width > MAX_WIDTH {
            return None;
        }
        let mut codes = Vec::with_capacity(items.rows() * width);
        let mut rows = Vec::with_capacity(items.rows());
        for i in 0..items.rows() {
            let row = items.row(i);
            let norm = norm(row);
            if !in_bound_range(row, norm) {
                return None;
            }
            let scale = f32_up(max_abs(row) / ITEM_CODE_MAX);
            // pup-lint: allow(as-cast-truncation) — q is an integer in [−127, 127]
            let residual = quantize(row, f64::from(scale), ITEM_CODE_MAX, |q| codes.push(q as i8));
            rows.push(RowScale { scale, residual: f32_up(residual), norm: f32_up(norm) });
        }
        Some(Self { codes, rows, c: rounding_coefficient(width) })
    }
}

/// The f64 score, summed in the order the dense path ([`dot_scores`],
/// [`RowBlocks::dot_all`]) sums it, so the three agree bit for bit.
fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `p · q`, exact: integer sums are exact in any order, and
/// [`MAX_WIDTH`] keeps every partial sum inside i32.
fn dot_codes(p: &[i16], q: &[i8]) -> i32 {
    const LANES: usize = 32;
    let (p_blocks, p_tail) = p.as_chunks::<LANES>();
    let (q_blocks, q_tail) = q.as_chunks::<LANES>();
    let mut lanes = [0i32; LANES];
    for (x, y) in p_blocks.iter().zip(q_blocks) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
            *acc += i32::from(x) * i32::from(y);
        }
    }
    let mut sum = lanes.iter().sum::<i32>();
    for (&x, &y) in p_tail.iter().zip(q_tail) {
        sum += i32::from(x) * i32::from(y);
    }
    sum
}

impl DotScorer {
    /// A decoder named `name` over `users` (one row per user) and `items`
    /// (one row per item). Builds the blocked and the i8 copy of `items`
    /// once.
    pub fn new(name: &'static str, users: Matrix, items: Matrix) -> Self {
        let codes = ItemCodes::build(&items).map(Arc::new);
        let blocks = Arc::new(RowBlocks::new(&items));
        Self { name, users: Arc::new(users), items: Arc::new(items), blocks, codes }
    }

    /// A decoder over `repr`, which stacks `n_users` user rows on top of
    /// `n_items` item rows (GC-MC's and NGCF's propagated representations).
    pub(crate) fn from_stacked(
        name: &'static str,
        repr: &Matrix,
        n_users: usize,
        n_items: usize,
    ) -> Self {
        let users: Vec<usize> = (0..n_users).collect();
        let items: Vec<usize> = (n_users..n_users + n_items).collect();
        Self::new(name, repr.gather_rows(&users), repr.gather_rows(&items))
    }

    /// The certified top-K pass for an in-range `user` (DESIGN.md §17):
    /// 1. round the user row to i16 codes `p = round(e_u / t)` with
    ///    `t = max|e_u| / 32767`, leaving `ρ_u = e_u − t·p`;
    /// 2. score every candidate as `ŝ_i = t·s_i·(p · q_i)`, the dot
    ///    product exact in i32;
    /// 3. bound each score's distance to the exact one by
    ///    `ε_i = 1.01·(t‖p‖·r_i + (‖ρ_u‖ + c·‖e_u‖)·‖e_i‖)`;
    /// 4. take `L`, the k-th best lower bound `ŝ_i − ε_i`;
    /// 5. rescore in f64 every candidate whose upper bound `ŝ_i + ε_i`
    ///    reaches `L`, which every item of the exact top K does.
    ///
    /// The pass keeps the k best lower bounds so far, so a candidate whose
    /// upper bound is below the k-th of them is dropped at once: `L` only
    /// rises. [`Shortlist::rank`] is step 6. `None` sends the call to the
    /// exact path: `k = 0`, a user row outside the bound's valid range, or
    /// a candidate outside the catalog (the exact path reports it).
    fn certified<'a>(
        &self,
        table: &ItemCodes,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Option<Shortlist<'a>> {
        let e_u = self.users.row(user);
        let norm_u = norm(e_u);
        let in_catalog = match candidates {
            Candidates::Ids(ids) => ids.iter().all(|&i| (i as usize) < table.rows.len()),
            Candidates::Unseen { n_items, .. } => n_items <= table.rows.len(),
        };
        if k == 0 || !in_catalog || !in_bound_range(e_u, norm_u) || norm_u < NORM_MIN {
            return None;
        }
        let width = e_u.len();
        let t = max_abs(e_u) / USER_CODE_MAX;
        let mut p: Vec<i16> = Vec::with_capacity(width);
        // `‖p‖²`, exact: fewer than 2^39 in f64.
        let mut p_sq = 0.0;
        let rho = quantize(e_u, t, USER_CODE_MAX, |q| {
            p_sq += q * q;
            // pup-lint: allow(as-cast-truncation) — q is an integer in [−32767, 32767]
            p.push(q as i16);
        });
        let residual_coef = SLACK * t * p_sq.sqrt();
        let norm_coef = SLACK * (rho + table.c * norm_u);
        // The k best lower bounds so far, as total-order keys; the root is
        // the worst of them, and `floor` its value.
        let mut lows = BinaryHeap::with_capacity(k);
        let mut floor = f64::NEG_INFINITY;
        // (item, upper bound) of every candidate that reached `floor`.
        let mut kept: Vec<(u32, f64)> = Vec::with_capacity(candidates.max_len());
        candidates.iter().for_each(|item| {
            let i = item as usize;
            let (Some(codes), Some(row)) =
                (table.codes.get(i * width..(i + 1) * width), table.rows.get(i))
            else {
                return;
            };
            let score = t * f64::from(row.scale) * f64::from(dot_codes(&p, codes));
            let eps = residual_coef * f64::from(row.residual) + norm_coef * f64::from(row.norm);
            let high = score + eps;
            if high < floor {
                return;
            }
            kept.push((item, high));
            let low = total_order_key(score - eps);
            if lows.len() < k {
                lows.push(Reverse(low));
            } else if let Some(mut worst) = lows.peek_mut() {
                if low > worst.0 {
                    *worst = Reverse(low);
                }
            }
            if lows.len() == k {
                if let Some(&Reverse(key)) = lows.peek() {
                    floor = f64::from_bits(total_order_key_inverse(key));
                }
            }
        });
        kept.retain(|&(_, high)| high >= floor);
        for (item, score) in &mut kept {
            *score = dot_f64(e_u, self.items.row(*item as usize));
        }
        Some(Shortlist::survivors(kept, k))
    }
}

/// The f64 bit pattern of a [`total_order_key`] (the map is an involution).
fn total_order_key_inverse(key: i64) -> u64 {
    total_order_key(f64::from_bits(key.cast_unsigned())).cast_unsigned()
}

impl Recommender for DotScorer {
    fn name(&self) -> &str {
        self.name
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        self.blocks.dot_all(self.users.row(user))
    }

    fn n_users(&self) -> usize {
        self.users.rows()
    }

    fn freeze(&self) -> Frozen {
        Box::new(self.clone())
    }

    fn try_top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, ScoreError> {
        let n_users = self.users.rows();
        if user >= n_users {
            return Err(ScoreError::UserOutOfRange { user, n_users });
        }
        let certified = self.codes.as_ref().and_then(|c| self.certified(c, user, candidates, k));
        Ok(certified.unwrap_or_else(|| Shortlist::dense(self.score_items(user), candidates, k)))
    }
}
