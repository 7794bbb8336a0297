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
//! [`DotScorer`] ranks a top-K request from a certified f32 pass: it
//! scores every candidate from an f32 copy of its item table, bounds each
//! score's distance to the exact f64 score, and rescores in f64 only the
//! candidates whose bound can still reach the top K (DESIGN.md §17).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pup_tensor::Matrix;

use crate::common::{Recommender, ScoreError};
use crate::topk::{total_order_key, Candidates, Shortlist};

/// A frozen model: plain-data parameters behind the [`Recommender`]
/// interface, shareable across threads.
pub type Frozen = Box<dyn Recommender + Send + Sync>;

/// `e_u · e_i` for every item — the one decoder routine behind BPR-MF,
/// PaDQ, GC-MC, NGCF and PUP, live or frozen.
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
    items: Arc<Matrix>,
    /// The f32 copy of `items` the certified top-K pass reads; `None` when
    /// the table is outside the bound's valid range.
    mirror: Option<Arc<Mirror>>,
}

/// An f32 copy of an item table, with what the certified bound needs.
#[derive(Clone, Debug)]
struct Mirror {
    /// `items` rounded to f32, row-major.
    items: Vec<f32>,
    /// The L2 norm of each f64 item row.
    norms: Vec<f64>,
    /// The bound's constant for this row width ([`bound_constant`]).
    c: f64,
}

/// The smallest nonzero row norm the bound admits, 2^-40: above it, an
/// underflow's absolute error is a negligible share of `‖e_u‖·‖e_i‖`.
const NORM_MIN: f64 = 1.0 / 1_099_511_627_776.0;
/// The largest row norm the bound admits, 2^60: below it, no f32 value,
/// product or partial sum can overflow.
const NORM_MAX: f64 = 1_152_921_504_606_846_976.0;
/// The widest row the bound admits; `n·u` stays far below 1.
const MAX_WIDTH: usize = 1 << 20;

/// The constant `c` of the certified bound `|ŝ − s| ≤ c·‖e_u‖·‖e_i‖`
/// between the f32 score `ŝ` (entries rounded to f32, summed in f32 in
/// any order) and the exact f64 score `s` (summed in order), for rows of
/// `width` entries whose norms lie in `[NORM_MIN, NORM_MAX]` (derivation:
/// DESIGN.md §17). With `u`, `v` the f32 and f64 unit roundoffs and
/// `γ(n, u) = n·u / (1 − n·u)`, the terms are:
/// - `2u + u²`: rounding `e_u` and `e_i` to f32;
/// - `γ(n, u)·(1 + u)²`: the f32 products and their sum;
/// - `γ(n, v)`: the f64 path's own rounding;
/// - `18·n·2^-150 / NORM_MIN²`: underflow in either path.
///
/// The 1% slack covers rounding in the norms and in `ε = c·‖e_u‖·‖e_i‖`
/// and `ŝ ± ε` themselves, each a relative 2^-50 or less.
fn bound_constant(width: usize) -> f64 {
    let n = width as f64;
    let u = f64::from(f32::EPSILON) / 2.0;
    let v = f64::EPSILON / 2.0;
    let gamma = |unit: f64| n * unit / (1.0 - n * unit);
    let eta = f64::from(f32::from_bits(1)) / 2.0;
    let underflow = 18.0 * n * eta / (NORM_MIN * NORM_MIN);
    let c = 2.0 * u + u * u + gamma(u) * (1.0 + u) * (1.0 + u) + gamma(v) + underflow;
    c * 1.01
}

/// The L2 norm of `row`, in f64.
fn norm(row: &[f64]) -> f64 {
    row.iter().map(|x| x * x).sum::<f64>().sqrt()
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

impl Mirror {
    /// The mirror of `items`, or `None` when a row is outside the bound's
    /// valid range.
    fn build(items: &Matrix) -> Option<Self> {
        if items.cols() == 0 || items.cols() > MAX_WIDTH {
            return None;
        }
        let norms: Vec<f64> = (0..items.rows()).map(|i| norm(items.row(i))).collect();
        if !norms.iter().enumerate().all(|(i, &n)| in_bound_range(items.row(i), n)) {
            return None;
        }
        // pup-lint: allow(as-cast-truncation) — rounding to f32 is the point; the bound covers it
        let items32 = items.as_slice().iter().map(|&x| x as f32).collect();
        Some(Self { items: items32, norms, c: bound_constant(items.cols()) })
    }
}

/// The f64 score, summed in the order the dense path ([`dot_scores`])
/// sums it, so the two agree bit for bit.
fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// The f32 score over eight running sums; the bound holds for any order.
fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let (a_blocks, a_tail) = a.as_chunks::<LANES>();
    let (b_blocks, b_tail) = b.as_chunks::<LANES>();
    let mut lanes = [0.0f32; LANES];
    for (x, y) in a_blocks.iter().zip(b_blocks) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
            *acc += x * y;
        }
    }
    let mut sum = lanes.iter().sum::<f32>();
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

impl DotScorer {
    /// A decoder named `name` over `users` (one row per user) and `items`
    /// (one row per item). Builds the f32 mirror of `items` once.
    pub fn new(name: &'static str, users: Matrix, items: Matrix) -> Self {
        let mirror = Mirror::build(&items).map(Arc::new);
        Self { name, users: Arc::new(users), items: Arc::new(items), mirror }
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
    /// 1. score every candidate from the f32 mirror;
    /// 2. bound each score's distance to the exact one by
    ///    `ε_i = c·‖e_u‖·‖e_i‖`;
    /// 3. take `L`, the k-th best lower bound `ŝ_i − ε_i`;
    /// 4. rescore in f64 every candidate whose upper bound `ŝ_i + ε_i`
    ///    reaches `L`, which every item of the exact top K does.
    ///
    /// The pass keeps the k best lower bounds so far, so a candidate whose
    /// upper bound is below the k-th of them is dropped at once: `L` only
    /// rises. [`Shortlist::rank`] is step 5. `None` sends the call to the
    /// exact path: `k = 0`, a user row outside the bound's valid range, or
    /// a candidate outside the catalog (the exact path reports it).
    fn certified<'a>(
        &self,
        mirror: &Mirror,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Option<Shortlist<'a>> {
        let e_u = self.users.row(user);
        let norm_u = norm(e_u);
        let in_catalog = match candidates {
            Candidates::Ids(ids) => ids.iter().all(|&i| (i as usize) < mirror.norms.len()),
            Candidates::Unseen { n_items, .. } => n_items <= mirror.norms.len(),
        };
        if k == 0 || !in_catalog || !in_bound_range(e_u, norm_u) || norm_u < NORM_MIN {
            return None;
        }
        let width = e_u.len();
        let c_u = mirror.c * norm_u;
        // pup-lint: allow(as-cast-truncation) — rounding to f32 is the point; the bound covers it
        let e_u32: Vec<f32> = e_u.iter().map(|&x| x as f32).collect();
        // The k best lower bounds so far, as total-order keys; the root is
        // the worst of them, and `floor` its value.
        let mut lows = BinaryHeap::with_capacity(k);
        let mut floor = f64::NEG_INFINITY;
        // (item, upper bound) of every candidate that reached `floor`.
        let mut kept: Vec<(u32, f64)> = Vec::with_capacity(candidates.max_len());
        candidates.iter().for_each(|item| {
            let i = item as usize;
            let (Some(row), Some(&norm_i)) =
                (mirror.items.get(i * width..(i + 1) * width), mirror.norms.get(i))
            else {
                return;
            };
            let score = f64::from(dot_f32(&e_u32, row));
            let eps = c_u * norm_i;
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
        dot_scores(&self.users, &self.items, user)
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
        let certified = self.mirror.as_ref().and_then(|m| self.certified(m, user, candidates, k));
        Ok(certified.unwrap_or_else(|| Shortlist::dense(self.score_items(user), candidates, k)))
    }
}
