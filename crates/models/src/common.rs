//! Shared model infrastructure: the [`Recommender`] trait, the
//! [`TrainData`] view consumed by every model, the uniform parameter
//! registry ([`ParamRegistry`]) consumed by the graph auditor, and the
//! linear-time FM decoder (paper eq. 7).

use std::fmt;

use pup_data::{Dataset, Split};
use pup_tensor::{ops, Var};

use crate::frozen::Frozen;
use crate::topk::{Candidates, Shortlist};

/// A malformed id reached the scoring path.
///
/// Online traffic carries ids the training set never saw — a user created
/// after the last retrain, a typo'd item id in a replayed log. Indexing with
/// them must surface as a typed, recoverable error at the request boundary,
/// never as an indexing panic inside a scorer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScoreError {
    /// The user id is not in `0..n_users`.
    UserOutOfRange {
        /// The offending user id.
        user: usize,
        /// Number of users the model was trained on.
        n_users: usize,
    },
    /// An item id is not in `0..n_items`.
    ItemOutOfRange {
        /// The offending item id.
        item: usize,
        /// Number of items the model was trained on.
        n_items: usize,
    },
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UserOutOfRange { user, n_users } => {
                write!(f, "user id {user} out of range (model knows {n_users} users)")
            }
            Self::ItemOutOfRange { item, n_items } => {
                write!(f, "item id {item} out of range (model knows {n_items} items)")
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// A trained model that can rank all items for a user.
///
/// Evaluation (Recall@K / NDCG@K, cold-start protocols) only needs this
/// interface; every model in this crate implements it.
pub trait Recommender {
    /// Human-readable model name as used in the paper's tables.
    fn name(&self) -> &str;

    /// Predicted preference scores for every item, higher = better.
    ///
    /// Offline evaluation iterates known users, so this path may assume
    /// `user` is in range (and panics otherwise). Online callers must use
    /// [`try_score_items`](Self::try_score_items) instead.
    fn score_items(&self, user: usize) -> Vec<f64>;

    /// Number of users the model can score, i.e. valid ids are
    /// `0..n_users()`. Models that genuinely score any user (e.g. a pure
    /// popularity baseline) return `usize::MAX`.
    fn n_users(&self) -> usize;

    /// The model's frozen scoring form: its parameter values as plain
    /// data, `Send + Sync`, scoring every user bit for bit as
    /// [`score_items`](Self::score_items) does (see [`crate::frozen`]).
    fn freeze(&self) -> Frozen;

    /// Bounds-checked scoring for untrusted ids: returns a typed
    /// [`ScoreError`] instead of panicking on an out-of-range user.
    fn try_score_items(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        let n_users = self.n_users();
        if user >= n_users {
            return Err(ScoreError::UserOutOfRange { user, n_users });
        }
        Ok(self.score_items(user))
    }

    /// The top-K entry point: scores every candidate that can reach the
    /// top `k` of `candidates` (ascending ids) for `user`, bounds-checked
    /// like [`try_score_items`](Self::try_score_items).
    /// [`Shortlist::rank`] then orders them, bit for bit as ranking the
    /// full `try_score_items` over `candidates` would. The default scores
    /// the whole catalog; the dot-product decoder
    /// ([`crate::frozen::DotScorer`]) rescores only certified survivors.
    fn try_top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, ScoreError> {
        Ok(Shortlist::dense(self.try_score_items(user)?, candidates, k))
    }
}

/// Everything a model needs to train: sizes, item attributes and the
/// training pairs. Borrowed from a [`Dataset`] + [`Split`].
#[derive(Clone, Copy, Debug)]
pub struct TrainData<'a> {
    /// Number of users.
    pub n_users: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of categories.
    pub n_categories: usize,
    /// Number of price levels.
    pub n_price_levels: usize,
    /// Price level per item.
    pub item_price_level: &'a [usize],
    /// Category per item.
    pub item_category: &'a [usize],
    /// Unique training `(user, item)` pairs.
    pub train: &'a [(usize, usize)],
}

impl<'a> TrainData<'a> {
    /// Assembles the training view from a dataset and its temporal split.
    pub fn new(dataset: &'a Dataset, split: &'a Split) -> Self {
        assert_eq!(dataset.n_users, split.n_users, "dataset/split user count mismatch");
        assert_eq!(dataset.n_items, split.n_items, "dataset/split item count mismatch");
        Self {
            n_users: dataset.n_users,
            n_items: dataset.n_items,
            n_categories: dataset.n_categories,
            n_price_levels: dataset.n_price_levels,
            item_price_level: &dataset.item_price_level,
            item_category: &dataset.item_category,
            train: &split.train,
        }
    }
}

/// A trainable parameter together with its stable, human-readable name
/// (e.g. `"item_emb"`, `"w1[0]"`), as exposed by [`ParamRegistry`].
#[derive(Clone, Debug)]
pub struct NamedParam {
    /// Stable field-level name, unique within one model instance.
    pub name: String,
    /// The parameter leaf itself (aliases the model's own handle).
    pub var: Var,
}

impl NamedParam {
    /// Names `var` (the handle is cloned; `Var` clones alias the node).
    pub fn new(name: impl Into<String>, var: &Var) -> Self {
        Self { name: name.into(), var: var.clone() }
    }
}

/// Uniform parameter registry: every model exposes its trainable leaves
/// under stable names so static analyses (the `audit-graph` dead-parameter
/// pass in `pup-analysis`) can report *which* parameter fails to reach the
/// loss, not just that one does.
///
/// Implementations must return **every** trainable leaf the model owns —
/// the registry, not the forward pass, is the source of truth for "this
/// parameter should be trained".
pub trait ParamRegistry {
    /// All trainable parameters with their names, in declaration order.
    fn named_params(&self) -> Vec<NamedParam>;
}

/// Sum of all pairwise inner products among the feature embeddings, computed
/// in linear time via the paper's eq. 7:
///
/// `Σ_{f<g} e_f·e_g = ½ [ (Σ_f e_f)² − Σ_f e_f² ]` (row-wise).
///
/// Each input is a `(batch, d)` embedding; the result is `(batch, 1)`.
pub fn pairwise_interactions(features: &[Var]) -> Var {
    // pup-audit: allow(hotpath-panic): fail-fast arity precondition: interactions need at least two features
    assert!(features.len() >= 2, "need at least two features to interact");
    // pup-audit: allow(hotpath-panic): in-bounds after the two-features assert above
    let mut total = features[0].clone();
    // pup-audit: allow(hotpath-panic): in-bounds after the two-features assert above
    for f in &features[1..] {
        total = ops::add(&total, f);
    }
    let sum_sq = ops::rowwise_dot(&total, &total);
    // pup-audit: allow(hotpath-panic): in-bounds after the two-features assert
    let mut sq_sum = ops::rowwise_dot(&features[0], &features[0]);
    // pup-audit: allow(hotpath-panic): in-bounds after the two-features assert
    for f in &features[1..] {
        sq_sum = ops::add(&sq_sum, &ops::rowwise_dot(f, f));
    }
    ops::scale(&ops::sub(&sum_sq, &sq_sum), 0.5)
}

/// Naive quadratic-time pairwise interactions; reference implementation for
/// tests and the decoder benchmark (ablation of eq. 7).
#[expect(clippy::expect_used, reason = "documented precondition: callers pass a non-empty batch.")]
pub fn pairwise_interactions_naive(features: &[Var]) -> Var {
    assert!(features.len() >= 2, "need at least two features to interact");
    let mut acc: Option<Var> = None;
    for (a, fa) in features.iter().enumerate() {
        for fb in &features[a + 1..] {
            let d = ops::rowwise_dot(fa, fb);
            acc = Some(match acc {
                Some(prev) => ops::add(&prev, &d),
                None => d,
            });
        }
    }
    acc.expect("at least one pair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_var(rows: usize, cols: usize, seed: u64) -> Var {
        let mut rng = StdRng::seed_from_u64(seed);
        Var::param(Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0)))
    }

    #[test]
    fn eq7_trick_matches_naive_for_three_features() {
        let feats: Vec<Var> = (0..3).map(|s| rand_var(5, 8, s)).collect();
        let fast = pairwise_interactions(&feats);
        let naive = pairwise_interactions_naive(&feats);
        let diff = fast.value().sub(&naive.value()).max_abs();
        assert!(diff < 1e-10, "eq.7 deviates from naive by {diff}");
    }

    #[test]
    fn eq7_trick_matches_naive_for_many_features() {
        let feats: Vec<Var> = (0..6).map(|s| rand_var(4, 16, 100 + s)).collect();
        let fast = pairwise_interactions(&feats);
        let naive = pairwise_interactions_naive(&feats);
        let diff = fast.value().sub(&naive.value()).max_abs();
        assert!(diff < 1e-9);
    }

    #[test]
    fn eq7_gradients_match_naive_gradients() {
        let make =
            |seed: u64| -> Vec<Var> { (0..3u64).map(|s| rand_var(4, 6, seed + s)).collect() };
        let f1 = make(7);
        let f2 = make(7);
        pup_tensor::ops::sum(&pairwise_interactions(&f1)).backward();
        pup_tensor::ops::sum(&pairwise_interactions_naive(&f2)).backward();
        for (a, b) in f1.iter().zip(&f2) {
            let ga = a.grad().unwrap();
            let gb = b.grad().unwrap();
            assert!(ga.sub(&gb).max_abs() < 1e-10, "gradient mismatch between eq.7 and naive");
        }
    }

    /// A matrix's entries as bits.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `ops::pairwise_rows` against the chain it replaces in PUP (each
    /// list gathered, then [`pairwise_interactions`]): the values and the
    /// source's gradient bit for bit. Two calls feed one source, as a BPR
    /// step's positive and negative batches do; the lists name disjoint
    /// row ranges with repeats, and every fifth gradient row is zero (the
    /// path where a feature's row gradient can be `−0.0`).
    #[test]
    fn pairwise_rows_matches_the_chain_bit_for_bit() {
        for (seed, batch, cols) in [(1, 1, 1), (2, 7, 3), (3, 64, 8), (4, 300, 56), (5, 9, 0)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let ranges = [0..20, 20..60, 60..64];
            let table = Matrix::from_fn(64, cols, |_, _| rng.gen_range(-1.0..1.0));
            let draw = |rng: &mut StdRng| -> Vec<Vec<usize>> {
                ranges
                    .iter()
                    .map(|r| (0..batch).map(|_| rng.gen_range(r.clone())).collect())
                    .collect()
            };
            let calls = [draw(&mut rng), draw(&mut rng)];
            let weights: Vec<Var> = (0..2)
                .map(|_| {
                    let mut w =
                        |b: usize| if b.is_multiple_of(5) { 0.0 } else { rng.gen_range(-2.0..2.0) };
                    Var::constant(Matrix::from_fn(batch, 1, |b, _| w(b)))
                })
                .collect();
            let run = |fused: bool| {
                let param = Var::param(table.clone());
                let src = ops::tanh(&param);
                let scores: Vec<Var> = calls
                    .iter()
                    .map(|lists| {
                        if fused {
                            ops::pairwise_rows(&src, [0, 1, 2].map(|k| lists[k].clone()))
                        } else {
                            let f: Vec<Var> =
                                lists.iter().map(|l| ops::gather_rows(&src, l)).collect();
                            pairwise_interactions(&f)
                        }
                    })
                    .collect();
                let weighted: Vec<Var> =
                    scores.iter().zip(&weights).map(|(s, w)| ops::sum(&ops::mul(s, w))).collect();
                ops::add(&weighted[0], &weighted[1]).backward();
                let values: Vec<Vec<u64>> = scores.iter().map(|s| bits(&s.value())).collect();
                (values, bits(&param.grad().expect("the table takes a gradient")))
            };
            assert_eq!(run(true), run(false), "seed {seed}: {batch} x {cols}");
        }
    }

    #[test]
    fn two_features_reduce_to_plain_dot() {
        let a = rand_var(3, 4, 1);
        let b = rand_var(3, 4, 2);
        let fast = pairwise_interactions(&[a.clone(), b.clone()]);
        let dot = ops::rowwise_dot(&a, &b);
        assert!(fast.value().sub(&dot.value()).max_abs() < 1e-10);
    }
}
