//! NGCF baseline (paper §V-A2, Wang et al. [18]): Neural Graph
//! Collaborative Filtering with price-augmented item inputs.
//!
//! Per the paper's setup, the item input feature is "a concatenation of
//! one-hot ID feature and one-hot price feature"; under a linear embedding
//! layer a concatenation of one-hots is exactly the *sum* of the two
//! embeddings, which is how it is implemented here.
//!
//! Each propagation layer follows NGCF's rule in matrix form
//! (`L = D^{-1/2} A D^{-1/2}` without self-loops):
//!
//! `E^{l+1} = LeakyReLU( (L + I) E^l W1 + (L E^l) ⊙ E^l W2 )`
//!
//! and the final representation concatenates all layers' outputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_graph::normalize::sym_normalized;
use pup_graph::{build_pup_graph, GraphSpec};
use pup_tensor::{init, ops, CsrMatrix, Var};

use crate::common::{NamedParam, ParamRegistry, Recommender, ScoreError, TrainData};
use crate::frozen::{DotScorer, Frozen};
use crate::topk::{Candidates, Shortlist};
use crate::trainer::BprModel;

/// NGCF with price-aware item inputs.
pub struct Ngcf {
    user_emb: Var,
    item_emb: Var,
    price_emb: Var,
    w1: Vec<Var>,
    w2: Vec<Var>,
    l_hat: Arc<CsrMatrix>,
    item_price_level: Vec<usize>,
    n_users: usize,
    n_items: usize,
    dropout: f64,
    step_repr: Option<Var>,
    final_repr: Option<DotScorer>,
}

impl Ngcf {
    /// Builds NGCF with `n_layers` propagation layers of width `dim`.
    pub fn new(data: &TrainData<'_>, dim: usize, n_layers: usize, dropout: f64, seed: u64) -> Self {
        assert!(dim > 0 && n_layers > 0, "dim and n_layers must be positive");
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1)");
        let graph = build_pup_graph(
            data.n_users,
            data.n_items,
            0,
            0,
            &vec![0; data.n_items],
            &vec![0; data.n_items],
            data.train,
            GraphSpec::BIPARTITE,
        );
        let l_hat = Arc::new(sym_normalized(graph.adjacency(), false));
        let mut rng = StdRng::seed_from_u64(seed);
        let w1 = (0..n_layers).map(|_| Var::param(init::xavier(dim, dim, &mut rng))).collect();
        let w2 = (0..n_layers).map(|_| Var::param(init::xavier(dim, dim, &mut rng))).collect();
        Self {
            user_emb: Var::param(init::normal(data.n_users, dim, 0.1, &mut rng)),
            item_emb: Var::param(init::normal(data.n_items, dim, 0.1, &mut rng)),
            price_emb: Var::param(init::normal(data.n_price_levels.max(1), dim, 0.1, &mut rng)),
            w1,
            w2,
            l_hat,
            item_price_level: data.item_price_level.to_vec(),
            n_users: data.n_users,
            n_items: data.n_items,
            dropout,
            step_repr: None,
            final_repr: None,
        }
    }

    /// Runs all propagation layers; returns the layer-concatenated
    /// representations of every node.
    fn propagate(&self, mut rng: Option<&mut StdRng>) -> Var {
        // E^0: users stacked over (item id + item price) embeddings.
        let item_prices = ops::gather_rows(&self.price_emb, &self.item_price_level);
        let item_input = ops::add(&self.item_emb, &item_prices);
        let e0 = ops::concat_rows(&self.user_emb, &item_input);

        let mut layers = vec![e0.clone()];
        let mut e = e0;
        for (w1, w2) in self.w1.iter().zip(&self.w2) {
            let m = ops::spmm(&self.l_hat, &e);
            let term1 = ops::matmul(&ops::add(&m, &e), w1);
            let term2 = ops::matmul(&ops::mul(&m, &e), w2);
            let mut next = ops::leaky_relu(&ops::add(&term1, &term2), 0.2);
            if let Some(r) = rng.as_deref_mut() {
                if self.dropout > 0.0 {
                    next = ops::dropout(&next, self.dropout, r);
                }
            }
            // pup-lint: allow(clone-in-loop) — Var is an Rc handle; cloning aliases the node.
            layers.push(next.clone());
            e = next;
        }
        // pup-audit: allow(hotpath-panic): layers is non-empty: config always builds at least one propagation layer
        let mut out = layers[0].clone();
        // pup-audit: allow(hotpath-panic): layers is non-empty: config always builds at least one propagation layer
        for l in &layers[1..] {
            out = ops::concat_cols(&out, l);
        }
        out
    }
}

impl BprModel for Ngcf {
    fn begin_step(&mut self, _: &[usize], _: &[usize], _: &[usize], rng: &mut StdRng) {
        self.step_repr = Some(self.propagate(Some(rng)));
    }

    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
        #[expect(
            clippy::expect_used,
            reason = "BprModel state machine: trainer calls begin_step first."
        )]
        // pup-audit: allow(hotpath-panic): lifecycle invariant: run_epoch calls begin_step before any scoring
        let repr = self.step_repr.as_ref().expect("begin_step must run first");
        let item_idx: Vec<usize> = items.iter().map(|&i| self.n_users + i).collect();
        let u = ops::gather_rows(repr, users);
        let i = ops::gather_rows(repr, &item_idx);
        let scores = ops::rowwise_dot(&u, &i);
        pup_tensor::checks::guard_finite("Ngcf::score_batch", &scores);
        scores
    }

    fn params(&self) -> Vec<Var> {
        let mut p = vec![self.user_emb.clone(), self.item_emb.clone(), self.price_emb.clone()];
        p.extend(self.w1.iter().cloned());
        p.extend(self.w2.iter().cloned());
        p
    }

    fn finalize(&mut self) {
        let repr = self.propagate(None);
        self.final_repr =
            Some(DotScorer::from_stacked("NGCF", &repr.value(), self.n_users, self.n_items));
        self.step_repr = None;
    }
}

impl ParamRegistry for Ngcf {
    fn named_params(&self) -> Vec<NamedParam> {
        let mut p = vec![
            NamedParam::new("user_emb", &self.user_emb),
            NamedParam::new("item_emb", &self.item_emb),
            NamedParam::new("price_emb", &self.price_emb),
        ];
        p.extend(self.w1.iter().enumerate().map(|(l, w)| NamedParam::new(format!("w1[{l}]"), w)));
        p.extend(self.w2.iter().enumerate().map(|(l, w)| NamedParam::new(format!("w2[{l}]"), w)));
        p
    }
}

impl Ngcf {
    /// The finalized inference decoder.
    #[expect(clippy::expect_used, reason = "inference-before-finalize is a caller bug.")]
    fn finalized(&self) -> &DotScorer {
        // pup-audit: allow(hotpath-panic): lifecycle invariant: serve only loads models after finalize
        self.final_repr.as_ref().expect("finalize must run before inference")
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> &str {
        "NGCF"
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        self.finalized().score_items(user)
    }

    fn try_top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, ScoreError> {
        self.finalized().try_top_k(user, candidates, k)
    }

    fn n_users(&self) -> usize {
        self.n_users
    }

    #[expect(
        clippy::expect_used,
        reason = "freezing before finalize is a caller bug, as inference is."
    )]
    fn freeze(&self) -> Frozen {
        Box::new(self.final_repr.clone().expect("finalize must run before freezing"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_bpr, TrainConfig};

    fn data<'a>(train: &'a [(usize, usize)], price: &'a [usize]) -> TrainData<'a> {
        TrainData {
            n_users: 8,
            n_items: price.len(),
            n_categories: 1,
            n_price_levels: price.iter().max().unwrap() + 1,
            item_price_level: price,
            item_category: &[],
            train,
        }
    }

    #[test]
    fn price_embedding_flows_into_item_inputs() {
        let price = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let train = vec![(0, 0)];
        let d = TrainData { item_category: &[0; 8], ..data(&train, &price) };
        let mut m = Ngcf::new(&d, 4, 2, 0.0, 0);
        m.begin_step(&[0], &[1], &[1], &mut StdRng::seed_from_u64(0));
        let s = m.score_batch(&[0], &[1]);
        pup_tensor::ops::sum(&s).backward();
        let g = m.price_emb.grad().expect("price embedding should get gradient");
        assert!(g.max_abs() > 0.0);
    }

    #[test]
    fn representation_width_is_layers_plus_one_times_dim() {
        let price = vec![0; 8];
        let train = vec![(0, 0)];
        let d = TrainData { item_category: &[0; 8], ..data(&train, &price) };
        let mut m = Ngcf::new(&d, 4, 3, 0.0, 0);
        m.finalize();
        assert_eq!(m.final_repr.as_ref().unwrap().users.cols(), 4 * (3 + 1));
    }

    #[test]
    fn learns_block_structure() {
        let price = vec![0; 8];
        // Dense 4x4 blocks with the single pair (0,3) held out: user 0
        // co-purchases with users 1-3, all of whom bought item 3.
        let mut train = Vec::new();
        for u in 0..8usize {
            for i in 0..8usize {
                if (u < 4) == (i < 4) && !(u == 0 && i == 3) {
                    train.push((u, i));
                }
            }
        }
        let d = TrainData { item_category: &[0; 8], ..data(&train, &price) };
        let mut m = Ngcf::new(&d, 8, 2, 0.0, 1);
        let cfg =
            TrainConfig { epochs: 60, batch_size: 8, lr: 0.02, l2: 0.0, ..Default::default() };
        train_bpr(&mut m, 8, 8, &train, &cfg).expect("training");
        let s = m.score_items(0);
        let in_block = s[3];
        let best_out = s[4..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(in_block > best_out, "NGCF failed CF blocks: {in_block} vs {best_out}");
    }
}
