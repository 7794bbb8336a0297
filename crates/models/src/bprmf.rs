//! BPR-MF baseline (paper §V-A2, Rendle et al. [5]): plain matrix
//! factorization trained with the Bayesian Personalized Ranking loss.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_tensor::{init, ops, Var};

use crate::common::{NamedParam, ParamRegistry, Recommender, TrainData};
use crate::frozen::{dot_scores, DotScorer, Frozen};
use crate::trainer::BprModel;

/// Matrix factorization: `s(u, i) = e_u · e_i`.
pub struct BprMf {
    user_emb: Var,
    item_emb: Var,
}

impl BprMf {
    /// Initializes embedding tables of dimension `dim`.
    pub fn new(data: &TrainData<'_>, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            user_emb: Var::param(init::normal(data.n_users, dim, 0.1, &mut rng)),
            item_emb: Var::param(init::normal(data.n_items, dim, 0.1, &mut rng)),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.user_emb.shape().1
    }
}

impl BprModel for BprMf {
    fn begin_step(&mut self, _: &[usize], _: &[usize], _: &[usize], _: &mut StdRng) {}

    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
        let u = ops::gather_rows(&self.user_emb, users);
        let i = ops::gather_rows(&self.item_emb, items);
        let scores = ops::rowwise_dot(&u, &i);
        pup_tensor::checks::guard_finite("BprMf::score_batch", &scores);
        scores
    }

    fn params(&self) -> Vec<Var> {
        vec![self.user_emb.clone(), self.item_emb.clone()]
    }

    fn finalize(&mut self) {}
}

impl ParamRegistry for BprMf {
    fn named_params(&self) -> Vec<NamedParam> {
        vec![
            NamedParam::new("user_emb", &self.user_emb),
            NamedParam::new("item_emb", &self.item_emb),
        ]
    }
}

impl Recommender for BprMf {
    fn name(&self) -> &str {
        "BPR-MF"
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        dot_scores(&self.user_emb.value(), &self.item_emb.value(), user)
    }

    fn n_users(&self) -> usize {
        self.user_emb.shape().0
    }

    fn freeze(&self) -> Frozen {
        Box::new(DotScorer::new("BPR-MF", self.user_emb.value_clone(), self.item_emb.value_clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_bpr, TrainConfig};

    #[test]
    fn learns_block_structure() {
        let price = vec![0usize; 8];
        let cat = vec![0usize; 8];
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
        let data = TrainData {
            n_users: 8,
            n_items: 8,
            n_categories: 1,
            n_price_levels: 1,
            item_price_level: &price,
            item_category: &cat,
            train: &train,
        };
        let mut m = BprMf::new(&data, 8, 1);
        let cfg =
            TrainConfig { epochs: 60, batch_size: 8, lr: 0.05, l2: 0.0, ..Default::default() };
        train_bpr(&mut m, 8, 8, &train, &cfg).expect("training");
        // Held-out in-block pair should outrank every out-of-block item.
        let scores = m.score_items(0);
        let in_block = scores[3]; // (0,3) untrained but in-block
        let best_out = scores[4..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(in_block > best_out, "MF failed to learn CF blocks");
    }
}
