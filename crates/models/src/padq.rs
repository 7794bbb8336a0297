//! PaDQ baseline (paper §V-A2, Chen et al. [34]): collective matrix
//! factorization [35] over the user–item, user–price and item–price
//! matrices with shared latent factors.
//!
//! PaDQ treats price as a *target to reconstruct* rather than an input —
//! the property the paper's §V-B2 blames for its weak ranking accuracy
//! ("price should be considered more as an input rather than a target").
//! Training minimizes squared reconstruction error with sampled zeros on
//! all three matrices; ranking uses `s(u, i) = e_u · e_i`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pup_tensor::optim::{Adam, Optimizer};
use pup_tensor::{init, ops, Matrix, Var};

use crate::common::{NamedParam, ParamRegistry, Recommender, TrainData};
use crate::frozen::{dot_scores, DotScorer, Frozen};

/// Hyperparameters for PaDQ's collective factorization.
#[derive(Clone, Debug)]
pub struct PadqConfig {
    /// Shared latent dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (per matrix).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularization.
    pub l2: f64,
    /// Relative weight of the user–price reconstruction task.
    pub user_price_weight: f64,
    /// Relative weight of the item–price reconstruction task.
    pub item_price_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PadqConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            epochs: 40,
            batch_size: 1024,
            lr: 1e-2,
            l2: 1e-5,
            user_price_weight: 0.5,
            item_price_weight: 0.5,
            seed: 1,
        }
    }
}

/// Trained PaDQ model.
pub struct Padq {
    user_emb: Var,
    item_emb: Var,
    price_emb: Var,
    n_price_levels: usize,
}

impl Padq {
    /// Fits the collective factorization on the training data.
    pub fn fit(data: &TrainData<'_>, cfg: &PadqConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = Self::init(data, cfg, &mut rng);
        model.train(data, cfg, &mut rng);
        model
    }

    /// Initializes an untrained model (split out of [`Padq::fit`] so the
    /// graph auditor can record the loss graph without training; `fit` draws
    /// initialization and training samples from the same `rng` stream, so
    /// per-seed determinism is unchanged).
    pub fn init(data: &TrainData<'_>, cfg: &PadqConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.dim > 0 && cfg.epochs > 0, "degenerate PaDQ config");
        assert!(!data.train.is_empty(), "training set is empty");
        let user_emb = Var::param(init::normal(data.n_users, cfg.dim, 0.1, rng));
        let item_emb = Var::param(init::normal(data.n_items, cfg.dim, 0.1, rng));
        let price_emb = Var::param(init::normal(data.n_price_levels.max(1), cfg.dim, 0.1, rng));
        Self { user_emb, item_emb, price_emb, n_price_levels: data.n_price_levels.max(1) }
    }

    /// The squared-error training objective over one mini-batch, exactly as
    /// `fit` computes it (`chunk` holds indices into `data.train`). Public
    /// so the graph auditor can record PaDQ's loss graph.
    pub fn training_loss(
        &self,
        data: &TrainData<'_>,
        chunk: &[usize],
        cfg: &PadqConfig,
        rng: &mut StdRng,
    ) -> Var {
        let user_price: Vec<(usize, usize)> =
            data.train.iter().map(|&(u, i)| (u, data.item_price_level[i])).collect();
        self.batch_loss(data, &user_price, chunk, cfg, rng)
    }

    fn train(&mut self, data: &TrainData<'_>, cfg: &PadqConfig, rng: &mut StdRng) {
        let params = vec![self.user_emb.clone(), self.item_emb.clone(), self.price_emb.clone()];
        let mut opt = Adam::new(params, cfg.lr, cfg.l2);
        // Observed (user, price) pairs derived from purchases.
        let user_price: Vec<(usize, usize)> =
            data.train.iter().map(|&(u, i)| (u, data.item_price_level[i])).collect();
        let mut order: Vec<usize> = (0..data.train.len()).collect();
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(cfg.batch_size) {
                let loss = self.batch_loss(data, &user_price, chunk, cfg, rng);
                loss.backward();
                opt.step();
            }
        }
    }

    /// Squared-error loss over one mini-batch of each of the three matrices.
    /// Each observed cell (target 1) is paired with one sampled zero cell.
    fn batch_loss(
        &self,
        data: &TrainData<'_>,
        user_price: &[(usize, usize)],
        chunk: &[usize],
        cfg: &PadqConfig,
        rng: &mut StdRng,
    ) -> Var {
        let b = chunk.len();
        let mut users = Vec::with_capacity(2 * b);
        let mut items = Vec::with_capacity(2 * b);
        let mut up_users = Vec::with_capacity(2 * b);
        let mut up_prices = Vec::with_capacity(2 * b);
        let mut ip_items = Vec::with_capacity(2 * b);
        let mut ip_prices = Vec::with_capacity(2 * b);
        for &k in chunk {
            let (u, i) = data.train[k];
            // user-item: observed + sampled zero
            users.push(u);
            items.push(i);
            users.push(u);
            items.push(rng.gen_range(0..data.n_items));
            // user-price
            let (pu, pp) = user_price[k];
            up_users.push(pu);
            up_prices.push(pp);
            up_users.push(pu);
            up_prices.push(rng.gen_range(0..self.n_price_levels));
            // item-price: the item's own level + a sampled zero level
            ip_items.push(i);
            ip_prices.push(data.item_price_level[i]);
            ip_items.push(i);
            ip_prices.push(rng.gen_range(0..self.n_price_levels));
        }
        // Targets alternate 1, 0. Sampled "zeros" may collide with true
        // positives; as in standard CMF practice they act as weak negatives.
        let target =
            Var::constant(Matrix::from_fn(2 * b, 1, |r, _| if r % 2 == 0 { 1.0 } else { 0.0 }));

        let sq_err = |a: &Var, b_: &Var| -> Var {
            let pred = ops::rowwise_dot(a, b_);
            ops::mean(&ops::square(&ops::sub(&pred, &target)))
        };
        let ui = sq_err(
            &ops::gather_rows(&self.user_emb, &users),
            &ops::gather_rows(&self.item_emb, &items),
        );
        let up = sq_err(
            &ops::gather_rows(&self.user_emb, &up_users),
            &ops::gather_rows(&self.price_emb, &up_prices),
        );
        let ip = sq_err(
            &ops::gather_rows(&self.item_emb, &ip_items),
            &ops::gather_rows(&self.price_emb, &ip_prices),
        );
        ops::add(
            &ui,
            &ops::add(
                &ops::scale(&up, cfg.user_price_weight),
                &ops::scale(&ip, cfg.item_price_weight),
            ),
        )
    }
}

impl ParamRegistry for Padq {
    fn named_params(&self) -> Vec<NamedParam> {
        vec![
            NamedParam::new("user_emb", &self.user_emb),
            NamedParam::new("item_emb", &self.item_emb),
            NamedParam::new("price_emb", &self.price_emb),
        ]
    }
}

impl Recommender for Padq {
    fn name(&self) -> &str {
        "PaDQ"
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        dot_scores(&self.user_emb.value(), &self.item_emb.value(), user)
    }

    fn n_users(&self) -> usize {
        self.user_emb.shape().0
    }

    fn freeze(&self) -> Frozen {
        Box::new(DotScorer::new("PaDQ", self.user_emb.value_clone(), self.item_emb.value_clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_reconstructs_observed_cells_higher_than_zeros() {
        // Users 0,1 buy items 0,1 (price level 0); users 2,3 buy items 2,3
        // (price level 1).
        let price = vec![0, 0, 1, 1];
        let cat = vec![0; 4];
        let train = vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)];
        let data = TrainData {
            n_users: 4,
            n_items: 4,
            n_categories: 1,
            n_price_levels: 2,
            item_price_level: &price,
            item_category: &cat,
            train: &train,
        };
        let cfg = PadqConfig {
            dim: 8,
            epochs: 200,
            batch_size: 8,
            lr: 0.05,
            l2: 0.0,
            ..Default::default()
        };
        let m = Padq::fit(&data, &cfg);
        let s0 = m.score_items(0);
        let own = (s0[0] + s0[1]) / 2.0;
        let other = (s0[2] + s0[3]) / 2.0;
        assert!(own > other, "PaDQ failed to separate blocks: {own} vs {other}");
    }

    #[test]
    fn shared_price_factors_receive_signal() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0), (1, 1)];
        let data = TrainData {
            n_users: 2,
            n_items: 2,
            n_categories: 1,
            n_price_levels: 2,
            item_price_level: &price,
            item_category: &cat,
            train: &train,
        };
        let cfg = PadqConfig { dim: 4, epochs: 50, batch_size: 4, ..Default::default() };
        let m = Padq::fit(&data, &cfg);
        // After training, price embeddings must have moved off initialization
        // scale-0.1 noise: their dot with the matching user should exceed the
        // mismatched one on average.
        let u0 = m.user_emb.value().gather_rows(&[0]);
        let p = m.price_emb.value();
        let d0 = u0.matmul_t(&p);
        assert!(d0.get(0, 0) > d0.get(0, 1), "user 0 should align with price level 0");
    }

    #[test]
    fn deterministic_per_seed() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0), (1, 1)];
        let data = TrainData {
            n_users: 2,
            n_items: 2,
            n_categories: 1,
            n_price_levels: 2,
            item_price_level: &price,
            item_category: &cat,
            train: &train,
        };
        let cfg = PadqConfig { dim: 4, epochs: 5, ..Default::default() };
        let a = Padq::fit(&data, &cfg).score_items(0);
        let b = Padq::fit(&data, &cfg).score_items(0);
        assert_eq!(a, b);
    }
}
