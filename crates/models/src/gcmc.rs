//! GC-MC baseline (paper §V-A2, van den Berg et al. [25]): graph
//! convolution on the bipartite user–item graph with one-hot ID input
//! features, followed by a dense transform and a dot-product decoder.
//!
//! Faithful simplifications: implicit-feedback data has a single rating
//! type, so the per-rating-type weight matrices of the original collapse to
//! one propagation; the paper itself feeds only one-hot IDs (§V-A2).

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

/// GC-MC: `Z = tanh(Â E) W`, `s(u, i) = z_u · z_i`.
pub struct GcMc {
    emb: Var,
    w: Var,
    a_hat: Arc<CsrMatrix>,
    n_users: usize,
    n_items: usize,
    dropout: f64,
    /// Propagated representations of the current training step.
    step_repr: Option<Var>,
    /// Dropout-free representations for inference.
    final_repr: Option<DotScorer>,
}

impl GcMc {
    /// Builds the bipartite graph from training pairs and initializes
    /// parameters.
    pub fn new(data: &TrainData<'_>, dim: usize, dropout: f64, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
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
        let a_hat = Arc::new(sym_normalized(graph.adjacency(), true));
        let mut rng = StdRng::seed_from_u64(seed);
        let n = data.n_users + data.n_items;
        Self {
            emb: Var::param(init::normal(n, dim, 0.1, &mut rng)),
            w: Var::param(init::xavier(dim, dim, &mut rng)),
            a_hat,
            n_users: data.n_users,
            n_items: data.n_items,
            dropout,
            step_repr: None,
            final_repr: None,
        }
    }

    fn propagate(&self, rng: Option<&mut StdRng>) -> Var {
        let h = ops::tanh(&ops::spmm(&self.a_hat, &self.emb));
        let h = match rng {
            Some(rng) if self.dropout > 0.0 => ops::dropout(&h, self.dropout, rng),
            _ => h,
        };
        ops::matmul(&h, &self.w)
    }
}

impl BprModel for GcMc {
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
        pup_tensor::checks::guard_finite("GcMc::score_batch", &scores);
        scores
    }

    fn params(&self) -> Vec<Var> {
        vec![self.emb.clone(), self.w.clone()]
    }

    fn finalize(&mut self) {
        let repr = self.propagate(None);
        self.final_repr =
            Some(DotScorer::from_stacked("GC-MC", &repr.value(), self.n_users, self.n_items));
        self.step_repr = None;
    }
}

impl ParamRegistry for GcMc {
    fn named_params(&self) -> Vec<NamedParam> {
        vec![NamedParam::new("emb", &self.emb), NamedParam::new("w", &self.w)]
    }
}

impl GcMc {
    /// The finalized inference decoder.
    #[expect(
        clippy::expect_used,
        reason = "inference-before-finalize is a caller bug; covered by a should_panic test."
    )]
    fn finalized(&self) -> &DotScorer {
        // pup-audit: allow(hotpath-panic): lifecycle invariant: serve only loads models after finalize
        self.final_repr.as_ref().expect("finalize must run before inference")
    }
}

impl Recommender for GcMc {
    fn name(&self) -> &str {
        "GC-MC"
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

    fn block_data(train: &[(usize, usize)]) -> TrainData<'_> {
        TrainData {
            n_users: 8,
            n_items: 8,
            n_categories: 1,
            n_price_levels: 1,
            item_price_level: &[0; 8],
            item_category: &[0; 8],
            train,
        }
    }

    fn block_train() -> Vec<(usize, usize)> {
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
        train
    }

    #[test]
    fn propagation_shares_signal_between_neighbors() {
        // Users 0 and 1 are 2-hop neighbors through item 0; their propagated
        // representations should be more similar than user 0 and user 7 (no
        // shared items). At dim 8 a single random init is noisy, so average
        // the margin over several seeds instead of betting on one.
        let train = vec![(0, 0), (1, 0)];
        let data = block_data(&train);
        let mut margin = 0.0;
        for seed in 0..10 {
            let mut m = GcMc::new(&data, 8, 0.0, seed);
            m.finalize();
            let r = &m.final_repr.as_ref().unwrap().users;
            let sim = |a: usize, b: usize| {
                r.gather_rows(&[a]).rowwise_dot(&r.gather_rows(&[b])).get(0, 0)
            };
            margin += sim(0, 1) - sim(0, 7);
        }
        assert!(margin > 0.0, "GCN smoothing absent: mean margin {}", margin / 10.0);
    }

    #[test]
    fn learns_block_structure_end_to_end() {
        let train = block_train();
        let data = block_data(&train);
        let mut m = GcMc::new(&data, 8, 0.0, 1);
        let cfg =
            TrainConfig { epochs: 60, batch_size: 8, lr: 0.05, l2: 0.0, ..Default::default() };
        let stats = train_bpr(&mut m, 8, 8, &train, &cfg).expect("training");
        let last = stats.final_loss().expect("at least one epoch ran");
        assert!(last < stats.epoch_losses[0] * 0.6);
        let s = m.score_items(0);
        let in_block = s[3];
        let best_out = s[4..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(in_block > best_out, "GC-MC failed CF blocks: {in_block} vs {best_out}");
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn inference_requires_finalize() {
        let train = vec![(0, 0)];
        let data = block_data(&train);
        let m = GcMc::new(&data, 4, 0.0, 0);
        let _ = m.score_items(0);
    }
}
