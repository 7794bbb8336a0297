//! DeepFM baseline (paper §V-A2, Guo et al. [13]): an FM component and a
//! deep MLP component sharing the same field embeddings, summed into the
//! final score. Price and category are item fields exactly as in [`crate::fm`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_tensor::{init, ops, Matrix, Var};

use crate::common::{pairwise_interactions, NamedParam, ParamRegistry, Recommender, TrainData};
use crate::fm::{Fm, FmMeta, FrozenFm};
use crate::frozen::Frozen;
use crate::trainer::BprModel;

/// DeepFM: `s = s_FM + MLP(concat of field embeddings)`.
pub struct DeepFm {
    fm: Fm,
    w1: Var,
    b1: Var,
    w2: Var,
    b2: Var,
    w_out: Var,
}

impl DeepFm {
    /// Initializes DeepFM with field embedding dimension `dim` and a
    /// two-layer MLP of width `hidden`.
    pub fn new(data: &TrainData<'_>, dim: usize, hidden: usize, seed: u64) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        let fm = Fm::new(data, dim, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9));
        Self {
            fm,
            w1: Var::param(init::xavier(4 * dim, hidden, &mut rng)),
            b1: Var::param(Matrix::zeros(1, hidden)),
            w2: Var::param(init::xavier(hidden, hidden, &mut rng)),
            b2: Var::param(Matrix::zeros(1, hidden)),
            w_out: Var::param(init::xavier(hidden, 1, &mut rng)),
        }
    }

    fn deep_component(&self, fields: &[Var; 4]) -> Var {
        // pup-audit: allow(hotpath-panic): forward always receives the model's fixed non-empty field set
        let mut x = fields[0].clone();
        // pup-audit: allow(hotpath-panic): forward always receives the model's fixed non-empty field set
        for f in &fields[1..] {
            x = ops::concat_cols(&x, f);
        }
        let h1 = ops::relu(&ops::add_row_broadcast(&ops::matmul(&x, &self.w1), &self.b1));
        let h2 = ops::relu(&ops::add_row_broadcast(&ops::matmul(&h1, &self.w2), &self.b2));
        ops::matmul(&h2, &self.w_out)
    }

    fn full_score(&mut self, users: &[usize], items: &[usize]) -> Var {
        let fields = self.fm.field_embeddings(users, items);
        let fm_score =
            ops::add(&pairwise_interactions(&fields), &self.fm.linear_terms(users, items));
        let deep = self.deep_component(&fields);
        ops::add(&fm_score, &deep)
    }
}

impl BprModel for DeepFm {
    fn begin_step(&mut self, _: &[usize], _: &[usize], _: &[usize], _: &mut StdRng) {}

    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
        let scores = self.full_score(users, items);
        pup_tensor::checks::guard_finite("DeepFm::score_batch", &scores);
        scores
    }

    fn params(&self) -> Vec<Var> {
        let mut p = self.fm.all_params();
        p.extend(self.mlp_refs().map(Var::clone));
        p
    }

    fn finalize(&mut self) {}
}

impl ParamRegistry for DeepFm {
    fn named_params(&self) -> Vec<NamedParam> {
        let mut p = self.fm.named_params();
        for np in &mut p {
            np.name.insert_str(0, "fm.");
        }
        p.extend([
            NamedParam::new("w1", &self.w1),
            NamedParam::new("b1", &self.b1),
            NamedParam::new("w2", &self.w2),
            NamedParam::new("b2", &self.b2),
            NamedParam::new("w_out", &self.w_out),
        ]);
        p
    }
}

impl Recommender for DeepFm {
    fn name(&self) -> &str {
        "DeepFM"
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        let fm = self.fm.param_refs().map(|p| p.value());
        let mlp = self.mlp_refs().map(|p| p.value());
        let (fm, mlp) = (fm.each_ref().map(|m| &**m), mlp.each_ref().map(|m| &**m));
        deep_scores(&self.fm.meta, fm, mlp, user)
    }

    fn n_users(&self) -> usize {
        self.fm.n_users()
    }

    fn freeze(&self) -> Frozen {
        Box::new(FrozenDeepFm {
            fm: self.fm.freeze_fm(),
            mlp: self.mlp_refs().map(Var::value_clone),
        })
    }
}

impl DeepFm {
    /// The MLP parameters in `[w1, b1, w2, b2, w_out]` order.
    fn mlp_refs(&self) -> [&Var; 5] {
        [&self.w1, &self.b1, &self.w2, &self.b2, &self.w_out]
    }
}

/// The negative-side slope of `ops::relu`, kept so inference multiplies
/// exactly as the autograd op does.
const RELU_SLOPE: f64 = 0.0;

/// `relu(x W + b)`, with the arithmetic of `ops::add_row_broadcast` and
/// `ops::relu`.
fn dense_relu(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut h = x.matmul(w);
    for r in 0..h.rows() {
        for (v, &bv) in h.row_mut(r).iter_mut().zip(b.row(0)) {
            *v += bv;
        }
    }
    h.map(|v| if v > 0.0 { v } else { RELU_SLOPE * v })
}

/// DeepFM inference over all items: the FM scores plus the MLP over the
/// concatenated (user, item, category, price) field embeddings, in one
/// batch — the forward pass of `score_batch` on plain values. `fm` is in
/// [`FmMeta::dense_scores`] order, `mlp` is `[w1, b1, w2, b2, w_out]`.
fn deep_scores(meta: &FmMeta, fm: [&Matrix; 8], mlp: [&Matrix; 5], user: usize) -> Vec<f64> {
    let fm_part = meta.dense_scores(fm, user);
    let n_items = fm_part.len();
    let [user_emb, item_emb, cat_emb, price_emb, ..] = fm;
    let items: Vec<usize> = (0..n_items).collect();
    // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
    let cats: Vec<usize> = items.iter().map(|&i| meta.item_category[i]).collect();
    // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
    let prices: Vec<usize> = items.iter().map(|&i| meta.item_price_level[i]).collect();
    let x = user_emb
        .gather_rows(&vec![user; n_items])
        .concat_cols(&item_emb.gather_rows(&items))
        .concat_cols(&cat_emb.gather_rows(&cats))
        .concat_cols(&price_emb.gather_rows(&prices));
    let [w1, b1, w2, b2, w_out] = mlp;
    let deep = dense_relu(&dense_relu(&x, w1, b1), w2, b2).matmul(w_out);
    // pup-audit: allow(hotpath-panic): k < n_items bounds both fm_part and deep rows
    (0..n_items).map(|k| fm_part[k] + deep.get(k, 0)).collect()
}

/// DeepFM's frozen scoring form: the frozen FM plus plain copies of the
/// MLP weights.
#[derive(Clone, Debug)]
pub(crate) struct FrozenDeepFm {
    fm: FrozenFm,
    mlp: [Matrix; 5],
}

impl Recommender for FrozenDeepFm {
    fn name(&self) -> &str {
        "DeepFM"
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        deep_scores(&self.fm.meta, self.fm.params.each_ref(), self.mlp.each_ref(), user)
    }

    fn n_users(&self) -> usize {
        self.fm.n_users()
    }

    fn freeze(&self) -> Frozen {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_bpr, TrainConfig};

    fn toy_data<'a>(
        train: &'a [(usize, usize)],
        price: &'a [usize],
        cat: &'a [usize],
        n_users: usize,
    ) -> TrainData<'a> {
        TrainData {
            n_users,
            n_items: price.len(),
            n_categories: cat.iter().max().unwrap() + 1,
            n_price_levels: price.iter().max().unwrap() + 1,
            item_price_level: price,
            item_category: cat,
            train,
        }
    }

    #[test]
    fn inference_matches_the_autograd_graph_bit_for_bit() {
        let price = vec![0, 1, 1, 0, 1];
        let cat = vec![0, 1, 0, 1, 1];
        let train = vec![(0, 0)];
        let data = toy_data(&train, &price, &cat, 3);
        let m = DeepFm::new(&data, 4, 8, 5);
        let frozen = m.freeze();
        for user in 0..3 {
            let users = vec![user; 5];
            let items: Vec<usize> = (0..5).collect();
            let deep = m.deep_component(&m.fm.field_embeddings(&users, &items)).value_clone();
            let fm_part = m.fm.score_items(user);
            let graph: Vec<u64> = (0..5).map(|k| (fm_part[k] + deep.get(k, 0)).to_bits()).collect();
            let bits = |s: Vec<f64>| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m.score_items(user)), graph, "user {user}");
            assert_eq!(bits(frozen.score_items(user)), graph, "user {user}");
        }
    }

    #[test]
    fn deep_params_receive_gradients() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0)];
        let data = toy_data(&train, &price, &cat, 1);
        let mut m = DeepFm::new(&data, 4, 8, 3);
        let s = m.score_batch(&[0, 0], &[0, 1]);
        pup_tensor::ops::sum(&s).backward();
        for (k, p) in [&m.w1, &m.w2, &m.w_out].iter().enumerate() {
            assert!(
                p.grad().map(|g| g.max_abs() > 0.0).unwrap_or(false),
                "MLP layer {k} received no gradient"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let price = vec![0, 1, 0, 1, 0, 1];
        let cat = vec![0; 6];
        let train = vec![(0, 0), (0, 2), (1, 1), (1, 3), (0, 4), (1, 5)];
        let data = toy_data(&train, &price, &cat, 2);
        let mut m = DeepFm::new(&data, 6, 8, 4);
        let cfg =
            TrainConfig { epochs: 30, batch_size: 4, lr: 0.02, l2: 0.0, ..Default::default() };
        let stats = train_bpr(&mut m, 2, 6, &train, &cfg).expect("training");
        let last = stats.final_loss().expect("at least one epoch ran");
        assert!(last < stats.epoch_losses[0]);
    }
}
