//! PUP — Price-aware User Preference-modeling (the paper's contribution,
//! §III).
//!
//! Two branches, each owning an independent heterogeneous graph encoder
//! (`F_out = tanh(Â F_in W)` with one-hot inputs, i.e. one mean-aggregation
//! propagation over the unified graph) and an FM-style pairwise decoder
//! (eq. 3, computed in linear time via eq. 7):
//!
//! - **global branch** (`dim = global_dim`): `s_g = e_u·e_i + e_u·e_p +
//!   e_i·e_p`; category nodes participate in propagation only, acting as a
//!   regularizer.
//! - **category branch** (`dim = category_dim`): `s_c = e_u·e_c + e_u·e_p +
//!   e_c·e_p`; item nodes only bridge information.
//!
//! Final score `s = s_g + α·s_c`. The ablation variants of Table III and
//! Fig. 6 are expressed through [`PupVariant`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pup_ckpt::{Checkpoint, CkptError};
use pup_graph::normalize::row_normalized;
use pup_graph::{build_pup_graph, GraphSpec, Layout, NodeRef};
use pup_tensor::{init, ops, CsrMatrix, Matrix, Var};

use crate::common::{pairwise_interactions, NamedParam, ParamRegistry, Recommender, TrainData};
use crate::frozen::{DotScorer, Frozen};
use crate::trainer::{check_params, BprModel};

/// Which PUP variant to build (paper Table III / Fig. 6 ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PupVariant {
    /// The full two-branch model.
    Full,
    /// `PUP w/ p` = `PUP-`: price nodes only, single branch.
    PriceOnly,
    /// `PUP w/ c`: category nodes only, single branch.
    CategoryOnly,
    /// `PUP w/o c,p`: bipartite graph, dot-product decoder.
    Bipartite,
}

/// PUP hyperparameters.
#[derive(Clone, Debug)]
pub struct PupConfig {
    /// Embedding size of the global branch (paper's best: 56 of 64).
    pub global_dim: usize,
    /// Embedding size of the category branch (paper's best: 8 of 64).
    pub category_dim: usize,
    /// Branch balance α in `s = s_global + α·s_category`.
    pub alpha: f64,
    /// Number of graph-convolution layers per branch. The paper uses one
    /// (§III-B notes embeddings reach further "if more than one
    /// convolutional layer are applied"); each extra layer repeats
    /// `tanh(Â ·)` and widens the receptive field by one hop.
    pub n_layers: usize,
    /// Model variant (ablations).
    pub variant: PupVariant,
    /// Whether `Â` includes self-loops (paper eq. 5; ablatable).
    pub self_loops: bool,
    /// Feature-level dropout probability (paper §IV-C).
    pub dropout: f64,
    /// Parameter init seed.
    pub seed: u64,
}

impl Default for PupConfig {
    fn default() -> Self {
        Self {
            global_dim: 56,
            category_dim: 8,
            alpha: 1.0,
            n_layers: 1,
            variant: PupVariant::Full,
            self_loops: true,
            dropout: 0.1,
            seed: 1,
        }
    }
}

/// Whether an extra attribute family describes items or users (paper §VII:
/// "user profiles can be added as separate nodes linked to user nodes, while
/// item features other than price and category can be integrated similarly").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttributeTarget {
    /// One attribute value per item.
    Items,
    /// One attribute value per user.
    Users,
}

/// An extra attribute node family added to PUP's heterogeneous graph.
#[derive(Clone, Debug)]
pub struct ExtraAttribute {
    /// Display name (e.g. "brand", "city").
    pub name: String,
    /// Number of distinct attribute values (node count of the family).
    pub n_values: usize,
    /// `values[k]` = attribute value of item/user `k`; length must match
    /// the target family's size.
    pub values: Vec<usize>,
    /// Which entity the attribute describes.
    pub target: AttributeTarget,
}

/// One branch: an embedding table over all graph nodes plus its rectified
/// adjacency, and the current training step's state.
struct Branch {
    emb: Var,
    a_hat: Arc<CsrMatrix>,
    layout: Layout,
    /// The rows the current training step reads.
    touched: TouchedRows,
    /// The step's representations of `touched.rows`, in that order.
    step: Option<Var>,
}

/// The node rows a training step reads from one branch, sorted and
/// distinct, and where each sits among them. The buffers are kept across
/// batches, so once grown a step allocates nothing for them.
#[derive(Default)]
struct TouchedRows {
    rows: Vec<usize>,
    /// `slot[node]` is `node`'s position in `rows`, `usize::MAX` for nodes
    /// outside it.
    slot: Vec<usize>,
}

impl TouchedRows {
    /// Replaces the set with the distinct `nodes` of a `total`-node graph:
    /// marks each node, then collects the marked ones in ascending order.
    fn rebuild(&mut self, total: usize, nodes: impl Iterator<Item = usize>) {
        const UNMARKED: usize = usize::MAX;
        self.slot.clear();
        self.slot.resize(total, UNMARKED);
        for node in nodes {
            // pup-audit: allow(hotpath-panic): node indices come from the branch layout, so node < total
            self.slot[node] = 0;
        }
        self.rows.clear();
        for (node, slot) in self.slot.iter_mut().enumerate() {
            if *slot != UNMARKED {
                *slot = self.rows.len();
                self.rows.push(node);
            }
        }
    }

    /// Position of `node` in `rows`.
    fn position(&self, node: usize) -> usize {
        // pup-audit: allow(hotpath-panic): slot covers every node of the branch layout
        let k = self.slot[node];
        // pup-audit: allow(hotpath-panic): fail-fast precondition: a step scores only the pairs begin_step received
        assert!(self.rows.get(k) == Some(&node), "node {node} is not a row of this training step");
        k
    }
}

/// One branch's step representations, gathered by node.
struct StepRows<'a> {
    repr: &'a Var,
    touched: &'a TouchedRows,
    layout: &'a Layout,
}

impl StepRows<'_> {
    /// The representations of `nodes`, one row each.
    fn gather(&self, nodes: impl Iterator<Item = NodeRef>) -> Var {
        let idx: Vec<usize> =
            nodes.map(|node| self.touched.position(self.layout.index(node))).collect();
        ops::gather_rows(self.repr, &idx)
    }
}

impl Branch {
    /// Builds a branch graph's rectified adjacency `Â` (eq. 5) and its
    /// layout. Both branches of the full model propagate over the same
    /// graph, so they share one result.
    fn rectified_graph(
        data: &TrainData<'_>,
        spec: GraphSpec,
        self_loops: bool,
        extras: &[ExtraAttribute],
    ) -> (Arc<CsrMatrix>, Layout) {
        let graph = if extras.is_empty() {
            build_pup_graph(
                data.n_users,
                data.n_items,
                data.n_price_levels,
                data.n_categories,
                data.item_price_level,
                data.item_category,
                data.train,
                spec,
            )
        } else {
            let mut b = pup_graph::GraphBuilder::new(
                data.n_users,
                data.n_items,
                data.n_price_levels,
                data.n_categories,
                spec,
            );
            for item in 0..data.n_items {
                b.add_item_attributes(item, data.item_price_level[item], data.item_category[item]);
            }
            for &(u, i) in data.train {
                b.add_interaction(u, i);
            }
            for extra in extras {
                let expected = match extra.target {
                    AttributeTarget::Items => data.n_items,
                    AttributeTarget::Users => data.n_users,
                };
                assert_eq!(
                    extra.values.len(),
                    expected,
                    "extra attribute {:?}: one value per target entity required",
                    extra.name
                );
                // pup-lint: allow(clone-in-loop) — one String per extra attribute family, at build time.
                let family = b.add_extra_family(extra.name.clone(), extra.n_values);
                for (k, &v) in extra.values.iter().enumerate() {
                    assert!(
                        v < extra.n_values,
                        "extra attribute {:?}: value out of range",
                        extra.name
                    );
                    let node = match extra.target {
                        AttributeTarget::Items => NodeRef::Item(k),
                        AttributeTarget::Users => NodeRef::User(k),
                    };
                    b.add_extra_edge(node, family, v);
                }
            }
            b.build()
        };
        (Arc::new(row_normalized(graph.adjacency(), self_loops)), graph.layout().clone())
    }

    /// A branch over `a_hat` with embedding table `emb`, one row per node.
    fn new(a_hat: Arc<CsrMatrix>, layout: Layout, emb: Matrix) -> Self {
        Self { emb: Var::param(emb), a_hat, layout, touched: TouchedRows::default(), step: None }
    }

    /// `n_layers` graph-convolution passes `tanh(Â ·)`. The last pass
    /// computes only the rows of `last`, a row selection of `Â` (or all of
    /// it); the passes before it cover every node, since the last one reads
    /// their neighbours.
    fn propagate(&self, n_layers: usize, last: &Arc<CsrMatrix>) -> Var {
        debug_assert!(n_layers >= 1);
        let mut h = self.emb.clone();
        for _ in 1..n_layers {
            h = ops::tanh(&ops::spmm(&self.a_hat, &h));
        }
        ops::tanh(&ops::spmm(last, &h))
    }

    /// Dropout-free representations of `nodes` alone: row `k` is `nodes[k]`'s
    /// row of the whole propagation, bit for bit.
    fn repr_of(&self, n_layers: usize, nodes: &[NodeRef]) -> Matrix {
        let rows: Vec<usize> = nodes.iter().map(|&node| self.layout.index(node)).collect();
        self.propagate(n_layers, &Arc::new(self.a_hat.select_rows(&rows))).into_value()
    }

    /// Prepares a training step that reads `nodes`: propagates only their
    /// rows, with feature dropout drawn over the whole table as if every
    /// row were propagated. Returns how many distinct rows the step reads.
    fn begin_step(
        &mut self,
        nodes: impl Iterator<Item = NodeRef>,
        n_layers: usize,
        dropout: f64,
        rng: &mut StdRng,
    ) -> usize {
        // Release the previous step's graph before building the next one.
        self.step = None;
        let total = self.layout.total();
        self.touched.rebuild(total, nodes.map(|node| self.layout.index(node)));
        let rows = &self.touched.rows;
        let h = self.propagate(n_layers, &Arc::new(self.a_hat.select_rows(rows)));
        self.step = Some(ops::dropout_rows(&h, dropout, rng, total, rows));
        rows.len()
    }

    /// The step's representations, once `begin_step` has run.
    fn step_rows(&self) -> Option<StepRows<'_>> {
        let repr = self.step.as_ref()?;
        Some(StepRows { repr, touched: &self.touched, layout: &self.layout })
    }
}

/// Checkpoint name of the global branch's embedding table.
const GLOBAL_EMB: &str = "global.emb";
/// Checkpoint name of the category branch's embedding table.
const CATEGORY_EMB: &str = "category.emb";

/// What a PUP model is built on before its embedding tables: the shared
/// rectified graph and each branch's width.
struct Frame {
    a_hat: Arc<CsrMatrix>,
    layout: Layout,
    global_dim: usize,
    /// Present only for [`PupVariant::Full`].
    category_dim: Option<usize>,
}

impl Frame {
    /// Checks `config` and builds the graph both branches propagate over.
    fn new(data: &TrainData<'_>, config: &PupConfig, extras: &[ExtraAttribute]) -> Self {
        assert!(config.global_dim > 0, "global branch needs dimensions");
        assert!((0.0..1.0).contains(&config.dropout), "dropout must be in [0,1)");
        assert!(config.n_layers >= 1, "at least one propagation layer required");
        let (spec, has_category_branch) = match config.variant {
            PupVariant::Full => (GraphSpec::FULL, true),
            PupVariant::PriceOnly => (GraphSpec::PRICE_ONLY, false),
            PupVariant::CategoryOnly => (GraphSpec::CATEGORY_ONLY, false),
            PupVariant::Bipartite => (GraphSpec::BIPARTITE, false),
        };
        // Single-branch variants get the full dimension budget so ablation
        // comparisons hold capacity constant.
        let (global_dim, category_dim) = if has_category_branch {
            assert!(config.category_dim > 0, "category branch needs dimensions");
            (config.global_dim, Some(config.category_dim))
        } else {
            (config.global_dim + config.category_dim, None)
        };
        // The category branch propagates over the full graph with the same
        // self-loops and extras as the global one, so it shares `Â`.
        let (a_hat, layout) = Branch::rectified_graph(data, spec, config.self_loops, extras);
        Self { a_hat, layout, global_dim, category_dim }
    }
}

/// The PUP recommender.
pub struct Pup {
    config: PupConfig,
    global: Branch,
    /// Present only for [`PupVariant::Full`].
    category: Option<Branch>,
    item_price_level: Vec<usize>,
    item_category: Vec<usize>,
    /// The folded inference decoder, built by `finalize`.
    frozen: Option<DotScorer>,
}

impl Pup {
    /// Builds PUP from training data.
    pub fn new(data: &TrainData<'_>, config: PupConfig) -> Self {
        Self::with_extras(data, config, &[])
    }

    /// Builds PUP with extra attribute node families on both branches'
    /// graphs (the paper's §VII generality claim). The attribute nodes join
    /// the propagation — preference flows `user → item → brand → item` the
    /// same way it flows through price nodes — while the decoder stays
    /// unchanged.
    pub fn with_extras(data: &TrainData<'_>, config: PupConfig, extras: &[ExtraAttribute]) -> Self {
        let frame = Frame::new(data, &config, extras);
        // Draws keep their order: the global table, then the category table.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rows = frame.layout.total();
        let global = init::normal(rows, frame.global_dim, 0.1, &mut rng);
        let category = frame.category_dim.map(|dim| init::normal(rows, dim, 0.1, &mut rng));
        Self::assemble(data, config, frame, global, category)
    }

    /// Rebuilds a trained PUP from `ckpt`'s own tables, without training
    /// state: the names and shapes are checked as
    /// [`restore_params`](crate::trainer::restore_params) checks them, with
    /// the same typed errors, and no initial table is drawn. Call
    /// [`BprModel::finalize`] before scoring.
    pub fn restore(
        data: &TrainData<'_>,
        config: PupConfig,
        ckpt: &Checkpoint,
    ) -> Result<Self, CkptError> {
        let frame = Frame::new(data, &config, &[]);
        let rows = frame.layout.total();
        let mut expected = vec![(GLOBAL_EMB, (rows, frame.global_dim))];
        if let Some(dim) = frame.category_dim {
            expected.push((CATEGORY_EMB, (rows, dim)));
        }
        check_params(&expected, ckpt)?;
        let table = |name: &str| {
            ckpt.param(name)
                .map(|blob| blob.value.clone())
                .ok_or_else(|| CkptError::MissingParam { name: name.to_string() })
        };
        let global = table(GLOBAL_EMB)?;
        let category = frame.category_dim.map(|_| table(CATEGORY_EMB)).transpose()?;
        Ok(Self::assemble(data, config, frame, global, category))
    }

    /// A model over `frame` with the given embedding tables.
    fn assemble(
        data: &TrainData<'_>,
        config: PupConfig,
        frame: Frame,
        global: Matrix,
        category: Option<Matrix>,
    ) -> Self {
        let Frame { a_hat, layout, .. } = frame;
        let global = Branch::new(a_hat.clone(), layout.clone(), global);
        let category = category.map(|table| Branch::new(a_hat, layout, table));
        Self {
            config,
            global,
            category,
            item_price_level: data.item_price_level.to_vec(),
            item_category: data.item_category.to_vec(),
            frozen: None,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &PupConfig {
        &self.config
    }

    /// Differentiable branch scores from each branch's step representations.
    fn branch_scores(
        &self,
        global: StepRows<'_>,
        category: Option<StepRows<'_>>,
        users: &[usize],
        items: &[usize],
    ) -> Var {
        let (price, cat) = (&self.item_price_level, &self.item_category);
        let eu = global.gather(users.iter().map(|&u| NodeRef::User(u)));
        let ei = global.gather(items.iter().map(|&i| NodeRef::Item(i)));

        let s_global = match self.config.variant {
            PupVariant::Bipartite => ops::rowwise_dot(&eu, &ei),
            PupVariant::CategoryOnly => {
                // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
                let ec = global.gather(items.iter().map(|&i| NodeRef::Category(cat[i])));
                pairwise_interactions(&[eu, ei, ec])
            }
            PupVariant::Full | PupVariant::PriceOnly => {
                // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
                let ep = global.gather(items.iter().map(|&i| NodeRef::Price(price[i])));
                pairwise_interactions(&[eu, ei, ep])
            }
        };

        let Some(category) = category else {
            return s_global;
        };
        let eu_c = category.gather(users.iter().map(|&u| NodeRef::User(u)));
        // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
        let ep_c = category.gather(items.iter().map(|&i| NodeRef::Price(price[i])));
        // pup-audit: allow(hotpath-panic): item ids bounds-checked by try_score_items; metadata arrays are catalog-sized
        let ec_c = category.gather(items.iter().map(|&i| NodeRef::Category(cat[i])));
        // Item embeddings are deliberately omitted: items only bridge.
        let s_cat = pairwise_interactions(&[eu_c, ec_c, ep_c]);
        ops::add(&s_global, &ops::scale(&s_cat, self.config.alpha))
    }

    /// The finalized inference decoder.
    #[expect(clippy::expect_used, reason = "inference-before-finalize is a caller bug.")]
    fn finalized(&self) -> &DotScorer {
        // pup-audit: allow(hotpath-panic): lifecycle invariant: serve only loads models after finalize
        self.frozen.as_ref().expect("finalize must run before inference")
    }

    /// A branch's inference representations: every row propagated, no
    /// dropout.
    fn inference_repr(&self, branch: &Branch) -> Matrix {
        branch.propagate(self.config.n_layers, &branch.a_hat).into_value()
    }

    /// Global-branch affinity between a user and each price level
    /// (`e_u · e_p` after propagation) — the interpretability handle the
    /// paper's decoder design advertises. Each call propagates the user and
    /// price rows afresh; inference keeps only the folded decoder.
    pub fn user_price_affinity(&self, user: usize) -> Vec<f64> {
        assert_ne!(self.config.variant, PupVariant::Bipartite, "bipartite PUP has no price nodes");
        assert_ne!(
            self.config.variant,
            PupVariant::CategoryOnly,
            "category-only PUP has no price nodes"
        );
        let prices = (0..self.global.layout.n_prices()).map(NodeRef::Price);
        let nodes: Vec<NodeRef> = std::iter::once(NodeRef::User(user)).chain(prices).collect();
        let repr = self.global.repr_of(self.config.n_layers, &nodes);
        let u = repr.row(0);
        (1..nodes.len()).map(|k| dot(u, repr.row(k))).collect()
    }

    /// Category-branch affinity between a user and each (category, price)
    /// pair: `e_u·e_c + e_u·e_p + e_c·e_p`. Only for [`PupVariant::Full`].
    pub fn user_category_price_affinity(&self, user: usize, category: usize, price: usize) -> f64 {
        #[expect(clippy::expect_used, reason = "documented precondition: full variant.")]
        let branch = self.category.as_ref().expect("full variant required");
        let nodes = [NodeRef::User(user), NodeRef::Category(category), NodeRef::Price(price)];
        let repr = branch.repr_of(self.config.n_layers, &nodes);
        let (u, c, p) = (repr.row(0), repr.row(1), repr.row(2));
        dot(u, c) + dot(u, p) + dot(c, p)
    }

    /// Folds eq. 7 into one dot product per item, so inference is the
    /// shared [`DotScorer`]. Grouped by item, the score is
    /// `[e_u; α·e_u^c; 1] · [e_i + e_a; e_c^c + e_p^c; e_i·e_a + α·e_c^c·e_p^c]`,
    /// where `e_a` is the item's price node (its category node for
    /// [`PupVariant::CategoryOnly`]) and the `^c` blocks come from the
    /// category branch ([`PupVariant::Full`] only). The bipartite variant
    /// has no attribute node, so it folds to `[e_u] · [e_i]`.
    fn fold(&self) -> DotScorer {
        let (lay, alpha, variant) = (&self.global.layout, self.config.alpha, self.config.variant);
        let global = self.inference_repr(&self.global);
        let category = self.category.as_ref().map(|b| (self.inference_repr(b), &b.layout));
        let has_bias = variant != PupVariant::Bipartite;
        let width = global.cols()
            + category.as_ref().map_or(0, |(repr, _)| repr.cols())
            + usize::from(has_bias);

        let mut users = Vec::with_capacity(lay.n_users() * width);
        for u in 0..lay.n_users() {
            users.extend_from_slice(global.row(lay.index(NodeRef::User(u))));
            if let Some((repr, clay)) = &category {
                users.extend(repr.row(clay.index(NodeRef::User(u))).iter().map(|x| alpha * x));
            }
            if has_bias {
                users.push(1.0);
            }
        }
        let mut items = Vec::with_capacity(lay.n_items() * width);
        for i in 0..lay.n_items() {
            let (price, cat) = (self.item_price_level[i], self.item_category[i]);
            let e_i = global.row(lay.index(NodeRef::Item(i)));
            let attribute = match variant {
                PupVariant::Bipartite => {
                    items.extend_from_slice(e_i);
                    continue;
                }
                PupVariant::CategoryOnly => NodeRef::Category(cat),
                PupVariant::Full | PupVariant::PriceOnly => NodeRef::Price(price),
            };
            let e_a = global.row(lay.index(attribute));
            items.extend(e_i.iter().zip(e_a).map(|(x, y)| x + y));
            let mut bias = dot(e_i, e_a);
            if let Some((repr, clay)) = &category {
                let e_c = repr.row(clay.index(NodeRef::Category(cat)));
                let e_p = repr.row(clay.index(NodeRef::Price(price)));
                items.extend(e_c.iter().zip(e_p).map(|(x, y)| x + y));
                bias += alpha * dot(e_c, e_p);
            }
            items.push(bias);
        }
        DotScorer::new(
            variant.label(),
            Matrix::from_vec(lay.n_users(), width, users),
            Matrix::from_vec(lay.n_items(), width, items),
        )
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl BprModel for Pup {
    /// Propagates only the rows the batch reads. Global branch: users,
    /// items, and each item's attribute node (price, or category for
    /// [`PupVariant::CategoryOnly`]). Category branch: users, and each
    /// item's price and category nodes.
    fn begin_step(&mut self, users: &[usize], pos: &[usize], neg: &[usize], rng: &mut StdRng) {
        let (n_layers, dropout, variant) =
            (self.config.n_layers, self.config.dropout, self.config.variant);
        let (price, cat) = (&self.item_price_level, &self.item_category);
        let users = || users.iter().map(|&u| NodeRef::User(u));
        let items = || pos.iter().chain(neg).copied();
        let attribute = |i: usize| match variant {
            PupVariant::Bipartite => None,
            // pup-audit: allow(hotpath-panic): item ids come from the training pairs and the sampler; metadata arrays are catalog-sized
            PupVariant::CategoryOnly => Some(NodeRef::Category(cat[i])),
            // pup-audit: allow(hotpath-panic): item ids come from the training pairs and the sampler; metadata arrays are catalog-sized
            PupVariant::Full | PupVariant::PriceOnly => Some(NodeRef::Price(price[i])),
        };
        let global = users().chain(items().map(NodeRef::Item)).chain(items().filter_map(attribute));
        let touched = self.global.begin_step(global, n_layers, dropout, rng);
        pup_obs::observe("train.touched_rows.global", touched as f64);
        if let Some(branch) = &mut self.category {
            let attributes =
                // pup-audit: allow(hotpath-panic): item ids come from the training pairs and the sampler; metadata arrays are catalog-sized
                items().flat_map(|i| [NodeRef::Price(price[i]), NodeRef::Category(cat[i])]);
            let touched = branch.begin_step(users().chain(attributes), n_layers, dropout, rng);
            pup_obs::observe("train.touched_rows.category", touched as f64);
        }
    }

    fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
        #[expect(
            clippy::expect_used,
            reason = "BprModel state machine: trainer calls begin_step first."
        )]
        // pup-audit: allow(hotpath-panic): lifecycle invariant: run_epoch calls begin_step before any scoring
        let global = self.global.step_rows().expect("begin_step must run first");
        let category = self.category.as_ref().and_then(Branch::step_rows);
        let scores = self.branch_scores(global, category, users, items);
        pup_tensor::checks::guard_finite("Pup::score_batch", &scores);
        scores
    }

    fn params(&self) -> Vec<Var> {
        let mut p = vec![self.global.emb.clone()];
        if let Some(b) = &self.category {
            p.push(b.emb.clone());
        }
        p
    }

    fn finalize(&mut self) {
        self.frozen = Some(self.fold());
        self.global.step = None;
        if let Some(b) = &mut self.category {
            b.step = None;
        }
    }
}

impl ParamRegistry for Pup {
    fn named_params(&self) -> Vec<NamedParam> {
        let mut p = vec![NamedParam::new(GLOBAL_EMB, &self.global.emb)];
        if let Some(b) = &self.category {
            p.push(NamedParam::new(CATEGORY_EMB, &b.emb));
        }
        p
    }
}

impl PupVariant {
    /// The variant's name in the paper's tables.
    fn label(&self) -> &'static str {
        match self {
            PupVariant::Full => "PUP",
            PupVariant::PriceOnly => "PUP-",
            PupVariant::CategoryOnly => "PUP w/ c",
            PupVariant::Bipartite => "PUP w/o c,p",
        }
    }
}

impl Recommender for Pup {
    fn name(&self) -> &str {
        self.config.variant.label()
    }

    fn score_items(&self, user: usize) -> Vec<f64> {
        self.finalized().score_items(user)
    }

    fn n_users(&self) -> usize {
        self.global.layout.n_users()
    }

    fn freeze(&self) -> Frozen {
        Box::new(self.finalized().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_bpr, BprTrainer, TrainConfig};

    fn price_data<'a>(
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

    fn small_config(variant: PupVariant) -> PupConfig {
        PupConfig {
            global_dim: 12,
            category_dim: 4,
            alpha: 0.5,
            variant,
            dropout: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn full_variant_has_two_parameter_tables() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0)];
        let data = price_data(&train, &price, &cat, 2);
        assert_eq!(Pup::new(&data, small_config(PupVariant::Full)).params().len(), 2);
        assert_eq!(Pup::new(&data, small_config(PupVariant::PriceOnly)).params().len(), 1);
    }

    #[test]
    fn full_variant_branches_share_one_rectified_graph() {
        let price = vec![0, 1, 1];
        let cat = vec![0, 1, 0];
        let train = vec![(0, 0), (1, 2), (1, 1)];
        let data = price_data(&train, &price, &cat, 2);
        let full = Pup::new(&data, small_config(PupVariant::Full));
        let category = full.category.as_ref().expect("full PUP has a category branch");
        assert!(Arc::ptr_eq(&full.global.a_hat, &category.a_hat), "one Â for both branches");
        assert_eq!(full.global.layout, category.layout);
        let price_only = Pup::new(&data, small_config(PupVariant::PriceOnly));
        assert!(price_only.category.is_none(), "PriceOnly builds the global branch alone");
    }

    #[test]
    fn single_branch_variants_use_full_dimension_budget() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0)];
        let data = price_data(&train, &price, &cat, 2);
        let m = Pup::new(&data, small_config(PupVariant::Bipartite));
        assert_eq!(m.global.emb.shape().1, 16); // 12 + 4
        let f = Pup::new(&data, small_config(PupVariant::Full));
        assert_eq!(f.global.emb.shape().1, 12);
        assert_eq!(f.category.as_ref().unwrap().emb.shape().1, 4);
    }

    #[test]
    fn pup_learns_price_preference() {
        // Two user groups with disjoint price preferences across two
        // categories; held-out items test price generalization.
        let price = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let cat = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let mut train = Vec::new();
        // Cheap users 0,1 buy price-0 items (0, 2); expensive users 2,3 buy
        // price-1 items (1, 3).
        for &u in &[0usize, 1] {
            train.push((u, 0));
            train.push((u, 2));
        }
        for &u in &[2usize, 3] {
            train.push((u, 1));
            train.push((u, 3));
        }
        let data = price_data(&train, &price, &cat, 4);
        let mut m = Pup::new(&data, small_config(PupVariant::Full));
        let cfg =
            TrainConfig { epochs: 120, batch_size: 8, lr: 0.05, l2: 0.0, ..Default::default() };
        train_bpr(&mut m, 4, 8, &train, &cfg).expect("training");
        let s = m.score_items(0);
        // Held-out items 4 (price 0) vs 5 (price 1): cheap user prefers 4.
        assert!(s[4] > s[5], "PUP failed price transfer: {} vs {}", s[4], s[5]);
        // And the learned price affinity should rank level 0 over level 1.
        let aff = m.user_price_affinity(0);
        assert!(aff[0] > aff[1], "price affinity not learned: {aff:?}");
    }

    /// Cosine similarity of two nodes' finalized global-branch rows.
    fn cosine(m: &Pup, a: usize, b: usize) -> f64 {
        let repr = m.inference_repr(&m.global);
        let (ra, rb) = (repr.row(a), repr.row(b));
        dot(ra, rb) / (dot(ra, ra).sqrt() * dot(rb, rb).sqrt())
    }

    #[test]
    fn price_awareness_propagates_through_items() {
        // Even with no training, propagation makes a user's representation
        // absorb the price nodes of her purchased items: the user connected
        // to price-0 items should sit closer to price node 0 than a user
        // connected to price-1 items.
        let price = vec![0, 0, 1, 1];
        let cat = vec![0, 0, 0, 0];
        let train = vec![(0, 0), (0, 1), (1, 2), (1, 3)];
        let data = price_data(&train, &price, &cat, 2);
        let mut m = Pup::new(&data, small_config(PupVariant::PriceOnly));
        m.finalize();
        let lay = &m.global.layout;
        let cos = |a, b| cosine(&m, a, b);
        let u0 = lay.index(NodeRef::User(0));
        let p0 = lay.index(NodeRef::Price(0));
        let p1 = lay.index(NodeRef::Price(1));
        // User 0's 2-hop neighborhood includes price 0 but not price 1.
        // One propagation layer reaches only 1-hop, so compare via shared
        // item structure: items of price 0 absorbed p0's embedding.
        let i0 = lay.index(NodeRef::Item(0));
        let i2 = lay.index(NodeRef::Item(2));
        assert!(cos(i0, p0) > cos(i0, p1), "item 0 should absorb price 0");
        assert!(cos(i2, p1) > cos(i2, p0), "item 2 should absorb price 1");
        let _ = u0;
    }

    #[test]
    fn extra_attribute_families_join_the_graph() {
        let price = vec![0, 1, 0, 1];
        let cat = vec![0, 0, 1, 1];
        let train = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let data = price_data(&train, &price, &cat, 4);
        let extras = [
            ExtraAttribute {
                name: "brand".into(),
                n_values: 2,
                values: vec![0, 0, 1, 1],
                target: AttributeTarget::Items,
            },
            ExtraAttribute {
                name: "city".into(),
                n_values: 3,
                values: vec![0, 1, 2, 0],
                target: AttributeTarget::Users,
            },
        ];
        let mut m = Pup::with_extras(&data, small_config(PupVariant::Full), &extras);
        // Layout grew by 2 brand + 3 city nodes on both branches.
        assert_eq!(m.global.layout.total(), 4 + 4 + 2 + 2 + 2 + 3);
        // Training still runs and scoring paths agree.
        let (users, items) = ([0, 0, 0, 0], [0, 1, 2, 3]);
        m.begin_step(&users, &items, &items, &mut StdRng::seed_from_u64(0));
        let batch = m.score_batch(&users, &items);
        m.finalize();
        let dense = m.score_items(0);
        for (k, &d) in dense.iter().enumerate().take(4) {
            assert!((batch.value().get(k, 0) - d).abs() < 1e-10);
        }
    }

    #[test]
    fn extra_attribute_nodes_propagate_signal() {
        // Two items share a brand but no users or price/category; their
        // propagated embeddings should be closer than unrelated items.
        let price = vec![0, 1, 2, 3];
        let cat = vec![0, 1, 2, 3];
        let train = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let data = price_data(&train, &price, &cat, 4);
        let extras = [ExtraAttribute {
            name: "brand".into(),
            n_values: 3,
            values: vec![0, 0, 1, 2], // items 0 and 1 share brand 0
            target: AttributeTarget::Items,
        }];
        let mut m = Pup::with_extras(&data, small_config(PupVariant::Bipartite), &extras);
        m.finalize();
        let lay = &m.global.layout;
        let cos = |a, b| cosine(&m, a, b);
        let i0 = lay.index(NodeRef::Item(0));
        let i1 = lay.index(NodeRef::Item(1));
        let i2 = lay.index(NodeRef::Item(2));
        assert!(
            cos(i0, i1) > cos(i0, i2),
            "same-brand items should be closer: {} vs {}",
            cos(i0, i1),
            cos(i0, i2)
        );
    }

    #[test]
    fn two_layer_propagation_reaches_price_nodes_from_users() {
        // user 0 - items 0,1 (price 0); user 1 - items 2,3 (price 1).
        // With one layer a user's representation only contains items; with
        // two layers it absorbs the 2-hop price nodes, so u0 aligns with
        // price 0 more than with price 1.
        let price = vec![0, 0, 1, 1];
        let cat = vec![0, 0, 0, 0];
        let train = vec![(0, 0), (0, 1), (1, 2), (1, 3)];
        let data = price_data(&train, &price, &cat, 2);
        let mut cfg = small_config(PupVariant::PriceOnly);
        cfg.n_layers = 2;
        let mut m = Pup::new(&data, cfg);
        m.finalize();
        let lay = &m.global.layout;
        let cos = |a, b| cosine(&m, a, b);
        let u0 = lay.index(NodeRef::User(0));
        let p0 = lay.index(NodeRef::Price(0));
        let p1 = lay.index(NodeRef::Price(1));
        assert!(
            cos(u0, p0) > cos(u0, p1),
            "2-layer user repr should absorb its 2-hop price node: {} vs {}",
            cos(u0, p0),
            cos(u0, p1)
        );
    }

    #[test]
    #[should_panic(expected = "one value per target entity")]
    fn extras_with_wrong_length_are_rejected() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0)];
        let data = price_data(&train, &price, &cat, 2);
        let extras = [ExtraAttribute {
            name: "brand".into(),
            n_values: 2,
            values: vec![0], // should be 2 (one per item)
            target: AttributeTarget::Items,
        }];
        let _ = Pup::with_extras(&data, small_config(PupVariant::Full), &extras);
    }

    #[test]
    #[should_panic(expected = "no price nodes")]
    fn bipartite_variant_rejects_price_affinity() {
        let price = vec![0, 1];
        let cat = vec![0, 0];
        let train = vec![(0, 0)];
        let data = price_data(&train, &price, &cat, 2);
        let mut m = Pup::new(&data, small_config(PupVariant::Bipartite));
        m.finalize();
        let _ = m.user_price_affinity(0);
    }

    /// Test-only full-graph reference for a training step: every row
    /// propagated, dropout over the whole table, then gathered by node
    /// index. Scoring reads its representations through an identity
    /// `TouchedRows`, so row `node` is node `node`.
    struct FullGraph(Pup);

    impl BprModel for FullGraph {
        fn begin_step(&mut self, _: &[usize], _: &[usize], _: &[usize], rng: &mut StdRng) {
            let (n_layers, p) = (self.0.config.n_layers, self.0.config.dropout);
            for branch in std::iter::once(&mut self.0.global).chain(self.0.category.as_mut()) {
                let mut h = branch.emb.clone();
                for _ in 0..n_layers {
                    h = ops::tanh(&ops::spmm(&branch.a_hat, &h));
                }
                branch.step = Some(ops::dropout(&h, p, rng));
                let total = branch.layout.total();
                branch.touched =
                    TouchedRows { rows: (0..total).collect(), slot: (0..total).collect() };
            }
        }

        fn score_batch(&mut self, users: &[usize], items: &[usize]) -> Var {
            self.0.score_batch(users, items)
        }

        fn params(&self) -> Vec<Var> {
            self.0.params()
        }

        fn finalize(&mut self) {
            self.0.finalize();
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A catalog large enough that a 64-pair batch reads a strict subset of
    /// the graph's rows.
    fn fixture() -> (pup_data::Dataset, pup_data::Split) {
        let dataset = pup_data::synthetic::generate(&pup_data::GeneratorConfig {
            n_users: 150,
            n_items: 120,
            n_categories: 6,
            n_price_levels: 5,
            n_interactions: 1_500,
            kcore: 0,
            seed: 31,
            ..Default::default()
        })
        .dataset;
        let split = pup_data::split::temporal_split(&dataset, pup_data::SplitRatios::PAPER);
        (dataset, split)
    }

    /// Checks the row-restricted step against [`FullGraph`] bit for bit:
    /// one step's forward scores, then three epochs' losses and the final
    /// parameters.
    fn assert_restricted_step_is_exact(config: &PupConfig, extras: &[ExtraAttribute]) {
        let label = format!("{:?} at {} layer(s)", config.variant, config.n_layers);
        let (dataset, split) = fixture();
        let data = TrainData::new(&dataset, &split);
        let mut restricted = Pup::with_extras(&data, config.clone(), extras);
        let mut full = FullGraph(Pup::with_extras(&data, config.clone(), extras));

        let (users, pos): (Vec<usize>, Vec<usize>) = data.train[..64].iter().copied().unzip();
        let neg: Vec<usize> = (0..64).map(|k| k * 7 % data.n_items).collect();
        restricted.begin_step(&users, &pos, &neg, &mut StdRng::seed_from_u64(3));
        full.begin_step(&users, &pos, &neg, &mut StdRng::seed_from_u64(3));
        let touched = restricted.global.touched.rows.len();
        assert!(touched < restricted.global.layout.total(), "{label}: batch reads every row");
        for items in [&pos, &neg] {
            let (r, f) = (restricted.score_batch(&users, items), full.score_batch(&users, items));
            assert_eq!(bits(r.value().as_slice()), bits(f.value().as_slice()), "{label}: scores");
        }

        let cfg = TrainConfig { epochs: 3, batch_size: 64, seed: 4, ..Default::default() };
        let (n_users, n_items) = (data.n_users, data.n_items);
        let mut trainer_r = BprTrainer::new(&restricted, n_users, n_items, data.train, &cfg);
        let mut trainer_f = BprTrainer::new(&full, n_users, n_items, data.train, &cfg);
        for epoch in 0..3 {
            let loss_r = trainer_r.run_epoch(&mut restricted).expect("restricted epoch");
            let loss_f = trainer_f.run_epoch(&mut full).expect("full-graph epoch");
            assert_eq!(loss_r.to_bits(), loss_f.to_bits(), "{label}: epoch {epoch} loss");
        }
        for (r, f) in restricted.params().iter().zip(full.params()) {
            assert_eq!(bits(r.value().as_slice()), bits(f.value().as_slice()), "{label}: params");
        }
    }

    #[test]
    fn restricted_step_matches_full_graph_reference() {
        let variants = [
            PupVariant::Full,
            PupVariant::PriceOnly,
            PupVariant::CategoryOnly,
            PupVariant::Bipartite,
        ];
        for variant in variants {
            for n_layers in 1..=3 {
                let config = PupConfig { n_layers, dropout: 0.1, ..small_config(variant) };
                assert_restricted_step_is_exact(&config, &[]);
            }
        }
    }

    #[test]
    fn restricted_step_matches_full_graph_reference_with_extras() {
        let (dataset, _) = fixture();
        let extras = [
            ExtraAttribute {
                name: "brand".into(),
                n_values: 5,
                values: (0..dataset.n_items).map(|i| i % 5).collect(),
                target: AttributeTarget::Items,
            },
            ExtraAttribute {
                name: "city".into(),
                n_values: 3,
                values: (0..dataset.n_users).map(|u| u % 3).collect(),
                target: AttributeTarget::Users,
            },
        ];
        let config = PupConfig { dropout: 0.1, ..small_config(PupVariant::Full) };
        assert_restricted_step_is_exact(&config, &extras);
    }

    #[test]
    fn affinity_helpers_match_full_inference_rows() {
        let price = vec![0, 1, 2, 0, 1, 2];
        let cat = vec![0, 0, 1, 1, 2, 2];
        let train = vec![(0, 0), (0, 3), (1, 1), (1, 4), (2, 2), (2, 5), (3, 0), (3, 5)];
        let data = price_data(&train, &price, &cat, 4);
        for n_layers in [1, 2] {
            let m = Pup::new(&data, PupConfig { n_layers, ..small_config(PupVariant::Full) });
            let (global, lay) = (m.inference_repr(&m.global), &m.global.layout);
            let branch = m.category.as_ref().unwrap();
            let (category, clay) = (m.inference_repr(branch), &branch.layout);
            for user in 0..4 {
                let u = global.row(lay.index(NodeRef::User(user)));
                let expected: Vec<f64> =
                    (0..3).map(|p| dot(u, global.row(lay.index(NodeRef::Price(p))))).collect();
                assert_eq!(bits(&m.user_price_affinity(user)), bits(&expected));
                let row = |node| category.row(clay.index(node));
                for (c, p) in [(0, 0), (1, 2), (2, 1)] {
                    let (u, c_row, p_row) = (
                        row(NodeRef::User(user)),
                        row(NodeRef::Category(c)),
                        row(NodeRef::Price(p)),
                    );
                    let expected = dot(u, c_row) + dot(u, p_row) + dot(c_row, p_row);
                    let got = m.user_category_price_affinity(user, c, p);
                    assert_eq!(got.to_bits(), expected.to_bits(), "{n_layers} layer(s)");
                }
            }
        }
    }
}
