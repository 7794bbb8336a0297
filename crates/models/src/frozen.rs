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

use pup_tensor::Matrix;

use crate::common::Recommender;

/// A frozen model: plain-data parameters behind the [`Recommender`]
/// interface, shareable across threads.
pub type Frozen = Box<dyn Recommender + Send + Sync>;

/// `e_u · e_i` for every item — the one decoder routine behind BPR-MF,
/// PaDQ, GC-MC, NGCF and PUP, live or frozen.
pub(crate) fn dot_scores(users: &Matrix, items: &Matrix, user: usize) -> Vec<f64> {
    users.gather_rows(&[user]).matmul_t(items).into_vec()
}

/// The frozen dot-product decoder `s(u, i) = e_u · e_i` over final user
/// and item representations.
#[derive(Clone, Debug)]
pub(crate) struct DotScorer {
    name: &'static str,
    /// The user representations, one row per user.
    pub(crate) users: Matrix,
    items: Matrix,
}

impl DotScorer {
    /// A decoder named `name` over `users` (one row per user) and `items`
    /// (one row per item).
    pub(crate) fn new(name: &'static str, users: Matrix, items: Matrix) -> Self {
        Self { name, users, items }
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
}
