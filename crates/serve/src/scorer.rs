//! The primary-scorer abstraction and its model adapter.
//!
//! A [`Scorer`] is `Send + Sync`: the service builds one per model
//! generation and every worker thread scores on that one copy. Trained
//! models become scorers through their frozen form
//! ([`Recommender::freeze`]): plain-data parameters with the model's own
//! inference code, so the autograd `Var`s (`Rc<RefCell>`) never cross a
//! thread.

use pup_models::{Candidates, Frozen, Recommender, ScoreError, Shortlist};

/// A loaded model generation that scores the full catalog for one user.
pub trait Scorer: Send + Sync {
    /// Model name for reports (e.g. `"PUP"`, `"BPR-MF"`).
    fn name(&self) -> &str;

    /// Catalog size: `score` returns this many scores.
    fn n_items(&self) -> usize;

    /// Scores every item for `user`; malformed ids surface as typed
    /// errors, never as panics.
    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError>;

    /// The top-K entry point ([`Recommender::try_top_k`]): every candidate
    /// that can reach the top `k` for `user`, with its exact score, for
    /// [`Shortlist::rank`] to order. The default scores the whole catalog.
    fn top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, ScoreError> {
        Ok(Shortlist::dense(self.score(user)?, candidates, k))
    }
}

/// Adapts any [`Recommender`] into a [`Scorer`] by freezing it.
pub struct RecommenderScorer {
    model: Frozen,
    n_items: usize,
}

impl RecommenderScorer {
    /// Freezes `model`, which scores a catalog of `n_items` items; the
    /// trained model itself is dropped.
    pub fn new(model: Box<dyn Recommender>, n_items: usize) -> Self {
        Self { model: model.freeze(), n_items }
    }
}

impl Scorer for RecommenderScorer {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn n_items(&self) -> usize {
        self.n_items
    }

    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        self.model.try_score_items(user)
    }

    fn top_k<'a>(
        &self,
        user: usize,
        candidates: Candidates<'a>,
        k: usize,
    ) -> Result<Shortlist<'a>, ScoreError> {
        self.model.try_top_k(user, candidates, k)
    }
}
