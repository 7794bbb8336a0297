//! Full-ranking top-K evaluation (paper §V-A1).
//!
//! For every user with test positives, all items the user has not interacted
//! with in training (or validation) form the candidate pool; the model ranks
//! them and Recall@K / NDCG@K are averaged over users.

use pup_data::Split;
use pup_models::topk::select_top;
use pup_models::{Candidates, Recommender, ScoreError, Shortlist};

use crate::metrics::{ndcg_at_k, recall_at_k};

/// Metrics at one cutoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricPair {
    /// Recall@K averaged over evaluated users.
    pub recall: f64,
    /// NDCG@K averaged over evaluated users.
    pub ndcg: f64,
}

/// Evaluation result across cutoffs.
#[derive(Clone, Debug)]
pub struct MetricReport {
    /// Model name.
    pub model: String,
    /// `(k, metrics)` per requested cutoff, in input order.
    pub at_k: Vec<(usize, MetricPair)>,
    /// Number of users that contributed to the averages.
    pub n_users: usize,
}

impl MetricReport {
    /// Metrics at cutoff `k`.
    ///
    /// # Panics
    /// Panics when `k` was not evaluated.
    pub fn at(&self, k: usize) -> MetricPair {
        self.at_k
            .iter()
            .find(|&&(kk, _)| kk == k)
            .map(|&(_, m)| m)
            .unwrap_or_else(|| panic!("cutoff {k} was not evaluated"))
    }
}

/// Ranks the `candidates` by `scores` (descending), returning item ids.
/// Ties break by item id for determinism.
///
/// # Panics
/// Panics when a candidate id is not an index into `scores`; use
/// [`try_rank_candidates`] for untrusted candidate lists.
pub fn rank_candidates(scores: &[f64], candidates: &[u32], top: usize) -> Vec<u32> {
    try_rank_candidates(scores, candidates, top).unwrap_or_else(|e| panic!("rank_candidates: {e}"))
}

/// Bounds-checked [`rank_candidates`]: a candidate id outside `scores`
/// surfaces as a typed [`ScoreError`] instead of an indexing panic, so a
/// serving path fed a malformed candidate pool can reject the request.
// pup-hot: eval-rank
pub fn try_rank_candidates(
    scores: &[f64],
    candidates: &[u32],
    top: usize,
) -> Result<Vec<u32>, ScoreError> {
    let _span = pup_obs::span("rank.topk");
    select_top(scores, candidates.iter().copied(), top)
}

/// [`try_rank_candidates`] over every item id below `n_items` that is not
/// in `seen`, without building that candidate list. `seen` must be sorted
/// ascending; ids in it at or above `n_items` are ignored.
pub fn try_rank_unseen(
    scores: &[f64],
    n_items: usize,
    seen: &[u32],
    top: usize,
) -> Result<Vec<u32>, ScoreError> {
    let _span = pup_obs::span("rank.topk");
    select_top(scores, Candidates::Unseen { n_items, seen }.iter(), top)
}

/// Standard evaluation: every user with test items, candidates are all items
/// minus the user's train/validation positives.
pub fn evaluate(model: &dyn Recommender, split: &Split, ks: &[usize]) -> MetricReport {
    let users: Vec<usize> = (0..split.n_users).collect();
    evaluate_users(model, split, &users, ks)
}

/// Evaluation restricted to a user subset (Table VI's consistency groups).
pub fn evaluate_users(
    model: &dyn Recommender,
    split: &Split,
    users: &[usize],
    ks: &[usize],
) -> MetricReport {
    standard_per_user(model, split, users, ks).summarize()
}

/// Per-user evaluation results, for significance testing (paper §V-B4's
/// paired t-tests) and per-group analyses.
#[derive(Clone, Debug)]
pub struct PerUserMetrics {
    /// Model name.
    pub model: String,
    /// The evaluated users, aligned with the metric vectors.
    pub users: Vec<usize>,
    /// `(k, per-user metrics)` for each cutoff in input order.
    pub at_k: Vec<(usize, Vec<MetricPair>)>,
}

impl PerUserMetrics {
    /// Per-user metrics at cutoff `k`.
    ///
    /// # Panics
    /// Panics when `k` was not evaluated.
    pub fn at(&self, k: usize) -> &[MetricPair] {
        self.at_k
            .iter()
            .find(|&&(kk, _)| kk == k)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("cutoff {k} was not evaluated"))
    }

    /// Collapses to user-averaged [`MetricReport`].
    pub fn summarize(&self) -> MetricReport {
        let denom = self.users.len().max(1) as f64;
        MetricReport {
            model: self.model.clone(),
            at_k: self
                .at_k
                .iter()
                .map(|(k, v)| {
                    let recall = v.iter().map(|m| m.recall).sum::<f64>() / denom;
                    let ndcg = v.iter().map(|m| m.ndcg).sum::<f64>() / denom;
                    (*k, MetricPair { recall, ndcg })
                })
                .collect(),
            n_users: self.users.len(),
        }
    }
}

/// Core evaluation over explicit per-user candidate pools and ground truths
/// (also used by the cold-start CIR/UCIR protocols).
///
/// Ground-truth items must be sorted and contained in the pool; users whose
/// ground truth is empty are skipped.
pub fn evaluate_pools(
    model: &dyn Recommender,
    users: &[usize],
    pools: &[Vec<u32>],
    ground_truths: &[Vec<u32>],
    ks: &[usize],
) -> MetricReport {
    evaluate_pools_per_user(model, users, pools, ground_truths, ks).summarize()
}

/// Like [`evaluate_pools`] but keeps the per-user metric vectors.
pub fn evaluate_pools_per_user(
    model: &dyn Recommender,
    users: &[usize],
    pools: &[Vec<u32>],
    ground_truths: &[Vec<u32>],
    ks: &[usize],
) -> PerUserMetrics {
    assert_eq!(users.len(), pools.len(), "one pool per user");
    assert_eq!(users.len(), ground_truths.len(), "one ground truth per user");
    assert!(!ks.is_empty(), "need at least one cutoff");
    let _span = pup_obs::span("evaluate");
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let mut kept_users = Vec::new();
    let mut per_k: Vec<Vec<MetricPair>> = ks.iter().map(|_| Vec::new()).collect();
    for ((&u, pool), gt) in users.iter().zip(pools).zip(ground_truths) {
        if gt.is_empty() {
            continue;
        }
        pup_obs::counter_add("eval.users", 1);
        let shortlist = {
            let _t = pup_obs::time("eval", "score_items");
            model.try_top_k(u, Candidates::Ids(pool), max_k)
        };
        let ranked = {
            let _t = pup_obs::time("eval", "rank_candidates");
            shortlist.and_then(Shortlist::rank).unwrap_or_else(|e| panic!("evaluate: {e}"))
        };
        for (slot, &k) in ks.iter().enumerate() {
            per_k[slot].push(MetricPair {
                recall: recall_at_k(&ranked, gt, k),
                ndcg: ndcg_at_k(&ranked, gt, k),
            });
        }
        kept_users.push(u);
    }
    PerUserMetrics {
        model: model.name().to_string(),
        users: kept_users,
        at_k: ks.iter().copied().zip(per_k).collect(),
    }
}

/// Per-user evaluation under the standard protocol (all items minus the
/// user's train/valid positives as candidates).
pub fn evaluate_per_user(model: &dyn Recommender, split: &Split, ks: &[usize]) -> PerUserMetrics {
    let users: Vec<usize> = (0..split.n_users).collect();
    standard_per_user(model, split, &users, ks)
}

/// The standard protocol over `users`: every user with test items, ranking
/// all items minus the user's train/validation positives.
fn standard_per_user(
    model: &dyn Recommender,
    split: &Split,
    users: &[usize],
    ks: &[usize],
) -> PerUserMetrics {
    let train = split.train_items_by_user();
    let valid = split.valid_items_by_user();
    let test = split.test_items_by_user();
    let mut pools = Vec::with_capacity(users.len());
    let mut truths = Vec::with_capacity(users.len());
    let mut kept_users = Vec::with_capacity(users.len());
    for &u in users {
        if test[u].is_empty() {
            continue;
        }
        let exclude =
            |i: &u32| train[u].binary_search(i).is_ok() || valid[u].binary_search(i).is_ok();
        // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
        pools.push((0..split.n_items as u32).filter(|i| !exclude(i)).collect());
        // pup-lint: allow(clone-in-loop) — per-user ground-truth copy, once per evaluation.
        truths.push(test[u].clone());
        kept_users.push(u);
    }
    evaluate_pools_per_user(model, &kept_users, &pools, &truths, ks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle that scores a fixed preference list.
    #[derive(Clone)]
    struct Fixed {
        prefs: Vec<f64>,
    }

    impl Recommender for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score_items(&self, _user: usize) -> Vec<f64> {
            self.prefs.clone()
        }
        fn n_users(&self) -> usize {
            usize::MAX
        }
        fn freeze(&self) -> pup_models::Frozen {
            Box::new(self.clone())
        }
    }

    fn split(train: Vec<(usize, usize)>, test: Vec<(usize, usize)>, n_items: usize) -> Split {
        Split { n_users: 2, n_items, train, valid: vec![], test }
    }

    #[test]
    fn perfect_model_scores_one() {
        // User 0 tests on item 2; model ranks item 2 first.
        let s = split(vec![(0, 0)], vec![(0, 2)], 4);
        let m = Fixed { prefs: vec![0.0, 0.1, 9.0, 0.2] };
        let r = evaluate(&m, &s, &[1, 2]);
        assert_eq!(r.n_users, 1);
        assert_eq!(r.at(1).recall, 1.0);
        assert!((r.at(1).ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn train_items_are_excluded_from_candidates() {
        // The model loves item 0, but user 0 already bought it in training;
        // candidates exclude it, so the test item (1) lands on top.
        let s = split(vec![(0, 0)], vec![(0, 1)], 3);
        let m = Fixed { prefs: vec![99.0, 1.0, 2.0] };
        let r = evaluate(&m, &s, &[1]);
        assert_eq!(r.at(1).recall, 0.0, "item 2 outranks item 1 once 0 is excluded");
        let r2 = evaluate(&m, &s, &[2]);
        assert_eq!(r2.at(2).recall, 1.0);
    }

    #[test]
    fn users_without_test_items_are_skipped() {
        let s = split(vec![(0, 0), (1, 1)], vec![(0, 2)], 3);
        let m = Fixed { prefs: vec![1.0, 1.0, 1.0] };
        let r = evaluate(&m, &s, &[1]);
        assert_eq!(r.n_users, 1);
    }

    #[test]
    fn rank_candidates_breaks_ties_by_id() {
        let ranked = rank_candidates(&[1.0, 1.0, 2.0], &[0, 1, 2], 3);
        assert_eq!(ranked, vec![2, 0, 1]);
    }

    #[test]
    fn try_rank_candidates_rejects_out_of_range_candidate() {
        let err = try_rank_candidates(&[1.0, 2.0, 3.0], &[0, 7, 1], 2).unwrap_err();
        assert_eq!(err, ScoreError::ItemOutOfRange { item: 7, n_items: 3 });
        // The in-range call matches the panicking variant.
        assert_eq!(
            try_rank_candidates(&[1.0, 1.0, 2.0], &[0, 1, 2], 3).unwrap(),
            rank_candidates(&[1.0, 1.0, 2.0], &[0, 1, 2], 3)
        );
    }

    #[test]
    fn evaluate_users_subsets() {
        let s = split(vec![], vec![(0, 0), (1, 1)], 2);
        let m = Fixed { prefs: vec![5.0, 1.0] };
        let only0 = evaluate_users(&m, &s, &[0], &[1]);
        assert_eq!(only0.n_users, 1);
        assert_eq!(only0.at(1).recall, 1.0);
        let only1 = evaluate_users(&m, &s, &[1], &[1]);
        assert_eq!(only1.at(1).recall, 0.0, "user 1's item ranks second");
    }

    #[test]
    fn per_user_summarize_matches_evaluate() {
        let s = split(vec![(0, 0)], vec![(0, 2), (1, 1)], 4);
        let m = Fixed { prefs: vec![0.5, 3.0, 2.0, 0.1] };
        let mean = evaluate(&m, &s, &[1, 2]);
        let per_user = evaluate_per_user(&m, &s, &[1, 2]);
        let summarized = per_user.summarize();
        assert_eq!(per_user.users.len(), mean.n_users);
        for (&(k, a), &(k2, b)) in mean.at_k.iter().zip(&summarized.at_k) {
            assert_eq!(k, k2);
            assert!((a.recall - b.recall).abs() < 1e-12);
            assert!((a.ndcg - b.ndcg).abs() < 1e-12);
        }
    }

    #[test]
    fn per_user_metrics_align_with_users() {
        // User 0's test item ranks first (recall 1); user 1's ranks below
        // item 2 in her pool (recall@1 = 0).
        let s = split(vec![], vec![(0, 1), (1, 0)], 3);
        let m = Fixed { prefs: vec![1.0, 5.0, 2.0] };
        let pu = evaluate_per_user(&m, &s, &[1]);
        assert_eq!(pu.users, vec![0, 1]);
        let at1 = pu.at(1);
        assert_eq!(at1[0].recall, 1.0);
        assert_eq!(at1[1].recall, 0.0);
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn report_rejects_unknown_cutoff() {
        let s = split(vec![], vec![(0, 0)], 2);
        let m = Fixed { prefs: vec![1.0, 0.0] };
        let r = evaluate(&m, &s, &[1]);
        let _ = r.at(50);
    }
}
