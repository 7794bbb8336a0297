//! Value-aware evaluation (the paper's §VII future work: "how to utilize
//! PUP to maximize the revenue ... extends price-aware recommendation to
//! value-aware recommendation").
//!
//! Revenue@K counts the *money* recovered by the top-K list: the summed
//! price of the ground-truth items the list actually hits, normalized by
//! the total price of the ground truth. An accuracy-equal model that hits
//! the user's expensive purchases scores higher than one that hits cheap
//! ones — exactly the provider-side objective the paper gestures at.

use pup_data::Split;
use pup_models::{Candidates, Recommender, Shortlist};

/// Revenue-oriented evaluation result.
#[derive(Clone, Debug)]
pub struct RevenueReport {
    /// Model name.
    pub model: String,
    /// `(k, mean revenue recall)` per cutoff: hit-item price mass over
    /// ground-truth price mass, averaged over users.
    pub revenue_recall_at_k: Vec<(usize, f64)>,
    /// `(k, mean absolute hit revenue)` per cutoff, in raw price units.
    pub hit_revenue_at_k: Vec<(usize, f64)>,
    /// Users contributing to the averages.
    pub n_users: usize,
}

impl RevenueReport {
    /// Revenue recall at cutoff `k`.
    ///
    /// # Panics
    /// Panics when `k` was not evaluated.
    pub fn revenue_recall(&self, k: usize) -> f64 {
        self.revenue_recall_at_k
            .iter()
            .find(|&&(kk, _)| kk == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("cutoff {k} was not evaluated"))
    }
}

/// Evaluates the revenue captured by top-K recommendations under the
/// standard protocol (candidates = all items minus train/valid positives).
///
/// `item_price[i]` is the raw price of item `i` (from `Dataset::item_price`).
pub fn evaluate_revenue(
    model: &dyn Recommender,
    split: &Split,
    item_price: &[f64],
    ks: &[usize],
) -> RevenueReport {
    assert_eq!(item_price.len(), split.n_items, "one price per item required");
    assert!(!ks.is_empty(), "need at least one cutoff");
    let train = split.train_items_by_user();
    let valid = split.valid_items_by_user();
    let test = split.test_items_by_user();
    let max_k = ks.iter().copied().max().unwrap_or(0);

    let mut recall_sums = vec![0.0; ks.len()];
    let mut hit_sums = vec![0.0; ks.len()];
    let mut n_users = 0usize;
    for u in 0..split.n_users {
        if test[u].is_empty() {
            continue;
        }
        let gt = &test[u];
        let gt_value: f64 = gt.iter().map(|&i| item_price[i as usize]).sum();
        if gt_value <= 0.0 {
            continue;
        }
        let exclude =
            |i: &u32| train[u].binary_search(i).is_ok() || valid[u].binary_search(i).is_ok();
        // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
        let pool: Vec<u32> = (0..split.n_items as u32).filter(|i| !exclude(i)).collect();
        let ranked = model
            .try_top_k(u, Candidates::Ids(&pool), max_k)
            .and_then(Shortlist::rank)
            .unwrap_or_else(|e| panic!("evaluate_revenue: {e}"));
        for (slot, &k) in ks.iter().enumerate() {
            let hit_value: f64 = ranked
                .iter()
                .take(k)
                .filter(|i| gt.binary_search(i).is_ok())
                .map(|&i| item_price[i as usize])
                .sum();
            recall_sums[slot] += hit_value / gt_value;
            hit_sums[slot] += hit_value;
        }
        n_users += 1;
    }
    let denom = n_users.max(1) as f64;
    RevenueReport {
        model: model.name().to_string(),
        revenue_recall_at_k: ks.iter().zip(&recall_sums).map(|(&k, &s)| (k, s / denom)).collect(),
        hit_revenue_at_k: ks.iter().zip(&hit_sums).map(|(&k, &s)| (k, s / denom)).collect(),
        n_users,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Fixed(Vec<f64>);
    impl Recommender for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score_items(&self, _u: usize) -> Vec<f64> {
            self.0.clone()
        }
        fn n_users(&self) -> usize {
            usize::MAX
        }
        fn freeze(&self) -> pup_models::Frozen {
            Box::new(self.clone())
        }
    }

    fn split(test: Vec<(usize, usize)>) -> Split {
        Split { n_users: 1, n_items: 4, train: vec![], valid: vec![], test }
    }

    #[test]
    fn perfect_list_recovers_all_revenue() {
        let s = split(vec![(0, 1), (0, 3)]);
        let prices = [1.0, 10.0, 1.0, 40.0];
        let m = Fixed(vec![0.0, 5.0, 0.0, 9.0]);
        let r = evaluate_revenue(&m, &s, &prices, &[2]);
        assert!((r.revenue_recall(2) - 1.0).abs() < 1e-12);
        assert!((r.hit_revenue_at_k[0].1 - 50.0).abs() < 1e-12);
    }

    #[test]
    fn expensive_hits_beat_cheap_hits_at_equal_accuracy() {
        // Both models hit exactly one of the two ground-truth items; hitting
        // the expensive one must yield higher revenue recall.
        let s = split(vec![(0, 1), (0, 3)]);
        let prices = [1.0, 10.0, 1.0, 40.0];
        let hits_cheap = Fixed(vec![0.0, 9.0, 8.0, 0.0]); // top-2: items 1, 2
        let hits_pricey = Fixed(vec![0.0, 0.0, 8.0, 9.0]); // top-2: items 3, 2
        let rc = evaluate_revenue(&hits_cheap, &s, &prices, &[2]).revenue_recall(2);
        let rp = evaluate_revenue(&hits_pricey, &s, &prices, &[2]).revenue_recall(2);
        assert!((rc - 0.2).abs() < 1e-12, "10 of 50 = 0.2, got {rc}");
        assert!((rp - 0.8).abs() < 1e-12, "40 of 50 = 0.8, got {rp}");
    }

    #[test]
    fn users_without_test_items_are_skipped() {
        let s = Split { n_users: 2, n_items: 4, train: vec![], valid: vec![], test: vec![(0, 1)] };
        let prices = [1.0; 4];
        let m = Fixed(vec![1.0, 2.0, 3.0, 4.0]);
        let r = evaluate_revenue(&m, &s, &prices, &[2]);
        assert_eq!(r.n_users, 1);
    }

    #[test]
    #[should_panic(expected = "one price per item")]
    fn rejects_wrong_price_count() {
        let s = split(vec![(0, 1)]);
        let m = Fixed(vec![1.0; 4]);
        let _ = evaluate_revenue(&m, &s, &[1.0, 2.0], &[1]);
    }
}
