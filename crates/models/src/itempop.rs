//! ItemPop baseline: non-personalized popularity ranking (paper §V-A2).

use crate::common::{Recommender, ScoreError, TrainData};
use crate::frozen::Frozen;

/// Ranks every item by its training-set popularity, identically for all
/// users.
#[derive(Clone, Debug)]
pub struct ItemPop {
    scores: Vec<f64>,
}

impl ItemPop {
    /// Counts training interactions per item.
    ///
    /// Panics when a training pair references an item id outside
    /// `0..n_items`; use [`try_fit`](Self::try_fit) for untrusted input.
    pub fn fit(data: &TrainData<'_>) -> Self {
        Self::try_fit(data).unwrap_or_else(|e| panic!("ItemPop::fit: {e}"))
    }

    /// Counts training interactions per item, returning a typed error when
    /// a pair references an out-of-range item id (malformed logs must not
    /// panic the scoring path that builds a popularity fallback from them).
    pub fn try_fit(data: &TrainData<'_>) -> Result<Self, ScoreError> {
        let mut scores = vec![0.0; data.n_items];
        for &(_, i) in data.train {
            match scores.get_mut(i) {
                Some(s) => *s += 1.0,
                None => return Err(ScoreError::ItemOutOfRange { item: i, n_items: data.n_items }),
            }
        }
        Ok(Self { scores })
    }

    /// The raw popularity counts.
    pub fn popularity(&self) -> &[f64] {
        &self.scores
    }
}

impl Recommender for ItemPop {
    fn name(&self) -> &str {
        "ItemPop"
    }

    fn score_items(&self, _user: usize) -> Vec<f64> {
        self.scores.clone()
    }

    /// Popularity is user-independent: any user id scores identically.
    fn n_users(&self) -> usize {
        usize::MAX
    }

    fn freeze(&self) -> Frozen {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(train: &[(usize, usize)]) -> TrainData<'_> {
        TrainData {
            n_users: 3,
            n_items: 4,
            n_categories: 1,
            n_price_levels: 1,
            item_price_level: &[0, 0, 0, 0],
            item_category: &[0, 0, 0, 0],
            train,
        }
    }

    #[test]
    fn counts_training_popularity() {
        let train = vec![(0, 1), (1, 1), (2, 1), (0, 2)];
        let m = ItemPop::fit(&data(&train));
        assert_eq!(m.popularity(), &[0.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn scores_are_user_independent() {
        let train = vec![(0, 0), (1, 3)];
        let m = ItemPop::fit(&data(&train));
        assert_eq!(m.score_items(0), m.score_items(2));
    }

    #[test]
    fn try_fit_rejects_out_of_range_item() {
        use crate::common::ScoreError;
        let train = vec![(0, 1), (1, 9)]; // item 9 with n_items = 4
        let err = ItemPop::try_fit(&data(&train)).unwrap_err();
        assert_eq!(err, ScoreError::ItemOutOfRange { item: 9, n_items: 4 });
    }
}
