//! Temporal train/validation/test splitting (paper §V-A1).
//!
//! "We first rank the records according to timestamps and then select the
//! early 60% as the training set, middle 20% as the validation set, and the
//! last 20% as the test set."
//!
//! Pairs are deduplicated *within* each part and a pair that already appears
//! in an earlier part is dropped from later parts (re-buying a training item
//! is not a new recommendation target).

use crate::types::{Dataset, Interaction};

/// Fractions of the interaction log assigned to train and validation; the
/// remainder is test.
#[derive(Clone, Copy, Debug)]
pub struct SplitRatios {
    /// Fraction of events in the training set (paper: 0.6).
    pub train: f64,
    /// Fraction of events in the validation set (paper: 0.2).
    pub valid: f64,
}

impl SplitRatios {
    /// The paper's 60/20/20 split.
    pub const PAPER: Self = Self { train: 0.6, valid: 0.2 };
}

/// A temporal split of a [`Dataset`] into unique `(user, item)` pairs.
#[derive(Clone, Debug)]
pub struct Split {
    /// Number of users in the source dataset.
    pub n_users: usize,
    /// Number of items in the source dataset.
    pub n_items: usize,
    /// Unique training pairs, in temporal order.
    pub train: Vec<(usize, usize)>,
    /// Unique validation pairs not seen in train.
    pub valid: Vec<(usize, usize)>,
    /// Unique test pairs not seen in train/valid.
    pub test: Vec<(usize, usize)>,
}

impl Split {
    /// Per-user sorted training item lists (used for negative sampling and
    /// for excluding seen items during evaluation).
    pub fn train_items_by_user(&self) -> Vec<Vec<u32>> {
        let mut lists = vec![Vec::new(); self.n_users];
        for &(u, i) in &self.train {
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            lists[u].push(i as u32);
        }
        for l in &mut lists {
            l.sort_unstable();
        }
        lists
    }

    /// Per-user sorted test item lists (evaluation ground truth).
    pub fn test_items_by_user(&self) -> Vec<Vec<u32>> {
        let mut lists = vec![Vec::new(); self.n_users];
        for &(u, i) in &self.test {
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            lists[u].push(i as u32);
        }
        for l in &mut lists {
            l.sort_unstable();
        }
        lists
    }

    /// Per-user sorted validation item lists.
    pub fn valid_items_by_user(&self) -> Vec<Vec<u32>> {
        let mut lists = vec![Vec::new(); self.n_users];
        for &(u, i) in &self.valid {
            // pup-lint: allow(as-cast-truncation) — dataset ids are dense and bounded well below u32::MAX
            lists[u].push(i as u32);
        }
        for l in &mut lists {
            l.sort_unstable();
        }
        lists
    }
}

/// Splits the dataset's interaction log temporally by the given ratios.
///
/// # Panics
/// Panics when the ratios are outside `(0, 1)` or sum to ≥ 1.
pub fn temporal_split(dataset: &Dataset, ratios: SplitRatios) -> Split {
    assert!(ratios.train > 0.0 && ratios.valid >= 0.0, "ratios must be non-negative");
    assert!(ratios.train + ratios.valid < 1.0, "train + valid must leave room for test");
    // `Dataset::validate` guarantees timestamp order.
    let n = dataset.interactions.len();
    // pup-lint: allow(as-cast-truncation) — split boundary in [0, n] by the ratio contract
    let train_end = (n as f64 * ratios.train).floor() as usize;
    // pup-lint: allow(as-cast-truncation) — split boundary in [0, n] by the ratio contract
    let valid_end = (n as f64 * (ratios.train + ratios.valid)).floor() as usize;

    let first = first_occurrences(&dataset.interactions);
    let collect = |range: std::ops::Range<usize>| -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(first[range.clone()].iter().filter(|&&f| f).count());
        out.extend(range.filter(|&k| first[k]).map(|k| {
            let it = &dataset.interactions[k];
            (it.user as usize, it.item as usize)
        }));
        out
    };
    let train = collect(0..train_end);
    let valid = collect(train_end..valid_end);
    let test = collect(valid_end..n);

    Split { n_users: dataset.n_users, n_items: dataset.n_items, train, valid, test }
}

/// Marks the first event of each `(user, item)` pair in the log.
///
/// Events are grouped by user with a counting pass, as packed
/// `item << 32 | index` keys in log order, and each user's keys are sorted:
/// a pair's events then sit together, its first event leading. This reads
/// the log twice and sorts small groups, where a set of seen pairs would
/// probe a table the size of the log once per event.
fn first_occurrences(interactions: &[Interaction]) -> Vec<bool> {
    let n = interactions.len();
    assert!(u32::try_from(n).is_ok(), "the log must index in 32 bits");
    let n_users = interactions.iter().map(|it| it.user as usize + 1).max().unwrap_or(0);
    // `start[u]..start[u + 1]` is user `u`'s group.
    let mut start = vec![0usize; n_users + 1];
    for it in interactions {
        start[it.user as usize + 1] += 1;
    }
    for u in 0..n_users {
        start[u + 1] += start[u];
    }
    let mut keys = vec![0u64; n];
    let mut next = start.clone();
    for (index, it) in interactions.iter().enumerate() {
        let at = &mut next[it.user as usize];
        keys[*at] = u64::from(it.item) << 32 | index as u64;
        *at += 1;
    }
    let mut first = vec![false; n];
    for group in start.windows(2) {
        let keys = &mut keys[group[0]..group[1]];
        keys.sort_unstable();
        let mut last_item = None;
        for &key in keys.iter() {
            let item = key >> 32;
            if last_item != Some(item) {
                last_item = Some(item);
                first[(key & 0xffff_ffff) as usize] = true;
            }
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sequential_dataset(n_users: usize, n_items: usize, events: &[(u32, u32)]) -> Dataset {
        Dataset {
            n_users,
            n_items,
            n_categories: 1,
            n_price_levels: 1,
            item_price: vec![1.0; n_items],
            item_category: vec![0; n_items],
            item_price_level: vec![0; n_items],
            interactions: events
                .iter()
                .enumerate()
                .map(|(t, &(u, i))| Interaction { user: u, item: i, timestamp: t as u64 })
                .collect(),
        }
    }

    #[test]
    fn proportions_follow_ratios() {
        let events: Vec<(u32, u32)> = (0..100).map(|t| (t % 10, (t * 7 + t / 10) % 50)).collect();
        let d = sequential_dataset(10, 50, &events);
        let s = temporal_split(&d, SplitRatios::PAPER);
        // All pairs are unique here, so counts match the event split exactly.
        assert_eq!(s.train.len(), 60);
        assert_eq!(s.valid.len(), 20);
        assert_eq!(s.test.len(), 20);
    }

    #[test]
    fn split_respects_temporal_order() {
        let events: Vec<(u32, u32)> = (0..50).map(|t| (0, t)).collect();
        let d = sequential_dataset(1, 50, &events);
        let s = temporal_split(&d, SplitRatios::PAPER);
        let max_train = s.train.iter().map(|&(_, i)| i).max().unwrap();
        let min_test = s.test.iter().map(|&(_, i)| i).min().unwrap();
        assert!(max_train < min_test, "training events must precede test events");
    }

    #[test]
    fn later_parts_drop_pairs_seen_earlier() {
        // The same (0,0) pair appears in every part; only train keeps it.
        let mut events = vec![(0, 0); 6];
        events.extend([(0, 1), (0, 2), (0, 3), (0, 4)]);
        let d = sequential_dataset(1, 5, &events);
        let s = temporal_split(&d, SplitRatios::PAPER);
        assert_eq!(s.train, vec![(0, 0)]);
        assert!(!s.valid.contains(&(0, 0)));
        assert!(!s.test.contains(&(0, 0)));
        let all: Vec<_> = s.train.iter().chain(&s.valid).chain(&s.test).collect();
        let distinct: HashSet<_> = all.iter().collect();
        assert_eq!(all.len(), distinct.len(), "no pair may appear twice across parts");
    }

    #[test]
    fn per_user_lists_cover_split() {
        let events: Vec<(u32, u32)> = (0..40).map(|t| (t % 4, t % 10)).collect();
        let d = sequential_dataset(4, 10, &events);
        let s = temporal_split(&d, SplitRatios::PAPER);
        let train_lists = s.train_items_by_user();
        let total: usize = train_lists.iter().map(Vec::len).sum();
        assert_eq!(total, s.train.len());
        for (u, list) in train_lists.iter().enumerate() {
            for &i in list {
                assert!(s.train.contains(&(u, i as usize)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "room for test")]
    fn rejects_ratios_without_test() {
        let d = sequential_dataset(1, 1, &[(0, 0)]);
        let _ = temporal_split(&d, SplitRatios { train: 0.8, valid: 0.2 });
    }

    #[test]
    fn empty_valid_ratio_is_allowed() {
        let events: Vec<(u32, u32)> = (0..10).map(|t| (0, t)).collect();
        let d = sequential_dataset(1, 10, &events);
        let s = temporal_split(&d, SplitRatios { train: 0.8, valid: 0.0 });
        assert_eq!(s.train.len(), 8);
        assert!(s.valid.is_empty());
        assert_eq!(s.test.len(), 2);
    }
}
