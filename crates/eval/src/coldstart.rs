//! Cold-start evaluation on unexplored categories (paper §V-F).
//!
//! A category is *unexplored* for a user when none of her training items
//! belong to it. Following Chen et al. [34], two candidate-pool protocols:
//!
//! - **CIR** (category item recommendation): the pool is every item of the
//!   *test-positive unexplored* categories.
//! - **UCIR** (unexplored category item recommendation): the pool is every
//!   item outside the *train-positive* categories.
//!
//! Only test items from unexplored categories count as ground truth.

use std::collections::BTreeSet;

use pup_data::{Dataset, Split};
use pup_models::Recommender;

use crate::ranking::{evaluate_pools, MetricReport};

/// Candidate-pool protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdStartProtocol {
    /// Pool = items of the user's test-positive unexplored categories.
    Cir,
    /// Pool = items of all categories the user did not train on.
    Ucir,
}

/// The per-user cold-start evaluation instances.
#[derive(Clone, Debug)]
pub struct ColdStartTask {
    /// Users with at least one test item in an unexplored category.
    pub users: Vec<usize>,
    /// Candidate pool per user (sorted item ids).
    pub pools: Vec<Vec<u32>>,
    /// Ground-truth test items per user (sorted, subset of the pool).
    pub truths: Vec<Vec<u32>>,
    /// Which protocol built this task.
    pub protocol: ColdStartProtocol,
}

/// Builds the cold-start task from a dataset and its split.
pub fn build_cold_start_task(
    dataset: &Dataset,
    split: &Split,
    protocol: ColdStartProtocol,
) -> ColdStartTask {
    let train_lists = split.train_items_by_user();
    let test_lists = split.test_items_by_user();
    let by_category = dataset.category_item_lists();

    let mut users = Vec::new();
    let mut pools = Vec::new();
    let mut truths = Vec::new();
    for u in 0..split.n_users {
        // Categories of the user's training items.
        let train_cats: BTreeSet<usize> =
            train_lists[u].iter().map(|&i| dataset.item_category[i as usize]).collect();
        // Test items in unexplored categories ("filter out those items in
        // the test set belonging to explored categories").
        let truth: Vec<u32> = test_lists[u]
            .iter()
            .copied()
            .filter(|&i| !train_cats.contains(&dataset.item_category[i as usize]))
            .collect();
        if truth.is_empty() {
            continue;
        }
        let pool: Vec<u32> = match protocol {
            ColdStartProtocol::Cir => {
                let positive_cats: BTreeSet<usize> =
                    truth.iter().map(|&i| dataset.item_category[i as usize]).collect();
                let mut p: Vec<u32> =
                    positive_cats.iter().flat_map(|&c| by_category[c].iter().copied()).collect();
                p.sort_unstable();
                p
            }
            ColdStartProtocol::Ucir => {
                let mut p: Vec<u32> = (0..dataset.n_categories)
                    .filter(|c| !train_cats.contains(c))
                    .flat_map(|c| by_category[c].iter().copied())
                    .collect();
                p.sort_unstable();
                p
            }
        };
        users.push(u);
        pools.push(pool);
        truths.push(truth);
    }
    ColdStartTask { users, pools, truths, protocol }
}

/// Evaluates a model under a cold-start task.
pub fn evaluate_cold_start(
    model: &dyn Recommender,
    task: &ColdStartTask,
    ks: &[usize],
) -> MetricReport {
    evaluate_pools(model, &task.users, &task.pools, &task.truths, ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_data::Interaction;

    /// 3 categories x 2 items each; user 0 trains on category 0, tests on
    /// category 1.
    fn fixture() -> (Dataset, Split) {
        let dataset = Dataset {
            n_users: 2,
            n_items: 6,
            n_categories: 3,
            n_price_levels: 2,
            item_price: vec![1.0; 6],
            item_category: vec![0, 0, 1, 1, 2, 2],
            item_price_level: vec![0, 1, 0, 1, 0, 1],
            interactions: vec![
                Interaction { user: 0, item: 0, timestamp: 0 },
                Interaction { user: 0, item: 2, timestamp: 1 },
            ],
        };
        let split = Split {
            n_users: 2,
            n_items: 6,
            train: vec![(0, 0), (0, 1)],
            valid: vec![],
            test: vec![(0, 2), (0, 0)],
        };
        (dataset, split)
    }

    #[test]
    fn cir_pool_is_test_positive_unexplored_categories() {
        let (d, s) = fixture();
        let task = build_cold_start_task(&d, &s, ColdStartProtocol::Cir);
        assert_eq!(task.users, vec![0]);
        // Test item 2 is in category 1 (unexplored); test item 0 is category
        // 0 (explored) and filtered out of the truth.
        assert_eq!(task.truths[0], vec![2]);
        assert_eq!(task.pools[0], vec![2, 3], "CIR pool is exactly category 1's items");
    }

    #[test]
    fn ucir_pool_covers_all_unexplored_categories() {
        let (d, s) = fixture();
        let task = build_cold_start_task(&d, &s, ColdStartProtocol::Ucir);
        assert_eq!(task.pools[0], vec![2, 3, 4, 5], "UCIR pool = categories 1 and 2");
    }

    #[test]
    fn users_without_unexplored_test_items_are_dropped() {
        let (d, mut s) = fixture();
        // Make user 0's test purely explored.
        s.test = vec![(0, 0)];
        let task = build_cold_start_task(&d, &s, ColdStartProtocol::Cir);
        assert!(task.users.is_empty());
    }

    #[test]
    fn paper_example_protocol_semantics() {
        // Paper §V-F: 7 categories {A..G}; train on A,B,C; test positives in
        // E. CIR pool = items of E; UCIR pool = items of {D,E,F,G}.
        let n_items = 7;
        let dataset = Dataset {
            n_users: 1,
            n_items,
            n_categories: 7,
            n_price_levels: 1,
            item_price: vec![1.0; n_items],
            item_category: (0..7).collect(),
            item_price_level: vec![0; n_items],
            interactions: vec![Interaction { user: 0, item: 0, timestamp: 0 }],
        };
        let split = Split {
            n_users: 1,
            n_items,
            train: vec![(0, 0), (0, 1), (0, 2)], // categories A, B, C
            valid: vec![],
            test: vec![(0, 4)], // category E
        };
        let cir = build_cold_start_task(&dataset, &split, ColdStartProtocol::Cir);
        assert_eq!(cir.pools[0], vec![4]);
        let ucir = build_cold_start_task(&dataset, &split, ColdStartProtocol::Ucir);
        assert_eq!(ucir.pools[0], vec![3, 4, 5, 6]);
    }

    #[test]
    fn evaluation_runs_on_task() {
        #[derive(Clone)]
        struct Uniform;
        impl Recommender for Uniform {
            fn name(&self) -> &str {
                "uniform"
            }
            fn score_items(&self, _u: usize) -> Vec<f64> {
                vec![0.0; 6]
            }
            fn n_users(&self) -> usize {
                usize::MAX
            }
            fn freeze(&self) -> pup_models::Frozen {
                Box::new(self.clone())
            }
        }
        let (d, s) = fixture();
        let task = build_cold_start_task(&d, &s, ColdStartProtocol::Cir);
        let r = evaluate_cold_start(&Uniform, &task, &[1, 2]);
        assert_eq!(r.n_users, 1);
        // Tie-break by id puts item 2 first: recall@1 = 1.
        assert_eq!(r.at(1).recall, 1.0);
    }
}
