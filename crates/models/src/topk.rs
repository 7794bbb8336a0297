//! Top-K selection: the candidate sets a request ranks, the shortlist a
//! model scores for them, and the one ranking rule every caller shares.
//!
//! A top-K request runs in two stages. [`Recommender::try_top_k`] scores:
//! it returns a [`Shortlist`] that holds the exact score of every
//! candidate that can reach the top `k`. [`Shortlist::rank`] then orders
//! them. Serving opens its `score` and `rank` spans, and checks its
//! deadline, around the two stages.
//!
//! Ranking is score descending under `f64::total_cmp`, then item id
//! ascending, truncated to `k`.
//!
//! [`Recommender::try_top_k`]: crate::Recommender::try_top_k

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::slice;

use crate::common::ScoreError;

/// The item ids a request ranks, ascending.
#[derive(Clone, Copy, Debug)]
pub enum Candidates<'a> {
    /// Exactly these ids.
    Ids(&'a [u32]),
    /// Every id below `n_items` that is not in `seen`. `seen` must be
    /// sorted ascending; ids in it at or above `n_items` are ignored.
    Unseen {
        /// Catalog size.
        n_items: usize,
        /// The ids to leave out, ascending.
        seen: &'a [u32],
    },
}

impl<'a> Candidates<'a> {
    /// The ids, in order.
    pub fn iter(self) -> CandidateIter<'a> {
        match self {
            Self::Ids(ids) => CandidateIter::Ids(ids.iter()),
            Self::Unseen { n_items, seen } => {
                let n_items = u32::try_from(n_items).unwrap_or(u32::MAX);
                let mut gaps = Gaps { next: 0, end: 0, seen: seen.iter(), n_items };
                gaps.end = gaps.bound();
                CandidateIter::Unseen(gaps)
            }
        }
    }

    /// An upper bound on the number of ids.
    pub fn max_len(self) -> usize {
        match self {
            Self::Ids(ids) => ids.len(),
            Self::Unseen { n_items, .. } => n_items,
        }
    }
}

/// The iterator behind [`Candidates::iter`].
#[derive(Clone, Debug)]
pub enum CandidateIter<'a> {
    /// Over an explicit id list.
    Ids(slice::Iter<'a, u32>),
    /// Over the runs of unseen ids between consecutive seen ids.
    Unseen(Gaps<'a>),
}

/// The unseen ids below a catalog size: the run `next..end` up to the next
/// seen id, then the run after it, and so on.
#[derive(Clone, Debug)]
pub struct Gaps<'a> {
    /// The next id of the current run.
    next: u32,
    /// The seen id that ends the current run, or the catalog size.
    end: u32,
    /// The seen ids not yet passed, ascending.
    seen: slice::Iter<'a, u32>,
    /// The catalog size.
    n_items: u32,
}

impl Gaps<'_> {
    /// The first seen id at or after `next`, or the catalog size.
    fn bound(&mut self) -> u32 {
        let next = self.next;
        self.seen.find(|&&s| s >= next).map_or(self.n_items, |&s| s.min(self.n_items))
    }
}

impl Iterator for CandidateIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Self::Ids(ids) => ids.next().copied(),
            Self::Unseen(gaps) => {
                while gaps.next == gaps.end {
                    if gaps.end >= gaps.n_items {
                        return None;
                    }
                    gaps.next = gaps.end + 1;
                    gaps.end = gaps.bound();
                }
                let id = gaps.next;
                gaps.next += 1;
                Some(id)
            }
        }
    }

    /// Internal iteration walks each run of unseen ids as a range.
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        match self {
            Self::Ids(ids) => ids.copied().fold(init, f),
            Self::Unseen(mut gaps) => {
                let mut acc = (gaps.next..gaps.end).fold(init, &mut f);
                while gaps.end < gaps.n_items {
                    gaps.next = gaps.end + 1;
                    gaps.end = gaps.bound();
                    acc = (gaps.next..gaps.end).fold(acc, &mut f);
                }
                acc
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Ids(ids) => ids.size_hint(),
            Self::Unseen(gaps) => (0, Some(gaps.n_items.saturating_sub(gaps.next) as usize)),
        }
    }
}

/// What [`Recommender::try_top_k`] scored: every candidate that can reach
/// the top `k`, each with its exact score. [`rank`](Self::rank) orders
/// them.
///
/// [`Recommender::try_top_k`]: crate::Recommender::try_top_k
#[derive(Clone, Debug)]
pub struct Shortlist<'a>(Scored<'a>);

#[derive(Clone, Debug)]
enum Scored<'a> {
    /// One score per catalog item; every candidate is ranked.
    Dense { scores: Vec<f64>, candidates: Candidates<'a>, k: usize },
    /// `(item, score)` for a superset of the top `k`.
    Survivors { items: Vec<(u32, f64)>, k: usize },
}

impl<'a> Shortlist<'a> {
    /// The whole catalog's `scores`, ranked over `candidates`.
    pub fn dense(scores: Vec<f64>, candidates: Candidates<'a>, k: usize) -> Self {
        Self(Scored::Dense { scores, candidates, k })
    }

    /// `(item, exact score)` pairs that include every item of the top `k`.
    pub fn survivors(items: Vec<(u32, f64)>, k: usize) -> Self {
        Self(Scored::Survivors { items, k })
    }

    /// The number of survivors, or `None` for a dense shortlist (one that
    /// ranks every candidate).
    pub fn survivors_len(&self) -> Option<usize> {
        match &self.0 {
            Scored::Dense { .. } => None,
            Scored::Survivors { items, .. } => Some(items.len()),
        }
    }

    /// The top `k` item ids, best first. A candidate outside a dense
    /// shortlist's catalog is an error.
    pub fn rank(self) -> Result<Vec<u32>, ScoreError> {
        match self.0 {
            Scored::Dense { scores, candidates, k } => select_top(&scores, candidates.iter(), k),
            Scored::Survivors { mut items, k } => {
                let by_rank = |&(item, score): &(u32, f64)| rank_key(score, item);
                if items.len() > k {
                    if k == 0 {
                        return Ok(Vec::new());
                    }
                    items.select_nth_unstable_by_key(k - 1, by_rank);
                    items.truncate(k);
                }
                items.sort_unstable_by_key(by_rank);
                Ok(items.into_iter().map(|(item, _)| item).collect())
            }
        }
    }
}

/// The ranking core: one pass over `candidates` keeps the best `top` in a
/// bounded max-heap whose root is the worst entry kept, then sorts them
/// best first. The result equals a full sort (score descending under
/// `total_cmp`, then id ascending) truncated to `top`. The first candidate
/// outside `scores` is an error.
pub fn select_top(
    scores: &[f64],
    candidates: impl Iterator<Item = u32>,
    top: usize,
) -> Result<Vec<u32>, ScoreError> {
    let mut heap = BinaryHeap::with_capacity(top.min(candidates.size_hint().1.unwrap_or(0)));
    for item in candidates {
        let Some(&score) = scores.get(item as usize) else {
            return Err(ScoreError::ItemOutOfRange { item: item as usize, n_items: scores.len() });
        };
        let entry = rank_key(score, item);
        if heap.len() < top {
            heap.push(entry);
        } else if let Some(mut worst) = heap.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
    }
    Ok(heap.into_sorted_vec().into_iter().map(|(_, item)| item).collect())
}

/// The sort key of the ranking rule: the smaller key ranks first, so a
/// higher score (under `total_cmp`), then a lower id.
fn rank_key(score: f64, item: u32) -> (Reverse<i64>, u32) {
    (Reverse(total_order_key(score)), item)
}

/// An integer key whose order is `f64::total_cmp`'s (the same bit flip).
/// The map is its own inverse on the bit pattern.
pub(crate) fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits().cast_signed();
    bits ^ ((bits >> 63).cast_unsigned() >> 1).cast_signed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unseen_candidates_skip_seen_ids_and_ignore_out_of_range_ones() {
        let unseen =
            |n_items, seen| Candidates::Unseen { n_items, seen }.iter().collect::<Vec<_>>();
        assert_eq!(unseen(6, &[1, 1, 4, 9]), vec![0, 2, 3, 5]);
        assert_eq!(unseen(6, &[0, 1, 2, 5]), vec![3, 4]);
        assert_eq!(unseen(3, &[0, 1, 2]), Vec::<u32>::new());
        assert_eq!(unseen(4, &[]), vec![0, 1, 2, 3]);
        assert_eq!(unseen(0, &[0]), Vec::<u32>::new());
        // Internal iteration (`fold`) visits the same ids as `next`.
        let mut folded = Vec::new();
        Candidates::Unseen { n_items: 9, seen: &[0, 3, 4, 8, 8] }
            .iter()
            .for_each(|i| folded.push(i));
        assert_eq!(folded, unseen(9, &[0, 3, 4, 8, 8]));
        assert_eq!(folded, vec![1, 2, 5, 6, 7]);
        assert_eq!(Candidates::Ids(&[3, 1]).iter().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn total_order_key_orders_like_total_cmp_and_inverts_itself() {
        let xs = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, f64::MIN_POSITIVE, 2.0, f64::NAN];
        for w in xs.windows(2) {
            assert!(total_order_key(w[0]) < total_order_key(w[1]), "{w:?}");
        }
        for x in xs {
            let back = f64::from_bits(total_order_key(x).cast_unsigned());
            assert_eq!(total_order_key(back).cast_unsigned(), x.to_bits());
        }
    }

    #[test]
    fn survivors_rank_like_a_dense_shortlist() {
        let scores = vec![1.0, 3.0, 3.0, -0.0, 0.0, 2.0];
        let all: Vec<u32> = (0..6).collect();
        for k in 0..8 {
            let dense = Shortlist::dense(scores.clone(), Candidates::Ids(&all), k).rank();
            let pairs = all.iter().map(|&i| (i, scores[i as usize])).collect();
            assert_eq!(Shortlist::survivors(pairs, k).rank(), dense, "k = {k}");
        }
    }
}
