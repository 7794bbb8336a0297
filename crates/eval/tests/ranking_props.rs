//! Property tests of the bounded top-K rankers against a full-sort
//! reference: `try_rank_candidates` over arbitrary candidate lists
//! (duplicates and out-of-range ids included) and `try_rank_unseen` against
//! filter-then-sort. Scores come from small palettes so ties, NaN and signed
//! zeros occur in most cases.

#![allow(clippy::expect_used)]

use proptest::prelude::*;

use pup_eval::{try_rank_candidates, try_rank_unseen};
use pup_models::ScoreError;

/// Forced ties: every score is one of three values.
const TIES: [f64; 3] = [1.0, 2.0, 3.0];

/// Values whose order only `total_cmp` fixes.
const SPECIAL: [f64; 9] =
    [f64::NAN, -f64::NAN, 0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, 0.5];

/// The order ranking promises, by brute force: reject the first
/// out-of-range candidate, sort everything (score descending under
/// `total_cmp`, then item id ascending), and keep the first `top`.
fn full_sort(scores: &[f64], candidates: &[u32], top: usize) -> Result<Vec<u32>, ScoreError> {
    if let Some(&bad) = candidates.iter().find(|&&c| c as usize >= scores.len()) {
        return Err(ScoreError::ItemOutOfRange { item: bad as usize, n_items: scores.len() });
    }
    let mut ranked = candidates.to_vec();
    ranked.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]).then(a.cmp(&b)));
    ranked.truncate(top);
    Ok(ranked)
}

/// Scores for `n` items drawn from `TIES` or `SPECIAL`.
fn scores(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (0usize..2, prop::collection::vec(0usize..SPECIAL.len(), n)).prop_map(|(palette, picks)| {
        let palette: &[f64] = if palette == 0 { &TIES } else { &SPECIAL };
        picks.into_iter().map(|p| palette[p % palette.len()]).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bounded_selection_equals_the_full_sort(
        (scores, candidates, top) in (0usize..40, 0usize..4).prop_flat_map(|(n, mode)| (
            scores(n),
            // Duplicate ids in every case; in one case of four the ids may
            // also reach `n`, one past the scores.
            prop::collection::vec(0..(n + usize::from(mode == 0)).max(1) as u32, 0..60),
            0usize..70,
        )),
    ) {
        let ranked = try_rank_candidates(&scores, &candidates, top);
        prop_assert_eq!(&ranked, &full_sort(&scores, &candidates, top));
        if let Ok(ranked) = ranked {
            prop_assert_eq!(ranked.len(), top.min(candidates.len()));
        }
    }

    #[test]
    fn seen_list_ranking_equals_filter_then_sort(
        (scores, extra, seen, top) in (0usize..40).prop_flat_map(|n| (
            scores(n),
            0usize..2,
            // Sorted below; ids at or above `n` must be ignored.
            prop::collection::vec(0..n as u32 + 5, 0..20),
            0usize..50,
        )),
    ) {
        let mut seen = seen;
        seen.sort_unstable();
        // `n_items` one past the scores must fail like the candidate list.
        let n_items = scores.len() + extra;
        for seen in [&seen[..], &[]] {
            let unseen: Vec<u32> =
                (0..n_items as u32).filter(|i| seen.binary_search(i).is_err()).collect();
            prop_assert_eq!(
                try_rank_unseen(&scores, n_items, seen, top),
                full_sort(&scores, &unseen, top)
            );
        }
    }
}

#[test]
fn total_order_places_nan_and_signed_zeros() {
    let scores = [f64::NAN, 0.0, -0.0, 1.0, -f64::NAN];
    let ranked = try_rank_candidates(&scores, &[0, 1, 2, 3, 4], 5).expect("in range");
    assert_eq!(ranked, [0, 3, 1, 2, 4]);
}

#[test]
fn zero_k_still_rejects_an_out_of_range_candidate() {
    assert_eq!(try_rank_candidates(&[1.0, 2.0], &[0, 1], 0), Ok(vec![]));
    assert_eq!(
        try_rank_candidates(&[1.0, 2.0], &[0, 5, 9], 0),
        Err(ScoreError::ItemOutOfRange { item: 5, n_items: 2 })
    );
}
