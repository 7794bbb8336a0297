//! Adjacency normalization (paper §IV-A and the GC-MC/NGCF baselines).
//!
//! PUP uses the *rectified adjacency* `Â = f(A + I)` where `f` takes the
//! average of each row (eq. 5) — i.e. row normalization after adding
//! self-loops. The self-loops matter: the paper cites Wu et al. [26] on the
//! spectrum-shrinking effect, and `row_normalized` makes them optional so the
//! ablation is one flag away. The GCN baselines use symmetric normalization
//! `D^{-1/2} A D^{-1/2}` instead.

use pup_tensor::CsrMatrix;

/// Row-normalizes `adj`, optionally adding self-loops first (eq. 5).
///
/// Rows whose degree is zero (possible only with `self_loops = false`) are
/// left as all-zero rows.
pub fn row_normalized(adj: &CsrMatrix, self_loops: bool) -> CsrMatrix {
    let mut m = with_self_loops(adj, self_loops);
    let factors = degree_factors(&m, |d| 1.0 / d);
    m.scale_rows(&factors);
    m
}

/// Symmetric normalization `D^{-1/2} (A [+ I]) D^{-1/2}` used by the GC-MC
/// and NGCF baselines.
pub fn sym_normalized(adj: &CsrMatrix, self_loops: bool) -> CsrMatrix {
    let mut m = with_self_loops(adj, self_loops);
    let factors = degree_factors(&m, |d| 1.0 / d.sqrt());
    m.scale_rows(&factors);
    m.scale_cols(&factors);
    m
}

/// `adj + I` when `self_loops`, else a copy of `adj`: the matrix the
/// normalizations scale in place.
fn with_self_loops(adj: &CsrMatrix, self_loops: bool) -> CsrMatrix {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    if self_loops {
        add_self_loops(adj)
    } else {
        adj.clone()
    }
}

/// `factor(degree)` per row, 0 for rows of zero degree.
fn degree_factors(m: &CsrMatrix, factor: impl Fn(f64) -> f64) -> Vec<f64> {
    m.row_sums().as_slice().iter().map(|&d| if d > 0.0 { factor(d) } else { 0.0 }).collect()
}

/// Adds `I` to a square sparse matrix (eq. 5's `A + MI`) in one linear
/// pass: each row's diagonal is merged into its sorted entries, summed
/// with an entry already stored there.
pub fn add_self_loops(adj: &CsrMatrix) -> CsrMatrix {
    let n = adj.rows();
    assert_eq!(n, adj.cols(), "adjacency must be square");
    let cap = adj.nnz() + n;
    let (mut indptr, mut indices, mut values) =
        (Vec::with_capacity(n + 1), Vec::with_capacity(cap), Vec::with_capacity(cap));
    indptr.push(0);
    for r in 0..n {
        let mut diagonal = false;
        for (c, v) in adj.row_entries(r) {
            if c >= r && !diagonal {
                diagonal = true;
                if c == r {
                    indices.push(r);
                    values.push(v + 1.0);
                    continue;
                }
                indices.push(r);
                values.push(1.0);
            }
            indices.push(c);
            values.push(v);
        }
        if !diagonal {
            indices.push(r);
            values.push(1.0);
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_csr_parts(n, n, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrMatrix {
        // 0 - 1 - 2 path.
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    }

    #[test]
    fn self_loops_put_ones_on_diagonal() {
        let a = add_self_loops(&path_graph());
        for i in 0..3 {
            assert_eq!(a.get(i, i), 1.0);
        }
        assert_eq!(a.nnz(), 7);
    }

    #[test]
    fn self_loops_merge_into_a_stored_diagonal() {
        let a = CsrMatrix::from_triplets(3, 3, &[(0, 2, 1.0), (1, 1, 0.5), (2, 0, 1.0)]);
        let looped = add_self_loops(&a);
        assert_eq!(looped.get(1, 1), 1.5);
        assert_eq!(looped.nnz(), 5);
        assert_eq!(looped.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 1.0)]);
        assert_eq!(looped.row_entries(2).collect::<Vec<_>>(), vec![(0, 1.0), (2, 1.0)]);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let a = row_normalized(&path_graph(), true);
        for r in 0..3 {
            let s: f64 = a.row_entries(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
        // Node 1 has degree 3 (two neighbors + self-loop): each weight 1/3.
        assert!((a.get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.get(1, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_normalized_without_loops_keeps_zero_rows() {
        let isolated = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let a = row_normalized(&isolated, false);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 1), 1.0);

        let lonely = CsrMatrix::from_triplets(2, 2, &[]);
        let z = row_normalized(&lonely, false);
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn sym_normalized_is_symmetric() {
        let a = sym_normalized(&path_graph(), true);
        for r in 0..3 {
            for (c, v) in a.row_entries(r) {
                assert!((a.get(c, r) - v).abs() < 1e-12, "asymmetry at ({r},{c})");
            }
        }
    }

    #[test]
    fn sym_normalized_matches_manual_degrees() {
        // Without self-loops: entry (0,1) = 1/sqrt(d0 * d1) = 1/sqrt(1*2).
        let a = sym_normalized(&path_graph(), false);
        assert!((a.get(0, 1) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        assert!((a.get(1, 2) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn normalization_preserves_sparsity_pattern_plus_diagonal() {
        let base = path_graph();
        let a = row_normalized(&base, true);
        assert_eq!(a.nnz(), base.nnz() + 3);
        let b = row_normalized(&base, false);
        assert_eq!(b.nnz(), base.nnz());
    }
}
