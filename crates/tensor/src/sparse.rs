//! Compressed sparse row (CSR) matrices.
//!
//! Heterogeneous-graph adjacency matrices are large and extremely sparse
//! (a few edges per node), so graph propagation `Â · E` is implemented as a
//! CSR-times-dense product. Values are `f64` to match [`crate::Matrix`].

use crate::matrix::Matrix;

/// An immutable sparse matrix in CSR layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` is the index range of row `r` in
    /// `indices`/`values`. Length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index per stored entry, sorted within each row.
    indices: Vec<usize>,
    /// Value per stored entry.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Entries whose summed value is zero
    /// are still stored (callers that care can filter beforehand); this keeps
    /// construction deterministic and cheap.
    ///
    /// # Panics
    /// Panics when a coordinate lies outside `rows x cols`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) outside {rows}x{cols}");
        }
        // Count row occupancy, then bucket-sort triplets by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for r in 0..rows {
            counts[r + 1] += counts[r];
        }
        let mut cursor = counts.clone();
        let mut col_buf = vec![0usize; triplets.len()];
        let mut val_buf = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let at = cursor[r];
            col_buf[at] = c;
            val_buf[at] = v;
            cursor[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        let mut row_entries: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            row_entries.clear();
            row_entries.extend(
                col_buf[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(val_buf[counts[r]..counts[r + 1]].iter().copied()),
            );
            row_entries.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row_entries.len() {
                let (c, mut v) = row_entries[i];
                let mut j = i + 1;
                while j < row_entries.len() && row_entries[j].0 == c {
                    v += row_entries[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Builds a CSR matrix from its three arrays, as produced by a caller
    /// that has already bucketed, sorted and merged its entries.
    ///
    /// # Panics
    /// Panics unless `indptr` has `rows + 1` non-decreasing offsets from 0
    /// to `indices.len() == values.len()`, and each row's column indices
    /// ascend strictly and lie below `cols`.
    pub fn from_csr_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr needs rows + 1 offsets");
        assert_eq!(indptr.first(), Some(&0), "indptr must start at 0");
        assert_eq!(indices.len(), values.len(), "one value per column index");
        assert_eq!(indptr.last(), Some(&indices.len()), "indptr must end at nnz");
        for (r, w) in indptr.windows(2).enumerate() {
            assert!(w[0] <= w[1], "indptr decreases at row {r}");
            let row = &indices[w[0]..w[1]];
            assert!(
                row.windows(2).all(|p| p[0] < p[1]) && row.last().is_none_or(|&c| c < cols),
                "row {r}: column indices must ascend strictly and lie below {cols}"
            );
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` entries of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Reads entry `(r, c)`, returning 0 when not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
        let lo = self.indptr[r];
        // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
        let hi = self.indptr[r + 1];
        // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
        match self.indices[lo..hi].binary_search(&c) {
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            Ok(at) => self.values[lo + at],
            Err(_) => 0.0,
        }
    }

    /// Sum of the stored values in each row, as an `rows x 1` dense matrix.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.set(r, 0, self.row_entries(r).map(|(_, v)| v).sum());
        }
        out
    }

    /// Scales each row `r` by `factors[r]` in place (used for D^-1
    /// normalization).
    pub fn scale_rows(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.rows, "scale_rows: factor count mismatch");
        for (r, &f) in factors.iter().enumerate() {
            for v in &mut self.values[self.indptr[r]..self.indptr[r + 1]] {
                *v *= f;
            }
        }
    }

    /// Scales each column `c` by `factors[c]` in place (used for symmetric
    /// normalization).
    pub fn scale_cols(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.cols, "scale_cols: factor count mismatch");
        for (v, &c) in self.values.iter_mut().zip(&self.indices) {
            *v *= factors[c];
        }
    }

    /// The rows `rows` of this matrix, in that order: row `k` of the result
    /// is row `rows[k]`, with the same column count. So row `k` of
    /// `select_rows(rows).spmm(x)` is row `rows[k]` of `spmm(x)`, bit for
    /// bit, and when `rows` ascends, `t_spmm` over the slice accumulates in
    /// the same order as over the whole matrix, skipping only the rows left
    /// out.
    ///
    /// # Panics
    /// Panics when a row index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut nnz = 0;
        for &r in rows {
            // pup-audit: allow(hotpath-panic): fail-fast bounds precondition on the selected rows
            assert!(r < self.rows, "select_rows: row {r} out of {} rows", self.rows);
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries
            nnz += self.indptr[r + 1] - self.indptr[r];
            indptr.push(nnz);
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            indices.extend_from_slice(&self.indices[lo..hi]);
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            values.extend_from_slice(&self.values[lo..hi]);
        }
        CsrMatrix { rows: rows.len(), cols: self.cols, indptr, indices, values }
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.spmm_rows_into(dense, 0, out.as_mut_slice());
        out
    }

    /// Rows `first..first + out.len() / d` of `self * dense`, written over
    /// `out` (row-major, `d = dense.cols()` values a row). Each row starts
    /// at zero and adds its entries in stored order, so any split of the
    /// rows into ranges reproduces [`Self::spmm`] bit for bit. Allocates
    /// nothing.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree, or when `out` is not a whole
    /// number of rows within `self`'s.
    pub fn spmm_rows_into(&self, dense: &Matrix, first: usize, out: &mut [f64]) {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: {}x{} * {}x{} shape mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let d = dense.cols();
        // pup-audit: allow(hotpath-panic): fail-fast precondition: the output range lies within the rows
        assert!(
            d == 0 || (out.len().is_multiple_of(d) && first + out.len() / d <= self.rows),
            "spmm: {} values from row {first} do not fit {} rows of {d}",
            out.len(),
            self.rows
        );
        if d == 0 {
            return;
        }
        for (r, dst) in (first..).zip(out.chunks_exact_mut(d)) {
            dst.fill(0.0);
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            for e in self.indptr[r]..self.indptr[r + 1] {
                // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
                let c = self.indices[e];
                // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
                let v = self.values[e];
                for (o, &s) in dst.iter_mut().zip(dense.row(c)) {
                    *o += v * s;
                }
            }
        }
    }

    /// `f` of every entry of `self * dense`, with the rows split into
    /// `blocks` contiguous ranges of near-equal length, each written into
    /// its own slice of the one output: the first range on the calling
    /// thread, every other on a scoped thread of its own. A range runs
    /// [`Self::spmm_rows_into`] and then `f` in place, and allocates
    /// nothing, so the result is `self.spmm(dense).map(f)` bit for bit,
    /// whatever `blocks` is. A range whose thread cannot be started runs on
    /// the calling thread afterwards.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn spmm_map_blocks(
        &self,
        dense: &Matrix,
        blocks: usize,
        f: impl Fn(f64) -> f64 + Sync,
    ) -> Matrix {
        let d = dense.cols();
        let mut out = Matrix::zeros(self.rows, d);
        let per = self.rows.div_ceil(blocks.max(1)).max(1);
        let run = |first: usize, block: &mut [f64]| {
            self.spmm_rows_into(dense, first, block);
            for x in block.iter_mut() {
                *x = f(*x);
            }
        };
        let chunk = (per * d).max(1);
        let mut missed = Vec::new();
        std::thread::scope(|s| {
            let mut ranges = out.as_mut_slice().chunks_mut(chunk).enumerate();
            let head = ranges.next();
            for (b, block) in ranges {
                let run = &run;
                if std::thread::Builder::new().spawn_scoped(s, move || run(b * per, block)).is_err()
                {
                    missed.push(b);
                }
            }
            run(0, head.map_or(&mut [], |(_, block)| block));
        });
        for b in missed {
            let end = ((b + 1) * chunk).min(out.as_slice().len());
            run(b * per, &mut out.as_mut_slice()[b * chunk..end]);
        }
        out
    }

    /// Transposed sparse-dense product `self^T * dense`, used for the
    /// backward pass of [`CsrMatrix::spmm`] without materializing `self^T`.
    pub fn t_spmm(&self, dense: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition
        assert_eq!(
            self.rows,
            dense.rows(),
            "t_spmm: ({}x{})^T * {}x{} shape mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let d = dense.cols();
        let mut out = Matrix::zeros(self.cols, d);
        for r in 0..self.rows {
            let src = dense.row(r);
            // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
            for e in self.indptr[r]..self.indptr[r + 1] {
                // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
                let c = self.indices[e];
                // pup-audit: allow(hotpath-panic): CSR invariant: indptr has rows + 1 entries; indices/values are indexed by indptr ranges
                let v = self.values[e];
                // pup-audit: allow(hotpath-panic): column ids are < cols by CSR construction
                let dst = &mut out.as_mut_slice()[c * d..(c + 1) * d];
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
        out
    }

    /// Materializes an explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Converts to a dense matrix (test/debug helper; avoid on large graphs).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[(0, 1, 2.0), (0, 3, -1.0), (1, 0, 5.0), (2, 2, 1.5), (2, 0, 0.5)],
        )
    }

    #[test]
    fn triplet_construction_and_lookup() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 0), 0.5);
        let row0: Vec<_> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(1, 2.0), (3, -1.0)]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn csr_parts_round_trip_through_triplets() {
        let s = sample();
        let parts = CsrMatrix::from_csr_parts(
            3,
            4,
            vec![0, 2, 3, 5],
            vec![1, 3, 0, 0, 2],
            vec![2.0, -1.0, 5.0, 0.5, 1.5],
        );
        assert_eq!(parts, s);
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn csr_parts_reject_unsorted_rows() {
        let _ = CsrMatrix::from_csr_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_triplet_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let s = sample();
        let d = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 - 2.0);
        assert_eq!(s.spmm(&d), s.to_dense().matmul(&d));
    }

    #[test]
    fn t_spmm_matches_dense_transpose_matmul() {
        let s = sample();
        let d = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.5 + 1.0);
        assert_eq!(s.t_spmm(&d), s.to_dense().transpose().matmul(&d));
    }

    #[test]
    fn transpose_roundtrip() {
        let s = sample();
        assert_eq!(s.transpose().transpose(), s);
        assert_eq!(s.transpose().to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn row_and_col_scaling() {
        let s = sample();
        let mut rs = s.clone();
        rs.scale_rows(&[2.0, 0.0, 1.0]);
        assert_eq!(rs.get(0, 1), 4.0);
        assert_eq!(rs.get(1, 0), 0.0);
        let mut cs = s;
        cs.scale_cols(&[10.0, 1.0, 1.0, 1.0]);
        assert_eq!(cs.get(1, 0), 50.0);
        assert_eq!(cs.get(0, 1), 2.0);
    }

    #[test]
    fn row_sums_match_dense() {
        let s = sample();
        assert_eq!(s.row_sums().as_slice(), s.to_dense().row_sums().as_slice());
    }

    #[test]
    fn select_rows_picks_rows_in_order() {
        let s = sample();
        let d = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64 * 0.7 - 1.1);
        let full = s.spmm(&d);
        for rows in [&[][..], &[1], &[0], &[2], &[0, 2], &[0, 1, 2], &[2, 0, 2]] {
            let sub = s.select_rows(rows);
            assert_eq!((sub.rows(), sub.cols()), (rows.len(), s.cols()));
            let out = sub.spmm(&d);
            for (k, &r) in rows.iter().enumerate() {
                assert_eq!(
                    sub.row_entries(k).collect::<Vec<_>>(),
                    s.row_entries(r).collect::<Vec<_>>()
                );
                assert_eq!(out.row(k), full.row(r));
            }
        }
    }

    #[test]
    fn t_spmm_over_ascending_rows_skips_only_zero_rows() {
        let s = sample();
        // Gradient rows outside the selection are zero, as after a gather.
        let g = Matrix::from_fn(3, 2, |r, c| if r == 1 { 0.0 } else { (r + c) as f64 * 0.3 - 0.4 });
        let rows = [0, 2];
        let g_rows = g.gather_rows(&rows);
        assert_eq!(s.select_rows(&rows).t_spmm(&g_rows), s.t_spmm(&g));
        assert_eq!(s.select_rows(&[]).t_spmm(&Matrix::zeros(0, 2)), Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "out of 3 rows")]
    fn select_rows_rejects_out_of_range_rows() {
        let _ = sample().select_rows(&[3]);
    }

    /// A `rows x 5` matrix with 0 to 3 entries a row (so some rows are
    /// empty) and values that round differently in every order.
    fn uneven(rows: usize) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = (0..rows)
            .flat_map(|r| {
                (0..(r * 7 + 2) % 4)
                    .map(move |k| (r, (r * 3 + k * 2) % 5, 0.1 * (r + k) as f64 + 1.0 / 3.0))
            })
            .collect();
        CsrMatrix::from_triplets(rows, 5, &triplets)
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_split_of_the_rows_concatenates_to_spmm() {
        let d = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f64 * 0.7).sin() * 1e3);
        for rows in [1, 2, 3, 5, 7] {
            let s = uneven(rows);
            let want = s.spmm(&d);
            // Each bit of `cuts` says whether a range ends after that row.
            for cuts in 0u32..1 << (rows - 1) {
                let mut got = vec![f64::NAN; rows * 3];
                let mut first = 0;
                for r in 0..rows {
                    if r + 1 == rows || cuts & (1 << r) != 0 {
                        s.spmm_rows_into(&d, first, &mut got[first * 3..(r + 1) * 3]);
                        first = r + 1;
                    }
                }
                assert_eq!(bits(&got), bits(want.as_slice()), "{rows} rows, cuts {cuts:b}");
            }
            for blocks in 0..=rows + 2 {
                let got = s.spmm_map_blocks(&d, blocks, f64::tanh);
                let want = want.map(f64::tanh);
                assert_eq!(got.shape(), want.shape());
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "{rows} rows, {blocks} blocks"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_row_range_past_the_last_row_is_refused() {
        let d = Matrix::ones(5, 2);
        uneven(3).spmm_rows_into(&d, 2, &mut [0.0; 4]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, &[(1, 1, 1.0)]);
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(2).count(), 0);
        let d = Matrix::ones(3, 2);
        let out = m.spmm(&d);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(1), &[1.0, 1.0]);
    }
}
