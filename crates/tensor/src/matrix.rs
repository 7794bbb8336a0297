//! Dense row-major `f64` matrices.
//!
//! This is the numeric workhorse of the reproduction: embeddings, propagated
//! node representations and gradients are all [`Matrix`] values. The type is
//! deliberately small — just the operations the PUP models need — and every
//! operation validates shapes eagerly so shape bugs surface at the call site
//! rather than as silent numeric corruption.

use std::fmt;

/// A dense, row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        // pup-audit: allow(hotpath-panic): fail-fast precondition: data length must match rows * cols
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        // pup-audit: allow(hotpath-panic): indexing API contract: callers iterate within shape()
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        // pup-audit: allow(hotpath-panic): indexing API contract: callers iterate within shape()
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        // pup-audit: allow(hotpath-panic): indexing API contract: callers iterate within shape()
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            // pup-audit: allow(hotpath-panic): in-bounds by the shape assert above
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                // pup-audit: allow(hotpath-panic): in-bounds by the shape assert above
                let a = self.data[i * self.cols + k];
                // pup-lint: allow(float-eq) — exact-zero sparsity skip, not a tolerance test
                if a == 0.0 {
                    continue;
                }
                // pup-audit: allow(hotpath-panic): in-bounds by the shape assert above
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul: {}x{} ^T * {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = rhs.row(r);
            for (k, &a) in a_row.iter().enumerate() {
                // pup-lint: allow(float-eq) — exact-zero sparsity skip, not a tolerance test
                if a == 0.0 {
                    continue;
                }
                // pup-audit: allow(hotpath-panic): in-bounds by the shape assert above
                let out_row = &mut out.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * rhs^T` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t: {}x{} * {}x{} ^T shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                // pup-audit: allow(hotpath-panic): in-bounds by the shape assert above
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place scaled accumulation `self += alpha * rhs`.
    pub fn add_scaled_assign(&mut self, alpha: f64, rhs: &Matrix) {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(self.shape(), rhs.shape(), "add_scaled_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f64) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Element-wise `f(self, rhs)` into a new matrix of the same shape.
    pub(crate) fn zip_with(&self, rhs: &Matrix, op: &str, f: impl Fn(f64, f64) -> f64) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "{op}: {}x{} vs {}x{} shape mismatch",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared Frobenius norm (sum of squared entries).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Per-row sum, returned as an `rows x 1` matrix.
    pub fn row_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Row-wise dot product of two matrices with identical shapes, returned
    /// as an `rows x 1` matrix. This is the decoder primitive: the dot product
    /// of the `r`-th embedding in `self` with the `r`-th embedding in `rhs`.
    pub fn rowwise_dot(&self, rhs: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(self.shape(), rhs.shape(), "rowwise_dot: shape mismatch");
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            // pup-audit: allow(hotpath-panic): rows match by the shape assert above
            out.data[r] = self.row(r).iter().zip(rhs.row(r)).map(|(&a, &b)| a * b).sum();
        }
        out
    }

    /// Gathers the given rows into a new matrix (embedding lookup).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            // pup-audit: allow(hotpath-panic): fail-fast bounds precondition on gather indices
            assert!(src < self.rows, "gather_rows: index {src} out of {} rows", self.rows);
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-adds rows of `src` into `self` at the given indices
    /// (the adjoint of [`Matrix::gather_rows`]).
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(indices.len(), src.rows(), "scatter_add_rows: index/row count mismatch");
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(self.cols, src.cols(), "scatter_add_rows: column mismatch");
        for (row, &dst) in indices.iter().enumerate() {
            // pup-audit: allow(hotpath-panic): fail-fast bounds precondition on scatter indices
            assert!(dst < self.rows, "scatter_add_rows: index {dst} out of {} rows", self.rows);
            let s = src.row(row);
            // pup-audit: allow(hotpath-panic): dst bounds asserted above
            let d = &mut self.data[dst * self.cols..(dst + 1) * self.cols];
            for (dv, &sv) in d.iter_mut().zip(s) {
                *dv += sv;
            }
        }
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(self.rows, rhs.rows, "concat_cols: row mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            // pup-audit: allow(hotpath-panic): out has self.cols + rhs.cols columns by construction
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            // pup-audit: allow(hotpath-panic): out has self.cols + rhs.cols columns by construction
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Extracts columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        // pup-audit: allow(hotpath-panic): fail-fast range precondition
        assert!(start <= end && end <= self.cols, "slice_cols: bad range {start}..{end}");
        let cols = end - start;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            // pup-audit: allow(hotpath-panic): start..end validated by the range assert above
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Rows per block of a [`RowBlocks`] table: one f64 accumulator each.
const LANES: usize = 16;

/// A row-blocked copy of a matrix for [`RowBlocks::dot_all`]: rows in
/// blocks of 16, each block stored dimension-major (entry `d` of its 16
/// rows side by side), the tail block zero-padded.
///
/// `dot_all` then scores 16 rows per pass over `x` with 16 independent
/// accumulators, where [`Matrix::matmul_t`] sums each row as one serial
/// chain. Every lane runs `matmul_t`'s own sum (`acc = 0.0; acc += x[d] *
/// row[d]` in `d` order), so each score is `matmul_t`'s, bit for bit.
#[derive(Clone)]
pub struct RowBlocks {
    rows: usize,
    cols: usize,
    /// Block `b`'s entry `d` of lane `l` at `(b * cols + d) * 16 + l`.
    data: Vec<f64>,
}

impl fmt::Debug for RowBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowBlocks({}x{})", self.rows, self.cols)
    }
}

impl RowBlocks {
    /// The blocked copy of `m`.
    pub fn new(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let stride = cols * LANES;
        let mut data = vec![0.0; rows.div_ceil(LANES) * stride];
        if cols > 0 {
            for (block, src) in data.chunks_exact_mut(stride).zip(m.data.chunks(stride)) {
                for (lane, row) in src.chunks_exact(cols).enumerate() {
                    for (slot, &v) in block.iter_mut().skip(lane).step_by(LANES).zip(row) {
                        *slot = v;
                    }
                }
            }
        }
        Self { rows, cols, data }
    }

    /// `x · row` for every row, in row order: the row of
    /// `Matrix::from_vec(1, cols, x).matmul_t(m)` for the matrix `m` this
    /// copy was built from, bit for bit.
    ///
    /// # Panics
    /// Panics when `x` is not `cols` long.
    pub fn dot_all(&self, x: &[f64]) -> Vec<f64> {
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition; scoring shapes are fixed by model config
        assert_eq!(x.len(), self.cols, "dot_all: {} entries for {} columns", x.len(), self.cols);
        if self.cols == 0 {
            return vec![0.0; self.rows];
        }
        let mut out = Vec::with_capacity(self.rows);
        for block in self.data.chunks_exact(self.cols * LANES) {
            let mut acc = [0.0; LANES];
            for (&xd, lanes) in x.iter().zip(block.as_chunks::<LANES>().0) {
                for (a, &v) in acc.iter_mut().zip(lanes) {
                    *a += xd * v;
                }
            }
            let take = (self.rows - out.len()).min(LANES);
            out.extend(acc.iter().take(take));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        assert_eq!(a.matmul(&Matrix::eye(4)), a);
        assert_eq!(Matrix::eye(4).matmul(&a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64 + 0.5);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 - 1.0);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64 + 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c) as f64 - 1.0);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    /// Entries drawn from `seed`: mostly ordinary values, with NaN, ±inf,
    /// −0.0 and subnormals mixed in at `special` (a share in 0..=1).
    fn specials(rows: usize, cols: usize, seed: u64, special: f64) -> Matrix {
        use rand::{Rng, SeedableRng};
        const ODD: [f64; 7] =
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 5e-324, -2.5e-310];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen::<f64>() < special {
                ODD[rng.gen_range(0..ODD.len())]
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
    }

    /// A score's bits, every NaN as one: where two NaNs meet in an add or
    /// a multiply, which one's sign and payload survive is the hardware's
    /// choice (IEEE 754 leaves it open), and a vectorised loop may order
    /// the operands differently from a scalar one.
    fn bits(v: &f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn dot_all_matches_matmul_t_bit_for_bit() {
        for cols in [0, 1, 7, 65] {
            for rows in [1, 15, 16, 17, 1_412] {
                for (seed, special) in [(1, 0.0), (2, 0.05), (3, 0.5)] {
                    let items = specials(rows, cols, seed * 1_000 + (rows * cols) as u64, special);
                    let blocks = RowBlocks::new(&items);
                    for u in 0..3 {
                        let user = specials(1, cols, seed + 10 * u, special);
                        let want: Vec<u64> =
                            user.matmul_t(&items).as_slice().iter().map(bits).collect();
                        let got: Vec<u64> = blocks.dot_all(user.row(0)).iter().map(bits).collect();
                        assert_eq!(got, want, "{rows} x {cols}, seed {seed}, user {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.sq_norm(), 30.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.row_sums().as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn rowwise_dot_matches_manual() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.rowwise_dot(&b).as_slice(), &[17.0, 53.0]);
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let base = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64);
        let idx = [4, 0, 2];
        let g = base.gather_rows(&idx);
        assert_eq!(g.row(0), base.row(4));
        assert_eq!(g.row(1), base.row(0));

        let mut acc = Matrix::zeros(5, 3);
        acc.scatter_add_rows(&idx, &g);
        assert_eq!(acc.row(4), base.row(4));
        assert_eq!(acc.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_accumulates_duplicates() {
        let mut acc = Matrix::zeros(2, 2);
        let src = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        acc.scatter_add_rows(&[0, 0, 1], &src);
        assert_eq!(acc.as_slice(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 + 9.0);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (3, 6));
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 6), b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64 * 0.25);
        assert_eq!(a.transpose().transpose(), a);
    }
}
