//! Differentiable operations on [`Var`] nodes.
//!
//! Each op computes its forward value eagerly and registers a backward
//! closure on the tape. The op set is exactly what the PUP reproduction
//! needs: embedding lookups ([`gather_rows`]), graph propagation ([`spmm`]),
//! dense layers ([`matmul`]), activations, dot-product decoders
//! ([`rowwise_dot`], and eq. 7's pairwise decoder over table rows,
//! [`pairwise_rows`]) and loss reductions.

use std::sync::Arc;

use crate::autograd::Var;
use crate::matrix::Matrix;
use crate::profile;
use crate::sparse::CsrMatrix;

/// Every op name this module records on the tape, in definition order.
///
/// Derived ops that delegate (`relu` → `leaky_relu`, `mean` → `scale`∘`sum`,
/// `l2_penalty` → `sum`∘`square`) do not record their own names and are
/// deliberately absent. The graph auditor cross-checks this list against the
/// op names scraped from this file's `Var::from_op` call sites and against
/// the gradcheck sweep registry, so adding an op without extending all three
/// fails the `audit-graph` gate.
pub const BUILTIN_OPS: &[&str] = &[
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "spmm",
    "tanh",
    "sigmoid",
    "leaky_relu",
    "square",
    "softplus",
    "gather_rows",
    "rowwise_dot",
    "pairwise_rows",
    "row_sums",
    "sum",
    "concat_cols",
    "concat_rows",
    "slice_rows",
    "slice_cols",
    "add_row_broadcast",
    "dropout",
];

/// Element-wise sum `a + b`.
pub fn add(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("add");
    let value = a.value().add(&b.value());
    Var::from_op(
        "add",
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(g);
        }),
    )
}

/// Element-wise difference `a - b`.
pub fn sub(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("sub");
    let value = a.value().sub(&b.value());
    Var::from_op(
        "sub",
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&g.scale(-1.0));
        }),
    )
}

/// Element-wise (Hadamard) product `a ⊙ b`.
pub fn mul(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("mul");
    let value = a.value().hadamard(&b.value());
    Var::from_op(
        "mul",
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // Materialize both gradients before accumulating: the parents may
            // alias (e.g. `mul(x, x)`), and `accumulate_grad` needs a
            // mutable borrow of the node the value `Ref` would still hold.
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let ga = g.hadamard(&parents[1].value());
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let gb = g.hadamard(&parents[0].value());
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&ga);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&gb);
        }),
    )
}

/// Scalar multiple `alpha * a`.
pub fn scale(a: &Var, alpha: f64) -> Var {
    let _t = profile::fwd("scale");
    let value = a.value().scale(alpha);
    Var::from_op(
        "scale",
        value,
        vec![a.clone()],
        // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
        Box::new(move |g, parents| parents[0].accumulate_grad(&g.scale(alpha))),
    )
}

/// Dense matrix product `a * b`.
pub fn matmul(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("matmul");
    let value = a.value().matmul(&b.value());
    Var::from_op(
        "matmul",
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // dA = g * B^T ; dB = A^T * g. Materialized first: parents may
            // alias (`matmul(x, x)`), see `mul`.
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let ga = g.matmul_t(&parents[1].value());
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let gb = parents[0].value().t_matmul(g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&ga);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&gb);
        }),
    )
}

/// Sparse-dense product `A * x` with a constant sparse `A` (graph
/// propagation `Â · E`). The gradient flows only into `x`: `dx = A^T g`.
pub fn spmm(a: &Arc<CsrMatrix>, x: &Var) -> Var {
    let _t = profile::fwd("spmm");
    let value = a.spmm(&x.value());
    let a = Arc::clone(a);
    Var::from_op(
        "spmm",
        value,
        vec![x.clone()],
        // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
        Box::new(move |g, parents| parents[0].accumulate_owned_grad(a.t_spmm(g))),
    )
}

/// Hyperbolic tangent activation.
pub fn tanh(a: &Var) -> Var {
    let _t = profile::fwd("tanh");
    let value = a.value().map(f64::tanh);
    let saved = value.clone();
    Var::from_op(
        "tanh",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            // d tanh(x) = 1 - tanh(x)^2
            let grad = g.zip_with(&saved, "tanh", |g, t| g * (1.0 - t * t));
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_owned_grad(grad);
        }),
    )
}

/// Logistic sigmoid activation.
pub fn sigmoid(a: &Var) -> Var {
    let _t = profile::fwd("sigmoid");
    let value = a.value().map(stable_sigmoid);
    let saved = value.clone();
    Var::from_op(
        "sigmoid",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let local = saved.map(|s| s * (1.0 - s));
            parents[0].accumulate_grad(&g.hadamard(&local));
        }),
    )
}

/// Rectified linear unit.
pub fn relu(a: &Var) -> Var {
    leaky_relu(a, 0.0)
}

/// Leaky ReLU with the given negative-side slope (NGCF uses 0.2).
pub fn leaky_relu(a: &Var, slope: f64) -> Var {
    let _t = profile::fwd("leaky_relu");
    let input = a.value_clone();
    let value = input.map(|v| if v > 0.0 { v } else { slope * v });
    Var::from_op(
        "leaky_relu",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let local = input.map(|v| if v > 0.0 { 1.0 } else { slope });
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&g.hadamard(&local));
        }),
    )
}

/// Element-wise square `a ⊙ a` (cheaper than `mul(a, a)`).
pub fn square(a: &Var) -> Var {
    let _t = profile::fwd("square");
    let value = a.value().map(|v| v * v);
    Var::from_op(
        "square",
        value,
        vec![a.clone()],
        Box::new(|g, parents| {
            let local = parents[0].value().scale(2.0);
            parents[0].accumulate_grad(&g.hadamard(&local));
        }),
    )
}

/// Numerically stable softplus `ln(1 + e^x)` applied element-wise.
///
/// `mean(softplus(-(s_pos - s_neg)))` is exactly the BPR objective of the
/// paper's eq. (4) (with the σ-difference typo corrected; see DESIGN.md).
pub fn softplus(a: &Var) -> Var {
    let _t = profile::fwd("softplus");
    let input = a.value_clone();
    let value = input.map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p());
    Var::from_op(
        "softplus",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let local = input.map(stable_sigmoid);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&g.hadamard(&local));
        }),
    )
}

/// Gathers rows of an embedding table (lookup). Backward scatter-adds.
pub fn gather_rows(a: &Var, indices: &[usize]) -> Var {
    let _t = profile::fwd("gather_rows");
    let value = a.value().gather_rows(indices);
    let indices: Arc<[usize]> = indices.into();
    let (rows, cols) = a.shape();
    Var::from_op(
        "gather_rows",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let mut acc = Matrix::zeros(rows, cols);
            acc.scatter_add_rows(&indices, g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_owned_grad(acc);
        }),
    )
}

/// Row-wise dot product of equally shaped matrices, producing `rows x 1`
/// scores (the FM / dot-product decoder primitive).
pub fn rowwise_dot(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("rowwise_dot");
    let value = a.value().rowwise_dot(&b.value());
    Var::from_op(
        "rowwise_dot",
        value,
        vec![a.clone(), b.clone()],
        Box::new(|g, parents| {
            // g is rows x 1; broadcast over columns.
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let ga = broadcast_col_scale(&parents[1].value(), g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let gb = broadcast_col_scale(&parents[0].value(), g);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_owned_grad(ga);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_owned_grad(gb);
        }),
    )
}

/// `m` with row `r` scaled by `col[r]`, each entry `m[r][c] * col[r]`.
fn broadcast_col_scale(m: &Matrix, col: &Matrix) -> Matrix {
    debug_assert_eq!(col.cols(), 1);
    debug_assert_eq!(col.rows(), m.rows());
    let mut data = Vec::with_capacity(m.len());
    for (row, &s) in m.as_slice().chunks(m.cols().max(1)).zip(col.as_slice()) {
        data.extend(row.iter().map(|&v| v * s));
    }
    Matrix::from_vec(m.rows(), m.cols(), data)
}

/// Eq. 7's pairwise sum over three rows of `src` per batch row: row `b`
/// of the `batch x 1` result is `f_0·f_1 + f_0·f_2 + f_1·f_2` for the
/// features `f_k = src[lists[k][b]]`, computed as
/// `½ (‖f_0 + f_1 + f_2‖² − Σ_k ‖f_k‖²)`. The op keeps `lists` for its
/// backward pass.
///
/// One op for what [`gather_rows`] of each list followed by the op chain
/// `add`, `rowwise_dot`, `sub`, `scale` computes (`pup_models`'
/// `pairwise_interactions`), with each value and gradient entry built by
/// the same operations in the same order, so both agree bit for bit:
/// - forward: `t = (f_0 + f_1) + f_2`, `ss = Σ t·t`,
///   `sq = (Σ f_0² + Σ f_1²) + Σ f_2²`, and the result `(ss − sq)·0.5`;
/// - backward: with `h = g·0.5` and `m = h·(−1)`, a feature's row gradient
///   is `(f·m + f·m) + (t·h + t·h)`; per list, each distinct row's
///   gradients sum in batch order from `0.0`, and each such sum is added
///   into `src`'s gradient (zeros on first use). Rows no list names are
///   left alone: the chain's `+ 0.0` there changes nothing, since a sum
///   that starts from `0.0` is never `−0.0`.
///
/// The gradient is the chain's bit for bit when no row appears in two
/// lists (PUP's lists name disjoint node types); otherwise it is exact up
/// to the order the lists' sums meet in.
///
/// # Panics
/// Panics when the lists differ in length or an index is outside `src`'s
/// rows.
pub fn pairwise_rows(src: &Var, lists: [Vec<usize>; 3]) -> Var {
    let _t = profile::fwd("pairwise_rows");
    let [first, ..] = &lists;
    let (n_rows, batch) = (src.shape().0, first.len());
    // pup-audit: allow(hotpath-panic): fail-fast shape precondition on the index lists
    assert!(
        lists.iter().all(|l| l.len() == batch && l.iter().all(|&r| r < n_rows)),
        "pairwise_rows: every list needs {batch} indices into {n_rows} rows"
    );
    let value = {
        let table = src.value();
        let out = (0..batch)
            .map(|b| {
                let [f0, f1, f2] = features(&table, &lists, b);
                let (mut ss, mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0, 0.0);
                // Each sum runs in column order from `0.0`, as
                // `Matrix::rowwise_dot` sums (its start, `−0.0`, gives the
                // same sum of squares); in one pass their chains overlap.
                for ((&x0, &x1), &x2) in f0.iter().zip(f1).zip(f2) {
                    let t = (x0 + x1) + x2;
                    ss += t * t;
                    s0 += x0 * x0;
                    s1 += x1 * x1;
                    s2 += x2 * x2;
                }
                (ss - ((s0 + s1) + s2)) * 0.5
            })
            .collect();
        Matrix::from_vec(batch, 1, out)
    };
    Var::from_op(
        "pairwise_rows",
        value,
        vec![src.clone()],
        Box::new(move |g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad_with(|table, grad| {
                pairwise_rows_backward(table, &lists, g.as_slice(), grad);
            });
        }),
    )
}

/// The three feature rows of batch row `b`.
fn features<'a>(table: &'a Matrix, lists: &[Vec<usize>; 3], b: usize) -> [&'a [f64]; 3] {
    // pup-audit: allow(hotpath-panic): b < batch, and every list holds batch rows of the table
    lists.each_ref().map(|l| table.row(l[b]))
}

/// [`pairwise_rows`]' backward: adds each list's per-row gradient sums
/// into `grad`. The rows of one list are visited by first appearance,
/// each row's batch positions in order through a linked list
/// (`first[row]`, then `next[b]`), so no batch-sized gradient is stored.
fn pairwise_rows_backward(table: &Matrix, lists: &[Vec<usize>; 3], g: &[f64], grad: &mut Matrix) {
    const NONE: usize = usize::MAX;
    let mut first = vec![NONE; table.rows()];
    let mut next = vec![NONE; g.len()];
    let mut partial = vec![0.0; table.cols()];
    for list in lists {
        for (b, &r) in list.iter().enumerate().rev() {
            // pup-audit: allow(hotpath-panic): rows were bounds-checked by the forward pass; b < batch
            (next[b], first[r]) = (first[r], b);
        }
        for &r in list {
            // pup-audit: allow(hotpath-panic): rows were bounds-checked by the forward pass
            let mut b = std::mem::replace(&mut first[r], NONE);
            if b == NONE {
                continue; // an earlier position of this row took it
            }
            partial.fill(0.0);
            let own = table.row(r);
            while b != NONE {
                let [f0, f1, f2] = features(table, lists, b);
                // pup-audit: allow(hotpath-panic): b < batch, and g holds one entry per batch row
                let h = g[b] * 0.5;
                // `h · (−1)` for any h but NaN; the tape's gradients are finite.
                let m = -h;
                for ((((p, &f), &x0), &x1), &x2) in
                    partial.iter_mut().zip(own).zip(f0).zip(f1).zip(f2)
                {
                    let t = (x0 + x1) + x2;
                    *p += (f * m + f * m) + (t * h + t * h);
                }
                // pup-audit: allow(hotpath-panic): b < batch
                b = next[b];
            }
            for (acc, &p) in grad.row_mut(r).iter_mut().zip(&partial) {
                *acc += p;
            }
        }
    }
}

/// Per-row sum, producing a `rows x 1` matrix.
pub fn row_sums(a: &Var) -> Var {
    let _t = profile::fwd("row_sums");
    let value = a.value().row_sums();
    let cols = a.shape().1;
    Var::from_op(
        "row_sums",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let (rows, _) = parents[0].shape();
            let mut acc = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let s = g.get(r, 0);
                for v in acc.row_mut(r) {
                    *v = s;
                }
            }
            parents[0].accumulate_grad(&acc);
        }),
    )
}

/// Sum over all entries, producing a scalar (1x1).
pub fn sum(a: &Var) -> Var {
    let _t = profile::fwd("sum");
    let value = Matrix::from_vec(1, 1, vec![a.value().sum()]);
    Var::from_op(
        "sum",
        value,
        vec![a.clone()],
        Box::new(|g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            let (rows, cols) = parents[0].shape();
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&Matrix::full(rows, cols, g.get(0, 0)));
        }),
    )
}

/// Mean over all entries, producing a scalar (1x1).
pub fn mean(a: &Var) -> Var {
    let n = {
        let v = a.value();
        (v.rows() * v.cols()) as f64
    };
    scale(&sum(a), 1.0 / n.max(1.0))
}

/// Horizontal concatenation `[a | b]`.
pub fn concat_cols(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("concat_cols");
    let value = a.value().concat_cols(&b.value());
    let a_cols = a.shape().1;
    let total = value.cols();
    Var::from_op(
        "concat_cols",
        value,
        vec![a.clone(), b.clone()],
        Box::new(move |g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&g.slice_cols(0, a_cols));
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&g.slice_cols(a_cols, total));
        }),
    )
}

/// Vertical concatenation `[a ; b]` (stacks rows). Used to assemble the
/// full node-embedding matrix from per-family tables.
pub fn concat_rows(a: &Var, b: &Var) -> Var {
    let _t = profile::fwd("concat_rows");
    let value = {
        let av = a.value();
        let bv = b.value();
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition
        assert_eq!(av.cols(), bv.cols(), "concat_rows: column mismatch");
        let mut data = Vec::with_capacity((av.rows() + bv.rows()) * av.cols());
        data.extend_from_slice(av.as_slice());
        data.extend_from_slice(bv.as_slice());
        Matrix::from_vec(av.rows() + bv.rows(), av.cols(), data)
    };
    let a_rows = a.shape().0;
    Var::from_op(
        "concat_rows",
        value,
        vec![a.clone(), b.clone()],
        Box::new(move |g, parents| {
            let cols = g.cols();
            // pup-audit: allow(hotpath-panic): g has a_rows + b_rows rows by the forward concat shape
            let top = Matrix::from_vec(a_rows, cols, g.as_slice()[..a_rows * cols].to_vec());
            let bottom =
                // pup-audit: allow(hotpath-panic): g has a_rows + b_rows rows by the forward concat shape
                Matrix::from_vec(g.rows() - a_rows, cols, g.as_slice()[a_rows * cols..].to_vec());
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(&top);
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&bottom);
        }),
    )
}

/// Extracts rows `[start, end)`.
pub fn slice_rows(a: &Var, start: usize, end: usize) -> Var {
    let _t = profile::fwd("slice_rows");
    let (rows, cols) = a.shape();
    assert!(start <= end && end <= rows, "slice_rows: bad range {start}..{end}");
    let value = {
        let av = a.value();
        Matrix::from_vec(end - start, cols, av.as_slice()[start * cols..end * cols].to_vec())
    };
    Var::from_op(
        "slice_rows",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let mut acc = Matrix::zeros(rows, cols);
            acc.as_mut_slice()[start * cols..end * cols].copy_from_slice(g.as_slice());
            parents[0].accumulate_grad(&acc);
        }),
    )
}

/// Extracts columns `[start, end)`.
pub fn slice_cols(a: &Var, start: usize, end: usize) -> Var {
    let _t = profile::fwd("slice_cols");
    let value = a.value().slice_cols(start, end);
    let cols = a.shape().1;
    Var::from_op(
        "slice_cols",
        value,
        vec![a.clone()],
        Box::new(move |g, parents| {
            let rows = parents[0].shape().0;
            let mut acc = Matrix::zeros(rows, cols);
            for r in 0..rows {
                acc.row_mut(r)[start..end].copy_from_slice(g.row(r));
            }
            parents[0].accumulate_grad(&acc);
        }),
    )
}

/// Adds a row vector `bias` (1 x cols) to every row of `a`.
pub fn add_row_broadcast(a: &Var, bias: &Var) -> Var {
    let _t = profile::fwd("add_row_broadcast");
    {
        let (_, ac) = a.shape();
        let (br, bc) = bias.shape();
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition on the broadcast bias
        assert_eq!((br, bc), (1, ac), "add_row_broadcast: bias must be 1x{ac}");
    }
    let mut value = a.value_clone();
    {
        let b = bias.value();
        for r in 0..value.rows() {
            for (v, &bv) in value.row_mut(r).iter_mut().zip(b.row(0)) {
                *v += bv;
            }
        }
    }
    Var::from_op(
        "add_row_broadcast",
        value,
        vec![a.clone(), bias.clone()],
        Box::new(|g, parents| {
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[0].accumulate_grad(g);
            // Bias gradient: column sums of g.
            let mut acc = Matrix::zeros(1, g.cols());
            for r in 0..g.rows() {
                for (a, &gv) in acc.row_mut(0).iter_mut().zip(g.row(r)) {
                    *a += gv;
                }
            }
            // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
            parents[1].accumulate_grad(&acc);
        }),
    )
}

/// Inverted dropout with keep-probability `1 - p`, using a caller-provided
/// mask source so training is reproducible. When `p == 0` this is a no-op.
///
/// The paper (§IV-C) applies dropout at the feature level on the output node
/// representations; models call this on propagated embeddings during
/// training only.
pub fn dropout(a: &Var, p: f64, rng: &mut impl rand::Rng) -> Var {
    let rows = a.shape().0;
    dropout_mask_rows(a, p, rng, rows, None)
}

/// [`dropout`] for a matrix that holds only some rows of a `mask_rows`-row
/// one: row `k` of `a` is row `rows[k]` (ascending, distinct) of the whole.
///
/// The mask is drawn for all `mask_rows` rows, in the same order and from
/// the same stream as `dropout` on the whole matrix, and only `rows`' mask
/// rows are applied. So row `k` of the result, and of the gradient, equals
/// row `rows[k]` of whole-matrix dropout under the same `rng` state, and
/// the stream advances by the same amount.
///
/// # Panics
/// Panics when `rows` does not match `a`'s row count, does not ascend, or
/// reaches past `mask_rows`.
pub fn dropout_rows(
    a: &Var,
    p: f64,
    rng: &mut impl rand::Rng,
    mask_rows: usize,
    rows: &[usize],
) -> Var {
    // pup-audit: allow(hotpath-panic): fail-fast precondition: one mask row per input row
    assert_eq!(
        rows.len(),
        a.shape().0,
        "dropout_rows: {} rows for a {}-row input",
        rows.len(),
        a.shape().0
    );
    // pup-audit: allow(hotpath-panic): fail-fast precondition on the kept rows
    assert!(
        rows.is_sorted_by(|a, b| a < b) && rows.last().is_none_or(|&r| r < mask_rows),
        "dropout_rows: rows must ascend within 0..{mask_rows}"
    );
    dropout_mask_rows(a, p, rng, mask_rows, Some(rows))
}

/// The one dropout op: draws a `mask_rows × cols` mask row by row and
/// applies the rows `kept` names (every row when `None`).
fn dropout_mask_rows(
    a: &Var,
    p: f64,
    rng: &mut impl rand::Rng,
    mask_rows: usize,
    kept: Option<&[usize]>,
) -> Var {
    // pup-audit: allow(hotpath-panic): fail-fast precondition on the dropout probability
    assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
    // pup-lint: allow(float-eq) — p == 0.0 is an exact "dropout disabled" fast path
    if p == 0.0 {
        return a.clone();
    }
    let _t = profile::fwd("dropout");
    let keep = 1.0 - p;
    let (rows, cols) = a.shape();
    let mut draw = || if rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 };
    let mut mask = Matrix::zeros(rows, cols);
    let mut next = 0;
    for r in 0..mask_rows {
        if kept.is_none_or(|kept| kept.get(next) == Some(&r)) {
            mask.row_mut(next).iter_mut().for_each(|m| *m = draw());
            next += 1;
        } else {
            // A row left out still takes its draws, so the stream stays put.
            for _ in 0..cols {
                draw();
            }
        }
    }
    let value = a.value().hadamard(&mask);
    Var::from_op(
        "dropout",
        value,
        vec![a.clone()],
        // pup-audit: allow(hotpath-panic): backward closure: from_op passes exactly the parents captured at construction
        Box::new(move |g, parents| parents[0].accumulate_owned_grad(g.hadamard(&mask))),
    )
}

/// Squared L2 penalty `sum(a^2)` as a scalar, for explicit loss-side
/// regularization (eq. 4's `λ‖Θ‖²` term).
pub fn l2_penalty(a: &Var) -> Var {
    sum(&square(a))
}

fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `d loss / d param`.
    fn gradcheck(param: &Var, build_loss: impl Fn(&Var) -> Var, tol: f64) {
        let loss = build_loss(param);
        loss.backward();
        let analytic = param.grad().expect("param should receive grad");
        let h = 1e-5;
        let (rows, cols) = param.shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = param.value().get(r, c);
                param.update_value(|m| m.set(r, c, orig + h));
                let up = build_loss(param).scalar();
                param.update_value(|m| m.set(r, c, orig - h));
                let down = build_loss(param).scalar();
                param.update_value(|m| m.set(r, c, orig));
                let numeric = (up - down) / (2.0 * h);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic={a}, numeric={numeric}"
                );
            }
        }
    }

    fn rand_param(rows: usize, cols: usize, seed: u64) -> Var {
        let mut rng = StdRng::seed_from_u64(seed);
        Var::param(Matrix::from_fn(rows, cols, |_, _| rand::Rng::gen_range(&mut rng, -1.0..1.0)))
    }

    #[test]
    fn gradcheck_matmul() {
        let b = Var::constant(Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.3));
        gradcheck(&rand_param(2, 3, 1), |p| sum(&matmul(p, &b)), 1e-6);
    }

    #[test]
    fn gradcheck_matmul_rhs() {
        let a = Var::constant(Matrix::from_fn(2, 3, |r, c| (r + c) as f64 * 0.5 - 0.4));
        gradcheck(&rand_param(3, 2, 2), |p| sum(&square(&matmul(&a, p))), 1e-5);
    }

    #[test]
    fn gradcheck_tanh_sigmoid_softplus() {
        gradcheck(&rand_param(2, 3, 3), |p| sum(&tanh(p)), 1e-6);
        gradcheck(&rand_param(2, 3, 4), |p| sum(&sigmoid(p)), 1e-6);
        gradcheck(&rand_param(2, 3, 5), |p| sum(&softplus(p)), 1e-6);
    }

    #[test]
    fn gradcheck_leaky_relu() {
        // Keep values away from the kink.
        let p = Var::param(Matrix::from_vec(1, 4, vec![0.5, -0.5, 1.5, -2.0]));
        gradcheck(&p, |p| sum(&leaky_relu(p, 0.2)), 1e-6);
    }

    #[test]
    fn gradcheck_spmm() {
        let a = Arc::new(CsrMatrix::from_triplets(
            3,
            4,
            &[(0, 0, 0.5), (0, 2, 0.5), (1, 1, 1.0), (2, 3, 0.25), (2, 0, 0.75)],
        ));
        gradcheck(&rand_param(4, 2, 6), |p| sum(&square(&spmm(&a, p))), 1e-5);
    }

    #[test]
    fn gradcheck_gather_rows() {
        gradcheck(&rand_param(5, 2, 7), |p| sum(&square(&gather_rows(p, &[0, 3, 3, 4]))), 1e-5);
    }

    #[test]
    fn gradcheck_rowwise_dot() {
        let b = Var::constant(Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f64).sin()));
        gradcheck(&rand_param(3, 4, 8), |p| sum(&rowwise_dot(p, &b)), 1e-6);
        // Both sides the same var (used by the eq.7 decoder trick).
        gradcheck(&rand_param(3, 4, 9), |p| sum(&rowwise_dot(p, p)), 1e-5);
    }

    #[test]
    fn gradcheck_row_sums_and_mean() {
        gradcheck(&rand_param(3, 4, 10), |p| sum(&square(&row_sums(p))), 1e-5);
        gradcheck(&rand_param(3, 4, 11), |p| mean(&square(p)), 1e-6);
    }

    #[test]
    fn gradcheck_concat_slice_broadcast() {
        let b = Var::constant(Matrix::from_fn(3, 2, |r, c| (r + c) as f64));
        gradcheck(&rand_param(3, 3, 12), |p| sum(&square(&concat_cols(p, &b))), 1e-5);
        gradcheck(&rand_param(3, 4, 13), |p| sum(&square(&slice_cols(p, 1, 3))), 1e-5);
        let bias = Var::constant(Matrix::from_fn(1, 3, |_, c| c as f64 * 0.1));
        gradcheck(&rand_param(4, 3, 14), |p| sum(&square(&add_row_broadcast(p, &bias))), 1e-5);
        gradcheck(
            &rand_param(1, 3, 15),
            |p| {
                let a = Var::constant(Matrix::from_fn(4, 3, |r, c| (r * c) as f64 * 0.2 - 0.5));
                sum(&square(&add_row_broadcast(&a, p)))
            },
            1e-5,
        );
    }

    #[test]
    fn gradcheck_concat_rows_and_slice_rows() {
        let b = Var::constant(Matrix::from_fn(2, 3, |r, c| (r * c) as f64 - 0.5));
        gradcheck(&rand_param(3, 3, 20), |p| sum(&square(&concat_rows(p, &b))), 1e-5);
        gradcheck(&rand_param(2, 3, 21), |p| sum(&square(&concat_rows(&b, p))), 1e-5);
        gradcheck(&rand_param(5, 3, 22), |p| sum(&square(&slice_rows(p, 1, 4))), 1e-5);
    }

    #[test]
    fn concat_rows_stacks_values() {
        let a = Var::constant(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = Var::constant(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let c = concat_rows(&a, &b);
        assert_eq!(c.value_clone().as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = slice_rows(&c, 1, 3);
        assert_eq!(s.value_clone(), b.value_clone());
    }

    #[test]
    fn gradcheck_l2_penalty() {
        gradcheck(&rand_param(2, 2, 16), l2_penalty, 1e-6);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let x = Var::param(Matrix::ones(2, 2));
        let mut rng = StdRng::seed_from_u64(0);
        let y = dropout(&x, 0.0, &mut rng);
        assert_eq!(y.value_clone(), x.value_clone());
    }

    #[test]
    fn dropout_preserves_expectation_and_backprops_mask() {
        let x = Var::param(Matrix::ones(200, 10));
        let mut rng = StdRng::seed_from_u64(42);
        let y = dropout(&x, 0.3, &mut rng);
        // Inverted dropout: E[y] == x, so the mean should be close to 1.
        let m = y.value().mean();
        assert!((m - 1.0).abs() < 0.05, "dropout mean {m} too far from 1");
        let loss = sum(&y);
        loss.backward();
        let g = x.grad().unwrap();
        // Gradient entries are either 0 or 1/keep.
        for &v in g.as_slice() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn dropout_rows_matches_whole_matrix_rows_and_stream() {
        let whole = rand_param(6, 3, 40);
        let rows = [1, 2, 5];
        let part = Var::param(whole.value().gather_rows(&rows));
        let (mut rng_whole, mut rng_part) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        let y_whole = dropout(&whole, 0.4, &mut rng_whole);
        let y_part = dropout_rows(&part, 0.4, &mut rng_part, 6, &rows);
        assert_eq!(y_part.value_clone(), y_whole.value().gather_rows(&rows));
        // Both streams advanced by the whole mask.
        assert_eq!(rand::Rng::gen::<u64>(&mut rng_whole), rand::Rng::gen::<u64>(&mut rng_part));
        sum(&square(&y_whole)).backward();
        sum(&square(&y_part)).backward();
        assert_eq!(part.grad().unwrap(), whole.grad().unwrap().gather_rows(&rows));
        // No rows kept: an empty result, and the stream still moves.
        let empty = Var::param(Matrix::zeros(0, 3));
        let mut rng_empty = StdRng::seed_from_u64(8);
        assert_eq!(dropout_rows(&empty, 0.4, &mut rng_empty, 6, &[]).shape(), (0, 3));
        let mut rng_ref = StdRng::seed_from_u64(8);
        let _ = dropout(&whole, 0.4, &mut rng_ref);
        assert_eq!(rand::Rng::gen::<u64>(&mut rng_empty), rand::Rng::gen::<u64>(&mut rng_ref));
    }

    #[test]
    #[should_panic(expected = "rows must ascend")]
    fn dropout_rows_rejects_unsorted_rows() {
        let x = Var::param(Matrix::ones(2, 2));
        let _ = dropout_rows(&x, 0.5, &mut StdRng::seed_from_u64(0), 4, &[2, 1]);
    }

    #[test]
    fn bpr_composition_matches_closed_form() {
        // loss = mean softplus(-(pos - neg)) for known scores.
        let pos = Var::param(Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        let neg = Var::constant(Matrix::from_vec(2, 1, vec![0.0, 1.0]));
        let diff = sub(&pos, &neg);
        let loss = mean(&softplus(&scale(&diff, -1.0)));
        let expected = ((1.0f64 + (-1.0f64).exp()).ln() + (1.0f64 + 1.0f64.exp()).ln()) / 2.0;
        assert!((loss.scalar() - expected).abs() < 1e-12);
    }
}
