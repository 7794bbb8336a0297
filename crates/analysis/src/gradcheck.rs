//! Universal gradient checking against central finite differences.
//!
//! [`gradcheck`] takes any *deterministic* scalar-valued function of a set
//! of [`Var`] inputs, runs one reverse-mode backward pass, then perturbs
//! every entry of every input by ±ε and compares the analytic gradient to
//! `(f(x+ε) - f(x-ε)) / 2ε`. Determinism matters: functions that sample
//! (dropout, negative sampling) must re-seed their RNG inside the closure so
//! every evaluation sees the same draw.
//!
//! Relative error uses `|a - n| / (1 + max(|a|, |n|))`, which behaves like
//! absolute error for small gradients and relative error for large ones.
//! Central differences have `O(ε²)` truncation error, so the tolerance must
//! be matched to ε: `ε = 1e-5, tol = 1e-4` (the default) suits f64 forward
//! math; for f32-like precision use something like `ε = 1e-3, tol = 1e-3`.

use std::fmt;

use pup_tensor::{Matrix, Var};

/// The gradcheck sweep registry: every op name exercised by the sweep test
/// (`tests/gradcheck_sweep.rs`), as recorded on the tape.
///
/// This list is deliberately written out by hand rather than derived from
/// `pup_tensor::ops::BUILTIN_OPS`: the graph auditor's op-coverage pass
/// diffs the two (and the op names scraped from `ops.rs` itself), so an op
/// added to the tensor crate without a matching sweep case fails
/// `audit-graph` instead of silently dodging gradcheck. The sweep test
/// asserts this registry is honest — that the ops it exercises record
/// exactly these names.
pub const SWEPT_OPS: &[&str] = &[
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

/// Step size and tolerance for a gradient check.
#[derive(Debug, Clone, Copy)]
pub struct GradcheckConfig {
    /// Central-difference step ε.
    pub eps: f64,
    /// Maximum allowed relative error.
    pub tol: f64,
}

impl Default for GradcheckConfig {
    fn default() -> Self {
        Self { eps: 1e-5, tol: 1e-4 }
    }
}

/// The entry with the largest relative error.
#[derive(Debug, Clone, Copy)]
pub struct WorstEntry {
    /// Index into the `inputs` slice.
    pub input: usize,
    /// Row of the worst entry.
    pub row: usize,
    /// Column of the worst entry.
    pub col: usize,
    /// Analytic (backward-pass) gradient.
    pub analytic: f64,
    /// Numeric (central-difference) gradient.
    pub numeric: f64,
}

/// Outcome of a successful check.
#[derive(Debug, Clone, Copy)]
pub struct GradcheckReport {
    /// Largest relative error across all entries of all inputs.
    pub max_rel_err: f64,
    /// Total number of scalar entries perturbed.
    pub entries_checked: usize,
    /// The worst entry (absent only when no entries were checked).
    pub worst: Option<WorstEntry>,
}

/// Why a gradient check could not pass.
#[derive(Debug, Clone)]
pub enum GradcheckError {
    /// `f` returned a non-1x1 value; backward needs a scalar loss.
    NonScalarLoss {
        /// Rows of the returned value.
        rows: usize,
        /// Columns of the returned value.
        cols: usize,
    },
    /// An input does not require gradient, so there is nothing to check.
    NonDifferentiableInput {
        /// Index into the `inputs` slice.
        input: usize,
    },
    /// The analytic gradient disagrees with central differences.
    ToleranceExceeded {
        /// Measurements from the failed sweep.
        report: GradcheckReport,
        /// The tolerance that was exceeded.
        tol: f64,
    },
}

impl fmt::Display for GradcheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradcheckError::NonScalarLoss { rows, cols } => {
                write!(f, "gradcheck needs a scalar loss, got {rows}x{cols}")
            }
            GradcheckError::NonDifferentiableInput { input } => {
                write!(f, "input #{input} does not require gradient")
            }
            GradcheckError::ToleranceExceeded { report, tol } => match report.worst {
                Some(w) => write!(
                    f,
                    "gradient mismatch: max rel err {:.3e} > tol {tol:.3e} at input \
                     #{} entry ({},{}): analytic={:.6e}, numeric={:.6e}",
                    report.max_rel_err, w.input, w.row, w.col, w.analytic, w.numeric
                ),
                None => write!(f, "gradient mismatch with no entries checked"),
            },
        }
    }
}

impl std::error::Error for GradcheckError {}

/// Checks the analytic gradients of `f` with respect to every entry of
/// every input against central finite differences.
///
/// `f` is re-invoked `2 × total entries + 1` times and must be
/// deterministic across calls (re-seed any RNG inside). Inputs must be leaf
/// [`Var::param`] nodes; their values are restored after the sweep and their
/// gradient buffers are cleared before it.
pub fn gradcheck(
    f: impl Fn(&[Var]) -> Var,
    inputs: &[Var],
    cfg: GradcheckConfig,
) -> Result<GradcheckReport, GradcheckError> {
    for (idx, input) in inputs.iter().enumerate() {
        if !input.requires_grad() {
            return Err(GradcheckError::NonDifferentiableInput { input: idx });
        }
        input.zero_grad();
    }
    let loss = f(inputs);
    let (rows, cols) = loss.shape();
    if (rows, cols) != (1, 1) {
        return Err(GradcheckError::NonScalarLoss { rows, cols });
    }
    loss.backward();
    // A missing buffer means no gradient flowed into the input (e.g. a
    // backward closure forgot to accumulate): treat as all-zero and let the
    // numeric comparison expose it.
    let analytic: Vec<Matrix> = inputs
        .iter()
        .map(|v| v.grad().unwrap_or_else(|| Matrix::zeros(v.shape().0, v.shape().1)))
        .collect();

    let mut report = GradcheckReport { max_rel_err: 0.0, entries_checked: 0, worst: None };
    for (idx, input) in inputs.iter().enumerate() {
        let (rows, cols) = input.shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = input.value().get(r, c);
                input.update_value(|m| m.set(r, c, orig + cfg.eps));
                let up = f(inputs).scalar();
                input.update_value(|m| m.set(r, c, orig - cfg.eps));
                let down = f(inputs).scalar();
                input.update_value(|m| m.set(r, c, orig));
                let numeric = (up - down) / (2.0 * cfg.eps);
                let a = analytic[idx].get(r, c);
                let rel = (a - numeric).abs() / (1.0 + a.abs().max(numeric.abs()));
                report.entries_checked += 1;
                if rel >= report.max_rel_err {
                    report.max_rel_err = rel;
                    report.worst =
                        Some(WorstEntry { input: idx, row: r, col: c, analytic: a, numeric });
                }
            }
        }
    }
    if report.max_rel_err > cfg.tol {
        return Err(GradcheckError::ToleranceExceeded { report, tol: cfg.tol });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pup_tensor::ops;

    fn param(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Var {
        Var::param(Matrix::from_fn(rows, cols, f))
    }

    #[test]
    fn correct_gradient_passes() {
        let x = param(2, 3, |r, c| 0.3 * r as f64 - 0.2 * c as f64 + 0.1);
        let report = gradcheck(
            |inputs| ops::mean(&ops::square(&ops::tanh(&inputs[0]))),
            &[x],
            GradcheckConfig::default(),
        )
        .expect("tanh gradient is exact");
        assert_eq!(report.entries_checked, 6);
        assert!(report.max_rel_err < 1e-4);
    }

    #[test]
    fn deliberately_wrong_backward_is_caught() {
        // Forward computes x^2 but backward claims d/dx = 3x instead of 2x.
        let wrong_square = |x: &Var| {
            let value = x.value().map(|v| v * v);
            Var::custom_op(
                "wrong_square",
                value,
                vec![x.clone()],
                Box::new(|g, parents| {
                    let local = parents[0].value().scale(3.0);
                    parents[0].accumulate_grad(&g.hadamard(&local));
                }),
            )
        };
        let x = param(2, 2, |r, c| 1.0 + r as f64 + c as f64);
        let err = gradcheck(
            |inputs| ops::sum(&wrong_square(&inputs[0])),
            &[x],
            GradcheckConfig::default(),
        )
        .expect_err("a 1.5x-scaled gradient must not pass");
        let GradcheckError::ToleranceExceeded { report, .. } = err else {
            panic!("expected ToleranceExceeded, got {err}");
        };
        assert!(report.max_rel_err > 0.1, "mismatch should be large: {}", report.max_rel_err);
    }

    #[test]
    fn forgotten_accumulation_is_caught() {
        // Backward never accumulates: analytic gradient stays zero.
        let no_grad_identity = |x: &Var| {
            Var::custom_op(
                "no_grad_identity",
                x.value_clone(),
                vec![x.clone()],
                Box::new(|_, _| {}),
            )
        };
        let x = param(1, 3, |_, c| 0.5 + c as f64);
        let err = gradcheck(
            |inputs| ops::sum(&no_grad_identity(&inputs[0])),
            &[x],
            GradcheckConfig::default(),
        )
        .expect_err("zero analytic vs. unit numeric gradient must fail");
        assert!(matches!(err, GradcheckError::ToleranceExceeded { .. }));
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let x = param(2, 2, |_, _| 1.0);
        let err = gradcheck(|inputs| inputs[0].clone(), &[x], GradcheckConfig::default())
            .expect_err("2x2 output is not a loss");
        assert!(matches!(err, GradcheckError::NonScalarLoss { rows: 2, cols: 2 }));
    }

    #[test]
    fn constant_input_rejected() {
        let c = Var::constant(Matrix::ones(1, 1));
        let err = gradcheck(|inputs| ops::sum(&inputs[0]), &[c], GradcheckConfig::default())
            .expect_err("constants have no gradient to check");
        assert!(matches!(err, GradcheckError::NonDifferentiableInput { input: 0 }));
    }

    #[test]
    fn tolerance_must_match_eps() {
        // With an f32-appropriate step (ε = 1e-3) the truncation error of
        // central differences on a curved function is ~ε² = 1e-6: far below
        // a matched tol of 1e-3, far above an unmatched tol of 1e-9.
        let f32_cfg = GradcheckConfig { eps: 1e-3, tol: 1e-3 };
        let x = param(2, 2, |r, c| 0.4 * r as f64 - 0.3 * c as f64 + 0.2);
        let loss = |inputs: &[Var]| ops::mean(&ops::square(&ops::sigmoid(&inputs[0])));
        let report =
            gradcheck(loss, std::slice::from_ref(&x), f32_cfg).expect("matched tol passes");
        assert!(report.max_rel_err < 1e-3);
        assert!(report.max_rel_err > 0.0, "coarse eps should leave measurable truncation error");
        let too_tight = GradcheckConfig { eps: 1e-3, tol: 1e-9 };
        let err = gradcheck(loss, &[x], too_tight)
            .expect_err("tol far below the eps-induced truncation error must fail");
        assert!(matches!(err, GradcheckError::ToleranceExceeded { .. }));
    }
}
