//! The tape auditor: runtime invariants for the autograd engine.
//!
//! PUP's BPR training *silently degrades* rather than crashes when a
//! backward closure mis-accumulates a gradient or a NaN leaks through
//! `tanh`/`sigmoid`, so the tape defends itself:
//!
//! - **Forward finiteness** — every op result is scanned for NaN/Inf at
//!   construction, with the op name and offending coordinate in the panic
//!   message.
//! - **Gradient finiteness and shape agreement** — every gradient flowing
//!   into [`crate::Var::accumulate_grad`] must be finite and match the
//!   node's value shape.
//! - **Accumulation discipline** — gradients may only flow into non-leaf
//!   nodes while a `backward()` walk is running; accumulation into an
//!   interior node outside backward means a mis-used tape (the buffer would
//!   never be consumed).
//! - **Scalar roots** — `backward()` must start from a 1x1 loss.
//!
//! All checks are active under `debug_assertions`, in this crate's own
//! unit tests (so `cargo test --release -p pup-tensor` runs the guards
//! those tests exercise), and in release builds that enable the
//! `strict-checks` cargo feature; a plain release build pays nothing.

use std::cell::Cell;

use crate::matrix::Matrix;
use crate::Var;

/// Whether the tape auditor is compiled in.
pub const ENABLED: bool = cfg!(any(debug_assertions, test, feature = "strict-checks"));

thread_local! {
    /// True while a `backward()` walk is running on this thread.
    static IN_BACKWARD: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for the duration of a backward walk.
pub(crate) struct BackwardScope {
    prev: bool,
}

impl BackwardScope {
    pub(crate) fn enter() -> Self {
        let prev = IN_BACKWARD.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for BackwardScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_BACKWARD.with(|f| f.set(prev));
    }
}

pub(crate) fn in_backward() -> bool {
    IN_BACKWARD.with(Cell::get)
}

/// Returns the coordinate and value of the first non-finite entry, if any.
fn first_non_finite(m: &Matrix) -> Option<(usize, usize, f64)> {
    if m.all_finite() {
        return None;
    }
    let cols = m.cols();
    m.as_slice()
        .iter()
        .position(|v| !v.is_finite())
        // pup-audit: allow(hotpath-panic): cols > 0 whenever a non-finite position exists; index from position over the same slice
        .map(|at| (at / cols, at % cols, m.as_slice()[at]))
}

/// Panics when `m` contains a NaN or Inf, naming the op and coordinate.
/// No-op unless the auditor is [`ENABLED`].
pub fn assert_finite(context: &str, what: &str, m: &Matrix) {
    if !ENABLED {
        return;
    }
    if let Some((r, c, v)) = first_non_finite(m) {
        // pup-audit: allow(hotpath-panic): tape auditor fails fast on non-finite values by design
        panic!(
            "tape auditor: non-finite {what} in `{context}`: entry ({r},{c}) of \
             {rows}x{cols} is {v}",
            rows = m.rows(),
            cols = m.cols(),
        );
    }
}

/// Panics when two shapes disagree, naming the op and both operands.
/// No-op unless the auditor is [`ENABLED`].
pub fn assert_same_shape(context: &str, lhs: (usize, usize), rhs: (usize, usize)) {
    if !ENABLED {
        return;
    }
    // pup-audit: allow(hotpath-panic): fail-fast shape precondition
    assert!(
        lhs == rhs,
        "tape auditor: shape mismatch in `{context}`: {}x{} vs {}x{}",
        lhs.0,
        lhs.1,
        rhs.0,
        rhs.1
    );
}

/// NaN-guard hook for model code: asserts the value held by `v` is finite.
///
/// Models call this on scores and losses so a NaN is caught *where it first
/// appears* (with the model's name in the message) instead of surfacing as
/// silently degraded ranking metrics epochs later. No-op unless the auditor
/// is [`ENABLED`].
pub fn guard_finite(context: &str, v: &Var) {
    if !ENABLED {
        return;
    }
    assert_finite(context, "forward value", &v.value());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_matrices_pass() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.0, 1e300]);
        assert_finite("test", "value", &m);
        assert_same_shape("test", (2, 2), (2, 2));
    }

    #[test]
    #[should_panic(expected = "non-finite forward value in `softmax`: entry (1,0)")]
    fn nan_is_located_precisely() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, f64::NAN, 4.0]);
        assert_finite("softmax", "forward value", &m);
    }

    #[test]
    #[should_panic(expected = "shape mismatch in `add`: 2x3 vs 3x2")]
    fn shape_mismatch_names_op() {
        assert_same_shape("add", (2, 3), (3, 2));
    }

    #[test]
    fn backward_scope_nests_and_restores() {
        assert!(!in_backward());
        {
            let _outer = BackwardScope::enter();
            assert!(in_backward());
            {
                let _inner = BackwardScope::enter();
                assert!(in_backward());
            }
            assert!(in_backward());
        }
        assert!(!in_backward());
    }
}
