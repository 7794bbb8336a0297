//! Minimal reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The PUP models are shallow computation graphs (embedding lookups, one or
//! two sparse propagations, dot-product decoders, a pairwise loss), rebuilt
//! on every training step. A dynamic tape fits this naturally: every [`Var`]
//! records its parents and a backward closure; [`Var::backward`] walks the
//! reachable graph in reverse creation order and accumulates gradients into
//! the leaves (parameters).
//!
//! Gradients are exact (verified against central finite differences in the
//! test suite), which substitutes for the deep-learning frameworks the paper
//! relied on.

use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::checks;
use crate::matrix::Matrix;
use crate::tape;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Backward closure: receives the gradient flowing into this node and the
/// node's parents, and accumulates the parents' gradients.
pub type BackwardFn = Box<dyn Fn(&Matrix, &[Var])>;

struct VarInner {
    id: u64,
    /// Name of the op that produced this node (`"leaf"` / `"constant"` for
    /// leaves); used by the tape auditor's diagnostics.
    op: &'static str,
    value: Matrix,
    grad: Option<Matrix>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph holding a [`Matrix`] value.
///
/// `Var` is a cheap reference-counted handle; cloning it aliases the same
/// node. Build graphs with the methods in [`crate::ops`] and call
/// [`Var::backward`] on a scalar (1x1) result.
#[derive(Clone)]
pub struct Var {
    inner: Rc<RefCell<VarInner>>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Var(id={}, op={}, {}x{}, requires_grad={})",
            inner.id,
            inner.op,
            inner.value.rows(),
            inner.value.cols(),
            inner.requires_grad
        )
    }
}

impl VarInner {
    /// The tape auditor's accumulation discipline: an interior node takes
    /// gradients only during a `backward()` walk.
    fn assert_in_walk(&self) {
        // pup-audit: allow(hotpath-panic): tape auditor fails fast on out-of-walk gradient writes by design
        assert!(
            self.backward.is_none() || checks::in_backward(),
            "tape auditor: gradient accumulated into non-leaf node \
             (op `{}`, id {}) outside a backward() walk",
            self.op,
            self.id
        );
    }
}

impl Var {
    fn new(
        op: &'static str,
        value: Matrix,
        requires_grad: bool,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
    ) -> Self {
        Self {
            inner: Rc::new(RefCell::new(VarInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                op,
                value,
                grad: None,
                requires_grad,
                parents,
                backward,
            })),
        }
    }

    /// A trainable leaf (gradient is accumulated here).
    pub fn param(value: Matrix) -> Self {
        let v = Self::new("leaf", value, true, Vec::new(), None);
        tape::record_node(&v, &[]);
        v
    }

    /// A constant leaf (no gradient).
    pub fn constant(value: Matrix) -> Self {
        let v = Self::new("constant", value, false, Vec::new(), None);
        tape::record_node(&v, &[]);
        v
    }

    /// Internal constructor for op results. `requires_grad` is inherited from
    /// the parents; nodes with no differentiable parent skip the tape. The
    /// tape auditor scans `value` for NaN/Inf here, so every op is covered at
    /// its single construction point, and the tape-IR recorder (see
    /// [`crate::tape`]) observes every op here too.
    pub(crate) fn from_op(
        op: &'static str,
        value: Matrix,
        parents: Vec<Var>,
        backward: BackwardFn,
    ) -> Self {
        checks::assert_finite(op, "op result", &value);
        // Capture input ids before the non-differentiable branch below drops
        // the parent edges; pre-existing parents are pulled onto the tape so
        // every recorded edge resolves.
        let inputs: Vec<u64> = if tape::is_recording() {
            parents
                .iter()
                .map(|p| {
                    tape::ensure_recorded(p);
                    p.id()
                })
                .collect()
        } else {
            Vec::new()
        };
        let requires = parents.iter().any(Var::requires_grad);
        let v = if requires {
            Self::new(op, value, true, parents, Some(backward))
        } else {
            Self::new(op, value, false, Vec::new(), None)
        };
        tape::record_node(&v, &inputs);
        v
    }

    /// Public extension point: builds an op node from a precomputed `value`,
    /// its `parents`, and a `backward` closure that receives the incoming
    /// gradient and the parents and must call [`Var::accumulate_grad`]
    /// on each differentiable parent.
    ///
    /// This is how code outside `pup-tensor` (e.g. the gradcheck harness in
    /// `pup-analysis`) defines custom differentiable ops; it is subject to
    /// the same tape-auditor checks as the built-in ops. Under the auditor
    /// the `op` name must be a stable snake_case identifier that does not
    /// collide with a built-in op (see [`crate::tape`]), so tape diffs and
    /// the op-coverage cross-check can key on names reliably.
    pub fn custom_op(
        op: &'static str,
        value: Matrix,
        parents: Vec<Var>,
        backward: BackwardFn,
    ) -> Self {
        tape::validate_custom_op_name(op);
        Self::from_op(op, value, parents, backward)
    }

    /// Name of the op that produced this node (`"leaf"`/`"constant"` for
    /// leaves).
    pub fn op_name(&self) -> &'static str {
        self.inner.borrow().op
    }

    /// Unique creation id (monotonically increasing, process-global). Tape
    /// IR nodes (see [`crate::tape`]) reference each other by this id.
    pub fn id(&self) -> u64 {
        self.inner.borrow().id
    }

    /// Clones the parent handles (empty for leaves and for results whose
    /// parents were dropped because no parent requires gradient).
    pub(crate) fn parents(&self) -> Vec<Var> {
        self.inner.borrow().parents.clone()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    /// Borrows the current value.
    pub fn value(&self) -> Ref<'_, Matrix> {
        Ref::map(self.inner.borrow(), |i| &i.value)
    }

    /// Clones the current value out of the node.
    pub fn value_clone(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// The held value, moved out when this handle is the node's only one
    /// and cloned otherwise.
    pub fn into_value(self) -> Matrix {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => cell.into_inner().value,
            Err(shared) => shared.borrow().value.clone(),
        }
    }

    /// Shape of the held value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// The scalar value of a 1x1 node.
    ///
    /// # Panics
    /// Panics when the node is not 1x1.
    pub fn scalar(&self) -> f64 {
        let inner = self.inner.borrow();
        // pup-audit: allow(hotpath-panic): fail-fast shape precondition for scalar loss extraction
        assert_eq!(inner.value.shape(), (1, 1), "scalar() called on non-scalar Var");
        inner.value.get(0, 0)
    }

    /// Clones the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Matrix> {
        self.inner.borrow().grad.clone()
    }

    /// Moves the accumulated gradient out, leaving none: an optimizer step
    /// consumes it without a copy.
    pub fn take_grad(&self) -> Option<Matrix> {
        self.inner.borrow_mut().grad.take()
    }

    /// Squared L2 norm of the accumulated gradient, without cloning the
    /// buffer (telemetry reads this per step to feed the grad-norm gauge).
    pub fn grad_sq_norm(&self) -> Option<f64> {
        self.inner.borrow().grad.as_ref().map(|g| g.as_slice().iter().map(|v| v * v).sum())
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Mutates the held value in place (used by optimizers). The tape is not
    /// informed: only call this on leaves between steps.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.inner.borrow_mut().value)
    }

    /// Replaces the held value. Only call on leaves between steps.
    pub fn set_value(&self, value: Matrix) {
        self.inner.borrow_mut().value = value;
    }

    /// Accumulates `g` into this node's gradient buffer.
    ///
    /// Under the tape auditor (see [`crate::checks`]) the gradient must be
    /// finite and match the node's value shape, and interior (non-leaf) nodes
    /// only accept gradients while a `backward()` walk is running — an
    /// accumulation into an interior node outside backward would sit in a
    /// buffer nothing ever consumes.
    pub fn accumulate_grad(&self, g: &Matrix) {
        self.accumulate(Cow::Borrowed(g));
    }

    /// [`Var::accumulate_grad`] for a gradient the caller owns: the first
    /// gradient into a node becomes its buffer instead of a copy. Backward
    /// closures that build a fresh gradient matrix pass it here.
    pub fn accumulate_owned_grad(&self, g: Matrix) {
        self.accumulate(Cow::Owned(g));
    }

    fn accumulate(&self, g: Cow<'_, Matrix>) {
        let mut inner = self.inner.borrow_mut();
        if !inner.requires_grad {
            return;
        }
        if checks::ENABLED {
            checks::assert_same_shape(inner.op, inner.value.shape(), g.shape());
            checks::assert_finite(inner.op, "accumulated gradient", &g);
            inner.assert_in_walk();
        }
        match &mut inner.grad {
            Some(acc) => acc.add_assign(&g),
            None => inner.grad = Some(g.into_owned()),
        }
    }

    /// Adds into this node's gradient in place: `add` receives the node's
    /// value and its gradient buffer, zeros on first use. A backward
    /// closure that adds into a few rows of a large parent passes here, so
    /// the rows it leaves alone are neither built nor added.
    pub(crate) fn accumulate_grad_with(&self, add: impl FnOnce(&Matrix, &mut Matrix)) {
        let mut inner = self.inner.borrow_mut();
        if !inner.requires_grad {
            return;
        }
        if checks::ENABLED {
            inner.assert_in_walk();
        }
        let VarInner { op, value, grad, .. } = &mut *inner;
        let grad = grad.get_or_insert_with(|| Matrix::zeros(value.rows(), value.cols()));
        add(value, grad);
        checks::assert_finite(op, "accumulated gradient", grad);
    }

    /// Runs reverse-mode differentiation from this scalar node, accumulating
    /// gradients into every reachable leaf that requires gradient.
    ///
    /// # Panics
    /// Panics when called on a non-scalar node.
    pub fn backward(&self) {
        // pup-audit: allow(hotpath-panic): fail-fast precondition: backward starts from the scalar loss
        assert!(
            self.shape() == (1, 1),
            "backward() must start from a scalar loss, got a {}x{} `{}` node",
            self.shape().0,
            self.shape().1,
            self.op_name()
        );
        let _scope = checks::BackwardScope::enter();
        self.accumulate_grad(&Matrix::ones(1, 1));
        // Reverse creation order is a valid reverse topological order because
        // an op's parents are always created before the op itself.
        let mut stack = vec![self.clone()];
        let mut seen = std::collections::HashSet::new();
        let mut nodes = Vec::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v.id()) {
                continue;
            }
            // pup-lint: allow(clone-in-loop) — Vec of Rc handles; releases the RefCell borrow.
            let parents: Vec<Var> = v.inner.borrow().parents.clone();
            for p in parents {
                if p.requires_grad() {
                    stack.push(p);
                }
            }
            nodes.push(v);
        }
        nodes.sort_unstable_by_key(|v| std::cmp::Reverse(v.id()));
        for node in nodes {
            // Take the gradient out so interior nodes free their buffers.
            let grad = {
                let mut inner = node.inner.borrow_mut();
                if inner.backward.is_none() {
                    continue; // leaf: keep the accumulated gradient
                }
                inner.grad.take()
            };
            let Some(grad) = grad else { continue };
            let inner = node.inner.borrow();
            if let Some(backward) = &inner.backward {
                let _t = crate::profile::bwd(inner.op);
                backward(&grad, &inner.parents);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn leaf_flags() {
        let p = Var::param(Matrix::zeros(2, 2));
        let c = Var::constant(Matrix::zeros(2, 2));
        assert!(p.requires_grad());
        assert!(!c.requires_grad());
    }

    #[test]
    fn backward_on_simple_chain() {
        // loss = sum(2 * x) => dloss/dx = 2 everywhere.
        let x = Var::param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let loss = ops::sum(&ops::scale(&x, 2.0));
        assert_eq!(loss.scalar(), 20.0);
        loss.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        // loss = sum(x + x) => dloss/dx = 2.
        let x = Var::param(Matrix::ones(1, 3));
        let loss = ops::sum(&ops::add(&x, &x));
        loss.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let x = Var::param(Matrix::ones(1, 2));
        for expected in [1.0, 2.0] {
            let loss = ops::sum(&x);
            loss.backward();
            assert_eq!(x.grad().unwrap().as_slice(), &[expected, expected]);
        }
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn constants_receive_no_grad() {
        let x = Var::param(Matrix::ones(1, 2));
        let c = Var::constant(Matrix::ones(1, 2));
        let loss = ops::sum(&ops::mul(&x, &c));
        loss.backward();
        assert!(c.grad().is_none());
        assert!(x.grad().is_some());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let x = Var::param(Matrix::ones(2, 2));
        x.backward();
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // y = x*x; z = y + y; loss = sum(z) => dloss/dx = 4x.
        let x = Var::param(Matrix::from_vec(1, 2, vec![3.0, -2.0]));
        let y = ops::mul(&x, &x);
        let z = ops::add(&y, &y);
        let loss = ops::sum(&z);
        loss.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[12.0, -8.0]);
    }
}
