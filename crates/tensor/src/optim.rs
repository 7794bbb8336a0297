//! Gradient-descent optimizers over collections of parameter [`Var`]s.
//!
//! The paper trains every model with Adam (lr 1e-2, mini-batch 1024, L2
//! regularization, learning rate divided by 10 twice over 200 epochs); both
//! [`Adam`] and a plain [`Sgd`] are provided, plus the [`LrSchedule`]
//! implementing the paper's two-step decay.

use std::fmt;

use crate::autograd::Var;
use crate::matrix::Matrix;

/// A step-wise optimizer over a fixed parameter list.
pub trait Optimizer {
    /// Applies one update from the gradients accumulated on the parameters,
    /// then clears those gradients. Parameters without a gradient are skipped.
    fn step(&mut self);

    /// Clears accumulated gradients without updating.
    fn zero_grad(&mut self);

    /// Overrides the learning rate (for schedules).
    fn set_lr(&mut self, lr: f64);

    /// Current learning rate.
    fn lr(&self) -> f64;
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    params: Vec<Var>,
    lr: f64,
    weight_decay: f64,
}

impl Sgd {
    /// Creates an SGD optimizer over `params`.
    pub fn new(params: Vec<Var>, lr: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Self { params, lr, weight_decay }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let _t = pup_obs::time("opt", "sgd_step");
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            let lr = self.lr;
            let wd = self.weight_decay;
            p.update_value(|v| {
                if wd > 0.0 {
                    // L2 term folded into the gradient: g + wd * v.
                    let decayed = v.scale(wd);
                    v.add_scaled_assign(-lr, &decayed);
                }
                v.add_scaled_assign(-lr, &g);
            });
            p.zero_grad();
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn lr(&self) -> f64 {
        self.lr
    }
}

/// A snapshot of an [`Adam`] optimizer's mutable state: the step counter and
/// per-parameter moment estimates.
///
/// Produced by [`Adam::state`] and consumed by [`Adam::restore_state`]; the
/// checkpoint layer serializes this to resume training bit-exactly.
#[derive(Clone, Debug)]
pub struct AdamState {
    /// Number of optimizer steps taken so far (drives bias correction).
    pub t: u64,
    /// Per-parameter `(first, second)` moment estimates, in parameter order.
    pub moments: Vec<(Matrix, Matrix)>,
}

/// Why restoring optimizer state was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptimStateError {
    /// The snapshot holds moments for a different number of parameters.
    CountMismatch {
        /// Parameter count of the live optimizer.
        expected: usize,
        /// Moment-pair count in the snapshot.
        found: usize,
    },
    /// A moment pair's shape disagrees with the corresponding live parameter.
    ShapeMismatch {
        /// Zero-based parameter index.
        index: usize,
        /// Shape of the live parameter.
        expected: (usize, usize),
        /// Shape found in the snapshot.
        found: (usize, usize),
    },
}

impl fmt::Display for OptimStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CountMismatch { expected, found } => {
                write!(f, "optimizer state holds {found} moment pairs, model has {expected}")
            }
            Self::ShapeMismatch { index, expected, found } => write!(
                f,
                "moment pair {index} has shape {found:?}, parameter has shape {expected:?}"
            ),
        }
    }
}

impl std::error::Error for OptimStateError {}

/// Adam (Kingma & Ba) with optional L2 weight decay, matching the paper's
/// optimizer choice (§V-A3).
pub struct Adam {
    params: Vec<Var>,
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    /// Per-parameter first/second moment estimates.
    moments: Vec<(Matrix, Matrix)>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas (0.9, 0.999).
    pub fn new(params: Vec<Var>, lr: f64, weight_decay: f64) -> Self {
        Self::with_betas(params, lr, weight_decay, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterized constructor.
    pub fn with_betas(
        params: Vec<Var>,
        lr: f64,
        weight_decay: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
    ) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas must be in [0,1)"
        );
        let moments = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                (Matrix::zeros(r, c), Matrix::zeros(r, c))
            })
            .collect();
        Self { params, lr, beta1, beta2, eps, weight_decay, moments, t: 0 }
    }

    /// Snapshots the optimizer's mutable state (step counter + moments).
    ///
    /// Restoring this snapshot with [`Adam::restore_state`] on an optimizer
    /// over the same parameter list reproduces the exact update sequence.
    pub fn state(&self) -> AdamState {
        AdamState { t: self.t, moments: self.moments.clone() }
    }

    /// The parameter list this optimizer updates (telemetry reads gradient
    /// norms off these between `backward()` and [`Optimizer::step`]).
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// Replaces the optimizer's mutable state with a snapshot.
    ///
    /// The snapshot is validated against the live parameter list first:
    /// moment-pair count and every shape must match, otherwise a typed
    /// [`OptimStateError`] is returned and the optimizer is left untouched.
    pub fn restore_state(&mut self, state: AdamState) -> Result<(), OptimStateError> {
        if state.moments.len() != self.params.len() {
            return Err(OptimStateError::CountMismatch {
                expected: self.params.len(),
                found: state.moments.len(),
            });
        }
        for (index, ((m, v), p)) in state.moments.iter().zip(&self.params).enumerate() {
            let expected = p.shape();
            for found in [m.shape(), v.shape()] {
                if found != expected {
                    return Err(OptimStateError::ShapeMismatch { index, expected, found });
                }
            }
        }
        self.moments = state.moments;
        self.t = state.t;
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        let _t = pup_obs::time("opt", "adam_step");
        self.t += 1;
        // pup-lint: allow(as-cast-truncation) — exponent is a small bounded counter
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        // pup-lint: allow(as-cast-truncation) — exponent is a small bounded counter
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, lr, eps, wd) = (self.beta1, self.beta2, self.lr, self.eps, self.weight_decay);
        for (p, (m, v)) in self.params.iter().zip(&mut self.moments) {
            let Some(g) = p.take_grad() else { continue };
            // One pass over (p, g, m, v), each element in the order of the
            // textbook update: g + wd·p, the two moments, then p.
            p.update_value(|val| {
                let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
                for ((pv, &gi), (mi, vi)) in
                    val.as_mut_slice().iter_mut().zip(g.as_slice()).zip(moments)
                {
                    let gi = if wd > 0.0 { gi + wd * *pv } else { gi };
                    *mi = b1 * *mi + (1.0 - b1) * gi;
                    *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *pv -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn lr(&self) -> f64 {
        self.lr
    }
}

/// The paper's learning-rate schedule: divide the learning rate by `factor`
/// at each listed epoch ("reduce the learning rate by a factor of 10 twice").
#[derive(Clone, Debug)]
pub struct LrSchedule {
    base_lr: f64,
    decay_epochs: Vec<usize>,
    factor: f64,
}

impl LrSchedule {
    /// Constant learning rate.
    pub fn constant(lr: f64) -> Self {
        Self { base_lr: lr, decay_epochs: Vec::new(), factor: 1.0 }
    }

    /// Step decay by `factor` at each epoch in `decay_epochs`.
    pub fn step_decay(base_lr: f64, decay_epochs: Vec<usize>, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor must be in (0,1]");
        Self { base_lr, decay_epochs, factor }
    }

    /// The paper's default: ×0.1 at 50% and 75% of the epoch budget.
    pub fn paper_default(base_lr: f64, total_epochs: usize) -> Self {
        Self::step_decay(base_lr, vec![total_epochs / 2, total_epochs * 3 / 4], 0.1)
    }

    /// Learning rate to use for the (0-based) `epoch`.
    pub fn lr_at(&self, epoch: usize) -> f64 {
        let hits = self.decay_epochs.iter().filter(|&&e| epoch >= e).count();
        // pup-lint: allow(as-cast-truncation) — exponent is a small bounded counter
        self.base_lr * self.factor.powi(hits as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn quadratic_loss(p: &Var) -> Var {
        // loss = sum((p - 3)^2): minimized at 3.
        let target = Var::constant(Matrix::full(1, 2, 3.0));
        ops::sum(&ops::square(&ops::sub(p, &target)))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = Var::param(Matrix::zeros(1, 2));
        let mut opt = Sgd::new(vec![p.clone()], 0.1, 0.0);
        for _ in 0..100 {
            let loss = quadratic_loss(&p);
            loss.backward();
            opt.step();
        }
        let v = p.value_clone();
        assert!((v.get(0, 0) - 3.0).abs() < 1e-6, "sgd did not converge: {v:?}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Var::param(Matrix::zeros(1, 2));
        let mut opt = Adam::new(vec![p.clone()], 0.1, 0.0);
        for _ in 0..300 {
            let loss = quadratic_loss(&p);
            loss.backward();
            opt.step();
        }
        let v = p.value_clone();
        assert!((v.get(0, 0) - 3.0).abs() < 1e-3, "adam did not converge: {v:?}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        let run = |wd: f64| {
            let p = Var::param(Matrix::zeros(1, 1));
            let mut opt = Adam::new(vec![p.clone()], 0.05, wd);
            for _ in 0..500 {
                quadratic_loss_scalar(&p).backward();
                opt.step();
            }
            let v = p.value().get(0, 0);
            v
        };
        fn quadratic_loss_scalar(p: &Var) -> Var {
            let target = Var::constant(Matrix::full(1, 1, 3.0));
            ops::sum(&ops::square(&ops::sub(p, &target)))
        }
        let free = run(0.0);
        let decayed = run(1.0);
        assert!(free > decayed, "weight decay should pull the optimum toward zero");
        assert!((free - 3.0).abs() < 1e-2);
    }

    #[test]
    fn step_skips_params_without_grad() {
        let p = Var::param(Matrix::ones(1, 1));
        let q = Var::param(Matrix::ones(1, 1));
        let mut opt = Sgd::new(vec![p.clone(), q.clone()], 0.5, 0.0);
        let loss = ops::sum(&p);
        loss.backward();
        opt.step();
        assert!((p.value().get(0, 0) - 0.5).abs() < 1e-12);
        assert_eq!(q.value().get(0, 0), 1.0, "untouched param must not move");
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        let run = |resume_at: Option<usize>| {
            let p = Var::param(Matrix::from_vec(1, 2, vec![1.0, -2.0]));
            let mut opt = Adam::new(vec![p.clone()], 0.1, 0.01);
            let mut saved = None;
            for step in 0..40 {
                if Some(step) == resume_at {
                    saved = Some((opt.state(), p.value_clone()));
                }
                quadratic_loss(&p).backward();
                opt.step();
            }
            if let Some((state, value)) = saved {
                // Rebuild a fresh optimizer mid-run and replay the tail.
                let q = Var::param(value);
                let mut opt2 = Adam::new(vec![q.clone()], 0.1, 0.01);
                opt2.restore_state(state).expect("snapshot from same model must restore");
                for _ in resume_at.unwrap_or(0)..40 {
                    quadratic_loss(&q).backward();
                    opt2.step();
                }
                return q.value_clone();
            }
            p.value_clone()
        };
        let straight = run(None);
        let resumed = run(Some(17));
        for (a, b) in straight.as_slice().iter().zip(resumed.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed run diverged: {a} vs {b}");
        }
    }

    #[test]
    fn adam_restore_rejects_mismatched_state() {
        let p = Var::param(Matrix::zeros(2, 3));
        let mut opt = Adam::new(vec![p], 0.1, 0.0);

        let empty = AdamState { t: 1, moments: Vec::new() };
        assert_eq!(
            opt.restore_state(empty),
            Err(OptimStateError::CountMismatch { expected: 1, found: 0 })
        );

        let wrong_shape =
            AdamState { t: 1, moments: vec![(Matrix::zeros(3, 2), Matrix::zeros(3, 2))] };
        assert_eq!(
            opt.restore_state(wrong_shape),
            Err(OptimStateError::ShapeMismatch { index: 0, expected: (2, 3), found: (3, 2) })
        );
        assert_eq!(opt.state().t, 0, "failed restore must leave the optimizer untouched");
    }

    #[test]
    fn lr_schedule_paper_default() {
        let s = LrSchedule::paper_default(1e-2, 200);
        assert!((s.lr_at(0) - 1e-2).abs() < 1e-15);
        assert!((s.lr_at(99) - 1e-2).abs() < 1e-15);
        assert!((s.lr_at(100) - 1e-3).abs() < 1e-15);
        assert!((s.lr_at(150) - 1e-4).abs() < 1e-15);
        assert!((s.lr_at(199) - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn lr_schedule_constant() {
        let s = LrSchedule::constant(0.5);
        assert_eq!(s.lr_at(0), 0.5);
        assert_eq!(s.lr_at(1000), 0.5);
    }
}
