//! # pup-tensor
//!
//! A from-scratch numeric substrate for the PUP reproduction: dense
//! ([`Matrix`]) and sparse ([`CsrMatrix`]) linear algebra, reverse-mode
//! automatic differentiation ([`Var`] + [`ops`]), parameter initializers
//! ([`init`]) and optimizers ([`optim`]).
//!
//! The original paper builds on a GPU deep-learning framework; the Rust
//! ecosystem has no mature equivalent, so this crate implements exactly the
//! operator set the paper's models need (see `DESIGN.md` §2). Gradients are
//! exact and verified against central finite differences in the test suite.
//!
//! ## Example
//!
//! ```
//! use pup_tensor::{Matrix, Var, ops, optim::{Adam, Optimizer}};
//!
//! // Fit a 1x1 "embedding" so that its square equals 4.
//! let p = Var::param(Matrix::full(1, 1, 1.0));
//! let mut opt = Adam::new(vec![p.clone()], 0.1, 0.0);
//! for _ in 0..500 {
//!     let target = Var::constant(Matrix::full(1, 1, 4.0));
//!     let loss = ops::sum(&ops::square(&ops::sub(&ops::square(&p), &target)));
//!     loss.backward();
//!     opt.step();
//! }
//! assert!((p.value().get(0, 0).abs() - 2.0).abs() < 1e-3);
//! ```

pub mod autograd;
pub mod checks;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod optim;
mod profile;
pub mod sparse;
pub mod tape;

pub use autograd::Var;
pub use matrix::{Matrix, RowBlocks};
pub use sparse::CsrMatrix;
