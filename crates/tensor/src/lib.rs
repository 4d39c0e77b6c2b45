//! Dense `f32` matrix and vector math for the `dagfl` workspace.
//!
//! This crate is the numeric substrate beneath [`dagfl-nn`]: a small,
//! dependency-free (besides [`rand`]) linear-algebra toolkit that provides
//! exactly what a federated-learning simulator needs — row-major matrices,
//! cache-friendly matrix multiplication, broadcasting helpers, common
//! activation/normalisation kernels and reproducible random initialisation.
//!
//! The hot paths — evaluation *and*, since the [`MatmulBackend`] port,
//! training — run on buffer-reusing kernels ([`Matrix::matmul_into`],
//! [`Matrix::matmul_transpose_into`], [`Matrix::transpose_matmul_into`],
//! one register-tiled product underneath, and
//! [`fused_softmax_cross_entropy`]) whose per-cell accumulation order
//! matches the naive versions exactly, so swapping kernels never changes
//! a result: the naive loops stay in-tree as [`NaiveBackend`], the
//! reference oracle pinned by the property tests, while [`TiledBackend`]
//! (the default) runs the tiled kernel.
//!
//! It also holds the workspace's one thread fan-out, [`fan_out`]: the
//! dataset renderer and the simulators above both spread their indexed
//! jobs over it, and results come back in job order at any worker count.
//!
//! # Example
//!
//! ```
//! use dagfl_tensor::{MatmulBackend, Matrix, NaiveBackend};
//!
//! # fn main() -> Result<(), dagfl_tensor::ShapeError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = NaiveBackend.matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```
//!
//! [`dagfl-nn`]: ../dagfl_nn/index.html

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod backend;
mod distance;
mod error;
mod fanout;
mod init;
mod matrix;
mod ops;
mod stats;

pub use backend::{MatmulBackend, MatmulBackendKind, NaiveBackend, TiledBackend};
pub use distance::{cosine_similarity, l2_distance, l2_norm};
pub use error::ShapeError;
pub use fanout::{fan_out, fan_out_with};
pub use init::{he_uniform, uniform_init, xavier_uniform};
pub use matrix::Matrix;
pub use ops::{
    argmax, cross_entropy_from_probs, exp_in_place, fused_softmax_cross_entropy, log_sum_exp,
    one_hot, softmax, softmax_cross_entropy, softmax_in_place,
};
pub use stats::{max, mean, min, stddev, variance, Summary};
