//! A minimal, self-contained neural-network library for federated-learning
//! simulation.
//!
//! The paper's prototype runs TensorFlow models from the LEAF benchmark; this
//! crate provides an equivalent substrate implemented from scratch on top of
//! [`dagfl-tensor`]:
//!
//! * a [`Layer`] trait — every pass writes into a caller-owned buffer —
//!   with the layers the workspace's models are built from: [`Dense`],
//!   [`Relu`], [`Embedding`] and [`Gru`] (backpropagation through time
//!   inside the layer),
//! * [`Sequential`], the one model: a stack of layers trained with
//!   softmax cross-entropy. The next-character model of the Poets
//!   experiment is the stack [`char_rnn`] builds
//!   (Embedding → GRU → Dense),
//! * the object-safe [`Model`] trait that every federated-learning algorithm
//!   in the workspace programs against: flat parameter vectors (for model
//!   averaging on the DAG), mini-batch SGD training (with the FedProx
//!   proximal term), and evaluation,
//! * parameter-vector helpers ([`average_parameters`],
//!   [`weighted_average_parameters`]),
//! * a swappable compute seam: every matrix product in the training
//!   pipeline runs on a [`MatmulBackendKind`]-selected backend (naive
//!   oracle or register-tiled, bit-identical), and steady-state training
//!   steps reuse [`TrainScratch`] buffers instead of allocating.
//!
//! All gradients are verified against numerical differentiation in the test
//! suite (see [`gradcheck`]).
//!
//! # Example
//!
//! ```
//! use dagfl_nn::{Dense, Model, Relu, Sequential, SgdConfig};
//! use dagfl_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), dagfl_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new(vec![
//!     Box::new(Dense::new(&mut rng, 4, 16)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(&mut rng, 16, 3)),
//! ]);
//! let x = Matrix::from_fn(8, 4, |r, c| ((r + c) % 3) as f32);
//! let y = vec![0, 1, 2, 0, 1, 2, 0, 1];
//! let loss = model.train_batch(&x, &y, &SgdConfig::new(0.1))?;
//! assert!(loss.is_finite());
//! # Ok(())
//! # }
//! ```
//!
//! [`dagfl-tensor`]: ../dagfl_tensor/index.html

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod activations;
mod dense;
mod embedding;
mod error;
mod eval;
pub mod gradcheck;
mod model;
mod optimizer;
mod params;
#[cfg(test)]
mod reference;
mod rnn;
mod sequential;
mod train;

pub use activations::Relu;
pub use dense::Dense;
pub use embedding::Embedding;
pub use error::NnError;
pub use eval::EvalScratch;
pub use model::{Evaluation, Model, ModelFactory};
pub use optimizer::SgdConfig;
pub use params::{average_parameters, weighted_average_parameters};
pub use rnn::{char_rnn, Gru};
pub use sequential::{Layer, Sequential};
pub use train::TrainScratch;

pub use dagfl_tensor::MatmulBackendKind;
