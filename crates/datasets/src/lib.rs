//! Federated dataset substrate for the dagfl workspace.
//!
//! The paper evaluates on three datasets plus the FedProx synthetic
//! benchmark. Real FEMNIST/Shakespeare/CIFAR-100 downloads are not
//! available offline, so this crate generates *synthetic equivalents that
//! preserve exactly the structure the algorithms react to* — which classes
//! a client holds, how clients cluster, and how inter-client heterogeneity
//! is parameterised (each generator's module docs say what it keeps of the
//! original; ARCHITECTURE.md, "Where to add things", says how to add one):
//!
//! * [`fmnist`] — "FMNIST-clustered": prototype-based digit images with the
//!   paper's three class-clusters {0–3}, {4–6}, {7–9}, a relaxed variant
//!   (15–20 % foreign-cluster data) and a by-author variant for the
//!   poisoning/scalability experiments,
//! * [`poets`](mod@poets) — two synthetic "languages" (English-like and German-like
//!   function-word streams) for next-character prediction, two clusters,
//! * [`cifar`] — a 100-class/20-superclass Gaussian-mixture hierarchy with
//!   the Pachinko Allocation Method client split used by TensorFlow
//!   Federated,
//! * [`fedprox`] — the synthetic(α, β) logistic-regression benchmark of
//!   Li et al., reimplemented faithfully,
//! * [`poison`] — the flipped-label attack transform (3 ↔ 8).
//!
//! All generators are deterministic for a fixed seed.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cifar;
mod client;
pub mod fedprox;
pub mod fmnist;
pub mod poets;
pub mod poison;
mod pool;
mod rand_util;

pub use cifar::{cifar100_like, Cifar100Config};
pub use client::{ClientDataset, FederatedDataset};
pub use fedprox::{fedprox_synthetic, FedProxConfig};
pub use fmnist::{fmnist_by_author, fmnist_clustered, fmnist_clustered_streamed, FmnistConfig};
pub use poets::{poets, PoetsConfig, POETS_VOCAB};
pub use poison::{flip_labels, PoisonReport};
pub use rand_util::{sample_dirichlet, sample_normal};

/// The fewest samples every generator gives one client.
pub const MIN_SAMPLES: usize = 10;
