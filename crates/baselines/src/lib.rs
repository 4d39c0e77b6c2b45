//! Centralized federated-learning baselines: **FedAvg** and **FedProx**.
//!
//! The paper compares the Specializing DAG against the original federated
//! averaging (McMahan et al.) on all three datasets (Figure 9) and against
//! FedProx (Li et al.) on the synthetic benchmark (Figures 10–11). Both
//! baselines share the classic client–server round:
//!
//! 1. the server broadcasts the global model to the sampled clients,
//! 2. each client trains locally (FedProx adds the proximal term
//!    `μ/2 ‖w − w_global‖²` to the local objective),
//! 3. the server aggregates the updates, weighted by sample counts.
//!
//! # Example
//!
//! ```
//! use dagfl_baselines::{FedConfig, FederatedServer};
//! use dagfl_datasets::{fmnist_clustered, FmnistConfig};
//! use dagfl_nn::{Dense, Model, Sequential};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), dagfl_nn::NnError> {
//! let dataset = fmnist_clustered(&FmnistConfig {
//!     num_clients: 6,
//!     samples_per_client: 30,
//!     ..FmnistConfig::default()
//! });
//! let features = dataset.feature_len();
//! let config = FedConfig {
//!     rounds: 2,
//!     clients_per_round: 3,
//!     local_batches: 2,
//!     ..FedConfig::default()
//! };
//! let mut server = FederatedServer::new(config, dataset, Arc::new(move |rng| {
//!     Box::new(Sequential::new(vec![Box::new(Dense::new(rng, features, 10))]))
//!         as Box<dyn Model>
//! }));
//! let history = server.run()?;
//! assert_eq!(history.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod local;
mod server;

pub use dagfl_nn::ModelFactory;
pub use local::LocalOnly;
pub use server::{FedConfig, FedRoundMetrics, FederatedServer};
