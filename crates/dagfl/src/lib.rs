//! **dagfl** — implicit model specialization through DAG-based
//! decentralized federated learning.
//!
//! This umbrella crate re-exports the whole workspace behind one
//! dependency, mirroring the system described in Beilharz, Pfitzner,
//! Schmid et al., *"Implicit Model Specialization through DAG-based
//! Decentralized Federated Learning"* (Middleware '21):
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`tensor`] | dense `f32` matrix math |
//! | [`nn`] | layers, GRU, SGD (+ FedProx proximal term), parameter averaging |
//! | [`datasets`] | synthetic federated datasets + poisoning transforms |
//! | [`tangle`] | the DAG ledger substrate and random-walk engine |
//! | [`graphs`] | the client graph, modularity, Louvain and the specialization metrics |
//! | [`dag`] | the Specializing DAG itself: biased tip selection, simulation, poisoning scenarios |
//! | [`baselines`] | FedAvg and FedProx |
//! | [`scenario`] | the declarative layer: one spec to build, validate, run and report any experiment |
//! | [`analysis`] | specialization analytics: seeded k-means, silhouette/purity/ARI, the Louvain graph view |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Example
//!
//! The declarative path — a whole experiment as a value, runnable from a
//! preset name, a `scenarios/*.toml` file or the builder API:
//!
//! ```
//! use dagfl::{DatasetSpec, Scenario, ScenarioRunner};
//!
//! # fn main() -> Result<(), dagfl::scenario::ScenarioError> {
//! let scenario = Scenario::new(
//!     "demo",
//!     DatasetSpec::Fmnist {
//!         clients: 6,
//!         samples: 30,
//!         relaxation: 0.0,
//!         seed: 42,
//!     },
//! )
//! .rounds(2)
//! .clients_per_round(3)
//! .local_batches(2);
//! let report = ScenarioRunner::new(scenario)?.run()?;
//! println!("pureness: {:.2}", report.specialization.approval_pureness);
//! # Ok(())
//! # }
//! ```
//!
//! The imperative substrate stays available for custom harnesses:
//!
//! ```
//! use dagfl::{DagConfig, ModelSpec, Simulation};
//! use dagfl::datasets::{fmnist_clustered, FmnistConfig};
//!
//! # fn main() -> Result<(), dagfl::dag::CoreError> {
//! let dataset = fmnist_clustered(&FmnistConfig {
//!     num_clients: 6,
//!     samples_per_client: 30,
//!     ..FmnistConfig::default()
//! });
//! let config = DagConfig {
//!     rounds: 2,
//!     clients_per_round: 3,
//!     local_batches: 2,
//!     ..DagConfig::default()
//! };
//! let factory = ModelSpec::Mlp { hidden: vec![16] }
//!     .build_factory(dataset.feature_len(), dataset.num_classes());
//! let mut sim = Simulation::new(config, dataset, factory);
//! sim.run()?;
//! println!("pureness: {:.2}", sim.approval_pureness());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use dagfl_analysis as analysis;
pub use dagfl_baselines as baselines;
pub use dagfl_core as dag;
pub use dagfl_core::graph as graphs;
pub use dagfl_datasets as datasets;
pub use dagfl_nn as nn;
pub use dagfl_scenario as scenario;
pub use dagfl_tangle as tangle;
pub use dagfl_tensor as tensor;

pub use dagfl_analysis::{
    adjusted_rand_index, analyze, auto_k, cluster_purity, kmeans, silhouette_score, AnalysisConfig,
    AnalysisSnapshot, AnalysisSource, KMeansConfig, KSelection,
};
pub use dagfl_baselines::{FedConfig, FederatedServer};
pub use dagfl_core::{
    run_peer, AsyncConfig, AsyncMetrics, AsyncSimulation, ComputeProfile, CrashWindow, DagConfig,
    DelayModel, EvalCounters, ExecutionMode, FaultPlan, FaultyTransport, GossipMessage,
    LoopbackTransport, ModelEvaluator, Normalization, PartitionWindow, PeerConfig, PeerReport,
    PoisoningConfig, PoisoningScenario, PublishGate, Replica, Simulation, StaleTipPolicy,
    TcpTransport, TipSelector, Tracker, Transport, TxMessage,
};
pub use dagfl_nn::TrainScratch;
pub use dagfl_scenario::{
    AnalysisSpec, DatasetSpec, ExecutionSpec, ModelSpec, RunReport, Scenario, ScenarioRunner,
    SweepReport, SweepRunner, SweepSpec,
};
pub use dagfl_tensor::{MatmulBackend, MatmulBackendKind, NaiveBackend, TiledBackend};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_reachable() {
        let _ = crate::DagConfig::default();
        let _ = crate::FedConfig::default();
        let _ = crate::TipSelector::default();
        let _ = crate::Normalization::default();
        let _ = crate::KMeansConfig::default();
        let _ = crate::AnalysisSpec::default();
        assert!(crate::AnalysisSource::default().wants_approvals());
        assert_eq!(crate::MatmulBackendKind::default().name(), "tiled");
    }
}
