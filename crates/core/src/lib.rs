//! The **Specializing DAG** — implicit model specialization through
//! DAG-based decentralized federated learning.
//!
//! This crate implements the paper's core contribution on top of the
//! workspace substrates ([`dagfl-tangle`] for the ledger, [`dagfl-nn`] for
//! models, [`dagfl-datasets`] for federated data):
//!
//! 1. **Accuracy-aware tip selection** ([`AccuracyBias`] over a
//!    [`ModelEvaluator`]): a biased random walk through the DAG whose
//!    per-step transition weights are `exp(alpha * normalized_accuracy)`
//!    of each candidate model on the client's local test data, with the
//!    paper's simple (Eq. 1–2) and dynamic (Eq. 3) normalizations. The
//!    evaluator holds a scratch model, reusable forward-pass buffers and
//!    a generation-stamped accuracy cache, and reports fresh-vs-cached
//!    evaluation counts.
//! 2. **The client loop** ([`DagClient`]): select two tips, average their
//!    models, train on local data, publish if the model improved. A
//!    client keeps its RNG and accuracy cache; the simulators lend it a
//!    scratch model, one per worker.
//! 3. **The round simulator** ([`Simulation`]): discrete rounds with a
//!    configurable number of concurrently active clients (the paper's
//!    simulation methodology, §5.3), per-round metrics, the derived client
//!    graph `G_clients` ([`graph`]) and the specialization metrics of
//!    §4.3: its Louvain partition, modularity and misclassification.
//! 4. **The asynchronous execution mode** ([`AsyncSimulation`]): the
//!    round-free reality of §5.3.3 as a discrete-event simulation —
//!    per-client tangle replicas, per-link [`DelayModel`]s, compute-speed
//!    heterogeneity ([`ComputeProfile`]), stale-tip handling
//!    ([`StaleTipPolicy`]) and throughput metrics ([`AsyncMetrics`]).
//!    Both simulators share the [`ExecutionMode`] trait, so analysis code
//!    runs against either.
//! 5. **Poisoning scenarios** ([`PoisoningScenario`]): flipped-label
//!    attacks with clean warm-up, mid-run dataset manipulation and the
//!    misprediction / approved-poison metrics of §5.3.4.
//! 6. **The transport seam** ([`Transport`], [`GossipMessage`],
//!    [`Replica`]): every inter-client effect travels as an explicit
//!    message. The deterministic [`LoopbackTransport`] drives the
//!    simulator bit-identically; the std-only [`TcpTransport`] with the
//!    versioned [`wire`] format and tangle snapshot sync drives the real
//!    networked mode behind `dagfl peer` / `dagfl tracker`.
//! 7. **Deterministic fault injection** ([`FaultyTransport`],
//!    [`FaultPlan`]): a transport decorator that drops, duplicates,
//!    reorders and delays deliveries, opens scripted partitions and
//!    crashes peers — all sampled from a seed-derived RNG stream, so
//!    chaos runs are exactly reproducible.
//!
//! # Quickstart
//!
//! ```
//! use dagfl_core::{DagConfig, Simulation};
//! use dagfl_datasets::{fmnist_clustered, FmnistConfig};
//! use dagfl_nn::{Dense, Model, Relu, Sequential};
//!
//! # fn main() -> Result<(), dagfl_core::CoreError> {
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
//! let features = dataset.feature_len();
//! let mut sim = Simulation::new(config, dataset, std::sync::Arc::new(move |rng| {
//!     Box::new(Sequential::new(vec![
//!         Box::new(Dense::new(rng, features, 16)),
//!         Box::new(Relu::new()),
//!         Box::new(Dense::new(rng, 16, 10)),
//!     ])) as Box<dyn Model>
//! }));
//! let metrics = sim.run()?;
//! assert_eq!(metrics.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! [`dagfl-tangle`]: ../dagfl_tangle/index.html
//! [`dagfl-nn`]: ../dagfl_nn/index.html
//! [`dagfl-datasets`]: ../dagfl_datasets/index.html

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
mod async_sim;
mod attackers;
mod client;
mod config;
pub mod csv;
mod delay;
mod error;
mod evaluator;
mod exec;
mod fanout;
mod fault;
pub mod graph;
mod louvain;
mod metrics;
mod net;
mod payload;
mod peer;
mod poisoning;
mod replica;
mod seed;
mod simulation;
mod tip_selection;
mod transport;
pub mod wire;

pub use dagfl_nn::ModelFactory;

pub use async_sim::{ActivationRecord, AsyncConfig, AsyncMetrics, AsyncSimulation};
pub use attackers::{GarbageAttackConfig, GarbageAttackScenario, GarbageRoundMetrics};
pub use client::{DagClient, TrainOutcome};
pub use config::{
    key, DagConfig, Key, KeyVisitor, Normalization, PublishGate, Range, RangeCheck, Slot,
    TipSelector,
};
pub use delay::{ComputeProfile, DelayModel, StaleTipPolicy};
pub use error::CoreError;
pub use evaluator::{EvalCounters, ModelEvaluator};
pub use exec::ExecutionMode;
pub use fanout::fan_out;
pub use fault::{CrashWindow, FaultPlan, FaultyTransport, PartitionWindow, FAULT_STREAM};
pub use metrics::{
    approval_pureness_of, client_graph_of, tangle_digest, weights_hash, ClientGraphTracker,
    RoundMetrics, SpecializationMetrics,
};
pub use net::{
    have_set, tracker_join, tracker_leave, ControlEvent, TcpTransport, Tracker, TrackerSummary,
};
pub use payload::{retire_payloads, weights_of, ModelPayload, ModelTangle, ShardedModelTangle};
pub use peer::{run_peer, PeerConfig, PeerReport};
pub use poisoning::{PoisonRoundMetrics, PoisoningConfig, PoisoningScenario};
pub use replica::{Replica, ReplicaTangle, SegmentRegistry, GENESIS_NET_ID};
pub use seed::{derive_seed, specialization_seed};
pub use simulation::{ReferenceEvaluation, Simulation};
pub use tip_selection::AccuracyBias;
pub use transport::{
    Envelope, GossipMessage, LoopbackTransport, Transport, TransportStats, TxMessage,
};
pub use wire::{PeerInfo, WireError, WireMessage};
