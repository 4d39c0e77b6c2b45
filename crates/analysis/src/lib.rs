//! **dagfl-analysis** — the specialization analytics subsystem:
//! clustering over client models beside the §4.3 approval-graph partition.
//!
//! The paper demonstrates *implicit* model specialization by eyeballing
//! approval-graph structure. This crate measures it, without ground
//! truth in the loop and deterministically enough to put the numbers in
//! golden-checked CSVs:
//!
//! * [`kmeans`] / [`auto_k`] — seeded, deterministic k-means over flat
//!   client parameter vectors (k-means++ init from a
//!   [`derive_seed`](dagfl_core::derive_seed) stream, deterministic
//!   empty-cluster reseeding, fixed iteration order).
//! * [`silhouette_score`], [`cluster_purity`], [`adjusted_rand_index`]
//!   — the quality metrics; silhouette is unsupervised and drives
//!   auto-k, purity and ARI score against the dataset's ground-truth
//!   clusters.
//! * [`analyze`] — the per-round pipeline producing an
//!   [`AnalysisSnapshot`]: the k-means view, the approval-graph view and
//!   their agreement (ARI between the two partitions). The graph view is
//!   the §4.3 Louvain partition itself
//!   ([`specialization_partition`](dagfl_core::graph::specialization_partition)
//!   under [`specialization_seed`](dagfl_core::specialization_seed)), so on
//!   a round that also records the specialization metrics the two agree
//!   bit for bit.
//!
//! The scenario layer drives [`analyze`] on a cadence and folds the
//! snapshots into `RunReport`s and sweep CSVs; `dagfl analyze` prints
//! them interactively. Everything here is a pure function of its
//! inputs — the determinism contract the `--jobs`-invariance tests
//! assert end to end.
//!
//! # Example
//!
//! ```
//! use dagfl_analysis::{kmeans, KMeansConfig};
//!
//! let points = vec![
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.0],
//!     vec![5.0, 5.0],
//!     vec![5.1, 5.0],
//! ];
//! let result = kmeans(&points, &KMeansConfig { k: 2, ..KMeansConfig::default() });
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod kmeans;
mod metrics;
mod pipeline;

pub use kmeans::{auto_k, kmeans, KMeansConfig, KMeansResult};
pub use metrics::{adjusted_rand_index, cluster_purity, silhouette_score};
pub use pipeline::{
    analyze, AnalysisConfig, AnalysisSnapshot, AnalysisSource, GraphClustering, KSelection,
    ParameterClustering,
};
