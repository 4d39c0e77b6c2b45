//! The analysis pipeline: one call per measured round that turns raw
//! run state (client parameter vectors, the approval graph, ground
//! truth) into an [`AnalysisSnapshot`] of specialization metrics.
//!
//! The pipeline is pure: given the same inputs and configuration it
//! returns the same snapshot, on any thread and at any worker count —
//! all randomness flows from the configured seed through
//! [`derive_seed`](dagfl_core::derive_seed) streams. The scenario
//! runner embeds snapshots in `RunReport`s, so this purity is what the
//! `--jobs`-invariance tests ultimately lean on.

use dagfl_core::graph::{modularity, partition_count, specialization_partition, Graph};
use dagfl_core::specialization_seed;

use crate::kmeans::{auto_k, kmeans, KMeansConfig};
use crate::metrics::{adjusted_rand_index, cluster_purity, silhouette_score};

/// How the cluster count for the parameter-space view is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KSelection {
    /// Run k-means with exactly this many clusters.
    Fixed(usize),
    /// Sweep `min..=max` and keep the k with the best silhouette.
    Auto {
        /// Smallest cluster count to try (at least 2).
        min: usize,
        /// Largest cluster count to try.
        max: usize,
    },
}

impl Default for KSelection {
    fn default() -> Self {
        Self::Auto { min: 2, max: 6 }
    }
}

/// Which run state feeds the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisSource {
    /// Cluster the flat client parameter vectors only.
    Parameters,
    /// Detect communities in the approval graph only.
    Approvals,
    /// Both views, plus their agreement ARI.
    #[default]
    Both,
}

impl AnalysisSource {
    /// Whether the parameter-space (k-means) view runs.
    pub fn wants_parameters(self) -> bool {
        matches!(self, Self::Parameters | Self::Both)
    }

    /// Whether the approval-graph (community) view runs.
    pub fn wants_approvals(self) -> bool {
        matches!(self, Self::Approvals | Self::Both)
    }
}

/// Configuration of one [`analyze`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisConfig {
    /// Cluster-count selection for the parameter-space view.
    pub k: KSelection,
    /// Which views to compute.
    pub source: AnalysisSource,
    /// Master seed: k-means draws derive from it, and the graph view's
    /// Louvain order from it and the round, as the run's own §4.3
    /// partition does.
    pub seed: u64,
}

/// The parameter-space (k-means) half of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterClustering {
    /// The cluster count actually used (after auto-k / clamping).
    pub k: usize,
    /// Cluster index per client, in client order.
    pub assignments: Vec<usize>,
    /// Mean silhouette of the assignment, in `[-1, 1]`.
    pub silhouette: f64,
    /// Purity against the dataset's ground-truth clusters.
    pub purity: f64,
    /// Adjusted Rand index against the ground-truth clusters.
    pub ari: f64,
}

/// The approval-graph half of a snapshot: the §4.3 Louvain partition.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphClustering {
    /// Community index per client, in client order.
    pub communities: Vec<usize>,
    /// Number of distinct communities.
    pub community_count: usize,
    /// Newman–Girvan modularity of the community partition.
    pub modularity: f64,
    /// Purity against the dataset's ground-truth clusters.
    pub purity: f64,
    /// Adjusted Rand index against the ground-truth clusters.
    pub ari: f64,
}

/// One measured round of specialization analytics.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSnapshot {
    /// The round the snapshot was taken after (1-based; equals the
    /// final round for end-of-run snapshots).
    pub round: usize,
    /// Parameter-space view, when the source includes parameters.
    pub parameters: Option<ParameterClustering>,
    /// Approval-graph view, when the source includes approvals.
    pub graph: Option<GraphClustering>,
    /// ARI between the two views' partitions, when both ran.
    pub agreement_ari: Option<f64>,
}

/// Runs the configured views over one round's raw state.
///
/// `params` holds one flat parameter vector per client and `graph` the
/// client approval graph; either may be `None` when the source does not
/// need it. `truth` is the dataset's ground-truth cluster label per
/// client, used for purity and ARI. The graph view partitions with
/// [`specialization_partition`] seeded by
/// [`specialization_seed`]`(config.seed, round)`: after `round` rounds
/// of a run seeded with `config.seed`, it is the partition the run's
/// specialization metrics report.
pub fn analyze(
    round: usize,
    params: Option<&[Vec<f32>]>,
    graph: Option<&Graph>,
    truth: &[usize],
    config: &AnalysisConfig,
) -> AnalysisSnapshot {
    let parameters = match (config.source.wants_parameters(), params) {
        (true, Some(points)) => {
            let base = KMeansConfig {
                seed: config.seed,
                ..KMeansConfig::default()
            };
            let result = match config.k {
                KSelection::Fixed(k) => kmeans(points, &KMeansConfig { k, ..base }),
                KSelection::Auto { min, max } => auto_k(points, min, max, &base),
            };
            let silhouette = silhouette_score(points, &result.assignments);
            Some(ParameterClustering {
                k: result.k,
                purity: cluster_purity(&result.assignments, truth),
                ari: adjusted_rand_index(&result.assignments, truth),
                silhouette,
                assignments: result.assignments,
            })
        }
        _ => None,
    };
    let graph = match (config.source.wants_approvals(), graph) {
        (true, Some(g)) => {
            let communities =
                specialization_partition(g, specialization_seed(config.seed, round as u64));
            Some(GraphClustering {
                modularity: modularity(g, &communities),
                purity: cluster_purity(&communities, truth),
                ari: adjusted_rand_index(&communities, truth),
                community_count: partition_count(&communities),
                communities,
            })
        }
        _ => None,
    };
    let agreement_ari = match (&parameters, &graph) {
        (Some(p), Some(g)) => Some(adjusted_rand_index(&p.assignments, &g.communities)),
        _ => None,
    };
    AnalysisSnapshot {
        round,
        parameters,
        graph,
        agreement_ari,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_points() -> Vec<Vec<f32>> {
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![9.0, 9.0],
            vec![9.1, 9.1],
        ]
    }

    fn clique_graph() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 4.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(1, 2, 0.5);
        g
    }

    #[test]
    fn both_views_agree_on_clean_structure() {
        let truth = [0, 0, 1, 1];
        let snapshot = analyze(
            3,
            Some(&blob_points()),
            Some(&clique_graph()),
            &truth,
            &AnalysisConfig {
                k: KSelection::Fixed(2),
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(snapshot.round, 3);
        let p = snapshot.parameters.expect("parameter view");
        assert_eq!(p.k, 2);
        assert!((p.purity - 1.0).abs() < 1e-12);
        assert!((p.ari - 1.0).abs() < 1e-12);
        let g = snapshot.graph.expect("graph view");
        assert_eq!(g.community_count, 2);
        assert!((g.ari - 1.0).abs() < 1e-12);
        assert!((snapshot.agreement_ari.expect("agreement") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_gates_the_views() {
        let truth = [0, 0, 1, 1];
        let params_only = analyze(
            1,
            Some(&blob_points()),
            Some(&clique_graph()),
            &truth,
            &AnalysisConfig {
                source: AnalysisSource::Parameters,
                ..AnalysisConfig::default()
            },
        );
        assert!(params_only.parameters.is_some());
        assert!(params_only.graph.is_none());
        assert!(params_only.agreement_ari.is_none());
        let approvals_only = analyze(
            1,
            Some(&blob_points()),
            Some(&clique_graph()),
            &truth,
            &AnalysisConfig {
                source: AnalysisSource::Approvals,
                ..AnalysisConfig::default()
            },
        );
        assert!(approvals_only.parameters.is_none());
        assert!(approvals_only.graph.is_some());
    }

    #[test]
    fn auto_k_selection_is_used_by_default() {
        let truth = [0, 0, 1, 1];
        let snapshot = analyze(
            1,
            Some(&blob_points()),
            None,
            &truth,
            &AnalysisConfig::default(),
        );
        let p = snapshot.parameters.expect("parameter view");
        assert_eq!(p.k, 2, "auto-k should find the two blobs");
    }

    #[test]
    fn analyze_is_deterministic() {
        let truth = [0, 0, 1, 1];
        let run = || {
            analyze(
                2,
                Some(&blob_points()),
                Some(&clique_graph()),
                &truth,
                &AnalysisConfig::default(),
            )
        };
        assert_eq!(run(), run());
    }
}
