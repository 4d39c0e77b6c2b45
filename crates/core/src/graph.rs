//! The derived client graph `G_clients` and the §4.3 metrics over it.
//!
//! The paper quantifies cluster formation in the DAG through a client
//! graph whose edge weight is the number of mutual approvals between two
//! clients, and three metrics of its Louvain partition:
//!
//! * its **modularity** ([`modularity`]),
//! * the **number of partitions** [`louvain`] finds ([`partition_count`]),
//! * the **misclassification fraction** against the ground-truth clusters
//!   ([`misclassification_fraction`]).
//!
//! [`specialization_partition`] is the one place that partition is drawn:
//! [`ExecutionMode::specialization_metrics_seeded`](crate::ExecutionMode::specialization_metrics_seeded)
//! and the analysis layer's graph view both read it.
//!
//! # Example
//!
//! ```
//! use dagfl_core::graph::{louvain, modularity, Graph};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two triangles joined by a single weak edge.
//! let mut g = Graph::new(6);
//! for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     g.add_edge(a, b, 1.0);
//! }
//! g.add_edge(2, 3, 0.1);
//! let partition = louvain(&g, &mut StdRng::seed_from_u64(0));
//! assert_eq!(partition[0], partition[1]);
//! assert_ne!(partition[0], partition[5]);
//! assert!(modularity(&g, &partition) > 0.4);
//! ```

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::louvain::louvain;
pub use crate::metrics::{
    compact_labels, majority_count, misclassification_fraction, modularity, partition_count,
};

/// The §4.3 partition of `graph`: Louvain, with its node visit order
/// drawn from `seed`.
pub fn specialization_partition(graph: &Graph, seed: u64) -> Vec<usize> {
    louvain(graph, &mut StdRng::seed_from_u64(seed))
}

/// An undirected graph with non-negative edge weights over nodes `0..n`.
///
/// Parallel edges accumulate: adding the same edge twice sums the weights,
/// which matches how the client graph counts approvals. Self-loops are
/// supported (they arise during Louvain aggregation) and follow the usual
/// convention of contributing twice to a node's weighted degree.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<HashMap<usize, f64>>,
    loops: Vec<f64>,
    edge_weight_total: f64,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![HashMap::new(); n],
            loops: vec![0.0; n],
            edge_weight_total: 0.0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Adds `weight` to the edge between `a` and `b` (accumulating).
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range or `weight` is negative/non-finite.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) {
        let n = self.num_nodes();
        assert!(
            a < n && b < n,
            "node out of range: ({a}, {b}) with {n} nodes"
        );
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        if weight == 0.0 {
            return;
        }
        if a == b {
            self.loops[a] += weight;
        } else {
            *self.adjacency[a].entry(b).or_insert(0.0) += weight;
            *self.adjacency[b].entry(a).or_insert(0.0) += weight;
        }
        self.edge_weight_total += weight;
    }

    /// The self-loop weight of `a`.
    pub fn loop_weight(&self, a: usize) -> f64 {
        self.loops[a]
    }

    /// Iterator over `(neighbor, weight)` pairs of `a` (excluding any
    /// self-loop).
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adjacency[a].iter().map(|(&j, &w)| (j, w))
    }

    /// Weighted degree of `a`; self-loops count twice per convention.
    pub fn degree(&self, a: usize) -> f64 {
        self.adjacency[a].values().sum::<f64>() + 2.0 * self.loops[a]
    }

    /// Total edge weight `m` (each undirected edge counted once, self-loops
    /// counted once).
    pub fn total_weight(&self) -> f64 {
        self.edge_weight_total
    }

    /// All edges as `(a, b, weight)` with `a <= b`, sorted for determinism.
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for (i, adj) in self.adjacency.iter().enumerate() {
            if self.loops[i] > 0.0 {
                out.push((i, i, self.loops[i]));
            }
            for (&j, &w) in adj {
                if j > i {
                    out.push((i, j, w));
                }
            }
        }
        out.sort_by_key(|e| (e.0, e.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(4);
        assert_eq!(g.num_nodes(), 4);
        assert!(g.edges().is_empty());
        assert_eq!(g.total_weight(), 0.0);
        assert_eq!(g.degree(0), 0.0);
    }

    #[test]
    fn add_edge_is_symmetric() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.5);
        assert_eq!(g.edges(), vec![(0, 1, 2.5)]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(0, 2.5)]);
        assert_eq!(g.total_weight(), 2.5);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.0);
        assert_eq!(g.edges(), vec![(0, 1, 3.0)]);
        assert_eq!(g.total_weight(), 3.0);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let mut g = Graph::new(2);
        g.add_edge(0, 0, 1.5);
        g.add_edge(0, 1, 1.0);
        assert_eq!(g.degree(0), 4.0);
        assert_eq!(g.degree(1), 1.0);
        assert_eq!(g.loop_weight(0), 1.5);
        assert_eq!(g.total_weight(), 2.5);
    }

    #[test]
    fn zero_weight_edges_are_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 0.0);
        assert!(g.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        Graph::new(2).add_edge(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        Graph::new(2).add_edge(0, 1, -1.0);
    }

    #[test]
    fn edges_are_sorted_and_deduplicated() {
        let mut g = Graph::new(4);
        g.add_edge(2, 1, 1.0);
        g.add_edge(0, 3, 2.0);
        g.add_edge(1, 1, 0.5);
        assert_eq!(g.edges(), vec![(0, 3, 2.0), (1, 1, 0.5), (1, 2, 1.0)]);
    }

    #[test]
    fn neighbors_excludes_self_loop() {
        let mut g = Graph::new(3);
        g.add_edge(0, 0, 1.0);
        g.add_edge(0, 2, 3.0);
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(2, 3.0)]);
    }

    #[test]
    fn degree_sums_match_two_m() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(3, 3, 0.5);
        let degree_sum: f64 = (0..4).map(|i| g.degree(i)).sum();
        assert!((degree_sum - 2.0 * g.total_weight()).abs() < 1e-12);
    }
}
