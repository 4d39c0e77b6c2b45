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
//! # Ordering
//!
//! A [`Graph`] keeps each node's neighbours in a list sorted by neighbour
//! id, and every sum over neighbours — [`Graph::degree`], [`modularity`],
//! Louvain's community links and its aggregation — runs in that
//! ascending order. The same edges therefore give the same bits however
//! they were added and in whichever process, for any finite weights, not
//! only for the whole-number approval counts of the client graph.
//! Louvain's local moving gathers a node's links into dense
//! per-community arrays: one visit costs `O(d + t log t)` for a node of
//! degree `d` with neighbours in `t ≤ d` communities, with no hashing.
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
///
/// Each node's neighbours are kept sorted by id, and every neighbour sum
/// runs in ascending-id order (see the [module docs](self#ordering)).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(usize, f64)>>,
    loops: Vec<f64>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
            loops: vec![0.0; n],
        }
    }

    /// A graph from adjacency lists that are already symmetric, sorted by
    /// neighbour id and free of self-entries, and the self-loop weights.
    pub(crate) fn from_sorted(adjacency: Vec<Vec<(usize, f64)>>, loops: Vec<f64>) -> Self {
        debug_assert_eq!(adjacency.len(), loops.len());
        debug_assert!(adjacency
            .iter()
            .enumerate()
            .all(|(i, adj)| adj.windows(2).all(|w| w[0].0 < w[1].0)
                && adj.iter().all(|&(j, _)| j != i)));
        Self { adjacency, loops }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Adds `weight` to the edge between `a` and `b` (accumulating).
    ///
    /// Finds the edge by binary search in each endpoint's sorted list:
    /// `O(log d)` to accumulate, plus `O(d)` to insert a new neighbour.
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
            add_to_sorted(&mut self.adjacency[a], b, weight);
            add_to_sorted(&mut self.adjacency[b], a, weight);
        }
    }

    /// The self-loop weight of `a`.
    pub fn loop_weight(&self, a: usize) -> f64 {
        self.loops[a]
    }

    /// Iterator over `(neighbor, weight)` pairs of `a` (excluding any
    /// self-loop), in ascending neighbour id.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adjacency[a].iter().copied()
    }

    /// Weighted degree of `a`; self-loops count twice per convention.
    /// The neighbour weights are summed in ascending neighbour id.
    pub fn degree(&self, a: usize) -> f64 {
        self.adjacency[a].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.loops[a]
    }

    /// Total edge weight `m` (each undirected edge counted once, self-loops
    /// counted once), summed in the order of [`Graph::edges`]: `O(n + E)`.
    pub fn total_weight(&self) -> f64 {
        self.upper_edges().fold(0.0, |m, (_, _, w)| m + w)
    }

    /// All edges as `(a, b, weight)` with `a <= b`, sorted by `(a, b)`.
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        self.upper_edges().collect()
    }

    /// Each edge once, from its lower end, in ascending `(a, b)`.
    fn upper_edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, adj)| {
            let above = adj.partition_point(|&(j, _)| j < i);
            let own_loop = (self.loops[i] > 0.0).then_some((i, i, self.loops[i]));
            own_loop
                .into_iter()
                .chain(adj[above..].iter().map(move |&(j, w)| (i, j, w)))
        })
    }
}

/// Adds `weight` to `to`'s entry of the sorted list `adj`, inserting the
/// entry in order if it is new.
fn add_to_sorted(adj: &mut Vec<(usize, f64)>, to: usize, weight: f64) {
    match adj.binary_search_by_key(&to, |&(j, _)| j) {
        Ok(at) => adj[at].1 += weight,
        Err(at) => adj.insert(at, (to, weight)),
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

    /// One graph with non-whole weights, rebuilt from its edges in many
    /// shuffled orders (each edge added once, endpoints swapped at
    /// random): every sum must come out with the same bits, whatever the
    /// insertion order and whatever per-container state a rebuild gets.
    #[test]
    fn rebuilds_in_any_edge_order_give_identical_bits() {
        use rand::seq::SliceRandom;
        use rand::Rng;

        const N: usize = 40;
        let mut edges: Vec<(usize, usize, f64)> = (0..N)
            .flat_map(|i| [1, 3, 7, 17].map(|d| (i, (i + d) % N)))
            .chain([(0, 0), (5, 5), (23, 23)])
            .enumerate()
            .map(|(k, (a, b))| (a, b, 0.1 + k as f64 * 0.37))
            .collect();
        let partition: Vec<usize> = (0..N).map(|i| i % 4).collect();
        let fingerprint = |g: &Graph| {
            let degrees: Vec<u64> = (0..N).map(|i| g.degree(i).to_bits()).collect();
            let edges: Vec<(usize, usize, u64)> = g
                .edges()
                .into_iter()
                .map(|(a, b, w)| (a, b, w.to_bits()))
                .collect();
            let q = modularity(g, &partition).to_bits();
            (degrees, edges, q, specialization_partition(g, 9))
        };
        let mut reference = None;
        for rebuild in 0..24 {
            let mut rng = StdRng::seed_from_u64(rebuild);
            edges.shuffle(&mut rng);
            let mut g = Graph::new(N);
            for &(a, b, w) in &edges {
                if rng.gen::<bool>() {
                    g.add_edge(a, b, w);
                } else {
                    g.add_edge(b, a, w);
                }
            }
            let got = fingerprint(&g);
            match &reference {
                None => reference = Some(got),
                Some(first) => assert_eq!(&got, first, "rebuild {rebuild} differs"),
            }
        }
    }
}
