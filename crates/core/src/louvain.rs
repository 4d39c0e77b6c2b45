//! The Louvain community-detection algorithm (Blondel et al., 2008).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{compact_labels, Graph};

/// Detects communities by greedy modularity optimisation.
///
/// Implements the standard two-phase Louvain loop: local moving of nodes
/// between neighbouring communities until no single move improves
/// modularity, then aggregation of communities into super-nodes, repeated
/// until the partition stabilises. Node visit order is shuffled with `rng`,
/// so results are deterministic for a fixed seed.
///
/// Returns one dense community label per node. Isolated nodes end up in
/// singleton communities.
///
/// # Example
///
/// ```
/// use dagfl_core::graph::{louvain, Graph};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1, 5.0);
/// g.add_edge(2, 3, 5.0);
/// let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// ```
pub fn louvain<R: Rng>(graph: &Graph, rng: &mut R) -> Vec<usize> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    // node -> community in the original graph.
    let mut membership: Vec<usize> = (0..n).collect();
    let mut working = graph.clone();
    loop {
        let local = one_level(&working, rng);
        let compact = compact_labels(&local);
        let communities = compact.iter().copied().max().map_or(0, |m| m + 1);
        // Map original nodes through this level's assignment.
        for label in membership.iter_mut() {
            *label = compact[*label];
        }
        if communities == working.num_nodes() {
            // No merge happened at this level; we are done.
            return compact_labels(&membership);
        }
        working = aggregate(&working, &compact, communities);
    }
}

/// Phase 1: move nodes greedily between neighbouring communities until no
/// move yields a positive modularity gain. Returns the community per node.
fn one_level<R: Rng>(graph: &Graph, rng: &mut R) -> Vec<usize> {
    let n = graph.num_nodes();
    let m = graph.total_weight();
    let mut community: Vec<usize> = (0..n).collect();
    // Σ_tot per community (sum of weighted degrees of members).
    let mut sigma_tot: Vec<f64> = (0..n).map(|i| graph.degree(i)).collect();
    if m <= 0.0 {
        return community;
    }
    let two_m = 2.0 * m;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut improved = true;
    while improved {
        improved = false;
        for &node in &order {
            let k_i = graph.degree(node);
            let current = community[node];
            // Sum of edge weights from `node` into each neighbouring
            // community.
            let mut links: HashMap<usize, f64> = HashMap::new();
            for (neighbor, w) in graph.neighbors(node) {
                *links.entry(community[neighbor]).or_insert(0.0) += w;
            }
            // Remove the node from its community.
            sigma_tot[current] -= k_i;
            let w_current = links.get(&current).copied().unwrap_or(0.0);
            // Best candidate: gain of inserting into community C is
            // proportional to w_(node->C) - Σ_tot(C) * k_i / 2m.
            let mut best_community = current;
            let mut best_gain = w_current - sigma_tot[current] * k_i / two_m;
            // Deterministic iteration order over candidates.
            let mut candidates: Vec<(usize, f64)> = links.into_iter().collect();
            candidates.sort_by_key(|&(c, _)| c);
            for (c, w) in candidates {
                if c == current {
                    continue;
                }
                let gain = w - sigma_tot[c] * k_i / two_m;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_community = c;
                }
            }
            sigma_tot[best_community] += k_i;
            if best_community != current {
                community[node] = best_community;
                improved = true;
            }
        }
    }
    community
}

/// Phase 2: build the condensed graph whose nodes are the communities.
fn aggregate(graph: &Graph, community: &[usize], communities: usize) -> Graph {
    let mut out = Graph::new(communities);
    for node in 0..graph.num_nodes() {
        let c = community[node];
        if graph.loop_weight(node) > 0.0 {
            out.add_edge(c, c, graph.loop_weight(node));
        }
        for (neighbor, w) in graph.neighbors(node) {
            // Visit each undirected edge once.
            if neighbor > node {
                out.add_edge(c, community[neighbor], w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{modularity, partition_count};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Zachary's karate club (34 nodes, 78 edges) — the canonical community
    /// detection benchmark.
    pub(crate) fn karate_club() -> Graph {
        const EDGES: [(usize, usize); 78] = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (0, 6),
            (0, 7),
            (0, 8),
            (0, 10),
            (0, 11),
            (0, 12),
            (0, 13),
            (0, 17),
            (0, 19),
            (0, 21),
            (0, 31),
            (1, 2),
            (1, 3),
            (1, 7),
            (1, 13),
            (1, 17),
            (1, 19),
            (1, 21),
            (1, 30),
            (2, 3),
            (2, 7),
            (2, 8),
            (2, 9),
            (2, 13),
            (2, 27),
            (2, 28),
            (2, 32),
            (3, 7),
            (3, 12),
            (3, 13),
            (4, 6),
            (4, 10),
            (5, 6),
            (5, 10),
            (5, 16),
            (6, 16),
            (8, 30),
            (8, 32),
            (8, 33),
            (9, 33),
            (13, 33),
            (14, 32),
            (14, 33),
            (15, 32),
            (15, 33),
            (18, 32),
            (18, 33),
            (19, 33),
            (20, 32),
            (20, 33),
            (22, 32),
            (22, 33),
            (23, 25),
            (23, 27),
            (23, 29),
            (23, 32),
            (23, 33),
            (24, 25),
            (24, 27),
            (24, 31),
            (25, 31),
            (26, 29),
            (26, 33),
            (27, 33),
            (28, 31),
            (28, 33),
            (29, 32),
            (29, 33),
            (30, 32),
            (30, 33),
            (31, 32),
            (31, 33),
            (32, 33),
        ];
        let mut g = Graph::new(34);
        for (a, b) in EDGES {
            g.add_edge(a, b, 1.0);
        }
        g
    }

    #[test]
    fn separates_disconnected_cliques() {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b, 1.0);
        }
        let labels = louvain(&g, &mut StdRng::seed_from_u64(1));
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn karate_club_modularity_matches_literature() {
        let g = karate_club();
        let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
        let q = modularity(&g, &labels);
        // Louvain on the karate club reaches Q ≈ 0.41–0.42.
        assert!(q > 0.38, "modularity {q} below expected range");
        let k = partition_count(&labels);
        assert!((2..=6).contains(&k), "unexpected community count {k}");
    }

    #[test]
    fn karate_club_is_stable_across_seeds() {
        let g = karate_club();
        for seed in 0..5 {
            let labels = louvain(&g, &mut StdRng::seed_from_u64(seed));
            let q = modularity(&g, &labels);
            assert!(q > 0.35, "seed {seed} produced weak modularity {q}");
        }
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let g = Graph::new(0);
        assert!(louvain(&g, &mut StdRng::seed_from_u64(0)).is_empty());
    }

    #[test]
    fn edgeless_graph_yields_singletons() {
        let g = Graph::new(4);
        let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
        assert_eq!(partition_count(&labels), 4);
    }

    #[test]
    fn single_edge_merges_endpoints() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn weighted_edges_dominate_partitioning() {
        // A path 0-1-2-3 where the middle edge is weak.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 10.0);
        g.add_edge(1, 2, 0.1);
        g.add_edge(2, 3, 10.0);
        let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn louvain_never_decreases_modularity_vs_singletons() {
        let g = karate_club();
        let singletons: Vec<usize> = (0..g.num_nodes()).collect();
        let q0 = modularity(&g, &singletons);
        let labels = louvain(&g, &mut StdRng::seed_from_u64(3));
        let q1 = modularity(&g, &labels);
        assert!(q1 >= q0);
    }

    #[test]
    fn labels_are_dense() {
        let g = karate_club();
        let labels = louvain(&g, &mut StdRng::seed_from_u64(0));
        let k = partition_count(&labels);
        assert!(labels.iter().all(|&l| l < k));
    }
}
