//! The Louvain community-detection algorithm (Blondel et al., 2008).

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
/// Every sum runs in ascending neighbour id (see the
/// [`graph` module docs](crate::graph#ordering)) and candidate communities
/// are weighed in ascending id, so the partition does not depend on the
/// order edges were added in, for any finite weights. One node visit costs
/// `O(d + t log t)` for a node of degree `d` with neighbours in `t ≤ d`
/// communities: links are gathered in dense per-community arrays, with no
/// hashing and no allocation.
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
    let mut links = Links::new(n);
    // The condensed graph of the last level; the first level reads `graph`.
    let mut condensed: Option<Graph> = None;
    loop {
        let working = condensed.as_ref().unwrap_or(graph);
        let local = one_level(working, &mut links, rng);
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
        condensed = Some(aggregate(working, &compact, communities, &mut links));
    }
}

/// Link weights from one node (or community) into its neighbouring
/// communities: dense arrays indexed by community, plus the list of
/// communities touched since the last [`Links::drain`]. Sized once for
/// the input graph; every level after the first is smaller.
struct Links {
    weight: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
}

impl Links {
    fn new(n: usize) -> Self {
        Self {
            weight: vec![0.0; n],
            seen: vec![false; n],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, community: usize, w: f64) {
        if !self.seen[community] {
            self.seen[community] = true;
            self.touched.push(community);
        }
        self.weight[community] += w;
    }

    /// The weight gathered into `community` so far (0 when untouched).
    fn get(&self, community: usize) -> f64 {
        self.weight[community]
    }

    /// Calls `f(community, weight)` for every touched community in
    /// ascending id, and resets them all to untouched.
    fn drain(&mut self, mut f: impl FnMut(usize, f64)) {
        self.touched.sort_unstable();
        for &c in &self.touched {
            f(c, self.weight[c]);
            self.weight[c] = 0.0;
            self.seen[c] = false;
        }
        self.touched.clear();
    }
}

/// Phase 1: move nodes greedily between neighbouring communities until no
/// move yields a positive modularity gain. Returns the community per node.
fn one_level<R: Rng>(graph: &Graph, links: &mut Links, rng: &mut R) -> Vec<usize> {
    let n = graph.num_nodes();
    let m = graph.total_weight();
    let mut community: Vec<usize> = (0..n).collect();
    let degree: Vec<f64> = (0..n).map(|i| graph.degree(i)).collect();
    // Σ_tot per community (sum of weighted degrees of members).
    let mut sigma_tot = degree.clone();
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
            let k_i = degree[node];
            let current = community[node];
            // Sum of edge weights from `node` into each neighbouring
            // community.
            for (neighbor, w) in graph.neighbors(node) {
                links.add(community[neighbor], w);
            }
            // Remove the node from its community.
            sigma_tot[current] -= k_i;
            // Best candidate: gain of inserting into community C is
            // proportional to w_(node->C) - Σ_tot(C) * k_i / 2m.
            let mut best_community = current;
            let mut best_gain = links.get(current) - sigma_tot[current] * k_i / two_m;
            links.drain(|c, w| {
                if c == current {
                    return;
                }
                let gain = w - sigma_tot[c] * k_i / two_m;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_community = c;
                }
            });
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
///
/// Communities are filled in ascending id, each from its members in
/// ascending id, so every list comes out sorted: a community's links to
/// lower ids were pushed while those were filled, and its links to higher
/// ids are pushed in ascending order from [`Links::drain`]. Each weight
/// between two communities is summed once and written to both ends.
fn aggregate(graph: &Graph, community: &[usize], communities: usize, links: &mut Links) -> Graph {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); communities];
    for (node, &c) in community.iter().enumerate() {
        members[c].push(node);
    }
    let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); communities];
    let mut loops = vec![0.0; communities];
    for (c, group) in members.iter().enumerate() {
        for &node in group {
            loops[c] += graph.loop_weight(node);
            for (neighbor, w) in graph.neighbors(node) {
                let d = community[neighbor];
                if d > c {
                    links.add(d, w);
                } else if d == c && neighbor > node {
                    // An intra-community edge, counted from its lower end.
                    loops[c] += w;
                }
            }
        }
        links.drain(|d, w| {
            adjacency[c].push((d, w));
            adjacency[d].push((c, w));
        });
    }
    Graph::from_sorted(adjacency, loops)
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
