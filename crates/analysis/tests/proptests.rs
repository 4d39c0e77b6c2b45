//! Property-based tests for the analytics subsystem's determinism and
//! metric-range contracts.

use dagfl_analysis::{
    adjusted_rand_index, analyze, cluster_purity, kmeans, silhouette_score, AnalysisConfig,
    AnalysisSource, KMeansConfig,
};
use dagfl_core::graph::Graph;
use proptest::prelude::*;

/// A set of same-length points with bounded coordinates.
fn arbitrary_points(max_points: usize, max_dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1..=max_points, 1..=max_dim).prop_flat_map(|(n, dim)| {
        proptest::collection::vec(
            proptest::collection::vec(-100.0f32..100.0, dim..=dim),
            n..=n,
        )
    })
}

/// A node count and integer-weighted edges over it: the weights the
/// program builds are approval counts.
fn integer_edges(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (1..=max_nodes).prop_flat_map(move |n| {
        (
            n..=n,
            proptest::collection::vec((0..n, 0..n, 1u8..=5), 0..max_edges),
        )
    })
}

fn build(n: usize, edges: &[(usize, usize, u8)]) -> Graph {
    let mut g = Graph::new(n);
    for &(a, b, w) in edges {
        g.add_edge(a, b, f64::from(w));
    }
    g
}

/// The approval-graph view alone, against ground truth `i % 3`.
fn graph_view(round: usize, graph: &Graph, seed: u64) -> dagfl_analysis::GraphClustering {
    let truth: Vec<usize> = (0..graph.num_nodes()).map(|i| i % 3).collect();
    let config = AnalysisConfig {
        source: AnalysisSource::Approvals,
        seed,
        ..AnalysisConfig::default()
    };
    analyze(round, None, Some(graph), &truth, &config)
        .graph
        .expect("approvals requested")
}

/// Cluster purity as it was first written, one scan per cluster: the
/// oracle `cluster_purity` must match bit for bit.
fn purity_oracle(assignments: &[usize], truth: &[usize]) -> f64 {
    let n = assignments.len();
    if n == 0 {
        return 0.0;
    }
    let mut clusters: Vec<usize> = assignments.to_vec();
    clusters.sort_unstable();
    clusters.dedup();
    let mut credited = 0usize;
    for &c in &clusters {
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for (a, &t) in assignments.iter().zip(truth) {
            if *a == c {
                match counts.iter_mut().find(|(label, _)| *label == t) {
                    Some((_, count)) => *count += 1,
                    None => counts.push((t, 1)),
                }
            }
        }
        credited += counts.iter().map(|(_, count)| *count).max().unwrap_or(0);
    }
    credited as f64 / n as f64
}

proptest! {
    #[test]
    fn kmeans_same_seed_is_deterministic(
        points in arbitrary_points(12, 4),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let config = KMeansConfig { k, seed };
        let a = kmeans(&points, &config);
        let b = kmeans(&points, &config);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn kmeans_assignments_are_permutation_invariant_up_to_relabeling(
        k in 2usize..5,
        per_blob in 2usize..5,
        dim in 1usize..4,
        jitter in proptest::collection::vec(-0.5f32..0.5, 0..64),
        priorities in proptest::collection::vec(any::<u32>(), 16..=16),
        seed in any::<u64>(),
    ) {
        // On separable data, clustering the clients in any order must
        // induce the same partition of the *clients* — cluster ids may
        // differ, so equality is checked as ARI == 1.0. Blobs are spaced
        // far enough apart that k-means++ recovers them from every
        // permutation of the input; only an order-dependence bug in the
        // init, assignment or update loops could break the property.
        let n = k * per_blob;
        let points: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let blob = i % k;
                (0..dim)
                    .map(|d| {
                        let j = jitter.get((i * dim + d) % jitter.len().max(1)).copied().unwrap_or(0.0);
                        (blob as f32) * 1.0e4 + j
                    })
                    .collect()
            })
            .collect();
        // A permutation from the random priorities: argsort with index
        // tie-break.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (priorities[i % priorities.len()], i));
        let permuted: Vec<Vec<f32>> = order.iter().map(|&i| points[i].clone()).collect();
        let config = KMeansConfig { k, seed };
        let base = kmeans(&points, &config);
        let shuffled = kmeans(&permuted, &config);
        // Map the permuted assignment back onto original client indices.
        let mut unpermuted = vec![0usize; n];
        for (j, &c) in shuffled.assignments.iter().enumerate() {
            unpermuted[order[j]] = c;
        }
        let ari = adjusted_rand_index(&base.assignments, &unpermuted);
        prop_assert!((ari - 1.0).abs() < 1e-12, "ari = {ari}");
    }

    #[test]
    fn silhouette_stays_in_unit_interval(
        points in arbitrary_points(12, 4),
        labels in proptest::collection::vec(0usize..5, 1..12),
    ) {
        let n = points.len().min(labels.len());
        let score = silhouette_score(&points[..n], &labels[..n]);
        prop_assert!((-1.0..=1.0).contains(&score), "score = {score}");
    }

    #[test]
    fn analyze_graph_view_labels_every_node(
        (n, edges) in integer_edges(14, 40),
        round in 0usize..50,
        seed in any::<u64>(),
    ) {
        let view = graph_view(round, &build(n, &edges), seed);
        prop_assert_eq!(view.communities.len(), n);
        // Labels are dense: 0..community_count.
        prop_assert!(view.communities.iter().all(|&l| l < view.community_count));
        prop_assert!((1..=n).contains(&view.community_count));
    }

    #[test]
    fn analyze_graph_view_is_bit_deterministic(
        (n, edges) in integer_edges(10, 25),
        round in 0usize..50,
        seed in any::<u64>(),
    ) {
        // Twice on one graph and once on a rebuilt copy: the same
        // partition and the same bits in every score.
        let g = build(n, &edges);
        let a = graph_view(round, &g, seed);
        for b in [graph_view(round, &g, seed), graph_view(round, &build(n, &edges), seed)] {
            prop_assert_eq!(&a.communities, &b.communities);
            prop_assert_eq!(a.community_count, b.community_count);
            prop_assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
            prop_assert_eq!(a.purity.to_bits(), b.purity.to_bits());
            prop_assert_eq!(a.ari.to_bits(), b.ari.to_bits());
        }
    }

    #[test]
    fn purity_matches_the_per_cluster_scan_oracle(
        labels in proptest::collection::vec(0usize..5, 0..30),
        truth in proptest::collection::vec(0usize..5, 0..30),
    ) {
        let n = labels.len().min(truth.len());
        let (labels, truth) = (&labels[..n], &truth[..n]);
        prop_assert_eq!(
            cluster_purity(labels, truth).to_bits(),
            purity_oracle(labels, truth).to_bits()
        );
    }

    #[test]
    fn ari_of_identical_partitions_is_one(
        labels in proptest::collection::vec(0usize..6, 1..20),
        offset in 1usize..9,
    ) {
        let relabeled: Vec<usize> = labels.iter().map(|&l| l + offset).collect();
        let ari = adjusted_rand_index(&labels, &relabeled);
        prop_assert!((ari - 1.0).abs() < 1e-12, "ari = {ari}");
    }
}
