//! Property-based tests for the client graph, Louvain and the §4.3
//! partition metrics.

use std::collections::HashMap;

use dagfl_core::graph::{
    compact_labels, louvain, misclassification_fraction, modularity, partition_count, Graph,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..5.0), 0..max_edges).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (a, b, w) in edges {
                g.add_edge(a, b, w);
            }
            g
        })
    })
}

/// A node count, integer-weighted edges over it (the weights the program
/// builds are approval counts) and a partition of its nodes.
fn integer_graph(
    max_nodes: usize,
    max_edges: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>, Vec<usize>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        (
            n..=n,
            proptest::collection::vec((0..n, 0..n, 1u8..=5), 0..max_edges),
            proptest::collection::vec(0..n, n..=n),
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

/// Connected components of the graph; returns a dense component label per
/// node (isolated nodes form their own components). The oracle of
/// `louvain_never_splits_connected_components_apart`.
fn connected_components(graph: &Graph) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0;
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        labels[start] = next;
        while let Some(node) = stack.pop() {
            for (neighbor, _) in graph.neighbors(node) {
                if labels[neighbor] == usize::MAX {
                    labels[neighbor] = next;
                    stack.push(neighbor);
                }
            }
        }
        next += 1;
    }
    labels
}

/// The misclassification fraction as it was first written, through a
/// map from each group to its majority label (ties to the smallest): the
/// oracle `misclassification_fraction` must match bit for bit.
fn misclassification_oracle(partition: &[usize], truth: &[usize]) -> f64 {
    if partition.is_empty() {
        return 0.0;
    }
    let mut counts: HashMap<usize, HashMap<usize, usize>> = HashMap::new();
    for (&p, &t) in partition.iter().zip(truth) {
        *counts.entry(p).or_default().entry(t).or_insert(0) += 1;
    }
    let majorities: HashMap<usize, usize> = counts
        .into_iter()
        .map(|(p, label_counts)| {
            let majority = label_counts
                .into_iter()
                .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
                .map(|(label, _)| label)
                .expect("group is non-empty");
            (p, majority)
        })
        .collect();
    let misclassified = partition
        .iter()
        .zip(truth)
        .filter(|&(p, t)| majorities[p] != *t)
        .count();
    misclassified as f64 / partition.len() as f64
}

#[test]
fn connected_components_of_two_triangles() {
    let mut g = Graph::new(6);
    for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        g.add_edge(a, b, 1.0);
    }
    let comps = connected_components(&g);
    assert_eq!(comps[0], comps[1]);
    assert_eq!(comps[0], comps[2]);
    assert_eq!(comps[3], comps[4]);
    assert_ne!(comps[0], comps[3]);
    assert_eq!(partition_count(&comps), 2);
}

#[test]
fn isolated_nodes_are_own_components() {
    let mut g = Graph::new(3);
    g.add_edge(0, 1, 1.0);
    let comps = connected_components(&g);
    assert_eq!(comps[0], comps[1]);
    assert_ne!(comps[0], comps[2]);
}

proptest! {
    #[test]
    fn modularity_within_bounds(g in arbitrary_graph(12, 30), seed in any::<u64>()) {
        let labels = louvain(&g, &mut StdRng::seed_from_u64(seed));
        let q = modularity(&g, &labels);
        prop_assert!((-0.5 - 1e-9..=1.0 + 1e-9).contains(&q), "q = {q}");
    }

    #[test]
    fn louvain_beats_or_matches_singletons(g in arbitrary_graph(12, 30), seed in any::<u64>()) {
        let singletons: Vec<usize> = (0..g.num_nodes()).collect();
        let labels = louvain(&g, &mut StdRng::seed_from_u64(seed));
        prop_assert!(modularity(&g, &labels) >= modularity(&g, &singletons) - 1e-9);
    }

    #[test]
    fn louvain_labels_are_dense(g in arbitrary_graph(12, 30), seed in any::<u64>()) {
        let labels = louvain(&g, &mut StdRng::seed_from_u64(seed));
        let k = partition_count(&labels);
        prop_assert!(labels.iter().all(|&l| l < k));
    }

    #[test]
    fn louvain_never_splits_connected_components_apart(
        g in arbitrary_graph(10, 20),
        seed in any::<u64>(),
    ) {
        // Every Louvain community must live inside one connected component:
        // nodes without any connection cannot gain modularity together.
        let comps = connected_components(&g);
        let labels = louvain(&g, &mut StdRng::seed_from_u64(seed));
        for i in 0..g.num_nodes() {
            for j in 0..g.num_nodes() {
                if labels[i] == labels[j] {
                    prop_assert_eq!(comps[i], comps[j]);
                }
            }
        }
    }

    #[test]
    fn compact_labels_is_idempotent(labels in proptest::collection::vec(0usize..20, 0..40)) {
        let once = compact_labels(&labels);
        let twice = compact_labels(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn compact_preserves_equality_structure(labels in proptest::collection::vec(0usize..20, 1..40)) {
        let compact = compact_labels(&labels);
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                prop_assert_eq!(labels[i] == labels[j], compact[i] == compact[j]);
            }
        }
    }

    #[test]
    fn misclassification_in_unit_range(
        labels in proptest::collection::vec(0usize..5, 1..30),
        truth in proptest::collection::vec(0usize..5, 1..30),
    ) {
        let n = labels.len().min(truth.len());
        let frac = misclassification_fraction(&labels[..n], &truth[..n]);
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn perfect_partition_has_zero_misclassification(
        truth in proptest::collection::vec(0usize..5, 1..30),
    ) {
        // Using the truth itself as partition: majority of every group is
        // its own label.
        prop_assert_eq!(misclassification_fraction(&truth, &truth), 0.0);
    }

    #[test]
    fn components_count_decreases_with_added_edges(g in arbitrary_graph(10, 15)) {
        let before = partition_count(&connected_components(&g));
        let mut g2 = g.clone();
        g2.add_edge(0, g.num_nodes() - 1, 1.0);
        let after = partition_count(&connected_components(&g2));
        prop_assert!(after <= before);
    }

    #[test]
    fn modularity_is_bit_deterministic((n, edges, partition) in integer_graph(12, 40)) {
        // Every call, and every rebuild of the same graph, sums the same
        // terms in the same order.
        let g = build(n, &edges);
        let q = modularity(&g, &partition).to_bits();
        prop_assert_eq!(modularity(&g, &partition).to_bits(), q);
        prop_assert_eq!(modularity(&build(n, &edges), &partition).to_bits(), q);
    }

    #[test]
    fn misclassification_matches_the_majority_label_oracle(
        labels in proptest::collection::vec(0usize..5, 0..30),
        truth in proptest::collection::vec(0usize..5, 0..30),
    ) {
        let n = labels.len().min(truth.len());
        let (labels, truth) = (&labels[..n], &truth[..n]);
        prop_assert_eq!(
            misclassification_fraction(labels, truth).to_bits(),
            misclassification_oracle(labels, truth).to_bits()
        );
    }
}
