//! Clustering quality metrics: silhouette, purity and the adjusted
//! Rand index.
//!
//! Two of the three need ground truth — purity and ARI score a
//! clustering against the dataset's known cluster labels, which the
//! synthetic federated datasets all carry. Silhouette is fully
//! unsupervised and doubles as the model-selection criterion for
//! [`auto_k`](crate::kmeans::auto_k). ARI is also how the analysis
//! layer reports *agreement between two clusterings* (parameter-space
//! k-means vs approval-graph communities), since it is symmetric and
//! invariant under label permutation.

use dagfl_core::graph::majority_count;

use crate::kmeans::squared_distance;

/// Mean silhouette coefficient of a clustering, in `[-1, 1]`.
///
/// For each point, `a` is its mean distance to its own cluster's other
/// members and `b` the smallest mean distance to any other cluster; the
/// point's silhouette is `(b - a) / max(a, b)`. Singleton clusters
/// score 0 for their member (the standard convention), and clusterings
/// with fewer than two clusters or two points score 0 overall — there
/// is no between-cluster structure to measure.
pub fn silhouette_score(points: &[Vec<f32>], assignments: &[usize]) -> f64 {
    assert_eq!(points.len(), assignments.len(), "one label per point");
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut labels: Vec<usize> = assignments.to_vec();
    labels.sort_unstable();
    labels.dedup();
    if labels.len() < 2 {
        return 0.0;
    }
    // Euclidean (not squared) distances, per the standard definition.
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        let mut own_sum = 0.0;
        let mut own_count = 0usize;
        // Mean distance to every foreign cluster, tracked per label.
        let mut foreign: Vec<(usize, f64, usize)> = labels
            .iter()
            .filter(|&&l| l != own)
            .map(|&l| (l, 0.0, 0))
            .collect();
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = squared_distance(&points[i], &points[j]).sqrt();
            if assignments[j] == own {
                own_sum += d;
                own_count += 1;
            } else if let Some(entry) = foreign.iter_mut().find(|(l, _, _)| *l == assignments[j]) {
                entry.1 += d;
                entry.2 += 1;
            }
        }
        if own_count == 0 {
            // Singleton cluster: silhouette 0 by convention.
            continue;
        }
        let a = own_sum / own_count as f64;
        let b = foreign
            .iter()
            .filter(|(_, _, count)| *count > 0)
            .map(|(_, sum, count)| sum / *count as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    (total / n as f64).clamp(-1.0, 1.0)
}

/// Cluster purity against ground-truth labels, in `[0, 1]`.
///
/// Each predicted cluster is credited with its most common true label;
/// purity is the credited fraction of all points. A clustering that
/// shatters every true cluster into singletons still scores 1, so
/// purity is read together with the cluster count and ARI.
pub fn cluster_purity(assignments: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(assignments.len(), truth.len(), "one truth label per point");
    let n = assignments.len();
    if n == 0 {
        return 0.0;
    }
    majority_count(assignments, truth) as f64 / n as f64
}

/// The adjusted Rand index between two partitions, chance-corrected so
/// random labelings score near 0 and identical partitions (up to label
/// permutation) score exactly 1.
///
/// Degenerate pairs where the expected index equals the maximum index
/// (e.g. both partitions put everything in one cluster) are defined as
/// 1 when the partitions induce the same grouping and 0 otherwise.
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "partitions label the same points");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let labels_of = |xs: &[usize]| {
        let mut labels: Vec<usize> = xs.to_vec();
        labels.sort_unstable();
        labels.dedup();
        labels
    };
    let la = labels_of(a);
    let lb = labels_of(b);
    // Contingency table.
    let mut table = vec![vec![0u64; lb.len()]; la.len()];
    for (&x, &y) in a.iter().zip(b) {
        let i = la.binary_search(&x).expect("label present");
        let j = lb.binary_search(&y).expect("label present");
        table[i][j] += 1;
    }
    let choose2 = |m: u64| (m * m.saturating_sub(1)) as f64 / 2.0;
    let sum_ij: f64 = table
        .iter()
        .flat_map(|row| row.iter())
        .map(|&m| choose2(m))
        .sum();
    let sum_a: f64 = table
        .iter()
        .map(|row| choose2(row.iter().sum::<u64>()))
        .sum();
    let sum_b: f64 = (0..lb.len())
        .map(|j| choose2(table.iter().map(|row| row[j]).sum::<u64>()))
        .sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < f64::EPSILON {
        // Both partitions are trivial (all-one-cluster or all-singletons
        // on both sides): identical grouping scores 1, anything else 0.
        return if sum_ij == sum_a && sum_ij == sum_b {
            1.0
        } else {
            0.0
        };
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silhouette_is_high_for_separated_blobs() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.0],
            vec![10.0, 10.0],
            vec![10.2, 10.0],
        ];
        let score = silhouette_score(&points, &[0, 0, 1, 1]);
        assert!(score > 0.9, "score {score}");
        // A deliberately wrong split scores far lower.
        let bad = silhouette_score(&points, &[0, 1, 0, 1]);
        assert!(bad < score, "bad {bad} >= good {score}");
    }

    #[test]
    fn silhouette_degenerate_inputs_are_zero() {
        assert_eq!(silhouette_score(&[], &[]), 0.0);
        assert_eq!(silhouette_score(&[vec![1.0]], &[0]), 0.0);
        // One cluster: no between-cluster structure.
        assert_eq!(
            silhouette_score(&[vec![0.0], vec![1.0], vec![2.0]], &[0, 0, 0]),
            0.0
        );
    }

    #[test]
    fn purity_rewards_pure_clusters() {
        assert_eq!(cluster_purity(&[0, 0, 1, 1], &[5, 5, 9, 9]), 1.0);
        assert_eq!(cluster_purity(&[0, 0, 0, 0], &[0, 0, 1, 1]), 0.5);
        // Singleton shattering is trivially pure — why ARI exists.
        assert_eq!(cluster_purity(&[0, 1, 2, 3], &[0, 0, 1, 1]), 1.0);
        assert_eq!(cluster_purity(&[], &[]), 0.0);
    }

    #[test]
    fn ari_is_one_for_identical_partitions_up_to_relabeling() {
        let truth = [0, 0, 1, 1, 2, 2];
        let relabeled = [7, 7, 3, 3, 5, 5];
        assert!((adjusted_rand_index(&truth, &relabeled) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_is_low_for_unrelated_partitions() {
        // A split orthogonal to the truth.
        let truth = [0, 0, 0, 1, 1, 1];
        let other = [0, 1, 0, 1, 0, 1];
        assert!(adjusted_rand_index(&truth, &other) < 0.1);
    }

    #[test]
    fn ari_handles_trivial_partitions() {
        assert_eq!(adjusted_rand_index(&[0, 0, 0], &[1, 1, 1]), 1.0);
        assert_eq!(adjusted_rand_index(&[0, 1, 2], &[5, 6, 7]), 1.0);
        assert_eq!(adjusted_rand_index(&[0, 0, 0], &[0, 1, 2]), 0.0);
        assert_eq!(adjusted_rand_index(&[], &[]), 1.0);
        assert_eq!(adjusted_rand_index(&[3], &[9]), 1.0);
    }

    #[test]
    fn ari_is_symmetric() {
        let a = [0, 0, 1, 1, 2, 2, 0, 1];
        let b = [0, 1, 1, 1, 2, 0, 0, 1];
        assert!((adjusted_rand_index(&a, &b) - adjusted_rand_index(&b, &a)).abs() < 1e-12);
    }
}
