//! DAG introspection: summary statistics.

/// Structural summary of a tangle.
#[derive(Debug, Clone, PartialEq)]
pub struct TangleStats {
    /// Total transactions including the genesis.
    pub transactions: usize,
    /// Current tips (transactions without approvers).
    pub tips: usize,
    /// Total approval edges.
    pub edges: usize,
    /// Longest approval path from the genesis to any tip.
    pub max_depth: u32,
    /// Mean number of parents per non-genesis transaction.
    pub mean_parents: f64,
    /// Mean number of children (approvers) over non-tip transactions.
    pub mean_children: f64,
}

impl TangleStats {
    /// Derives the means from the four structural counts every store
    /// maintains incrementally.
    pub(crate) fn from_counts(
        transactions: usize,
        tips: usize,
        edges: usize,
        max_depth: u32,
    ) -> Self {
        // Only the genesis has no parents, so every other transaction is
        // non-genesis.
        let mean_over = |n: usize| if n == 0 { 0.0 } else { edges as f64 / n as f64 };
        TangleStats {
            transactions,
            tips,
            edges,
            max_depth,
            mean_parents: mean_over(transactions - 1),
            mean_children: mean_over(transactions - tips),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tangle, TangleRead, TxId};

    fn diamond() -> Tangle<()> {
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach((), &[g]).unwrap();
        let b = t.attach((), &[g]).unwrap();
        t.attach((), &[a, b]).unwrap();
        t
    }

    #[test]
    fn stats_of_diamond() {
        let s = diamond().stats();
        assert_eq!(s.transactions, 4);
        assert_eq!(s.tips, 1);
        assert_eq!(s.edges, 4);
        assert_eq!(s.max_depth, 2);
        assert!((s.mean_parents - 4.0 / 3.0).abs() < 1e-9);
        assert!((s.mean_children - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stats_of_singleton() {
        let t = Tangle::new(());
        let s = t.stats();
        assert_eq!(s.transactions, 1);
        assert_eq!(s.tips, 1);
        assert_eq!(s.edges, 0);
        assert_eq!(s.mean_parents, 0.0);
    }

    /// Regression: a genesis-only tangle has `non_genesis == 0` and
    /// `non_tips == 0`; both means must be exactly 0.0 (finite), never
    /// NaN from a 0/0 division.
    #[test]
    fn stats_of_genesis_only_tangle_are_finite() {
        let s = Tangle::new(()).stats();
        assert_eq!(s.mean_parents, 0.0);
        assert_eq!(s.mean_children, 0.0);
        assert!(s.mean_parents.is_finite() && s.mean_children.is_finite());
        assert_eq!(s.max_depth, 0);
    }

    /// Regression companion: once a single child exists, both denominators
    /// become non-zero and the means are exact.
    #[test]
    fn stats_of_single_edge_tangle() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        t.attach((), &[g]).unwrap();
        let s = t.stats();
        assert_eq!(s.transactions, 2);
        assert_eq!(s.tips, 1);
        assert_eq!(s.mean_parents, 1.0);
        assert_eq!(s.mean_children, 1.0);
    }

    /// Full re-scan oracle for the incremental counters behind `stats()`.
    fn recomputed_stats<P>(t: &Tangle<P>) -> TangleStats {
        let transactions = t.len();
        let tips = t.tips().len();
        let mut edges = 0usize;
        let mut non_genesis = 0usize;
        for tx in t.iter() {
            edges += tx.parents().len();
            if !tx.is_genesis() {
                non_genesis += 1;
            }
        }
        let max_depth = t.depths_from_tips().iter().copied().max().unwrap_or(0);
        let non_tips = transactions - tips;
        TangleStats {
            transactions,
            tips,
            edges,
            max_depth,
            mean_parents: if non_genesis == 0 {
                0.0
            } else {
                edges as f64 / non_genesis as f64
            },
            mean_children: if non_tips == 0 {
                0.0
            } else {
                edges as f64 / non_tips as f64
            },
        }
    }

    /// Regression: the incremental counters must agree with a full
    /// re-scan at every prefix of a randomly grown tangle.
    #[test]
    fn incremental_stats_match_recomputed_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tangle::new(0u64);
            assert_eq!(t.stats(), recomputed_stats(&t));
            for i in 1..120u64 {
                let len = t.len() as u64;
                let a = TxId(rng.gen_range(0..len));
                let b = TxId(rng.gen_range(0..len));
                t.attach(i, &[a, b]).unwrap();
                assert_eq!(t.stats(), recomputed_stats(&t), "prefix {i}, seed {seed}");
            }
        }
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let t = diamond();
        let dot = t.to_dot(|_, _| String::new());
        assert!(dot.contains("digraph tangle"));
        for tx in t.iter() {
            assert!(dot.contains(&format!("\"{}\"", tx.id())));
        }
        assert_eq!(dot.matches("->").count(), 4);
    }

    #[test]
    fn dot_marks_tips_grey_and_applies_style() {
        let t = diamond();
        let dot = t.to_dot(|id, _| {
            if id == t.genesis() {
                "shape=box ".into()
            } else {
                String::new()
            }
        });
        assert!(dot.contains("fillcolor=lightgray"));
        assert!(dot.contains("shape=box"));
    }

    #[test]
    fn dot_includes_issuer_labels() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        t.attach_with_meta((), &[g], Some(7), 3).unwrap();
        let dot = t.to_dot(|_, _| String::new());
        assert!(dot.contains("c7"));
    }
}
