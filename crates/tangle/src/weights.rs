//! Unit tests of the cumulative-weight, depth and walk-start algorithms
//! of [`TangleRead`](crate::TangleRead), on hand-built tangles.

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::{Tangle, TangleRead};

    /// genesis -> a -> b -> c (a chain).
    fn chain(n: usize) -> Tangle<usize> {
        let mut t = Tangle::new(0);
        let mut prev = t.genesis();
        for i in 1..n {
            prev = t.attach(i, &[prev]).unwrap();
        }
        t
    }

    #[test]
    fn chain_cumulative_weights_decrease() {
        let t = chain(5);
        let w = t.cumulative_weights();
        assert_eq!(w, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn diamond_not_double_counted() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach((), &[g]).unwrap();
        let b = t.attach((), &[g]).unwrap();
        let _c = t.attach((), &[a, b]).unwrap();
        let w = t.cumulative_weights();
        // genesis is approved by a, b, c -> weight 4 (not 5).
        assert_eq!(w[0], 4);
        assert_eq!(w[1], 2);
        assert_eq!(w[2], 2);
        assert_eq!(w[3], 1);
    }

    #[test]
    fn paper_figure3_style_weights() {
        // Reproduce the mechanics of Figure 3: weights count the approving
        // subgraph including self.
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach((), &[g]).unwrap();
        let b = t.attach((), &[g, a]).unwrap();
        let c = t.attach((), &[a]).unwrap();
        let d = t.attach((), &[b, c]).unwrap();
        let w = t.cumulative_weights();
        assert_eq!(w[g.index() as usize], 5);
        assert_eq!(w[a.index() as usize], 4);
        assert_eq!(w[b.index() as usize], 2);
        assert_eq!(w[c.index() as usize], 2);
        assert_eq!(w[d.index() as usize], 1);
    }

    #[test]
    fn tips_have_weight_one() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        for _ in 0..5 {
            t.attach((), &[g]).unwrap();
        }
        let w = t.cumulative_weights();
        for tip in t.tips() {
            assert_eq!(w[tip.index() as usize], 1);
        }
        assert_eq!(w[0], 6);
    }

    #[test]
    fn chain_depths_count_distance_to_tip() {
        let t = chain(4);
        assert_eq!(t.depths_from_tips(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn depth_uses_longest_path() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        // Short branch: g -> a (tip). Long branch: g -> b -> c (tip).
        let _a = t.attach((), &[g]).unwrap();
        let b = t.attach((), &[g]).unwrap();
        let _c = t.attach((), &[b]).unwrap();
        let depths = t.depths_from_tips();
        assert_eq!(depths[g.index() as usize], 2);
        assert_eq!(depths[b.index() as usize], 1);
    }

    #[test]
    fn sample_walk_start_prefers_band() {
        let t = chain(40);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let start = t.sample_walk_start(15, 25, &mut rng);
            let depth = t.depths_from_tips()[start.index() as usize];
            assert!((15..=25).contains(&depth), "depth {depth} out of band");
        }
    }

    #[test]
    fn sample_walk_start_falls_back_to_deepest() {
        let t = chain(3);
        let mut rng = StdRng::seed_from_u64(0);
        let start = t.sample_walk_start(15, 25, &mut rng);
        assert_eq!(start, t.genesis());
    }

    #[test]
    fn single_node_weights_and_depths() {
        let t = Tangle::new(());
        assert_eq!(t.cumulative_weights(), vec![1]);
        assert_eq!(t.depths_from_tips(), vec![0]);
    }
}
