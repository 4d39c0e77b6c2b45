//! Property-based tests of the tangle invariants.

use std::collections::HashSet;

use dagfl_tangle::{RandomWalker, Tangle, TangleRead, TxId, UniformBias};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random tangle from a growth script: each entry is a pair of
/// pseudo-parent selectors into the already-attached transactions.
fn build_tangle(script: &[(u8, u8)]) -> Tangle<usize> {
    let mut tangle = Tangle::new(0);
    let mut ids = vec![tangle.genesis()];
    for (i, &(a, b)) in script.iter().enumerate() {
        let p1 = ids[a as usize % ids.len()];
        let p2 = ids[b as usize % ids.len()];
        let id = tangle.attach(i + 1, &[p1, p2]).expect("parents exist");
        ids.push(id);
    }
    tangle
}

/// The future cone of `id`: the transaction itself plus everything that
/// directly or indirectly approves it. The search runs forward over the
/// children lists, independently of the bitset pass behind
/// `cumulative_weights`.
fn future_cone(tangle: &Tangle<usize>, id: TxId) -> HashSet<TxId> {
    let mut seen = HashSet::new();
    let mut stack = vec![id];
    while let Some(current) = stack.pop() {
        if seen.insert(current) {
            stack.extend(tangle.children(current).unwrap());
        }
    }
    seen
}

proptest! {
    #[test]
    fn parents_always_precede_children(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let tangle = build_tangle(&script);
        for tx in tangle.iter() {
            for p in tx.parents() {
                prop_assert!(p.index() < tx.id().index(), "acyclicity violated");
            }
        }
    }

    #[test]
    fn tips_are_exactly_childless_transactions(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let tangle = build_tangle(&script);
        let tips = tangle.tips();
        for tx in tangle.iter() {
            let childless = tangle.children(tx.id()).unwrap().is_empty();
            prop_assert_eq!(tips.contains(&tx.id()), childless);
        }
    }

    #[test]
    fn genesis_cumulative_weight_counts_everything(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let tangle = build_tangle(&script);
        let w = tangle.cumulative_weights();
        // Every transaction (transitively) approves the genesis.
        prop_assert_eq!(w[0], tangle.len() as u64);
    }

    #[test]
    fn cumulative_weight_matches_future_cone(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..30)) {
        let tangle = build_tangle(&script);
        let w = tangle.cumulative_weights();
        for tx in tangle.iter() {
            let cone = future_cone(&tangle, tx.id());
            prop_assert_eq!(w[tx.id().index() as usize], cone.len() as u64);
        }
    }

    #[test]
    fn past_cone_contains_genesis(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..30)) {
        let tangle = build_tangle(&script);
        for tx in tangle.iter() {
            let cone = tangle.past_cone(tx.id()).unwrap();
            prop_assert!(cone.contains(&tangle.genesis()));
            prop_assert!(cone.contains(&tx.id()));
        }
    }

    #[test]
    fn walks_always_terminate_at_tips(
        script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        seed in any::<u64>(),
    ) {
        let tangle = build_tangle(&script);
        let mut rng = StdRng::seed_from_u64(seed);
        let result = RandomWalker::new()
            .walk(&tangle, tangle.genesis(), &mut UniformBias, &mut rng)
            .unwrap();
        prop_assert!(tangle.is_tip(result.tip));
        prop_assert!(result.steps <= tangle.len());
    }

    #[test]
    fn depths_decrease_along_approvals(script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40)) {
        let tangle = build_tangle(&script);
        let depths = tangle.depths_from_tips();
        for tx in tangle.iter() {
            for p in tx.parents() {
                prop_assert!(
                    depths[p.index() as usize] > depths[tx.id().index() as usize],
                    "parent must be deeper than child"
                );
            }
        }
    }
}
