//! Differential property test of the three tangle stores: one random
//! growth script built into the sequential `Tangle`, the concurrent
//! `ShardedTangle` and a gossip `Replica` must read back identically
//! through every algorithm of `TangleRead` — edges, cones, depths,
//! weights, the walk-start draws (the sharded store's memoised override
//! included) and the DOT export.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_core::{ModelPayload, ModelTangle, Replica, ShardedModelTangle, TxMessage};
use dagfl_tangle::{TangleRead, TxId};

/// Every algorithm-level read of `tangle`, with walk starts drawn from a
/// fresh stream seeded by `seed` for each band in `bands`.
#[allow(clippy::type_complexity)]
fn read_back<T: TangleRead<ModelPayload>>(
    tangle: &T,
    bands: &[(u32, u32)],
    seed: u64,
) -> (
    Vec<(TxId, TxId)>,
    Vec<Vec<TxId>>,
    Vec<u32>,
    Vec<u64>,
    Vec<TxId>,
    u64,
    String,
) {
    let cones = (0..tangle.len() as u64)
        .map(|i| {
            let mut cone: Vec<TxId> = tangle
                .past_cone(TxId::from_index(i))
                .unwrap()
                .into_iter()
                .collect();
            cone.sort();
            cone
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Three draws per band: the memoised store answers the second and
    // third from its cached band.
    let starts = bands
        .iter()
        .flat_map(|&(lo, hi)| [(lo, hi); 3])
        .map(|(lo, hi)| tangle.sample_walk_start(lo, hi, &mut rng))
        .collect();
    let dot = tangle.to_dot(|id, issuer| match issuer {
        Some(issuer) => format!("fillcolor=c{} ", issuer % 3),
        None if id == tangle.genesis() => "shape=doublecircle ".into(),
        None => String::new(),
    });
    (
        tangle.edges(),
        cones,
        tangle.depths_from_tips(),
        tangle.cumulative_weights(),
        starts,
        // Same draws in the same order leave the streams in one state.
        rng.gen(),
        dot,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_three_stores_agree_on_every_algorithm(
        script in vec((any::<u8>(), any::<u8>(), 0u32..5), 0..60),
        bands in vec((0u32..4, 0u32..4), 1..4),
        seed in any::<u64>(),
    ) {
        let genesis = || ModelPayload::new(vec![0.0]);
        let mut plain: ModelTangle = ModelTangle::new(genesis());
        let sharded = ShardedModelTangle::with_shards(genesis(), 3);
        let mut replica = Replica::new(genesis());
        for (i, &(a, b, issuer)) in script.iter().enumerate() {
            // Parents among the last few transactions, so the DAG grows
            // deep enough for the walk-start bands to hold candidates.
            let len = plain.len();
            let recent = |k: u8| TxId::from_index((len - 1 - k as usize % len.min(5)) as u64);
            let parents = [recent(a), recent(b)];
            let params = Arc::new(vec![i as f32]);
            let round = i as u32 / 4;
            let payload = || ModelPayload::from_shared(Arc::clone(&params));
            let x = plain.attach_with_meta(payload(), &parents, Some(issuer), round).unwrap();
            let y = sharded.attach_with_meta(payload(), &parents, Some(issuer), round).unwrap();
            let z = replica
                .insert(&TxMessage {
                    id: x.index(),
                    parents: parents.iter().map(|p| p.index()).collect(),
                    params: Arc::clone(&params),
                    issuer: Some(issuer),
                    round,
                })
                .unwrap();
            prop_assert_eq!(x, y);
            prop_assert_eq!(x, z);
        }
        let bands: Vec<(u32, u32)> = bands.iter().map(|&(lo, width)| (lo, lo + width)).collect();
        let expected = read_back(&plain, &bands, seed);
        prop_assert_eq!(&read_back(&sharded, &bands, seed), &expected);
        prop_assert_eq!(&read_back(replica.tangle(), &bands, seed), &expected);
    }
}
