//! Differential property tests of the tangle stores and the replica
//! view. One random growth script built into the sequential `Tangle`,
//! the simulators' `ShardedTangle` and a gossip `Replica` (a `Tangle`
//! over shared records, addressed by network id) must read back
//! identically through every algorithm of `TangleRead` — edges, cones,
//! depths, weights, the walk-start draws (the sharded store's
//! single-lock band included) and the DOT export. The same script
//! gossiped to a replica in random arrival order attaches siblings out
//! of network order, so its local ids differ from the network ids;
//! translated back through `Replica::network_id` it must still be the
//! same DAG.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_core::{
    Envelope, GossipMessage, ModelPayload, ModelTangle, Replica, ShardedModelTangle, TxMessage,
};
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
    // Three draws per band: repeated draws over an unchanged tangle must
    // keep the streams in step.
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

fn genesis() -> ModelPayload {
    ModelPayload::new(vec![0.0])
}

/// Grows `script` — `(parent pick, parent pick, issuer)` per
/// transaction — into a sequential tangle, and returns it with the
/// gossip message publishing each transaction after the genesis, in id
/// order. A message's network id is its id in the tangle.
fn grow(script: &[(u8, u8, u32)]) -> (ModelTangle, Vec<TxMessage>) {
    let mut tangle = ModelTangle::new(genesis());
    let mut messages = Vec::with_capacity(script.len());
    for (i, &(a, b, issuer)) in script.iter().enumerate() {
        // Parents among the last few transactions, so the DAG grows
        // deep enough for the walk-start bands to hold candidates.
        let len = tangle.len();
        let recent = |k: u8| TxId::from_index((len - 1 - k as usize % len.min(5)) as u64);
        let parents = [recent(a), recent(b)];
        let params = Arc::new(vec![i as f32]);
        let round = i as u32 / 4;
        let payload = ModelPayload::from_shared(Arc::clone(&params));
        let id = tangle
            .attach_with_meta(payload, &parents, Some(issuer), round)
            .unwrap();
        messages.push(TxMessage {
            id: id.index(),
            parents: parents.iter().map(|p| p.index()).collect(),
            params,
            issuer: Some(issuer),
            round,
        });
    }
    (tangle, messages)
}

/// The indices of `ids`, in ascending order.
fn sorted_indices(ids: impl IntoIterator<Item = TxId>) -> Vec<u64> {
    let mut indices: Vec<u64> = ids.into_iter().map(TxId::index).collect();
    indices.sort_unstable();
    indices
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(64)))]

    #[test]
    fn the_three_stores_agree_on_every_algorithm(
        script in vec((any::<u8>(), any::<u8>(), 0u32..5), 0..60),
        bands in vec((0u32..4, 0u32..4), 1..4),
        seed in any::<u64>(),
    ) {
        let (plain, messages) = grow(&script);
        let sharded = ShardedModelTangle::new(genesis());
        let mut replica = Replica::new(genesis());
        for message in &messages {
            let parents: Vec<TxId> = message.parents.iter().map(|&p| TxId::from_index(p)).collect();
            let payload = ModelPayload::from_shared(Arc::clone(&message.params));
            let y = sharded
                .attach_with_meta(payload, &parents, message.issuer, message.round)
                .unwrap();
            let z = replica.insert(message).unwrap();
            prop_assert_eq!(y.index(), message.id);
            prop_assert_eq!(z.index(), message.id);
        }
        let bands: Vec<(u32, u32)> = bands.iter().map(|&(lo, width)| (lo, lo + width)).collect();
        let expected = read_back(&plain, &bands, seed);
        prop_assert_eq!(&read_back(&sharded, &bands, seed), &expected);
        prop_assert_eq!(&read_back(replica.tangle(), &bands, seed), &expected);
    }

    #[test]
    fn a_replica_fed_out_of_order_is_the_same_dag(
        script in vec((any::<u8>(), any::<u8>(), 0u32..5), 0..60),
        arrivals in vec(0u8..6, 60),
    ) {
        let (plain, messages) = grow(&script);
        let mut in_order = Replica::new(genesis());
        for message in &messages {
            in_order.insert(message).unwrap();
        }
        // Deliver each arrival time's messages in one batch: a child
        // that lands before its parent waits in the solidification
        // buffer, and a sibling that lands first attaches first.
        let mut reordered = Replica::new(genesis());
        for at in 0..6 {
            let due = messages
                .iter()
                .zip(&arrivals)
                .filter(|&(_, &arrival)| arrival == at)
                .map(|(message, _)| Envelope {
                    at: f64::from(at),
                    message: GossipMessage::Transaction(message.clone()),
                })
                .collect();
            reordered.apply(due);
        }
        prop_assert_eq!(reordered.buffered(), 0);
        let view = reordered.tangle();
        prop_assert_eq!(view.len(), plain.len());
        let net = |local: TxId| TxId::from_index(reordered.network_id(local).unwrap());
        for local in (0..view.len() as u64).map(TxId::from_index) {
            let id = net(local);
            let parents: Vec<TxId> = view.parents_of(local).unwrap().into_iter().map(net).collect();
            prop_assert_eq!(&parents, plain.get(id).unwrap().parents());
            prop_assert_eq!(
                sorted_indices(view.children_of(local).unwrap().into_iter().map(net)),
                sorted_indices(plain.children(id).unwrap().iter().copied())
            );
        }
        prop_assert_eq!(
            sorted_indices(TangleRead::tips(view).into_iter().map(net)),
            sorted_indices(plain.tips())
        );
        prop_assert_eq!(reordered.digest(), in_order.digest());
    }
}
