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
//! same DAG. Deeper scripts check the capped depths every store keeps
//! and its walk-start draws against the recomputing oracle, and that
//! retiring every payload below the walk window changes no walk and no
//! digest.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_core::{
    retire_payloads, tangle_digest, AccuracyBias, Envelope, GossipMessage, ModelEvaluator,
    ModelPayload, ModelTangle, Normalization, Replica, ShardedModelTangle, TxMessage,
};
use dagfl_nn::{Dense, Model, Sequential};
use dagfl_tangle::{RandomWalker, TangleRead, TxId, WalkStartBand, DEPTH_CEILING};
use dagfl_tensor::Matrix;

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
/// order. A message's network id is its id in the tangle; transaction
/// `i + 1` carries `weights(i)`.
fn grow(
    script: &[(u8, u8, u32)],
    genesis: ModelPayload,
    mut weights: impl FnMut(usize) -> Vec<f32>,
) -> (ModelTangle, Vec<TxMessage>) {
    let mut tangle = ModelTangle::new(genesis);
    let mut messages = Vec::with_capacity(script.len());
    for (i, &(a, b, issuer)) in script.iter().enumerate() {
        // Parents among the last few transactions, so the DAG grows
        // deep enough for the walk-start bands to hold candidates.
        let len = tangle.len();
        let recent = |k: u8| TxId::from_index((len - 1 - k as usize % len.min(5)) as u64);
        let parents = [recent(a), recent(b)];
        let params = Arc::new(weights(i));
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

/// The sharded store and a replica holding `messages`, attached in
/// order after `genesis`; both number them by network id.
fn publish(genesis: ModelPayload, messages: &[TxMessage]) -> (ShardedModelTangle, Replica) {
    let sharded = ShardedModelTangle::new(genesis.clone());
    let mut replica = Replica::new(genesis);
    for message in messages {
        let parents: Vec<TxId> = message
            .parents
            .iter()
            .map(|&p| TxId::from_index(p))
            .collect();
        let payload = ModelPayload::from_shared(Arc::clone(&message.params));
        let y = sharded
            .attach_with_meta(payload, &parents, message.issuer, message.round)
            .unwrap();
        let z = replica.insert(message).unwrap();
        assert_eq!(y.index(), message.id);
        assert_eq!(z.index(), message.id);
    }
    (sharded, replica)
}

/// The sharded store of `messages` over `genesis` with every payload
/// born hashed, as the rounds simulator attaches them.
fn publish_hashed(genesis: &ModelPayload, messages: &[TxMessage]) -> ShardedModelTangle {
    let born = |params: &[f32]| ModelPayload::hashed(params.to_vec());
    let sharded = ShardedModelTangle::new(born(genesis.params()));
    for message in messages {
        let parents: Vec<TxId> = message
            .parents
            .iter()
            .map(|&p| TxId::from_index(p))
            .collect();
        sharded
            .attach_with_meta(
                born(&message.params),
                &parents,
                message.issuer,
                message.round,
            )
            .unwrap();
    }
    sharded
}

/// Walk windows from generated `(min, width)` pairs: inside the depth
/// ceiling, straddling it or above it, plus the walk-from-genesis
/// ablation's.
fn windows(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut windows: Vec<(u32, u32)> = pairs.iter().map(|&(lo, width)| (lo, lo + width)).collect();
    windows.push((u32::MAX - 1, u32::MAX));
    windows
}

/// `store`'s kept depths, bands and walk-start draws against the
/// recomputing oracle over `depths`, the exact depths of the same DAG.
fn check_against_oracle<T: TangleRead<ModelPayload>>(
    store: &T,
    depths: &[u32],
    windows: &[(u32, u32)],
    seed: u64,
) {
    let capped: Vec<u32> = depths.iter().map(|&d| d.min(DEPTH_CEILING)).collect();
    assert_eq!(store.capped_depths(), capped);
    let (mut ours, mut oracle) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    for &(lo, hi) in windows {
        let band = WalkStartBand::over(depths, lo, hi);
        assert_eq!(store.walk_start_band(lo, hi), band, "window {lo}..={hi}");
        for _ in 0..3 {
            assert_eq!(
                store.sample_walk_start(lo, hi, &mut ours),
                band.draw(&mut oracle),
                "window {lo}..={hi}"
            );
        }
    }
    assert_eq!(ours.gen::<u64>(), oracle.gen::<u64>());
}

/// A two-feature, two-class linear model: six weights.
fn tiny_model(seed: u64) -> Box<dyn Model> {
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(Sequential::new(vec![Box::new(Dense::new(&mut rng, 2, 2))]))
}

/// The tips of `walks` accuracy-biased walks over `store`, each from a
/// start drawn in `(lo, hi)`, on one stream; every score must succeed.
fn accuracy_walk_tips<T: TangleRead<ModelPayload>>(
    store: &T,
    (lo, hi): (u32, u32),
    walks: usize,
    seed: u64,
) -> Vec<TxId> {
    let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.8, 0.3], &[0.0, 1.0], &[0.2, 0.9]]).unwrap();
    let y = [0, 0, 1, 1];
    let mut evaluator = ModelEvaluator::new(tiny_model(0));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..walks)
        .map(|_| {
            let start = store.sample_walk_start(lo, hi, &mut rng);
            let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Simple)
                .with_stop_margin(0.3);
            let tip = RandomWalker::new()
                .walk(store, start, &mut bias, &mut rng)
                .unwrap()
                .tip;
            bias.finish().expect("no walk reads a retired payload");
            tip
        })
        .collect()
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
        let (plain, messages) = grow(&script, genesis(), |i| vec![i as f32]);
        let (sharded, replica) = publish(genesis(), &messages);
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
        let (plain, messages) = grow(&script, genesis(), |i| vec![i as f32]);
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

    #[test]
    fn kept_depths_and_walk_starts_match_the_recomputing_oracle(
        script in vec((0u8..3, 0u8..5, 0u32..5), 0..160),
        pairs in vec((0u32..48, 0u32..12), 1..5),
        seed in any::<u64>(),
    ) {
        // Parents among the last three: a DAG that outgrows the ceiling.
        let (plain, messages) = grow(&script, genesis(), |i| vec![i as f32]);
        let (sharded, replica) = publish(genesis(), &messages);
        let depths = plain.depths_from_tips();
        let windows = windows(&pairs);
        check_against_oracle(&plain, &depths, &windows, seed);
        check_against_oracle(&sharded, &depths, &windows, seed);
        check_against_oracle(replica.tangle(), &depths, &windows, seed);
    }

    #[test]
    fn retiring_every_payload_below_the_walk_window_changes_no_walk_and_no_digest(
        script in vec((0u8..3, 0u8..5, 0u32..5), 0..160),
        pairs in vec((0u32..48, 0u32..12), 1..3),
        seed in any::<u64>(),
    ) {
        let mut weights = StdRng::seed_from_u64(seed);
        let mut model = |_| (0..6).map(|_| weights.gen_range(-1.0..1.0)).collect();
        let genesis = ModelPayload::new(tiny_model(1).parameters());
        let (_, messages) = grow(&script, genesis.clone(), &mut model);
        let (untouched, _) = publish(genesis.clone(), &messages);
        let digest = tangle_digest(&untouched);
        // Born-hashed payloads digest as their unhashed twins.
        prop_assert_eq!(tangle_digest(&publish_hashed(&genesis, &messages)), digest);
        let depths = untouched.depths_from_tips();
        for window in windows(&pairs) {
            let (mut retired, _) = publish(genesis.clone(), &messages);
            let mut born = publish_hashed(&genesis, &messages);
            let deep: Vec<TxId> = (1..depths.len())
                .filter(|&i| depths[i] > window.1)
                .map(|i| TxId::from_index(i as u64))
                .collect();
            retire_payloads(&mut retired, &deep).unwrap();
            retire_payloads(&mut born, &deep).unwrap();
            prop_assert_eq!(
                accuracy_walk_tips(&retired, window, 6, seed),
                accuracy_walk_tips(&untouched, window, 6, seed)
            );
            prop_assert_eq!(tangle_digest(&retired), digest);
            prop_assert_eq!(tangle_digest(&born), digest);
        }
    }
}
