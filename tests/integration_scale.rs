//! Sharded-core invariants: equal [`RunReport`]s across repeated runs,
//! event-loop worker counts and sweep parallelism, plus insertion-order
//! independence of the content-addressed tangle digest.

use dagfl::dag::{tangle_digest, ModelPayload, ModelTangle, ShardedModelTangle};
use dagfl::scenario::{
    DatasetSpec, ExecutionSpec, Scenario, ScenarioRunner, SweepRunner, SweepSpec,
};
use dagfl::tangle::TangleRead;
use dagfl::{AsyncConfig, DagConfig, DelayModel};
use proptest::prelude::*;

fn small_dataset() -> DatasetSpec {
    DatasetSpec::Fmnist {
        clients: 6,
        samples: 30,
        relaxation: 0.0,
        seed: 42,
    }
}

fn rounds_scenario() -> Scenario {
    Scenario::new("scale-eq-rounds", small_dataset())
        .rounds(3)
        .clients_per_round(3)
        .local_batches(2)
}

fn async_scenario(workers: usize) -> Scenario {
    Scenario::new("scale-eq-async", small_dataset()).with_execution(ExecutionSpec::Async {
        config: AsyncConfig {
            dag: DagConfig {
                local_batches: 2,
                batch_size: 5,
                ..DagConfig::default()
            },
            total_activations: 30,
            mean_interarrival: 1.0,
            delay: DelayModel::constant(1.0),
            train_time: 0.5,
            workers,
            ..AsyncConfig::default()
        },
    })
}

#[test]
fn rounds_reports_are_identical_across_runs() {
    let a = ScenarioRunner::new(rounds_scenario())
        .unwrap()
        .run()
        .unwrap();
    let b = ScenarioRunner::new(rounds_scenario())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn async_reports_are_identical_at_any_worker_count() {
    let serial = ScenarioRunner::new(async_scenario(1))
        .unwrap()
        .run()
        .unwrap();
    for workers in [2, 3, 5] {
        let parallel = ScenarioRunner::new(async_scenario(workers))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(serial, parallel, "workers={workers} diverged from serial");
        assert_eq!(serial.tangle_digest, parallel.tangle_digest);
    }
}

#[test]
fn rounds_sweep_reports_are_identical_for_any_job_count() {
    let spec = SweepSpec::over_scenario("scale-eq-sweep-rounds", rounds_scenario())
        .axis("alpha", ["1", "10"])
        .axis("seed", ["42", "43"]);
    let serial = SweepRunner::new(spec.clone()).unwrap().run(1).unwrap();
    let parallel = SweepRunner::new(spec).unwrap().run(4).unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn async_sweep_reports_are_identical_for_any_job_count() {
    let spec = SweepSpec::over_scenario("scale-eq-sweep-async", async_scenario(2))
        .axis("alpha", ["1", "10"]);
    let serial = SweepRunner::new(spec.clone()).unwrap().run(1).unwrap();
    let parallel = SweepRunner::new(spec).unwrap().run(3).unwrap();
    assert_eq!(serial, parallel);
}

/// A small distinctive payload for transaction `i`.
fn payload(i: usize) -> ModelPayload {
    ModelPayload::new(vec![i as f32 + 0.5, (i * 7) as f32])
}

/// The parents of scripted transaction `i` (0-based among non-genesis
/// transactions) as sequential indices: selector `s` picks among the
/// genesis (0) and the `i` earlier transactions.
fn scripted_parents(script: &[(u8, u8)], i: usize) -> (usize, usize) {
    let (a, b) = script[i];
    (a as usize % (i + 1), b as usize % (i + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any dependency-respecting interleaving of sharded inserts yields
    /// the same tip set and the same content digest as sequential
    /// insertion: the digest never looks at dense ids.
    #[test]
    fn sharded_insert_order_preserves_tips_and_digest(
        script in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        seed in any::<u64>(),
    ) {
        // Sequential reference: insert in script order.
        let mut sequential = ModelTangle::new(payload(0));
        let mut ids = vec![sequential.genesis()];
        for i in 0..script.len() {
            let (pa, pb) = scripted_parents(&script, i);
            let id = sequential
                .attach_with_meta(
                    payload(i + 1),
                    &[ids[pa], ids[pb]],
                    Some((i % 5) as u32),
                    i as u32,
                )
                .expect("parents exist");
            ids.push(id);
        }

        // Sharded copy: insert in a seed-derived random order that only
        // respects the parent-before-child constraint.
        let sharded = ShardedModelTangle::new(payload(0));
        let mut mapped: Vec<Option<dagfl::tangle::TxId>> = vec![None; script.len() + 1];
        mapped[0] = Some(sharded.genesis());
        let mut pending: Vec<usize> = (1..=script.len()).collect();
        let mut state = seed;
        while !pending.is_empty() {
            let ready: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| {
                    let (pa, pb) = scripted_parents(&script, i - 1);
                    mapped[pa].is_some() && mapped[pb].is_some()
                })
                .collect();
            // Deterministic xorshift pick among the ready transactions.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = ready[(state % ready.len() as u64) as usize];
            let (pa, pb) = scripted_parents(&script, i - 1);
            let id = sharded
                .attach_with_meta(
                    payload(i),
                    &[mapped[pa].unwrap(), mapped[pb].unwrap()],
                    Some(((i - 1) % 5) as u32),
                    (i - 1) as u32,
                )
                .expect("parents inserted first");
            mapped[i] = Some(id);
            pending.retain(|&p| p != i);
        }

        prop_assert_eq!(tangle_digest(&sequential), tangle_digest(&sharded));

        // Same tip set, compared by payload content (dense ids differ
        // between the two insertion orders).
        fn tip_key<T: TangleRead<ModelPayload>>(
            tangle: &T,
            tips: Vec<dagfl::tangle::TxId>,
        ) -> Vec<u32> {
            let mut keys: Vec<u32> = tips
                .into_iter()
                .map(|id| tangle.payload_of(id).unwrap().params()[0].to_bits())
                .collect();
            keys.sort_unstable();
            keys
        }
        prop_assert_eq!(
            tip_key(&sequential, sequential.tips()),
            tip_key(&sharded, sharded.tips())
        );
    }
}
