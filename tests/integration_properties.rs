//! Cross-crate property-based tests: invariants of the full pipeline.

use dagfl::datasets::{fmnist_clustered, FmnistConfig};
use dagfl::graphs::{louvain, modularity};
use dagfl::nn::average_parameters;
use dagfl::tangle::TangleRead;
use dagfl::{DagConfig, ModelSpec, Normalization, Simulation, TipSelector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_sim(seed: u64, alpha: f32, rounds: usize) -> Simulation {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 6,
        samples_per_client: 30,
        seed,
        ..FmnistConfig::default()
    });
    let factory = ModelSpec::Linear.build_factory(dataset.feature_len(), 10);
    let mut sim = Simulation::new(
        DagConfig {
            rounds,
            clients_per_round: 3,
            local_batches: 2,
            seed,
            ..DagConfig::default()
        }
        .with_tip_selector(TipSelector::Accuracy {
            alpha,
            normalization: Normalization::Simple,
        }),
        dataset,
        factory,
    );
    sim.run().expect("simulation runs");
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simulation_invariants_hold(seed in 0u64..500, alpha in 0.1f32..100.0) {
        let sim = tiny_sim(seed, alpha, 3);
        // Pureness is a fraction.
        let p = sim.approval_pureness();
        prop_assert!((0.0..=1.0).contains(&p));
        // The tangle is acyclic and all issuers are valid client ids.
        let tangle = sim.tangle();
        for tx in tangle.iter() {
            for parent in tx.parents() {
                prop_assert!(parent.index() < tx.id().index());
            }
            if let Some(issuer) = tx.issuer() {
                prop_assert!((issuer as usize) < sim.dataset().num_clients());
            }
        }
        // Per-round metric vectors are consistent.
        for m in sim.history() {
            prop_assert_eq!(m.accuracies.len(), m.active_clients.len());
            prop_assert_eq!(m.losses.len(), m.active_clients.len());
            prop_assert!(m.published <= m.active_clients.len());
            for &acc in &m.accuracies {
                prop_assert!((0.0..=1.0).contains(&acc));
            }
        }
    }

    #[test]
    fn client_graph_modularity_in_bounds(seed in 0u64..200) {
        let sim = tiny_sim(seed, 10.0, 3);
        let graph = sim.client_graph();
        let partition = louvain(&graph, &mut StdRng::seed_from_u64(seed));
        let q = modularity(&graph, &partition);
        prop_assert!((-0.5 - 1e-9..=1.0 + 1e-9).contains(&q));
    }

    #[test]
    fn averaging_is_idempotent_on_identical_models(
        params in proptest::collection::vec(-10.0f32..10.0, 1..100)
    ) {
        let avg = average_parameters(&[&params, &params]);
        for (a, b) in avg.iter().zip(&params) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn averaging_is_commutative(
        a in proptest::collection::vec(-10.0f32..10.0, 20),
        b in proptest::collection::vec(-10.0f32..10.0, 20),
    ) {
        let ab = average_parameters(&[&a, &b]);
        let ba = average_parameters(&[&b, &a]);
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }
}

#[test]
fn genesis_always_remains_reachable() {
    let sim = tiny_sim(42, 10.0, 4);
    let tangle = sim.tangle();
    let genesis = tangle.genesis();
    for tx in tangle.iter() {
        let cone = tangle.past_cone(tx.id()).expect("cone exists");
        assert!(cone.contains(&genesis), "{} cannot reach genesis", tx.id());
    }
}
