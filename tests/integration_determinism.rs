//! Reproducibility: every experiment in the workspace is deterministic for
//! a fixed seed, and seeds actually matter.

use dagfl::dag::ModelFactory;
use dagfl::datasets::{fmnist_clustered, poets, FmnistConfig, PoetsConfig, POETS_VOCAB};
use dagfl::{DagConfig, FedConfig, FederatedServer, ModelSpec, Simulation};

fn mlp_factory(features: usize) -> ModelFactory {
    ModelSpec::Mlp { hidden: vec![16] }.build_factory(features, 10)
}

fn dag_fingerprint(seed: u64, parallel: bool) -> (usize, Vec<f32>) {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 8,
        samples_per_client: 40,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let mut sim = Simulation::new(
        DagConfig {
            rounds: 5,
            clients_per_round: 4,
            local_batches: 3,
            seed,
            parallel,
            ..DagConfig::default()
        },
        dataset,
        mlp_factory(features),
    );
    sim.run().expect("simulation runs");
    let accs = sim.history().iter().map(|m| m.mean_accuracy()).collect();
    (sim.tangle().len(), accs)
}

#[test]
fn dag_runs_are_reproducible() {
    assert_eq!(dag_fingerprint(7, false), dag_fingerprint(7, false));
}

#[test]
fn parallel_execution_matches_sequential() {
    // Clients work on a per-round snapshot, so thread interleaving must
    // not affect results.
    assert_eq!(dag_fingerprint(7, true), dag_fingerprint(7, false));
}

#[test]
fn parallel_round_path_produces_an_identical_run_report() {
    // The sweep engine stacks a second layer of parallelism (cell
    // workers) on top of the per-round client fan-out, so the parallel
    // round path must be bit-deterministic: the *complete* RunReport —
    // per-round accuracy/loss, specialization tracking, tangle stats —
    // must be field-for-field equal between `parallel = true/false` on
    // the same seed, not just the headline fingerprint.
    use dagfl::scenario::DatasetSpec;
    use dagfl::{Scenario, ScenarioRunner};
    let report_with = |parallel: bool| {
        let mut scenario = Scenario::new(
            "parallel-determinism",
            DatasetSpec::Fmnist {
                clients: 8,
                samples: 40,
                relaxation: 0.0,
                seed: 7,
            },
        )
        .rounds(4)
        .clients_per_round(4)
        .local_batches(3);
        scenario.output.track_every = 2;
        scenario.execution.dag_mut().parallel = parallel;
        ScenarioRunner::new(scenario)
            .expect("scenario validates")
            .run()
            .expect("scenario runs")
    };
    let parallel = report_with(true);
    let sequential = report_with(false);
    assert_eq!(parallel.round_accuracy, sequential.round_accuracy);
    assert_eq!(
        parallel.specialization_track,
        sequential.specialization_track
    );
    assert_eq!(parallel.tangle, sequential.tangle);
    assert_eq!(parallel, sequential);
}

#[test]
fn different_seeds_differ() {
    assert_ne!(dag_fingerprint(7, false).1, dag_fingerprint(8, false).1);
}

#[test]
fn fedavg_runs_are_reproducible() {
    let run = |seed: u64| {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 8,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let mut server = FederatedServer::new(
            FedConfig {
                rounds: 4,
                clients_per_round: 4,
                local_batches: 3,
                seed,
                ..FedConfig::default()
            },
            dataset,
            mlp_factory(features),
        );
        server.run().expect("fedavg runs");
        server.global_parameters().to_vec()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn char_rnn_dag_is_reproducible() {
    let run = || {
        let dataset = poets(&PoetsConfig {
            clients_per_language: 3,
            samples_per_client: 40,
            seq_len: 8,
            seed: 5,
        });
        let factory = ModelSpec::CharRnn {
            embed: 4,
            hidden: 12,
        }
        .build_factory(0, POETS_VOCAB.len());
        let mut sim = Simulation::new(
            DagConfig {
                rounds: 3,
                clients_per_round: 3,
                local_batches: 3,
                learning_rate: 0.5,
                ..DagConfig::default()
            },
            dataset,
            factory,
        );
        sim.run().expect("poets dag runs");
        sim.history()
            .iter()
            .map(|m| m.mean_accuracy())
            .collect::<Vec<f32>>()
    };
    assert_eq!(run(), run());
}
