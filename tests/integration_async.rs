//! Workspace-level tests of the event-driven (round-free) simulation and
//! the flooding-hardening features, exercised through the public API.

use dagfl::dag::{AsyncConfig, AsyncSimulation, GarbageAttackConfig, GarbageAttackScenario};
use dagfl::datasets::{fmnist_by_author, fmnist_clustered, FmnistConfig};
use dagfl::{
    ComputeProfile, DagConfig, DelayModel, ExecutionMode, ModelSpec, PublishGate, StaleTipPolicy,
    TipSelector,
};

fn factory(features: usize) -> dagfl::dag::ModelFactory {
    ModelSpec::Mlp { hidden: vec![16] }.build_factory(features, 10)
}

#[test]
fn async_simulation_learns_and_specializes() {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 9,
        samples_per_client: 50,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let base = dataset.base_pureness();
    let mut sim = AsyncSimulation::new(
        AsyncConfig {
            dag: DagConfig {
                local_batches: 4,
                ..DagConfig::default()
            },
            total_activations: 70,
            delay: DelayModel::constant(3.0),
            ..AsyncConfig::default()
        },
        dataset,
        factory(features),
    );
    sim.run().expect("async run");
    assert!(sim.recent_accuracy(10) > 0.4, "no learning progress");
    assert!(
        sim.approval_pureness() > base,
        "no specialization: {} vs base {}",
        sim.approval_pureness(),
        base
    );
}

#[test]
fn zero_delay_collapses_to_a_chain() {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 9,
        samples_per_client: 50,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let mut sim = AsyncSimulation::new(
        AsyncConfig {
            dag: DagConfig {
                local_batches: 4,
                ..DagConfig::default()
            },
            total_activations: 50,
            delay: DelayModel::constant(0.0),
            ..AsyncConfig::default()
        },
        dataset,
        factory(features),
    );
    sim.run().expect("async run");
    // Instantaneous visibility + instantaneous training (the defaults):
    // activations are effectively serial, so at most a couple of tips
    // ever exist (the DAG degenerates towards a chain). This pins the
    // old single-global-tangle broadcast behaviour.
    assert!(
        sim.tangle().stats().tips <= 2,
        "expected a near-chain, got {} tips",
        sim.tangle().stats().tips
    );
}

#[test]
fn heterogeneous_cohorts_raise_publish_latency_deterministically() {
    let run = |delay: DelayModel| {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 8,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let mut sim = AsyncSimulation::new(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    seed: 7,
                    ..DagConfig::default()
                },
                total_activations: 40,
                delay,
                ..AsyncConfig::default()
            },
            dataset,
            factory(features),
        );
        sim.run().expect("async run");
        sim.metrics()
    };
    let flat = run(DelayModel::constant(1.0));
    let cohorts = run(DelayModel::Cohorts {
        slow_fraction: 0.5,
        fast: 1.0,
        slow: 12.0,
        jitter: 0.0,
    });
    assert_eq!(flat.mean_publish_latency, 1.0);
    assert!(
        cohorts.mean_publish_latency > flat.mean_publish_latency,
        "slow cohort must raise latency: {} vs {}",
        cohorts.mean_publish_latency,
        flat.mean_publish_latency
    );
    // Same seed, same model: the run itself is reproducible.
    let again = run(DelayModel::Cohorts {
        slow_fraction: 0.5,
        fast: 1.0,
        slow: 12.0,
        jitter: 0.0,
    });
    assert_eq!(again, cohorts);
}

#[test]
fn stale_tips_appear_and_discard_policy_prunes_them() {
    let run = |policy: StaleTipPolicy| {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let mut sim = AsyncSimulation::new(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    ..DagConfig::default()
                },
                total_activations: 50,
                mean_interarrival: 0.5,
                delay: DelayModel::constant(0.0),
                compute: ComputeProfile::TwoSpeed {
                    slow_fraction: 0.5,
                    slowdown: 3.0,
                },
                train_time: 2.0,
                stale_policy: policy,
                gossip_fanout: 0,
                workers: 1,
            },
            dataset,
            factory(features),
        );
        sim.run().expect("async run");
        sim.metrics()
    };
    let lenient = run(StaleTipPolicy::PublishAnyway);
    assert!(
        lenient.stale_fraction() > 0.0,
        "long training over instant broadcast must produce stale tips"
    );
    let strict = run(StaleTipPolicy::Discard);
    assert!(strict.discarded_stale > 0, "nothing was discarded");
    assert!(
        strict.publications < lenient.publications,
        "discarding must reduce publications: {} vs {}",
        strict.publications,
        lenient.publications
    );
}

#[test]
fn execution_mode_trait_covers_both_simulators() {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 6,
        samples_per_client: 40,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let mut modes: Vec<Box<dyn ExecutionMode>> = vec![
        Box::new(dagfl::Simulation::new(
            DagConfig {
                rounds: 3,
                clients_per_round: 3,
                local_batches: 3,
                ..DagConfig::default()
            },
            dataset.clone(),
            factory(features),
        )),
        Box::new(AsyncSimulation::new(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    ..DagConfig::default()
                },
                total_activations: 9,
                ..AsyncConfig::default()
            },
            dataset,
            factory(features),
        )),
    ];
    for mode in &mut modes {
        mode.run_to_completion().expect("mode runs");
        assert!(mode.progress() > 0);
        assert!(mode.recent_accuracy(6) > 0.0);
        assert!(mode.tangle_stats().transactions >= 1);
        assert!((0.0..=1.0).contains(&mode.approval_pureness()));
    }
}

#[test]
fn hardened_walk_survives_flooding_better_than_plain() {
    let run = |hardened: bool| {
        let dataset = fmnist_by_author(&FmnistConfig {
            num_clients: 8,
            samples_per_client: 60,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let mut scenario = GarbageAttackScenario::new(
            GarbageAttackConfig {
                dag: DagConfig {
                    rounds: 16,
                    clients_per_round: 5,
                    local_batches: 4,
                    walk_stop_margin: hardened.then_some(0.25),
                    publish_gate: if hardened {
                        PublishGate::BestParent
                    } else {
                        PublishGate::default()
                    },
                    ..DagConfig::default()
                }
                .with_tip_selector(TipSelector::default()),
                clean_rounds: 8,
            },
            dataset,
            factory(features),
        );
        scenario.run().expect("scenario runs");
        let m = scenario.measure().expect("measurement");
        let late = scenario
            .simulation()
            .history()
            .iter()
            .rev()
            .take(4)
            .map(|r| r.mean_accuracy())
            .sum::<f32>()
            / 4.0;
        (late, m.garbage_in_cone)
    };
    let (hardened_acc, hardened_cone) = run(true);
    let (plain_acc, plain_cone) = run(false);
    assert!(
        hardened_acc >= plain_acc,
        "hardening should not hurt: {hardened_acc} vs {plain_acc}"
    );
    assert!(
        hardened_cone <= plain_cone,
        "hardening should reduce approved garbage: {hardened_cone} vs {plain_cone}"
    );
}

#[test]
fn publication_dropout_slows_but_does_not_break_training() {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 8,
        samples_per_client: 50,
        ..FmnistConfig::default()
    });
    let features = dataset.feature_len();
    let mut sim = dagfl::Simulation::new(
        DagConfig {
            rounds: 10,
            clients_per_round: 4,
            local_batches: 4,
            publication_dropout: 0.5,
            ..DagConfig::default()
        },
        dataset,
        factory(features),
    );
    sim.run().expect("run with dropout");
    let total_published: usize = sim.history().iter().map(|m| m.published).sum();
    // Roughly half of the would-be publications are lost; training still
    // makes progress on what survives.
    assert!(total_published > 0, "everything was dropped");
    assert!(sim.tangle().len() > 1);
    let late = sim.history().last().unwrap().mean_accuracy();
    assert!(late > 0.3, "training collapsed under dropout: {late}");
}
