//! Property test: any well-formed scenario survives the file round-trip
//! (`Scenario` → TOML text → `Scenario`) bit-for-bit.

use proptest::prelude::*;

use dagfl_core::PoisoningConfig;
use dagfl_core::{
    AsyncConfig, ComputeProfile, DagConfig, DelayModel, Normalization, StaleTipPolicy, TipSelector,
};
use dagfl_scenario::{DatasetSpec, ExecutionSpec, ModelSpec, Scenario};

#[allow(clippy::too_many_arguments)]
fn build_scenario(
    kind: u8,
    clients: usize,
    samples: usize,
    seed: u64,
    mode: u8,
    selector_kind: u8,
    alpha: f32,
    dynamic: bool,
    rounds: usize,
    cpr: usize,
    batches: usize,
    lr: f32,
    attack_on: bool,
    fraction: f64,
    track: usize,
    window: usize,
    delay_kind: u8,
    delay: f64,
    policy_kind: u8,
    compute_kind: u8,
) -> Scenario {
    let dataset = match kind {
        0 => DatasetSpec::Fmnist {
            clients,
            samples,
            relaxation: (alpha / 200.0).min(0.9),
            seed,
        },
        1 => DatasetSpec::FmnistAuthor {
            clients,
            samples,
            seed,
        },
        2 => DatasetSpec::Poets {
            clients_per_language: clients,
            samples,
            seq_len: 12,
            seed,
        },
        3 => DatasetSpec::Cifar {
            clients,
            samples,
            seed,
        },
        _ => DatasetSpec::FedProx {
            clients,
            min_samples: samples,
            max_samples: samples + 50,
            seed,
        },
    };
    let normalization = if dynamic {
        Normalization::Dynamic
    } else {
        Normalization::Simple
    };
    let tip_selector = match selector_kind {
        0 => TipSelector::Accuracy {
            alpha,
            normalization,
        },
        1 => TipSelector::Random,
        _ => TipSelector::CumulativeWeight { alpha },
    };
    let dag = DagConfig {
        rounds,
        clients_per_round: cpr.min(dataset.num_clients()),
        local_batches: batches,
        learning_rate: lr,
        tip_selector,
        seed,
        ..DagConfig::default()
    };
    let rounds_mode = mode == 0;
    let execution = if rounds_mode {
        ExecutionSpec::Rounds(dag)
    } else {
        let delay_model = match delay_kind {
            0 => DelayModel::Constant { delay },
            1 => DelayModel::UniformJitter {
                base: delay,
                jitter: delay / 2.0,
            },
            _ => DelayModel::Cohorts {
                slow_fraction: fraction.min(1.0),
                fast: delay,
                slow: delay * 4.0,
                jitter: 0.5,
            },
        };
        let stale_policy = match policy_kind {
            0 => StaleTipPolicy::PublishAnyway,
            1 => StaleTipPolicy::Reselect,
            _ => StaleTipPolicy::Discard,
        };
        let compute = match compute_kind {
            0 => ComputeProfile::Uniform,
            1 => ComputeProfile::TwoSpeed {
                slow_fraction: fraction.min(1.0),
                slowdown: 4.0,
            },
            _ => ComputeProfile::MatchNetworkCohort { slowdown: 2.5 },
        };
        ExecutionSpec::Async {
            config: AsyncConfig {
                dag,
                total_activations: rounds * cpr.max(1),
                mean_interarrival: delay.max(0.1),
                delay: delay_model,
                compute,
                train_time: delay / 4.0,
                stale_policy,
                gossip_fanout: 0,
                workers: usize::from(policy_kind) + 1,
            },
        }
    };
    let mut scenario = Scenario::new("generated", dataset).with_execution(execution);
    if rounds_mode && attack_on {
        scenario.attack = Some(PoisoningConfig {
            poison_fraction: fraction,
            clean_rounds: rounds,
            attack_rounds: rounds.max(1),
            class_a: 3,
            class_b: 8,
            measure_every: track.max(1),
        });
    } else if rounds_mode && track > 0 {
        scenario.output.track_every = track;
    }
    scenario.output.recent_window = window;
    scenario
}

proptest! {
    #[test]
    fn any_scenario_survives_the_file_round_trip(
        (kind, clients, samples, seed) in (0u8..5, 1usize..30, 10usize..120, 0u64..1_000_000),
        (mode, selector_kind, alpha, dynamic) in (0u8..2, 0u8..3, 0.01f32..150.0, any::<bool>()),
        (rounds, cpr, batches, lr) in (1usize..60, 1usize..12, 1usize..20, 0.001f32..1.0),
        (attack_on, fraction, track, window) in (any::<bool>(), 0.0f64..1.0, 0usize..6, 1usize..60),
        (delay_kind, delay, policy_kind, compute_kind) in (0u8..3, 0.1f64..10.0, 0u8..3, 0u8..3),
    ) {
        let scenario = build_scenario(
            kind, clients, samples, seed, mode, selector_kind, alpha, dynamic, rounds, cpr,
            batches, lr, attack_on, fraction, track, window, delay_kind, delay, policy_kind,
            compute_kind,
        );
        let text = scenario.to_toml();
        let reparsed = Scenario::from_toml(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(&scenario, &reparsed, "{}", text);
        // Serialization is a pure function of the value: a second lap
        // produces byte-identical text.
        prop_assert_eq!(reparsed.to_toml(), text);
    }
}

proptest! {
    #[test]
    fn any_small_dataset_that_validates_builds(
        (kind, clients, samples, extra) in (0u8..6, 0usize..8, 0usize..24, 0usize..40),
        (cifar_clients, seed) in (0usize..300, 0u64..1_000),
    ) {
        let dataset = match kind {
            0 => DatasetSpec::Fmnist { clients, samples, relaxation: 0.2, seed },
            1 => DatasetSpec::FmnistStreamed { clients, samples, relaxation: 0.0, seed },
            2 => DatasetSpec::FmnistAuthor { clients, samples, seed },
            3 => DatasetSpec::Poets {
                clients_per_language: clients / 2,
                samples,
                seq_len: extra % 8,
                seed,
            },
            4 => DatasetSpec::Cifar { clients: cifar_clients, samples: samples + extra, seed },
            _ => DatasetSpec::FedProx {
                clients,
                min_samples: samples,
                max_samples: (samples + extra).saturating_sub(10),
                seed,
            },
        };
        let model = match dataset {
            DatasetSpec::Poets { .. } => dataset.default_model(),
            _ => ModelSpec::Linear,
        };
        let scenario = Scenario::new("sizes", dataset.clone()).with_model(model);
        if scenario.validate().is_ok() {
            let built = dataset.build();
            prop_assert_eq!(built.num_clients(), dataset.num_clients());
        }
    }
}
