//! Property tests: any well-formed scenario survives the file round-trip
//! (`Scenario` → TOML text → `Scenario`) bit-for-bit, a dataset that
//! validates builds, and every key a section list declares is checked
//! against its range. CI runs the range property at
//! `PROPTEST_CASES=4096`.

use std::convert::Infallible;

use proptest::prelude::*;

use dagfl_analysis::AnalysisSource;
use dagfl_core::{
    AsyncConfig, ComputeProfile, CrashWindow, DagConfig, DelayModel, FaultPlan, Key, KeyVisitor,
    Normalization, PartitionWindow, PoisoningConfig, PublishGate, Range, Slot, StaleTipPolicy,
    TipSelector,
};
use dagfl_scenario::{
    AnalysisSpec, DatasetSpec, ExecutionSpec, ModelSpec, Scenario, ScenarioError,
};

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

/// Draws from a case's raw numbers.
struct Draw<'a>(std::slice::Iter<'a, usize>);

impl Draw<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.0.next().expect("enough raw draws for one scenario") % n
    }

    fn between(&mut self, low: usize, high: usize) -> usize {
        low + self.below(high - low + 1)
    }

    fn chance(&mut self) -> bool {
        self.below(2) == 0
    }

    /// A value in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.below(1000) as f64 / 1000.0
    }

    fn dataset(&mut self) -> DatasetSpec {
        let seed = self.below(1000) as u64;
        let (clients, samples) = (self.between(3, 20), self.between(10, 60));
        let relaxation = (self.unit() * 0.9) as f32;
        match self.below(6) {
            0 => DatasetSpec::Fmnist {
                clients,
                samples,
                relaxation,
                seed,
            },
            1 => DatasetSpec::FmnistStreamed {
                clients,
                samples,
                relaxation,
                seed,
            },
            2 => DatasetSpec::FmnistAuthor {
                clients: self.between(1, 20),
                samples,
                seed,
            },
            3 => DatasetSpec::Poets {
                clients_per_language: self.between(1, 8),
                samples,
                seq_len: self.between(1, 16),
                seed,
            },
            4 => DatasetSpec::Cifar {
                clients: self.between(1, 30),
                samples,
                seed,
            },
            _ => DatasetSpec::FedProx {
                clients: self.between(1, 20),
                min_samples: samples,
                max_samples: samples + self.below(40),
                seed,
            },
        }
    }

    fn dag(&mut self, clients: usize) -> DagConfig {
        let alpha = (self.unit() * 20.0) as f32;
        let tip_selector = match self.below(3) {
            0 => TipSelector::Accuracy {
                alpha,
                normalization: [Normalization::Simple, Normalization::Dynamic][self.below(2)],
            },
            1 => TipSelector::Random,
            _ => TipSelector::CumulativeWeight { alpha },
        };
        let depth = self.below(20) as u32;
        DagConfig {
            rounds: self.between(1, 10),
            clients_per_round: self.between(1, clients),
            local_epochs: self.between(1, 3),
            local_batches: self.between(1, 5),
            batch_size: self.between(1, 20),
            learning_rate: 0.01 + self.unit() as f32,
            tip_selector,
            walk_depth: (depth, depth + self.below(10) as u32),
            walk_stop_margin: self.chance().then(|| 0.1 + self.unit() as f32),
            publish_gate: [
                PublishGate::AveragedReference,
                PublishGate::BestParent,
                PublishGate::Always,
            ][self.below(3)],
            frozen_prefix: self.below(3),
            publication_dropout: self.unit() as f32,
            seed: self.below(1000) as u64,
            parallel: self.chance(),
        }
    }

    fn async_config(&mut self, dag: DagConfig) -> AsyncConfig {
        let delay = match self.below(3) {
            0 => DelayModel::Constant {
                delay: self.unit() * 5.0,
            },
            1 => DelayModel::UniformJitter {
                base: self.unit() * 5.0,
                jitter: self.unit(),
            },
            _ => DelayModel::Cohorts {
                slow_fraction: self.unit(),
                fast: self.unit(),
                slow: self.unit() * 8.0,
                jitter: self.unit(),
            },
        };
        let compute = match self.below(3) {
            0 => ComputeProfile::Uniform,
            1 => ComputeProfile::TwoSpeed {
                slow_fraction: self.unit(),
                slowdown: 1.0 + self.unit() * 4.0,
            },
            _ => ComputeProfile::MatchNetworkCohort {
                slowdown: 1.0 + self.unit() * 4.0,
            },
        };
        AsyncConfig {
            dag,
            total_activations: self.between(1, 50),
            mean_interarrival: 0.1 + self.unit(),
            delay,
            compute,
            train_time: self.unit(),
            stale_policy: [
                StaleTipPolicy::PublishAnyway,
                StaleTipPolicy::Reselect,
                StaleTipPolicy::Discard,
            ][self.below(3)],
            gossip_fanout: self.below(4),
            workers: self.between(1, 4),
        }
    }

    fn faults(&mut self, clients: usize) -> FaultPlan {
        let start = self.unit() * 5.0;
        let at = self.unit() * 5.0;
        FaultPlan {
            drop: self.unit(),
            duplicate: self.unit(),
            reorder: self.unit(),
            extra_delay: self.unit(),
            delay_boost: self.unit() * 3.0,
            partition: (clients > 1 && self.chance()).then(|| PartitionWindow {
                start,
                heal: start + self.unit() * 5.0,
                split: self.between(1, clients - 1),
            }),
            crash: self.chance().then(|| CrashWindow {
                peer: self.below(clients),
                at,
                restart: [at + self.unit() * 5.0, f64::INFINITY][self.below(2)],
            }),
        }
    }

    /// A scenario that validates, of any shape: every dataset, model,
    /// mode, selector, delay and compute model, and each optional
    /// section where its mode allows it.
    fn scenario(&mut self) -> Scenario {
        let dataset = self.dataset();
        let clients = dataset.num_clients();
        let classes = dataset.num_classes();
        let model = match (&dataset, self.below(3)) {
            (DatasetSpec::Poets { .. }, _) => ModelSpec::CharRnn {
                embed: self.between(1, 16),
                hidden: self.between(1, 32),
            },
            (_, 0) => ModelSpec::Linear,
            _ => ModelSpec::Mlp {
                hidden: (0..self.below(3)).map(|_| self.between(1, 32)).collect(),
            },
        };
        let dag = self.dag(clients);
        let mut scenario = Scenario::new("generated", dataset).with_model(model);
        if self.chance() {
            let config = self.async_config(dag);
            scenario.execution = ExecutionSpec::Async { config };
            scenario.faults = self.chance().then(|| self.faults(clients));
        } else if self.chance() {
            scenario.execution = ExecutionSpec::Rounds(dag);
            let class_a = self.below(classes);
            scenario.attack = Some(PoisoningConfig {
                poison_fraction: self.unit(),
                clean_rounds: self.below(5),
                attack_rounds: self.between(1, 5),
                class_a,
                class_b: (class_a + self.between(1, classes - 1)) % classes,
                measure_every: self.between(1, 3),
            });
        } else {
            scenario.execution = ExecutionSpec::Rounds(dag);
            scenario.output.track_every = self.below(3);
            scenario.analysis = self.chance().then(|| {
                let k_min = self.between(1, 4);
                AnalysisSpec {
                    k: self.chance().then(|| self.between(1, 6)),
                    k_min,
                    k_max: k_min + self.below(4),
                    cadence: self.below(3),
                    source: [
                        AnalysisSource::Parameters,
                        AnalysisSource::Approvals,
                        AnalysisSource::Both,
                    ][self.below(3)],
                }
            });
        }
        scenario.output.recent_window = self.between(1, 50);
        scenario
    }
}

/// The keys a section list declares with a range, among those the
/// scenario holds a value for.
struct Ranged(Vec<Key>);

impl KeyVisitor for Ranged {
    type Error = Infallible;

    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), Infallible> {
        let absent = matches!(
            value,
            Slot::OptUsize(None) | Slot::OptF32(None) | Slot::OptF64(None)
        );
        if key.range != Range::Any && !absent {
            self.0.push(key);
        }
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        _: Key,
        _: &[(&'static str, E)],
        _: &mut E,
    ) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Sets the key named `.0` just outside its range.
struct Outside(&'static str);

impl KeyVisitor for Outside {
    type Error = Infallible;

    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), Infallible> {
        if key.name != self.0 {
            return Ok(());
        }
        let x = match key.range {
            Range::Any => unreachable!("`{}` has no range", key.name),
            Range::AtLeastOne | Range::Positive | Range::Margin | Range::Line => 0.0,
            Range::NonNegative | Range::PartitionStart(_) | Range::CrashAt(_) => -0.001,
            Range::Fraction => 1.001,
            Range::Slowdown => 0.999,
            Range::Relaxation => 1.0,
            Range::Samples => 9.0,
            Range::Clusters => 2.0,
            Range::DepthAtMost(max) => f64::from(max) + 1.0,
            Range::SamplesAtMost(max) | Range::KAtMost(max) => max as f64 + 1.0,
        };
        match value {
            Slot::Usize(v) | Slot::UsizeOr(v, _) | Slot::OptUsize(Some(v)) => *v = x as usize,
            Slot::U32(v) => *v = x as u32,
            Slot::F32(v) | Slot::OptF32(Some(v)) => *v = x as f32,
            Slot::OptF32(v) => *v = Some(x as f32),
            Slot::F64(v) | Slot::OptF64(Some(v)) => *v = x,
            Slot::Widths(v) => v.push(x as usize),
            Slot::Str(v) => v.clear(),
            other => unreachable!("`{}` holds {other:?}", key.name),
        }
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        _: Key,
        _: &[(&'static str, E)],
        _: &mut E,
    ) -> Result<(), Infallible> {
        Ok(())
    }
}

proptest! {
    #[test]
    fn every_key_out_of_range_is_an_invalid_value_under_its_path(
        raw in proptest::collection::vec(0usize..1_000_000, 96),
    ) {
        let scenario = Draw(raw.iter()).scenario();
        prop_assert!(scenario.validate().is_ok(), "{scenario:?}");
        let is_async = matches!(scenario.execution, ExecutionSpec::Async { .. });
        for section in ["", "dataset", "model", "execution", "attack", "faults", "analysis", "output"] {
            let mut ranged = Ranged(Vec::new());
            let Ok(()) = scenario.clone().keys(section, &mut ranged);
            for key in ranged.0 {
                // Async mode ignores the round-scheduling keys.
                if is_async && matches!(key.name, "rounds" | "clients_per_round") {
                    continue;
                }
                let mut broken = scenario.clone();
                let Ok(()) = broken.keys(section, &mut Outside(key.name));
                let path = match section {
                    "" => key.name.to_string(),
                    _ => format!("{section}.{}", key.name),
                };
                match broken.validate() {
                    Err(ScenarioError::InvalidValue { key, .. }) => prop_assert_eq!(key, path),
                    other => panic!("{path} just outside its range: {other:?}\n{broken:?}"),
                }
            }
        }
    }
}
