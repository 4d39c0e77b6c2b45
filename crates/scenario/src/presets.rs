//! The preset registry: the paper's experiments as named scenarios.
//!
//! Every preset resolves to a complete [`Scenario`] value at one of two
//! [`Scale`]s — *quick* (minutes on a laptop, qualitative shapes
//! preserved) or the paper's *full* configuration (`DAGFL_FULL=1`).
//! The figure registry in `dagfl-bench`, `dagfl run --preset` and
//! the checked-in `scenarios/*.toml` files all resolve through this one
//! table, so an experiment's definition lives in exactly one place.

use dagfl_core::{
    AsyncConfig, ComputeProfile, DagConfig, DelayModel, Normalization, StaleTipPolicy, TipSelector,
};

use crate::spec::{AnalysisSpec, AttackSpec, DatasetSpec, FaultSpec, Scenario, ScenarioError};

/// Experiment scale: quick (default) or the paper's full scale
/// (`DAGFL_FULL=1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs preserving the qualitative result shapes.
    Quick,
    /// The paper's configuration (Table 1).
    Full,
}

impl Scale {
    /// Reads the scale from the `DAGFL_FULL` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("DAGFL_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks `quick` or `full` depending on the scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The canonical preset names with one-line descriptions, in listing
/// order.
pub const PRESET_NAMES: &[(&str, &str)] = &[
    ("smoke", "tiny 2-round FMNIST run (CI smoke test, seconds)"),
    (
        "quickstart",
        "25 rounds on 15-client FMNIST-clustered with the default selector",
    ),
    ("table1-fmnist", "Table 1, FMNIST-clustered row"),
    ("table1-poets", "Table 1, Poets row (dynamic normalization)"),
    (
        "table1-cifar",
        "Table 1, CIFAR-100 row (dynamic normalization)",
    ),
    (
        "fig05-alpha10",
        "Figure 5: tracked cluster metrics on FMNIST (also -alpha1, -alpha100)",
    ),
    (
        "fig06-alpha10",
        "Figure 6: accuracy vs alpha, simple normalization (also -alpha0.1/1/100)",
    ),
    (
        "fig07-alpha10",
        "Figure 7: accuracy vs alpha, dynamic normalization (also -alpha0.1/1/100)",
    ),
    (
        "fig08-alpha10",
        "Figure 8: relaxed clusters, 18% foreign data (also -alpha0.1/1/100)",
    ),
    (
        "poisoning-p0.2",
        "label-flip attack on 20% of clients, accuracy selector (also -p0.0, -p0.3)",
    ),
    (
        "poisoning-random-p0.2",
        "label-flip attack on 20% of clients, random-selector baseline",
    ),
    (
        "async-delay2",
        "asynchronous run, constant 2-unit link delay (also -delay0, -delay10)",
    ),
    (
        "async-cohorts",
        "asynchronous run, slow/fast cohorts with matched compute stragglers",
    ),
    (
        "chaos-smoke",
        "fault-injected async run: drops, duplicates, reorders, a partition and a crash",
    ),
    (
        "analysis-smoke",
        "tiny clustered run with the full analytics pipeline (CI smoke test, seconds)",
    ),
    (
        "scale-10k",
        "10,000-client async run over the sharded store (4 workers; full scale deepens the DAG)",
    ),
];

/// The FMNIST-clustered dataset at the given scale.
fn fmnist_dataset(scale: Scale, relaxation: f32) -> DatasetSpec {
    DatasetSpec::Fmnist {
        clients: scale.pick(15, 99),
        samples: scale.pick(60, 120),
        relaxation,
        seed: 42,
    }
}

/// The Table 1 FMNIST-clustered hyperparameter row at the given scale.
fn fmnist_dag(scale: Scale) -> DagConfig {
    DagConfig {
        rounds: scale.pick(30, 100),
        clients_per_round: scale.pick(6, 10),
        local_epochs: 1,
        local_batches: scale.pick(5, 10),
        batch_size: 10,
        learning_rate: 0.05,
        ..DagConfig::default()
    }
}

fn alpha_scenario(
    name: &str,
    scale: Scale,
    alpha: f32,
    normalization: Normalization,
    relaxation: f32,
) -> Scenario {
    Scenario::new(name, fmnist_dataset(scale, relaxation))
        .with_execution(crate::spec::ExecutionSpec::Rounds(fmnist_dag(scale)))
        .with_selector(TipSelector::Accuracy {
            alpha,
            normalization,
        })
}

fn poisoning_scenario(name: &str, scale: Scale, fraction: f64, selector: TipSelector) -> Scenario {
    Scenario::new(
        name,
        DatasetSpec::FmnistAuthor {
            clients: scale.pick(12, 40),
            samples: scale.pick(80, 120),
            seed: 42,
        },
    )
    .with_execution(crate::spec::ExecutionSpec::Rounds(DagConfig {
        clients_per_round: scale.pick(4, 10),
        local_batches: scale.pick(5, 10),
        ..DagConfig::default()
    }))
    .with_selector(selector)
    .with_attack(AttackSpec {
        fraction,
        clean_rounds: scale.pick(20, 100),
        attack_rounds: scale.pick(20, 100),
        class_a: 3,
        class_b: 8,
        measure_every: scale.pick(4, 10),
    })
}

fn async_scenario(name: &str, scale: Scale, delay: DelayModel) -> Scenario {
    let dag = fmnist_dag(scale);
    // The same training budget as the round-based reference run.
    let activations = dag.rounds * dag.clients_per_round;
    Scenario::new(name, fmnist_dataset(scale, 0.0))
        .asynchronous(AsyncConfig {
            dag,
            total_activations: activations,
            mean_interarrival: 1.0,
            delay,
            ..AsyncConfig::default()
        })
        .with_recent_window(dag.clients_per_round * 5)
}

fn build(name: &str, scale: Scale) -> Option<Scenario> {
    if let Some(alpha) = name.strip_prefix("fig05-alpha") {
        let alpha: f32 = alpha.parse().ok().filter(|a| *a > 0.0)?;
        return Some(
            alpha_scenario(name, scale, alpha, Normalization::Simple, 0.0)
                .tracking(scale.pick(3, 10))
                // The analytics counterpart of the tracked §4.3 metrics:
                // k-means at the ground-truth cluster count, so the
                // sweep's purity column reads directly against alpha.
                .with_analysis(AnalysisSpec {
                    k: Some(3),
                    cadence: scale.pick(3, 10),
                    ..AnalysisSpec::default()
                }),
        );
    }
    if let Some(alpha) = name.strip_prefix("fig06-alpha") {
        let alpha: f32 = alpha.parse().ok().filter(|a| *a > 0.0)?;
        return Some(alpha_scenario(
            name,
            scale,
            alpha,
            Normalization::Simple,
            0.0,
        ));
    }
    if let Some(alpha) = name.strip_prefix("fig07-alpha") {
        let alpha: f32 = alpha.parse().ok().filter(|a| *a > 0.0)?;
        return Some(alpha_scenario(
            name,
            scale,
            alpha,
            Normalization::Dynamic,
            0.0,
        ));
    }
    if let Some(alpha) = name.strip_prefix("fig08-alpha") {
        let alpha: f32 = alpha.parse().ok().filter(|a| *a > 0.0)?;
        // 18% foreign-cluster data, the middle of the paper's 15-20%.
        return Some(alpha_scenario(
            name,
            scale,
            alpha,
            Normalization::Simple,
            0.18,
        ));
    }
    match name {
        "smoke" => Some(
            Scenario::new(
                name,
                DatasetSpec::Fmnist {
                    clients: 4,
                    samples: 30,
                    relaxation: 0.0,
                    seed: 42,
                },
            )
            .rounds(2)
            .clients_per_round(2)
            .local_batches(2),
        ),
        "quickstart" => Some(
            Scenario::new(
                name,
                DatasetSpec::Fmnist {
                    clients: 15,
                    samples: 80,
                    relaxation: 0.0,
                    seed: 42,
                },
            )
            .rounds(25)
            .clients_per_round(5)
            .with_model(crate::spec::ModelSpec::Mlp { hidden: vec![32] }),
        ),
        "table1-fmnist" => Some(
            Scenario::new(name, fmnist_dataset(scale, 0.0))
                .with_execution(crate::spec::ExecutionSpec::Rounds(fmnist_dag(scale))),
        ),
        "table1-poets" => Some(
            Scenario::new(
                name,
                DatasetSpec::Poets {
                    clients_per_language: scale.pick(6, 20),
                    samples: scale.pick(400, 600),
                    seq_len: scale.pick(12, 20),
                    seed: 42,
                },
            )
            .with_execution(crate::spec::ExecutionSpec::Rounds(DagConfig {
                rounds: scale.pick(40, 100),
                clients_per_round: scale.pick(6, 10),
                local_epochs: 1,
                local_batches: scale.pick(15, 35),
                batch_size: 10,
                // Table 1 uses SGD(0.8) for the LEAF LSTM; the smaller
                // GRU trains more stably at 0.3 on the scaled-down
                // corpus.
                learning_rate: scale.pick(0.3, 0.8),
                // Next-character accuracies differ only slightly between
                // the language clusters, so the spread-scaled dynamic
                // normalization (Eq. 3) is required (section 4.2).
                tip_selector: TipSelector::Accuracy {
                    alpha: 10.0,
                    normalization: Normalization::Dynamic,
                },
                ..DagConfig::default()
            })),
        ),
        "table1-cifar" => Some(
            Scenario::new(
                name,
                DatasetSpec::Cifar {
                    clients: scale.pick(30, 94),
                    samples: 60,
                    seed: 42,
                },
            )
            .with_execution(crate::spec::ExecutionSpec::Rounds(DagConfig {
                rounds: scale.pick(30, 100),
                clients_per_round: scale.pick(6, 10),
                local_epochs: scale.pick(3, 5),
                local_batches: scale.pick(10, 45),
                batch_size: 10,
                learning_rate: scale.pick(0.03, 0.01),
                // Clients hold superclass *mixtures*, so candidate
                // accuracies differ only modestly; the dynamic
                // normalization keeps the walk discriminating.
                tip_selector: TipSelector::Accuracy {
                    alpha: 10.0,
                    normalization: Normalization::Dynamic,
                },
                ..DagConfig::default()
            })),
        ),
        "poisoning-p0.0" => Some(poisoning_scenario(name, scale, 0.0, TipSelector::default())),
        "poisoning-p0.2" => Some(poisoning_scenario(name, scale, 0.2, TipSelector::default())),
        "poisoning-p0.3" => Some(poisoning_scenario(name, scale, 0.3, TipSelector::default())),
        "poisoning-random-p0.2" => Some(poisoning_scenario(name, scale, 0.2, TipSelector::Random)),
        "chaos-smoke" => Some(
            // Deliberately scale-independent: a correctness harness for
            // the fault-injection seam, not a paper figure. Every fault
            // kind is active at once, yet the run stays seconds-fast.
            Scenario::new(
                name,
                DatasetSpec::Fmnist {
                    clients: 6,
                    samples: 30,
                    relaxation: 0.0,
                    seed: 42,
                },
            )
            .asynchronous(AsyncConfig {
                dag: DagConfig {
                    clients_per_round: 3,
                    local_batches: 2,
                    ..DagConfig::default()
                },
                total_activations: 60,
                mean_interarrival: 1.0,
                delay: DelayModel::constant(1.0),
                gossip_fanout: 2,
                ..AsyncConfig::default()
            })
            .with_faults(FaultSpec {
                drop: 0.15,
                duplicate: 0.1,
                reorder: 0.1,
                extra_delay: 0.1,
                delay_boost: 2.0,
                partition: Some((10.0, 20.0, 3)),
                crash: Some((5, 25.0, 35.0)),
            })
            .with_recent_window(15),
        ),
        "analysis-smoke" => Some(
            // Deliberately scale-independent: a correctness harness for
            // the analytics pipeline, not a paper figure. Auto-k, both
            // views and a mid-run cadence are all active, yet the run
            // stays seconds-fast.
            Scenario::new(
                name,
                DatasetSpec::Fmnist {
                    clients: 6,
                    samples: 30,
                    relaxation: 0.0,
                    seed: 42,
                },
            )
            .rounds(4)
            .clients_per_round(3)
            .local_batches(2)
            .with_analysis(AnalysisSpec {
                cadence: 2,
                ..AnalysisSpec::default()
            }),
        ),
        "scale-10k" => Some(
            // The sharded-core scaling scenario: 10,000 clients at BOTH
            // scales — the population is the point; `quick` only trims
            // the activation budget and per-client data so the run
            // finishes in CI minutes. Gossip keeps each replica's view
            // (and memory) bounded, the shared segment registry stores
            // every model exactly once, and four event-loop workers
            // exercise the deterministic batch barrier.
            Scenario::new(
                name,
                DatasetSpec::FmnistStreamed {
                    clients: 10_000,
                    samples: scale.pick(12, 60),
                    relaxation: 0.0,
                    seed: 42,
                },
            )
            .asynchronous(AsyncConfig {
                dag: DagConfig {
                    local_batches: 2,
                    batch_size: 5,
                    ..DagConfig::default()
                },
                total_activations: scale.pick(2_000, 20_000),
                // Slow per-client cadence: with 10k clients the *global*
                // activation rate is still ~200/t, but the run now spans
                // enough logical time for gossip (delay 1.0) to land, so
                // later publications approve real tips instead of piling
                // onto the genesis.
                mean_interarrival: 50.0,
                delay: DelayModel::constant(1.0),
                train_time: 0.5,
                gossip_fanout: 8,
                workers: 4,
                ..AsyncConfig::default()
            })
            .with_model(crate::spec::ModelSpec::Mlp { hidden: vec![16] })
            .with_recent_window(200),
        ),
        "async-delay0" => Some(async_scenario(name, scale, DelayModel::constant(0.0))),
        "async-delay2" => Some(async_scenario(name, scale, DelayModel::constant(2.0))),
        "async-delay10" => Some(async_scenario(name, scale, DelayModel::constant(10.0))),
        "async-cohorts" => {
            let mut scenario = async_scenario(
                name,
                scale,
                DelayModel::Cohorts {
                    slow_fraction: 0.3,
                    fast: 1.0,
                    slow: 8.0,
                    jitter: 1.0,
                },
            );
            if let crate::spec::ExecutionSpec::Async { config, .. } = &mut scenario.execution {
                // The same clients are network-slow and 4x compute-slow
                // (the realistic straggler regime), training takes
                // logical time, and superseded tips are re-selected.
                config.compute = ComputeProfile::MatchNetworkCohort { slowdown: 4.0 };
                config.train_time = 0.5;
                config.stale_policy = StaleTipPolicy::Reselect;
            }
            Some(scenario)
        }
        _ => None,
    }
}

impl Scenario {
    /// Resolves a preset at the scale read from `DAGFL_FULL`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownPreset`] for unregistered names.
    pub fn preset(name: &str) -> Result<Scenario, ScenarioError> {
        Self::preset_at(name, Scale::from_env())
    }

    /// Resolves a preset at an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownPreset`] for unregistered names.
    pub fn preset_at(name: &str, scale: Scale) -> Result<Scenario, ScenarioError> {
        build(name, scale).ok_or_else(|| ScenarioError::UnknownPreset(name.to_string()))
    }

    /// The canonical preset names with one-line descriptions.
    pub fn preset_names() -> &'static [(&'static str, &'static str)] {
        PRESET_NAMES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExecutionSpec;

    #[test]
    fn every_listed_preset_builds_and_validates_at_both_scales() {
        for (name, _) in PRESET_NAMES {
            for scale in [Scale::Quick, Scale::Full] {
                let scenario = Scenario::preset_at(name, scale)
                    .unwrap_or_else(|e| panic!("{name} at {scale:?}: {e}"));
                assert_eq!(scenario.name, *name);
                scenario
                    .validate()
                    .unwrap_or_else(|e| panic!("{name} at {scale:?}: {e}"));
                // Every preset survives a file round-trip.
                let reparsed = Scenario::from_toml(&scenario.to_toml()).unwrap();
                assert_eq!(scenario, reparsed, "{name}");
            }
        }
    }

    #[test]
    fn alpha_presets_parse_the_suffix() {
        for (name, alpha) in [
            ("fig06-alpha0.1", 0.1f32),
            ("fig06-alpha1", 1.0),
            ("fig06-alpha100", 100.0),
            ("fig05-alpha10", 10.0),
        ] {
            let scenario = Scenario::preset_at(name, Scale::Quick).unwrap();
            match scenario.execution.dag().tip_selector {
                TipSelector::Accuracy { alpha: a, .. } => assert_eq!(a, alpha, "{name}"),
                other => panic!("{name}: unexpected selector {other:?}"),
            }
        }
        assert!(Scenario::preset_at("fig06-alpha-3", Scale::Quick).is_err());
        assert!(Scenario::preset_at("fig06-alphaX", Scale::Quick).is_err());
    }

    #[test]
    fn unknown_presets_error() {
        assert!(matches!(
            Scenario::preset_at("fig99", Scale::Quick),
            Err(ScenarioError::UnknownPreset(_))
        ));
    }

    #[test]
    fn table1_presets_match_the_paper_at_full_scale() {
        let fmnist = Scenario::preset_at("table1-fmnist", Scale::Full).unwrap();
        let dag = fmnist.execution.dag();
        assert_eq!(
            (dag.rounds, dag.clients_per_round, dag.local_batches),
            (100, 10, 10)
        );
        assert_eq!(dag.learning_rate, 0.05);
        let poets = Scenario::preset_at("table1-poets", Scale::Full).unwrap();
        assert_eq!(poets.execution.dag().local_batches, 35);
        assert_eq!(poets.execution.dag().learning_rate, 0.8);
        let cifar = Scenario::preset_at("table1-cifar", Scale::Full).unwrap();
        assert_eq!(cifar.execution.dag().local_epochs, 5);
        assert_eq!(cifar.execution.dag().learning_rate, 0.01);
    }

    #[test]
    fn poisoning_presets_carry_the_attack() {
        let scenario = Scenario::preset_at("poisoning-p0.3", Scale::Quick).unwrap();
        let attack = scenario.attack.expect("attack configured");
        assert_eq!(attack.fraction, 0.3);
        assert_eq!((attack.class_a, attack.class_b), (3, 8));
        let random = Scenario::preset_at("poisoning-random-p0.2", Scale::Quick).unwrap();
        assert_eq!(random.execution.dag().tip_selector, TipSelector::Random);
    }

    #[test]
    fn async_presets_match_the_round_budget() {
        let scenario = Scenario::preset_at("async-delay2", Scale::Quick).unwrap();
        match &scenario.execution {
            ExecutionSpec::Async { config, .. } => {
                assert_eq!(config.total_activations, 30 * 6);
                assert_eq!(config.delay, DelayModel::constant(2.0));
            }
            other => panic!("unexpected execution {other:?}"),
        }
        let cohorts = Scenario::preset_at("async-cohorts", Scale::Quick).unwrap();
        match &cohorts.execution {
            ExecutionSpec::Async { config, .. } => {
                assert_eq!(
                    config.compute,
                    ComputeProfile::MatchNetworkCohort { slowdown: 4.0 }
                );
                assert_eq!(config.stale_policy, StaleTipPolicy::Reselect);
            }
            other => panic!("unexpected execution {other:?}"),
        }
    }

    #[test]
    fn analysis_presets_carry_the_analytics() {
        let smoke = Scenario::preset_at("analysis-smoke", Scale::Quick).unwrap();
        let analysis = smoke.analysis.clone().expect("analysis configured");
        assert!(analysis.enabled);
        assert!(analysis.k.is_none(), "auto-k exercises the sweep");
        assert_eq!(analysis.cadence, 2);
        // Scale-independent, like chaos-smoke.
        assert_eq!(
            smoke,
            Scenario::preset_at("analysis-smoke", Scale::Full).unwrap()
        );
        let fig05 = Scenario::preset_at("fig05-alpha10", Scale::Quick).unwrap();
        assert_eq!(fig05.analysis.expect("analysis configured").k, Some(3));
    }

    #[test]
    fn scale_pick_selects_correctly() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
