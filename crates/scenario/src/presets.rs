//! The preset registry: the paper's experiments as named scenarios.
//!
//! A preset *is* its checked-in file: [`PRESETS`] embeds every
//! `scenarios/<name>.toml` and [`Scenario::preset_at`] parses it. The
//! files hold the *quick* scale (minutes on a laptop, qualitative
//! shapes preserved); the paper's *full* configuration (`DAGFL_FULL=1`)
//! is the same file with the few keys of `FULL_SCALE` set. A name
//! that carries a parameter (`fig06-alpha0.1`, `poisoning-p0.3`,
//! `async-delay10`) is its family's file with one key set. The figure
//! registry in `dagfl-bench`, `dagfl run --preset` and `dagfl sweep`
//! all resolve through this one table, so adding a preset is adding a
//! file and a row.

use crate::spec::{Scenario, ScenarioError};

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

/// Every preset as `(name, description, text)`, in listing order; the
/// text is the checked-in `scenarios/<name>.toml` at quick scale.
pub const PRESETS: &[(&str, &str, &str)] = &[
    preset_file!("smoke", "tiny 2-round FMNIST run (CI smoke test, seconds)"),
    preset_file!(
        "quickstart",
        "25 rounds on 15-client FMNIST-clustered with the default selector"
    ),
    preset_file!("table1-fmnist", "Table 1, FMNIST-clustered row"),
    preset_file!("table1-poets", "Table 1, Poets row (dynamic normalization)"),
    preset_file!(
        "table1-cifar",
        "Table 1, CIFAR-100 row (dynamic normalization)"
    ),
    preset_file!(
        "fig05-alpha10",
        "Figure 5: tracked cluster metrics on FMNIST (also -alpha1, -alpha100)"
    ),
    preset_file!(
        "fig06-alpha10",
        "Figure 6: accuracy vs alpha, simple normalization (also -alpha0.1/1/100)"
    ),
    preset_file!(
        "fig07-alpha10",
        "Figure 7: accuracy vs alpha, dynamic normalization (also -alpha0.1/1/100)"
    ),
    preset_file!(
        "fig08-alpha10",
        "Figure 8: relaxed clusters, 18% foreign data (also -alpha0.1/1/100)"
    ),
    preset_file!(
        "poisoning-p0.2",
        "label-flip attack on 20% of clients, accuracy selector (also -p0.0, -p0.3)"
    ),
    preset_file!(
        "poisoning-random-p0.2",
        "label-flip attack on 20% of clients, random-selector baseline"
    ),
    preset_file!(
        "async-delay2",
        "asynchronous run, constant 2-unit link delay (also -delay0, -delay10)"
    ),
    preset_file!(
        "async-cohorts",
        "asynchronous run, slow/fast cohorts with matched compute stragglers"
    ),
    preset_file!(
        "chaos-smoke",
        "fault-injected async run: drops, duplicates, reorders, a partition and a crash"
    ),
    preset_file!(
        "analysis-smoke",
        "tiny clustered run with the full analytics pipeline (CI smoke test, seconds)"
    ),
    preset_file!(
        "scale-10k",
        "10,000-client async run over the sharded store (4 workers; full scale deepens the DAG)"
    ),
];

/// Name families: `<prefix><number>` is the file of `row` with `key`
/// set to the number, so `fig06-alpha0.1` is `fig06-alpha10` at
/// alpha 0.1.
const FAMILIES: &[(&str, &str, &str)] = &[
    ("fig05-alpha", "fig05-alpha10", "execution.alpha"),
    ("fig06-alpha", "fig06-alpha10", "execution.alpha"),
    ("fig07-alpha", "fig07-alpha10", "execution.alpha"),
    ("fig08-alpha", "fig08-alpha10", "execution.alpha"),
    ("poisoning-p", "poisoning-p0.2", "attack.fraction"),
    ("async-delay", "async-delay2", "execution.delay"),
];

/// `(key path, value)` pairs set on a preset's file.
type Keys = &'static [(&'static str, &'static str)];

/// Table 1's FMNIST-clustered row at the paper's scale.
const FMNIST: Keys = &[
    ("dataset.clients", "99"),
    ("dataset.samples", "120"),
    ("execution.rounds", "100"),
    ("execution.clients_per_round", "10"),
    ("execution.local_batches", "10"),
];

/// The async runs' budget at the paper's scale: the round-based run's
/// 100 rounds of 10 clients, reported over 5 rounds' worth.
const ASYNC: Keys = &[
    ("execution.activations", "1000"),
    ("output.recent_window", "50"),
];

/// The poisoning runs (Figs. 12-14) at the paper's scale.
const POISONING: Keys = &[
    ("dataset.clients", "40"),
    ("dataset.samples", "120"),
    ("execution.clients_per_round", "10"),
    ("execution.local_batches", "10"),
    ("attack.clean_rounds", "100"),
    ("attack.attack_rounds", "100"),
    ("attack.measure_every", "10"),
];

/// The keys each preset sets at full scale, by the row whose file it
/// reads. A row not listed (`smoke`, `quickstart`, the chaos and
/// analysis harnesses) is the same at both scales.
const FULL_SCALE: &[(&str, &[Keys])] = &[
    ("table1-fmnist", &[FMNIST]),
    (
        "table1-poets",
        &[&[
            ("dataset.clients_per_language", "20"),
            ("dataset.samples", "600"),
            ("dataset.seq_len", "20"),
            ("execution.rounds", "100"),
            ("execution.clients_per_round", "10"),
            ("execution.local_batches", "35"),
            ("execution.learning_rate", "0.8"),
        ]],
    ),
    (
        "table1-cifar",
        &[&[
            ("dataset.clients", "94"),
            ("execution.rounds", "100"),
            ("execution.clients_per_round", "10"),
            ("execution.local_epochs", "5"),
            ("execution.local_batches", "45"),
            ("execution.learning_rate", "0.01"),
        ]],
    ),
    (
        "fig05-alpha10",
        &[
            FMNIST,
            &[("output.track_every", "10"), ("analysis.cadence", "10")],
        ],
    ),
    ("fig06-alpha10", &[FMNIST]),
    ("fig07-alpha10", &[FMNIST]),
    ("fig08-alpha10", &[FMNIST]),
    ("poisoning-p0.2", &[POISONING]),
    ("poisoning-random-p0.2", &[POISONING]),
    ("async-delay2", &[FMNIST, ASYNC]),
    ("async-cohorts", &[FMNIST, ASYNC]),
    (
        "scale-10k",
        &[&[
            ("dataset.samples", "60"),
            ("execution.activations", "20000"),
        ]],
    ),
];

/// Whether a family suffix is a plain non-negative number (`0.1`,
/// `100`), not a sign, a word or an infinity.
fn is_number(suffix: &str) -> bool {
    suffix.starts_with(|c: char| c.is_ascii_digit())
        && suffix.parse::<f64>().is_ok_and(f64::is_finite)
}

/// The row a name reads and the keys it sets on that row's file.
fn resolve(name: &str, scale: Scale) -> Option<(&'static str, Vec<(&'static str, &str)>)> {
    let (row, mut keys) = match PRESETS.iter().find(|(row, ..)| *row == name) {
        Some(&(row, ..)) => (row, Vec::new()),
        None => FAMILIES.iter().find_map(|&(prefix, row, key)| {
            let value = name.strip_prefix(prefix).filter(|v| is_number(v))?;
            Some((row, vec![(key, value)]))
        })?,
    };
    if scale == Scale::Full {
        let groups = FULL_SCALE.iter().filter(|(r, _)| *r == row);
        keys.extend(groups.flat_map(|(_, groups)| groups.iter().copied().flatten().copied()));
    }
    Some((row, keys))
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

    /// Resolves a preset at an explicit scale: its row's file, with the
    /// family key and the full-scale keys set.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownPreset`] for unregistered names.
    pub fn preset_at(name: &str, scale: Scale) -> Result<Scenario, ScenarioError> {
        let (row, keys) =
            resolve(name, scale).ok_or_else(|| ScenarioError::UnknownPreset(name.to_string()))?;
        let (.., text) = PRESETS
            .iter()
            .find(|(r, ..)| *r == row)
            .expect("every family reads a registered row");
        let mut scenario = Scenario::from_toml(text)?;
        if !keys.is_empty() {
            scenario = scenario.set_keys(&keys)?;
        }
        scenario.name = name.to_string();
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use dagfl_core::{ComputeProfile, DelayModel, StaleTipPolicy, TipSelector};

    use super::*;
    use crate::spec::{DatasetSpec, ExecutionSpec};

    #[test]
    fn every_listed_preset_builds_and_validates_at_both_scales() {
        for (name, ..) in PRESETS {
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

    /// The only check on the full-scale values: every key of
    /// `FULL_SCALE`, read back through the resolved scenario.
    #[test]
    fn table1_presets_match_the_paper_at_full_scale() {
        let full = |name| Scenario::preset_at(name, Scale::Full).unwrap();
        let fmnist_row = |s: &Scenario| {
            let dag = s.execution.dag();
            (
                s.dataset.num_clients(),
                dag.rounds,
                dag.clients_per_round,
                dag.local_batches,
                dag.learning_rate,
            )
        };
        for name in [
            "table1-fmnist",
            "fig05-alpha10",
            "fig06-alpha0.1",
            "fig07-alpha1",
            "fig08-alpha100",
            "async-delay0",
            "async-cohorts",
        ] {
            let scenario = full(name);
            assert_eq!(fmnist_row(&scenario), (99, 100, 10, 10, 0.05), "{name}");
            match scenario.dataset {
                DatasetSpec::Fmnist { samples, .. } => assert_eq!(samples, 120, "{name}"),
                ref other => panic!("{name}: unexpected dataset {other:?}"),
            }
        }
        let fig05 = full("fig05-alpha10");
        assert_eq!(fig05.output.track_every, 10);
        assert_eq!(fig05.analysis.expect("analysis configured").cadence, 10);
        for name in ["async-delay2", "async-cohorts"] {
            let scenario = full(name);
            match &scenario.execution {
                ExecutionSpec::Async { config, .. } => assert_eq!(config.total_activations, 1000),
                other => panic!("{name}: unexpected execution {other:?}"),
            }
            assert_eq!(scenario.output.recent_window, 50, "{name}");
        }

        let poets = full("table1-poets");
        assert_eq!(
            poets.dataset,
            DatasetSpec::Poets {
                clients_per_language: 20,
                samples: 600,
                seq_len: 20,
                seed: 42,
            }
        );
        let dag = poets.execution.dag();
        assert_eq!((dag.rounds, dag.clients_per_round), (100, 10));
        assert_eq!((dag.local_batches, dag.learning_rate), (35, 0.8));
        let cifar = full("table1-cifar");
        assert_eq!(cifar.dataset.num_clients(), 94);
        let dag = cifar.execution.dag();
        assert_eq!((dag.rounds, dag.clients_per_round), (100, 10));
        assert_eq!((dag.local_epochs, dag.local_batches), (5, 45));
        assert_eq!(dag.learning_rate, 0.01);

        for name in ["poisoning-p0.2", "poisoning-random-p0.2", "poisoning-p0.3"] {
            let scenario = full(name);
            assert_eq!(
                scenario.dataset,
                DatasetSpec::FmnistAuthor {
                    clients: 40,
                    samples: 120,
                    seed: 42,
                },
                "{name}"
            );
            let dag = scenario.execution.dag();
            assert_eq!((dag.clients_per_round, dag.local_batches), (10, 10));
            let attack = scenario.attack.expect("attack configured");
            assert_eq!(
                (
                    attack.clean_rounds,
                    attack.attack_rounds,
                    attack.measure_every
                ),
                (100, 100, 10),
                "{name}"
            );
        }

        let scale = full("scale-10k");
        match (&scale.dataset, &scale.execution) {
            (
                DatasetSpec::FmnistStreamed {
                    clients, samples, ..
                },
                ExecutionSpec::Async { config, .. },
            ) => {
                assert_eq!((*clients, *samples), (10_000, 60));
                assert_eq!(config.total_activations, 20_000);
            }
            other => panic!("unexpected scale-10k {other:?}"),
        }

        // The harnesses are the same at both scales.
        for name in ["smoke", "quickstart", "chaos-smoke", "analysis-smoke"] {
            assert_eq!(full(name), Scenario::preset_at(name, Scale::Quick).unwrap());
        }
    }

    #[test]
    fn families_set_one_key_on_their_file() {
        let p05 = Scenario::preset_at("poisoning-p0.5", Scale::Quick).unwrap();
        assert_eq!(p05.name, "poisoning-p0.5");
        let mut expected = Scenario::preset_at("poisoning-p0.2", Scale::Quick).unwrap();
        expected.name = p05.name.clone();
        expected.attack.as_mut().unwrap().poison_fraction = 0.5;
        assert_eq!(p05, expected);
        let delay10 = Scenario::preset_at("async-delay10", Scale::Full).unwrap();
        match &delay10.execution {
            ExecutionSpec::Async { config, .. } => {
                assert_eq!(config.delay, DelayModel::constant(10.0));
                assert_eq!(config.total_activations, 1000);
            }
            other => panic!("unexpected execution {other:?}"),
        }
        for name in [
            "poisoning-p",
            "poisoning-pX",
            "async-delay-1",
            "fig07-alphainf",
        ] {
            assert!(
                matches!(
                    Scenario::preset_at(name, Scale::Quick),
                    Err(ScenarioError::UnknownPreset(_))
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn poisoning_presets_carry_the_attack() {
        let scenario = Scenario::preset_at("poisoning-p0.3", Scale::Quick).unwrap();
        let attack = scenario.attack.expect("attack configured");
        assert_eq!(attack.poison_fraction, 0.3);
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
