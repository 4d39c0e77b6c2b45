//! Range validation against the hand-written checks the key lists
//! replaced: `DagConfig::validate`, `AsyncConfig::validate` (with the
//! delay and compute model checks) and the scenario's field-to-key
//! re-keying, kept here verbatim as oracles. Every field is drawn from an
//! edge set, and both the core error and the `Scenario::validate` error
//! must match the oracle's byte for byte, including which violation is
//! named first. CI runs this at `PROPTEST_CASES=4096`.

use proptest::prelude::*;

use dagfl_core::{
    AsyncConfig, ComputeProfile, CoreError, DagConfig, DelayModel, Normalization, PublishGate,
    StaleTipPolicy, TipSelector,
};
use dagfl_scenario::{DatasetSpec, ExecutionSpec, Scenario, ScenarioError};

fn invalid_field(
    field: &'static str,
    value: impl std::fmt::Display,
    constraint: &'static str,
) -> CoreError {
    CoreError::InvalidField {
        field,
        key: None,
        value: value.to_string(),
        constraint,
    }
}

fn oracle_dag(config: &DagConfig) -> Result<(), CoreError> {
    let positive = |v: usize, field: &'static str| {
        if v == 0 {
            Err(invalid_field(field, v, "must be at least 1"))
        } else {
            Ok(())
        }
    };
    positive(config.rounds, "rounds")?;
    positive(config.clients_per_round, "clients_per_round")?;
    positive(config.local_epochs, "local_epochs")?;
    positive(config.local_batches, "local_batches")?;
    positive(config.batch_size, "batch_size")?;
    if !(config.learning_rate.is_finite() && config.learning_rate > 0.0) {
        return Err(invalid_field(
            "learning_rate",
            config.learning_rate,
            "must be positive and finite",
        ));
    }
    let alpha = match config.tip_selector {
        TipSelector::Accuracy { alpha, .. } | TipSelector::CumulativeWeight { alpha } => alpha,
        TipSelector::Random => 0.0,
    };
    if !(alpha.is_finite() && alpha >= 0.0) {
        return Err(invalid_field(
            "alpha",
            alpha,
            "must be non-negative and finite",
        ));
    }
    if config.walk_depth.0 > config.walk_depth.1 {
        return Err(invalid_field(
            "walk_depth",
            format!("({}, {})", config.walk_depth.0, config.walk_depth.1),
            "minimum depth must not exceed maximum depth",
        ));
    }
    if let Some(margin) = config.walk_stop_margin {
        if !(margin.is_finite() && margin > 0.0) {
            return Err(invalid_field(
                "walk_stop_margin",
                margin,
                "must be positive and finite (use None to disable)",
            ));
        }
    }
    if !(config.publication_dropout.is_finite()
        && (0.0..=1.0).contains(&config.publication_dropout))
    {
        return Err(invalid_field(
            "publication_dropout",
            config.publication_dropout,
            "must be in [0, 1]",
        ));
    }
    Ok(())
}

fn oracle_delay(delay: &DelayModel) -> Result<(), CoreError> {
    let check = |v: f64, field: &'static str| {
        if v >= 0.0 && v.is_finite() {
            Ok(())
        } else {
            Err(invalid_field(field, v, "must be non-negative and finite"))
        }
    };
    match *delay {
        DelayModel::Constant { delay } => check(delay, "delay.delay"),
        DelayModel::UniformJitter { base, jitter } => {
            check(base, "delay.base")?;
            check(jitter, "delay.jitter")
        }
        DelayModel::Cohorts {
            slow_fraction,
            fast,
            slow,
            jitter,
        } => {
            if !(0.0..=1.0).contains(&slow_fraction) {
                return Err(invalid_field(
                    "delay.slow_fraction",
                    slow_fraction,
                    "must be in [0, 1]",
                ));
            }
            check(fast, "delay.fast")?;
            check(slow, "delay.slow")?;
            check(jitter, "delay.jitter")
        }
    }
}

fn oracle_slowdown(slowdown: f64) -> Result<(), CoreError> {
    if slowdown >= 1.0 && slowdown.is_finite() {
        Ok(())
    } else {
        Err(invalid_field(
            "compute.slowdown",
            slowdown,
            "must be >= 1.0 and finite",
        ))
    }
}

fn oracle_compute(compute: &ComputeProfile) -> Result<(), CoreError> {
    match *compute {
        ComputeProfile::Uniform => Ok(()),
        ComputeProfile::TwoSpeed {
            slow_fraction,
            slowdown,
        } => {
            if !(0.0..=1.0).contains(&slow_fraction) {
                return Err(invalid_field(
                    "compute.slow_fraction",
                    slow_fraction,
                    "must be in [0, 1]",
                ));
            }
            oracle_slowdown(slowdown)
        }
        ComputeProfile::MatchNetworkCohort { slowdown } => oracle_slowdown(slowdown),
    }
}

fn oracle_async(config: &AsyncConfig) -> Result<(), CoreError> {
    oracle_dag(&DagConfig {
        rounds: config.dag.rounds.max(1),
        clients_per_round: config.dag.clients_per_round.max(1),
        ..config.dag
    })?;
    if config.total_activations == 0 {
        return Err(invalid_field(
            "total_activations",
            config.total_activations,
            "must be at least 1",
        ));
    }
    if !(config.mean_interarrival > 0.0 && config.mean_interarrival.is_finite()) {
        return Err(invalid_field(
            "mean_interarrival",
            config.mean_interarrival,
            "must be positive and finite",
        ));
    }
    if !(config.train_time >= 0.0 && config.train_time.is_finite()) {
        return Err(invalid_field(
            "train_time",
            config.train_time,
            "must be non-negative and finite",
        ));
    }
    if config.workers == 0 {
        return Err(invalid_field(
            "workers",
            config.workers,
            "must be at least 1",
        ));
    }
    oracle_delay(&config.delay)?;
    oracle_compute(&config.compute)
}

/// The scenario's table from core field names to file keys.
const FIELD_KEYS: [(&str, &str); 12] = [
    ("walk_depth", "execution.walk_depth_min"),
    ("walk_stop_margin", "execution.stop_margin"),
    ("total_activations", "execution.activations"),
    ("mean_interarrival", "execution.interarrival"),
    ("delay.delay", "execution.delay"),
    ("delay.base", "execution.delay"),
    ("delay.fast", "execution.delay"),
    ("delay.jitter", "execution.jitter"),
    ("delay.slow", "execution.slow_delay"),
    ("delay.slow_fraction", "execution.slow_fraction"),
    ("compute.slow_fraction", "execution.compute_slow_fraction"),
    ("compute.slowdown", "execution.slowdown"),
];

fn oracle_rekey(e: CoreError) -> ScenarioError {
    let CoreError::InvalidField {
        field,
        value,
        constraint,
        ..
    } = e
    else {
        return ScenarioError::Core(e);
    };
    let key = match FIELD_KEYS.iter().find(|(f, _)| *f == field) {
        Some((_, key)) => key.to_string(),
        None if field.contains('.') => field.to_string(),
        None => format!("execution.{field}"),
    };
    ScenarioError::InvalidValue {
        key,
        value,
        expected: constraint.trim_start_matches("must be ").to_string(),
    }
}

// ---------------------------------------------------------------------------
// Edge-set draws
// ---------------------------------------------------------------------------

const COUNTS: [usize; 4] = [0, 1, 2, 10];
const DEPTHS: [u32; 5] = [0, 1, 15, 25, u32::MAX];
const F32S: [f32; 10] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1.5,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.05,
    10.0,
];
const F64S: [f64; 10] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.3,
    4.0,
];

/// Draws from the case's raw numbers: each field takes an in-range
/// value, except that one field in `rarity` takes one from its edge set.
struct Draw<'a> {
    raw: std::slice::Iter<'a, usize>,
    rarity: usize,
}

impl Draw<'_> {
    fn next(&mut self) -> usize {
        *self.raw.next().expect("enough raw draws for one config")
    }

    fn pick<T: Copy>(&mut self, edges: &[T], usual: T) -> T {
        let r = self.next();
        if r % self.rarity == 0 {
            edges[r / self.rarity % edges.len()]
        } else {
            usual
        }
    }

    fn word(&mut self, words: usize) -> usize {
        self.next() % words
    }

    fn dag(&mut self) -> DagConfig {
        let alpha = self.pick(&F32S, 10.0);
        let tip_selector = match self.word(3) {
            0 => TipSelector::Accuracy {
                alpha,
                normalization: Normalization::Dynamic,
            },
            1 => TipSelector::Random,
            _ => TipSelector::CumulativeWeight { alpha },
        };
        let walk_depth = (self.pick(&DEPTHS, 15), self.pick(&DEPTHS, 25));
        DagConfig {
            rounds: self.pick(&COUNTS, 3),
            clients_per_round: self.pick(&COUNTS, 3),
            local_epochs: self.pick(&COUNTS, 1),
            local_batches: self.pick(&COUNTS, 2),
            batch_size: self.pick(&COUNTS, 10),
            learning_rate: self.pick(&F32S, 0.05),
            tip_selector,
            walk_depth,
            walk_stop_margin: (self.word(2) == 0).then(|| self.pick(&F32S, 0.2)),
            publish_gate: [PublishGate::AveragedReference, PublishGate::Always][self.word(2)],
            frozen_prefix: self.pick(&COUNTS, 0),
            publication_dropout: self.pick(&F32S, 0.0),
            seed: self.next() as u64,
            parallel: self.word(2) == 0,
        }
    }

    fn async_config(&mut self) -> AsyncConfig {
        let dag = self.dag();
        let delay = match self.word(3) {
            0 => DelayModel::Constant {
                delay: self.pick(&F64S, 2.0),
            },
            1 => DelayModel::UniformJitter {
                base: self.pick(&F64S, 2.0),
                jitter: self.pick(&F64S, 0.5),
            },
            _ => DelayModel::Cohorts {
                slow_fraction: self.pick(&F64S, 0.3),
                fast: self.pick(&F64S, 1.0),
                slow: self.pick(&F64S, 8.0),
                jitter: self.pick(&F64S, 0.5),
            },
        };
        let compute = match self.word(3) {
            0 => ComputeProfile::Uniform,
            1 => ComputeProfile::TwoSpeed {
                slow_fraction: self.pick(&F64S, 0.3),
                slowdown: self.pick(&F64S, 4.0),
            },
            _ => ComputeProfile::MatchNetworkCohort {
                slowdown: self.pick(&F64S, 4.0),
            },
        };
        AsyncConfig {
            dag,
            total_activations: self.pick(&COUNTS, 10),
            mean_interarrival: self.pick(&F64S, 1.0),
            delay,
            compute,
            train_time: self.pick(&F64S, 0.0),
            stale_policy: [StaleTipPolicy::PublishAnyway, StaleTipPolicy::Discard][self.word(2)],
            gossip_fanout: self.pick(&COUNTS, 0),
            workers: self.pick(&COUNTS, 1),
        }
    }
}

/// A scenario around `execution` that passes every other check.
fn scenario(execution: ExecutionSpec) -> Scenario {
    let dataset = DatasetSpec::Fmnist {
        clients: 15,
        samples: 60,
        relaxation: 0.0,
        seed: 42,
    };
    Scenario::new("oracle", dataset).with_execution(execution)
}

/// Both errors of `execution` against the oracles'.
fn assert_same_errors(execution: ExecutionSpec) {
    let (core, oracle) = match &execution {
        ExecutionSpec::Rounds(dag) => (dag.validate(), oracle_dag(dag)),
        ExecutionSpec::Async { config } => (config.validate(), oracle_async(config)),
    };
    let message = |e: CoreError| e.to_string();
    assert_eq!(
        core.map_err(message),
        oracle.clone().map_err(message),
        "{execution:?}"
    );
    let scenario = scenario(execution);
    assert_eq!(
        scenario.validate(),
        oracle.map_err(oracle_rekey),
        "{scenario:?}"
    );
}

proptest! {
    #[test]
    fn validation_errors_match_the_hand_written_checks(
        rarity in 1usize..40,
        raw in proptest::collection::vec(0usize..1_000_000, 8 * 64),
    ) {
        // Eight configs per case, alternating the mode.
        for (n, raw) in raw.chunks(64).enumerate() {
            let mut draw = Draw { raw: raw.iter(), rarity };
            assert_same_errors(if n % 2 == 0 {
                ExecutionSpec::Rounds(draw.dag())
            } else {
                ExecutionSpec::Async { config: draw.async_config() }
            });
        }
    }
}

#[test]
fn a_models_fraction_is_named_before_its_other_keys() {
    let config = AsyncConfig {
        delay: DelayModel::Cohorts {
            slow_fraction: 1.5,
            fast: -1.0,
            slow: f64::NAN,
            jitter: -2.0,
        },
        compute: ComputeProfile::TwoSpeed {
            slow_fraction: -0.5,
            slowdown: 0.5,
        },
        ..AsyncConfig::default()
    };
    let err = config.validate().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid value `1.5` for `delay.slow_fraction`: must be in [0, 1]"
    );
    assert_same_errors(ExecutionSpec::Async { config });
    // A violation outside the model still comes first.
    let config = AsyncConfig {
        train_time: -1.0,
        ..config
    };
    assert_same_errors(ExecutionSpec::Async { config });
}
