//! Simulation configuration, including the paper's Table 1 hyperparameters.

use dagfl_datasets::{fmnist, MIN_SAMPLES};

use crate::CoreError;

/// How candidate accuracies are normalised inside the biased walk (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Eq. 1: `normalized = accuracy − max(accuracies)`.
    #[default]
    Simple,
    /// Eq. 3: `normalized* = (accuracy − max) / (max − min)` — scales the
    /// bias to the current accuracy spread, improving specialization when
    /// accuracy differences are small.
    Dynamic,
}

/// The tip-selection strategy a client uses during the random walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TipSelector {
    /// The paper's accuracy-aware bias: weights are
    /// `exp(alpha * normalized_accuracy_on_local_test_data)`.
    Accuracy {
        /// Randomness/determinism trade-off (Figure 5/6: 10 is a good
        /// balance for FMNIST-clustered).
        alpha: f32,
        /// Accuracy normalization variant.
        normalization: Normalization,
    },
    /// Unbiased uniform choice (the paper's "random tip selector"
    /// baseline).
    Random,
    /// Classic IOTA MCMC over cumulative weights (Figure 3 mechanics);
    /// included as an ablation.
    CumulativeWeight {
        /// Randomness/determinism trade-off on cumulative weights.
        alpha: f32,
    },
}

impl Default for TipSelector {
    fn default() -> Self {
        TipSelector::Accuracy {
            alpha: 10.0,
            normalization: Normalization::Simple,
        }
    }
}

/// The condition under which a trained model is published (§4.1: "clients
/// only publish their model update if the training resulted in a model
/// that performs better on the test data than the current consensus
/// model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PublishGate {
    /// Publish if the trained model beats the *average* of the parents —
    /// the model training started from ("if the training improved the
    /// model", Figure 1). The paper's rule and the default.
    #[default]
    AveragedReference,
    /// Publish if the trained model beats the *best* of the two approved
    /// parents — a stricter reading of "the current consensus model" that
    /// refuses to publish models which only improved relative to a bad
    /// (e.g. attacker-contaminated) average. Recommended together with
    /// [`DagConfig::walk_stop_margin`] when random-weight flooding is a
    /// concern.
    BestParent,
    /// Always publish (ablation; degrades poisoning robustness and floods
    /// the DAG with sideways updates).
    Always,
}

/// Full configuration of a Specializing-DAG simulation.
///
/// # Example
///
/// ```
/// use dagfl_core::{DagConfig, Normalization, TipSelector};
///
/// // Start from the defaults (Table 1's FMNIST column) and override
/// // what the experiment needs.
/// let config = DagConfig {
///     rounds: 50,
///     tip_selector: TipSelector::Accuracy {
///         alpha: 10.0,
///         normalization: Normalization::Dynamic,
///     },
///     ..DagConfig::default()
/// }
/// .with_seed(7);
/// assert_eq!(config.rounds, 50);
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// Training rounds to simulate.
    pub rounds: usize,
    /// Clients sampled uniformly (without replacement) each round.
    pub clients_per_round: usize,
    /// Local epochs per selected client.
    pub local_epochs: usize,
    /// Mini-batches per local epoch.
    pub local_batches: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Tip-selection strategy.
    pub tip_selector: TipSelector,
    /// Walk-start depth band from the tips (Popov proposes 15–25).
    pub walk_depth: (u32, u32),
    /// Accuracy-cliff guard for the biased walk: when set, a walk refuses
    /// to step towards approvers that *all* score at least this margin
    /// below the current transaction, approving the current transaction
    /// instead. `None` (default) is the paper's pure tip selection; a
    /// margin around 0.2–0.3 hardens the walk against random-weight
    /// flooding (§4.4). Only affects the accuracy selector.
    pub walk_stop_margin: Option<f32>,
    /// When a trained model qualifies for publication.
    pub publish_gate: PublishGate,
    /// Freeze the first `n` model parameters during local training —
    /// partial-layer personalisation, the paper's future-work direction
    /// (§6). `0` trains everything.
    pub frozen_prefix: usize,
    /// Probability that a client's publication is lost before reaching
    /// the network (failure injection; `0.0` = reliable network).
    pub publication_dropout: f32,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Whether a round's active clients are spread over the cores the
    /// process may run on (`true`) or run one after the other on the
    /// calling thread (`false`). Purely a wall-clock choice: results are
    /// byte-identical either way and at any core count.
    pub parallel: bool,
}

impl Default for DagConfig {
    fn default() -> Self {
        Self {
            rounds: 100,
            clients_per_round: 10,
            local_epochs: 1,
            local_batches: 10,
            batch_size: 10,
            learning_rate: 0.05,
            tip_selector: TipSelector::default(),
            walk_depth: (15, 25),
            walk_stop_margin: None,
            publish_gate: PublishGate::default(),
            frozen_prefix: 0,
            publication_dropout: 0.0,
            seed: 42,
            parallel: true,
        }
    }
}

impl DagConfig {
    /// Sets the tip selector (builder style).
    pub fn with_tip_selector(mut self, selector: TipSelector) -> Self {
        self.tip_selector = selector;
        self
    }

    /// Sets the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every field for internal consistency, so programmatic users
    /// get the same range errors the CLI reports (instead of later
    /// panics deep inside the simulator).
    ///
    /// The one check this cannot perform is against the dataset
    /// (`clients_per_round <= num_clients`); that stays with the
    /// simulator constructors and the scenario layer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] naming the first offending
    /// field.
    ///
    /// # Example
    ///
    /// ```
    /// use dagfl_core::DagConfig;
    ///
    /// assert!(DagConfig::default().validate().is_ok());
    /// let bad = DagConfig {
    ///     learning_rate: -0.1,
    ///     ..DagConfig::default()
    /// };
    /// assert!(bad.validate().unwrap_err().to_string().contains("learning_rate"));
    /// ```
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut config = *self;
        RangeCheck::run(|check| config.keys(check))
    }

    /// Visits every `[execution]` key this config holds, in scenario-file
    /// order. `alpha` and `normalization` exist only under the selectors
    /// that have them.
    ///
    /// # Errors
    ///
    /// Returns the visitor's first error.
    pub fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        const ALPHA: Key = key("alpha", NonNegative);
        v.key(key("rounds", AtLeastOne), Usize(&mut self.rounds))?;
        let clients = &mut self.clients_per_round;
        v.key(key("clients_per_round", AtLeastOne), Usize(clients))?;
        let (epochs, batches) = (&mut self.local_epochs, &mut self.local_batches);
        v.key(key("local_epochs", AtLeastOne), Usize(epochs))?;
        v.key(key("local_batches", AtLeastOne), Usize(batches))?;
        v.key(key("batch_size", AtLeastOne), Usize(&mut self.batch_size))?;
        v.key(key("learning_rate", Positive), F32(&mut self.learning_rate))?;
        v.word(key("selector", Any), &SELECTORS, &mut self.tip_selector)?;
        match &mut self.tip_selector {
            TipSelector::Accuracy {
                alpha,
                normalization,
            } => {
                v.key(ALPHA, F32(alpha))?;
                v.word(key("normalization", Any), &NORMALIZATIONS, normalization)?;
            }
            TipSelector::Random => {}
            TipSelector::CumulativeWeight { alpha } => v.key(ALPHA, F32(alpha))?,
        }
        let depth = key("walk_depth_min", DepthAtMost(self.walk_depth.1)).field("walk_depth");
        v.key(depth, U32(&mut self.walk_depth.0))?;
        v.key(key("walk_depth_max", Any), U32(&mut self.walk_depth.1))?;
        let margin = key("stop_margin", Margin).field("walk_stop_margin");
        v.key(margin, OptF32(&mut self.walk_stop_margin))?;
        v.word(
            key("publish_gate", Any),
            &PUBLISH_GATES,
            &mut self.publish_gate,
        )?;
        v.key(key("frozen_prefix", Any), Usize(&mut self.frozen_prefix))?;
        let dropout = &mut self.publication_dropout;
        v.key(key("publication_dropout", Fraction), F32(dropout))?;
        v.key(key("seed", Any), U64(&mut self.seed))?;
        v.key(key("parallel", Any), Bool(&mut self.parallel))
    }
}

/// `execution.selector`.
const SELECTORS: [(&str, TipSelector); 3] = [
    (
        "accuracy",
        TipSelector::Accuracy {
            alpha: 10.0,
            normalization: Normalization::Simple,
        },
    ),
    ("random", TipSelector::Random),
    ("cumulative", TipSelector::CumulativeWeight { alpha: 10.0 }),
];

/// `execution.normalization`.
const NORMALIZATIONS: [(&str, Normalization); 2] = [
    ("simple", Normalization::Simple),
    ("dynamic", Normalization::Dynamic),
];

/// `execution.publish_gate`.
const PUBLISH_GATES: [(&str, PublishGate); 3] = [
    ("averaged", PublishGate::AveragedReference),
    ("best-parent", PublishGate::BestParent),
    ("always", PublishGate::Always),
];

/// One scenario key: its file name, the field a range error names, the
/// values it admits and whether a file must spell it.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// The key's name in its scenario-file section.
    pub name: &'static str,
    /// The name a [`CoreError::InvalidField`] gives the key.
    pub field: &'static str,
    /// The values the key admits.
    pub range: Range,
    /// Whether a reader reports the key's absence.
    pub required: bool,
}

/// A key whose range errors name it as the file does.
pub const fn key(name: &'static str, range: Range) -> Key {
    Key {
        name,
        field: name,
        range,
        required: false,
    }
}

impl Key {
    /// The key, with range errors naming the field `field`.
    pub const fn field(self, field: &'static str) -> Key {
        Key { field, ..self }
    }

    /// The key, which a file must spell.
    pub const fn required(self) -> Key {
        Key {
            required: true,
            ..self
        }
    }
}

/// The values a key admits; each constraint is spelled here once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Range {
    /// Every value.
    Any,
    /// A count of at least one.
    AtLeastOne,
    /// Positive and finite.
    Positive,
    /// Non-negative and finite.
    NonNegative,
    /// A walk's minimum start depth, against the maximum.
    DepthAtMost(u32),
    /// Positive, for a key `None` switches off.
    Margin,
    /// A probability in `[0, 1]`.
    Fraction,
    /// A compute slowdown factor: at least 1 and finite.
    Slowdown,
    /// A name: one non-blank line.
    Line,
    /// A share of foreign-cluster data, in `[0, 1)`.
    Relaxation,
    /// Samples per client: at least [`MIN_SAMPLES`].
    Samples,
    /// FMNIST clients: at least one per class cluster.
    Clusters,
    /// A minimum of samples per client, against the maximum.
    SamplesAtMost(usize),
    /// The lower bound of a cluster-count sweep, against the upper.
    KAtMost(usize),
    /// A partition window's start, against its heal time.
    PartitionStart(f64),
    /// A crash time, against the restart time.
    CrashAt(f64),
}

// The constraints below spell these two bounds out.
const _: () = assert!(MIN_SAMPLES == 10 && fmnist::CLASS_CLUSTERS.len() == 3);

impl Range {
    /// The constraint `x` violates, if any.
    fn violated(self, x: f64) -> Option<&'static str> {
        let (admitted, constraint) = match self {
            Range::Any => return None,
            Range::AtLeastOne => (x >= 1.0, "must be at least 1"),
            Range::Positive => (x > 0.0 && x.is_finite(), "must be positive and finite"),
            Range::NonNegative => (x >= 0.0 && x.is_finite(), "must be non-negative and finite"),
            Range::DepthAtMost(max) => (
                x <= f64::from(max),
                "minimum depth must not exceed maximum depth",
            ),
            Range::Margin => (
                x > 0.0 && x.is_finite(),
                "must be positive and finite (use None to disable)",
            ),
            Range::Fraction => ((0.0..=1.0).contains(&x), "must be in [0, 1]"),
            Range::Slowdown => (x >= 1.0 && x.is_finite(), "must be >= 1.0 and finite"),
            Range::Line => (x == 1.0, "must be a non-empty single line"),
            Range::Relaxation => ((0.0..1.0).contains(&x), "must be in [0, 1)"),
            Range::Samples => (x >= 10.0, "must be at least 10"),
            Range::Clusters => (x >= 3.0, "must be at least 3, one per cluster"),
            Range::SamplesAtMost(max) => (
                (10.0..=max as f64).contains(&x),
                "must be at least 10 and at most max_samples",
            ),
            Range::KAtMost(max) => (
                (1.0..=max as f64).contains(&x),
                "must be at least 1 and at most k_max",
            ),
            Range::PartitionStart(heal) => (
                heal.is_finite() && (0.0..=heal).contains(&x),
                "window needs finite 0 <= start <= heal",
            ),
            Range::CrashAt(restart) => (
                x.is_finite() && x >= 0.0 && restart >= x,
                "window needs finite 0 <= at <= restart",
            ),
        };
        (!admitted).then_some(constraint)
    }
}

/// The value a key holds, borrowed for one visit.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A count.
    Usize(&'a mut usize),
    /// A count written only while it differs from the given value, which
    /// an absent key reads as.
    UsizeOr(&'a mut usize, usize),
    /// A count that `None` leaves out.
    OptUsize(&'a mut Option<usize>),
    /// A walk depth.
    U32(&'a mut u32),
    /// A seed.
    U64(&'a mut u64),
    /// A training hyperparameter.
    F32(&'a mut f32),
    /// A hyperparameter that `None` switches off.
    OptF32(&'a mut Option<f32>),
    /// A time, delay or fraction.
    F64(&'a mut f64),
    /// A time that `None` leaves out.
    OptF64(&'a mut Option<f64>),
    /// A switch.
    Bool(&'a mut bool),
    /// A text.
    Str(&'a mut String),
    /// A text that `None` leaves out.
    OptStr(&'a mut Option<String>),
    /// Layer widths, each checked against the key's range.
    Widths(&'a mut Vec<usize>),
}

/// A pass over a section's keys in scenario-file order: the range check
/// of `validate`, and the scenario reader and writer.
pub trait KeyVisitor {
    /// What a visit fails with.
    type Error;

    /// A key holding a value.
    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), Self::Error>;

    /// A shape word: `rows` pairs every word with the variant it reads
    /// as, at that variant's defaults.
    fn word<E: Clone>(
        &mut self,
        key: Key,
        rows: &[(&'static str, E)],
        value: &mut E,
    ) -> Result<(), Self::Error>;
}

/// The visitor behind every `validate`: names the first key out of
/// range. A shape word starts a model, and within one an out-of-range
/// fraction comes before the model's other errors, the order the delay
/// and compute models were always checked in. Only a failing check
/// formats.
#[derive(Debug)]
pub struct RangeCheck {
    pending: Option<CoreError>,
}

impl RangeCheck {
    /// Runs `visit` over a fresh check.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] naming the first key out of
    /// range.
    pub fn run(
        visit: impl FnOnce(&mut RangeCheck) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let mut check = RangeCheck { pending: None };
        visit(&mut check)?;
        check.pending.map_or(Ok(()), Err)
    }
}

impl KeyVisitor for RangeCheck {
    type Error = CoreError;

    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), CoreError> {
        let (x, shown): (f64, &dyn std::fmt::Display) = match value {
            Slot::Usize(v) | Slot::UsizeOr(v, _) | Slot::OptUsize(Some(v)) => (*v as f64, v),
            Slot::U32(v) => (f64::from(*v), v),
            Slot::F32(v) | Slot::OptF32(Some(v)) => (f64::from(*v), v),
            Slot::F64(v) | Slot::OptF64(Some(v)) => (*v, v),
            // A text measures its lines, a blank one none.
            Slot::Str(v) => (
                if v.trim().is_empty() {
                    0.0
                } else {
                    v.split('\n').count() as f64
                },
                v,
            ),
            // A list of widths is as good as its worst.
            Slot::Widths(v) => match v.iter().find(|w| key.range.violated(**w as f64).is_some()) {
                Some(w) => (*w as f64, w),
                None => return Ok(()),
            },
            Slot::OptUsize(None)
            | Slot::OptF32(None)
            | Slot::OptF64(None)
            | Slot::OptStr(_)
            | Slot::U64(_)
            | Slot::Bool(_) => return Ok(()),
        };
        let Some(constraint) = key.range.violated(x) else {
            return Ok(());
        };
        let value = match key.range {
            Range::DepthAtMost(max) => format!("({shown}, {max})"),
            _ => shown.to_string(),
        };
        let error = CoreError::InvalidField {
            field: key.field,
            key: Some(key.name),
            value,
            constraint,
        };
        if key.range == Range::Fraction {
            return Err(error);
        }
        self.pending.get_or_insert(error);
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        _: Key,
        _: &[(&'static str, E)],
        _: &mut E,
    ) -> Result<(), CoreError> {
        self.pending.take().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_fmnist_row() {
        let cfg = DagConfig::default();
        assert_eq!(cfg.rounds, 100);
        assert_eq!(cfg.clients_per_round, 10);
        assert_eq!(cfg.local_epochs, 1);
        assert_eq!(cfg.local_batches, 10);
        assert_eq!(cfg.batch_size, 10);
        assert_eq!(cfg.learning_rate, 0.05);
        assert_eq!(cfg.walk_depth, (15, 25));
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = DagConfig::default()
            .with_seed(7)
            .with_tip_selector(TipSelector::Random);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.tip_selector, TipSelector::Random);
    }

    #[test]
    fn validate_accepts_defaults_and_table1_rows() {
        // The default is the FMNIST column; Poets and CIFAR-100 differ
        // in their batch budget and learning rate.
        for cfg in [
            DagConfig::default(),
            DagConfig {
                local_batches: 35,
                learning_rate: 0.8,
                ..DagConfig::default()
            },
            DagConfig {
                local_epochs: 5,
                local_batches: 45,
                learning_rate: 0.01,
                ..DagConfig::default()
            },
        ] {
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_each_out_of_range_field() {
        let cases: Vec<(DagConfig, &str)> = vec![
            (
                DagConfig {
                    rounds: 0,
                    ..DagConfig::default()
                },
                "rounds",
            ),
            (
                DagConfig {
                    clients_per_round: 0,
                    ..DagConfig::default()
                },
                "clients_per_round",
            ),
            (
                DagConfig {
                    batch_size: 0,
                    ..DagConfig::default()
                },
                "batch_size",
            ),
            (
                DagConfig {
                    learning_rate: f32::NAN,
                    ..DagConfig::default()
                },
                "learning_rate",
            ),
            (
                DagConfig {
                    tip_selector: TipSelector::Accuracy {
                        alpha: -1.0,
                        normalization: Normalization::Simple,
                    },
                    ..DagConfig::default()
                },
                "alpha",
            ),
            (
                DagConfig {
                    walk_depth: (25, 15),
                    ..DagConfig::default()
                },
                "walk_depth",
            ),
            (
                DagConfig {
                    walk_stop_margin: Some(-0.2),
                    ..DagConfig::default()
                },
                "walk_stop_margin",
            ),
            (
                DagConfig {
                    publication_dropout: 1.5,
                    ..DagConfig::default()
                },
                "publication_dropout",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().expect_err(field);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn default_selector_is_accuracy_alpha_10() {
        match TipSelector::default() {
            TipSelector::Accuracy {
                alpha,
                normalization,
            } => {
                assert_eq!(alpha, 10.0);
                assert_eq!(normalization, Normalization::Simple);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
