//! Simulation configuration, including the paper's Table 1 hyperparameters.

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
        let positive = |v: usize, field: &'static str| {
            if v == 0 {
                Err(CoreError::invalid_field(field, v, "must be at least 1"))
            } else {
                Ok(())
            }
        };
        positive(self.rounds, "rounds")?;
        positive(self.clients_per_round, "clients_per_round")?;
        positive(self.local_epochs, "local_epochs")?;
        positive(self.local_batches, "local_batches")?;
        positive(self.batch_size, "batch_size")?;
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(CoreError::invalid_field(
                "learning_rate",
                self.learning_rate,
                "must be positive and finite",
            ));
        }
        let alpha = match self.tip_selector {
            TipSelector::Accuracy { alpha, .. } | TipSelector::CumulativeWeight { alpha } => alpha,
            TipSelector::Random => 0.0,
        };
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(CoreError::invalid_field(
                "alpha",
                alpha,
                "must be non-negative and finite",
            ));
        }
        if self.walk_depth.0 > self.walk_depth.1 {
            return Err(CoreError::invalid_field(
                "walk_depth",
                format!("({}, {})", self.walk_depth.0, self.walk_depth.1),
                "minimum depth must not exceed maximum depth",
            ));
        }
        if let Some(margin) = self.walk_stop_margin {
            if !(margin.is_finite() && margin > 0.0) {
                return Err(CoreError::invalid_field(
                    "walk_stop_margin",
                    margin,
                    "must be positive and finite (use None to disable)",
                ));
            }
        }
        if !(self.publication_dropout.is_finite()
            && (0.0..=1.0).contains(&self.publication_dropout))
        {
            return Err(CoreError::invalid_field(
                "publication_dropout",
                self.publication_dropout,
                "must be in [0, 1]",
            ));
        }
        Ok(())
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
