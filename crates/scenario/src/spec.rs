//! The declarative experiment specification: [`Scenario`] and its parts.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::mem::discriminant;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use rand::rngs::StdRng;

use dagfl_analysis::{AnalysisConfig, AnalysisSource, KSelection};
use dagfl_core::{
    key, AsyncConfig, CoreError, DagConfig, FaultPlan, Key, KeyVisitor, ModelFactory,
    PoisoningConfig, Range, RangeCheck, Slot,
};
use dagfl_datasets::{
    cifar, cifar100_like, fedprox_synthetic, fmnist_by_author, fmnist_clustered,
    fmnist_clustered_streamed, poets, Cifar100Config, FedProxConfig, FederatedDataset,
    FmnistConfig, PoetsConfig, POETS_VOCAB,
};
use dagfl_nn::{char_rnn, Dense, Model, Relu, Sequential};

use crate::text::{Document, Table, TextError, Value};

/// Errors from building, parsing, validating or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario text is malformed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A key holds a value of the wrong type or an unknown word.
    InvalidValue {
        /// Dotted key path (`section.key`).
        key: String,
        /// The offending value, formatted for display.
        value: String,
        /// What was expected instead.
        expected: String,
    },
    /// A section contains a key the schema does not know.
    UnknownKey {
        /// Dotted key path (`section.key`).
        key: String,
    },
    /// A required key is missing.
    MissingKey {
        /// Dotted key path (`section.key`).
        key: String,
    },
    /// The scenario is structurally valid but semantically inconsistent.
    Invalid(String),
    /// No preset is registered under this name.
    UnknownPreset(String),
    /// A configuration value failed the core range checks.
    Core(CoreError),
    /// Reading or writing a scenario file failed.
    Io(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { line, message } => {
                write!(f, "scenario parse error on line {line}: {message}")
            }
            ScenarioError::InvalidValue {
                key,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for `{key}`: expected {expected}"
            ),
            ScenarioError::UnknownKey { key } => write!(f, "unknown scenario key `{key}`"),
            ScenarioError::MissingKey { key } => write!(f, "missing scenario key `{key}`"),
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::UnknownPreset(name) => {
                write!(f, "unknown preset `{name}` (see `dagfl scenarios`)")
            }
            ScenarioError::Core(e) => write!(f, "invalid scenario: {e}"),
            ScenarioError::Io(msg) => write!(f, "scenario I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<CoreError> for ScenarioError {
    fn from(e: CoreError) -> Self {
        ScenarioError::Core(e)
    }
}

impl From<TextError> for ScenarioError {
    fn from(e: TextError) -> Self {
        ScenarioError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

/// The federated dataset of a scenario, with its generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// Strictly or relaxed clustered synthetic digits (3 class-clusters).
    Fmnist {
        /// Number of clients.
        clients: usize,
        /// Samples per client.
        samples: usize,
        /// Fraction of foreign-cluster data (`0.0` = strict clusters).
        relaxation: f32,
        /// Generator seed.
        seed: u64,
    },
    /// Clustered synthetic digits rendered from *independent per-client
    /// RNG streams* on multiple threads (bit-identical for any thread
    /// count) — the only generator that builds 10k-client populations
    /// in reasonable time.
    FmnistStreamed {
        /// Number of clients.
        clients: usize,
        /// Samples per client.
        samples: usize,
        /// Fraction of foreign-cluster data (`0.0` = strict clusters).
        relaxation: f32,
        /// Generator seed.
        seed: u64,
    },
    /// By-author digit split (all classes per client; poisoning and
    /// scalability experiments).
    FmnistAuthor {
        /// Number of clients.
        clients: usize,
        /// Samples per client.
        samples: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Two-language next-character prediction (2 clusters).
    Poets {
        /// Clients per language (total clients = 2×this).
        clients_per_language: usize,
        /// Character windows per client.
        samples: usize,
        /// Window length in characters.
        seq_len: usize,
        /// Generator seed.
        seed: u64,
    },
    /// 100-class / 20-superclass hierarchy with Pachinko allocation.
    Cifar {
        /// Number of clients.
        clients: usize,
        /// Samples per client.
        samples: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The FedProx synthetic(0.5, 0.5) logistic-regression benchmark.
    FedProx {
        /// Number of clients.
        clients: usize,
        /// Minimum samples per client.
        min_samples: usize,
        /// Maximum samples per client.
        max_samples: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// The `kind` word used in scenario files.
    pub fn kind(&self) -> &'static str {
        word_of(&DATASETS, self)
    }

    /// Total clients the generated dataset will hold.
    pub fn num_clients(&self) -> usize {
        match *self {
            DatasetSpec::Fmnist { clients, .. }
            | DatasetSpec::FmnistStreamed { clients, .. }
            | DatasetSpec::FmnistAuthor { clients, .. }
            | DatasetSpec::Cifar { clients, .. }
            | DatasetSpec::FedProx { clients, .. } => clients,
            DatasetSpec::Poets {
                clients_per_language,
                ..
            } => clients_per_language * 2,
        }
    }

    /// Output classes of the task (vocabulary size for Poets).
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetSpec::Fmnist { .. }
            | DatasetSpec::FmnistStreamed { .. }
            | DatasetSpec::FmnistAuthor { .. } => 10,
            DatasetSpec::Poets { .. } => POETS_VOCAB.len(),
            DatasetSpec::Cifar { .. } => 100,
            DatasetSpec::FedProx { .. } => 10,
        }
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        match *self {
            DatasetSpec::Fmnist { seed, .. }
            | DatasetSpec::FmnistStreamed { seed, .. }
            | DatasetSpec::FmnistAuthor { seed, .. }
            | DatasetSpec::Poets { seed, .. }
            | DatasetSpec::Cifar { seed, .. }
            | DatasetSpec::FedProx { seed, .. } => seed,
        }
    }

    /// Sets the generator seed.
    pub fn set_seed(&mut self, new_seed: u64) {
        match self {
            DatasetSpec::Fmnist { seed, .. }
            | DatasetSpec::FmnistStreamed { seed, .. }
            | DatasetSpec::FmnistAuthor { seed, .. }
            | DatasetSpec::Poets { seed, .. }
            | DatasetSpec::Cifar { seed, .. }
            | DatasetSpec::FedProx { seed, .. } => *seed = new_seed,
        }
    }

    /// Generates the dataset.
    pub fn build(&self) -> FederatedDataset {
        match *self {
            DatasetSpec::Fmnist {
                clients,
                samples,
                relaxation,
                seed,
            } => fmnist_clustered(&FmnistConfig {
                num_clients: clients,
                samples_per_client: samples,
                relaxation,
                seed,
            }),
            DatasetSpec::FmnistStreamed {
                clients,
                samples,
                relaxation,
                seed,
            } => fmnist_clustered_streamed(&FmnistConfig {
                num_clients: clients,
                samples_per_client: samples,
                relaxation,
                seed,
            }),
            DatasetSpec::FmnistAuthor {
                clients,
                samples,
                seed,
            } => fmnist_by_author(&FmnistConfig {
                num_clients: clients,
                samples_per_client: samples,
                seed,
                ..FmnistConfig::default()
            }),
            DatasetSpec::Poets {
                clients_per_language,
                samples,
                seq_len,
                seed,
            } => poets(&PoetsConfig {
                clients_per_language,
                samples_per_client: samples,
                seq_len,
                seed,
            }),
            DatasetSpec::Cifar {
                clients,
                samples,
                seed,
            } => cifar100_like(&Cifar100Config {
                num_clients: clients,
                samples_per_client: samples,
                seed,
            }),
            DatasetSpec::FedProx {
                clients,
                min_samples,
                max_samples,
                seed,
            } => fedprox_synthetic(&FedProxConfig {
                num_clients: clients,
                min_samples,
                max_samples,
                seed,
            }),
        }
    }

    /// The model architecture conventionally paired with this dataset.
    pub fn default_model(&self) -> ModelSpec {
        match self {
            DatasetSpec::Fmnist { .. }
            | DatasetSpec::FmnistStreamed { .. }
            | DatasetSpec::FmnistAuthor { .. } => ModelSpec::Mlp { hidden: vec![64] },
            DatasetSpec::Poets { .. } => ModelSpec::CharRnn {
                embed: 8,
                hidden: 32,
            },
            DatasetSpec::Cifar { .. } => ModelSpec::Mlp { hidden: vec![128] },
            DatasetSpec::FedProx { .. } => ModelSpec::Linear,
        }
    }

    /// `[dataset]`: the generator word, then its parameters.
    fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        const SAMPLES: Key = key("samples", Samples);
        const SEED: Key = key("seed", Any);
        v.word(key("kind", Any).required(), &DATASETS, self)?;
        match self {
            DatasetSpec::Fmnist {
                clients,
                samples,
                relaxation,
                seed,
            }
            | DatasetSpec::FmnistStreamed {
                clients,
                samples,
                relaxation,
                seed,
            } => {
                v.key(key("clients", Clusters), Usize(clients))?;
                v.key(SAMPLES, Usize(samples))?;
                v.key(key("relaxation", Relaxation), F32(relaxation))?;
                v.key(SEED, U64(seed))
            }
            DatasetSpec::FmnistAuthor {
                clients,
                samples,
                seed,
            }
            | DatasetSpec::Cifar {
                clients,
                samples,
                seed,
            } => {
                v.key(key("clients", AtLeastOne), Usize(clients))?;
                v.key(SAMPLES, Usize(samples))?;
                v.key(SEED, U64(seed))
            }
            DatasetSpec::Poets {
                clients_per_language,
                samples,
                seq_len,
                seed,
            } => {
                v.key(
                    key("clients_per_language", AtLeastOne),
                    Usize(clients_per_language),
                )?;
                v.key(SAMPLES, Usize(samples))?;
                v.key(key("seq_len", AtLeastOne), Usize(seq_len))?;
                v.key(SEED, U64(seed))
            }
            DatasetSpec::FedProx {
                clients,
                min_samples,
                max_samples,
                seed,
            } => {
                v.key(key("clients", AtLeastOne), Usize(clients))?;
                let min = key("min_samples", SamplesAtMost(*max_samples));
                v.key(min, Usize(min_samples))?;
                v.key(key("max_samples", Any), Usize(max_samples))?;
                v.key(SEED, U64(seed))
            }
        }
    }
}

/// The model architecture every participant trains.
///
/// Input and output widths are inferred from the dataset at build time,
/// so one spec works across dataset sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A ReLU multi-layer perceptron with the given hidden widths (an
    /// empty list degenerates to [`ModelSpec::Linear`]).
    Mlp {
        /// Hidden-layer widths, input to output.
        hidden: Vec<usize>,
    },
    /// A single dense layer (logistic regression).
    Linear,
    /// Embedding → GRU → dense next-character model (Poets).
    CharRnn {
        /// Embedding dimension.
        embed: usize,
        /// GRU hidden width.
        hidden: usize,
    },
}

impl ModelSpec {
    /// The `kind` word used in scenario files.
    pub fn kind(&self) -> &'static str {
        word_of(&models(), self)
    }

    /// Builds the shared [`ModelFactory`] for a dataset with the given
    /// feature and class widths.
    ///
    /// This is the one place in the workspace that turns an architecture
    /// description into `Arc::new(move |rng| ...)` — every harness,
    /// example and test goes through it.
    pub fn build_factory(&self, features: usize, classes: usize) -> ModelFactory {
        match self {
            ModelSpec::Mlp { hidden } => {
                let hidden = hidden.clone();
                Arc::new(move |rng: &mut StdRng| {
                    let mut layers: Vec<Box<dyn dagfl_nn::Layer>> = Vec::new();
                    let mut width = features;
                    for &h in &hidden {
                        layers.push(Box::new(Dense::new(rng, width, h)));
                        layers.push(Box::new(Relu::new()));
                        width = h;
                    }
                    layers.push(Box::new(Dense::new(rng, width, classes)));
                    Box::new(Sequential::new(layers)) as Box<dyn Model>
                })
            }
            ModelSpec::Linear => Arc::new(move |rng: &mut StdRng| {
                Box::new(Sequential::new(vec![Box::new(Dense::new(
                    rng, features, classes,
                ))])) as Box<dyn Model>
            }),
            ModelSpec::CharRnn { embed, hidden } => {
                let (embed, hidden) = (*embed, *hidden);
                Arc::new(move |rng: &mut StdRng| {
                    Box::new(char_rnn(rng, classes, embed, hidden)) as Box<dyn Model>
                })
            }
        }
    }

    /// `[model]`: the architecture word; `hidden` is a list of widths for
    /// `mlp` and one width for `char-rnn`.
    fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Slot::*;
        const HIDDEN: Key = key("hidden", Range::AtLeastOne);
        v.word(key("kind", Range::Any).required(), &models(), self)?;
        match self {
            ModelSpec::Mlp { hidden } => v.key(HIDDEN, Widths(hidden)),
            ModelSpec::Linear => Ok(()),
            ModelSpec::CharRnn { embed, hidden } => {
                v.key(key("embed", Range::AtLeastOne), Usize(embed))?;
                v.key(HIDDEN, Usize(hidden))
            }
        }
    }
}

/// How the scenario is executed: the paper's comparison rounds or the
/// round-free event-driven deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionSpec {
    /// Discrete rounds (§5.3), driven by [`dagfl_core::Simulation`].
    Rounds(DagConfig),
    /// Event-driven asynchronous execution (§5.3.3), driven by
    /// [`dagfl_core::AsyncSimulation`] over the in-process loopback
    /// transport.
    Async {
        /// The event-driven simulation's configuration.
        config: AsyncConfig,
    },
}

impl ExecutionSpec {
    /// The `mode` word used in scenario files.
    pub fn mode(&self) -> &'static str {
        word_of(&modes(), self)
    }

    /// The embedded DAG configuration (hyperparameters, tip selection,
    /// seed).
    pub fn dag(&self) -> &DagConfig {
        match self {
            ExecutionSpec::Rounds(dag) => dag,
            ExecutionSpec::Async { config, .. } => &config.dag,
        }
    }

    /// Mutable access to the embedded DAG configuration.
    pub fn dag_mut(&mut self) -> &mut DagConfig {
        match self {
            ExecutionSpec::Rounds(dag) => dag,
            ExecutionSpec::Async { config, .. } => &mut config.dag,
        }
    }

    /// `[execution]`: the mode word, the DAG keys every mode has, then
    /// the transport and the async keys.
    fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        // A mode word swaps the variant, not the DAG keys (the builder
        // clamped `clients_per_round` to the dataset).
        let dag = *self.dag();
        v.word(key("mode", Range::Any), &modes(), self)?;
        *self.dag_mut() = dag;
        self.dag_mut().keys(v)?;
        let ExecutionSpec::Async { config } = self else {
            return Ok(());
        };
        v.word(key("transport", Range::Any), &TRANSPORTS, &mut ())?;
        config.keys(v)
    }
}

/// Output options: specialization tracking and the recent-accuracy
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Record the specialization metrics every this many rounds
    /// (`0` = only at the end; rounds mode without attack only).
    pub track_every: usize,
    /// Window (in client evaluations) for the report's recent-accuracy
    /// summary.
    pub recent_window: usize,
}

impl Default for OutputSpec {
    fn default() -> Self {
        Self {
            track_every: 0,
            recent_window: 30,
        }
    }
}

impl OutputSpec {
    /// `[output]`.
    fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        v.key(
            key("track_every", Range::Any),
            Slot::Usize(&mut self.track_every),
        )?;
        let window = key("recent_window", Range::AtLeastOne);
        v.key(window, Slot::Usize(&mut self.recent_window))
    }
}

/// A complete experiment as a value: dataset, model, execution mode,
/// optional attack and output options.
///
/// Scenarios are built three equivalent ways — the fluent builder, a
/// preset name ([`Scenario::preset`]), or a TOML file
/// ([`Scenario::from_toml`]) — and run by a
/// [`ScenarioRunner`](crate::ScenarioRunner).
///
/// # Example
///
/// ```
/// use dagfl_scenario::{DatasetSpec, Scenario, ScenarioRunner};
///
/// let scenario = Scenario::new(
///     "tiny-demo",
///     DatasetSpec::Fmnist {
///         clients: 4,
///         samples: 30,
///         relaxation: 0.0,
///         seed: 42,
///     },
/// )
/// .rounds(2)
/// .clients_per_round(2)
/// .local_batches(2);
/// // The same experiment, as a file:
/// let reparsed = Scenario::from_toml(&scenario.to_toml()).unwrap();
/// assert_eq!(scenario, reparsed);
/// let report = ScenarioRunner::new(scenario).unwrap().run().unwrap();
/// assert_eq!(report.progress, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (one line; used in reports and preset listings).
    pub name: String,
    /// The federated dataset.
    pub dataset: DatasetSpec,
    /// The model architecture.
    pub model: ModelSpec,
    /// The execution mode with its full configuration.
    pub execution: ExecutionSpec,
    /// Optional flipped-label poisoning attack (§5.3.4; rounds mode
    /// only): train clean, flip labels `class_a ↔ class_b` for a
    /// fraction of clients, keep training and measure containment.
    pub attack: Option<PoisoningConfig>,
    /// Optional deterministic fault injection (async loopback only). An
    /// empty `[faults]` section reads as the inert default plan.
    pub faults: Option<FaultPlan>,
    /// Optional specialization analytics (rounds mode without attack).
    pub analysis: Option<AnalysisSpec>,
    /// Output options.
    pub output: OutputSpec,
}

/// Specialization-analytics settings: the scenario-file projection of
/// [`dagfl_analysis::AnalysisConfig`] plus a cadence. A present
/// `[analysis]` section is the switch: an empty one enables the default
/// auto-k analysis over both views at the final round only.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSpec {
    /// Fixed cluster count for parameter-space k-means; `None` selects
    /// k by silhouette sweep over `k_min..=k_max`.
    pub k: Option<usize>,
    /// Lower bound of the auto-k silhouette sweep (ignored with `k`).
    pub k_min: usize,
    /// Upper bound of the auto-k silhouette sweep (ignored with `k`).
    pub k_max: usize,
    /// Analyse every this many rounds (`0` = only at the end).
    pub cadence: usize,
    /// Which view(s) to cluster: parameter space, the approval graph,
    /// or both.
    pub source: AnalysisSource,
}

impl Default for AnalysisSpec {
    fn default() -> Self {
        Self {
            k: None,
            k_min: 2,
            k_max: 6,
            cadence: 0,
            source: AnalysisSource::Both,
        }
    }
}

impl AnalysisSpec {
    /// Expands into the [`AnalysisConfig`] consumed by
    /// [`dagfl_analysis::analyze`], seeding k-means from the
    /// simulation's master seed.
    pub fn to_config(&self, seed: u64) -> AnalysisConfig {
        AnalysisConfig {
            k: match self.k {
                Some(k) => KSelection::Fixed(k),
                None => KSelection::Auto {
                    min: self.k_min,
                    max: self.k_max,
                },
            },
            source: self.source,
            seed,
        }
    }

    /// `[analysis]`: `k` fixes the cluster count; without it, `k_min`
    /// and `k_max` bound the silhouette sweep (with it, they are keys the
    /// section lacks).
    fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        v.key(key("k", AtLeastOne), OptUsize(&mut self.k))?;
        if self.k.is_none() {
            v.key(key("k_min", KAtMost(self.k_max)), Usize(&mut self.k_min))?;
            v.key(key("k_max", Any), Usize(&mut self.k_max))?;
        }
        v.key(key("cadence", Any), Usize(&mut self.cadence))?;
        v.word(key("source", Any), &SOURCES, &mut self.source)
    }
}

impl Scenario {
    /// Starts a scenario over `dataset` with the conventional model for
    /// that dataset, round-based execution at the core defaults (with
    /// `clients_per_round` clamped to the dataset size), no attack and
    /// default output options.
    pub fn new(name: impl Into<String>, dataset: DatasetSpec) -> Self {
        let dag = DagConfig {
            clients_per_round: DagConfig::default()
                .clients_per_round
                .min(dataset.num_clients().max(1)),
            ..DagConfig::default()
        };
        Self {
            name: name.into(),
            model: dataset.default_model(),
            execution: ExecutionSpec::Rounds(dag),
            attack: None,
            faults: None,
            analysis: None,
            output: OutputSpec::default(),
            dataset,
        }
    }

    /// Replaces the model architecture (builder style).
    pub fn with_model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// Replaces the whole execution spec (builder style).
    pub fn with_execution(mut self, execution: ExecutionSpec) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the round budget (rounds mode) — a no-op for async
    /// scenarios, whose budget is `total_activations`.
    pub fn rounds(mut self, rounds: usize) -> Self {
        if let ExecutionSpec::Rounds(dag) = &mut self.execution {
            dag.rounds = rounds;
        }
        self
    }

    /// Sets the number of concurrently active clients per round.
    pub fn clients_per_round(mut self, n: usize) -> Self {
        self.execution.dag_mut().clients_per_round = n;
        self
    }

    /// Sets the local mini-batches per epoch.
    pub fn local_batches(mut self, n: usize) -> Self {
        self.execution.dag_mut().local_batches = n;
        self
    }

    /// Sets one master seed for both the dataset generator and the
    /// simulation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.dataset.set_seed(seed);
        self.execution.dag_mut().seed = seed;
        self
    }

    /// Checks the complete spec: every section's key ranges in file
    /// order (the root `name`, then `[dataset]` through `[output]`; the
    /// execution keys via [`DagConfig::validate`] /
    /// [`AsyncConfig::validate`], `[attack]` via
    /// [`PoisoningConfig::validate`] against the class count and
    /// `[faults]` via [`FaultPlan::validate`] against the client count),
    /// then the rules that span sections: the model fits the dataset,
    /// `clients_per_round` fits the dataset, the mode has every section
    /// present, and a CIFAR population fits its pool.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found. A key out of range is an
    /// [`ScenarioError::InvalidValue`] under the file key the value is
    /// read from (`execution.interarrival`, not `mean_interarrival`).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let mut scenario = self.clone();
        for section in std::iter::once("").chain(SECTIONS) {
            let checked = match (section, &self.execution) {
                ("execution", ExecutionSpec::Rounds(dag)) => dag.validate(),
                ("execution", ExecutionSpec::Async { config }) => config.validate(),
                ("attack", _) => self
                    .attack
                    .map_or(Ok(()), |a| a.validate(self.dataset.num_classes())),
                ("faults", _) => self
                    .faults
                    .as_ref()
                    .map_or(Ok(()), |f| f.validate(self.dataset.num_clients())),
                _ => RangeCheck::run(|check| scenario.keys(section, check)),
            };
            checked.map_err(|e| core_error(section, e))?;
        }
        self.model_fits_dataset()?;
        if let ExecutionSpec::Rounds(dag) = &self.execution {
            if dag.clients_per_round > self.dataset.num_clients() {
                return Err(ScenarioError::Invalid(format!(
                    "clients_per_round ({}) exceeds the dataset's {} clients",
                    dag.clients_per_round,
                    self.dataset.num_clients()
                )));
            }
        }
        self.mode_has_sections()?;
        self.cifar_fits_pool()
    }

    /// The rule that `char-rnn` trains on token sequences and the other
    /// models on feature vectors.
    fn model_fits_dataset(&self) -> Result<(), ScenarioError> {
        let is_sequence = matches!(self.dataset, DatasetSpec::Poets { .. });
        let is_rnn = matches!(self.model, ModelSpec::CharRnn { .. });
        if is_sequence != is_rnn {
            return Err(ScenarioError::Invalid(format!(
                "model `{}` does not fit dataset `{}`: the poets dataset needs `char-rnn` \
                 (token sequences), every other dataset needs `mlp` or `linear`",
                self.model.kind(),
                self.dataset.kind()
            )));
        }
        Ok(())
    }

    /// The rule that faults need async mode, and an attack, tracking and
    /// analytics need rounds mode and exclude each other.
    fn mode_has_sections(&self) -> Result<(), ScenarioError> {
        let attack = self.attack.is_some();
        let tracked = self.output.track_every > 0;
        let analyzed = self.analysis.is_some();
        let message = match self.execution {
            ExecutionSpec::Rounds(_) if self.faults.is_some() => {
                "fault injection requires async mode"
            }
            ExecutionSpec::Async { .. } if attack => "poisoning attacks require rounds mode",
            ExecutionSpec::Async { .. } if tracked => {
                "specialization tracking requires rounds mode"
            }
            ExecutionSpec::Async { .. } if analyzed => {
                "specialization analytics require rounds mode"
            }
            _ if attack && tracked => {
                "specialization tracking is not supported together with an attack"
            }
            _ if attack && analyzed => {
                "specialization analytics are not supported together with an attack"
            }
            _ => return Ok(()),
        };
        Err(ScenarioError::Invalid(message.into()))
    }

    /// The rule that CIFAR's clients share a pool of
    /// [`cifar::POOL_SAMPLES`] samples.
    fn cifar_fits_pool(&self) -> Result<(), ScenarioError> {
        let DatasetSpec::Cifar {
            clients, samples, ..
        } = self.dataset
        else {
            return Ok(());
        };
        let pool = cifar::POOL_SAMPLES;
        if clients.checked_mul(samples).map_or(true, |n| n > pool) {
            return Err(ScenarioError::Invalid(format!(
                "dataset clients × samples ({clients} × {samples}) exceeds the pool of \
                 {pool} samples"
            )));
        }
        Ok(())
    }

    /// Builds the model factory for this scenario's dataset dimensions.
    pub fn build_factory(&self, dataset: &FederatedDataset) -> ModelFactory {
        self.model
            .build_factory(dataset.feature_len(), dataset.num_classes())
    }

    /// The scenario as a [`Document`] in canonical form (every section
    /// and key [`Scenario::to_toml`] writes, in file order); the exact
    /// inverse of [`Scenario::from_document`].
    pub fn to_document(&self) -> Document {
        let mut doc = Document::default();
        let mut scenario = self.clone();
        for section in std::iter::once("").chain(SECTIONS) {
            write(&mut doc, section, |w| scenario.keys(section, w));
        }
        doc
    }

    /// Serializes the scenario as TOML-subset text; the exact inverse of
    /// [`Scenario::from_toml`].
    pub fn to_toml(&self) -> String {
        self.to_document().to_text()
    }

    /// Parses a scenario from TOML-subset text
    /// ([`Scenario::from_document`] over the parsed text).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first problem.
    pub fn from_toml(text: &str) -> Result<Self, ScenarioError> {
        Self::from_document(&Document::parse(text)?)
    }

    /// Reads a scenario from a parsed [`Document`] — the one parser,
    /// defaulter and type check behind files, sweep axes and CLI flags.
    /// Unknown sections or keys, including keys the chosen shape words
    /// (`selector`, `delay_model`, `mode`, ...) do not have, are errors,
    /// so typos surface instead of silently running a different
    /// experiment. The result is *not* yet validated — call
    /// [`Scenario::validate`] (or hand it to
    /// [`ScenarioRunner::new`](crate::ScenarioRunner::new), which does).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] describing the first problem.
    pub fn from_document(doc: &Document) -> Result<Self, ScenarioError> {
        if let Some(section) = doc.section_names().find(|s| !SECTIONS.contains(s)) {
            return Err(ScenarioError::UnknownKey {
                key: format!("[{section}]"),
            });
        }
        let mut name = String::new();
        read(doc, "", |r| name_key(&mut name, r))?;
        // `kind` is required, so reading replaces this placeholder.
        let mut dataset = DATASETS[0].1.clone();
        read(doc, "dataset", |r| dataset.keys(r))?;
        // Start from the builder's defaults for this dataset, and a
        // present optional section from its own, and overwrite the keys
        // the document holds. An absent section reads as an empty one,
        // except `[model]`: its `kind` is required.
        let mut scenario = Scenario::new(name, dataset);
        scenario.attack = doc.section("attack").map(|_| PoisoningConfig::default());
        scenario.faults = doc.section("faults").map(|_| FaultPlan::default());
        scenario.analysis = doc.section("analysis").map(|_| AnalysisSpec::default());
        for section in SECTIONS.into_iter().filter(|s| *s != "dataset") {
            if section != "model" || doc.section(section).is_some() {
                read(doc, section, |r| scenario.keys(section, r))?;
            }
        }
        Self::whole_windows(doc)?;
        Ok(scenario)
    }

    /// The rule that `[faults]` gives each window whole or not at all:
    /// the three partition keys together, and a crash's peer with its
    /// time (`crash_restart` alone restarts nothing).
    fn whole_windows(doc: &Document) -> Result<(), ScenarioError> {
        let Some(faults) = doc.section("faults") else {
            return Ok(());
        };
        let has = |key| faults.get(key).is_some();
        let partition = ["partition_start", "partition_heal", "partition_split"].map(has);
        if partition.contains(&true) && partition.contains(&false) {
            return Err(ScenarioError::Invalid(
                "`faults.partition_start`, `faults.partition_heal` and `faults.partition_split` \
                 must be given together"
                    .into(),
            ));
        }
        let crash = ["crash_peer", "crash_at", "crash_restart"].map(has);
        if crash.contains(&true) && !(crash[0] && crash[1]) {
            return Err(ScenarioError::Invalid(
                "`faults.crash_peer` and `faults.crash_at` must be given together".into(),
            ));
        }
        Ok(())
    }

    /// Visits the keys of section `section` (`""` is the root table) in
    /// file order, each with its range; an absent optional section has
    /// none. Reading, writing and [`Scenario::validate`] all walk these
    /// lists.
    ///
    /// # Errors
    ///
    /// Returns the visitor's first error.
    pub fn keys<V: KeyVisitor>(&mut self, section: &str, v: &mut V) -> Result<(), V::Error> {
        match section {
            "" => name_key(&mut self.name, v),
            "dataset" => self.dataset.keys(v),
            "model" => self.model.keys(v),
            "execution" => self.execution.keys(v),
            "attack" => self.attack.as_mut().map_or(Ok(()), |a| a.keys(v)),
            "faults" => self.faults.as_mut().map_or(Ok(()), |f| f.keys(v)),
            "analysis" => self.analysis.as_mut().map_or(Ok(()), |a| a.keys(v)),
            "output" => self.output.keys(v),
            _ => Ok(()),
        }
    }

    /// Sets keys by their file paths (`("execution.alpha", "3")`) and
    /// re-reads the result: the canonical document, with the given keys
    /// overwritten, through [`Scenario::from_document`]. All keys of one
    /// edit are taken together because some only parse as a group
    /// (`faults.partition_*`). A key whose section the scenario does not
    /// have, or that the reader rejects for this scenario's shape, is an
    /// [`ScenarioError::UnknownKey`]. The result is not yet validated.
    ///
    /// # Errors
    ///
    /// Returns the reader's first complaint about the edited document.
    pub fn set_keys<K: AsRef<str>, V: AsRef<str>>(
        &self,
        keys: &[(K, V)],
    ) -> Result<Self, ScenarioError> {
        let mut doc = self.to_document();
        for (path, token) in keys {
            let path = path.as_ref();
            match path.split_once('.') {
                Some((section, key)) if doc.section(section).is_some() => doc
                    .section_mut(section)
                    .set(key, Value::from_token(token.as_ref())),
                _ => return Err(ScenarioError::UnknownKey { key: path.into() }),
            }
        }
        Self::from_document(&doc)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] on read failures and parse errors
    /// otherwise.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("reading {}: {e}", path.display())))?;
        Self::from_toml(&text)
    }
}

// ---------------------------------------------------------------------------
// Serialization: every section's key list, read and written by visitors
// ---------------------------------------------------------------------------

const INTEGER: &str = "a non-negative integer";
const NUMBER: &str = "a number";
const STRING: &str = "a quoted string";

/// The number `value` spells, `None` if it spells none of type `T`.
fn number<T: FromStr>(value: &Value) -> Option<T> {
    match value {
        Value::Number(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// The text `value` spells, `None` if it is no string.
fn text(value: &Value) -> Option<String> {
    match value {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// A number's file form: its `{:?}` form, the shortest that parses back
/// bit for bit, which keeps a `.0` on integral floats.
fn number_value(v: &impl std::fmt::Debug) -> Value {
    Value::Number(format!("{v:?}"))
}

fn key_path(section: &str, key: &str) -> String {
    if section.is_empty() {
        key.to_string()
    } else {
        format!("{section}.{key}")
    }
}

/// The word of `v`'s variant in a shape-word table.
fn word_of<E>(rows: &[(&'static str, E)], v: &E) -> &'static str {
    let row = rows
        .iter()
        .find(|(_, e)| discriminant(e) == discriminant(v));
    row.expect("every variant has a row").0
}

/// Reads a section into a value at its defaults: each key the table
/// holds overwrites its slot, an absent one leaves it. Every key it is
/// asked for counts as consumed, so [`Reader::finish`] can report the
/// rest as unknown.
pub(crate) struct Reader<'a> {
    section: &'a str,
    table: Option<&'a Table>,
    used: BTreeSet<String>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(section: &'a str, table: Option<&'a Table>) -> Self {
        Self {
            section,
            table,
            used: BTreeSet::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        self.used.insert(key.to_string());
        self.table.and_then(|t| t.get(key))
    }

    pub(crate) fn invalid(&self, key: &str, value: &Value, expected: &str) -> ScenarioError {
        ScenarioError::InvalidValue {
            key: key_path(self.section, key),
            value: match value {
                Value::Str(s) => s.clone(),
                Value::Number(n) => n.clone(),
                Value::Bool(b) => b.to_string(),
                Value::NumberList(items) => format!("[{}]", items.join(", ")),
                Value::Range(start, end) => format!("{start}..{end}"),
            },
            expected: expected.to_string(),
        }
    }

    /// Errors on any key the schema never asked for.
    fn finish(&self) -> Result<(), ScenarioError> {
        let unknown = self.table.and_then(|t| {
            t.iter()
                .find(|(key, _)| !self.used.contains(*key))
                .map(|(key, _)| key)
        });
        match unknown {
            Some(key) => Err(ScenarioError::UnknownKey {
                key: key_path(self.section, key),
            }),
            None => Ok(()),
        }
    }
}

impl KeyVisitor for Reader<'_> {
    type Error = ScenarioError;

    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), ScenarioError> {
        let Some(found) = self.get(key.name) else {
            if key.required {
                let key = key_path(self.section, key.name);
                return Err(ScenarioError::MissingKey { key });
            }
            return Ok(());
        };
        let (read, expected) = match value {
            Slot::Usize(v) | Slot::UsizeOr(v, _) => (number(found).map(|n| *v = n), INTEGER),
            Slot::OptUsize(v) => (number(found).map(|n| *v = Some(n)), INTEGER),
            Slot::U32(v) => (number(found).map(|n| *v = n), INTEGER),
            Slot::U64(v) => (number(found).map(|n| *v = n), INTEGER),
            Slot::F32(v) => (number(found).map(|n| *v = n), NUMBER),
            Slot::OptF32(v) => (number(found).map(|n| *v = Some(n)), NUMBER),
            Slot::F64(v) => (number(found).map(|n| *v = n), NUMBER),
            Slot::OptF64(v) => (number(found).map(|n| *v = Some(n)), NUMBER),
            Slot::Bool(v) => {
                let b = match found {
                    Value::Bool(b) => Some(*b),
                    _ => None,
                };
                (b.map(|b| *v = b), "true or false")
            }
            Slot::Str(v) => (text(found).map(|s| *v = s), STRING),
            Slot::OptStr(v) => (text(found).map(|s| *v = Some(s)), STRING),
            Slot::Widths(v) => {
                let widths = match found {
                    Value::NumberList(items) => items.iter().map(|raw| raw.parse().ok()).collect(),
                    _ => None,
                };
                (widths.map(|w| *v = w), "an array of non-negative integers")
            }
        };
        read.ok_or_else(|| self.invalid(key.name, found, expected))
    }

    fn word<E: Clone>(
        &mut self,
        key: Key,
        rows: &[(&'static str, E)],
        value: &mut E,
    ) -> Result<(), ScenarioError> {
        let mut word: Option<String> = None;
        self.key(key, Slot::OptStr(&mut word))?;
        let Some(word) = word else {
            return Ok(());
        };
        let Some((_, row)) = rows.iter().find(|(w, _)| *w == word) else {
            let words: Vec<&str> = rows.iter().map(|(w, _)| *w).collect();
            let expected = match words.split_last() {
                Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
                _ => words.concat(),
            };
            return Err(self.invalid(key.name, &Value::Str(word), &expected));
        };
        *value = row.clone();
        Ok(())
    }
}

/// Writes a section: every key the value holds goes into the document's
/// table, created at its first key, in visiting order.
pub(crate) struct Writer<'a> {
    doc: &'a mut Document,
    section: &'a str,
}

impl Writer<'_> {
    fn set(&mut self, key: &str, value: Value) {
        let table = if self.section.is_empty() {
            &mut self.doc.root
        } else {
            self.doc.section_mut(self.section)
        };
        table.set(key, value);
    }
}

impl KeyVisitor for Writer<'_> {
    type Error = Infallible;

    fn key(&mut self, key: Key, value: Slot<'_>) -> Result<(), Infallible> {
        let value = match value {
            Slot::Usize(v) | Slot::OptUsize(Some(v)) => number_value(v),
            Slot::UsizeOr(v, omitted) if *v != omitted => number_value(v),
            Slot::U32(v) => number_value(v),
            Slot::U64(v) => number_value(v),
            Slot::F32(v) | Slot::OptF32(Some(v)) => number_value(v),
            Slot::F64(v) | Slot::OptF64(Some(v)) => number_value(v),
            Slot::Bool(v) => Value::Bool(*v),
            Slot::Str(v) | Slot::OptStr(Some(v)) => Value::Str(v.clone()),
            Slot::Widths(v) => Value::NumberList(v.iter().map(usize::to_string).collect()),
            Slot::UsizeOr(..)
            | Slot::OptUsize(None)
            | Slot::OptF32(None)
            | Slot::OptF64(None)
            | Slot::OptStr(None) => return Ok(()),
        };
        self.set(key.name, value);
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        key: Key,
        rows: &[(&'static str, E)],
        value: &mut E,
    ) -> Result<(), Infallible> {
        self.set(key.name, Value::Str(word_of(rows, value).into()));
        Ok(())
    }
}

/// Runs a section's key list as a [`Reader`] of `doc`'s table `section`
/// (`""` is the root; an absent section reads as an empty one) and
/// rejects the keys the list left unconsumed.
pub(crate) fn read<'a>(
    doc: &'a Document,
    section: &'a str,
    visit: impl FnOnce(&mut Reader<'a>) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    let table = if section.is_empty() {
        Some(&doc.root)
    } else {
        doc.section(section)
    };
    let mut reader = Reader::new(section, table);
    visit(&mut reader)?;
    reader.finish()
}

/// Runs a section's key list as a [`Writer`] into `doc`'s table
/// `section` (`""` is the root).
pub(crate) fn write(
    doc: &mut Document,
    section: &str,
    visit: impl FnOnce(&mut Writer<'_>) -> Result<(), Infallible>,
) {
    let Ok(()) = visit(&mut Writer { doc, section });
}

/// The scenario sections, in canonical file order: the one list both
/// the scenario reader and the sweep reader check section names against.
pub(crate) const SECTIONS: [&str; 7] = [
    "dataset",
    "model",
    "execution",
    "attack",
    "faults",
    "analysis",
    "output",
];

/// `dataset.kind`: each generator with its default parameters.
const DATASETS: [(&str, DatasetSpec); 6] = [
    (
        "fmnist",
        DatasetSpec::Fmnist {
            clients: 15,
            samples: 60,
            relaxation: 0.0,
            seed: 42,
        },
    ),
    (
        "fmnist-streamed",
        DatasetSpec::FmnistStreamed {
            clients: 15,
            samples: 60,
            relaxation: 0.0,
            seed: 42,
        },
    ),
    (
        "fmnist-author",
        DatasetSpec::FmnistAuthor {
            clients: 12,
            samples: 80,
            seed: 42,
        },
    ),
    (
        "poets",
        DatasetSpec::Poets {
            clients_per_language: 6,
            samples: 400,
            seq_len: 12,
            seed: 42,
        },
    ),
    (
        "cifar",
        DatasetSpec::Cifar {
            clients: 30,
            samples: 60,
            seed: 42,
        },
    ),
    (
        "fedprox",
        DatasetSpec::FedProx {
            clients: 30,
            min_samples: 50,
            max_samples: 200,
            seed: 42,
        },
    ),
];

/// `model.kind`.
fn models() -> [(&'static str, ModelSpec); 3] {
    [
        ("mlp", ModelSpec::Mlp { hidden: vec![64] }),
        ("linear", ModelSpec::Linear),
        (
            "char-rnn",
            ModelSpec::CharRnn {
                embed: 8,
                hidden: 32,
            },
        ),
    ]
}

/// `execution.mode`.
fn modes() -> [(&'static str, ExecutionSpec); 2] {
    [
        ("rounds", ExecutionSpec::Rounds(DagConfig::default())),
        (
            "async",
            ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
        ),
    ]
}

/// `execution.transport`: the one way gossip travels in-process. Files
/// may spell it, so the key stays readable.
const TRANSPORTS: [(&str, ()); 1] = [("loopback", ())];

/// `analysis.source`.
const SOURCES: [(&str, AnalysisSource); 3] = [
    ("parameters", AnalysisSource::Parameters),
    ("approvals", AnalysisSource::Approvals),
    ("both", AnalysisSource::Both),
];

/// A core range error as an invalid value of the key it was read from
/// in `section`.
pub(crate) fn core_error(section: &str, e: CoreError) -> ScenarioError {
    let CoreError::InvalidField {
        field,
        key,
        value,
        constraint,
    } = e
    else {
        return ScenarioError::Core(e);
    };
    ScenarioError::InvalidValue {
        key: key.map_or_else(|| field.to_string(), |key| key_path(section, key)),
        value,
        expected: constraint.trim_start_matches("must be ").to_string(),
    }
}

/// The root table's one key, shared with sweep files: a one-line name.
pub(crate) fn name_key<V: KeyVisitor>(name: &mut String, v: &mut V) -> Result<(), V::Error> {
    v.key(key("name", Range::Line).required(), Slot::Str(name))
}

#[cfg(test)]
mod tests {
    use dagfl_core::{
        ComputeProfile, CrashWindow, DelayModel, Normalization, PartitionWindow, PublishGate,
        StaleTipPolicy, TipSelector,
    };

    use super::*;

    fn tiny() -> Scenario {
        Scenario::new(
            "tiny",
            DatasetSpec::Fmnist {
                clients: 4,
                samples: 30,
                relaxation: 0.0,
                seed: 42,
            },
        )
        .rounds(2)
        .clients_per_round(2)
        .local_batches(2)
    }

    #[test]
    fn builder_clamps_clients_per_round_to_dataset() {
        let s = Scenario::new(
            "small",
            DatasetSpec::Fmnist {
                clients: 4,
                samples: 30,
                relaxation: 0.0,
                seed: 42,
            },
        );
        assert_eq!(s.execution.dag().clients_per_round, 4);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn with_seed_reaches_dataset_and_simulation() {
        let s = tiny().with_seed(7);
        assert_eq!(s.dataset.seed(), 7);
        assert_eq!(s.execution.dag().seed, 7);
    }

    /// `(section, key, word, digest)`: a section holding only the word
    /// (and `mode = "async"` where the key needs it) and the FNV-1a of
    /// the canonical text it read to before the visitor rewrite.
    const SHAPE_WORDS: [(&str, &str, &str, u64); 32] = [
        ("dataset", "kind", "fmnist", 0x230dbfa3f3f13821),
        ("dataset", "kind", "fmnist-streamed", 0xacbf32b630ed56cd),
        ("dataset", "kind", "fmnist-author", 0xd37cc696f936815a),
        ("dataset", "kind", "poets", 0xf3d582fcc5b0d9a4),
        ("dataset", "kind", "cifar", 0x63b11b71c45bdef5),
        ("dataset", "kind", "fedprox", 0xde01522f07a43bef),
        ("model", "kind", "mlp", 0x230dbfa3f3f13821),
        ("model", "kind", "linear", 0xb93dc6e35d969882),
        ("model", "kind", "char-rnn", 0x2cd2e8ff93f4d87a),
        ("execution", "mode", "rounds", 0x230dbfa3f3f13821),
        ("execution", "mode", "async", 0xe705d62cc4cbf65e),
        ("execution", "selector", "accuracy", 0x230dbfa3f3f13821),
        ("execution", "selector", "random", 0xddec46eba6f6b389),
        ("execution", "selector", "cumulative", 0xe49b7adf75c09e43),
        ("execution", "normalization", "simple", 0x230dbfa3f3f13821),
        ("execution", "normalization", "dynamic", 0x3e94885e6416d8ce),
        ("execution", "publish_gate", "averaged", 0x230dbfa3f3f13821),
        (
            "execution",
            "publish_gate",
            "best-parent",
            0xc739c41004acaa81,
        ),
        ("execution", "publish_gate", "always", 0x511e7b926d443365),
        ("execution", "transport", "loopback", 0xe705d62cc4cbf65e),
        ("execution", "stale_policy", "publish", 0xe705d62cc4cbf65e),
        ("execution", "stale_policy", "reselect", 0x054c55f77e6e3bc8),
        ("execution", "stale_policy", "discard", 0x2cf442afa66cc553),
        ("execution", "delay_model", "constant", 0xe705d62cc4cbf65e),
        ("execution", "delay_model", "jitter", 0x41db2904dec0afdf),
        ("execution", "delay_model", "cohorts", 0xf7d283c752320eb7),
        ("execution", "compute", "uniform", 0xe705d62cc4cbf65e),
        ("execution", "compute", "two-speed", 0xd9faae3f8a4bffee),
        ("execution", "compute", "match-network", 0xdab572877d0f6864),
        ("analysis", "source", "parameters", 0x7c1bd48db05602a3),
        ("analysis", "source", "approvals", 0x1cc0bc2d451de2c7),
        ("analysis", "source", "both", 0xd6b8788cd36468c6),
    ];

    /// FNV-1a, for pinning texts captured at an earlier commit.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn float_formatting_round_trips() {
        for v in [0.05f32, 1.0, 0.1, f32::MAX, 1e-30] {
            let value = number_value(&v);
            let Value::Number(s) = &value else {
                panic!("{value:?} is not a number");
            };
            assert!(s.contains('.') || s.contains('e'), "{s} looks integral");
            let back = number::<f32>(&value).map(f32::to_bits);
            assert_eq!(back, Some(v.to_bits()), "{s}");
        }
        assert_eq!(number_value(&2.0f64), Value::Number("2.0".into()));
    }

    #[test]
    fn round_trips_every_execution_shape() {
        let with_dag = |edit: fn(&mut DagConfig)| {
            let mut s = tiny();
            edit(s.execution.dag_mut());
            s
        };
        let mut tracked = with_dag(|dag| dag.tip_selector = TipSelector::Random);
        tracked.output.track_every = 2;
        let cases = vec![
            tiny(),
            tracked,
            with_dag(|dag| dag.tip_selector = TipSelector::CumulativeWeight { alpha: 2.5 }),
            Scenario::new(
                "poets",
                DatasetSpec::Poets {
                    clients_per_language: 3,
                    samples: 50,
                    seq_len: 12,
                    seed: 1,
                },
            ),
            Scenario::new(
                "fedprox",
                DatasetSpec::FedProx {
                    clients: 8,
                    min_samples: 30,
                    max_samples: 60,
                    seed: 3,
                },
            ),
            Scenario {
                attack: Some(PoisoningConfig {
                    poison_fraction: 0.25,
                    clean_rounds: 3,
                    attack_rounds: 4,
                    class_a: 3,
                    class_b: 8,
                    measure_every: 2,
                }),
                ..Scenario::new(
                    "attack",
                    DatasetSpec::FmnistAuthor {
                        clients: 6,
                        samples: 40,
                        seed: 5,
                    },
                )
            },
            Scenario {
                execution: ExecutionSpec::Async {
                    config: AsyncConfig {
                        total_activations: 20,
                        mean_interarrival: 1.5,
                        delay: DelayModel::Cohorts {
                            slow_fraction: 0.3,
                            fast: 1.0,
                            slow: 8.0,
                            jitter: 0.5,
                        },
                        compute: ComputeProfile::MatchNetworkCohort { slowdown: 4.0 },
                        train_time: 0.5,
                        stale_policy: StaleTipPolicy::Reselect,
                        ..AsyncConfig::default()
                    },
                },
                ..tiny()
            },
            with_dag(|dag| {
                dag.tip_selector = TipSelector::Accuracy {
                    alpha: 3.0,
                    normalization: Normalization::Dynamic,
                };
                dag.walk_stop_margin = Some(0.2);
                dag.publish_gate = PublishGate::BestParent;
            }),
            with_dag(|dag| dag.publish_gate = PublishGate::Always),
            Scenario {
                execution: ExecutionSpec::Async {
                    config: AsyncConfig {
                        delay: DelayModel::UniformJitter {
                            base: 1.0,
                            jitter: 0.5,
                        },
                        compute: ComputeProfile::TwoSpeed {
                            slow_fraction: 0.2,
                            slowdown: 3.0,
                        },
                        stale_policy: StaleTipPolicy::Discard,
                        gossip_fanout: 2,
                        workers: 3,
                        ..AsyncConfig::default()
                    },
                },
                ..tiny()
            },
            Scenario {
                execution: ExecutionSpec::Async {
                    config: AsyncConfig::default(),
                },
                faults: Some(FaultPlan {
                    crash: Some(CrashWindow {
                        peer: 1,
                        at: 3.0,
                        restart: 5.0,
                    }),
                    ..chaos_faults()
                }),
                ..tiny()
            },
            Scenario {
                analysis: Some(AnalysisSpec {
                    k: Some(3),
                    ..AnalysisSpec::default()
                }),
                ..tiny()
            },
            Scenario {
                analysis: Some(AnalysisSpec {
                    k_min: 3,
                    k_max: 5,
                    cadence: 2,
                    source: AnalysisSource::Approvals,
                    ..AnalysisSpec::default()
                }),
                ..tiny()
            },
            Scenario::new(
                "streamed",
                DatasetSpec::FmnistStreamed {
                    clients: 5,
                    samples: 20,
                    relaxation: 0.1,
                    seed: 9,
                },
            )
            .with_model(ModelSpec::Mlp { hidden: vec![8, 4] }),
            Scenario::new(
                "cifar",
                DatasetSpec::Cifar {
                    clients: 6,
                    samples: 20,
                    seed: 4,
                },
            )
            .with_model(ModelSpec::Linear),
        ];
        // The bytes the writer emitted before it became a visitor: a
        // writer that drops a key the reader would default anyway, or
        // moves one, reads back equal but fails here.
        let written: Vec<&str> = include_str!("../tests/written_shapes.txt")
            .split("# ---\n")
            .collect();
        assert_eq!(written.len(), cases.len());
        for (scenario, expected) in cases.into_iter().zip(written) {
            let text = scenario.to_toml();
            assert_eq!(text, expected);
            let reparsed = Scenario::from_toml(&text)
                .unwrap_or_else(|e| panic!("reparsing `{}` failed: {e}\n{text}", scenario.name));
            assert_eq!(scenario, reparsed, "{text}");
        }
        // A section holding only a shape word reads to that word's
        // defaults: `(section, key, word, digest of the canonical text)`,
        // the digests captured before the rewrite.
        for (section, key, word, digest) in SHAPE_WORDS {
            let mut doc = Document::default();
            doc.root.set("name", Value::Str("x".into()));
            doc.section_mut("dataset")
                .set("kind", Value::Str("fmnist".into()));
            if ["transport", "stale_policy", "delay_model", "compute"].contains(&key) {
                doc.section_mut("execution")
                    .set("mode", Value::Str("async".into()));
            }
            doc.section_mut(section).set(key, Value::Str(word.into()));
            let text = Scenario::from_document(&doc).unwrap().to_toml();
            assert_eq!(fnv(&text), digest, "{section}.{key} = {word}:\n{text}");
        }
    }

    fn chaos_faults() -> FaultPlan {
        FaultPlan {
            drop: 0.2,
            duplicate: 0.1,
            reorder: 0.05,
            extra_delay: 0.1,
            delay_boost: 2.0,
            partition: Some(PartitionWindow {
                start: 5.0,
                heal: 9.0,
                split: 2,
            }),
            crash: Some(CrashWindow {
                peer: 3,
                at: 10.0,
                restart: f64::INFINITY,
            }),
        }
    }

    #[test]
    fn faults_round_trip_including_an_infinite_restart() {
        let s = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig {
                    gossip_fanout: 2,
                    ..AsyncConfig::default()
                },
            },
            faults: Some(chaos_faults()),
            ..tiny()
        };
        let text = s.to_toml();
        assert!(text.contains("[faults]"), "{text}");
        assert!(text.contains("fanout = 2"), "{text}");
        // A never-restarting crash serializes by *omitting* the key.
        assert!(!text.contains("crash_restart"), "{text}");
        let reparsed = Scenario::from_toml(&text).unwrap();
        assert_eq!(s, reparsed, "{text}");
        assert!(s.validate().is_ok());
    }

    #[test]
    fn empty_faults_section_parses_to_an_inert_plan() {
        let s = Scenario::from_toml(
            "name = \"x\"\n\n[dataset]\nkind = \"fmnist\"\n\n[execution]\nmode = \"async\"\n\n\
             [faults]\n",
        )
        .unwrap();
        let faults = s.faults.expect("section present");
        assert_eq!(faults, FaultPlan::default());
        assert!(faults.is_inert());
    }

    #[test]
    fn faults_are_rejected_outside_async_loopback() {
        let rounds = Scenario {
            faults: Some(chaos_faults()),
            ..tiny()
        };
        assert!(matches!(rounds.validate(), Err(ScenarioError::Invalid(_))));
        let bad_prob = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            faults: Some(FaultPlan {
                drop: 1.5,
                ..chaos_faults()
            }),
            ..tiny()
        };
        assert!(matches!(
            bad_prob.validate(),
            Err(ScenarioError::InvalidValue { ref key, .. }) if key == "faults.drop"
        ));
    }

    #[test]
    fn fault_windows_must_reach_a_client() {
        // `tiny()` has 4 clients: a crash of peer 4 or a cut at 0 or 4
        // can never fire.
        let rejected = |edit: &dyn Fn(&mut FaultPlan)| {
            let mut faults = chaos_faults();
            edit(&mut faults);
            let s = Scenario {
                execution: ExecutionSpec::Async {
                    config: AsyncConfig::default(),
                },
                faults: Some(faults),
                ..tiny()
            };
            match s.validate() {
                Err(ScenarioError::InvalidValue { key, .. }) => key,
                other => panic!("expected an invalid value, got {other:?}"),
            }
        };
        let split = |n| move |f: &mut FaultPlan| f.partition.as_mut().unwrap().split = n;
        assert_eq!(rejected(&split(0)), "faults.partition_split");
        assert_eq!(rejected(&split(4)), "faults.partition_split");
        let peer = |f: &mut FaultPlan| f.crash.as_mut().unwrap().peer = 4;
        assert_eq!(rejected(&peer), "faults.crash_peer");
        let ok = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            faults: Some(chaos_faults()),
            ..tiny()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn partial_partition_or_crash_keys_are_rejected() {
        let base =
            "name = \"x\"\n\n[dataset]\nkind = \"fmnist\"\n\n[execution]\nmode = \"async\"\n\n";
        let err =
            Scenario::from_toml(&format!("{base}[faults]\npartition_start = 2.0\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
        let err =
            Scenario::from_toml(&format!("{base}[faults]\ncrash_restart = 9.0\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn analysis_round_trips_in_both_k_shapes() {
        let auto = Scenario {
            analysis: Some(AnalysisSpec {
                cadence: 2,
                source: AnalysisSource::Parameters,
                ..AnalysisSpec::default()
            }),
            ..tiny()
        };
        let text = auto.to_toml();
        assert!(text.contains("[analysis]"), "{text}");
        assert!(text.contains("k_min = 2"), "{text}");
        assert!(!text.contains("\nk = "), "{text}");
        assert_eq!(Scenario::from_toml(&text).unwrap(), auto, "{text}");
        assert!(auto.validate().is_ok());

        let fixed = Scenario {
            analysis: Some(AnalysisSpec {
                k: Some(3),
                ..AnalysisSpec::default()
            }),
            ..tiny()
        };
        let text = fixed.to_toml();
        assert!(text.contains("k = 3"), "{text}");
        assert!(!text.contains("k_min"), "{text}");
        assert_eq!(Scenario::from_toml(&text).unwrap(), fixed, "{text}");
    }

    #[test]
    fn empty_analysis_section_parses_to_the_defaults() {
        let s = Scenario::from_toml("name = \"x\"\n\n[dataset]\nkind = \"fmnist\"\n\n[analysis]\n")
            .unwrap();
        let analysis = s.analysis.clone().expect("section present");
        assert_eq!(analysis, AnalysisSpec::default());
        assert!(matches!(
            analysis.to_config(42).k,
            KSelection::Auto { min: 2, max: 6 }
        ));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn analysis_rejects_conflicting_and_invalid_shapes() {
        // A fixed k leaves no sweep bounds: `k_min` is a key the shape
        // lacks.
        let err = Scenario::from_toml(
            "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[analysis]\nk = 3\nk_min = 2\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref key } if key == "analysis.k_min"),
            "{err:?}"
        );
        // Unknown source word.
        let err = Scenario::from_toml(
            "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[analysis]\nsource = \"vibes\"\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidValue { ref key, .. } if key == "analysis.source"),
            "{err:?}"
        );
        // Degenerate ranges and k = 0 fail validation.
        let analyzed = |analysis| Scenario {
            analysis: Some(analysis),
            ..tiny()
        };
        let zero_k = analyzed(AnalysisSpec {
            k: Some(0),
            ..AnalysisSpec::default()
        });
        assert_eq!(
            zero_k.validate().unwrap_err().to_string(),
            "invalid value `0` for `analysis.k`: expected at least 1"
        );
        let inverted = analyzed(AnalysisSpec {
            k_min: 5,
            k_max: 2,
            ..AnalysisSpec::default()
        });
        assert_eq!(
            inverted.validate().unwrap_err().to_string(),
            "invalid value `5` for `analysis.k_min`: expected at least 1 and at most k_max"
        );
        // Analytics need rounds mode without an attack.
        let unordered = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            ..analyzed(AnalysisSpec::default())
        };
        assert!(matches!(
            unordered.validate(),
            Err(ScenarioError::Invalid(_))
        ));
        let attacked = Scenario {
            attack: Some(PoisoningConfig::default()),
            ..analyzed(AnalysisSpec::default())
        };
        assert!(matches!(
            attacked.validate(),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn minimal_file_uses_defaults() {
        let s = Scenario::from_toml("name = \"mini\"\n\n[dataset]\nkind = \"fmnist\"\n").unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.model, ModelSpec::Mlp { hidden: vec![64] });
        assert!(matches!(s.execution, ExecutionSpec::Rounds(_)));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        let err = Scenario::from_toml("name = \"x\"\n[dataset]\nkind = \"fmnist\"\nclinets = 5\n")
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { ref key } if key == "dataset.clinets"));
        let err =
            Scenario::from_toml("name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[extra]\nk = 1\n")
                .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { ref key } if key == "[extra]"));
        // A key the chosen shape word does not have is as unknown as a
        // typo: it is rejected, not parsed and dropped.
        let file = |dataset: &str, execution: &str| {
            format!(
                "name = \"x\"\n[dataset]\nkind = \"fmnist-author\"\n{dataset}[execution]\n{execution}"
            )
        };
        for (text, unknown) in [
            (
                file("", "selector = \"random\"\nalpha = 5\n"),
                "execution.alpha",
            ),
            (
                file(
                    "",
                    "selector = \"cumulative\"\nnormalization = \"simple\"\n",
                ),
                "execution.normalization",
            ),
            (
                file("", "mode = \"async\"\njitter = 0.5\n"),
                "execution.jitter",
            ),
            (file("", "delay = 2.0\n"), "execution.delay"),
            (file("relaxation = 0.1\n", ""), "dataset.relaxation"),
            // Networked sessions are `dagfl peer` flags, not file keys.
            (
                file("", "mode = \"async\"\ntracker = \"127.0.0.1:7878\"\n"),
                "execution.tracker",
            ),
            (
                file("", "mode = \"async\"\nport = 9000\n"),
                "execution.port",
            ),
            (file("", "[output]\ncsv = \"series\"\n"), "output.csv"),
            // A present `[analysis]` section is the switch.
            (
                file("", "[analysis]\nenabled = false\n"),
                "analysis.enabled",
            ),
        ] {
            match Scenario::from_toml(&text) {
                Err(ScenarioError::UnknownKey { key }) => assert_eq!(key, unknown, "{text}"),
                other => panic!("{text}: expected unknown key `{unknown}`, got {other:?}"),
            }
        }
        // The same keys under the shapes that have them still parse, as
        // do the round-scheduling keys canonical async files spell.
        for execution in [
            "selector = \"cumulative\"\nalpha = 5\n",
            "mode = \"async\"\ndelay_model = \"jitter\"\njitter = 0.5\n",
            "mode = \"async\"\nrounds = 3\nclients_per_round = 2\nparallel = false\n",
        ] {
            let text = file("", execution);
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn set_keys_is_a_file_edit() {
        // A token set by path and the same token written in the file
        // produce equal scenarios...
        let edited = tiny()
            .set_keys(&[
                ("execution.publication_dropout", "0.25"),
                ("dataset.samples", "40"),
            ])
            .unwrap();
        let text = tiny()
            .to_toml()
            .replace("publication_dropout = 0.0", "publication_dropout = 0.25")
            .replace("samples = 30", "samples = 40");
        assert_eq!(edited, Scenario::from_toml(&text).unwrap());
        assert_eq!(edited.execution.dag().publication_dropout, 0.25);
        // ...an empty edit is the identity, keys that only parse as a
        // group arrive together...
        assert_eq!(tiny().set_keys::<&str, &str>(&[]).unwrap(), tiny());
        let faulted = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            faults: Some(FaultPlan {
                partition: None,
                ..chaos_faults()
            }),
            ..tiny()
        };
        let window = [
            ("faults.partition_start", "1"),
            ("faults.partition_heal", "2"),
            ("faults.partition_split", "3"),
        ];
        let partitioned = faulted.set_keys(&window).unwrap();
        let partition = partitioned.faults.unwrap().partition;
        let expected = PartitionWindow {
            start: 1.0,
            heal: 2.0,
            split: 3,
        };
        assert_eq!(partition, Some(expected));
        assert!(faulted.set_keys(&window[..1]).is_err());
        // ...and a key of an absent section or another shape, or a token
        // of the wrong type, is the reader's error.
        for path in [
            "attack.fraction",
            "execution.delay",
            "dataset.clinets",
            "name",
        ] {
            let err = tiny().set_keys(&[(path, "1")]).unwrap_err();
            assert!(
                matches!(err, ScenarioError::UnknownKey { ref key } if key == path),
                "{path}: {err}"
            );
        }
        let err = tiny().set_keys(&[("dataset.clients", "many")]).unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidValue { ref key, .. } if key == "dataset.clients"),
            "{err}"
        );
    }

    #[test]
    fn transport_keys_parse_and_reject_inapplicable_combos() {
        let base = "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nmode = \"async\"\n";
        // `loopback` is the one transport; spelling it changes nothing.
        assert_eq!(
            Scenario::from_toml(&format!("{base}transport = \"loopback\"\n")).unwrap(),
            Scenario::from_toml(base).unwrap()
        );
        // Any other word is an invalid value of the key.
        let err = Scenario::from_toml(&format!("{base}transport = \"tcp\"\n")).unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidValue { ref key, ref expected, .. }
                if key == "execution.transport" && expected == "loopback"),
            "{err}"
        );
    }

    #[test]
    fn missing_name_and_dataset_are_rejected() {
        assert!(matches!(
            Scenario::from_toml("[dataset]\nkind = \"fmnist\"\n").unwrap_err(),
            ScenarioError::MissingKey { ref key } if key == "name"
        ));
        assert!(matches!(
            Scenario::from_toml("name = \"x\"\n").unwrap_err(),
            ScenarioError::MissingKey { ref key } if key == "dataset.kind"
        ));
    }

    #[test]
    fn bad_words_are_rejected_with_expectations() {
        for (text, key) in [
            (
                "name = \"x\"\n[dataset]\nkind = \"imagenet\"\n",
                "dataset.kind",
            ),
            (
                "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nmode = \"warp\"\n",
                "execution.mode",
            ),
            (
                "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nselector = \"best\"\n",
                "execution.selector",
            ),
            (
                "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nmode = \"async\"\nstale_policy = \"retry\"\n",
                "execution.stale_policy",
            ),
            (
                "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[model]\nkind = \"transformer\"\n",
                "model.kind",
            ),
        ] {
            let err = Scenario::from_toml(text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::InvalidValue { key: ref k, .. } if k == key),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let err =
            Scenario::from_toml("name = \"x\"\n[dataset]\nkind = \"fmnist\"\nclients = \"many\"\n")
                .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
        let err = Scenario::from_toml("name = \"x\"\n[dataset]\nkind = \"fmnist\"\nclients = -3\n")
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidValue { .. }), "{err}");
    }

    #[test]
    fn validate_rejects_semantic_inconsistencies() {
        // clients_per_round above the dataset size.
        let err = tiny().clients_per_round(9).validate().unwrap_err();
        assert!(err.to_string().contains("clients_per_round"), "{err}");
        // Attack in async mode.
        let err = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            attack: Some(PoisoningConfig::default()),
            ..tiny()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("rounds mode"), "{err}");
        // Attack classes out of range.
        let err = Scenario {
            attack: Some(PoisoningConfig {
                class_a: 3,
                class_b: 12,
                ..PoisoningConfig::default()
            }),
            ..tiny()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("attack.class_b"), "{err}");
        // Mismatched model and dataset.
        let err = tiny()
            .with_model(ModelSpec::CharRnn {
                embed: 8,
                hidden: 16,
            })
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("char-rnn"), "{err}");
        // Core range checks surface through the scenario.
        let mut bad = tiny();
        bad.execution.dag_mut().learning_rate = -1.0;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("learning_rate"), "{err}");
        // Tracking in async mode.
        let mut tracked = Scenario {
            execution: ExecutionSpec::Async {
                config: AsyncConfig::default(),
            },
            ..tiny()
        };
        tracked.output.track_every = 2;
        let err = tracked.validate().unwrap_err();
        assert!(err.to_string().contains("tracking"), "{err}");
    }

    #[test]
    fn dataset_sizes_the_generators_reject_fail_validation() {
        let error = |dataset: DatasetSpec| {
            Scenario::new("sizes", dataset)
                .validate()
                .unwrap_err()
                .to_string()
        };
        let fmnist = |clients, samples| DatasetSpec::Fmnist {
            clients,
            samples,
            relaxation: 0.0,
            seed: 1,
        };
        let cifar = |clients, samples| DatasetSpec::Cifar {
            clients,
            samples,
            seed: 1,
        };
        let pool = "invalid scenario: dataset clients × samples";
        for (dataset, message) in [
            (
                fmnist(4, 5),
                "invalid value `5` for `dataset.samples`: expected at least 10",
            ),
            (
                DatasetSpec::FmnistStreamed {
                    clients: 2,
                    samples: 60,
                    relaxation: 0.0,
                    seed: 1,
                },
                "invalid value `2` for `dataset.clients`: expected at least 3, one per cluster",
            ),
            (
                DatasetSpec::FmnistAuthor {
                    clients: 2,
                    samples: 9,
                    seed: 1,
                },
                "invalid value `9` for `dataset.samples`: expected at least 10",
            ),
            (
                DatasetSpec::Poets {
                    clients_per_language: 1,
                    samples: 9,
                    seq_len: 4,
                    seed: 1,
                },
                "invalid value `9` for `dataset.samples`: expected at least 10",
            ),
            (
                cifar(200, 40),
                &format!("{pool} (200 × 40) exceeds the pool of 6000 samples"),
            ),
            (
                cifar(usize::MAX, 10),
                &format!(
                    "{pool} ({} × 10) exceeds the pool of 6000 samples",
                    usize::MAX
                ),
            ),
            (
                DatasetSpec::FedProx {
                    clients: 3,
                    min_samples: 5,
                    max_samples: 50,
                    seed: 1,
                },
                "invalid value `5` for `dataset.min_samples`: expected at least 10 and at most \
                 max_samples",
            ),
        ] {
            assert_eq!(error(dataset.clone()), message, "{dataset:?}");
        }
        // Every key's range comes first, in file order; the pool rule
        // after them.
        let err = Scenario::new("sizes", cifar(200, 40))
            .rounds(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("execution.rounds"), "{err}");
        let err = error(DatasetSpec::Fmnist {
            clients: 2,
            samples: 5,
            relaxation: 1.5,
            seed: 1,
        });
        assert!(err.contains("`2` for `dataset.clients`"), "{err}");
    }

    #[test]
    fn out_of_range_file_fails_validation_not_parsing() {
        let s = Scenario::from_toml(
            "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[execution]\nlearning_rate = -0.5\n",
        )
        .unwrap();
        assert!(s.validate().is_err());
    }

    #[test]
    fn factories_match_dataset_dimensions() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = ModelSpec::Mlp { hidden: vec![8, 4] }.build_factory(20, 10)(&mut rng);
        assert_eq!(mlp.num_parameters(), 20 * 8 + 8 + 8 * 4 + 4 + 4 * 10 + 10);
        let linear = ModelSpec::Linear.build_factory(60, 10)(&mut rng);
        assert_eq!(linear.num_parameters(), 60 * 10 + 10);
        let empty_mlp = ModelSpec::Mlp { hidden: vec![] }.build_factory(60, 10)(&mut rng);
        assert_eq!(empty_mlp.num_parameters(), linear.num_parameters());
        let rnn = ModelSpec::CharRnn {
            embed: 8,
            hidden: 32,
        }
        .build_factory(12, POETS_VOCAB.len())(&mut rng);
        assert!(rnn.num_parameters() > 0);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("dagfl_scenario_io_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/tiny.toml");
        let scenario = tiny();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, scenario.to_toml()).unwrap();
        assert_eq!(Scenario::load(&path).unwrap(), scenario);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            Scenario::load(dir.join("missing.toml")).unwrap_err(),
            ScenarioError::Io(_)
        ));
    }
}
