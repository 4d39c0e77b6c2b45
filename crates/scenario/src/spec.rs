//! The declarative experiment specification: [`Scenario`] and its parts.

use std::collections::BTreeSet;
use std::mem::discriminant;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;

use dagfl_analysis::{AnalysisConfig, AnalysisSource, KSelection};
use dagfl_core::{
    AsyncConfig, CoreError, CrashWindow, DagConfig, FaultPlan, KeyVisitor, ModelFactory,
    PartitionWindow, PoisoningConfig, Slot,
};
use dagfl_datasets::{
    cifar, cifar100_like, fedprox_synthetic, fmnist, fmnist_by_author, fmnist_clustered,
    fmnist_clustered_streamed, poets, Cifar100Config, FedProxConfig, FederatedDataset,
    FmnistConfig, PoetsConfig, MIN_SAMPLES, POETS_VOCAB,
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

    /// Checks the complete spec: dataset parameters, model/dataset
    /// compatibility, the embedded core configuration (via
    /// [`DagConfig::validate`] / [`AsyncConfig::validate`],
    /// [`FaultPlan::validate`] against the client count and
    /// [`PoisoningConfig::validate`] against the class count), the
    /// sections each mode allows and output options.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found. A core range error is an
    /// [`ScenarioError::InvalidValue`] under the file key the value is
    /// read from (`execution.interarrival`, not `mean_interarrival`).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.trim().is_empty() || self.name.contains('\n') {
            return Err(ScenarioError::Invalid(
                "name must be a non-empty single line".into(),
            ));
        }
        self.validate_dataset()?;
        self.validate_model()?;
        match &self.execution {
            ExecutionSpec::Rounds(dag) => {
                dag.validate().map_err(core_error)?;
                if dag.clients_per_round > self.dataset.num_clients() {
                    return Err(ScenarioError::Invalid(format!(
                        "clients_per_round ({}) exceeds the dataset's {} clients",
                        dag.clients_per_round,
                        self.dataset.num_clients()
                    )));
                }
                if self.faults.is_some() {
                    return Err(ScenarioError::Invalid(
                        "fault injection requires async mode".into(),
                    ));
                }
            }
            ExecutionSpec::Async { config } => {
                config.validate().map_err(core_error)?;
                if self.attack.is_some() {
                    return Err(ScenarioError::Invalid(
                        "poisoning attacks require rounds mode".into(),
                    ));
                }
                if self.output.track_every > 0 {
                    return Err(ScenarioError::Invalid(
                        "specialization tracking requires rounds mode".into(),
                    ));
                }
                if self.analysis.is_some() {
                    return Err(ScenarioError::Invalid(
                        "specialization analytics require rounds mode".into(),
                    ));
                }
                if let Some(faults) = &self.faults {
                    faults
                        .validate(self.dataset.num_clients())
                        .map_err(core_error)?;
                }
            }
        }
        if let Some(attack) = &self.attack {
            attack
                .validate(self.dataset.num_classes())
                .map_err(core_error)?;
            if self.output.track_every > 0 {
                return Err(ScenarioError::Invalid(
                    "specialization tracking is not supported together with an attack".into(),
                ));
            }
            if self.analysis.is_some() {
                return Err(ScenarioError::Invalid(
                    "specialization analytics are not supported together with an attack".into(),
                ));
            }
        }
        if let Some(analysis) = &self.analysis {
            if let Some(k) = analysis.k {
                if k == 0 {
                    return Err(ScenarioError::Invalid(
                        "analysis.k must be at least 1".into(),
                    ));
                }
            } else if analysis.k_min < 1 || analysis.k_min > analysis.k_max {
                return Err(ScenarioError::Invalid(format!(
                    "analysis.k_min ({}) must be at least 1 and at most k_max ({})",
                    analysis.k_min, analysis.k_max
                )));
            }
        }
        if self.output.recent_window == 0 {
            return Err(ScenarioError::Invalid(
                "output.recent_window must be at least 1".into(),
            ));
        }
        self.validate_dataset_size()
    }

    fn validate_dataset(&self) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::Invalid(msg));
        match self.dataset {
            DatasetSpec::Fmnist {
                clients,
                samples,
                relaxation,
                ..
            }
            | DatasetSpec::FmnistStreamed {
                clients,
                samples,
                relaxation,
                ..
            } => {
                if clients == 0 || samples == 0 {
                    return err("dataset clients and samples must be at least 1".into());
                }
                if !(relaxation.is_finite() && (0.0..1.0).contains(&relaxation)) {
                    return err(format!(
                        "dataset.relaxation ({relaxation}) must be in [0, 1)"
                    ));
                }
            }
            DatasetSpec::FmnistAuthor {
                clients, samples, ..
            }
            | DatasetSpec::Cifar {
                clients, samples, ..
            } => {
                if clients == 0 || samples == 0 {
                    return err("dataset clients and samples must be at least 1".into());
                }
            }
            DatasetSpec::Poets {
                clients_per_language,
                samples,
                seq_len,
                ..
            } => {
                if clients_per_language == 0 || samples == 0 || seq_len == 0 {
                    return err(
                        "dataset clients_per_language, samples and seq_len must be at least 1"
                            .into(),
                    );
                }
            }
            DatasetSpec::FedProx {
                clients,
                min_samples,
                max_samples,
                ..
            } => {
                if clients == 0 || min_samples == 0 {
                    return err("dataset clients and min_samples must be at least 1".into());
                }
                if min_samples > max_samples {
                    return err(format!(
                        "dataset.min_samples ({min_samples}) exceeds max_samples ({max_samples})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// What the generators assert beyond sizes of at least 1: a client
    /// per FMNIST cluster, [`MIN_SAMPLES`] per client and CIFAR's pool.
    /// Checked last, so every input another check rejects keeps its error.
    fn validate_dataset_size(&self) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::Invalid(msg));
        let (key, samples) = match self.dataset {
            DatasetSpec::Fmnist {
                clients, samples, ..
            }
            | DatasetSpec::FmnistStreamed {
                clients, samples, ..
            } => {
                let clusters = fmnist::CLASS_CLUSTERS.len();
                if clients < clusters {
                    return err(format!(
                        "dataset.clients ({clients}) must be at least {clusters}, one per cluster"
                    ));
                }
                ("samples", samples)
            }
            DatasetSpec::Cifar {
                clients, samples, ..
            } => {
                let pool = cifar::POOL_SAMPLES;
                if clients.checked_mul(samples).map_or(true, |n| n > pool) {
                    return err(format!(
                        "dataset clients × samples ({clients} × {samples}) exceeds the pool of \
                         {pool} samples"
                    ));
                }
                ("samples", samples)
            }
            DatasetSpec::FmnistAuthor { samples, .. } | DatasetSpec::Poets { samples, .. } => {
                ("samples", samples)
            }
            DatasetSpec::FedProx { min_samples, .. } => ("min_samples", min_samples),
        };
        if samples < MIN_SAMPLES {
            return err(format!(
                "dataset.{key} ({samples}) must be at least {MIN_SAMPLES}"
            ));
        }
        Ok(())
    }

    fn validate_model(&self) -> Result<(), ScenarioError> {
        match &self.model {
            ModelSpec::Mlp { hidden } => {
                if hidden.contains(&0) {
                    return Err(ScenarioError::Invalid(
                        "model.hidden widths must be at least 1".into(),
                    ));
                }
            }
            ModelSpec::Linear => {}
            ModelSpec::CharRnn { embed, hidden } => {
                if *embed == 0 || *hidden == 0 {
                    return Err(ScenarioError::Invalid(
                        "model.embed and model.hidden must be at least 1".into(),
                    ));
                }
            }
        }
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
        let mut s = self.clone();
        write(&mut doc, "", &mut s.name, root);
        write(&mut doc, "dataset", &mut s.dataset, dataset);
        write(&mut doc, "model", &mut s.model, model);
        write(&mut doc, "execution", &mut s.execution, execution);
        if let Some(v) = &mut s.attack {
            write(&mut doc, "attack", v, attack);
        }
        if let Some(v) = &mut s.faults {
            write(&mut doc, "faults", v, faults);
        }
        if let Some(v) = &mut s.analysis {
            write(&mut doc, "analysis", v, analysis);
        }
        write(&mut doc, "output", &mut s.output, output);
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
        read(doc, "", &mut name, root)?;
        // `kind` is required, so reading replaces this placeholder.
        let mut spec = DATASETS[0].1.clone();
        read(doc, "dataset", &mut spec, dataset)?;
        // Start from the builder's defaults for this dataset and
        // overwrite the keys the document holds. An absent section reads
        // as an empty one, except `[model]`: its `kind` is required.
        let mut scenario = Scenario::new(name, spec);
        if doc.section("model").is_some() {
            read(doc, "model", &mut scenario.model, model)?;
        }
        read(doc, "execution", &mut scenario.execution, execution)?;
        scenario.attack = opt_section(doc, "attack", attack)?;
        scenario.faults = opt_section(doc, "faults", faults)?;
        scenario.analysis = opt_section(doc, "analysis", analysis)?;
        read(doc, "output", &mut scenario.output, output)?;
        Ok(scenario)
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
// Serialization: one visitor per section
// ---------------------------------------------------------------------------

/// A value a scenario key holds: its file form, and what a value of the
/// wrong form was expected to be.
pub(crate) trait Key: Clone {
    /// What the reader expected instead of a value it cannot read.
    const EXPECTED: &'static str;
    /// The value's file form.
    fn to_value(&self) -> Value;
    /// Reads the file form, `None` if it does not hold this type.
    fn from_value(value: &Value) -> Option<Self>;
}

/// The number types keys hold. Their `{:?}` form is the shortest that
/// parses back bit for bit, and keeps a `.0` on integral floats.
trait Number: Clone + std::fmt::Debug + std::str::FromStr {
    /// What a key of this type expected.
    const EXPECTED: &'static str;
}

const INTEGER: &str = "a non-negative integer";
impl Number for usize {
    const EXPECTED: &'static str = INTEGER;
}
impl Number for u64 {
    const EXPECTED: &'static str = INTEGER;
}
impl Number for u32 {
    const EXPECTED: &'static str = INTEGER;
}
impl Number for f32 {
    const EXPECTED: &'static str = "a number";
}
impl Number for f64 {
    const EXPECTED: &'static str = "a number";
}

impl<T: Number> Key for T {
    const EXPECTED: &'static str = <T as Number>::EXPECTED;
    fn to_value(&self) -> Value {
        Value::Number(format!("{self:?}"))
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

impl Key for bool {
    const EXPECTED: &'static str = "true or false";
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Key for String {
    const EXPECTED: &'static str = "a quoted string";
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl Key for Vec<usize> {
    const EXPECTED: &'static str = "an array of non-negative integers";
    fn to_value(&self) -> Value {
        Value::NumberList(self.iter().map(usize::to_string).collect())
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::NumberList(items) => items.iter().map(|raw| raw.parse().ok()).collect(),
            _ => None,
        }
    }
}

/// One pass over a section's keys, in file order, with the type each
/// key holds. A section is described once, as a function over
/// `impl Codec`, and both directions run it: [`Writer`] fills a table
/// from a value, [`Reader`] overwrites a value (at its defaults) with
/// the keys a table holds.
pub(crate) trait Codec {
    /// The dotted path of `key` in this section, for error messages.
    fn path(&self, key: &str) -> String;

    /// A key the section may lack, which `None` stands for.
    fn opt<T: Key>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), ScenarioError>;

    /// A shape word. `rows` pairs every word with the variant it reads
    /// as, at that variant's defaults: the writer emits the word of
    /// `v`'s variant, the reader swaps in the row of the word it finds.
    fn word<E: Clone>(
        &mut self,
        key: &str,
        rows: &[(&'static str, E)],
        v: &mut E,
    ) -> Result<(), ScenarioError>;

    /// A key without a default: the reader reports its absence.
    fn require(&mut self, key: &str) -> Result<(), ScenarioError>;

    /// A key the section always has.
    fn key<T: Key>(&mut self, key: &str, v: &mut T) -> Result<(), ScenarioError> {
        let mut slot = Some(v.clone());
        self.opt(key, &mut slot)?;
        if let Some(value) = slot {
            *v = value;
        }
        Ok(())
    }
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

/// Reads a section. Every key it is asked for counts as consumed, so
/// [`Reader::finish`] can report the rest as unknown.
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
            key: self.path(key),
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
                key: self.path(key),
            }),
            None => Ok(()),
        }
    }
}

impl Codec for Reader<'_> {
    fn path(&self, key: &str) -> String {
        key_path(self.section, key)
    }

    fn opt<T: Key>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), ScenarioError> {
        *v = match self.get(key) {
            None => None,
            Some(value) => {
                Some(T::from_value(value).ok_or_else(|| self.invalid(key, value, T::EXPECTED))?)
            }
        };
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        key: &str,
        rows: &[(&'static str, E)],
        v: &mut E,
    ) -> Result<(), ScenarioError> {
        let mut word: Option<String> = None;
        self.opt(key, &mut word)?;
        let Some(word) = word else {
            return Ok(());
        };
        let Some((_, row)) = rows.iter().find(|(w, _)| *w == word) else {
            let words: Vec<&str> = rows.iter().map(|(w, _)| *w).collect();
            let expected = match words.split_last() {
                Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
                _ => words.concat(),
            };
            return Err(self.invalid(key, &Value::Str(word), &expected));
        };
        *v = row.clone();
        Ok(())
    }

    fn require(&mut self, key: &str) -> Result<(), ScenarioError> {
        match self.table.and_then(|t| t.get(key)) {
            Some(_) => Ok(()),
            None => Err(ScenarioError::MissingKey {
                key: self.path(key),
            }),
        }
    }
}

/// Writes a section: every key the value holds goes into the table, in
/// visiting order.
pub(crate) struct Writer<'a> {
    section: &'a str,
    table: &'a mut Table,
}

impl Codec for Writer<'_> {
    fn path(&self, key: &str) -> String {
        key_path(self.section, key)
    }

    fn opt<T: Key>(&mut self, key: &str, v: &mut Option<T>) -> Result<(), ScenarioError> {
        if let Some(v) = v {
            self.table.set(key, v.to_value());
        }
        Ok(())
    }

    fn word<E: Clone>(
        &mut self,
        key: &str,
        rows: &[(&'static str, E)],
        v: &mut E,
    ) -> Result<(), ScenarioError> {
        self.table.set(key, Value::Str(word_of(rows, v).into()));
        Ok(())
    }

    fn require(&mut self, _: &str) -> Result<(), ScenarioError> {
        Ok(())
    }
}

/// Runs a section's visitor as a [`Reader`] of `doc`'s table `name`
/// (`""` is the root; an absent section reads as an empty one) and
/// rejects the keys the visit left unconsumed.
pub(crate) fn read<'a, T>(
    doc: &'a Document,
    name: &'a str,
    v: &mut T,
    visit: impl FnOnce(&mut Reader<'a>, &mut T) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    let table = if name.is_empty() {
        Some(&doc.root)
    } else {
        doc.section(name)
    };
    let mut reader = Reader::new(name, table);
    visit(&mut reader, v)?;
    reader.finish()
}

/// [`read`] for a section whose absence means "none": a present one
/// starts from the defaults.
fn opt_section<'a, T: Default>(
    doc: &'a Document,
    name: &'a str,
    visit: impl FnOnce(&mut Reader<'a>, &mut T) -> Result<(), ScenarioError>,
) -> Result<Option<T>, ScenarioError> {
    let mut v = T::default();
    match doc.section(name) {
        Some(_) => read(doc, name, &mut v, visit).map(|()| Some(v)),
        None => Ok(None),
    }
}

/// Runs a section's visitor as a [`Writer`] into `doc`'s table `name`
/// (`""` is the root).
pub(crate) fn write<'a, T>(
    doc: &'a mut Document,
    name: &'a str,
    v: &mut T,
    visit: impl FnOnce(&mut Writer<'a>, &mut T) -> Result<(), ScenarioError>,
) {
    let table = if name.is_empty() {
        &mut doc.root
    } else {
        doc.section_mut(name)
    };
    let mut writer = Writer {
        section: name,
        table,
    };
    // Every check a visitor makes is on keys the reader found; a value
    // always has a consistent set.
    visit(&mut writer, v).expect("writing a value cannot fail");
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

/// A core range error as an invalid value of the key it was read from.
fn core_error(e: CoreError) -> ScenarioError {
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
        key: key.map_or_else(|| field.to_string(), |key| format!("execution.{key}")),
        value,
        expected: constraint.trim_start_matches("must be ").to_string(),
    }
}

/// The root table: the one-line name (shared with sweep files).
pub(crate) fn root(c: &mut impl Codec, name: &mut String) -> Result<(), ScenarioError> {
    c.require("name")?;
    c.key("name", name)
}

/// `[dataset]`: the generator word, then its parameters.
fn dataset(c: &mut impl Codec, v: &mut DatasetSpec) -> Result<(), ScenarioError> {
    c.require("kind")?;
    c.word("kind", &DATASETS, v)?;
    match v {
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
            c.key("clients", clients)?;
            c.key("samples", samples)?;
            c.key("relaxation", relaxation)?;
            c.key("seed", seed)
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
            c.key("clients", clients)?;
            c.key("samples", samples)?;
            c.key("seed", seed)
        }
        DatasetSpec::Poets {
            clients_per_language,
            samples,
            seq_len,
            seed,
        } => {
            c.key("clients_per_language", clients_per_language)?;
            c.key("samples", samples)?;
            c.key("seq_len", seq_len)?;
            c.key("seed", seed)
        }
        DatasetSpec::FedProx {
            clients,
            min_samples,
            max_samples,
            seed,
        } => {
            c.key("clients", clients)?;
            c.key("min_samples", min_samples)?;
            c.key("max_samples", max_samples)?;
            c.key("seed", seed)
        }
    }
}

/// `[model]`: the architecture word; `hidden` is a list of widths for
/// `mlp` and one width for `char-rnn`.
fn model(c: &mut impl Codec, v: &mut ModelSpec) -> Result<(), ScenarioError> {
    c.require("kind")?;
    c.word("kind", &models(), v)?;
    match v {
        ModelSpec::Mlp { hidden } => c.key("hidden", hidden),
        ModelSpec::Linear => Ok(()),
        ModelSpec::CharRnn { embed, hidden } => {
            c.key("embed", embed)?;
            c.key("hidden", hidden)
        }
    }
}

/// `[execution]`: the mode word, the DAG keys every mode has, then the
/// transport and the async keys.
fn execution(c: &mut impl Codec, v: &mut ExecutionSpec) -> Result<(), ScenarioError> {
    // A mode word swaps the variant, not the DAG keys (the builder
    // clamped `clients_per_round` to the dataset).
    let dag = *v.dag();
    c.word("mode", &modes(), v)?;
    *v.dag_mut() = dag;
    v.dag_mut().keys(&mut CoreKeys(c))?;
    let ExecutionSpec::Async { config } = v else {
        return Ok(());
    };
    c.word("transport", &TRANSPORTS, &mut ())?;
    config.keys(&mut CoreKeys(c))
}

/// A core config's key list, read or written through a codec.
struct CoreKeys<'c, C>(&'c mut C);

impl<C: Codec> KeyVisitor for CoreKeys<'_, C> {
    type Error = ScenarioError;

    fn key(&mut self, key: dagfl_core::Key, value: Slot<'_>) -> Result<(), ScenarioError> {
        let (c, name) = (&mut *self.0, key.name);
        match value {
            Slot::Usize(v) => c.key(name, v),
            Slot::UsizeOr(v, omitted) => {
                let mut slot = (*v != omitted).then_some(*v);
                c.opt(name, &mut slot)?;
                *v = slot.unwrap_or(omitted);
                Ok(())
            }
            Slot::U32(v) => c.key(name, v),
            Slot::U64(v) => c.key(name, v),
            Slot::F32(v) => c.key(name, v),
            Slot::OptF32(v) => c.opt(name, v),
            Slot::F64(v) => c.key(name, v),
            Slot::Bool(v) => c.key(name, v),
        }
    }

    fn word<E: Clone>(
        &mut self,
        name: &'static str,
        rows: &[(&'static str, E)],
        value: &mut E,
    ) -> Result<(), ScenarioError> {
        self.0.word(name, rows, value)
    }
}

/// `[attack]`.
fn attack(c: &mut impl Codec, v: &mut PoisoningConfig) -> Result<(), ScenarioError> {
    c.key("fraction", &mut v.poison_fraction)?;
    c.key("clean_rounds", &mut v.clean_rounds)?;
    c.key("attack_rounds", &mut v.attack_rounds)?;
    c.key("class_a", &mut v.class_a)?;
    c.key("class_b", &mut v.class_b)?;
    c.key("measure_every", &mut v.measure_every)
}

/// `[faults]`: the per-envelope faults, then a partition window and a
/// crash window, each given whole or not at all (a crash without
/// `crash_restart` never restarts).
fn faults(c: &mut impl Codec, v: &mut FaultPlan) -> Result<(), ScenarioError> {
    c.key("drop", &mut v.drop)?;
    c.key("duplicate", &mut v.duplicate)?;
    c.key("reorder", &mut v.reorder)?;
    c.key("extra_delay", &mut v.extra_delay)?;
    c.key("delay_boost", &mut v.delay_boost)?;
    let mut start = v.partition.map(|w| w.start);
    let mut heal = v.partition.map(|w| w.heal);
    let mut split = v.partition.map(|w| w.split);
    c.opt("partition_start", &mut start)?;
    c.opt("partition_heal", &mut heal)?;
    c.opt("partition_split", &mut split)?;
    v.partition = match (start, heal, split) {
        (None, None, None) => None,
        (Some(start), Some(heal), Some(split)) => Some(PartitionWindow { start, heal, split }),
        _ => {
            return Err(ScenarioError::Invalid(format!(
                "`{}`, `{}` and `{}` must be given together",
                c.path("partition_start"),
                c.path("partition_heal"),
                c.path("partition_split"),
            )))
        }
    };
    let mut peer = v.crash.map(|w| w.peer);
    let mut at = v.crash.map(|w| w.at);
    let mut restart = v.crash.map(|w| w.restart).filter(|r| r.is_finite());
    c.opt("crash_peer", &mut peer)?;
    c.opt("crash_at", &mut at)?;
    c.opt("crash_restart", &mut restart)?;
    v.crash = match (peer, at, restart) {
        (None, None, None) => None,
        (Some(peer), Some(at), restart) => {
            let restart = restart.unwrap_or(f64::INFINITY);
            Some(CrashWindow { peer, at, restart })
        }
        _ => {
            return Err(ScenarioError::Invalid(format!(
                "`{}` and `{}` must be given together",
                c.path("crash_peer"),
                c.path("crash_at"),
            )))
        }
    };
    Ok(())
}

/// `[analysis]`: `k` fixes the cluster count; without it, `k_min` and
/// `k_max` bound the silhouette sweep.
fn analysis(c: &mut impl Codec, v: &mut AnalysisSpec) -> Result<(), ScenarioError> {
    c.opt("k", &mut v.k)?;
    let mut k_min = v.k.is_none().then_some(v.k_min);
    let mut k_max = v.k.is_none().then_some(v.k_max);
    c.opt("k_min", &mut k_min)?;
    c.opt("k_max", &mut k_max)?;
    if v.k.is_some() && (k_min.is_some() || k_max.is_some()) {
        return Err(ScenarioError::Invalid(format!(
            "`{}` fixes the cluster count; it cannot be combined with `{}`/`{}`",
            c.path("k"),
            c.path("k_min"),
            c.path("k_max"),
        )));
    }
    v.k_min = k_min.unwrap_or(v.k_min);
    v.k_max = k_max.unwrap_or(v.k_max);
    c.key("cadence", &mut v.cadence)?;
    c.word("source", &SOURCES, &mut v.source)
}

/// `[output]`.
fn output(c: &mut impl Codec, v: &mut OutputSpec) -> Result<(), ScenarioError> {
    c.key("track_every", &mut v.track_every)?;
    c.key("recent_window", &mut v.recent_window)
}

#[cfg(test)]
mod tests {
    use dagfl_core::{
        ComputeProfile, DelayModel, Normalization, PublishGate, StaleTipPolicy, TipSelector,
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
            let value = v.to_value();
            let Value::Number(s) = &value else {
                panic!("{value:?} is not a number");
            };
            assert!(s.contains('.') || s.contains('e'), "{s} looks integral");
            let back = f32::from_value(&value).map(f32::to_bits);
            assert_eq!(back, Some(v.to_bits()), "{s}");
        }
        assert_eq!(2.0f64.to_value(), Value::Number("2.0".into()));
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
        // k together with a sweep bound is ambiguous — parse error.
        let err = Scenario::from_toml(
            "name = \"x\"\n[dataset]\nkind = \"fmnist\"\n[analysis]\nk = 3\nk_min = 2\n",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
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
        assert!(matches!(zero_k.validate(), Err(ScenarioError::Invalid(_))));
        let inverted = analyzed(AnalysisSpec {
            k_min: 5,
            k_max: 2,
            ..AnalysisSpec::default()
        });
        assert!(matches!(
            inverted.validate(),
            Err(ScenarioError::Invalid(_))
        ));
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
        for (dataset, message) in [
            (fmnist(4, 5), "dataset.samples (5) must be at least 10"),
            (
                DatasetSpec::FmnistStreamed {
                    clients: 2,
                    samples: 60,
                    relaxation: 0.0,
                    seed: 1,
                },
                "dataset.clients (2) must be at least 3, one per cluster",
            ),
            (
                DatasetSpec::FmnistAuthor {
                    clients: 2,
                    samples: 9,
                    seed: 1,
                },
                "dataset.samples (9) must be at least 10",
            ),
            (
                DatasetSpec::Poets {
                    clients_per_language: 1,
                    samples: 9,
                    seq_len: 4,
                    seed: 1,
                },
                "dataset.samples (9) must be at least 10",
            ),
            (
                DatasetSpec::Cifar {
                    clients: 200,
                    samples: 40,
                    seed: 1,
                },
                "dataset clients × samples (200 × 40) exceeds the pool of 6000 samples",
            ),
            (
                DatasetSpec::Cifar {
                    clients: usize::MAX,
                    samples: 2,
                    seed: 1,
                },
                "exceeds the pool of 6000 samples",
            ),
            (
                DatasetSpec::FedProx {
                    clients: 3,
                    min_samples: 5,
                    max_samples: 50,
                    seed: 1,
                },
                "dataset.min_samples (5) must be at least 10",
            ),
        ] {
            let err = error(dataset.clone());
            assert!(err.contains(message), "{dataset:?}: {err}");
        }
        // Inputs another check already rejects keep that check's error.
        let err = Scenario::new("sizes", fmnist(2, 60))
            .with_model(ModelSpec::Linear)
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
        assert!(err.contains("dataset.relaxation (1.5)"), "{err}");
        assert!(error(fmnist(0, 5)).contains("at least 1"));
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
