//! The declarative experiment specification: [`Scenario`] and its parts.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;

use dagfl_analysis::{AnalysisConfig, AnalysisSource, KSelection};
use dagfl_core::{
    AsyncConfig, ComputeProfile, CoreError, CrashWindow, DagConfig, DelayModel, FaultPlan,
    ModelFactory, Normalization, PartitionWindow, PublishGate, StaleTipPolicy, TipSelector,
};
use dagfl_datasets::{
    cifar100_like, fedprox_synthetic, fmnist_by_author, fmnist_clustered,
    fmnist_clustered_streamed, poets, Cifar100Config, FedProxConfig, FederatedDataset,
    FmnistConfig, PoetsConfig, POETS_VOCAB,
};
use dagfl_nn::{char_rnn, Dense, Model, Relu, Sequential};

use crate::text::{format_f32, format_f64, Document, Table, TextError, Value};

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

/// Worker threads used to render streamed datasets. Generation is
/// bit-identical for any thread count, so the machine's core count is
/// purely a wall-clock choice (capped: rendering saturates memory
/// bandwidth long before 8 threads).
fn rendering_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

impl DatasetSpec {
    /// The `kind` word used in scenario files.
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetSpec::Fmnist { .. } => "fmnist",
            DatasetSpec::FmnistStreamed { .. } => "fmnist-streamed",
            DatasetSpec::FmnistAuthor { .. } => "fmnist-author",
            DatasetSpec::Poets { .. } => "poets",
            DatasetSpec::Cifar { .. } => "cifar",
            DatasetSpec::FedProx { .. } => "fedprox",
        }
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
                ..FmnistConfig::default()
            }),
            DatasetSpec::FmnistStreamed {
                clients,
                samples,
                relaxation,
                seed,
            } => fmnist_clustered_streamed(
                &FmnistConfig {
                    num_clients: clients,
                    samples_per_client: samples,
                    relaxation,
                    seed,
                    ..FmnistConfig::default()
                },
                rendering_threads(),
            ),
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
                ..Cifar100Config::default()
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
                ..FedProxConfig::default()
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
        match self {
            ModelSpec::Mlp { .. } => "mlp",
            ModelSpec::Linear => "linear",
            ModelSpec::CharRnn { .. } => "char-rnn",
        }
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

/// How the gossip of an asynchronous execution travels between
/// clients (`transport = ...` in scenario files).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportSpec {
    /// Deterministic in-process delivery: messages travel through
    /// [`dagfl_core::LoopbackTransport`] with sampled link delays.
    #[default]
    Loopback,
    /// Real TCP gossip between `dagfl peer` processes. The scenario
    /// runner refuses to execute these in-process — the spec exists so
    /// one file can describe a networked experiment end to end.
    Tcp {
        /// Tracker address (`host:port`) the peers register with.
        tracker: String,
        /// Gossip listen port of the first peer (0 = ephemeral;
        /// subsequent peers use consecutive ports).
        port: u16,
    },
}

impl TransportSpec {
    /// The `transport` word used in scenario files.
    pub fn mode(&self) -> &'static str {
        match self {
            TransportSpec::Loopback => "loopback",
            TransportSpec::Tcp { .. } => "tcp",
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
    /// [`dagfl_core::AsyncSimulation`] over the chosen transport.
    Async {
        /// The event-driven simulation's configuration.
        config: AsyncConfig,
        /// How inter-client messages travel.
        transport: TransportSpec,
    },
}

impl ExecutionSpec {
    /// The `mode` word used in scenario files.
    pub fn mode(&self) -> &'static str {
        match self {
            ExecutionSpec::Rounds(_) => "rounds",
            ExecutionSpec::Async { .. } => "async",
        }
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

/// A flipped-label poisoning attack rider (§5.3.4): train clean, flip
/// labels `class_a ↔ class_b` for a fraction of clients, keep training
/// and measure containment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// Fraction of clients whose labels are flipped.
    pub fraction: f64,
    /// Clean warm-up rounds before the attack.
    pub clean_rounds: usize,
    /// Rounds after the labels are flipped.
    pub attack_rounds: usize,
    /// First flipped class.
    pub class_a: usize,
    /// Second flipped class.
    pub class_b: usize,
    /// Measure the poisoning metrics every this many attack rounds.
    pub measure_every: usize,
}

impl Default for AttackSpec {
    fn default() -> Self {
        Self {
            fraction: 0.2,
            clean_rounds: 100,
            attack_rounds: 100,
            class_a: 3,
            class_b: 8,
            measure_every: 5,
        }
    }
}

/// Output options: optional CSV series and analysis cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Write the per-round (or per-activation) series as
    /// `<results dir>/<csv>.csv` (`DAGFL_RESULTS`, default `results/`).
    pub csv: Option<String>,
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
            csv: None,
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
    /// Optional flipped-label poisoning attack (rounds mode only).
    pub attack: Option<AttackSpec>,
    /// Optional deterministic fault injection (async loopback only).
    pub faults: Option<FaultSpec>,
    /// Optional specialization analytics (rounds mode without attack).
    pub analysis: Option<AnalysisSpec>,
    /// Output options.
    pub output: OutputSpec,
}

/// Deterministic fault-injection settings: the scenario-file projection
/// of [`dagfl_core::FaultPlan`], restricted to a single partition
/// window and a single crash window so it fits the flat `[faults]`
/// TOML section. Probabilities default to 0 and `delay_boost` to 1, so
/// an empty `[faults]` section is inert.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability that a gossiped envelope is silently lost.
    pub drop: f64,
    /// Probability that an envelope is delivered twice.
    pub duplicate: f64,
    /// Probability that an envelope is held behind later sends.
    pub reorder: f64,
    /// Probability of an extra latency spike without reordering.
    pub extra_delay: f64,
    /// Magnitude (logical time) of the delay-based faults.
    pub delay_boost: f64,
    /// Optional partition window as `(start, heal, split)`: peers
    /// `0..split` are cut off from `split..n` while it is open.
    pub partition: Option<(f64, f64, usize)>,
    /// Optional crash window as `(peer, at, restart)`; an absent
    /// `crash_restart` key means the peer never comes back.
    pub crash: Option<(usize, f64, f64)>,
}

/// Specialization-analytics settings: the scenario-file projection of
/// [`dagfl_analysis::AnalysisConfig`] plus a cadence. An empty
/// `[analysis]` section enables the default auto-k analysis over both
/// views at the final round only.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSpec {
    /// Master toggle, so a checked-in `[analysis]` section can be
    /// switched off without deleting it.
    pub enabled: bool,
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
            enabled: true,
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

impl FaultSpec {
    /// Expands into the core [`FaultPlan`] consumed by
    /// [`dagfl_core::FaultyTransport`].
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            drop: self.drop,
            duplicate: self.duplicate,
            reorder: self.reorder,
            extra_delay: self.extra_delay,
            delay_boost: self.delay_boost,
            partitions: self
                .partition
                .iter()
                .map(|&(start, heal, split)| PartitionWindow { start, heal, split })
                .collect(),
            crashes: self
                .crash
                .iter()
                .map(|&(peer, at, restart)| CrashWindow { peer, at, restart })
                .collect(),
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

    /// Switches to asynchronous execution with the given configuration
    /// over the loopback transport (builder style).
    pub fn asynchronous(mut self, config: AsyncConfig) -> Self {
        self.execution = ExecutionSpec::Async {
            config,
            transport: TransportSpec::default(),
        };
        self
    }

    /// Replaces the async transport (builder style; a no-op in rounds
    /// mode, which has no message transport).
    pub fn with_transport(mut self, spec: TransportSpec) -> Self {
        if let ExecutionSpec::Async { transport, .. } = &mut self.execution {
            *transport = spec;
        }
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

    /// Sets the tip selector.
    pub fn with_selector(mut self, selector: TipSelector) -> Self {
        self.execution.dag_mut().tip_selector = selector;
        self
    }

    /// Sets one master seed for both the dataset generator and the
    /// simulation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.dataset.set_seed(seed);
        self.execution.dag_mut().seed = seed;
        self
    }

    /// Attaches a poisoning attack (builder style; rounds mode only).
    pub fn with_attack(mut self, attack: AttackSpec) -> Self {
        self.attack = Some(attack);
        self
    }

    /// Attaches deterministic fault injection (builder style; async
    /// loopback only).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches specialization analytics (builder style; rounds mode
    /// without attack only).
    pub fn with_analysis(mut self, analysis: AnalysisSpec) -> Self {
        self.analysis = Some(analysis);
        self
    }

    /// Requests a CSV series under the results directory (builder
    /// style).
    pub fn with_csv(mut self, name: impl Into<String>) -> Self {
        self.output.csv = Some(name.into());
        self
    }

    /// Records specialization metrics every `every` rounds (builder
    /// style; rounds mode without attack only).
    pub fn tracking(mut self, every: usize) -> Self {
        self.output.track_every = every;
        self
    }

    /// Sets the recent-accuracy window of the report (builder style).
    pub fn with_recent_window(mut self, window: usize) -> Self {
        self.output.recent_window = window;
        self
    }

    /// Checks the complete spec: dataset parameters, model/dataset
    /// compatibility, the embedded core configuration (via
    /// [`DagConfig::validate`] / [`AsyncConfig::validate`]), attack
    /// consistency and output options.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
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
                dag.validate()?;
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
            ExecutionSpec::Async { config, transport } => {
                config.validate()?;
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
                if self.analysis.as_ref().is_some_and(|a| a.enabled) {
                    return Err(ScenarioError::Invalid(
                        "specialization analytics require rounds mode".into(),
                    ));
                }
                if let TransportSpec::Tcp { tracker, .. } = transport {
                    if !tracker.contains(':') || tracker.trim().is_empty() {
                        return Err(ScenarioError::Invalid(format!(
                            "transport.tracker (`{tracker}`) must be a host:port address"
                        )));
                    }
                }
                if let Some(faults) = &self.faults {
                    if !matches!(transport, TransportSpec::Loopback) {
                        return Err(ScenarioError::Invalid(
                            "[faults] applies to the loopback transport; networked peers \
                             experience real faults instead"
                                .into(),
                        ));
                    }
                    faults.to_plan().validate().map_err(ScenarioError::Core)?;
                }
            }
        }
        if let Some(attack) = &self.attack {
            if !(attack.fraction.is_finite() && (0.0..=1.0).contains(&attack.fraction)) {
                return Err(ScenarioError::Invalid(format!(
                    "attack.fraction ({}) must be in [0, 1]",
                    attack.fraction
                )));
            }
            if attack.attack_rounds == 0 || attack.measure_every == 0 {
                return Err(ScenarioError::Invalid(
                    "attack.attack_rounds and attack.measure_every must be at least 1".into(),
                ));
            }
            let classes = self.dataset.num_classes();
            if attack.class_a == attack.class_b
                || attack.class_a >= classes
                || attack.class_b >= classes
            {
                return Err(ScenarioError::Invalid(format!(
                    "attack classes ({}, {}) must be distinct and below {classes}",
                    attack.class_a, attack.class_b
                )));
            }
            if self.output.track_every > 0 {
                return Err(ScenarioError::Invalid(
                    "specialization tracking is not supported together with an attack".into(),
                ));
            }
            if self.analysis.as_ref().is_some_and(|a| a.enabled) {
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
        Ok(())
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
        doc.root.set("name", Value::Str(self.name.clone()));
        write_dataset(doc.section_mut("dataset"), &self.dataset);
        write_model(doc.section_mut("model"), &self.model);
        write_execution(doc.section_mut("execution"), &self.execution);
        if let Some(attack) = &self.attack {
            write_attack(doc.section_mut("attack"), attack);
        }
        if let Some(faults) = &self.faults {
            write_faults(doc.section_mut("faults"), faults);
        }
        if let Some(analysis) = &self.analysis {
            write_analysis(doc.section_mut("analysis"), analysis);
        }
        write_output(doc.section_mut("output"), &self.output);
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
        let root = Reader::new("", Some(&doc.root));
        let name = root.req_str("name")?;
        root.finish()?;
        let dataset =
            read_section(doc, "dataset", read_dataset)?.ok_or(ScenarioError::MissingKey {
                key: "dataset.kind".into(),
            })?;
        // Start from the builder's defaults for this dataset; a section
        // that is present replaces its part.
        let mut scenario = Scenario::new(name, dataset);
        if let Some(model) = read_section(doc, "model", read_model)? {
            scenario.model = model;
        }
        let read_execution = |r: &Reader<'_>| read_execution(r, &scenario.dataset);
        if let Some(execution) = read_section(doc, "execution", read_execution)? {
            scenario.execution = execution;
        }
        scenario.attack = read_section(doc, "attack", read_attack)?;
        scenario.faults = read_section(doc, "faults", read_faults)?;
        scenario.analysis = read_section(doc, "analysis", read_analysis)?;
        if let Some(output) = read_section(doc, "output", read_output)? {
            scenario.output = output;
        }
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

    /// Writes the scenario as a TOML file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] on write failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| ScenarioError::Io(format!("creating {}: {e}", parent.display())))?;
        }
        std::fs::write(path, self.to_toml())
            .map_err(|e| ScenarioError::Io(format!("writing {}: {e}", path.display())))
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn usize_value(v: usize) -> Value {
    Value::Number(v.to_string())
}

fn u64_value(v: u64) -> Value {
    Value::Number(v.to_string())
}

fn f32_value(v: f32) -> Value {
    Value::Number(format_f32(v))
}

fn f64_value(v: f64) -> Value {
    Value::Number(format_f64(v))
}

fn write_dataset(table: &mut Table, dataset: &DatasetSpec) {
    table.set("kind", Value::Str(dataset.kind().into()));
    match *dataset {
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
            table.set("clients", usize_value(clients));
            table.set("samples", usize_value(samples));
            table.set("relaxation", f32_value(relaxation));
            table.set("seed", u64_value(seed));
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
            table.set("clients", usize_value(clients));
            table.set("samples", usize_value(samples));
            table.set("seed", u64_value(seed));
        }
        DatasetSpec::Poets {
            clients_per_language,
            samples,
            seq_len,
            seed,
        } => {
            table.set("clients_per_language", usize_value(clients_per_language));
            table.set("samples", usize_value(samples));
            table.set("seq_len", usize_value(seq_len));
            table.set("seed", u64_value(seed));
        }
        DatasetSpec::FedProx {
            clients,
            min_samples,
            max_samples,
            seed,
        } => {
            table.set("clients", usize_value(clients));
            table.set("min_samples", usize_value(min_samples));
            table.set("max_samples", usize_value(max_samples));
            table.set("seed", u64_value(seed));
        }
    }
}

fn write_model(table: &mut Table, model: &ModelSpec) {
    table.set("kind", Value::Str(model.kind().into()));
    match model {
        ModelSpec::Mlp { hidden } => {
            table.set(
                "hidden",
                Value::NumberList(hidden.iter().map(|h| h.to_string()).collect()),
            );
        }
        ModelSpec::Linear => {}
        ModelSpec::CharRnn { embed, hidden } => {
            table.set("embed", usize_value(*embed));
            table.set("hidden", usize_value(*hidden));
        }
    }
}

fn write_dag(table: &mut Table, dag: &DagConfig) {
    table.set("rounds", usize_value(dag.rounds));
    table.set("clients_per_round", usize_value(dag.clients_per_round));
    table.set("local_epochs", usize_value(dag.local_epochs));
    table.set("local_batches", usize_value(dag.local_batches));
    table.set("batch_size", usize_value(dag.batch_size));
    table.set("learning_rate", f32_value(dag.learning_rate));
    match dag.tip_selector {
        TipSelector::Accuracy {
            alpha,
            normalization,
        } => {
            table.set("selector", Value::Str("accuracy".into()));
            table.set("alpha", f32_value(alpha));
            table.set(
                "normalization",
                Value::Str(
                    match normalization {
                        Normalization::Simple => "simple",
                        Normalization::Dynamic => "dynamic",
                    }
                    .into(),
                ),
            );
        }
        TipSelector::Random => {
            table.set("selector", Value::Str("random".into()));
        }
        TipSelector::CumulativeWeight { alpha } => {
            table.set("selector", Value::Str("cumulative".into()));
            table.set("alpha", f32_value(alpha));
        }
    }
    table.set(
        "walk_depth_min",
        Value::Number(dag.walk_depth.0.to_string()),
    );
    table.set(
        "walk_depth_max",
        Value::Number(dag.walk_depth.1.to_string()),
    );
    if let Some(margin) = dag.walk_stop_margin {
        table.set("stop_margin", f32_value(margin));
    }
    table.set(
        "publish_gate",
        Value::Str(
            match dag.publish_gate {
                PublishGate::AveragedReference => "averaged",
                PublishGate::BestParent => "best-parent",
                PublishGate::Always => "always",
            }
            .into(),
        ),
    );
    table.set("frozen_prefix", usize_value(dag.frozen_prefix));
    table.set("publication_dropout", f32_value(dag.publication_dropout));
    table.set("seed", u64_value(dag.seed));
    table.set("parallel", Value::Bool(dag.parallel));
}

fn write_execution(table: &mut Table, execution: &ExecutionSpec) {
    table.set("mode", Value::Str(execution.mode().into()));
    write_dag(table, execution.dag());
    if let ExecutionSpec::Async { config, transport } = execution {
        table.set("transport", Value::Str(transport.mode().into()));
        if let TransportSpec::Tcp { tracker, port } = transport {
            table.set("tracker", Value::Str(tracker.clone()));
            table.set("port", Value::Number(port.to_string()));
        }
        table.set("activations", usize_value(config.total_activations));
        table.set("interarrival", f64_value(config.mean_interarrival));
        table.set("train_time", f64_value(config.train_time));
        if config.gossip_fanout != 0 {
            table.set("fanout", usize_value(config.gossip_fanout));
        }
        if config.workers != 1 {
            table.set("workers", usize_value(config.workers));
        }
        table.set(
            "stale_policy",
            Value::Str(
                match config.stale_policy {
                    StaleTipPolicy::PublishAnyway => "publish",
                    StaleTipPolicy::Reselect => "reselect",
                    StaleTipPolicy::Discard => "discard",
                }
                .into(),
            ),
        );
        match config.delay {
            DelayModel::Constant { delay } => {
                table.set("delay_model", Value::Str("constant".into()));
                table.set("delay", f64_value(delay));
            }
            DelayModel::UniformJitter { base, jitter } => {
                table.set("delay_model", Value::Str("jitter".into()));
                table.set("delay", f64_value(base));
                table.set("jitter", f64_value(jitter));
            }
            DelayModel::Cohorts {
                slow_fraction,
                fast,
                slow,
                jitter,
            } => {
                table.set("delay_model", Value::Str("cohorts".into()));
                table.set("delay", f64_value(fast));
                table.set("slow_delay", f64_value(slow));
                table.set("slow_fraction", f64_value(slow_fraction));
                table.set("jitter", f64_value(jitter));
            }
        }
        match config.compute {
            ComputeProfile::Uniform => {
                table.set("compute", Value::Str("uniform".into()));
            }
            ComputeProfile::TwoSpeed {
                slow_fraction,
                slowdown,
            } => {
                table.set("compute", Value::Str("two-speed".into()));
                table.set("compute_slow_fraction", f64_value(slow_fraction));
                table.set("slowdown", f64_value(slowdown));
            }
            ComputeProfile::MatchNetworkCohort { slowdown } => {
                table.set("compute", Value::Str("match-network".into()));
                table.set("slowdown", f64_value(slowdown));
            }
        }
    }
}

fn write_faults(table: &mut Table, faults: &FaultSpec) {
    table.set("drop", f64_value(faults.drop));
    table.set("duplicate", f64_value(faults.duplicate));
    table.set("reorder", f64_value(faults.reorder));
    table.set("extra_delay", f64_value(faults.extra_delay));
    table.set("delay_boost", f64_value(faults.delay_boost));
    if let Some((start, heal, split)) = faults.partition {
        table.set("partition_start", f64_value(start));
        table.set("partition_heal", f64_value(heal));
        table.set("partition_split", usize_value(split));
    }
    if let Some((peer, at, restart)) = faults.crash {
        table.set("crash_peer", usize_value(peer));
        table.set("crash_at", f64_value(at));
        if restart.is_finite() {
            table.set("crash_restart", f64_value(restart));
        }
    }
}

fn write_analysis(table: &mut Table, analysis: &AnalysisSpec) {
    if !analysis.enabled {
        table.set("enabled", Value::Bool(false));
    }
    if let Some(k) = analysis.k {
        table.set("k", usize_value(k));
    } else {
        table.set("k_min", usize_value(analysis.k_min));
        table.set("k_max", usize_value(analysis.k_max));
    }
    table.set("cadence", usize_value(analysis.cadence));
    table.set("source", Value::Str(analysis.source.as_str().into()));
}

fn write_attack(table: &mut Table, attack: &AttackSpec) {
    table.set("fraction", f64_value(attack.fraction));
    table.set("clean_rounds", usize_value(attack.clean_rounds));
    table.set("attack_rounds", usize_value(attack.attack_rounds));
    table.set("class_a", usize_value(attack.class_a));
    table.set("class_b", usize_value(attack.class_b));
    table.set("measure_every", usize_value(attack.measure_every));
}

fn write_output(table: &mut Table, output: &OutputSpec) {
    if let Some(csv) = &output.csv {
        table.set("csv", Value::Str(csv.clone()));
    }
    table.set("track_every", usize_value(output.track_every));
    table.set("recent_window", usize_value(output.recent_window));
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

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

/// Reads one section, if present, and rejects the keys `read` left
/// unconsumed.
fn read_section<T>(
    doc: &Document,
    name: &str,
    read: impl FnOnce(&Reader<'_>) -> Result<T, ScenarioError>,
) -> Result<Option<T>, ScenarioError> {
    let Some(table) = doc.section(name) else {
        return Ok(None);
    };
    let reader = Reader::new(name, Some(table));
    let value = read(&reader)?;
    reader.finish()?;
    Ok(Some(value))
}

/// A typed view over one section that tracks which keys were consumed,
/// so leftovers are reported as unknown keys (shared with the sweep
/// parser in `sweep.rs`).
pub(crate) struct Reader<'a> {
    section: &'a str,
    table: Option<&'a Table>,
    used: std::cell::RefCell<BTreeSet<String>>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(section: &'a str, table: Option<&'a Table>) -> Self {
        Self {
            section,
            table,
            used: std::cell::RefCell::new(BTreeSet::new()),
        }
    }

    pub(crate) fn path(&self, key: &str) -> String {
        if self.section.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.section)
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&'a Value> {
        self.used.borrow_mut().insert(key.to_string());
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

    pub(crate) fn str(&self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(self.invalid(key, other, "a quoted string")),
        }
    }

    pub(crate) fn req_str(&self, key: &str) -> Result<String, ScenarioError> {
        self.str(key)?.ok_or_else(|| ScenarioError::MissingKey {
            key: self.path(key),
        })
    }

    pub(crate) fn number<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &str,
    ) -> Result<Option<T>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(value @ Value::Number(raw)) => match raw.parse::<T>() {
                Ok(v) => Ok(Some(v)),
                Err(_) => Err(self.invalid(key, value, expected)),
            },
            Some(other) => Err(self.invalid(key, other, expected)),
        }
    }

    pub(crate) fn usize_or(&self, key: &str, default: usize) -> Result<usize, ScenarioError> {
        Ok(self
            .number::<usize>(key, "a non-negative integer")?
            .unwrap_or(default))
    }

    pub(crate) fn u64_or(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        Ok(self
            .number::<u64>(key, "a non-negative integer")?
            .unwrap_or(default))
    }

    pub(crate) fn u32_or(&self, key: &str, default: u32) -> Result<u32, ScenarioError> {
        Ok(self
            .number::<u32>(key, "a non-negative integer")?
            .unwrap_or(default))
    }

    pub(crate) fn f32_or(&self, key: &str, default: f32) -> Result<f32, ScenarioError> {
        Ok(self.number::<f32>(key, "a number")?.unwrap_or(default))
    }

    pub(crate) fn f32_opt(&self, key: &str) -> Result<Option<f32>, ScenarioError> {
        self.number::<f32>(key, "a number")
    }

    pub(crate) fn f64_or(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        Ok(self.number::<f64>(key, "a number")?.unwrap_or(default))
    }

    pub(crate) fn bool_or(&self, key: &str, default: bool) -> Result<bool, ScenarioError> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::Bool(b)) => Ok(*b),
            Some(other) => Err(self.invalid(key, other, "true or false")),
        }
    }

    pub(crate) fn usize_list(&self, key: &str) -> Result<Option<Vec<usize>>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(value @ Value::NumberList(items)) => items
                .iter()
                .map(|raw| {
                    raw.parse::<usize>()
                        .map_err(|_| self.invalid(key, value, "an array of non-negative integers"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(other) => Err(self.invalid(key, other, "an array of non-negative integers")),
        }
    }

    /// Errors on any key the schema never asked for.
    pub(crate) fn finish(&self) -> Result<(), ScenarioError> {
        if let Some(table) = self.table {
            let used = self.used.borrow();
            for (key, _) in table.iter() {
                if !used.contains(key) {
                    return Err(ScenarioError::UnknownKey {
                        key: self.path(key),
                    });
                }
            }
        }
        Ok(())
    }
}

fn read_dataset(reader: &Reader<'_>) -> Result<DatasetSpec, ScenarioError> {
    let kind = reader.req_str("kind")?;
    let seed = reader.u64_or("seed", 42)?;
    match kind.as_str() {
        "fmnist" => Ok(DatasetSpec::Fmnist {
            clients: reader.usize_or("clients", 15)?,
            samples: reader.usize_or("samples", 60)?,
            relaxation: reader.f32_or("relaxation", 0.0)?,
            seed,
        }),
        "fmnist-streamed" => Ok(DatasetSpec::FmnistStreamed {
            clients: reader.usize_or("clients", 15)?,
            samples: reader.usize_or("samples", 60)?,
            relaxation: reader.f32_or("relaxation", 0.0)?,
            seed,
        }),
        "fmnist-author" => Ok(DatasetSpec::FmnistAuthor {
            clients: reader.usize_or("clients", 12)?,
            samples: reader.usize_or("samples", 80)?,
            seed,
        }),
        "poets" => Ok(DatasetSpec::Poets {
            clients_per_language: reader.usize_or("clients_per_language", 6)?,
            samples: reader.usize_or("samples", 400)?,
            seq_len: reader.usize_or("seq_len", 12)?,
            seed,
        }),
        "cifar" => Ok(DatasetSpec::Cifar {
            clients: reader.usize_or("clients", 30)?,
            samples: reader.usize_or("samples", 60)?,
            seed,
        }),
        "fedprox" => Ok(DatasetSpec::FedProx {
            clients: reader.usize_or("clients", 30)?,
            min_samples: reader.usize_or("min_samples", 50)?,
            max_samples: reader.usize_or("max_samples", 200)?,
            seed,
        }),
        other => Err(ScenarioError::InvalidValue {
            key: "dataset.kind".into(),
            value: other.into(),
            expected: "one of fmnist, fmnist-streamed, fmnist-author, poets, cifar, fedprox".into(),
        }),
    }
}

fn read_model(reader: &Reader<'_>) -> Result<ModelSpec, ScenarioError> {
    let kind = reader.req_str("kind")?;
    match kind.as_str() {
        "mlp" => Ok(ModelSpec::Mlp {
            hidden: reader.usize_list("hidden")?.unwrap_or_else(|| vec![64]),
        }),
        "linear" => Ok(ModelSpec::Linear),
        "char-rnn" => Ok(ModelSpec::CharRnn {
            embed: reader.usize_or("embed", 8)?,
            hidden: reader.usize_or("hidden", 32)?,
        }),
        other => Err(ScenarioError::InvalidValue {
            key: "model.kind".into(),
            value: other.into(),
            expected: "one of mlp, linear, char-rnn".into(),
        }),
    }
}

fn read_dag(reader: &Reader<'_>, dataset: &DatasetSpec) -> Result<DagConfig, ScenarioError> {
    let defaults = DagConfig::default();
    // `alpha` and `normalization` exist only under the selectors that
    // have them, so elsewhere they are unknown keys, not dropped values.
    let alpha = || reader.f32_or("alpha", 10.0);
    let tip_selector = match reader.str("selector")?.as_deref() {
        None | Some("accuracy") => TipSelector::Accuracy {
            alpha: alpha()?,
            normalization: match reader.str("normalization")?.as_deref() {
                None | Some("simple") => Normalization::Simple,
                Some("dynamic") => Normalization::Dynamic,
                Some(other) => {
                    return Err(ScenarioError::InvalidValue {
                        key: reader.path("normalization"),
                        value: other.into(),
                        expected: "simple or dynamic".into(),
                    })
                }
            },
        },
        Some("random") => TipSelector::Random,
        Some("cumulative") => TipSelector::CumulativeWeight { alpha: alpha()? },
        Some(other) => {
            return Err(ScenarioError::InvalidValue {
                key: reader.path("selector"),
                value: other.into(),
                expected: "accuracy, random or cumulative".into(),
            })
        }
    };
    let publish_gate = match reader.str("publish_gate")?.as_deref() {
        None | Some("averaged") => PublishGate::AveragedReference,
        Some("best-parent") => PublishGate::BestParent,
        Some("always") => PublishGate::Always,
        Some(other) => {
            return Err(ScenarioError::InvalidValue {
                key: reader.path("publish_gate"),
                value: other.into(),
                expected: "averaged, best-parent or always".into(),
            })
        }
    };
    Ok(DagConfig {
        rounds: reader.usize_or("rounds", defaults.rounds)?,
        clients_per_round: reader.usize_or(
            "clients_per_round",
            defaults.clients_per_round.min(dataset.num_clients().max(1)),
        )?,
        local_epochs: reader.usize_or("local_epochs", defaults.local_epochs)?,
        local_batches: reader.usize_or("local_batches", defaults.local_batches)?,
        batch_size: reader.usize_or("batch_size", defaults.batch_size)?,
        learning_rate: reader.f32_or("learning_rate", defaults.learning_rate)?,
        tip_selector,
        walk_depth: (
            reader.u32_or("walk_depth_min", defaults.walk_depth.0)?,
            reader.u32_or("walk_depth_max", defaults.walk_depth.1)?,
        ),
        walk_stop_margin: reader.f32_opt("stop_margin")?,
        publish_gate,
        frozen_prefix: reader.usize_or("frozen_prefix", defaults.frozen_prefix)?,
        publication_dropout: reader.f32_or("publication_dropout", defaults.publication_dropout)?,
        seed: reader.u64_or("seed", defaults.seed)?,
        parallel: reader.bool_or("parallel", defaults.parallel)?,
    })
}

fn read_faults(reader: &Reader<'_>) -> Result<FaultSpec, ScenarioError> {
    let partition = match (
        reader.number::<f64>("partition_start", "a number")?,
        reader.number::<f64>("partition_heal", "a number")?,
        reader.number::<usize>("partition_split", "a non-negative integer")?,
    ) {
        (None, None, None) => None,
        (Some(start), Some(heal), Some(split)) => Some((start, heal, split)),
        _ => {
            return Err(ScenarioError::Invalid(format!(
                "`{}`, `{}` and `{}` must be given together",
                reader.path("partition_start"),
                reader.path("partition_heal"),
                reader.path("partition_split"),
            )))
        }
    };
    let crash = match (
        reader.number::<usize>("crash_peer", "a non-negative integer")?,
        reader.number::<f64>("crash_at", "a number")?,
        reader.number::<f64>("crash_restart", "a number")?,
    ) {
        (None, None, None) => None,
        (Some(peer), Some(at), restart) => Some((peer, at, restart.unwrap_or(f64::INFINITY))),
        _ => {
            return Err(ScenarioError::Invalid(format!(
                "`{}` and `{}` must be given together",
                reader.path("crash_peer"),
                reader.path("crash_at"),
            )))
        }
    };
    Ok(FaultSpec {
        drop: reader.f64_or("drop", 0.0)?,
        duplicate: reader.f64_or("duplicate", 0.0)?,
        reorder: reader.f64_or("reorder", 0.0)?,
        extra_delay: reader.f64_or("extra_delay", 0.0)?,
        delay_boost: reader.f64_or("delay_boost", 1.0)?,
        partition,
        crash,
    })
}

fn read_execution(
    reader: &Reader<'_>,
    dataset: &DatasetSpec,
) -> Result<ExecutionSpec, ScenarioError> {
    let mode = reader.str("mode")?.unwrap_or_else(|| "rounds".into());
    let dag = read_dag(reader, dataset)?;
    match mode.as_str() {
        "rounds" => Ok(ExecutionSpec::Rounds(dag)),
        "async" => {
            let defaults = AsyncConfig::default();
            let stale_policy = match reader.str("stale_policy")?.as_deref() {
                None | Some("publish") => StaleTipPolicy::PublishAnyway,
                Some("reselect") => StaleTipPolicy::Reselect,
                Some("discard") => StaleTipPolicy::Discard,
                Some(other) => {
                    return Err(ScenarioError::InvalidValue {
                        key: reader.path("stale_policy"),
                        value: other.into(),
                        expected: "publish, reselect or discard".into(),
                    })
                }
            };
            let base = reader.f64_or("delay", 2.0)?;
            let jitter = || reader.f64_or("jitter", 0.0);
            let delay = match reader.str("delay_model")?.as_deref() {
                None | Some("constant") => DelayModel::Constant { delay: base },
                Some("jitter") => DelayModel::UniformJitter {
                    base,
                    jitter: jitter()?,
                },
                Some("cohorts") => DelayModel::Cohorts {
                    slow_fraction: reader.f64_or("slow_fraction", 0.3)?,
                    fast: base,
                    slow: reader.f64_or("slow_delay", 8.0)?,
                    jitter: jitter()?,
                },
                Some(other) => {
                    return Err(ScenarioError::InvalidValue {
                        key: reader.path("delay_model"),
                        value: other.into(),
                        expected: "constant, jitter or cohorts".into(),
                    })
                }
            };
            let compute = match reader.str("compute")?.as_deref() {
                None | Some("uniform") => ComputeProfile::Uniform,
                Some("two-speed") => ComputeProfile::TwoSpeed {
                    slow_fraction: reader.f64_or("compute_slow_fraction", 0.3)?,
                    slowdown: reader.f64_or("slowdown", 4.0)?,
                },
                Some("match-network") => ComputeProfile::MatchNetworkCohort {
                    slowdown: reader.f64_or("slowdown", 4.0)?,
                },
                Some(other) => {
                    return Err(ScenarioError::InvalidValue {
                        key: reader.path("compute"),
                        value: other.into(),
                        expected: "uniform, two-speed or match-network".into(),
                    })
                }
            };
            let transport = read_transport(reader)?;
            Ok(ExecutionSpec::Async {
                config: AsyncConfig {
                    dag,
                    total_activations: reader
                        .usize_or("activations", defaults.total_activations)?,
                    mean_interarrival: reader.f64_or("interarrival", defaults.mean_interarrival)?,
                    delay,
                    compute,
                    train_time: reader.f64_or("train_time", defaults.train_time)?,
                    stale_policy,
                    gossip_fanout: reader.usize_or("fanout", defaults.gossip_fanout)?,
                    workers: reader.usize_or("workers", defaults.workers)?,
                },
                transport,
            })
        }
        other => Err(ScenarioError::InvalidValue {
            key: "execution.mode".into(),
            value: other.into(),
            expected: "rounds or async".into(),
        }),
    }
}

/// Reads `transport` / `tracker` / `port` from an async execution
/// section. The tcp-only keys are rejected explicitly under loopback,
/// so a file that forgets `transport = "tcp"` fails with a pointed
/// message instead of a generic unknown-key error.
fn read_transport(reader: &Reader<'_>) -> Result<TransportSpec, ScenarioError> {
    let mode = reader.str("transport")?;
    let tracker = reader.str("tracker")?;
    let port: Option<u16> = reader.number("port", "a port number (0-65535)")?;
    match mode.as_deref() {
        None | Some("loopback") => {
            if tracker.is_some() || port.is_some() {
                return Err(ScenarioError::Invalid(format!(
                    "`{}` and `{}` are only valid with transport = \"tcp\"",
                    reader.path("tracker"),
                    reader.path("port"),
                )));
            }
            Ok(TransportSpec::Loopback)
        }
        Some("tcp") => Ok(TransportSpec::Tcp {
            tracker: tracker.ok_or_else(|| ScenarioError::MissingKey {
                key: reader.path("tracker"),
            })?,
            port: port.unwrap_or(0),
        }),
        Some(other) => Err(ScenarioError::InvalidValue {
            key: reader.path("transport"),
            value: other.into(),
            expected: "loopback or tcp".into(),
        }),
    }
}

fn read_attack(reader: &Reader<'_>) -> Result<AttackSpec, ScenarioError> {
    let defaults = AttackSpec::default();
    Ok(AttackSpec {
        fraction: reader.f64_or("fraction", defaults.fraction)?,
        clean_rounds: reader.usize_or("clean_rounds", defaults.clean_rounds)?,
        attack_rounds: reader.usize_or("attack_rounds", defaults.attack_rounds)?,
        class_a: reader.usize_or("class_a", defaults.class_a)?,
        class_b: reader.usize_or("class_b", defaults.class_b)?,
        measure_every: reader.usize_or("measure_every", defaults.measure_every)?,
    })
}

fn read_analysis(reader: &Reader<'_>) -> Result<AnalysisSpec, ScenarioError> {
    let defaults = AnalysisSpec::default();
    let k = reader.number::<usize>("k", "a positive integer")?;
    let k_min = reader.number::<usize>("k_min", "a positive integer")?;
    let k_max = reader.number::<usize>("k_max", "a positive integer")?;
    if k.is_some() && (k_min.is_some() || k_max.is_some()) {
        return Err(ScenarioError::Invalid(format!(
            "`{}` fixes the cluster count; it cannot be combined with `{}`/`{}`",
            reader.path("k"),
            reader.path("k_min"),
            reader.path("k_max"),
        )));
    }
    let source = match reader.str("source")?.as_deref() {
        None => defaults.source,
        Some(word) => AnalysisSource::parse(word).ok_or_else(|| ScenarioError::InvalidValue {
            key: reader.path("source"),
            value: word.into(),
            expected: "parameters, approvals or both".into(),
        })?,
    };
    Ok(AnalysisSpec {
        enabled: reader.bool_or("enabled", defaults.enabled)?,
        k,
        k_min: k_min.unwrap_or(defaults.k_min),
        k_max: k_max.unwrap_or(defaults.k_max),
        cadence: reader.usize_or("cadence", defaults.cadence)?,
        source,
    })
}

fn read_output(reader: &Reader<'_>) -> Result<OutputSpec, ScenarioError> {
    let defaults = OutputSpec::default();
    Ok(OutputSpec {
        csv: reader.str("csv")?,
        track_every: reader.usize_or("track_every", defaults.track_every)?,
        recent_window: reader.usize_or("recent_window", defaults.recent_window)?,
    })
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn round_trips_every_execution_shape() {
        let cases = vec![
            tiny(),
            tiny()
                .with_selector(TipSelector::Random)
                .with_csv("series")
                .tracking(2),
            tiny().with_selector(TipSelector::CumulativeWeight { alpha: 2.5 }),
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
            Scenario::new(
                "attack",
                DatasetSpec::FmnistAuthor {
                    clients: 6,
                    samples: 40,
                    seed: 5,
                },
            )
            .with_attack(AttackSpec {
                fraction: 0.25,
                clean_rounds: 3,
                attack_rounds: 4,
                class_a: 3,
                class_b: 8,
                measure_every: 2,
            }),
            tiny().asynchronous(AsyncConfig {
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
            }),
            tiny()
                .asynchronous(AsyncConfig::default())
                .with_transport(TransportSpec::Tcp {
                    tracker: "127.0.0.1:7878".into(),
                    port: 9000,
                }),
        ];
        for scenario in cases {
            let text = scenario.to_toml();
            let reparsed = Scenario::from_toml(&text)
                .unwrap_or_else(|e| panic!("reparsing `{}` failed: {e}\n{text}", scenario.name));
            assert_eq!(scenario, reparsed, "{text}");
        }
    }

    fn chaos_faults() -> FaultSpec {
        FaultSpec {
            drop: 0.2,
            duplicate: 0.1,
            reorder: 0.05,
            extra_delay: 0.1,
            delay_boost: 2.0,
            partition: Some((5.0, 9.0, 2)),
            crash: Some((3, 10.0, f64::INFINITY)),
        }
    }

    #[test]
    fn faults_round_trip_including_an_infinite_restart() {
        let s = tiny()
            .asynchronous(AsyncConfig {
                gossip_fanout: 2,
                ..AsyncConfig::default()
            })
            .with_faults(chaos_faults());
        let text = s.to_toml();
        assert!(text.contains("[faults]"), "{text}");
        assert!(text.contains("fanout = 2"), "{text}");
        // A never-restarting crash serializes by *omitting* the key.
        assert!(!text.contains("crash_restart"), "{text}");
        let reparsed = Scenario::from_toml(&text).unwrap();
        assert_eq!(s, reparsed, "{text}");
        assert!(s.validate().is_ok());
        // The expanded core plan carries both scripted windows.
        let plan = s.faults.as_ref().unwrap().to_plan();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].restart, f64::INFINITY);
    }

    #[test]
    fn empty_faults_section_parses_to_an_inert_plan() {
        let s = Scenario::from_toml(
            "name = \"x\"\n\n[dataset]\nkind = \"fmnist\"\n\n[execution]\nmode = \"async\"\n\n\
             [faults]\n",
        )
        .unwrap();
        let faults = s.faults.expect("section present");
        assert!(faults.to_plan().is_inert());
        assert_eq!(faults.delay_boost, 1.0);
    }

    #[test]
    fn faults_are_rejected_outside_async_loopback() {
        let rounds = tiny().with_faults(chaos_faults());
        assert!(matches!(rounds.validate(), Err(ScenarioError::Invalid(_))));
        let tcp = tiny()
            .asynchronous(AsyncConfig::default())
            .with_transport(TransportSpec::Tcp {
                tracker: "127.0.0.1:7878".into(),
                port: 0,
            })
            .with_faults(chaos_faults());
        assert!(matches!(tcp.validate(), Err(ScenarioError::Invalid(_))));
        let bad_prob = tiny()
            .asynchronous(AsyncConfig::default())
            .with_faults(FaultSpec {
                drop: 1.5,
                ..chaos_faults()
            });
        assert!(matches!(bad_prob.validate(), Err(ScenarioError::Core(_))));
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
        let auto = tiny().with_analysis(AnalysisSpec {
            cadence: 2,
            source: AnalysisSource::Parameters,
            ..AnalysisSpec::default()
        });
        let text = auto.to_toml();
        assert!(text.contains("[analysis]"), "{text}");
        assert!(text.contains("k_min = 2"), "{text}");
        assert!(!text.contains("\nk = "), "{text}");
        assert_eq!(Scenario::from_toml(&text).unwrap(), auto, "{text}");
        assert!(auto.validate().is_ok());

        let fixed = tiny().with_analysis(AnalysisSpec {
            k: Some(3),
            enabled: false,
            ..AnalysisSpec::default()
        });
        let text = fixed.to_toml();
        assert!(text.contains("k = 3"), "{text}");
        assert!(!text.contains("k_min"), "{text}");
        assert!(text.contains("enabled = false"), "{text}");
        assert_eq!(Scenario::from_toml(&text).unwrap(), fixed, "{text}");
    }

    #[test]
    fn empty_analysis_section_parses_to_the_defaults() {
        let s = Scenario::from_toml("name = \"x\"\n\n[dataset]\nkind = \"fmnist\"\n\n[analysis]\n")
            .unwrap();
        let analysis = s.analysis.clone().expect("section present");
        assert_eq!(analysis, AnalysisSpec::default());
        assert!(analysis.enabled);
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
        let zero_k = tiny().with_analysis(AnalysisSpec {
            k: Some(0),
            ..AnalysisSpec::default()
        });
        assert!(matches!(zero_k.validate(), Err(ScenarioError::Invalid(_))));
        let inverted = tiny().with_analysis(AnalysisSpec {
            k_min: 5,
            k_max: 2,
            ..AnalysisSpec::default()
        });
        assert!(matches!(
            inverted.validate(),
            Err(ScenarioError::Invalid(_))
        ));
        // Analytics need rounds mode without an attack — unless disabled.
        let asynchronous = tiny()
            .asynchronous(AsyncConfig::default())
            .with_analysis(AnalysisSpec::default());
        assert!(matches!(
            asynchronous.validate(),
            Err(ScenarioError::Invalid(_))
        ));
        let disabled = tiny()
            .asynchronous(AsyncConfig::default())
            .with_analysis(AnalysisSpec {
                enabled: false,
                ..AnalysisSpec::default()
            });
        assert!(disabled.validate().is_ok());
        let attacked = tiny()
            .with_attack(AttackSpec::default())
            .with_analysis(AnalysisSpec::default());
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
        let faulted = tiny()
            .asynchronous(AsyncConfig::default())
            .with_faults(FaultSpec {
                partition: None,
                ..chaos_faults()
            });
        let window = [
            ("faults.partition_start", "1"),
            ("faults.partition_heal", "2"),
            ("faults.partition_split", "3"),
        ];
        let partitioned = faulted.set_keys(&window).unwrap();
        assert_eq!(partitioned.faults.unwrap().partition, Some((1.0, 2.0, 3)));
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
        // Default is loopback.
        let s = Scenario::from_toml(base).unwrap();
        assert!(matches!(
            s.execution,
            ExecutionSpec::Async {
                transport: TransportSpec::Loopback,
                ..
            }
        ));
        // Explicit tcp with tracker and port.
        let s = Scenario::from_toml(&format!(
            "{base}transport = \"tcp\"\ntracker = \"127.0.0.1:7878\"\nport = 9000\n"
        ))
        .unwrap();
        match &s.execution {
            ExecutionSpec::Async {
                transport: TransportSpec::Tcp { tracker, port },
                ..
            } => {
                assert_eq!(tracker, "127.0.0.1:7878");
                assert_eq!(*port, 9000);
            }
            other => panic!("unexpected execution {other:?}"),
        }
        // tcp without a tracker is incomplete.
        let err = Scenario::from_toml(&format!("{base}transport = \"tcp\"\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::MissingKey { ref key } if key == "execution.tracker"));
        // tracker/port under loopback are explicitly inapplicable.
        let err =
            Scenario::from_toml(&format!("{base}tracker = \"127.0.0.1:7878\"\n")).unwrap_err();
        assert!(err.to_string().contains("tcp"), "{err}");
        // An unknown transport word names the alternatives.
        let err =
            Scenario::from_toml(&format!("{base}transport = \"carrier-pigeon\"\n")).unwrap_err();
        assert!(err.to_string().contains("loopback or tcp"), "{err}");
        // A tcp tracker that is not host:port fails validation.
        let s = tiny()
            .asynchronous(AsyncConfig::default())
            .with_transport(TransportSpec::Tcp {
                tracker: "localhost".into(),
                port: 0,
            });
        assert!(s.validate().unwrap_err().to_string().contains("host:port"));
        // Transport is irrelevant to (and ignored by) rounds mode.
        let s = tiny().with_transport(TransportSpec::Tcp {
            tracker: "127.0.0.1:1".into(),
            port: 0,
        });
        assert!(matches!(s.execution, ExecutionSpec::Rounds(_)));
        assert!(s.validate().is_ok());
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
        let err = tiny()
            .asynchronous(AsyncConfig::default())
            .with_attack(AttackSpec::default())
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("rounds mode"), "{err}");
        // Attack classes out of range.
        let err = tiny()
            .with_attack(AttackSpec {
                class_a: 3,
                class_b: 12,
                ..AttackSpec::default()
            })
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("classes"), "{err}");
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
        let err = tiny()
            .asynchronous(AsyncConfig::default())
            .tracking(2)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("tracking"), "{err}");
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
        scenario.save(&path).unwrap();
        assert_eq!(Scenario::load(&path).unwrap(), scenario);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            Scenario::load(dir.join("missing.toml")).unwrap_err(),
            ScenarioError::Io(_)
        ));
    }
}
