//! The asynchronous execution mode: an event-driven simulation of the
//! Specializing DAG over a heterogeneous peer-to-peer network.
//!
//! The paper is explicit that rounds are a measurement fiction: "in a
//! distributed implementation, each client continuously runs the training
//! process as often as its resources permit, independent from all other
//! clients. We only introduce the concept of rounds to be able to compare"
//! (§5.3.3). This simulator drops the rounds entirely and models what the
//! round simulator abstracts away:
//!
//! * **Message-passing replicas.** Every client maintains its own
//!   [`Replica`] of the tangle, exactly like a node in a real gossip
//!   network, and *all* inter-client effects travel as
//!   [`GossipMessage`]s through a [`Transport`]: a publication is
//!   broadcast once, reaches each peer individually after a per-link
//!   delay drawn from the configured [`DelayModel`], and out-of-order
//!   arrivals wait in the replica's solidification buffer until their
//!   parents are known. Model payloads are `Arc`-shared, so replicas
//!   cost edges, not weights. The default [`LoopbackTransport`] keeps
//!   everything in-process and deterministic; the same seam carries a
//!   real network in `dagfl peer`.
//! * **Poisson activations with compute heterogeneity.** Each client
//!   activates on its own exponential clock whose rate is scaled by its
//!   [`ComputeProfile`] speed factor, and training occupies
//!   `train_time / speed` logical time during which the client's view
//!   keeps receiving deliveries.
//! * **Stale-tip handling.** Because training takes time, a selected tip
//!   may have been superseded (approved by somebody else) by the time the
//!   client is ready to publish. The [`StaleTipPolicy`] decides whether to
//!   publish anyway, re-select and re-validate, or discard.
//! * **Throughput metrics.** [`AsyncMetrics`] records activation rate,
//!   publish latency, tip-staleness counts and confirmation depth — the
//!   quantities that distinguish deployable designs beyond accuracy.
//!
//! The simulation is a deterministic discrete-event loop: a single seeded
//! RNG drives all sampling (the loopback transport samples its link
//! delays from the same stream, in fixed peer order), and events are
//! totally ordered by `(time, sequence number)`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_datasets::FederatedDataset;
use dagfl_tangle::{TangleRead, TxId};
use dagfl_tensor::fan_out_with;

use crate::client;
use crate::config::{key, Range, RangeCheck};
use crate::delay::{COMPUTE_PROFILES, DELAY_MODELS, STALE_POLICIES};
use crate::fanout::disjoint_mut;
use crate::graph::Graph;
use crate::{
    ClientGraphTracker, ComputeProfile, CoreError, DagClient, DagConfig, DelayModel, Envelope,
    FaultPlan, FaultyTransport, GossipMessage, LoopbackTransport, ModelEvaluator, ModelFactory,
    ModelPayload, Replica, ReplicaTangle, SegmentRegistry, ShardedModelTangle, StaleTipPolicy,
    TrainOutcome, Transport, TxMessage,
};
use crate::{Key, KeyVisitor, Slot};

/// Configuration of an asynchronous simulation.
///
/// # Example
///
/// ```
/// use dagfl_core::{AsyncConfig, ComputeProfile, DelayModel, StaleTipPolicy};
///
/// let config = AsyncConfig {
///     total_activations: 500,
///     mean_interarrival: 1.0,
///     delay: DelayModel::Cohorts {
///         slow_fraction: 0.3,
///         fast: 1.0,
///         slow: 8.0,
///         jitter: 1.0,
///     },
///     compute: ComputeProfile::TwoSpeed {
///         slow_fraction: 0.3,
///         slowdown: 4.0,
///     },
///     train_time: 0.5,
///     stale_policy: StaleTipPolicy::Reselect,
///     ..AsyncConfig::default()
/// };
/// assert_eq!(config.total_activations, 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Training settings, tip selection and seed (the `rounds`,
    /// `clients_per_round` and `parallel` fields are ignored).
    pub dag: DagConfig,
    /// Total client activations to simulate.
    pub total_activations: usize,
    /// Mean logical time between consecutive activations *of one
    /// speed-1.0 client*; a client with speed `s` activates with mean
    /// inter-arrival `mean_interarrival / s`.
    pub mean_interarrival: f64,
    /// Per-link propagation delay of published transactions.
    pub delay: DelayModel,
    /// Per-client compute-speed factors.
    pub compute: ComputeProfile,
    /// Logical duration of one local-training pass at speed 1.0
    /// (`0.0` = instantaneous training, the historical behaviour; tips
    /// can only go stale when this is positive).
    pub train_time: f64,
    /// What to do when a selected tip was superseded during training.
    pub stale_policy: StaleTipPolicy,
    /// Receivers per broadcast: `0` (or anything at least the peer
    /// count minus one) gossips to everyone; a smaller value samples
    /// that many peers per publication — deterministically, from the
    /// simulation's RNG stream.
    pub gossip_fanout: usize,
    /// Threads training concurrently activated clients, the event
    /// loop's own thread included (`1` = serial, nothing is spawned).
    /// Which activations train together is decided by event times
    /// alone, never by thread timing, so results are byte-identical at
    /// any worker count.
    pub workers: usize,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            dag: DagConfig::default(),
            total_activations: 1000,
            mean_interarrival: 1.0,
            delay: DelayModel::default(),
            compute: ComputeProfile::default(),
            train_time: 0.0,
            stale_policy: StaleTipPolicy::default(),
            gossip_fanout: 0,
            workers: 1,
        }
    }
}

impl AsyncConfig {
    /// Checks every field, including the embedded [`DagConfig`] and the
    /// delay/compute models — the same ranges `dagfl async` enforces, so
    /// programmatic users get identical errors. The `dag` fields this
    /// mode ignores (`rounds`, `clients_per_round`, `parallel`) are
    /// exempt.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] naming the first offending
    /// field.
    ///
    /// # Example
    ///
    /// ```
    /// use dagfl_core::AsyncConfig;
    ///
    /// assert!(AsyncConfig::default().validate().is_ok());
    /// let bad = AsyncConfig {
    ///     mean_interarrival: 0.0,
    ///     ..AsyncConfig::default()
    /// };
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut config = *self;
        // This mode documents the round-scheduling fields as ignored, so
        // they must not fail a config that would run fine.
        config.dag.rounds = config.dag.rounds.max(1);
        config.dag.clients_per_round = config.dag.clients_per_round.max(1);
        RangeCheck::run(|check| {
            config.dag.keys(check)?;
            config.keys(check)
        })
    }

    /// Visits the `[execution]` keys this mode adds to
    /// [`DagConfig::keys`], in scenario-file order: budget and timing,
    /// the stale-tip policy, then the delay and compute models, each
    /// with the keys its shape has.
    ///
    /// # Errors
    ///
    /// Returns the visitor's first error.
    pub fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        const JITTER: Key = key("jitter", NonNegative).field("delay.jitter");
        const SLOWDOWN: Key = key("slowdown", Slowdown).field("compute.slowdown");
        let defaults = Self::default();
        let activations = key("activations", AtLeastOne).field("total_activations");
        v.key(activations, Usize(&mut self.total_activations))?;
        let interarrival = key("interarrival", Positive).field("mean_interarrival");
        v.key(interarrival, F64(&mut self.mean_interarrival))?;
        v.key(key("train_time", NonNegative), F64(&mut self.train_time))?;
        let fanout = UsizeOr(&mut self.gossip_fanout, defaults.gossip_fanout);
        v.key(key("fanout", Any), fanout)?;
        let workers = UsizeOr(&mut self.workers, defaults.workers);
        v.key(key("workers", AtLeastOne), workers)?;
        v.word(
            key("stale_policy", Any),
            &STALE_POLICIES,
            &mut self.stale_policy,
        )?;
        v.word(key("delay_model", Any), &DELAY_MODELS, &mut self.delay)?;
        let delay = key("delay", NonNegative);
        match &mut self.delay {
            DelayModel::Constant { delay: d } => v.key(delay.field("delay.delay"), F64(d))?,
            DelayModel::UniformJitter { base, jitter } => {
                v.key(delay.field("delay.base"), F64(base))?;
                v.key(JITTER, F64(jitter))?;
            }
            DelayModel::Cohorts {
                slow_fraction,
                fast,
                slow,
                jitter,
            } => {
                v.key(delay.field("delay.fast"), F64(fast))?;
                let slow_delay = key("slow_delay", NonNegative).field("delay.slow");
                v.key(slow_delay, F64(slow))?;
                let fraction = key("slow_fraction", Fraction).field("delay.slow_fraction");
                v.key(fraction, F64(slow_fraction))?;
                v.key(JITTER, F64(jitter))?;
            }
        }
        v.word(key("compute", Any), &COMPUTE_PROFILES, &mut self.compute)?;
        match &mut self.compute {
            ComputeProfile::Uniform => Ok(()),
            ComputeProfile::TwoSpeed {
                slow_fraction,
                slowdown,
            } => {
                let fraction =
                    key("compute_slow_fraction", Fraction).field("compute.slow_fraction");
                v.key(fraction, F64(slow_fraction))?;
                v.key(SLOWDOWN, F64(slowdown))
            }
            ComputeProfile::MatchNetworkCohort { slowdown } => v.key(SLOWDOWN, F64(slowdown)),
        }
    }
}

/// One completed client activation.
#[derive(Debug, Clone)]
pub struct ActivationRecord {
    /// Logical time at which the client started (tip selection).
    pub started: f64,
    /// Logical time at which training finished and the publish decision
    /// was taken.
    pub completed: f64,
    /// The activated client.
    pub client: u32,
    /// Post-training accuracy on the client's local test data.
    pub accuracy: f32,
    /// Whether the activation published a transaction.
    pub published: bool,
    /// How many of the originally selected parents (0–2) had been
    /// superseded by the time training finished.
    pub stale_parents: usize,
    /// Whether the stale policy re-selected fresh parents and the
    /// publication was attached to them (re-validation succeeded).
    pub reselected: bool,
}

/// Throughput and staleness metrics of an asynchronous run — the
/// deployment-facing counterpart of the accuracy curves.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncMetrics {
    /// Completed activations.
    pub activations: usize,
    /// Transactions published (excluding the genesis).
    pub publications: usize,
    /// Publications dropped by [`StaleTipPolicy::Discard`].
    pub discarded_stale: usize,
    /// Publications that went through a [`StaleTipPolicy::Reselect`]
    /// re-walk (whether or not they survived re-validation).
    pub reselections: usize,
    /// Final logical clock.
    pub elapsed: f64,
    /// Mean per-link delivery delay over all publications (logical
    /// time from publish to visibility at a peer).
    pub mean_publish_latency: f64,
    /// Largest sampled per-link delivery delay.
    pub max_publish_latency: f64,
    /// Publications by number of stale parents *approved* (index 0, 1,
    /// 2): a successful re-selection attaches to fresh tips and counts
    /// in bucket 0 regardless of how stale the original selection was.
    pub staleness_histogram: [usize; 3],
    /// Mean depth-from-tips over the global tangle — how deeply the
    /// average transaction is buried (its degree of confirmation).
    pub mean_confirmation_depth: f64,
    /// Tips of the global tangle at measurement time.
    pub tips: usize,
    /// Transactions in the global tangle, including the genesis.
    pub transactions: usize,
    /// Candidate evaluations that ran a real forward pass (walks,
    /// publish gates and stale-tip re-selections of every client).
    pub fresh_evaluations: usize,
    /// Candidate evaluations answered from per-client accuracy caches.
    pub cached_evaluations: usize,
    /// Envelopes the transport handed to a receiver.
    pub delivered: usize,
    /// Envelopes lost before delivery (zero without fault injection).
    pub dropped: usize,
    /// Extra copies created by duplication faults (zero without fault
    /// injection).
    pub duplicated: usize,
}

impl AsyncMetrics {
    /// Completed activations per unit of logical time.
    pub fn activation_rate(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.activations as f64 / self.elapsed
        } else {
            0.0
        }
    }

    /// Fraction of activations that resulted in a publication.
    pub fn publish_fraction(&self) -> f64 {
        if self.activations > 0 {
            self.publications as f64 / self.activations as f64
        } else {
            0.0
        }
    }

    /// Fraction of publications that approved at least one stale
    /// (already superseded) parent.
    pub fn stale_fraction(&self) -> f64 {
        let stale: usize = self.staleness_histogram[1] + self.staleness_histogram[2];
        let total: usize = self.staleness_histogram.iter().sum();
        if total > 0 {
            stale as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// A discrete event: a client starting an activation or finishing one.
#[derive(Debug)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Select tips and train against the client's current view.
    Activate(usize),
    /// Training done: staleness check, publish decision, reschedule.
    Finish(usize),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq && self.time.total_cmp(&other.time).is_eq()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// An activation whose training is still in progress.
struct PendingActivation {
    started: f64,
    outcome: TrainOutcome,
}

/// The asynchronous, event-driven counterpart of
/// [`Simulation`](crate::Simulation).
///
/// Every inter-client effect is a message: when a client publishes, the
/// transaction is broadcast through the [`Transport`] as a
/// [`GossipMessage`], and each peer's [`Replica`] attaches it only when
/// the delivery arrives (and its parents are solid). The simulator
/// additionally keeps one omniscient *global* tangle — every
/// publication is attached there immediately, for analysis only; no
/// client ever reads from it. Clients always select tips and train
/// against their own replica.
///
/// With the default [`LoopbackTransport`] the whole exchange stays
/// in-process and deterministic; `dagfl peer` runs the same replica
/// machinery over TCP.
pub struct AsyncSimulation {
    config: AsyncConfig,
    dataset: FederatedDataset,
    global: ShardedModelTangle,
    /// Incrementally maintained client graph and pureness counters.
    pub(crate) graph: ClientGraphTracker,
    clients: Vec<DagClient>,
    /// One scratch model per training worker, lent to the clients it
    /// runs; the event loop's own re-selections use the first.
    scratch: Vec<ModelEvaluator>,
    replicas: Vec<Replica>,
    transport: Box<dyn Transport>,
    speeds: Vec<f64>,
    pending: Vec<Option<PendingActivation>>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    clock: f64,
    activations: usize,
    publications: usize,
    discarded_stale: usize,
    reselections: usize,
    staleness_histogram: [usize; 3],
    rng: StdRng,
    history: Vec<ActivationRecord>,
}

impl AsyncSimulation {
    /// Creates an asynchronous simulation (genesis model from `factory`).
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no clients or the configuration fails
    /// [`AsyncConfig::validate`] (use [`AsyncSimulation::try_new`] to
    /// get a `Result` instead).
    pub fn new(config: AsyncConfig, dataset: FederatedDataset, factory: ModelFactory) -> Self {
        assert!(dataset.num_clients() > 0, "dataset has no clients");
        match Self::try_new(config, dataset, factory) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid async configuration: {e}"),
        }
    }

    /// Creates an asynchronous simulation, reporting configuration
    /// problems as values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] if the dataset has no
    /// clients or any configuration field fails
    /// [`AsyncConfig::validate`].
    pub fn try_new(
        config: AsyncConfig,
        dataset: FederatedDataset,
        factory: ModelFactory,
    ) -> Result<Self, CoreError> {
        Self::try_new_with_faults(config, dataset, factory, FaultPlan::default())
    }

    /// Creates an asynchronous simulation whose loopback transport is
    /// wrapped in a [`FaultyTransport`] running `plan`. An inert plan
    /// (the default) skips the decorator entirely, so this is exactly
    /// [`AsyncSimulation::try_new`] — same structure, same RNG stream,
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] if the dataset has no
    /// clients or any configuration or fault-plan field is invalid.
    pub fn try_new_with_faults(
        config: AsyncConfig,
        dataset: FederatedDataset,
        factory: ModelFactory,
        plan: FaultPlan,
    ) -> Result<Self, CoreError> {
        if dataset.num_clients() == 0 {
            return Err(CoreError::invalid_field(
                "dataset.num_clients",
                0,
                "dataset has no clients",
            ));
        }
        config.validate()?;
        plan.validate(dataset.num_clients())?;
        let mut rng = StdRng::seed_from_u64(config.dag.seed ^ 0xA57C);
        let genesis_model = factory(&mut rng);
        let genesis = ModelPayload::new(genesis_model.parameters());
        let n = dataset.num_clients();
        // One model per worker is built; the other clients' factory draws
        // are skipped by `advance`, not built: `rng` then samples the
        // cohorts, the speeds, every arrival gap and every gossip
        // receiver, so drawing less would change every result.
        let (clients, scratch) =
            client::population(n, config.workers, &factory, &mut rng, config.dag.seed);
        // All replicas share one record store: a transaction gossiped to
        // every peer is materialized once, not once per replica.
        let registry = SegmentRegistry::new();
        let replicas = (0..n)
            .map(|_| Replica::with_registry(genesis.clone(), registry.clone()))
            .collect();
        let slow_cohort = config.delay.assign_cohorts(n, &mut rng);
        let speeds = config.compute.speeds(&slow_cohort, &mut rng);
        let loopback =
            LoopbackTransport::new(config.delay, slow_cohort).with_fanout(config.gossip_fanout);
        // An inert plan skips the decorator: fault-free simulations
        // are structurally identical to pre-fault builds.
        let transport: Box<dyn Transport> = if plan.is_inert() {
            Box::new(loopback)
        } else {
            Box::new(FaultyTransport::new(loopback, plan, config.dag.seed))
        };
        let global = ShardedModelTangle::new(genesis);
        let graph = ClientGraphTracker::new(dataset.cluster_labels());
        let mut sim = Self {
            config,
            dataset,
            global,
            graph,
            clients,
            scratch,
            replicas,
            transport,
            speeds,
            pending: (0..n).map(|_| None).collect(),
            events: BinaryHeap::new(),
            next_seq: 0,
            clock: 0.0,
            activations: 0,
            publications: 0,
            discarded_stale: 0,
            reselections: 0,
            staleness_histogram: [0; 3],
            rng,
            history: Vec::new(),
        };
        // Every client's first activation arrives on its own Poisson clock.
        for idx in 0..n {
            let gap = sim.sample_interarrival(idx);
            sim.schedule(gap, EventKind::Activate(idx));
        }
        Ok(sim)
    }

    /// The logical clock (time of the last processed event).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Completed activations so far.
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// The omniscient global tangle containing every publication.
    pub fn tangle(&self) -> &ShardedModelTangle {
        &self.global
    }

    /// One client's current replica of the tangle (its network view).
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn replica(&self, client: usize) -> &ReplicaTangle {
        self.replicas[client].tangle()
    }

    /// Messages waiting in the replicas' solidification buffers for a
    /// parent, over all replicas.
    pub fn buffered(&self) -> usize {
        self.replicas.iter().map(Replica::buffered).sum()
    }

    /// Deliveries that have not reached their destination replica yet:
    /// envelopes scheduled beyond the current clock, plus due arrivals
    /// still waiting in the solidification buffer for a parent.
    /// (Arrivals that are due and solid but unobserved — the receiver
    /// has not activated since — do not count; they are delivered,
    /// merely unread.)
    pub fn pending_deliveries(&self) -> usize {
        self.replicas
            .iter()
            .enumerate()
            .map(|(peer, replica)| replica.backlog(self.transport.in_flight(peer), self.clock))
            .sum()
    }

    /// Order-independent digest of one client's replica (equal digests
    /// mean equal transaction sets) — the loopback counterpart of the
    /// digest `dagfl peer` prints at exit.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn replica_digest(&self, client: usize) -> u64 {
        self.replicas[client].digest()
    }

    /// The transport's delivery accounting so far.
    pub fn transport_stats(&self) -> crate::TransportStats {
        self.transport.stats()
    }

    /// Anti-entropy after a faulted run: flushes every in-flight
    /// envelope, then hands each replica one snapshot batch of every
    /// transaction it lacks from the union of all replicas, in
    /// O(clients × transactions). This is the loopback analogue of the
    /// networked `SnapshotRequest` rejoin. Every publication is
    /// attached in its publisher's replica, and an attached
    /// transaction's parents are attached beside it, so the union is
    /// closed under parents: one pass attaches all of it everywhere,
    /// and all replica digests agree afterwards.
    ///
    /// Partitions heal on their own (held envelopes arrive at the heal
    /// time); dropped and crash-lost deliveries do not, which is what
    /// this repairs.
    pub fn reconcile_replicas(&mut self) {
        for idx in 0..self.replicas.len() {
            let due = self.transport.receive(idx, f64::INFINITY);
            self.replicas[idx].apply(due);
        }
        let mut known = HashSet::new();
        let mut union: Vec<TxMessage> = Vec::new();
        for replica in &self.replicas {
            let fresh = replica.snapshot_messages(&known);
            known.extend(fresh.iter().map(|m| m.id));
            union.extend(fresh);
        }
        for replica in &mut self.replicas {
            let missing: Vec<TxMessage> = union
                .iter()
                .filter(|m| !replica.contains(m.id))
                .cloned()
                .collect();
            if !missing.is_empty() {
                replica.apply(vec![Envelope {
                    at: self.clock,
                    message: GossipMessage::Snapshot(missing),
                }]);
            }
        }
    }

    /// The per-client compute-speed factors sampled at construction.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The activation log.
    pub fn history(&self) -> &[ActivationRecord] {
        &self.history
    }

    /// The dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The simulation configuration.
    pub fn config(&self) -> &AsyncConfig {
        &self.config
    }

    /// A snapshot of the throughput/staleness metrics (confirmation
    /// depth and tip counts are computed from the global tangle,
    /// latency from the transport's accounting).
    pub fn metrics(&self) -> AsyncMetrics {
        let depths = self.global.depths_from_tips();
        let mean_depth = if depths.is_empty() {
            0.0
        } else {
            depths.iter().map(|&d| d as f64).sum::<f64>() / depths.len() as f64
        };
        let stats = self.global.stats();
        let transport = self.transport.stats();
        // Evaluation counters live on the per-client evaluators, so the
        // totals cover walks, publish gates and stale-tip re-selections
        // alike.
        let (fresh, cached) = self
            .clients
            .iter()
            .map(|c| c.eval_counters())
            .fold((0, 0), |(f, c), k| (f + k.fresh, c + k.cached));
        AsyncMetrics {
            activations: self.activations,
            publications: self.publications,
            discarded_stale: self.discarded_stale,
            reselections: self.reselections,
            elapsed: self.clock,
            mean_publish_latency: transport.mean_latency(),
            max_publish_latency: transport.latency_max,
            staleness_histogram: self.staleness_histogram,
            mean_confirmation_depth: mean_depth,
            tips: stats.tips,
            transactions: stats.transactions,
            fresh_evaluations: fresh,
            cached_evaluations: cached,
            delivered: transport.delivered,
            dropped: transport.dropped,
            duplicated: transport.duplicated,
        }
    }

    fn schedule(&mut self, at: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event {
            time: at,
            seq,
            kind,
        }));
    }

    /// Samples the next exponential activation gap of one client
    /// (inverse transform, rate scaled by the client's speed).
    fn sample_interarrival(&mut self, client: usize) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * self.config.mean_interarrival / self.speeds[client]
    }

    /// Receives this client's due deliveries from the transport and
    /// applies them to its replica (solidification included).
    fn deliver(&mut self, idx: usize, now: f64) {
        let due = self.transport.receive(idx, now);
        self.replicas[idx].apply(due);
    }

    /// Pops the maximal batch of activations that may train together
    /// without changing the serial event order: a run of consecutive
    /// `Activate` events from the top of the heap, stopping at the
    /// first `Finish` and at any activation later than the earliest
    /// training-finish time of the batch collected so far (a serial
    /// loop would process that finish — and its publication — first).
    /// Ties are safe to include: an already-queued activation always
    /// carries a smaller sequence number than a finish scheduled now,
    /// so at equal times the serial loop pops the activation first.
    ///
    /// Each client has at most one outstanding activation, so a batch
    /// never contains the same client twice.
    fn pop_activation_batch(&mut self) -> Vec<(usize, f64)> {
        let mut batch: Vec<(usize, f64)> = Vec::new();
        let mut barrier = f64::INFINITY;
        while let Some(Reverse(top)) = self.events.peek() {
            let idx = match top.kind {
                EventKind::Activate(idx) => idx,
                EventKind::Finish(_) => break,
            };
            let time = top.time;
            if time > barrier {
                break;
            }
            self.events.pop();
            barrier = barrier.min(time + self.config.train_time / self.speeds[idx]);
            batch.push((idx, time));
        }
        batch
    }

    /// Starts a batch of activations: deliver each client's gossip in
    /// event order, select tips and train every client against its own
    /// replica (fanned out over `workers` threads), then schedule
    /// the finish events in batch order — the same sequence numbers a
    /// serial loop would assign.
    fn process_activation_batch(&mut self, batch: &[(usize, f64)]) -> Result<(), CoreError> {
        // Deliveries mutate per-client replicas and the (stateful)
        // transport, so they stay serial, in event order.
        for &(idx, at) in batch {
            self.clock = at;
            self.deliver(idx, at);
        }
        let outcomes = self.train_batch(batch)?;
        for (&(idx, at), outcome) in batch.iter().zip(outcomes) {
            let duration = self.config.train_time / self.speeds[idx];
            self.pending[idx] = Some(PendingActivation {
                started: at,
                outcome,
            });
            self.schedule(at + duration, EventKind::Finish(idx));
        }
        Ok(())
    }

    /// Trains every batched activation, returning outcomes in batch
    /// order: one [`fan_out_with`] job per activation over `workers`
    /// threads (inline at `workers = 1`), each training on its own
    /// scratch model. Which thread trains which client never matters:
    /// training only touches per-client state (the client itself, its
    /// replica view and its data shard) and a scratch model it loads
    /// before use, so any worker count produces the same outcomes.
    fn train_batch(&mut self, batch: &[(usize, f64)]) -> Result<Vec<TrainOutcome>, CoreError> {
        let config = self.config;
        let dataset = &self.dataset;
        let replicas = &self.replicas;
        let clients = disjoint_mut(&mut self.clients, batch, |&(idx, _)| idx);
        fan_out_with(&mut self.scratch, clients, |scratch, i, client| {
            let idx = batch[i].0;
            let data = &dataset.clients()[idx];
            client.train_round_on(scratch, replicas[idx].tangle(), data, &config.dag)
        })
    }

    /// Completes an activation: staleness check against the updated
    /// view, publish decision per the stale policy, metrics, and the
    /// next activation of this client.
    fn process_finish(&mut self, idx: usize, now: f64) -> Result<ActivationRecord, CoreError> {
        let PendingActivation {
            started,
            mut outcome,
        } = self.pending[idx].take().expect("finish without activation");
        self.deliver(idx, now);
        let (tip1, tip2) = outcome.parents;
        let mut stale_parents = [tip1, tip2]
            .iter()
            .filter(|&&t| !self.replicas[idx].tangle().is_tip(t))
            .count();
        if tip1 == tip2 && stale_parents > 0 {
            stale_parents = 1;
        }
        let mut parents = (tip1, tip2);
        let mut publish = outcome.published.take();
        let mut reselected = false;
        if stale_parents > 0 && publish.is_some() {
            match self.config.stale_policy {
                StaleTipPolicy::PublishAnyway => {}
                StaleTipPolicy::Discard => {
                    publish = None;
                    self.discarded_stale += 1;
                }
                StaleTipPolicy::Reselect => {
                    self.reselections += 1;
                    let data = &self.dataset.clients()[idx];
                    let replica = self.replicas[idx].tangle();
                    let scratch = &mut self.scratch[0];
                    let (reference, fresh) = self.clients[idx].reference_model(
                        scratch,
                        replica,
                        data,
                        &self.config.dag,
                    )?;
                    let eval = scratch.evaluate_params(&reference, data.test_x(), data.test_y())?;
                    // Re-validation: only publish if the trained model
                    // still beats the fresh consensus reference.
                    if outcome.trained.accuracy >= eval.accuracy {
                        parents = fresh;
                        reselected = true;
                    } else {
                        publish = None;
                        self.discarded_stale += 1;
                    }
                }
            }
        }
        if publish.is_some() {
            // The histogram records the staleness of the parents
            // actually *approved*: a successful re-selection attaches
            // to fresh tips, so it lands in bucket 0.
            let approved_stale = if reselected { 0 } else { stale_parents };
            self.staleness_histogram[approved_stale.min(2)] += 1;
        }
        let published = publish.is_some();
        if let Some(params) = publish {
            self.publish(idx, now, params, parents)?;
        }
        let record = ActivationRecord {
            started,
            completed: now,
            client: outcome.client,
            accuracy: outcome.trained.accuracy,
            published,
            stale_parents,
            reselected,
        };
        self.history.push(record.clone());
        self.activations += 1;
        let gap = self.sample_interarrival(idx);
        self.schedule(now + gap, EventKind::Activate(idx));
        Ok(record)
    }

    /// Publishes one transaction: attach to the omniscient global
    /// tangle (analysis) and the publisher's own replica, then
    /// broadcast the [`GossipMessage`] so the transport delivers it to
    /// every peer.
    fn publish(
        &mut self,
        idx: usize,
        now: f64,
        params: Vec<f32>,
        parents: (TxId, TxId),
    ) -> Result<(), CoreError> {
        let replica = &self.replicas[idx];
        let net_parents = [
            replica
                .network_id(parents.0)
                .expect("selected tip is in the replica"),
            replica
                .network_id(parents.1)
                .expect("selected tip is in the replica"),
        ];
        // Loopback network ids are the dense indices of the global
        // tangle, so id assignment needs no coordination.
        let global_parents = net_parents.map(TxId::from_index);
        let payload = ModelPayload::new(params);
        let shared = payload.share();
        let global_id =
            self.global
                .attach_with_meta(payload, &global_parents, Some(idx as u32), now as u32)?;
        self.graph.record_attached(&self.global, global_id)?;
        let net_id = global_id.index();
        let message = TxMessage {
            id: net_id,
            parents: net_parents.to_vec(),
            params: shared,
            issuer: Some(idx as u32),
            round: now as u32,
        };
        // The publisher sees its own transaction immediately; everyone
        // else when the transport delivers it.
        self.replicas[idx].insert(&message)?;
        self.publications += 1;
        self.transport
            .broadcast(idx, now, GossipMessage::Transaction(message), &mut self.rng)
    }

    /// Processes events until the next activation completes and returns
    /// its record.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn step(&mut self) -> Result<ActivationRecord, CoreError> {
        loop {
            let top_is_activate = matches!(
                self.events
                    .peek()
                    .expect("event queue never empties")
                    .0
                    .kind,
                EventKind::Activate(_)
            );
            if top_is_activate {
                let batch = self.pop_activation_batch();
                self.process_activation_batch(&batch)?;
            } else {
                let Reverse(event) = self.events.pop().expect("event queue never empties");
                self.clock = event.time;
                match event.kind {
                    EventKind::Finish(idx) => return self.process_finish(idx, event.time),
                    EventKind::Activate(_) => unreachable!("peeked a non-activate"),
                }
            }
        }
    }

    /// Runs until `total_activations` activations have completed. The
    /// global tangle always contains every publication, so no flush is
    /// needed afterwards.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn run(&mut self) -> Result<(), CoreError> {
        while self.activations < self.config.total_activations {
            self.step()?;
        }
        Ok(())
    }

    /// The derived client graph of the global tangle (§4.3),
    /// maintained incrementally at publish time. An owned copy;
    /// [`ExecutionMode::client_graph`](crate::ExecutionMode::client_graph)
    /// borrows it.
    pub fn client_graph(&self) -> Graph {
        self.graph.graph().clone()
    }

    /// Approval pureness of the global tangle (Table 2), maintained
    /// incrementally at publish time.
    pub fn approval_pureness(&self) -> f64 {
        self.graph.approval_pureness()
    }

    /// Mean accuracy over the last `n` activations.
    pub fn recent_accuracy(&self, n: usize) -> f32 {
        let take = n.min(self.history.len());
        if take == 0 {
            return 0.0;
        }
        self.history[self.history.len() - take..]
            .iter()
            .map(|r| r.accuracy)
            .sum::<f32>()
            / take as f32
    }
}

impl std::fmt::Debug for AsyncSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSimulation")
            .field("clock", &self.clock)
            .field("activations", &self.activations)
            .field("transactions", &self.global.len())
            .field("pending_deliveries", &self.pending_deliveries())
            .finish()
    }
}

#[cfg(test)]
impl AsyncSimulation {
    /// The models the simulation holds: its scratch models plus any a
    /// client owns.
    pub(crate) fn models(&self) -> usize {
        self.scratch.len() + self.clients.iter().filter(|c| c.owns_model()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use std::sync::Arc;

    fn small_factory(features: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        })
    }

    fn setup_with(config: AsyncConfig, num_clients: usize) -> AsyncSimulation {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients,
            samples_per_client: 50,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        AsyncSimulation::new(config, dataset, small_factory(features))
    }

    fn setup(total: usize, delay: f64) -> AsyncSimulation {
        setup_with(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    ..DagConfig::default()
                },
                total_activations: total,
                delay: DelayModel::constant(delay),
                ..AsyncConfig::default()
            },
            6,
        )
    }

    #[test]
    fn activations_advance_clock_and_tangle() {
        let mut sim = setup(30, 2.0);
        sim.run().unwrap();
        assert_eq!(sim.activations(), 30);
        assert!(sim.clock() > 0.0);
        assert!(sim.tangle().len() > 1, "nothing was published");
        assert_eq!(sim.history().len(), 30);
        let m = sim.metrics();
        assert_eq!(m.activations, 30);
        assert_eq!(m.transactions, sim.tangle().len());
        assert_eq!(m.publications + 1, sim.tangle().len());
        assert!(m.fresh_evaluations > 0, "walks must evaluate candidates");
    }

    #[test]
    fn visibility_delay_creates_wider_frontiers() {
        let mut instant = setup(60, 0.0);
        instant.run().unwrap();
        let mut delayed = setup(60, 10.0);
        delayed.run().unwrap();
        // With a large propagation delay, concurrent publications cannot
        // see each other and attach to older parents, widening the DAG.
        let instant_tips = instant.tangle().stats().tips;
        let delayed_tips = delayed.tangle().stats().tips;
        assert!(
            delayed_tips >= instant_tips,
            "delay should widen the frontier: {instant_tips} vs {delayed_tips}"
        );
    }

    #[test]
    fn zero_delay_and_instant_training_collapse_to_a_chain() {
        // Instantaneous broadcast + instantaneous training reproduce the
        // old serial behaviour: the DAG degenerates towards a chain.
        let mut sim = setup(40, 0.0);
        sim.run().unwrap();
        assert!(
            sim.tangle().stats().tips <= 2,
            "expected a near-chain, got {} tips",
            sim.tangle().stats().tips
        );
        assert_eq!(sim.pending_deliveries(), 0, "zero delay leaves no backlog");
    }

    #[test]
    fn zero_activation_metrics_are_zero_not_nan() {
        // A run whose horizon elapses before any activation completes:
        // the metrics snapshot of a freshly constructed simulation has
        // activations == 0, elapsed == 0 and an empty latency record.
        // Every derived rate must report 0.0 — never NaN from a 0/0.
        let sim = setup(10, 2.0);
        let m = sim.metrics();
        assert_eq!(m.activations, 0);
        assert_eq!(m.publications, 0);
        assert_eq!(m.elapsed, 0.0);
        assert_eq!(m.activation_rate(), 0.0);
        assert_eq!(m.publish_fraction(), 0.0);
        assert_eq!(m.stale_fraction(), 0.0);
        assert_eq!(m.mean_publish_latency, 0.0);
        assert_eq!(m.max_publish_latency, 0.0);
        assert_eq!(m.fresh_evaluations, 0);
        assert_eq!(m.cached_evaluations, 0);
        for value in [
            m.activation_rate(),
            m.publish_fraction(),
            m.stale_fraction(),
            m.mean_publish_latency,
            m.mean_confirmation_depth,
        ] {
            assert!(value.is_finite(), "non-finite metric {value}");
        }
        // The genesis-only tangle still reports sane structure.
        assert_eq!(m.transactions, 1);
        assert_eq!(m.tips, 1);
    }

    #[test]
    fn zero_activation_recent_accuracy_is_zero() {
        let sim = setup(10, 2.0);
        assert_eq!(sim.recent_accuracy(30), 0.0);
        assert_eq!(sim.activations(), 0);
    }

    #[test]
    fn accuracy_improves_over_activations() {
        let mut sim = setup(80, 1.0);
        sim.run().unwrap();
        let early: f32 = sim.history()[..10].iter().map(|r| r.accuracy).sum::<f32>() / 10.0;
        let late = sim.recent_accuracy(10);
        assert!(
            late > early,
            "no progress under asynchrony: {early} -> {late}"
        );
    }

    #[test]
    fn specialization_emerges_without_rounds() {
        let mut sim = setup(80, 1.0);
        sim.run().unwrap();
        let pureness = sim.approval_pureness();
        let base = sim.dataset().base_pureness();
        assert!(pureness > base, "pureness {pureness} not above base {base}");
        assert!(sim.client_graph().total_weight() > 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut sim = setup_with(
                AsyncConfig {
                    dag: DagConfig {
                        local_batches: 3,
                        ..DagConfig::default()
                    },
                    total_activations: 25,
                    delay: DelayModel::UniformJitter {
                        base: 1.0,
                        jitter: 2.0,
                    },
                    compute: ComputeProfile::TwoSpeed {
                        slow_fraction: 0.5,
                        slowdown: 3.0,
                    },
                    train_time: 0.5,
                    stale_policy: StaleTipPolicy::Reselect,
                    ..AsyncConfig::default()
                },
                6,
            );
            sim.run().unwrap();
            sim
        };
        let a = run();
        let b = run();
        assert_eq!(a.tangle().len(), b.tangle().len());
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.metrics(), b.metrics());
        let acc_a: Vec<f32> = a.history().iter().map(|r| r.accuracy).collect();
        let acc_b: Vec<f32> = b.history().iter().map(|r| r.accuracy).collect();
        assert_eq!(acc_a, acc_b);
    }

    #[test]
    fn replicas_lag_behind_the_global_tangle() {
        let mut sim = setup(50, 25.0);
        sim.run().unwrap();
        // With a large delay some deliveries must still be in flight,
        // and every replica holds at most what the global tangle holds.
        assert!(sim.pending_deliveries() > 0, "no deliveries in flight");
        for c in 0..6 {
            assert!(sim.replica(c).len() <= sim.tangle().len());
        }
    }

    #[test]
    fn slow_cohort_links_raise_publish_latency() {
        let constant = {
            let mut sim = setup_with(
                AsyncConfig {
                    dag: DagConfig {
                        local_batches: 2,
                        ..DagConfig::default()
                    },
                    total_activations: 30,
                    delay: DelayModel::constant(1.0),
                    ..AsyncConfig::default()
                },
                6,
            );
            sim.run().unwrap();
            sim.metrics()
        };
        let cohorts = {
            let mut sim = setup_with(
                AsyncConfig {
                    dag: DagConfig {
                        local_batches: 2,
                        ..DagConfig::default()
                    },
                    total_activations: 30,
                    delay: DelayModel::Cohorts {
                        slow_fraction: 0.5,
                        fast: 1.0,
                        slow: 10.0,
                        jitter: 0.0,
                    },
                    ..AsyncConfig::default()
                },
                6,
            );
            sim.run().unwrap();
            sim.metrics()
        };
        assert!(
            cohorts.mean_publish_latency > constant.mean_publish_latency,
            "heterogeneous links should raise latency: {} vs {}",
            cohorts.mean_publish_latency,
            constant.mean_publish_latency
        );
        assert!(cohorts.max_publish_latency >= 10.0);
        assert_eq!(constant.mean_publish_latency, 1.0);
    }

    #[test]
    fn training_time_makes_tips_go_stale() {
        let mut sim = setup_with(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    ..DagConfig::default()
                },
                total_activations: 60,
                mean_interarrival: 0.5,
                delay: DelayModel::constant(0.0),
                train_time: 2.0,
                stale_policy: StaleTipPolicy::PublishAnyway,
                ..AsyncConfig::default()
            },
            6,
        );
        sim.run().unwrap();
        let m = sim.metrics();
        assert!(
            m.stale_fraction() > 0.0,
            "concurrent training with instant broadcast must produce stale tips"
        );
        assert!(sim.history().iter().any(|r| r.stale_parents > 0));
    }

    #[test]
    fn discard_policy_drops_stale_publications() {
        let run = |policy: StaleTipPolicy| {
            let mut sim = setup_with(
                AsyncConfig {
                    dag: DagConfig {
                        local_batches: 3,
                        ..DagConfig::default()
                    },
                    total_activations: 60,
                    mean_interarrival: 0.5,
                    delay: DelayModel::constant(0.0),
                    train_time: 2.0,
                    stale_policy: policy,
                    ..AsyncConfig::default()
                },
                6,
            );
            sim.run().unwrap();
            sim.metrics()
        };
        let publish = run(StaleTipPolicy::PublishAnyway);
        let discard = run(StaleTipPolicy::Discard);
        assert!(discard.discarded_stale > 0, "nothing was discarded");
        assert!(
            discard.publications < publish.publications,
            "discarding stale tips must shrink the tangle: {} vs {}",
            discard.publications,
            publish.publications
        );
        // Discarded publications never carry stale parents into the DAG.
        assert_eq!(discard.staleness_histogram[1], 0);
        assert_eq!(discard.staleness_histogram[2], 0);
    }

    #[test]
    fn reselect_policy_attaches_to_fresh_tips() {
        let mut sim = setup_with(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 3,
                    ..DagConfig::default()
                },
                total_activations: 60,
                mean_interarrival: 0.5,
                delay: DelayModel::constant(0.0),
                train_time: 2.0,
                stale_policy: StaleTipPolicy::Reselect,
                ..AsyncConfig::default()
            },
            6,
        );
        sim.run().unwrap();
        let m = sim.metrics();
        assert!(m.reselections > 0, "no reselection happened");
        assert!(sim.history().iter().any(|r| r.reselected));
    }

    #[test]
    fn matched_cohort_couples_network_and_compute() {
        let mut sim = setup_with(
            AsyncConfig {
                delay: DelayModel::Cohorts {
                    slow_fraction: 0.5,
                    fast: 1.0,
                    slow: 8.0,
                    jitter: 0.0,
                },
                compute: ComputeProfile::MatchNetworkCohort { slowdown: 4.0 },
                ..AsyncConfig::default()
            },
            12,
        );
        // The network cohorts, read off the transport: with no jitter a
        // link is slow exactly when one of its ends is, so a client is
        // slow when every link out of it is.
        let n = sim.speeds().len();
        let mut rng = StdRng::seed_from_u64(0);
        let slow_cohort: Vec<bool> = (0..n)
            .map(|from| {
                let message = GossipMessage::Snapshot(Vec::new());
                sim.transport
                    .broadcast(from, 0.0, message, &mut rng)
                    .unwrap();
                (0..n)
                    .filter(|&to| to != from)
                    .all(|to| sim.transport.in_flight(to).last().expect("sent").at == 8.0)
            })
            .collect();
        assert!(slow_cohort.iter().any(|&s| s));
        assert!(slow_cohort.iter().any(|&s| !s));
        for (i, &slow) in slow_cohort.iter().enumerate() {
            assert_eq!(
                sim.speeds()[i] < 1.0,
                slow,
                "client {i}: compute speed must mirror the network cohort"
            );
        }
    }

    #[test]
    fn metrics_report_throughput_and_depth() {
        let mut sim = setup(40, 1.0);
        sim.run().unwrap();
        let m = sim.metrics();
        assert!(m.activation_rate() > 0.0);
        assert!(m.publish_fraction() > 0.0 && m.publish_fraction() <= 1.0);
        assert!(m.elapsed > 0.0);
        assert!(m.mean_confirmation_depth > 0.0);
        assert_eq!(m.mean_publish_latency, 1.0);
    }

    #[test]
    fn recent_accuracy_handles_short_history() {
        let sim = setup(10, 1.0);
        assert_eq!(sim.recent_accuracy(5), 0.0);
    }

    #[test]
    fn validate_exempts_the_ignored_round_fields() {
        // `rounds`, `clients_per_round` and `parallel` are documented as
        // ignored by this mode; zeroing them must not reject a config
        // that runs fine.
        let config = AsyncConfig {
            dag: DagConfig {
                rounds: 0,
                clients_per_round: 0,
                ..DagConfig::default()
            },
            ..AsyncConfig::default()
        };
        assert!(config.validate().is_ok());
        // The shared hyperparameters are still checked.
        let bad = AsyncConfig {
            dag: DagConfig {
                learning_rate: -1.0,
                ..DagConfig::default()
            },
            ..AsyncConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("learning_rate"));
    }

    #[test]
    fn try_new_reports_errors_as_values() {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 3,
            samples_per_client: 20,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let err = AsyncSimulation::try_new(
            AsyncConfig {
                mean_interarrival: 0.0,
                ..AsyncConfig::default()
            },
            dataset,
            small_factory(features),
        )
        .unwrap_err();
        assert!(err.to_string().contains("mean_interarrival"));
    }

    #[test]
    fn replica_contents_match_the_messages_delivered() {
        // The transport seam must be the only channel into a replica:
        // every replica transaction is one the global tangle also holds
        // with identical weights, and its local attachment respects the
        // delivery + solidification order (parents before children).
        let mut sim = setup(40, 3.0);
        sim.run().unwrap();
        for c in 0..6 {
            let replica = sim.replica(c);
            let mut parents = Vec::new();
            for index in 0..replica.len() as u64 {
                let id = TxId::from_index(index);
                replica.parents_into(id, &mut parents).unwrap();
                for p in &parents {
                    assert!(p.index() < index, "parents attach first");
                }
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // Tentpole invariant: the batched event loop partitions work by
        // event times alone, so any worker count replays the exact
        // serial schedule — same metrics, clocks, histories, replicas.
        let run = |workers: usize| {
            let mut sim = setup_with(
                AsyncConfig {
                    dag: DagConfig {
                        local_batches: 3,
                        ..DagConfig::default()
                    },
                    total_activations: 40,
                    mean_interarrival: 0.5,
                    delay: DelayModel::UniformJitter {
                        base: 1.0,
                        jitter: 2.0,
                    },
                    compute: ComputeProfile::TwoSpeed {
                        slow_fraction: 0.5,
                        slowdown: 3.0,
                    },
                    train_time: 1.5,
                    stale_policy: StaleTipPolicy::Reselect,
                    workers,
                    ..AsyncConfig::default()
                },
                6,
            );
            sim.run().unwrap();
            sim
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.metrics(), parallel.metrics());
        assert_eq!(serial.clock(), parallel.clock());
        assert_eq!(serial.tangle().len(), parallel.tangle().len());
        let acc_a: Vec<f32> = serial.history().iter().map(|r| r.accuracy).collect();
        let acc_b: Vec<f32> = parallel.history().iter().map(|r| r.accuracy).collect();
        assert_eq!(acc_a, acc_b);
        for c in 0..6 {
            assert_eq!(serial.replica_digest(c), parallel.replica_digest(c));
        }
    }

    /// One scratch model per worker, none per client: 200 clients at
    /// two workers hold two models, before and after a run, and the
    /// factory built the genesis and those two only.
    #[test]
    fn models_are_per_worker_not_per_client() {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 200,
            samples_per_client: 20,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let config = AsyncConfig {
            dag: DagConfig {
                local_batches: 1,
                ..DagConfig::default()
            },
            total_activations: 20,
            workers: 2,
            ..AsyncConfig::default()
        };
        let (counted, calls) = crate::client::tests::counting(small_factory(features));
        let mut sim = AsyncSimulation::new(config, dataset, counted);
        assert_eq!(sim.models(), 2);
        sim.run().unwrap();
        assert_eq!(sim.models(), 2);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_activations_do_batch_under_training_time() {
        // With six Poisson clocks and a long training time, the heap
        // regularly holds several activations below the finish barrier;
        // the run above only proves equality, this proves the batched
        // path is actually exercised (tips go stale, which requires
        // overlapping activations).
        let mut sim = setup_with(
            AsyncConfig {
                dag: DagConfig {
                    local_batches: 2,
                    ..DagConfig::default()
                },
                total_activations: 40,
                mean_interarrival: 0.5,
                delay: DelayModel::constant(0.0),
                train_time: 2.0,
                workers: 2,
                ..AsyncConfig::default()
            },
            6,
        );
        sim.run().unwrap();
        assert!(
            sim.history().iter().any(|r| r.stale_parents > 0),
            "long training must overlap activations"
        );
    }

    #[test]
    fn incremental_client_graph_matches_full_rescan() {
        // Satellite: the publish-time tracker must agree with a full
        // re-scan of the global tangle at every horizon.
        let mut sim = setup(30, 1.0);
        for _ in 0..30 {
            sim.step().unwrap();
            let oracle = crate::client_graph_of(sim.tangle(), sim.dataset().num_clients());
            assert_eq!(sim.client_graph().edges(), oracle.edges());
            let oracle_pureness =
                crate::approval_pureness_of(sim.tangle(), &sim.dataset().cluster_labels());
            assert!((sim.approval_pureness() - oracle_pureness).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "mean_interarrival")]
    fn zero_interarrival_panics() {
        setup_with(
            AsyncConfig {
                mean_interarrival: 0.0,
                ..AsyncConfig::default()
            },
            3,
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        setup_with(
            AsyncConfig {
                delay: DelayModel::constant(-1.0),
                ..AsyncConfig::default()
            },
            3,
        );
    }
}
