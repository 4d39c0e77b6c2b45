//! The discrete-round simulation of the Specializing DAG (§5.3).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dagfl_datasets::FederatedDataset;
use dagfl_nn::Evaluation;
use dagfl_tangle::{TangleRead, TxId};
use dagfl_tensor::fan_out_with;

use crate::client;
use crate::fanout::{disjoint_mut, machine_workers};
use crate::graph::Graph;
use crate::{
    retire_payloads, specialization_seed, ClientGraphTracker, CoreError, DagClient, DagConfig,
    ExecutionMode, ModelEvaluator, ModelFactory, ModelPayload, RoundMetrics, ShardedModelTangle,
    SpecializationMetrics, TrainOutcome,
};

/// A client's reference evaluation: `(client id, evaluation, selected tips)`.
pub type ReferenceEvaluation = (u32, Evaluation, (TxId, TxId));

/// A Specializing-DAG training simulation over a federated dataset.
///
/// Each round samples `clients_per_round` clients; every active client runs
/// the Figure 1 loop against the round-start snapshot of the tangle
/// (concurrently when [`DagConfig::parallel`] is set), and all resulting
/// publications are attached at the end of the round. The paper introduces
/// the same round structure purely to compare against centralized
/// approaches (§5.3.3) — the algorithm itself is asynchronous.
pub struct Simulation {
    pub(crate) config: DagConfig,
    pub(crate) dataset: FederatedDataset,
    pub(crate) tangle: ShardedModelTangle,
    pub(crate) clients: Vec<DagClient>,
    /// One scratch model per fan-out worker (`machine_workers()` with
    /// [`DagConfig::parallel`], else one), lent to the clients it runs.
    /// Serial paths use the first.
    pub(crate) scratch: Vec<ModelEvaluator>,
    pub(crate) rng: StdRng,
    pub(crate) history: Vec<RoundMetrics>,
    pub(crate) round: usize,
    pub(crate) graph: ClientGraphTracker,
    /// The non-genesis transactions below `examined` whose payload is
    /// held, in id order.
    held: Vec<TxId>,
    /// The tangle length the last retirement pass had seen.
    examined: usize,
    /// Payloads retired so far.
    retired: usize,
}

impl Simulation {
    /// Creates a simulation: the genesis transaction carries a freshly
    /// initialised model, and each fan-out worker gets a scratch model
    /// from `factory` that it lends to the clients it runs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DagConfig::validate`] (call
    /// it first to get a `Result` instead) or `clients_per_round`
    /// exceeds the dataset's client count.
    pub fn new(config: DagConfig, dataset: FederatedDataset, factory: ModelFactory) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulation configuration: {e}");
        }
        assert!(
            config.clients_per_round > 0 && config.clients_per_round <= dataset.num_clients(),
            "clients_per_round ({}) must be in 1..={}",
            config.clients_per_round,
            dataset.num_clients()
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let genesis_model = factory(&mut rng);
        let tangle = ShardedModelTangle::new(ModelPayload::hashed(genesis_model.parameters()));
        let workers = if config.parallel {
            machine_workers()
        } else {
            1
        };
        // One model per worker is built; the other clients' factory draws
        // are skipped by `advance`, not built: `rng` then samples every
        // round's cohort, so drawing less would change every result.
        let (clients, scratch) = client::population(
            dataset.num_clients(),
            workers,
            &factory,
            &mut rng,
            config.seed,
        );
        let graph = ClientGraphTracker::new(dataset.cluster_labels());
        Self {
            config,
            dataset,
            tangle,
            clients,
            scratch,
            rng,
            history: Vec::new(),
            round: 0,
            graph,
            held: Vec::new(),
            examined: 1,
            retired: 0,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &DagConfig {
        &self.config
    }

    /// The federated dataset being trained on.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.dataset
    }

    /// The shared tangle of model updates. Reads never take a global
    /// lock, so the borrow can be handed straight to analysis code or
    /// worker threads.
    pub fn tangle(&self) -> &ShardedModelTangle {
        &self.tangle
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// `(held, retired)`: the payloads the tangle still holds, the
    /// genesis included, and those retired (see
    /// [`Simulation::run_round`]).
    pub fn payloads(&self) -> (usize, usize) {
        (self.tangle.len() - self.retired, self.retired)
    }

    /// Metrics of all completed rounds.
    pub fn history(&self) -> &[RoundMetrics] {
        &self.history
    }

    /// Mean post-training accuracy over the most recent `n` client
    /// evaluations (crossing round boundaries, newest first), the
    /// round-based counterpart of
    /// [`AsyncSimulation::recent_accuracy`](crate::AsyncSimulation::recent_accuracy).
    pub fn recent_accuracy(&self, n: usize) -> f32 {
        let recent: Vec<f32> = self
            .history
            .iter()
            .rev()
            .flat_map(|m| m.accuracies.iter().rev().copied())
            .take(n)
            .collect();
        if recent.is_empty() {
            return 0.0;
        }
        recent.iter().sum::<f32>() / recent.len() as f32
    }

    /// Invalidates every client's evaluation cache by bumping its cache
    /// generation (required after mutating the dataset, e.g. a poisoning
    /// attack). Stale entries can never be served afterwards — lookups
    /// check the generation stamp.
    pub fn clear_caches(&mut self) {
        for client in &mut self.clients {
            client.clear_cache();
        }
    }

    /// Runs a single round and returns its metrics.
    ///
    /// After the publication phase, the payload of every transaction
    /// whose depth from the tips exceeds `walk_depth.1` is retired (see
    /// [`ModelPayload`]). No read reaches one again: a walk starts inside
    /// the window and steps only to strictly shallower approvers, and
    /// averaging and the publish gate read only walk ends. The genesis
    /// keeps its payload, the model template. A payload retires in the
    /// round its transaction falls below the window. A window whose top
    /// reaches [`DEPTH_CEILING`](dagfl_tangle::DEPTH_CEILING) retires
    /// nothing: the capped depth never exceeds it.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors (e.g. architecture mismatches).
    pub fn run_round(&mut self) -> Result<RoundMetrics, CoreError> {
        // Sample active clients without replacement, ascending for
        // deterministic processing order.
        let mut ids: Vec<usize> = (0..self.dataset.num_clients()).collect();
        ids.shuffle(&mut self.rng);
        let mut active: Vec<usize> = ids
            .into_iter()
            .take(self.config.clients_per_round)
            .collect();
        active.sort_unstable();

        let (outcomes, payloads) = self.run_active_clients(&active)?;

        // Publication phase: attach all improvements to the shared tangle.
        // With failure injection enabled, some publications are lost on
        // the (simulated) network.
        let mut published = 0;
        for (outcome, payload) in outcomes.iter().zip(payloads) {
            if let Some(payload) = payload {
                if self.config.publication_dropout > 0.0
                    && self.rng.gen::<f32>() < self.config.publication_dropout
                {
                    continue;
                }
                let id = self.tangle.attach_with_meta(
                    payload,
                    &[outcome.parents.0, outcome.parents.1],
                    Some(outcome.client),
                    self.round as u32,
                )?;
                self.graph.record_attached(&self.tangle, id)?;
                published += 1;
            }
        }
        self.retire_unreachable()?;

        let total_walk: Duration = outcomes.iter().map(|o| o.walk_duration).sum();
        let metrics = RoundMetrics {
            round: self.round,
            active_clients: outcomes.iter().map(|o| o.client).collect(),
            published,
            accuracies: outcomes.iter().map(|o| o.trained.accuracy).collect(),
            losses: outcomes.iter().map(|o| o.trained.loss).collect(),
            reference_accuracies: outcomes.iter().map(|o| o.reference.accuracy).collect(),
            mean_walk_duration: total_walk
                .checked_div(outcomes.len().max(1) as u32)
                .unwrap_or(Duration::ZERO),
            candidates_evaluated: outcomes.iter().map(|o| o.candidates_evaluated).sum(),
            walk_steps: outcomes.iter().map(|o| o.walk_steps).sum(),
            fresh_evaluations: outcomes.iter().map(|o| o.fresh_evaluations).sum(),
            cached_evaluations: outcomes.iter().map(|o| o.cached_evaluations).sum(),
        };
        self.history.push(metrics.clone());
        self.round += 1;
        Ok(metrics)
    }

    /// Retires the payloads of [`Simulation::run_round`]'s rule.
    /// Transactions attached since the last pass (an attacker's among
    /// them) join the held list first.
    fn retire_unreachable(&mut self) -> Result<(), CoreError> {
        let len = self.tangle.len();
        self.held
            .extend((self.examined..len).map(|i| TxId::from_index(i as u64)));
        self.examined = len;
        let top = self.config.walk_depth.1;
        let depths = self.tangle.capped_depths();
        let deep: Vec<TxId> = self
            .held
            .iter()
            .copied()
            .filter(|id| depths[id.index() as usize] > top)
            .collect();
        if deep.is_empty() {
            return Ok(());
        }
        retire_payloads(&mut self.tangle, &deep)?;
        self.held.retain(|id| deep.binary_search(id).is_err());
        self.retired += deep.len();
        Ok(())
    }

    /// Runs the Figure 1 loop for all active clients against the current
    /// tangle snapshot: one [`fan_out_with`] job per client, over one
    /// worker per scratch model — the machine's cores if
    /// [`DagConfig::parallel`] is set and inline otherwise. Every job
    /// walks the shared store directly: slots with no lock, structure
    /// under one read lock per call, and no write until the publication
    /// phase. A job that publishes wraps its trained weights in a
    /// [`ModelPayload::hashed`] while they are still in its core's
    /// cache, so neither retirement nor the digest reads them again.
    /// Returns the outcomes and their publications, in client order.
    fn run_active_clients(
        &mut self,
        active: &[usize],
    ) -> Result<(Vec<TrainOutcome>, Vec<Option<ModelPayload>>), CoreError> {
        let config = self.config;
        let dataset = &self.dataset;
        let tangle = &self.tangle;
        let mut clients = disjoint_mut(&mut self.clients, active, |&idx| idx);
        // Longest job first: a walk pays a forward pass for every
        // candidate its cache has not seen on a slate of two or more
        // (a lone approver costs none), so the coldest cache is the
        // longest job, and with a handful of jobs per worker the one
        // started last sets the round's tail.
        clients.sort_by_cached_key(|client| client.cache_len());
        // A client's id is its index into `clients` and the dataset.
        let mut outcomes = fan_out_with(&mut self.scratch, clients, |scratch, _, client| {
            let data = &dataset.clients()[client.id() as usize];
            let mut outcome = client.train_round_on(scratch, tangle, data, &config)?;
            let payload = outcome.published.take().map(ModelPayload::hashed);
            Ok::<_, CoreError>((outcome, payload))
        })?;
        // Back to ascending client order, the order publications attach in.
        outcomes.sort_by_key(|(outcome, _)| outcome.client);
        Ok(outcomes.into_iter().unzip())
    }

    /// Runs rounds until `config.rounds` have completed; returns the
    /// metrics of the newly run rounds.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Simulation::run_round`].
    pub fn run(&mut self) -> Result<Vec<RoundMetrics>, CoreError> {
        let mut out = Vec::new();
        while self.round < self.config.rounds {
            out.push(self.run_round()?);
        }
        Ok(out)
    }

    /// The derived client graph `G_clients` (§4.3): the edge weight
    /// between two clients is the number of direct approvals between their
    /// transactions, in either direction. Genesis approvals and
    /// self-approvals are skipped.
    ///
    /// Maintained incrementally at publish time (`O(parents)` per
    /// transaction); [`crate::client_graph_of`] re-derives the same graph
    /// by a full scan and serves as the regression oracle. An owned copy;
    /// [`ExecutionMode::client_graph`] borrows it.
    pub fn client_graph(&self) -> Graph {
        self.graph.graph().clone()
    }

    /// The approval pureness (Table 2): the fraction of approval edges
    /// whose endpoints were published by clients of the same ground-truth
    /// cluster. Maintained incrementally at publish time.
    ///
    /// Returns 1.0 when no qualifying approvals exist yet.
    pub fn approval_pureness(&self) -> f64 {
        self.graph.approval_pureness()
    }

    /// Computes the §4.3 specialization metrics of the current tangle,
    /// with Louvain seeded by the run seed and the round.
    pub fn specialization_metrics(&self) -> SpecializationMetrics {
        self.specialization_metrics_seeded(specialization_seed(self.config.seed, self.round as u64))
    }

    /// Evaluates every client's walk-selected reference model on its local
    /// test data; returns `(client, evaluation, reference tips)` triples.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn reference_evaluations(&mut self) -> Result<Vec<ReferenceEvaluation>, CoreError> {
        let config = self.config;
        let tangle = &self.tangle;
        let dataset = &self.dataset;
        let scratch = &mut self.scratch[0];
        let mut out = Vec::with_capacity(self.clients.len());
        for (idx, client) in self.clients.iter_mut().enumerate() {
            let data = &dataset.clients()[idx];
            let (params, tips) = client.reference_model(scratch, tangle, data, &config)?;
            let eval = scratch.evaluate_params(&params, data.test_x(), data.test_y())?;
            out.push((client.id(), eval, tips));
        }
        Ok(out)
    }

    /// Every client's walk-selected reference parameter vector, in
    /// client-id order — the flat points the analysis layer clusters.
    ///
    /// Like [`Simulation::reference_evaluations`], the walks draw from
    /// each client's own RNG stream, so calling this advances those
    /// streams deterministically (the same call sites always see the
    /// same state).
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn reference_parameters(&mut self) -> Result<Vec<Vec<f32>>, CoreError> {
        let config = self.config;
        let tangle = &self.tangle;
        let dataset = &self.dataset;
        let scratch = &mut self.scratch[0];
        let mut out = Vec::with_capacity(self.clients.len());
        for (idx, client) in self.clients.iter_mut().enumerate() {
            let data = &dataset.clients()[idx];
            let (params, _) = client.reference_model(scratch, tangle, data, &config)?;
            out.push(params);
        }
        Ok(out)
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.round)
            .field("clients", &self.clients.len())
            .field("transactions", &self.tangle.len())
            .finish()
    }
}

#[cfg(test)]
impl Simulation {
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

    fn factory(features: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        })
    }

    fn small_sim(rounds: usize, parallel: bool) -> Simulation {
        sized_sim(rounds, 3, parallel)
    }

    fn sized_sim(rounds: usize, clients_per_round: usize, parallel: bool) -> Simulation {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let config = DagConfig {
            rounds,
            clients_per_round,
            local_batches: 3,
            parallel,
            ..DagConfig::default()
        };
        Simulation::new(config, dataset, factory(features))
    }

    /// Checks every payload of `tangle` against `seen`, the hashes
    /// recorded while each was live: a live payload keeps the hash of
    /// its weights (and records it), a retired one the hash it had.
    fn assert_kept_hashes(tangle: &ShardedModelTangle, seen: &mut Vec<Option<u64>>) {
        seen.resize(tangle.len(), None);
        for (index, slot) in seen.iter_mut().enumerate() {
            let payload = tangle.payload_of(TxId::from_index(index as u64)).unwrap();
            let kept = payload.kept_hash();
            match payload.live() {
                Some(weights) => {
                    assert_eq!(kept, Some(crate::weights_hash(weights)), "tx{index}");
                    *slot = kept;
                }
                None => assert_eq!(kept, *slot, "retired tx{index}"),
            }
        }
    }

    #[test]
    fn every_payload_is_born_hashed_and_keeps_its_hash_through_retirement() {
        let dataset = || {
            fmnist_clustered(&FmnistConfig {
                num_clients: 6,
                samples_per_client: 40,
                ..FmnistConfig::default()
            })
        };
        let features = dataset().feature_len();
        // A window of depth 2 retires payloads from the third round on.
        let dag = DagConfig {
            rounds: 10,
            clients_per_round: 3,
            local_batches: 2,
            walk_depth: (1, 2),
            parallel: true,
            ..DagConfig::default()
        };
        let mut plain = Simulation::new(dag, dataset(), factory(features));
        let attack = crate::GarbageAttackConfig {
            dag,
            clean_rounds: 2,
        };
        let mut attacked = crate::GarbageAttackScenario::new(attack, dataset(), factory(features));
        let (mut plain_seen, mut attacked_seen) = (Vec::new(), Vec::new());
        for _ in 0..dag.rounds {
            plain.run_round().unwrap();
            attacked.run_round().unwrap();
            assert_kept_hashes(plain.tangle(), &mut plain_seen);
            assert_kept_hashes(attacked.simulation().tangle(), &mut attacked_seen);
        }
        for sim in [&plain, attacked.simulation()] {
            let (held, retired) = sim.payloads();
            assert!(held > 1 && retired > 0, "held {held}, retired {retired}");
        }
        let garbage = attacked.garbage_transactions();
        assert_eq!(garbage.len(), dag.rounds - attack.clean_rounds);
        let tangle = attacked.simulation().tangle();
        assert!(
            garbage
                .iter()
                .any(|&id| tangle.payload_of(id).unwrap().is_retired()),
            "no garbage payload retired"
        );
    }

    #[test]
    fn rounds_grow_the_tangle() {
        let mut sim = small_sim(3, false);
        assert_eq!(sim.tangle().len(), 1);
        sim.run().unwrap();
        assert_eq!(sim.round(), 3);
        assert!(sim.tangle().len() > 1, "no transactions were published");
        assert_eq!(sim.history().len(), 3);
    }

    #[test]
    fn parallel_and_sequential_both_work() {
        let mut seq = small_sim(2, false);
        let mut par = small_sim(2, true);
        seq.run().unwrap();
        par.run().unwrap();
        // Both publish transactions; exact equality is not required since
        // thread scheduling does not affect outcomes, but publication
        // ordering within a round is normalised, so the counts match.
        assert_eq!(seq.tangle().len(), par.tangle().len());
    }

    #[test]
    fn metrics_reflect_active_clients() {
        let mut sim = small_sim(1, false);
        let m = sim.run_round().unwrap();
        assert_eq!(m.active_clients.len(), 3);
        assert_eq!(m.accuracies.len(), 3);
        assert_eq!(m.losses.len(), 3);
        assert!(m.published <= 3);
    }

    #[test]
    fn client_graph_counts_approvals() {
        let mut sim = small_sim(5, false);
        sim.run().unwrap();
        let graph = sim.client_graph();
        assert_eq!(graph.num_nodes(), 6);
        // After a few rounds some inter-client approvals must exist.
        assert!(graph.total_weight() > 0.0);
    }

    /// Regression: the incrementally-maintained client graph and pureness
    /// must agree with the full re-scan oracles after every round.
    #[test]
    fn incremental_client_graph_matches_full_rescan() {
        let mut sim = small_sim(5, false);
        for _ in 0..5 {
            sim.run_round().unwrap();
            let oracle = crate::client_graph_of(sim.tangle(), sim.dataset().num_clients());
            assert_eq!(sim.client_graph().edges(), oracle.edges());
            let oracle_pureness =
                crate::approval_pureness_of(sim.tangle(), &sim.dataset().cluster_labels());
            assert!((sim.approval_pureness() - oracle_pureness).abs() < 1e-12);
        }
    }

    #[test]
    fn approval_pureness_is_a_fraction() {
        let mut sim = small_sim(5, false);
        assert_eq!(sim.approval_pureness(), 1.0, "empty tangle is pure");
        sim.run().unwrap();
        let p = sim.approval_pureness();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn specialization_metrics_are_consistent() {
        let mut sim = small_sim(6, false);
        sim.run().unwrap();
        let m = sim.specialization_metrics();
        assert!((-0.5..=1.0).contains(&m.modularity));
        assert!(m.partitions >= 1);
        assert!((0.0..=1.0).contains(&m.misclassification));
        assert_eq!(m.partition.len(), 6);
    }

    #[test]
    fn reference_evaluations_cover_all_clients() {
        let mut sim = small_sim(2, false);
        sim.run().unwrap();
        let evals = sim.reference_evaluations().unwrap();
        assert_eq!(evals.len(), 6);
        for (client, eval, _) in evals {
            assert!(client < 6);
            assert!((0.0..=1.0).contains(&eval.accuracy));
        }
    }

    /// A fixed seed fixes every result, and neither `parallel` nor the
    /// number of fan-out workers is part of it: the tangle digest, every
    /// client's evaluator counters and every round's metrics (bar the
    /// wall-clock walk duration) are identical inline and at 1, 2, 3, 7
    /// and 16 workers.
    #[test]
    fn determinism_for_fixed_seed() {
        use crate::fanout::tests::with_workers;
        let fingerprint = |sim: &Simulation| {
            let counters: Vec<_> = sim.clients.iter().map(|c| c.eval_counters()).collect();
            let history: Vec<RoundMetrics> = sim
                .history()
                .iter()
                .map(|m| RoundMetrics {
                    mean_walk_duration: Duration::ZERO,
                    ..m.clone()
                })
                .collect();
            format!(
                "{:#x} {counters:?} {history:?}",
                crate::tangle_digest(sim.tangle())
            )
        };
        let run = |parallel: bool| {
            let mut sim = sized_sim(3, 5, parallel);
            sim.run().unwrap();
            assert!(sim.tangle().len() > 1, "no transactions were published");
            fingerprint(&sim)
        };
        let sequential = run(false);
        assert_eq!(sequential, run(false), "same seed, different run");
        for workers in [1, 2, 3, 7, 16] {
            assert_eq!(
                sequential,
                with_workers(workers, || run(true)),
                "{workers} workers changed the result"
            );
        }
    }

    /// One scratch model per fan-out worker, none per client.
    #[test]
    fn models_are_per_worker_not_per_client() {
        use crate::fanout::tests::with_workers;
        assert_eq!(small_sim(1, false).models(), 1);
        assert_eq!(with_workers(3, || small_sim(1, true).models()), 3);
        // More workers than clients keep one model per client at most.
        assert_eq!(with_workers(16, || small_sim(1, true).models()), 6);
        // The factory builds the genesis and the kept models, no more.
        for (workers, kept) in [(1, 1), (3, 3), (16, 6)] {
            let dataset = fmnist_clustered(&FmnistConfig {
                num_clients: 6,
                samples_per_client: 40,
                ..FmnistConfig::default()
            });
            let (counted, calls) = crate::client::tests::counting(factory(dataset.feature_len()));
            let config = DagConfig {
                clients_per_round: 3,
                parallel: true,
                ..DagConfig::default()
            };
            with_workers(workers, || Simulation::new(config, dataset, counted));
            assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1 + kept);
        }
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn oversized_round_panics() {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients: 3,
            samples_per_client: 40,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let config = DagConfig {
            clients_per_round: 10,
            ..DagConfig::default()
        };
        Simulation::new(config, dataset, factory(features));
    }

    #[test]
    fn run_is_idempotent_after_completion() {
        let mut sim = small_sim(2, false);
        sim.run().unwrap();
        let more = sim.run().unwrap();
        assert!(more.is_empty());
        assert_eq!(sim.round(), 2);
    }
}
