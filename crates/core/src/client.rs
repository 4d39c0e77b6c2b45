//! A participating client: the four-step loop of Figure 1.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dagfl_datasets::ClientDataset;
use dagfl_nn::{average_parameters, Evaluation, Model, SgdConfig};
use dagfl_tangle::{CumulativeWeightBias, RandomWalker, TangleRead, TxId, UniformBias};

use crate::evaluator::EvalCache;
use crate::{
    weights_of, AccuracyBias, CoreError, DagConfig, EvalCounters, ModelEvaluator, ModelFactory,
    ModelPayload, PublishGate, TipSelector,
};

/// Result of one client's participation in a round.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The client that trained.
    pub client: u32,
    /// The two tips selected by the biased random walks.
    pub parents: (TxId, TxId),
    /// Performance of the averaged parent model (the client's current
    /// consensus reference) on local test data, before training.
    pub reference: Evaluation,
    /// Performance of the locally trained model on local test data.
    pub trained: Evaluation,
    /// The trained parameters if the publish rule fired (training improved
    /// the model), to be attached to the tangle.
    pub published: Option<Vec<f32>>,
    /// Wall-clock time of tip selection (both walks, including candidate
    /// evaluation) — the quantity of Figure 15.
    pub walk_duration: Duration,
    /// Total walk steps over both walks.
    pub walk_steps: usize,
    /// Total candidates offered to the walks' bias, one per approver at
    /// every step (see [`dagfl_tangle::WalkResult::candidates_evaluated`]).
    pub candidates_evaluated: usize,
    /// Fresh (forward-pass) evaluations this round, walks and publish
    /// gate included.
    pub fresh_evaluations: usize,
    /// Evaluations answered from the per-transaction accuracy cache.
    pub cached_evaluations: usize,
}

/// The client-side state of the Specializing DAG: the client's id, its
/// private RNG and its generation-stamped per-transaction accuracy cache
/// with the evaluation counters.
///
/// A client does not need a model of its own: every activation loads
/// the averaged parents into the scratch model before it trains, and
/// every candidate the walk scores is read from its payload. So a
/// simulator keeps one scratch [`ModelEvaluator`] per worker and lends
/// it to whichever client that worker runs. A client built with [`DagClient::new`]
/// stands alone (a networked peer, a benchmark) and owns its scratch
/// evaluator.
pub struct DagClient {
    id: u32,
    rng: StdRng,
    cache: EvalCache,
    /// The standalone client's own scratch evaluator; `None` for a
    /// simulator's client, which borrows its worker's.
    own: Option<ModelEvaluator>,
}

impl DagClient {
    /// Creates a standalone client that owns `model` as its scratch
    /// model.
    pub fn new(id: u32, model: Box<dyn Model>, seed: u64) -> Self {
        Self {
            own: Some(ModelEvaluator::new(model)),
            ..Self::borrowing(id, seed)
        }
    }

    /// Creates a client without a model: every call that evaluates or
    /// trains takes a worker's scratch evaluator.
    pub(crate) fn borrowing(id: u32, seed: u64) -> Self {
        Self {
            id,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            cache: EvalCache::default(),
            own: None,
        }
    }

    /// The client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of cached transaction evaluations valid under the current
    /// cache generation.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Invalidates all cached evaluations (by bumping the cache
    /// generation). Must be called when the client's local data changes
    /// (e.g. after a poisoning attack flips labels).
    pub fn clear_cache(&mut self) {
        self.cache.invalidate();
    }

    /// Cumulative fresh/cached evaluation counts of this client.
    pub fn eval_counters(&self) -> EvalCounters {
        self.cache.counters()
    }

    /// Computes the client's current reference (consensus) model: the
    /// average of the two walk-selected tips (§4.1), walking with the
    /// worker's `scratch` evaluator. Returns the parameters and the tips.
    ///
    /// # Errors
    ///
    /// Propagates tangle errors.
    pub(crate) fn reference_model<T: TangleRead<ModelPayload>>(
        &mut self,
        scratch: &mut ModelEvaluator,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<(Vec<f32>, (TxId, TxId)), CoreError> {
        let Self { rng, cache, .. } = self;
        let ((tip1, tip2), _, _) = scratch.with_cache(cache, |evaluator| {
            select_tips(evaluator, rng, tangle, data, cfg)
        })?;
        let p1 = weights_of(tangle, tip1)?;
        let p2 = weights_of(tangle, tip2)?;
        Ok((average_parameters(&[p1, p2]), (tip1, tip2)))
    }

    /// Runs the full four-step loop of Figure 1 against a tangle snapshot:
    /// biased walks → average → local training → publish decision, on
    /// the client's own scratch model.
    ///
    /// The returned [`TrainOutcome::published`] parameters must be attached
    /// to the tangle by the caller; splitting selection/training (reads)
    /// from publication (writes) lets all active clients of a round work on
    /// the same snapshot, like the paper's discrete-round simulation.
    ///
    /// # Errors
    ///
    /// Returns an error if the model architecture does not match the
    /// tangle's payloads or the dataset shape.
    ///
    /// # Panics
    ///
    /// Panics on a client without a model of its own (one a simulator
    /// built); those train on their worker's.
    pub fn train_round<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<TrainOutcome, CoreError> {
        let mut own = self
            .own
            .take()
            .expect("a simulator's client trains on its worker's scratch model");
        let outcome = self.train_round_on(&mut own, tangle, data, cfg);
        self.own = Some(own);
        outcome
    }

    /// [`DagClient::train_round`] on a worker's `scratch` evaluator.
    ///
    /// # Errors
    ///
    /// Returns an error if the model architecture does not match the
    /// tangle's payloads or the dataset shape.
    pub(crate) fn train_round_on<T: TangleRead<ModelPayload>>(
        &mut self,
        scratch: &mut ModelEvaluator,
        tangle: &T,
        data: &ClientDataset,
        cfg: &DagConfig,
    ) -> Result<TrainOutcome, CoreError> {
        let Self { id, rng, cache, .. } = self;
        scratch.with_cache(cache, |evaluator| {
            train_round(*id, evaluator, rng, tangle, data, cfg)
        })
    }
}

/// A simulator's `n` clients, each borrowing its model, and one scratch
/// evaluator per worker (at most one per client) to lend them.
///
/// Only the kept models are built; `rng` still ends where `n` factory
/// calls in id order leave it (the simulator samples from it next), for
/// the unkept models' draws, counted on a real call, are skipped by
/// [`StdRng::advance`]. Panics if a call takes more draws than its model
/// has parameters, which breaks the [`ModelFactory`] contract.
pub(crate) fn population(
    n: usize,
    workers: usize,
    factory: &ModelFactory,
    rng: &mut StdRng,
    seed: u64,
) -> (Vec<DagClient>, Vec<ModelEvaluator>) {
    let kept = workers.min(n);
    let mut draws = 0;
    let scratch = (0..kept)
        .map(|_| {
            let mut probe = rng.clone();
            let model = factory(rng);
            draws = 0;
            while probe != *rng {
                let contract = "a ModelFactory call takes at most one draw per parameter";
                assert!(draws < model.num_parameters() as u64, "{contract}");
                probe.next_u64();
                draws += 1;
            }
            ModelEvaluator::new(model)
        })
        .collect();
    rng.advance((n - kept) as u64 * draws);
    let clients = (0..n as u32)
        .map(|id| DagClient::borrowing(id, seed.wrapping_add(id as u64)))
        .collect();
    (clients, scratch)
}

/// Runs one biased random walk and returns `(tip, steps, evaluations)`.
fn walk_once<T: TangleRead<ModelPayload>>(
    evaluator: &mut ModelEvaluator,
    rng: &mut StdRng,
    tangle: &T,
    data: &ClientDataset,
    cfg: &DagConfig,
) -> Result<(TxId, usize, usize), CoreError> {
    let start = tangle.sample_walk_start(cfg.walk_depth.0, cfg.walk_depth.1, rng);
    let walker = RandomWalker::new();
    match cfg.tip_selector {
        TipSelector::Accuracy {
            alpha,
            normalization,
        } => {
            let mut bias = AccuracyBias::new(
                evaluator,
                data.test_x(),
                data.test_y(),
                alpha,
                normalization,
            );
            if let Some(margin) = cfg.walk_stop_margin {
                bias = bias.with_stop_margin(margin);
            }
            let result = walker.walk(tangle, start, &mut bias, rng)?;
            bias.finish()?;
            Ok((result.tip, result.steps, result.candidates_evaluated))
        }
        TipSelector::Random => {
            let result = walker.walk(tangle, start, &mut UniformBias, rng)?;
            Ok((result.tip, result.steps, 0))
        }
        TipSelector::CumulativeWeight { alpha } => {
            let mut bias = CumulativeWeightBias::new(alpha);
            let result = walker.walk(tangle, start, &mut bias, rng)?;
            Ok((result.tip, result.steps, 0))
        }
    }
}

/// Two independent walks: `((tip1, tip2), steps, evaluations)`.
fn select_tips<T: TangleRead<ModelPayload>>(
    evaluator: &mut ModelEvaluator,
    rng: &mut StdRng,
    tangle: &T,
    data: &ClientDataset,
    cfg: &DagConfig,
) -> Result<((TxId, TxId), usize, usize), CoreError> {
    let (tip1, steps1, eval1) = walk_once(evaluator, rng, tangle, data, cfg)?;
    let (tip2, steps2, eval2) = walk_once(evaluator, rng, tangle, data, cfg)?;
    Ok(((tip1, tip2), steps1 + steps2, eval1 + eval2))
}

/// The four-step loop of Figure 1 for `client`, on an evaluator that
/// holds the client's cache.
fn train_round<T: TangleRead<ModelPayload>>(
    client: u32,
    evaluator: &mut ModelEvaluator,
    rng: &mut StdRng,
    tangle: &T,
    data: &ClientDataset,
    cfg: &DagConfig,
) -> Result<TrainOutcome, CoreError> {
    let counters_start = evaluator.counters();
    // Step 1: biased random walks select two tips.
    let walk_started = Instant::now();
    let ((tip1, tip2), walk_steps, candidates_evaluated) =
        select_tips(evaluator, rng, tangle, data, cfg)?;
    let walk_duration = walk_started.elapsed();
    // Step 2: average the two models. The default publish gate
    // compares against the *best* approved parent (the client's
    // current consensus view): this keeps a client from publishing a
    // model that only improved relative to a bad average — e.g. one
    // contaminated by a random-weight attacker (§4.4).
    let p1 = weights_of(tangle, tip1)?;
    let p2 = weights_of(tangle, tip2)?;
    // `score` maps malformed payloads to accuracy 0.0 (an
    // unattractive walk target), so guard the averaging explicitly:
    // mismatched parent lengths must surface as an error, not as an
    // `average_parameters` panic.
    if p1.len() != p2.len() {
        return Err(CoreError::Config(format!(
            "selected tips carry incompatible models ({} vs {} parameters)",
            p1.len(),
            p2.len()
        )));
    }
    let mut consensus_accuracy = 0.0f32;
    if cfg.publish_gate == PublishGate::BestParent {
        for tip in [tip1, tip2] {
            let acc = evaluator.score(tangle, tip, data.test_x(), data.test_y())?;
            consensus_accuracy = consensus_accuracy.max(acc);
        }
    }
    let averaged = average_parameters(&[p1, p2]);
    let reference = evaluator.evaluate_params(&averaged, data.test_x(), data.test_y())?;
    // Step 3: train on local data (fixed batch budget, Table 1);
    // optionally with frozen leading layers (partial-layer
    // personalisation). Parameters are already loaded from the
    // reference evaluation above — which is also why the scratch model
    // may come from any worker: nothing it held before is read.
    let mut opt = SgdConfig::new(cfg.learning_rate);
    if cfg.frozen_prefix > 0 {
        opt = opt.with_frozen_prefix(cfg.frozen_prefix);
    }
    let (model, scratch) = evaluator.model_and_scratch();
    for _ in 0..cfg.local_epochs {
        for (x, y) in data.train_batches(cfg.batch_size, cfg.local_batches, rng) {
            model.train_batch(&x, &y, &opt)?;
        }
    }
    let trained = model.evaluate_with_scratch(data.test_x(), data.test_y(), scratch)?;
    // Step 4: publish only if training improved on the consensus,
    // with ties broken by loss against the averaged reference so that
    // early chance-level rounds can still make progress.
    let improved = match cfg.publish_gate {
        PublishGate::BestParent => {
            let gate = consensus_accuracy.max(reference.accuracy);
            trained.accuracy > gate || (trained.accuracy == gate && trained.loss < reference.loss)
        }
        PublishGate::AveragedReference => {
            trained.accuracy > reference.accuracy
                || (trained.accuracy == reference.accuracy && trained.loss < reference.loss)
        }
        PublishGate::Always => true,
    };
    let published = improved.then(|| evaluator.model().parameters());
    let counters = evaluator.counters().since(counters_start);
    Ok(TrainOutcome {
        client,
        parents: (tip1, tip2),
        reference,
        trained,
        published,
        walk_duration,
        walk_steps,
        candidates_evaluated,
        fresh_evaluations: counters.fresh,
        cached_evaluations: counters.cached,
    })
}

impl std::fmt::Debug for DagClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagClient")
            .field("id", &self.id)
            .field("generation", &self.cache.generation())
            .field("cached", &self.cache_len())
            .field("counters", &self.eval_counters())
            .field("owns_model", &self.own.is_some())
            .finish()
    }
}

#[cfg(test)]
impl DagClient {
    /// Whether the client owns a scratch model (a standalone client).
    pub(crate) fn owns_model(&self) -> bool {
        self.own.is_some()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ModelTangle;
    use dagfl_datasets::{fmnist_clustered, poets, FmnistConfig, PoetsConfig, POETS_VOCAB};
    use dagfl_nn::{char_rnn, Dense, Relu, Sequential};
    use dagfl_tangle::Tangle;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_dataset() -> dagfl_datasets::FederatedDataset {
        fmnist_clustered(&FmnistConfig {
            num_clients: 3,
            samples_per_client: 60,
            ..FmnistConfig::default()
        })
    }

    fn make_model(seed: u64, features: usize) -> Box<dyn Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(Sequential::new(vec![
            Box::new(Dense::new(&mut rng, features, 16)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 16, 10)),
        ]))
    }

    fn config() -> DagConfig {
        DagConfig {
            rounds: 1,
            clients_per_round: 1,
            local_batches: 5,
            ..DagConfig::default()
        }
    }

    #[test]
    fn train_round_from_genesis_publishes_improvement() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis = ModelPayload::new(model.parameters());
        let tangle: ModelTangle = Tangle::new(genesis);
        let mut client = DagClient::new(0, model, 7);
        let outcome = client
            .train_round(&tangle, &ds.clients()[0], &config())
            .unwrap();
        assert_eq!(outcome.client, 0);
        // Both walks start and end at the genesis.
        assert_eq!(outcome.parents.0, tangle.genesis());
        assert_eq!(outcome.parents.1, tangle.genesis());
        // Training from random init on separable data must improve.
        assert!(outcome.published.is_some(), "expected publication");
        assert!(outcome.trained.accuracy >= outcome.reference.accuracy);
    }

    #[test]
    fn a_retired_tip_fails_the_averaging_and_the_walk_with_its_id() {
        let ds = small_dataset();
        let model = make_model(0, ds.feature_len());
        let params = model.parameters();
        let mut tangle = crate::ShardedModelTangle::new(ModelPayload::new(params.clone()));
        let g = tangle.genesis();
        let lone = tangle
            .attach(ModelPayload::new(params.clone()), &[g])
            .unwrap();
        crate::retire_payloads(&mut tangle, &[lone]).unwrap();
        let mut client = DagClient::new(0, model, 7);
        // A lone approver is stepped to unscored: the walks end on the
        // retired tip, and averaging it fails.
        let err = client.train_round(&tangle, &ds.clients()[0], &config());
        assert_eq!(err.unwrap_err(), CoreError::RetiredPayload(lone));
        // Beside a live sibling the walk scores the slate, and the first
        // walk fails there.
        let live = tangle.attach(ModelPayload::new(params), &[g]).unwrap();
        let err = client.train_round(&tangle, &ds.clients()[0], &config());
        assert_eq!(err.unwrap_err(), CoreError::RetiredPayload(lone));
        assert!(client.cache_len() <= 1, "only {live:?} may be scored");
    }

    #[test]
    fn caches_accumulate_and_clear() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        // Two tips for the walk to evaluate.
        tangle
            .attach(ModelPayload::new(genesis_params.clone()), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(1, model, 7);
        client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(
            client.cache_len() >= 2,
            "walk should have cached evaluations"
        );
        client.clear_cache();
        assert_eq!(client.cache_len(), 0);
    }

    #[test]
    fn random_selector_evaluates_no_models() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(2, model, 7);
        let cfg = config().with_tip_selector(TipSelector::Random);
        let outcome = client.train_round(&tangle, &ds.clients()[2], &cfg).unwrap();
        // The walk itself evaluates nothing with the random selector; only
        // the publish gate inspects the (at most two) selected parents.
        assert_eq!(outcome.candidates_evaluated, 0);
        assert!(client.cache_len() <= 2);
    }

    #[test]
    fn incompatible_parent_models_error_instead_of_panicking() {
        // A tangle whose only two tips carry different parameter counts:
        // both walks are forced onto mismatched parents, which must
        // surface as an error (previously the BestParent gate caught it;
        // the evaluator's score-to-zero contract must not turn it into
        // an `average_parameters` panic).
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let n = model.num_parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0; n]));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(vec![0.0; n]), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(vec![1.0; 3]), &[g])
            .unwrap();
        let mut client = DagClient::new(0, model, 7);
        let mut saw_mismatch_error = false;
        for _ in 0..30 {
            match client.train_round(&tangle, &ds.clients()[0], &config()) {
                // Rounds where both walks land on the same tip either
                // succeed (valid payload) or fail with a parameter-count
                // error (malformed payload) — both acceptable here.
                Ok(_) => {}
                Err(e) if e.to_string().contains("incompatible") => saw_mismatch_error = true,
                Err(e) => assert!(e.to_string().contains("parameter"), "{e}"),
            }
        }
        assert!(
            saw_mismatch_error,
            "walks never selected the mismatched tip pair"
        );
    }

    #[test]
    fn cleared_cache_forces_fresh_reevaluation() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis_params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(genesis_params.clone()));
        let g = tangle.genesis();
        tangle
            .attach(ModelPayload::new(genesis_params.clone()), &[g])
            .unwrap();
        tangle
            .attach(ModelPayload::new(genesis_params), &[g])
            .unwrap();
        let mut client = DagClient::new(1, model, 7);
        // First round fills the cache with fresh evaluations.
        let first = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(first.fresh_evaluations > 0);
        // Second round against the unchanged tangle: walks are answered
        // from the cache.
        let second = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert_eq!(second.fresh_evaluations, 0, "unchanged data re-evaluated");
        assert!(second.cached_evaluations > 0);
        // Simulate a local-data change: the generation bump must force
        // fresh evaluations of the very same transactions.
        client.clear_cache();
        let third = client
            .train_round(&tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(
            third.fresh_evaluations >= first.fresh_evaluations.min(2),
            "generation bump must force re-evaluation, got {third:?}"
        );
    }

    #[test]
    fn reference_model_averages_tips() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let n = model.num_parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0; n]));
        let g = tangle.genesis();
        // A single tip with all-ones: reference = average(tip, tip) = ones
        // (both walks must end at the unique tip).
        tangle
            .attach(ModelPayload::new(vec![1.0; n]), &[g])
            .unwrap();
        let mut scratch = ModelEvaluator::new(model);
        let mut client = DagClient::borrowing(0, 7);
        let (params, (t1, t2)) = client
            .reference_model(&mut scratch, &tangle, &ds.clients()[0], &config())
            .unwrap();
        assert_eq!(t1, t2);
        assert!(params.iter().all(|&p| (p - 1.0).abs() < 1e-6));
    }

    #[test]
    fn walk_duration_is_measured() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let model = make_model(0, features);
        let genesis = ModelPayload::new(model.parameters());
        let tangle: ModelTangle = Tangle::new(genesis);
        let mut client = DagClient::new(0, model, 7);
        let outcome = client
            .train_round(&tangle, &ds.clients()[0], &config())
            .unwrap();
        // Positive but far below a second for a genesis-only tangle.
        assert!(outcome.walk_duration < Duration::from_secs(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        let features = ds.feature_len();
        let run = |seed: u64| {
            let model = make_model(0, features);
            let genesis = ModelPayload::new(model.parameters());
            let tangle: ModelTangle = Tangle::new(genesis);
            let mut client = DagClient::new(0, model, seed);
            client
                .train_round(&tangle, &ds.clients()[0], &config())
                .unwrap()
                .published
        };
        assert_eq!(run(7), run(7));
    }

    /// The bits of an outcome that a borrowed scratch model could
    /// disturb: the published parameters, both evaluations, the tips
    /// and every count.
    fn outcome_bits(o: &TrainOutcome) -> impl PartialEq + std::fmt::Debug {
        let eval = |e: &Evaluation| (e.loss.to_bits(), e.accuracy.to_bits(), e.correct, e.total);
        (
            o.published
                .as_ref()
                .map(|p| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>()),
            eval(&o.reference),
            eval(&o.trained),
            o.parents,
            (o.walk_steps, o.candidates_evaluated),
            (o.fresh_evaluations, o.cached_evaluations),
        )
    }

    /// One client's activation on a model fresh from `make` equals, bit
    /// for bit, the same activation on a model that another client has
    /// just trained and evaluated on its own data.
    fn assert_lent_model_carries_nothing(
        ds: &dagfl_datasets::FederatedDataset,
        make: &dyn Fn(u64) -> Box<dyn Model>,
    ) {
        // Three tips beside the genesis, so the walks score candidates.
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(make(1).parameters()));
        let g = tangle.genesis();
        for seed in 2..5 {
            tangle
                .attach(ModelPayload::new(make(seed).parameters()), &[g])
                .unwrap();
        }
        let activate = |scratch: &mut ModelEvaluator| {
            let mut client = DagClient::borrowing(0, 7);
            let outcome = client
                .train_round_on(scratch, &tangle, &ds.clients()[0], &config())
                .unwrap();
            assert!(outcome.fresh_evaluations > 0, "the walks scored nothing");
            outcome_bits(&outcome)
        };
        let fresh = activate(&mut ModelEvaluator::new(make(11)));

        let mut used = ModelEvaluator::new(make(12));
        let mut other = DagClient::borrowing(1, 9);
        other
            .train_round_on(&mut used, &tangle, &ds.clients()[1], &config())
            .unwrap();
        assert!(
            other.cache_len() > 0,
            "the lent cache went back to its client"
        );
        assert_eq!(used.cache_len(), 0, "the worker kept none of it");
        assert_eq!(fresh, activate(&mut used), "{}", ds.name());
    }

    /// A scratch model carries nothing from one client to the next, for
    /// the MLP and for the char-rnn.
    #[test]
    fn a_lent_scratch_model_carries_nothing_between_clients() {
        let mlp_data = small_dataset();
        let features = mlp_data.feature_len();
        assert_lent_model_carries_nothing(&mlp_data, &|seed| make_model(seed, features));
        let rnn_data = poets(&PoetsConfig {
            clients_per_language: 1,
            samples_per_client: 40,
            seq_len: 6,
            ..PoetsConfig::default()
        });
        assert_lent_model_carries_nothing(&rnn_data, &|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Box::new(char_rnn(&mut rng, POETS_VOCAB.len(), 8, 16))
        });
    }

    /// The loop [`population`] replaced: one factory call per client, in
    /// id order, keeping the first `workers` models.
    fn population_oracle(
        n: usize,
        workers: usize,
        factory: &ModelFactory,
        rng: &mut StdRng,
        seed: u64,
    ) -> (Vec<DagClient>, Vec<ModelEvaluator>) {
        let mut scratch = Vec::with_capacity(workers.min(n));
        let mut clients = Vec::with_capacity(n);
        for id in 0..n as u32 {
            let model = factory(rng);
            if scratch.len() < workers {
                scratch.push(ModelEvaluator::new(model));
            }
            clients.push(DagClient::borrowing(id, seed.wrapping_add(id as u64)));
        }
        (clients, scratch)
    }

    /// The MLP over `hidden` (the linear model when empty) on 6 features
    /// and 3 classes, or, with `rnn`, the char-rnn over a 5-symbol vocab
    /// with the first two widths as its embedding and GRU widths.
    fn test_factory(rnn: bool, hidden: Vec<usize>) -> ModelFactory {
        if rnn {
            let (embed, width) = (hidden[0], hidden[hidden.len() - 1]);
            return Arc::new(move |rng: &mut StdRng| {
                Box::new(char_rnn(rng, 5, embed, width)) as Box<dyn Model>
            });
        }
        Arc::new(move |rng: &mut StdRng| {
            let mut layers: Vec<Box<dyn dagfl_nn::Layer>> = Vec::new();
            let mut width = 6;
            for &h in &hidden {
                layers.push(Box::new(Dense::new(rng, width, h)));
                layers.push(Box::new(Relu::new()));
                width = h;
            }
            layers.push(Box::new(Dense::new(rng, width, 3)));
            Box::new(Sequential::new(layers)) as Box<dyn Model>
        })
    }

    /// `inner`, and the number of times it has run.
    pub(crate) fn counting(inner: ModelFactory) -> (ModelFactory, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            counted.fetch_add(1, Ordering::Relaxed);
            inner(rng)
        });
        (factory, calls)
    }

    fn factory_calls(n: usize, workers: usize) -> usize {
        let (factory, calls) = counting(test_factory(false, vec![4]));
        population(n, workers, &factory, &mut StdRng::seed_from_u64(3), 5);
        calls.load(Ordering::Relaxed)
    }

    /// The factory runs once per kept model, not once per client.
    #[test]
    fn population_calls_the_factory_once_per_kept_model() {
        for (n, workers) in [(1, 1), (6, 1), (6, 3), (6, 6), (6, 16), (300, 7)] {
            assert_eq!(
                factory_calls(n, workers),
                workers.min(n),
                "n {n}, {workers} workers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a ModelFactory call takes at most one draw per parameter")]
    fn a_factory_drawing_twice_per_parameter_panics() {
        let inner = test_factory(false, vec![4]);
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            let model = inner(rng);
            (0..model.num_parameters()).for_each(|_| {
                rng.next_u64();
            });
            model
        });
        population(4, 1, &factory, &mut StdRng::seed_from_u64(3), 5);
    }

    proptest::proptest! {
        /// `population` leaves `rng` where building every client's model
        /// does, with the same clients and the same kept models, for the
        /// MLP over random widths, the linear model and the char-rnn, at
        /// fewer, as many and more workers than clients (half the cases
        /// have at most 8 clients).
        #[test]
        fn population_matches_building_every_model(
            ((rnn, few, seed), hidden, n, workers) in (
                (
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<u64>(),
                ),
                proptest::collection::vec(1..12usize, 0..4),
                1..300usize,
                1..8usize,
            ),
        ) {
            let n = if few { n % 8 + 1 } else { n };
            let hidden = if rnn && hidden.is_empty() { vec![3] } else { hidden };
            let factory = test_factory(rnn, hidden);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let (clients, scratch) = population(n, workers, &factory, &mut rng, seed);
            let (oracle_clients, oracle_scratch) =
                population_oracle(n, workers, &factory, &mut oracle_rng, seed);
            proptest::prop_assert_eq!(rng, oracle_rng);
            let client_ids = |c: &[DagClient]| -> Vec<(u32, StdRng)> {
                c.iter().map(|c| (c.id, c.rng.clone())).collect()
            };
            proptest::prop_assert_eq!(client_ids(&clients), client_ids(&oracle_clients));
            let params = |s: &[ModelEvaluator]| -> Vec<Vec<f32>> {
                s.iter().map(|e| e.model().parameters()).collect()
            };
            proptest::prop_assert_eq!(params(&scratch), params(&oracle_scratch));
        }
    }
}
