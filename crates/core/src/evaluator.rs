//! Batched, cached candidate-model evaluation — the walk's hot path.

use std::collections::HashMap;

use dagfl_nn::{EvalScratch, Evaluation, Model};
use dagfl_tangle::{TangleRead, TxId};
use dagfl_tensor::Matrix;

use crate::{CoreError, ModelPayload};

/// Fresh-vs-cached evaluation counts, cumulative per evaluator.
///
/// A *fresh* evaluation is one forward pass of a candidate's parameters
/// over the client's local test data; a *cached* one is answered from
/// the per-transaction accuracy cache. Both count calls to
/// [`ModelEvaluator::score`], so a walk step onto a lone approver, which
/// the accuracy bias takes without scoring, counts as neither. Fresh
/// evaluations dominate the wall-clock time of tip selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCounters {
    /// Evaluations that ran a real forward pass.
    pub fresh: usize,
    /// Evaluations answered from the cache.
    pub cached: usize,
}

impl EvalCounters {
    /// The counts accumulated since an earlier snapshot of the same
    /// evaluator.
    pub fn since(self, earlier: EvalCounters) -> EvalCounters {
        EvalCounters {
            fresh: self.fresh - earlier.fresh,
            cached: self.cached - earlier.cached,
        }
    }

    /// Total evaluations, fresh and cached.
    pub fn total(self) -> usize {
        self.fresh + self.cached
    }

    /// Fraction of evaluations that were fresh (forward passes) rather
    /// than cache hits; `0.0` when nothing was evaluated.
    pub fn fresh_ratio(self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.fresh as f64 / self.total() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    generation: u64,
    accuracy: f32,
}

/// What a client keeps of its evaluation state between activations: the
/// generation-stamped per-transaction accuracy cache and the counters.
/// The model it scores with is a worker's, lent for one call through
/// [`ModelEvaluator::with_cache`].
#[derive(Default)]
pub(crate) struct EvalCache {
    entries: HashMap<TxId, CacheEntry>,
    generation: u64,
    counters: EvalCounters,
}

impl EvalCache {
    /// Number of cached accuracies that are valid under the current
    /// generation.
    pub(crate) fn len(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.generation == self.generation)
            .count()
    }

    /// The current generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates all cached accuracies by bumping the generation.
    pub(crate) fn invalidate(&mut self) {
        self.generation += 1;
    }

    /// Cumulative fresh/cached evaluation counts.
    pub(crate) fn counters(&self) -> EvalCounters {
        self.counters
    }
}

/// An evaluation engine: a scratch model, reusable forward-pass buffers
/// and a generation-stamped per-transaction accuracy cache.
///
/// Every step of the accuracy-biased walk (§4.2) that offers a choice
/// scores all approvers of the current transaction on the client's local
/// test data; the evaluator holds everything that scoring needs, so
/// callers hand around one `&mut ModelEvaluator` instead of threading a
/// scratch model and a bare `HashMap` separately.
///
/// The scratch model carries nothing from one call to the next: every
/// use loads the parameters it works on. So the simulators keep one
/// evaluator per worker, not per client, and a client lends it its own
/// cache for the length of a call.
///
/// # Cache generations
///
/// Payloads are immutable, so a cached accuracy stays valid as long as
/// the client's *local data* does. When the data changes (e.g. a
/// poisoning attack flips labels mid-run), [`ModelEvaluator::invalidate`]
/// bumps the generation: every cache entry is stamped with the generation
/// it was computed under and entries from older generations are ignored
/// on lookup, so a stale accuracy can never leak into a walk — there is
/// no "forgot to clear the cache" failure mode.
pub struct ModelEvaluator {
    model: Box<dyn Model>,
    scratch: EvalScratch,
    cache: EvalCache,
}

impl ModelEvaluator {
    /// Wraps a scratch model (the evaluator takes ownership; training
    /// code reaches it through [`ModelEvaluator::model_and_scratch`]).
    pub fn new(model: Box<dyn Model>) -> Self {
        Self {
            model,
            scratch: EvalScratch::new(),
            cache: EvalCache::default(),
        }
    }

    /// Runs `f` with `cache` in place of the evaluator's own: a client
    /// lends its cache to a worker's scratch model for one call, and
    /// gets it back, with what the call added, when `f` returns.
    pub(crate) fn with_cache<R>(
        &mut self,
        cache: &mut EvalCache,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        std::mem::swap(&mut self.cache, cache);
        let out = f(self);
        std::mem::swap(&mut self.cache, cache);
        out
    }

    /// The scratch model (read-only).
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The scratch model and the evaluation buffers as disjoint mutable
    /// borrows, for callers that train the model and evaluate it in the
    /// same scope.
    pub fn model_and_scratch(&mut self) -> (&mut dyn Model, &mut EvalScratch) {
        (self.model.as_mut(), &mut self.scratch)
    }

    /// The current cache generation.
    pub fn generation(&self) -> u64 {
        self.cache.generation
    }

    /// Invalidates all cached accuracies by bumping the generation.
    /// Must be called whenever the client's local data changes.
    pub fn invalidate(&mut self) {
        self.cache.invalidate();
    }

    /// Number of cached accuracies that are valid under the current
    /// generation.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative fresh/cached evaluation counts (see
    /// [`EvalCounters::since`] for per-phase deltas).
    pub fn counters(&self) -> EvalCounters {
        self.cache.counters
    }

    /// Accuracy of one transaction's model on `(x, y)`, cached per
    /// transaction id under the current generation.
    ///
    /// Mirrors the walk-bias contract: a missing transaction or an
    /// architecture mismatch scores `0.0` instead of erroring, so a
    /// malformed payload merely becomes an unattractive walk target.
    ///
    /// Generic over the storage backend: plain [`crate::ModelTangle`]s,
    /// [`crate::ShardedModelTangle`]s and replica views all score the
    /// same way.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RetiredPayload`] for a transaction whose
    /// payload was retired: no walk reaches one, so reading it is a bug
    /// to surface, not a score. An accuracy cached before the payload
    /// was retired is still served: it scored the weights that were
    /// dropped.
    pub fn score<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        id: TxId,
        x: &Matrix,
        y: &[usize],
    ) -> Result<f32, CoreError> {
        let cache = &mut self.cache;
        if let Some(entry) = cache.entries.get(&id) {
            if entry.generation == cache.generation {
                cache.counters.cached += 1;
                return Ok(entry.accuracy);
            }
        }
        let accuracy = match tangle.payload_of(id) {
            Ok(payload) => {
                let params = payload.live().ok_or(CoreError::RetiredPayload(id))?;
                cache.counters.fresh += 1;
                // Zero-copy path: evaluate straight from the payload
                // slice. Every `dagfl-nn` model has it; a model without
                // one gets the parameters loaded.
                let evaluation =
                    match self
                        .model
                        .evaluate_flat_params(params, x, y, &mut self.scratch)
                    {
                        Some(result) => result,
                        None => self.model.set_parameters(params).and_then(|()| {
                            self.model.evaluate_with_scratch(x, y, &mut self.scratch)
                        }),
                    };
                evaluation.map(|e| e.accuracy).unwrap_or(0.0)
            }
            Err(_) => 0.0,
        };
        cache.entries.insert(
            id,
            CacheEntry {
                generation: cache.generation,
                accuracy,
            },
        );
        Ok(accuracy)
    }

    /// Scores a whole candidate slate in one call, in slate order.
    ///
    /// # Errors
    ///
    /// As [`ModelEvaluator::score`], for the first retired candidate.
    pub fn score_slate<T: TangleRead<ModelPayload>>(
        &mut self,
        tangle: &T,
        candidates: &[TxId],
        x: &Matrix,
        y: &[usize],
    ) -> Result<Vec<f32>, CoreError> {
        candidates
            .iter()
            .map(|&id| self.score(tangle, id, x, y))
            .collect()
    }

    /// Evaluates an arbitrary parameter vector on `(x, y)` using the
    /// scratch model and buffers (uncached — parameter vectors have no
    /// transaction identity).
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter count or data shape mismatches.
    pub fn evaluate_params(
        &mut self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
    ) -> Result<Evaluation, CoreError> {
        self.model.set_parameters(params)?;
        Ok(self.model.evaluate_with_scratch(x, y, &mut self.scratch)?)
    }

    /// Predicts classes for `x` using an arbitrary parameter vector
    /// loaded into the scratch model.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter count or data shape mismatches.
    pub fn predict_params(&mut self, params: &[f32], x: &Matrix) -> Result<Vec<usize>, CoreError> {
        self.model.set_parameters(params)?;
        Ok(self.model.predict(x)?)
    }
}

impl std::fmt::Debug for ModelEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEvaluator")
            .field("generation", &self.generation())
            .field("cached", &self.cache_len())
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelTangle, ShardedModelTangle};
    use dagfl_nn::{Dense, Sequential};
    use dagfl_tangle::Tangle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ModelTangle, TxId, ModelEvaluator, Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let model = Sequential::new(vec![Box::new(Dense::new(&mut rng, 2, 2))]);
        let params = model.parameters();
        let mut tangle: ModelTangle = Tangle::new(ModelPayload::new(params.clone()));
        let g = tangle.genesis();
        let tip = tangle.attach(ModelPayload::new(params), &[g]).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let y = vec![0, 1];
        (tangle, tip, ModelEvaluator::new(Box::new(model)), x, y)
    }

    #[test]
    fn score_is_cached_per_transaction() {
        let (tangle, tip, mut eval, x, y) = setup();
        let first = eval.score(&tangle, tip, &x, &y).unwrap();
        let second = eval.score(&tangle, tip, &x, &y).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            eval.counters(),
            EvalCounters {
                fresh: 1,
                cached: 1
            }
        );
        assert_eq!(eval.cache_len(), 1);
    }

    #[test]
    fn invalidate_bumps_generation_and_forces_reevaluation() {
        let (tangle, tip, mut eval, x, y) = setup();
        eval.score(&tangle, tip, &x, &y).unwrap();
        assert_eq!(eval.generation(), 0);
        eval.invalidate();
        assert_eq!(eval.generation(), 1);
        assert_eq!(eval.cache_len(), 0, "stale entries are not current");
        eval.score(&tangle, tip, &x, &y).unwrap();
        assert_eq!(
            eval.counters(),
            EvalCounters {
                fresh: 2,
                cached: 0
            },
            "a bumped generation must force a fresh evaluation"
        );
        assert_eq!(eval.cache_len(), 1);
    }

    #[test]
    fn score_slate_covers_all_candidates() {
        let (tangle, tip, mut eval, x, y) = setup();
        let g = tangle.genesis();
        let scores = eval.score_slate(&tangle, &[g, tip, g], &x, &y).unwrap();
        assert_eq!(scores.len(), 3);
        assert_eq!(scores[0], scores[2], "repeated candidate hits the cache");
        assert_eq!(
            eval.counters(),
            EvalCounters {
                fresh: 2,
                cached: 1
            }
        );
    }

    #[test]
    fn missing_and_mismatched_payloads_score_zero() {
        let (mut tangle, _, mut eval, x, y) = setup();
        let g = tangle.genesis();
        let weird = tangle
            .attach(ModelPayload::new(vec![1.0; 3]), &[g])
            .unwrap();
        assert_eq!(eval.score(&tangle, weird, &x, &y).unwrap(), 0.0);
        // An id the tangle does not contain (minted by a larger tangle).
        let mut other: ModelTangle = Tangle::new(ModelPayload::new(vec![0.0]));
        let g2 = other.genesis();
        let mut missing = g2;
        for _ in 0..5 {
            missing = other
                .attach(ModelPayload::new(vec![0.0]), &[missing])
                .unwrap();
        }
        assert!(tangle.get(missing).is_err(), "id must be unknown");
        assert_eq!(eval.score(&tangle, missing, &x, &y).unwrap(), 0.0);
        // The mismatch was a real (fresh) attempt; the missing id never
        // reached the model.
        assert_eq!(eval.counters().fresh, 1);
    }

    #[test]
    fn a_retired_payload_is_an_error_not_a_score() {
        let (plain, tip, mut eval, x, y) = setup();
        let mut tangle =
            ShardedModelTangle::new(plain.get(plain.genesis()).unwrap().payload().clone());
        let g = tangle.genesis();
        let id = tangle
            .attach(plain.get(tip).unwrap().payload().clone(), &[g])
            .unwrap();
        crate::retire_payloads(&mut tangle, &[id]).unwrap();
        assert_eq!(
            eval.score(&tangle, id, &x, &y),
            Err(CoreError::RetiredPayload(id))
        );
        assert_eq!(
            eval.score_slate(&tangle, &[g, id], &x, &y),
            Err(CoreError::RetiredPayload(id))
        );
        // Neither a score nor a cache entry: only the genesis was scored.
        assert_eq!(eval.counters().fresh, 1);
        assert_eq!(eval.cache_len(), 1);
    }

    #[test]
    fn counter_deltas_isolate_phases() {
        let (tangle, tip, mut eval, x, y) = setup();
        eval.score(&tangle, tip, &x, &y).unwrap();
        let snapshot = eval.counters();
        eval.score(&tangle, tip, &x, &y).unwrap();
        eval.score(&tangle, tangle.genesis(), &x, &y).unwrap();
        let delta = eval.counters().since(snapshot);
        assert_eq!(
            delta,
            EvalCounters {
                fresh: 1,
                cached: 1
            }
        );
        assert_eq!(delta.total(), 2);
    }

    #[test]
    fn evaluate_params_matches_tangle_score() {
        let (tangle, tip, mut eval, x, y) = setup();
        let params = tangle.get(tip).unwrap().payload().share();
        let direct = eval.evaluate_params(&params, &x, &y).unwrap();
        let scored = eval.score(&tangle, tip, &x, &y).unwrap();
        assert_eq!(direct.accuracy, scored);
        assert!(eval.evaluate_params(&[0.0; 3], &x, &y).is_err());
    }
}
