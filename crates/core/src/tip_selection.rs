//! The paper's accuracy-aware walk bias (§4.2).

use dagfl_tangle::{TangleRead, TxId, WalkBias};
use dagfl_tensor::Matrix;

use crate::{CoreError, ModelEvaluator, ModelPayload, Normalization};

/// Accuracy-aware transition weights for the biased random walk.
///
/// At every step of the walk, all candidate models (the approvers of the
/// current transaction) are scored as one slate on the *client's local
/// test data*; the transition weight of candidate `i` is
///
/// ```text
/// normalized_i = accuracy_i − max(accuracies)               (Eq. 1, Simple)
/// normalized*_i = normalized_i / (max − min)                (Eq. 3, Dynamic)
/// weight_i = exp(alpha · normalized_i)                      (Eq. 2)
/// ```
///
/// A slate of one is its own maximum, so its weight is `exp(0) = 1`
/// under either normalization: a lone approver is stepped to without
/// being scored, and only a real choice costs forward passes.
///
/// The bias borrows a [`ModelEvaluator`] holding the scratch model, the
/// reusable forward-pass buffers and the client's generation-stamped
/// per-transaction accuracy cache — see the evaluator docs for when
/// cached accuracies are invalidated.
///
/// A score that fails (a retired payload: see
/// [`ModelEvaluator::score`]) stops the walk at its next step, and
/// [`AccuracyBias::finish`] returns the error.
pub struct AccuracyBias<'a> {
    evaluator: &'a mut ModelEvaluator,
    test_x: &'a Matrix,
    test_y: &'a [usize],
    alpha: f32,
    normalization: Normalization,
    stop_margin: Option<f32>,
    failure: Option<CoreError>,
}

impl<'a> AccuracyBias<'a> {
    /// Creates a bias scoring candidates with `evaluator` on the given
    /// local test data.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(
        evaluator: &'a mut ModelEvaluator,
        test_x: &'a Matrix,
        test_y: &'a [usize],
        alpha: f32,
        normalization: Normalization,
    ) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be finite and non-negative, got {alpha}"
        );
        Self {
            evaluator,
            test_x,
            test_y,
            alpha,
            normalization,
            stop_margin: None,
            failure: None,
        }
    }

    /// Enables the accuracy-cliff guard: the walk terminates at the
    /// current transaction when *every* approver scores at least `margin`
    /// below it on the local test data.
    ///
    /// This refuses forced steps into flooded regions of the DAG (a
    /// random-weight attacker's transactions have near-chance accuracy) at
    /// the cost of sometimes approving non-tip transactions.
    pub fn with_stop_margin(mut self, margin: f32) -> Self {
        assert!(
            margin.is_finite() && margin > 0.0,
            "stop margin must be finite and positive, got {margin}"
        );
        self.stop_margin = Some(margin);
        self
    }

    /// The first error a score of this walk failed with, if any: a walk
    /// that read a retired payload ends there, and its tip is not one.
    ///
    /// # Errors
    ///
    /// Returns that error.
    pub fn finish(self) -> Result<(), CoreError> {
        self.failure.map_or(Ok(()), Err)
    }

    /// Keeps the first failure of a score; a failed score reads `0.0`.
    fn checked(&mut self, score: Result<f32, CoreError>) -> f32 {
        score.unwrap_or_else(|e| {
            self.failure.get_or_insert(e);
            0.0
        })
    }

    /// Applies Eq. 1–3 to raw accuracies. An empty slate yields an empty
    /// weight vector (instead of folding to `max = -inf` and exponentiating
    /// infinities).
    fn normalize(accuracies: &[f32], alpha: f32, normalization: Normalization) -> Vec<f32> {
        if accuracies.is_empty() {
            return Vec::new();
        }
        let max = accuracies.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = accuracies.iter().copied().fold(f32::INFINITY, f32::min);
        accuracies
            .iter()
            .map(|&acc| {
                let normalized = match normalization {
                    Normalization::Simple => acc - max,
                    Normalization::Dynamic => {
                        let spread = max - min;
                        if spread > 0.0 {
                            (acc - max) / spread
                        } else {
                            0.0
                        }
                    }
                };
                (alpha * normalized).exp()
            })
            .collect()
    }
}

impl<T: TangleRead<ModelPayload>> WalkBias<ModelPayload, T> for AccuracyBias<'_> {
    fn weights(&mut self, tangle: &T, _current: TxId, candidates: &[TxId]) -> Vec<f32> {
        // A lone approver normalizes to `exp(alpha · 0) = 1` whatever it
        // scores (accuracies are finite, never NaN), so it costs no
        // forward pass; the walker still draws for the step.
        if candidates.len() == 1 {
            return vec![1.0];
        }
        let accuracies =
            match self
                .evaluator
                .score_slate(tangle, candidates, self.test_x, self.test_y)
            {
                Ok(accuracies) => accuracies,
                Err(e) => {
                    self.failure.get_or_insert(e);
                    vec![0.0; candidates.len()]
                }
            };
        Self::normalize(&accuracies, self.alpha, self.normalization)
    }

    fn should_stop(&mut self, tangle: &T, current: TxId, candidates: &[TxId]) -> bool {
        if self.failure.is_some() {
            return true;
        }
        let Some(margin) = self.stop_margin else {
            return false;
        };
        let (x, y) = (self.test_x, self.test_y);
        let current_acc = self.evaluator.score(tangle, current, x, y);
        let current_acc = self.checked(current_acc);
        candidates.iter().all(|&c| {
            let acc = self.evaluator.score(tangle, c, x, y);
            self.checked(acc) < current_acc - margin
        }) || self.failure.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalCounters;
    use dagfl_nn::{Dense, Model, Sequential, SgdConfig};
    use dagfl_tangle::{RandomWalker, Tangle};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Toy task: features, labels, "good" params, "bad" params, evaluator.
    type ToySetup = (Matrix, Vec<usize>, Vec<f32>, Vec<f32>, ModelEvaluator);

    /// A 2-feature, 2-class toy task plus a trained "good" model and an
    /// untrained "bad" model.
    fn toy_setup() -> ToySetup {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[0.1, 0.9]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut good = Sequential::new(vec![Box::new(Dense::new(&mut rng, 2, 2))]);
        let opt = SgdConfig::new(0.5);
        for _ in 0..200 {
            good.train_batch(&x, &y, &opt).unwrap();
        }
        let good_params = good.parameters();
        // The "bad" model predicts labels flipped.
        let mut bad = Sequential::new(vec![Box::new(Dense::new(&mut rng, 2, 2))]);
        let y_flipped = vec![1, 1, 0, 0];
        for _ in 0..200 {
            bad.train_batch(&x, &y_flipped, &opt).unwrap();
        }
        let bad_params = bad.parameters();
        let scratch: Box<dyn Model> =
            Box::new(Sequential::new(vec![Box::new(Dense::new(&mut rng, 2, 2))]));
        (x, y, good_params, bad_params, ModelEvaluator::new(scratch))
    }

    #[test]
    fn normalize_simple_matches_equations() {
        let w = AccuracyBias::normalize(&[0.5, 0.9], 10.0, Normalization::Simple);
        // Best candidate has normalized 0 -> weight 1.
        assert!((w[1] - 1.0).abs() < 1e-6);
        assert!((w[0] - (-4.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn normalize_empty_slate_is_empty() {
        // Regression: an empty slate used to fold to `max = -inf` and
        // feed `exp(alpha * -inf)` (and `-inf / 0` spreads) downstream.
        for normalization in [Normalization::Simple, Normalization::Dynamic] {
            let w = AccuracyBias::normalize(&[], 10.0, normalization);
            assert!(w.is_empty(), "{normalization:?} must yield no weights");
        }
    }

    #[test]
    fn normalize_dynamic_rescales_spread() {
        // Tiny spread: simple normalization barely discriminates, dynamic
        // stretches it to the full [-1, 0] range.
        let simple = AccuracyBias::normalize(&[0.500, 0.501], 10.0, Normalization::Simple);
        let dynamic = AccuracyBias::normalize(&[0.500, 0.501], 10.0, Normalization::Dynamic);
        let ratio_simple = simple[0] / simple[1];
        let ratio_dynamic = dynamic[0] / dynamic[1];
        assert!(ratio_simple > 0.95, "simple should barely discriminate");
        assert!(
            ratio_dynamic < 0.01,
            "dynamic should strongly discriminate, got {ratio_dynamic}"
        );
    }

    #[test]
    fn normalize_dynamic_equal_accuracies_is_uniform() {
        let w = AccuracyBias::normalize(&[0.5, 0.5, 0.5], 100.0, Normalization::Dynamic);
        for v in w {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_alpha_ignores_accuracy() {
        let w = AccuracyBias::normalize(&[0.1, 0.9], 0.0, Normalization::Simple);
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn walk_prefers_accurate_branch() {
        let (x, y, good_params, bad_params, mut evaluator) = toy_setup();
        // genesis -> {good tip, bad tip}
        let mut tangle: Tangle<ModelPayload> =
            Tangle::new(ModelPayload::new(vec![0.0; good_params.len()]));
        let g = tangle.genesis();
        let good_tip = tangle.attach(ModelPayload::new(good_params), &[g]).unwrap();
        let _bad_tip = tangle.attach(ModelPayload::new(bad_params), &[g]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut good_count = 0;
        for _ in 0..50 {
            let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 50.0, Normalization::Simple);
            let r = RandomWalker::new()
                .walk(&tangle, g, &mut bias, &mut rng)
                .unwrap();
            if r.tip == good_tip {
                good_count += 1;
            }
        }
        assert!(
            good_count >= 48,
            "biased walk chose the good tip only {good_count}/50 times"
        );
    }

    #[test]
    fn cache_avoids_reevaluation() {
        let (x, y, good_params, bad_params, mut evaluator) = toy_setup();
        let mut tangle: Tangle<ModelPayload> =
            Tangle::new(ModelPayload::new(vec![0.0; good_params.len()]));
        let g = tangle.genesis();
        tangle.attach(ModelPayload::new(good_params), &[g]).unwrap();
        tangle.attach(ModelPayload::new(bad_params), &[g]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // First walk: evaluates genesis children (2 fresh evaluations).
        let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Simple);
        RandomWalker::new()
            .walk(&tangle, g, &mut bias, &mut rng)
            .unwrap();
        assert_eq!(evaluator.counters().fresh, 2);
        // Second walk: everything cached.
        let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Simple);
        RandomWalker::new()
            .walk(&tangle, g, &mut bias, &mut rng)
            .unwrap();
        assert_eq!(evaluator.counters().fresh, 2, "no new fresh evaluations");
        assert_eq!(evaluator.counters().cached, 2);
    }

    #[test]
    fn incompatible_payload_scores_zero() {
        let (x, y, good_params, _, mut evaluator) = toy_setup();
        let mut tangle: Tangle<ModelPayload> =
            Tangle::new(ModelPayload::new(vec![0.0; good_params.len()]));
        let g = tangle.genesis();
        // A payload with the wrong parameter count.
        let weird = tangle
            .attach(ModelPayload::new(vec![1.0; 3]), &[g])
            .unwrap();
        let good = tangle.attach(ModelPayload::new(good_params), &[g]).unwrap();
        // Beside a sound model, so the slate is scored (a lone approver
        // is not).
        let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Simple);
        let w = bias.weights(&tangle, g, &[weird, good]);
        assert_eq!(w.len(), 2);
        assert!(w[0] < w[1], "the malformed payload is the unattractive one");
        assert_eq!(evaluator.score(&tangle, weird, &x, &y).unwrap(), 0.0);
        assert_eq!(evaluator.counters().cached, 1, "the slate scored it");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_panics() {
        let (x, y, _, _, mut evaluator) = toy_setup();
        AccuracyBias::new(&mut evaluator, &x, &y, -1.0, Normalization::Simple);
    }

    /// The oracle: Eq. 1–3 applied to every slate, a slate of one
    /// included, stopping exactly where `AccuracyBias` does.
    struct ScoreEverything<'a>(AccuracyBias<'a>);

    impl<T: TangleRead<ModelPayload>> WalkBias<ModelPayload, T> for ScoreEverything<'_> {
        fn weights(&mut self, tangle: &T, _current: TxId, candidates: &[TxId]) -> Vec<f32> {
            let bias = &mut self.0;
            let accuracies = bias
                .evaluator
                .score_slate(tangle, candidates, bias.test_x, bias.test_y)
                .unwrap();
            AccuracyBias::normalize(&accuracies, bias.alpha, bias.normalization)
        }

        fn should_stop(&mut self, tangle: &T, current: TxId, candidates: &[TxId]) -> bool {
            self.0.should_stop(tangle, current, candidates)
        }
    }

    const FEATURES: usize = 3;
    const CLASSES: usize = 3;

    fn small_model(rng: &mut StdRng) -> Box<dyn Model> {
        Box::new(Sequential::new(vec![Box::new(Dense::new(
            rng, FEATURES, CLASSES,
        ))]))
    }

    /// A random tangle of `len` transactions in one of three shapes: a
    /// chain (every slate holds one approver), forks (each transaction
    /// approves one earlier one) or a DAG (two parents each). No
    /// transaction gets more than six approvers. Payloads are random
    /// weights, so candidates score differently; about one in ten has the
    /// wrong parameter count and scores zero.
    fn random_tangle(seed: u64, len: usize, shape: u8) -> Tangle<ModelPayload> {
        let mut rng = StdRng::seed_from_u64(seed);
        let param_count = FEATURES * CLASSES + CLASSES;
        let payload = |rng: &mut StdRng| {
            let count = if rng.gen_bool(0.1) { 5 } else { param_count };
            ModelPayload::new((0..count).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        };
        let mut tangle = Tangle::new(payload(&mut rng));
        let mut approvers = vec![0usize];
        for i in 1..len {
            let mut pick = |rng: &mut StdRng| loop {
                let j = if rng.gen_bool(0.5) {
                    i - 1 - rng.gen_range(0..i.min(3))
                } else {
                    rng.gen_range(0..i)
                };
                if approvers[j] < 6 {
                    approvers[j] += 1;
                    return TxId::from_index(j as u64);
                }
            };
            let parents = match shape {
                0 => vec![TxId::from_index(i as u64 - 1)],
                1 => vec![pick(&mut rng)],
                _ => {
                    let first = pick(&mut rng);
                    let second = pick(&mut rng);
                    if second == first {
                        approvers[first.index() as usize] -= 1;
                    }
                    vec![first, second]
                }
            };
            tangle.attach(payload(&mut rng), &parents).unwrap();
            approvers.push(0);
        }
        tangle
    }

    proptest::proptest! {
        /// Skipping the forward pass for a lone approver changes nothing a
        /// walk returns: against the score-everything oracle, the tip,
        /// the steps, `candidates_evaluated` and the RNG stream after the
        /// walk all agree, under both normalizations, with and without a
        /// stop margin, over several walks sharing one cache.
        #[test]
        fn unscored_lone_approver_walks_as_the_scoring_oracle(
            (tangle_seed, len, shape) in (proptest::prelude::any::<u64>(), 1usize..40, 0u8..3),
            (alpha_index, walk_seed) in (0usize..4, proptest::prelude::any::<u64>()),
        ) {
            let tangle = random_tangle(tangle_seed, len, shape);
            let alpha = [0.0, 1.0, 10.0, 50.0][alpha_index];
            let mut rng = StdRng::seed_from_u64(walk_seed);
            let x = Matrix::from_fn(12, FEATURES, |_, _| rng.gen_range(-1.0f32..1.0));
            let y: Vec<usize> = (0..12).map(|_| rng.gen_range(0..CLASSES)).collect();
            let starts: Vec<TxId> = (0..3)
                .map(|_| TxId::from_index(rng.gen_range(0..len) as u64))
                .collect();
            for normalization in [Normalization::Simple, Normalization::Dynamic] {
                for margin in [None, Some(0.1)] {
                    let mut skipping = ModelEvaluator::new(small_model(&mut rng));
                    let mut scoring = ModelEvaluator::new(small_model(&mut rng));
                    let mut rng_skipping = StdRng::seed_from_u64(walk_seed);
                    let mut rng_scoring = StdRng::seed_from_u64(walk_seed);
                    for &start in &starts {
                        let mut bias =
                            AccuracyBias::new(&mut skipping, &x, &y, alpha, normalization);
                        let mut oracle = ScoreEverything(AccuracyBias::new(
                            &mut scoring, &x, &y, alpha, normalization,
                        ));
                        if let Some(margin) = margin {
                            bias = bias.with_stop_margin(margin);
                            oracle.0 = oracle.0.with_stop_margin(margin);
                        }
                        let walker = RandomWalker::new();
                        let got = walker
                            .walk(&tangle, start, &mut bias, &mut rng_skipping)
                            .unwrap();
                        let want = walker
                            .walk(&tangle, start, &mut oracle, &mut rng_scoring)
                            .unwrap();
                        proptest::prop_assert_eq!(
                            got, want,
                            "shape {} alpha {} {:?} margin {:?} from {:?}",
                            shape, alpha, normalization, margin, start
                        );
                    }
                    proptest::prop_assert_eq!(rng_skipping.next_u64(), rng_scoring.next_u64());
                    proptest::prop_assert!(skipping.counters().fresh <= scoring.counters().fresh);
                }
            }
        }
    }

    #[test]
    fn chain_walk_runs_no_forward_pass() {
        let (x, y, good_params, _, mut evaluator) = toy_setup();
        let mut tangle: Tangle<ModelPayload> = Tangle::new(ModelPayload::new(good_params.clone()));
        let mut prev = tangle.genesis();
        for _ in 0..9 {
            prev = tangle
                .attach(ModelPayload::new(good_params.clone()), &[prev])
                .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Dynamic);
        let result = RandomWalker::new()
            .walk(&tangle, tangle.genesis(), &mut bias, &mut rng)
            .unwrap();
        assert_eq!(result.tip, prev);
        assert_eq!(result.steps, 9);
        assert_eq!(
            result.candidates_evaluated, 9,
            "every approver offered counts"
        );
        assert_eq!(evaluator.counters(), EvalCounters::default());
        assert_eq!(evaluator.cache_len(), 0);
    }
}
