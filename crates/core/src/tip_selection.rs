//! The paper's accuracy-aware walk bias (§4.2).

use dagfl_tangle::{TangleRead, TxId, WalkBias};
use dagfl_tensor::Matrix;

use crate::{ModelEvaluator, ModelPayload, Normalization};

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
/// The bias borrows a [`ModelEvaluator`] holding the scratch model, the
/// reusable forward-pass buffers and the client's generation-stamped
/// per-transaction accuracy cache — see the evaluator docs for when
/// cached accuracies are invalidated.
pub struct AccuracyBias<'a> {
    evaluator: &'a mut ModelEvaluator,
    test_x: &'a Matrix,
    test_y: &'a [usize],
    alpha: f32,
    normalization: Normalization,
    stop_margin: Option<f32>,
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
        let accuracies = self
            .evaluator
            .score_slate(tangle, candidates, self.test_x, self.test_y);
        Self::normalize(&accuracies, self.alpha, self.normalization)
    }

    fn should_stop(&mut self, tangle: &T, current: TxId, candidates: &[TxId]) -> bool {
        let Some(margin) = self.stop_margin else {
            return false;
        };
        let current_acc = self
            .evaluator
            .score(tangle, current, self.test_x, self.test_y);
        candidates.iter().all(|&c| {
            self.evaluator.score(tangle, c, self.test_x, self.test_y) < current_acc - margin
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_nn::{Dense, Model, Sequential, SgdConfig};
    use dagfl_tangle::{RandomWalker, Tangle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let mut bias = AccuracyBias::new(&mut evaluator, &x, &y, 10.0, Normalization::Simple);
        let w = bias.weights(&tangle, g, &[weird]);
        assert_eq!(w.len(), 1);
        assert_eq!(evaluator.score(&tangle, weird, &x, &y), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_panics() {
        let (x, y, _, _, mut evaluator) = toy_setup();
        AccuracyBias::new(&mut evaluator, &x, &y, -1.0, Normalization::Simple);
    }
}
