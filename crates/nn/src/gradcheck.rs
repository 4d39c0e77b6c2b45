//! Numerical gradient checking for [`Model`] implementations.
//!
//! Every differentiable component in this crate is validated by comparing
//! its analytic gradient against central finite differences. The helpers
//! here are public so downstream crates adding custom models can reuse the
//! same machinery.

use dagfl_tensor::Matrix;

use crate::{Model, NnError};

/// Computes the numerical gradient of `model`'s loss on `(x, y)` by central
/// differences with step `eps`.
///
/// This is O(#parameters) forward passes — use tiny models only.
///
/// # Errors
///
/// Propagates any model evaluation error.
pub fn numerical_gradient(
    model: &mut dyn Model,
    x: &Matrix,
    y: &[usize],
    eps: f32,
) -> Result<Vec<f32>, NnError> {
    let base = model.parameters();
    let mut grad = vec![0.0f32; base.len()];
    let mut probe = base.clone();
    for i in 0..base.len() {
        probe[i] = base[i] + eps;
        model.set_parameters(&probe)?;
        let plus = model.evaluate(x, y)?.loss;
        probe[i] = base[i] - eps;
        model.set_parameters(&probe)?;
        let minus = model.evaluate(x, y)?.loss;
        probe[i] = base[i];
        grad[i] = (plus - minus) / (2.0 * eps);
    }
    model.set_parameters(&base)?;
    Ok(grad)
}

/// The maximum relative error between two gradient vectors, using the
/// standard `|a - b| / max(|a|, |b|, floor)` metric.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn max_relative_error(analytic: &[f32], numeric: &[f32], floor: f32) -> f32 {
    assert_eq!(analytic.len(), numeric.len(), "gradient lengths differ");
    analytic
        .iter()
        .zip(numeric)
        .map(|(&a, &n)| (a - n).abs() / a.abs().max(n.abs()).max(floor))
        .fold(0.0, f32::max)
}

/// Asserts that a model's analytic gradient matches finite differences on
/// the given batch.
///
/// # Panics
///
/// Panics if the relative error exceeds `tolerance` or evaluation fails.
pub fn assert_gradients_match(
    model: &mut dyn Model,
    x: &Matrix,
    y: &[usize],
    eps: f32,
    tolerance: f32,
) {
    let (_, analytic) = model
        .loss_and_gradient(x, y)
        .expect("analytic gradient failed");
    let numeric = numerical_gradient(model, x, y, eps).expect("numeric gradient failed");
    let err = max_relative_error(&analytic, &numeric, 1e-2);
    assert!(
        err < tolerance,
        "gradient mismatch: max relative error {err} exceeds tolerance {tolerance}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{char_rnn, Dense, Relu, Sequential};
    use dagfl_tensor::MatmulBackendKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs the gradient check once per matmul backend: the analytic
    /// gradients must survive finite differences on the naive loops AND
    /// on the tiled kernels (the numeric gradient restores the original
    /// parameters, so the second pass starts from the same point).
    fn assert_gradients_match_on_both_backends(
        model: &mut dyn Model,
        x: &Matrix,
        y: &[usize],
        eps: f32,
        tolerance: f32,
    ) {
        for kind in [MatmulBackendKind::Naive, MatmulBackendKind::Tiled] {
            model.set_matmul_backend(kind);
            assert_gradients_match(model, x, y, eps, tolerance);
        }
    }

    fn batch(features: usize, classes: usize) -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(4, features, |r, c| {
            ((r * features + c) % 7) as f32 * 0.31 - 1.0
        });
        let y = (0..4).map(|r| r % classes).collect();
        (x, y)
    }

    #[test]
    fn dense_gradients_match_numeric() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![Box::new(Dense::new(&mut rng, 3, 4))]);
        let (x, y) = batch(3, 4);
        assert_gradients_match_on_both_backends(&mut model, &x, &y, 1e-2, 0.05);
    }

    #[test]
    fn mlp_relu_gradients_match_numeric() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 6)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 6, 3)),
        ]);
        let (x, y) = batch(4, 3);
        // A small step keeps the finite differences away from the ReLU
        // kink (a pre-activation within eps of zero breaks the estimate).
        assert_gradients_match_on_both_backends(&mut model, &x, &y, 1e-3, 0.08);
    }

    #[test]
    fn char_rnn_gradients_match_numeric() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = char_rnn(&mut rng, 5, 3, 4);
        let x = Matrix::from_fn(3, 4, |r, t| ((r + 2 * t) % 5) as f32);
        let y = vec![0, 2, 4];
        assert_gradients_match_on_both_backends(&mut model, &x, &y, 1e-2, 0.1);
    }

    #[test]
    fn max_relative_error_zero_for_identical() {
        let g = vec![1.0, -2.0, 0.0];
        assert_eq!(max_relative_error(&g, &g, 1e-3), 0.0);
    }

    #[test]
    fn max_relative_error_detects_mismatch() {
        let a = vec![1.0];
        let b = vec![2.0];
        assert!(max_relative_error(&a, &b, 1e-3) > 0.4);
    }
}
