//! Inverted dropout regularisation.

use dagfl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Layer, NnError};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1 / (1 - rate)`, so
/// inference needs no rescaling (and [`Layer::forward_inference_into`] is
/// the identity).
///
/// The layer owns its RNG (seeded at construction) so that training runs
/// stay deterministic.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    rng: StdRng,
    /// The keep/drop scale of every activation of the last training
    /// forward pass (unused at rate zero).
    mask: Matrix,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        Self {
            rate,
            rng: StdRng::seed_from_u64(seed),
            mask: Matrix::default(),
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.rate == 0.0 {
            out.copy_from(input);
            return Ok(());
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        self.mask.reset(input.rows(), input.cols());
        for m in self.mask.as_mut_slice() {
            *m = if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            };
        }
        input.zip_into(&self.mask, out, |v, m| v * m)?;
        Ok(())
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        out.copy_from(input);
        Ok(())
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        if self.rate == 0.0 {
            grad_input.copy_from(grad_output);
        } else {
            grad_output.zip_into(&self.mask, grad_input, |g, m| g * m)?;
        }
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::OwnedPasses;

    #[test]
    fn inference_is_identity() {
        let d = Dropout::new(0.5, 0);
        let x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(d.inference_owned(&x).unwrap(), x);
    }

    #[test]
    fn zero_rate_is_identity_in_training_too() {
        let mut d = Dropout::new(0.0, 0);
        let x = Matrix::filled(2, 2, 3.0);
        assert_eq!(d.forward_owned(&x).unwrap(), x);
    }

    #[test]
    fn training_zeroes_roughly_rate_fraction() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::filled(50, 50, 1.0);
        let y = d.forward_owned(&x).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / y.len() as f32;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
    }

    #[test]
    fn survivors_are_scaled_to_preserve_expectation() {
        let mut d = Dropout::new(0.25, 2);
        let x = Matrix::filled(60, 60, 1.0);
        let y = d.forward_owned(&x).unwrap();
        let mean: f32 = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} drifted");
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - 1.0 / 0.75).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::filled(10, 10, 1.0);
        let y = d.forward_owned(&x).unwrap();
        let grad = Matrix::filled(10, 10, 1.0);
        let gi = d.backward_owned(&grad).unwrap();
        // Gradient flows exactly where activations survived.
        for (a, b) in y.as_slice().iter().zip(gi.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn has_no_parameters() {
        assert_eq!(Dropout::new(0.3, 0).num_parameters(), 0);
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rate_one_panics() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn composes_in_a_model() {
        use crate::{Dense, Model, Sequential, SgdConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 8)),
            Box::new(Dropout::new(0.2, 7)),
            Box::new(Dense::new(&mut rng, 8, 2)),
        ]);
        let x = Matrix::from_fn(6, 4, |r, c| ((r + c) % 3) as f32);
        let y = vec![0, 1, 0, 1, 0, 1];
        let loss = model.train_batch(&x, &y, &SgdConfig::new(0.1)).unwrap();
        assert!(loss.is_finite());
        // Inference path must be deterministic.
        let a = model.predict(&x).unwrap();
        let b = model.predict(&x).unwrap();
        assert_eq!(a, b);
    }
}
