//! Element-wise activation layers.

use dagfl_tensor::Matrix;

use crate::{Layer, NnError};

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Matrix,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "Relu"
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, |v| v.max(0.0));
        Ok(())
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.cached_input.copy_from(input);
        input.map_into(out, |v| v.max(0.0));
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
        // Multiplying by the 0/1 mask (rather than selecting a literal
        // 0.0) gives `g * 0.0 == -0.0` for negative `g`, the sign a
        // mask-and-hadamard formulation produces.
        grad_output.zip_into(&self.cached_input, grad_input, |g, v| {
            g * (if v > 0.0 { 1.0 } else { 0.0 })
        })?;
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Matrix,
}

impl Tanh {
    /// Creates a tanh activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, f32::tanh);
        Ok(())
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, f32::tanh);
        self.cached_output.copy_from(out);
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
        grad_output.zip_into(&self.cached_output, grad_input, |g, y| g * (1.0 - y * y))?;
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Matrix,
}

impl Sigmoid {
    /// Creates a sigmoid activation layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Numerically stable logistic function.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, sigmoid_scalar);
        Ok(())
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        input.map_into(out, sigmoid_scalar);
        self.cached_output.copy_from(out);
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
        grad_output.zip_into(&self.cached_output, grad_input, |g, y| g * (y * (1.0 - y)))?;
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
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        let y = relu.forward_owned(&x).unwrap();
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.5]]).unwrap();
        relu.forward_owned(&x).unwrap();
        let g = Matrix::from_rows(&[&[3.0, 3.0]]).unwrap();
        let gi = relu.backward_owned(&g).unwrap();
        assert_eq!(gi.row(0), &[0.0, 3.0]);
    }

    #[test]
    fn tanh_matches_std() {
        let mut t = Tanh::new();
        let x = Matrix::from_rows(&[&[0.0, 1.0, -1.0]]).unwrap();
        let y = t.forward_owned(&x).unwrap();
        assert!((y[(0, 0)] - 0.0).abs() < 1e-6);
        assert!((y[(0, 1)] - 1f32.tanh()).abs() < 1e-6);
        assert!((y[(0, 2)] + 1f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_at_zero_is_one() {
        let mut t = Tanh::new();
        let x = Matrix::zeros(1, 1);
        t.forward_owned(&x).unwrap();
        let g = Matrix::filled(1, 1, 2.0);
        let gi = t.backward_owned(&g).unwrap();
        assert!((gi[(0, 0)] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        let mut s = Sigmoid::new();
        let x = Matrix::from_rows(&[&[0.0, 100.0, -100.0]]).unwrap();
        let y = s.forward_owned(&x).unwrap();
        assert!((y[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((y[(0, 1)] - 1.0).abs() < 1e-6);
        assert!(y[(0, 2)].abs() < 1e-6);
        assert!(y.is_finite());
    }

    #[test]
    fn sigmoid_gradient_peak_at_zero() {
        let mut s = Sigmoid::new();
        s.forward_owned(&Matrix::zeros(1, 1)).unwrap();
        let gi = s.backward_owned(&Matrix::filled(1, 1, 1.0)).unwrap();
        assert!((gi[(0, 0)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn activations_have_no_parameters() {
        assert_eq!(Relu::new().num_parameters(), 0);
        assert_eq!(Tanh::new().num_parameters(), 0);
        assert_eq!(Sigmoid::new().num_parameters(), 0);
    }

    #[test]
    fn sigmoid_scalar_stable_for_extremes() {
        assert!(sigmoid_scalar(1000.0).is_finite());
        assert!(sigmoid_scalar(-1000.0).is_finite());
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-7);
    }
}
