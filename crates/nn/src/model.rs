//! The object-safe [`Model`] abstraction shared by every learning algorithm
//! in the workspace.

use std::sync::Arc;

use dagfl_tensor::{MatmulBackendKind, Matrix};
use rand::rngs::StdRng;

use crate::{EvalScratch, NnError, SgdConfig};

/// Loss and accuracy of a model on a labelled batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Fraction of correctly predicted samples in `[0, 1]`.
    pub accuracy: f32,
    /// Number of correctly predicted samples.
    pub correct: usize,
    /// Number of samples evaluated.
    pub total: usize,
}

impl Evaluation {
    /// Combines two evaluations into one over the union of their samples.
    ///
    /// Losses are weighted by sample counts.
    pub fn merge(self, other: Evaluation) -> Evaluation {
        let total = self.total + other.total;
        if total == 0 {
            return Evaluation::default();
        }
        let correct = self.correct + other.correct;
        let loss = (self.loss * self.total as f32 + other.loss * other.total as f32) / total as f32;
        Evaluation {
            loss,
            accuracy: correct as f32 / total as f32,
            correct,
            total,
        }
    }
}

/// A trainable classifier with a flat parameter vector.
///
/// This is the interface through which the Specializing DAG, FedAvg and
/// FedProx all manipulate models: parameters can be read and replaced as a
/// flat `Vec<f32>` (which makes model averaging a vector mean), batches can
/// be trained with SGD (optionally with the FedProx proximal term, see
/// [`SgdConfig`]) and performance can be evaluated on labelled data.
///
/// Inputs are always a [`Matrix`] whose rows are samples; the meaning of the
/// columns is model-specific (pixel values for image models, token ids for
/// [`char_rnn`]). [`Sequential`] is the one implementation in this crate.
///
/// [`Sequential`]: crate::Sequential
/// [`char_rnn`]: crate::char_rnn
pub trait Model: Send {
    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize;

    /// The parameters flattened into a single vector, in a stable order.
    fn parameters(&self) -> Vec<f32>;

    /// Replaces all parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCount`] if `params.len()` differs from
    /// [`Model::num_parameters`].
    fn set_parameters(&mut self, params: &[f32]) -> Result<(), NnError>;

    /// Performs one SGD step on the batch and returns the pre-update loss.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch shape does not match the model or a
    /// label is out of range.
    fn train_batch(&mut self, x: &Matrix, y: &[usize], opt: &SgdConfig) -> Result<f32, NnError>;

    /// Computes the loss and its gradient with respect to the parameters
    /// without updating the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch shape does not match the model.
    fn loss_and_gradient(&mut self, x: &Matrix, y: &[usize]) -> Result<(f32, Vec<f32>), NnError>;

    /// Evaluates mean loss and accuracy on the batch without training.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch shape does not match the model.
    fn evaluate(&self, x: &Matrix, y: &[usize]) -> Result<Evaluation, NnError> {
        self.evaluate_with_scratch(x, y, &mut EvalScratch::new())
    }

    /// Evaluates like [`Model::evaluate`], threading reusable
    /// [`EvalScratch`] buffers through the forward pass.
    ///
    /// Results are identical to [`Model::evaluate`], which is this method
    /// on fresh buffers; the difference is purely allocation behaviour on
    /// the hot path (candidate-model scoring during tip selection
    /// evaluates thousands of models on the same test batch).
    ///
    /// # Errors
    ///
    /// Returns an error if the batch shape does not match the model.
    fn evaluate_with_scratch(
        &self,
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Result<Evaluation, NnError>;

    /// Evaluates a *flat parameter vector* on the batch without loading
    /// it into the model: the forward pass reads weights directly from
    /// `params` (in [`Model::parameters`] order), so scoring a candidate
    /// skips the `set_parameters` copy entirely. The model's own
    /// parameters are untouched and results are bit-identical to
    /// `set_parameters(params)` + [`Model::evaluate_with_scratch`].
    ///
    /// Every layer in this crate has the zero-copy path, so
    /// [`Sequential`] always answers `Some`: `Some(Err(_))` for shape or
    /// parameter-count mismatches. `None` is left for a model without
    /// the path, whose caller falls back to loading the parameters.
    ///
    /// [`Sequential`]: crate::Sequential
    fn evaluate_flat_params(
        &self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Result<Evaluation, NnError>>;

    /// Selects the [`MatmulBackend`](dagfl_tensor::MatmulBackend) the
    /// model's matrix products run on.
    ///
    /// Every backend is bit-identical (pinned by property tests against
    /// the naive oracle), so switching only changes speed, never results.
    fn set_matmul_backend(&mut self, backend: MatmulBackendKind);

    /// Predicts the class for every row of `x`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width does not match the model.
    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError>;

    /// Clones the model into a new box.
    fn boxed_clone(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Creates fresh model instances for clients and the genesis.
///
/// The factory is called with a seeded RNG so that every simulation is
/// reproducible; all models it returns must share one architecture (equal
/// parameter counts), and every call must take the same number of draws
/// from the RNG, at most one per parameter. A simulator builds only the
/// models it keeps and skips the others' draws with
/// [`StdRng::advance`], counted on a real call.
pub type ModelFactory = Arc<dyn Fn(&mut StdRng) -> Box<dyn Model> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_weights_losses_by_sample_count() {
        let a = Evaluation {
            loss: 1.0,
            accuracy: 1.0,
            correct: 2,
            total: 2,
        };
        let b = Evaluation {
            loss: 3.0,
            accuracy: 0.0,
            correct: 0,
            total: 6,
        };
        let m = a.merge(b);
        assert_eq!(m.total, 8);
        assert_eq!(m.correct, 2);
        assert!((m.accuracy - 0.25).abs() < 1e-6);
        assert!((m.loss - 2.5).abs() < 1e-6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Evaluation {
            loss: 1.5,
            accuracy: 0.5,
            correct: 1,
            total: 2,
        };
        let m = a.merge(Evaluation::default());
        assert_eq!(m, a);
    }

    #[test]
    fn merge_two_empties_is_default() {
        assert_eq!(
            Evaluation::default().merge(Evaluation::default()),
            Evaluation::default()
        );
    }
}
