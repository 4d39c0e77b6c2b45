//! The [`Layer`] trait and [`Sequential`] feed-forward models.

use dagfl_tensor::{
    argmax, cross_entropy_from_probs, fused_softmax_cross_entropy, softmax_in_place,
    MatmulBackendKind, Matrix,
};

use crate::{EvalScratch, Evaluation, Model, NnError, SgdConfig, TrainScratch};

/// A differentiable layer in a [`Sequential`] model.
///
/// Layers are stateful: [`Layer::forward_train_into`] caches whatever the
/// subsequent [`Layer::backward_into`] call needs, while
/// [`Layer::forward_inference_into`] runs without mutating the layer (used
/// for evaluation and prediction). Every pass writes into a buffer the
/// caller owns and reuses; what a layer must keep between passes lives in
/// buffers the layer owns and reshapes, so a steady-state training step
/// (see [`TrainScratch`](crate::TrainScratch)) touches the heap zero
/// times.
///
/// Parameterised layers expose their parameters and gradients through
/// [`Layer::visit_parameters`] / [`Layer::apply_update`]; stateless layers
/// use the default no-op implementations.
pub trait Layer: Send {
    /// A short human-readable layer name (for debugging output).
    fn name(&self) -> &'static str;

    /// Training-mode forward pass; caches activations for the backward
    /// pass.
    ///
    /// `out` is reshaped (reusing its allocation) and fully overwritten;
    /// `input` and `out` must be distinct matrices.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` has the wrong width for this layer.
    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError>;

    /// Inference-mode forward pass; does not mutate the layer.
    ///
    /// `out` is reshaped (reusing its allocation) and fully overwritten;
    /// `input` and `out` must be distinct matrices.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` has the wrong width for this layer.
    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError>;

    /// Inference-mode forward pass reading this layer's parameters from
    /// the front of `params` (the layer's slice of a flat parameter
    /// vector, in [`Layer::visit_parameters`] order) instead of its own
    /// weights, consuming them from the slice.
    ///
    /// This is the zero-copy candidate-evaluation path: scoring a
    /// candidate model does not have to copy its parameters into the
    /// scratch model first. Results must be bit-identical to loading the
    /// same values via `load_parameters` and calling
    /// [`Layer::forward_inference_into`]. The default serves
    /// parameterless layers, which consume nothing; every layer with
    /// parameters overrides it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCount`] if `params` holds fewer values
    /// than the layer owns, and the errors of
    /// [`Layer::forward_inference_into`].
    fn forward_inference_params(
        &self,
        params: &mut &[f32],
        input: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        debug_assert_eq!(self.num_parameters(), 0, "{} owns parameters", self.name());
        let _ = params;
        self.forward_inference_into(input, out)
    }

    /// Backward pass — the one entry point every layer implements.
    ///
    /// Consumes the gradient w.r.t. this layer's output, stores the
    /// parameter gradients internally and, when `grad_input` is `Some`,
    /// writes the gradient w.r.t. the layer's input into that buffer
    /// (reshaped and fully overwritten; it must be distinct from
    /// `grad_output`).
    ///
    /// `None` means *nobody consumes the input gradient*: the caller is
    /// the lowest layer that still needs parameter gradients (see
    /// [`Sequential`]'s training step). The layer must then do exactly
    /// the work its parameter gradients need and nothing else —
    /// [`Dense`](crate::Dense) skips its `g · Wᵀ` product,
    /// [`Gru`](crate::Gru) the products of its input gradient, and
    /// parameterless layers do nothing at all. The parameter gradients
    /// must be bit-identical in both forms.
    ///
    /// # Errors
    ///
    /// Returns an error if `grad_output` does not match the shape
    /// produced by the preceding forward call.
    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError>;

    /// Selects the [`MatmulBackend`](dagfl_tensor::MatmulBackend) this
    /// layer's matrix products run on. A no-op for layers without
    /// matmuls ([`Relu`](crate::Relu), [`Embedding`](crate::Embedding));
    /// all backends are bit-identical, so switching never changes
    /// results.
    fn set_backend(&mut self, backend: MatmulBackendKind) {
        let _ = backend;
    }

    /// Calls `visitor` once per parameter matrix, in a stable order.
    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        let _ = visitor;
    }

    /// Calls `update` once per `(parameter, gradient)` pair, in the same
    /// stable order as [`Layer::visit_parameters`].
    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        let _ = update;
    }

    /// Overwrites parameters by reading `source` once per parameter matrix.
    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        let _ = source;
    }

    /// Total number of scalar parameters in this layer.
    fn num_parameters(&self) -> usize {
        let mut n = 0;
        self.visit_parameters(&mut |m| n += m.len());
        n
    }

    /// Clones the layer into a new box.
    fn boxed_clone(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Splits the first `len` values off `params`: how a layer's
/// [`Layer::forward_inference_params`] takes its slice of a flat
/// parameter vector.
pub(crate) fn take_params<'p>(params: &mut &'p [f32], len: usize) -> Result<&'p [f32], NnError> {
    if params.len() < len {
        return Err(NnError::ParameterCount {
            expected: len,
            actual: params.len(),
        });
    }
    let (taken, rest) = params.split_at(len);
    *params = rest;
    Ok(taken)
}

/// A feed-forward stack of [`Layer`]s trained with softmax cross-entropy.
///
/// The final layer must produce class logits; [`Sequential`] owns the fused
/// softmax + cross-entropy loss so that layers never need to special-case
/// the output activation.
///
/// # Example
///
/// ```
/// use dagfl_nn::{Dense, Model, Relu, Sequential};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let model = Sequential::new(vec![
///     Box::new(Dense::new(&mut rng, 8, 4)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(&mut rng, 4, 2)),
/// ]);
/// assert_eq!(model.num_parameters(), 8 * 4 + 4 + 4 * 2 + 2);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    scratch: TrainScratch,
}

impl Sequential {
    /// Creates a model from an ordered stack of layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "a Sequential model needs layers");
        Self {
            layers,
            scratch: TrainScratch::new(),
        }
    }

    /// The layers of the model, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// The inference forward pass, ping-ponging the activations between
    /// the two scratch buffers; returns the one holding the logits.
    fn infer<'s>(
        &self,
        x: &Matrix,
        scratch: &'s mut EvalScratch,
    ) -> Result<&'s mut Matrix, NnError> {
        let (mut cur, mut next) = scratch.buffers();
        self.layers[0].forward_inference_into(x, cur)?;
        for layer in &self.layers[1..] {
            layer.forward_inference_into(cur, next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// Runs the inference forward pass and returns the raw logits.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` has the wrong width for the first layer.
    pub fn logits(&self, x: &Matrix) -> Result<Matrix, NnError> {
        Ok(std::mem::take(self.infer(x, &mut EvalScratch::new())?))
    }

    /// Runs the inference forward pass and returns class probabilities.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` has the wrong width for the first layer.
    pub fn probabilities(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut logits = self.logits(x)?;
        softmax_in_place(&mut logits);
        Ok(logits)
    }

    /// The lowest layer that needs parameter gradients when the first
    /// `frozen_prefix` flat parameters are pinned: the first layer whose
    /// parameters reach past the prefix (`layers.len()` if none does).
    /// Nothing consumes a gradient below it, so the backward pass stops
    /// there.
    fn backward_cut(&self, frozen_prefix: usize) -> usize {
        let mut end = 0;
        self.layers
            .iter()
            .position(|layer| {
                end += layer.num_parameters();
                end > frozen_prefix
            })
            .unwrap_or(self.layers.len())
    }

    /// Training forward + backward for a caller that will not update the
    /// first `frozen_prefix` flat parameters; leaves gradients stored in
    /// the layers from [`Sequential::backward_cut`] up. Returns the batch
    /// loss.
    ///
    /// A backward product runs only if its result has a consumer: the
    /// layer at the cut gets no grad-input buffer
    /// ([`Layer::backward_into`] with `None`) and the layers below it are
    /// not called at all.
    ///
    /// Activations ping-pong between the two [`TrainScratch`] activation
    /// buffers and layer gradients between its two gradient buffers, so a
    /// steady-state step allocates nothing: the loss gradient is formed in
    /// place on the logits buffer (softmax, then subtract the one-hot and
    /// scale by `1/batch`) instead of going through the allocating
    /// [`softmax_cross_entropy`](dagfl_tensor::softmax_cross_entropy) —
    /// same operations, same order, bitwise identical loss and gradients.
    pub(crate) fn forward_backward(
        &mut self,
        x: &Matrix,
        y: &[usize],
        frozen_prefix: usize,
    ) -> Result<f32, NnError> {
        check_batch(x, y)?;
        let cut = self.backward_cut(frozen_prefix);
        let Self { layers, scratch } = self;
        let (mut cur, mut next, mut gcur, mut gnext) = scratch.parts();
        layers[0].forward_train_into(x, cur)?;
        for layer in &mut layers[1..] {
            layer.forward_train_into(cur, next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        check_labels(y, cur.cols())?;
        // d(mean CE)/d(logits) = (p - onehot) / batch
        gcur.copy_from(cur);
        softmax_in_place(gcur);
        let loss = cross_entropy_from_probs(gcur, y);
        let scale = 1.0 / y.len().max(1) as f32;
        for (r, &label) in y.iter().enumerate() {
            gcur[(r, label)] -= 1.0;
        }
        gcur.scale_assign(scale);
        let Some((lowest, above)) = layers[cut..].split_first_mut() else {
            return Ok(loss);
        };
        for layer in above.iter_mut().rev() {
            layer.backward_into(gcur, Some(&mut *gnext))?;
            std::mem::swap(&mut gcur, &mut gnext);
        }
        lowest.backward_into(gcur, None)?;
        Ok(loss)
    }

    /// Walks every `(parameter, gradient)` pair through
    /// [`SgdConfig::step`], tracking the flat parameter offset.
    fn apply_sgd(&mut self, opt: &SgdConfig) {
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.apply_update(&mut |param, grad| {
                opt.step(param.as_mut_slice(), grad.as_slice(), offset);
                offset += grad.len();
            });
        }
    }

    pub(crate) fn collect_gradients(&mut self) -> Vec<f32> {
        let mut grads = Vec::with_capacity(self.num_parameters());
        for layer in &mut self.layers {
            layer.apply_update(&mut |_, grad| grads.extend_from_slice(grad.as_slice()));
        }
        grads
    }

    /// [`Model::evaluate_flat_params`]: the inference forward pass with
    /// every layer reading its weights from `params`.
    fn evaluate_params(
        &self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Result<Evaluation, NnError> {
        check_batch(x, y)?;
        let expected = self.num_parameters();
        if params.len() != expected {
            return Err(NnError::ParameterCount {
                expected,
                actual: params.len(),
            });
        }
        if y.is_empty() {
            return Ok(Evaluation::default());
        }
        let mut remaining = params;
        let (mut cur, mut next) = scratch.buffers();
        self.layers[0].forward_inference_params(&mut remaining, x, cur)?;
        for layer in &self.layers[1..] {
            layer.forward_inference_params(&mut remaining, cur, next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        debug_assert!(remaining.is_empty(), "layers must consume all parameters");
        evaluation_from_logits(cur, y)
    }
}

/// One label per input row.
fn check_batch(x: &Matrix, y: &[usize]) -> Result<(), NnError> {
    if x.rows() != y.len() {
        return Err(NnError::BatchMismatch {
            inputs: x.rows(),
            labels: y.len(),
        });
    }
    Ok(())
}

/// Every label names one of the `classes` logit columns.
fn check_labels(y: &[usize], classes: usize) -> Result<(), NnError> {
    match y.iter().find(|&&label| label >= classes) {
        Some(&label) => Err(NnError::LabelOutOfRange { label, classes }),
        None => Ok(()),
    }
}

/// Label check + fused softmax/cross-entropy/accuracy over final logits
/// (shared by the scratch and flat-params evaluation paths). `logits` is
/// consumed in place.
fn evaluation_from_logits(logits: &mut Matrix, y: &[usize]) -> Result<Evaluation, NnError> {
    check_labels(y, logits.cols())?;
    let (loss, correct) = fused_softmax_cross_entropy(logits, y);
    Ok(Evaluation {
        loss,
        accuracy: correct as f32 / y.len() as f32,
        correct,
        total: y.len(),
    })
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.clone(),
            scratch: self.scratch.clone(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .field("num_parameters", &self.num_parameters())
            .finish()
    }
}

impl Model for Sequential {
    fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.num_parameters()).sum()
    }

    fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            layer.visit_parameters(&mut |m| out.extend_from_slice(m.as_slice()));
        }
        out
    }

    fn set_parameters(&mut self, params: &[f32]) -> Result<(), NnError> {
        let expected = self.num_parameters();
        if params.len() != expected {
            return Err(NnError::ParameterCount {
                expected,
                actual: params.len(),
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.load_parameters(&mut |m| {
                let len = m.len();
                m.as_mut_slice()
                    .copy_from_slice(&params[offset..offset + len]);
                offset += len;
            });
        }
        debug_assert_eq!(offset, expected);
        Ok(())
    }

    fn set_matmul_backend(&mut self, backend: MatmulBackendKind) {
        for layer in &mut self.layers {
            layer.set_backend(backend);
        }
    }

    fn train_batch(&mut self, x: &Matrix, y: &[usize], opt: &SgdConfig) -> Result<f32, NnError> {
        let loss = self.forward_backward(x, y, opt.frozen_prefix())?;
        self.apply_sgd(opt);
        Ok(loss)
    }

    fn loss_and_gradient(&mut self, x: &Matrix, y: &[usize]) -> Result<(f32, Vec<f32>), NnError> {
        // Nothing frozen: the full gradient.
        let loss = self.forward_backward(x, y, 0)?;
        Ok((loss, self.collect_gradients()))
    }

    fn evaluate_with_scratch(
        &self,
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Result<Evaluation, NnError> {
        check_batch(x, y)?;
        if y.is_empty() {
            return Ok(Evaluation::default());
        }
        evaluation_from_logits(self.infer(x, scratch)?, y)
    }

    fn evaluate_flat_params(
        &self,
        params: &[f32],
        x: &Matrix,
        y: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<Result<Evaluation, NnError>> {
        Some(self.evaluate_params(params, x, y, scratch))
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        let logits = self.logits(x)?;
        Ok((0..logits.rows()).map(|r| argmax(logits.row(r))).collect())
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::{
        allocations_in, assert_same_bits, assert_training_matches_reference, reference_update,
        OwnedPasses,
    };
    use crate::{char_rnn, Dense, Embedding, Gru, Relu};
    use dagfl_tensor::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(&mut rng, 4, 8)),
            Box::new(Relu::new()),
            Box::new(Dense::new(&mut rng, 8, 3)),
        ])
    }

    fn toy_batch() -> (Matrix, Vec<usize>) {
        // Three separable clusters on the 4-dim simplex corners.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.9, 0.1, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.9, 0.1, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.1, 0.0, 0.9],
        ])
        .unwrap();
        (x, vec![0, 0, 1, 1, 2, 2])
    }

    #[test]
    fn parameter_roundtrip_preserves_model() {
        let model = tiny_model(3);
        let params = model.parameters();
        assert_eq!(params.len(), model.num_parameters());
        let mut clone = tiny_model(99);
        clone.set_parameters(&params).unwrap();
        assert_eq!(clone.parameters(), params);
    }

    #[test]
    fn set_parameters_rejects_wrong_length() {
        let mut model = tiny_model(3);
        let err = model.set_parameters(&[0.0; 3]).unwrap_err();
        assert!(matches!(err, NnError::ParameterCount { .. }));
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut model = tiny_model(7);
        let (x, y) = toy_batch();
        let initial = model.evaluate(&x, &y).unwrap().loss;
        let opt = SgdConfig::new(0.5);
        for _ in 0..200 {
            model.train_batch(&x, &y, &opt).unwrap();
        }
        let final_eval = model.evaluate(&x, &y).unwrap();
        assert!(
            final_eval.loss < initial * 0.5,
            "loss did not drop: {initial} -> {}",
            final_eval.loss
        );
        assert!(final_eval.accuracy > 0.99);
    }

    #[test]
    fn predictions_match_evaluation_accuracy() {
        let mut model = tiny_model(7);
        let (x, y) = toy_batch();
        let opt = SgdConfig::new(0.5);
        for _ in 0..100 {
            model.train_batch(&x, &y, &opt).unwrap();
        }
        let eval = model.evaluate(&x, &y).unwrap();
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, l)| p == l).count();
        assert_eq!(correct, eval.correct);
    }

    #[test]
    fn train_batch_rejects_label_out_of_range() {
        let mut model = tiny_model(1);
        let x = Matrix::zeros(1, 4);
        let err = model
            .train_batch(&x, &[5], &SgdConfig::new(0.1))
            .unwrap_err();
        assert!(matches!(err, NnError::LabelOutOfRange { .. }));
    }

    #[test]
    fn train_batch_rejects_batch_mismatch() {
        let mut model = tiny_model(1);
        let x = Matrix::zeros(2, 4);
        let err = model
            .train_batch(&x, &[0], &SgdConfig::new(0.1))
            .unwrap_err();
        assert!(matches!(err, NnError::BatchMismatch { .. }));
    }

    #[test]
    fn evaluate_empty_batch_is_default() {
        let model = tiny_model(1);
        let eval = model.evaluate(&Matrix::zeros(0, 4), &[]).unwrap();
        assert_eq!(eval, Evaluation::default());
        let mut scratch = EvalScratch::new();
        let eval = model
            .evaluate_with_scratch(&Matrix::zeros(0, 4), &[], &mut scratch)
            .unwrap();
        assert_eq!(eval, Evaluation::default());
    }

    #[test]
    fn scratch_evaluation_matches_allocating_evaluation() {
        let mut model = tiny_model(9);
        let (x, y) = toy_batch();
        let opt = SgdConfig::new(0.5);
        let mut scratch = EvalScratch::new();
        // Across training steps (reused buffers, changing parameters) the
        // two paths must agree exactly — the walk's cached accuracies
        // depend on it.
        for _ in 0..20 {
            model.train_batch(&x, &y, &opt).unwrap();
            let slow = model.evaluate(&x, &y).unwrap();
            let fast = model.evaluate_with_scratch(&x, &y, &mut scratch).unwrap();
            assert_eq!(fast, slow);
            assert_eq!(fast.loss.to_bits(), slow.loss.to_bits());
        }
    }

    #[test]
    fn scratch_evaluation_rejects_bad_batches() {
        let model = tiny_model(2);
        let mut scratch = EvalScratch::new();
        let err = model
            .evaluate_with_scratch(&Matrix::zeros(2, 4), &[0], &mut scratch)
            .unwrap_err();
        assert!(matches!(err, NnError::BatchMismatch { .. }));
        let err = model
            .evaluate_with_scratch(&Matrix::zeros(1, 4), &[7], &mut scratch)
            .unwrap_err();
        assert!(matches!(err, NnError::LabelOutOfRange { .. }));
        let err = model
            .evaluate_with_scratch(&Matrix::zeros(1, 9), &[0], &mut scratch)
            .unwrap_err();
        assert!(matches!(err, NnError::Shape(_)));
    }

    #[test]
    fn flat_params_evaluation_matches_loaded_evaluation() {
        let mut scratch_model = tiny_model(4);
        let donor = tiny_model(5);
        let params = donor.parameters();
        let (x, y) = toy_batch();
        let mut scratch = EvalScratch::new();
        let before = scratch_model.parameters();
        let zero_copy = scratch_model
            .evaluate_flat_params(&params, &x, &y, &mut scratch)
            .expect("Sequential of Dense/Relu supports the flat path")
            .unwrap();
        assert_eq!(
            scratch_model.parameters(),
            before,
            "the flat path must not touch the model's own parameters"
        );
        scratch_model.set_parameters(&params).unwrap();
        let loaded = scratch_model.evaluate(&x, &y).unwrap();
        assert_eq!(zero_copy, loaded);
        assert_eq!(zero_copy.loss.to_bits(), loaded.loss.to_bits());
    }

    #[test]
    fn flat_params_evaluation_rejects_bad_inputs() {
        let model = tiny_model(4);
        let (x, y) = toy_batch();
        let mut scratch = EvalScratch::new();
        let err = model
            .evaluate_flat_params(&[0.0; 3], &x, &y, &mut scratch)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, NnError::ParameterCount { .. }));
        let err = model
            .evaluate_flat_params(&model.parameters(), &x, &y[..2], &mut scratch)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, NnError::BatchMismatch { .. }));
    }

    #[test]
    fn a_short_flat_parameter_slice_is_an_error() {
        let mut rng = StdRng::seed_from_u64(6);
        let layers: [(Box<dyn Layer>, Matrix); 3] = [
            (Box::new(Dense::new(&mut rng, 4, 3)), Matrix::zeros(2, 4)),
            (
                Box::new(Embedding::new(&mut rng, 5, 2)),
                Matrix::zeros(2, 3),
            ),
            (Box::new(Gru::new(&mut rng, 2, 3)), Matrix::zeros(2, 6)),
        ];
        for (layer, input) in layers {
            let owned = layer.num_parameters();
            let params = vec![0.1; owned];
            let mut out = Matrix::default();
            let mut full = &params[..];
            layer
                .forward_inference_params(&mut full, &input, &mut out)
                .unwrap();
            assert!(full.is_empty(), "{} left parameters", layer.name());
            let mut short = &params[1..];
            let err = layer
                .forward_inference_params(&mut short, &input, &mut out)
                .unwrap_err();
            assert_eq!(
                err,
                NnError::ParameterCount {
                    expected: owned,
                    actual: owned - 1
                },
                "{}",
                layer.name()
            );
        }
    }

    #[test]
    fn proximal_term_pulls_towards_reference() {
        use std::sync::Arc;
        let (x, y) = toy_batch();
        // Train two copies from the same start; the proximal one must stay
        // closer to the frozen reference.
        let base = tiny_model(11);
        let reference = Arc::new(base.parameters());

        let mut plain = base.clone();
        let mut proxed = base.clone();
        // Keep lr * mu < 1 so the proximal pull is a stable contraction.
        let opt_plain = SgdConfig::new(0.5);
        let opt_prox = SgdConfig::new(0.5).with_proximal(1.0, Arc::clone(&reference));
        for _ in 0..50 {
            plain.train_batch(&x, &y, &opt_plain).unwrap();
            proxed.train_batch(&x, &y, &opt_prox).unwrap();
        }
        let dist = |m: &Sequential| -> f32 {
            m.parameters()
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&proxed) < dist(&plain),
            "proximal model strayed further ({}) than plain ({})",
            dist(&proxed),
            dist(&plain)
        );
    }

    #[test]
    fn frozen_prefix_pins_leading_layer() {
        let mut model = tiny_model(21);
        let (x, y) = toy_batch();
        // First Dense layer holds 4*8 + 8 = 40 parameters.
        let frozen = 40;
        let before = model.parameters();
        let opt = SgdConfig::new(0.5).with_frozen_prefix(frozen);
        for _ in 0..20 {
            model.train_batch(&x, &y, &opt).unwrap();
        }
        let after = model.parameters();
        assert_eq!(&before[..frozen], &after[..frozen], "frozen layer moved");
        assert_ne!(&before[frozen..], &after[frozen..], "free layers stuck");
    }

    #[test]
    fn fully_frozen_model_never_changes() {
        let mut model = tiny_model(22);
        let (x, y) = toy_batch();
        let before = model.parameters();
        let opt = SgdConfig::new(0.5).with_frozen_prefix(model.num_parameters());
        model.train_batch(&x, &y, &opt).unwrap();
        assert_eq!(model.parameters(), before);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = tiny_model(5);
        let b = a.clone();
        let (x, y) = toy_batch();
        a.train_batch(&x, &y, &SgdConfig::new(0.5)).unwrap();
        assert_ne!(a.parameters(), b.parameters());
    }

    #[test]
    fn probabilities_rows_sum_to_one() {
        let model = tiny_model(5);
        let (x, _) = toy_batch();
        let probs = model.probabilities(&x).unwrap();
        for r in 0..probs.rows() {
            let sum: f32 = probs.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn debug_lists_layer_names() {
        let model = tiny_model(5);
        let dbg = format!("{model:?}");
        assert!(dbg.contains("Dense"));
        assert!(dbg.contains("Relu"));
    }

    #[test]
    fn steady_state_training_reuses_every_buffer() {
        let (x, y) = toy_batch();
        let (token_x, token_y) = token_batch();
        for (family, mut model, x, y) in [
            ("mlp", tiny_model(13), &x, &y),
            ("char-rnn", tiny_char_rnn(13), &token_x, &token_y),
        ] {
            let opt = SgdConfig::new(0.1);
            // One warm-up step grows the scratch, the per-layer gradient
            // buffers and every cache a layer owns to their steady-state
            // sizes...
            model.train_batch(x, y, &opt).unwrap();
            let scratch_before = model.scratch.buffer_ptrs();
            let mut grads_before = Vec::new();
            for layer in &mut model.layers {
                layer.apply_update(&mut |_, grad| grads_before.push(grad.as_slice().as_ptr()));
            }
            // ...after which further steps must not touch the heap at all.
            let allocations = allocations_in(|| {
                for _ in 0..5 {
                    model.train_batch(x, y, &opt).unwrap();
                }
            });
            assert_eq!(allocations, 0, "{family}: a steady-state step allocated");
            assert_eq!(model.scratch.buffer_ptrs(), scratch_before, "{family}");
            let mut grads_after = Vec::new();
            for layer in &mut model.layers {
                layer.apply_update(&mut |_, grad| grads_after.push(grad.as_slice().as_ptr()));
            }
            assert_eq!(grads_after, grads_before, "{family}");
        }
    }

    /// The pre-cut training step: every layer's backward pass with a
    /// fresh grad-input matrix, top to bottom, whether or not anything
    /// consumes the result, followed by the old per-element update.
    pub(crate) fn reference_step(
        model: &mut Sequential,
        x: &Matrix,
        y: &[usize],
        opt: &SgdConfig,
    ) -> f32 {
        let mut activ = x.clone();
        for layer in &mut model.layers {
            activ = layer.forward_owned(&activ).unwrap();
        }
        let (mut grad, loss) = softmax_cross_entropy(&activ, y);
        for (r, &label) in y.iter().enumerate() {
            grad[(r, label)] -= 1.0;
        }
        grad.scale_assign(1.0 / y.len().max(1) as f32);
        for layer in model.layers.iter_mut().rev() {
            grad = layer.backward_owned(&grad).unwrap();
        }
        let mut offset = 0;
        for layer in &mut model.layers {
            layer.apply_update(&mut |param, grad| {
                reference_update(opt, param.as_mut_slice(), grad.as_slice(), offset);
                offset += grad.len();
            });
        }
        loss
    }

    /// The GRU char-rnn of `ModelSpec::CharRnn`, five tokens wide.
    fn tiny_char_rnn(seed: u64) -> Sequential {
        char_rnn(&mut StdRng::seed_from_u64(seed), 5, 3, 4)
    }

    fn token_batch() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(3, 4, |r, t| ((r + 2 * t) % 5) as f32);
        (x, vec![0, 2, 4])
    }

    #[test]
    fn train_batch_is_bit_identical_to_the_reference_step() {
        let (x, y) = toy_batch();
        let mlp = tiny_model(31);
        let layer0 = mlp.layers[0].num_parameters();
        assert_training_matches_reference("mlp", &mlp, layer0, &x, &y, reference_step);
    }

    #[test]
    fn backward_cut_is_the_first_layer_reaching_past_the_frozen_prefix() {
        let model = tiny_model(1);
        // Dense(4, 8) holds 40 parameters, ReLU none, Dense(8, 3) 27.
        assert_eq!(model.backward_cut(0), 0);
        assert_eq!(model.backward_cut(39), 0);
        assert_eq!(model.backward_cut(40), 2);
        assert_eq!(model.backward_cut(66), 2);
        assert_eq!(model.backward_cut(67), 3);
        assert_eq!(model.backward_cut(usize::MAX), 3);
    }

    #[test]
    fn loss_and_gradient_is_full_after_frozen_training() {
        let (x, y) = toy_batch();
        let mut model = tiny_model(33);
        // Freezing exactly layer 0 stops the backward pass at the second
        // Dense, leaving stale gradients in the first...
        let frozen = model.layers[0].num_parameters();
        let opt = SgdConfig::new(0.5).with_frozen_prefix(frozen);
        for _ in 0..3 {
            model.train_batch(&x, &y, &opt).unwrap();
        }
        // ...which `loss_and_gradient` must not return: it equals the
        // gradient of a model that never saw a frozen step.
        let mut fresh = tiny_model(34);
        fresh.set_parameters(&model.parameters()).unwrap();
        let (loss, grad) = model.loss_and_gradient(&x, &y).unwrap();
        let (fresh_loss, fresh_grad) = fresh.loss_and_gradient(&x, &y).unwrap();
        assert_eq!(loss.to_bits(), fresh_loss.to_bits());
        assert_same_bits(&grad, &fresh_grad, "gradient after frozen training");
        assert!(grad[..frozen].iter().any(|&g| g != 0.0));
    }

    /// Trains two copies of `build()`, one per backend, and demands
    /// identical loss and parameter bits after every step, then identical
    /// evaluation bits from the trained pair.
    fn assert_backends_train_identically(
        family: &str,
        build: impl Fn() -> Box<dyn Model>,
        x: &Matrix,
        y: &[usize],
    ) {
        let opt = SgdConfig::new(0.5);
        let (mut naive, mut tiled) = (build(), build());
        naive.set_matmul_backend(MatmulBackendKind::Naive);
        tiled.set_matmul_backend(MatmulBackendKind::Tiled);
        for step in 0..30 {
            let ln = naive.train_batch(x, y, &opt).unwrap();
            let lt = tiled.train_batch(x, y, &opt).unwrap();
            assert_eq!(
                ln.to_bits(),
                lt.to_bits(),
                "{family}: loss diverged at step {step}"
            );
            let (pn, pt) = (naive.parameters(), tiled.parameters());
            for (i, (a, b)) in pn.iter().zip(&pt).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{family}: parameter {i} diverged at step {step}"
                );
            }
        }
        let mut scratch = EvalScratch::new();
        let en = naive.evaluate_with_scratch(x, y, &mut scratch).unwrap();
        let et = tiled.evaluate_with_scratch(x, y, &mut scratch).unwrap();
        assert_eq!(
            (en.loss.to_bits(), en.accuracy.to_bits()),
            (et.loss.to_bits(), et.accuracy.to_bits()),
            "{family}: evaluation diverged after training"
        );
    }

    #[test]
    fn naive_and_tiled_training_is_bit_identical() {
        // One case per model family a scenario can build: the Dense
        // stack of `mlp` and `linear`, and the GRU char-rnn of
        // `ModelSpec::CharRnn`.
        let (x, y) = toy_batch();
        assert_backends_train_identically("dense", || Box::new(tiny_model(17)), &x, &y);
        let (x, y) = token_batch();
        let char_rnn = || Box::new(tiny_char_rnn(17)) as Box<dyn Model>;
        assert_backends_train_identically("char-rnn", char_rnn, &x, &y);
    }
}
