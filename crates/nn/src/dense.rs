//! Fully connected layer.

use dagfl_tensor::{he_uniform, xavier_uniform, MatmulBackend, MatmulBackendKind, Matrix};
use rand::Rng;

use crate::sequential::take_params;
use crate::{Layer, NnError};

/// A fully connected (affine) layer: `y = x W + b`.
///
/// Weights are stored as `in_features x out_features` so the forward pass is
/// a single row-major matrix product; initialisation is He-uniform
/// ([`Dense::new`], matching the ReLU stacks of the `mlp` models) or
/// Xavier-uniform ([`Dense::xavier`]). Every product over
/// the layer's own weights — the training and inference forward passes,
/// grad-weight, grad-input — runs on the layer's selected
/// [`MatmulBackend`](dagfl_tensor::MatmulBackend); only the flat-parameter
/// path ([`Layer::forward_inference_params`]) names the tiled kernel.
#[derive(Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Matrix,
    backend: &'static dyn MatmulBackend,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Self::with_weight(he_uniform(rng, in_features, out_features))
    }

    /// Creates a dense layer with Xavier-uniform weights and zero bias:
    /// the output layer of a tanh/sigmoid stack such as
    /// [`char_rnn`](crate::char_rnn).
    pub fn xavier<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Self::with_weight(xavier_uniform(rng, in_features, out_features))
    }

    fn with_weight(weight: Matrix) -> Self {
        Self {
            bias: Matrix::zeros(1, weight.cols()),
            grad_weight: Matrix::zeros(weight.rows(), weight.cols()),
            grad_bias: Matrix::zeros(1, weight.cols()),
            weight,
            cached_input: Matrix::default(),
            backend: MatmulBackendKind::default().as_dyn(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix (`in_features x out_features`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias row vector (`1 x out_features`).
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "Dense"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.backend.matmul_into(input, &self.weight, out)?;
        out.add_row_broadcast(self.bias.as_slice())?;
        self.cached_input.copy_from(input);
        Ok(())
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.backend.matmul_into(input, &self.weight, out)?;
        out.add_row_broadcast(self.bias.as_slice())?;
        Ok(())
    }

    fn forward_inference_params(
        &self,
        params: &mut &[f32],
        input: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        // Layout per `visit_parameters`: weights (in x out), then bias.
        let (in_f, out_f) = (self.in_features(), self.out_features());
        let (weight, bias) = take_params(params, in_f * out_f + out_f)?.split_at(in_f * out_f);
        input.matmul_slice_into(weight, out_f, out)?;
        out.add_row_broadcast(bias)?;
        Ok(())
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        // dW = x^T g ; db = column sums of g ; dx = g W^T
        self.backend.transpose_matmul_into(
            &self.cached_input,
            grad_output,
            &mut self.grad_weight,
        )?;
        grad_output.column_sums_into(&mut self.grad_bias);
        if let Some(grad_input) = grad_input {
            self.backend
                .matmul_transpose_into(grad_output, &self.weight, grad_input)?;
        }
        Ok(())
    }

    fn set_backend(&mut self, backend: MatmulBackendKind) {
        self.backend = backend.as_dyn();
    }

    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        update(&mut self.weight, &self.grad_weight);
        update(&mut self.bias, &self.grad_bias);
    }

    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        source(&mut self.weight);
        source(&mut self.bias);
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense")
            .field("in_features", &self.in_features())
            .field("out_features", &self.out_features())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::OwnedPasses;
    use dagfl_tensor::{ShapeError, TiledBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn forward_applies_affine_map() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(&mut rng, 2, 2);
        // Overwrite with known weights.
        let mut idx = 0;
        let vals = [[1.0f32, 2.0], [3.0, 4.0]];
        layer.load_parameters(&mut |m| {
            if idx == 0 {
                for r in 0..2 {
                    for c in 0..2 {
                        m[(r, c)] = vals[r][c];
                    }
                }
            } else {
                m[(0, 0)] = 10.0;
                m[(0, 1)] = 20.0;
            }
            idx += 1;
        });
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let y = layer.forward_owned(&x).unwrap();
        assert_eq!(y.row(0), &[14.0, 26.0]);
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(&mut rng, 5, 3);
        let x = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.1);
        let train = layer.forward_owned(&x).unwrap();
        let infer = layer.inference_owned(&x).unwrap();
        assert_eq!(train, infer);
    }

    #[test]
    fn backward_shapes_are_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(&mut rng, 5, 3);
        let x = Matrix::from_fn(4, 5, |_, _| 1.0);
        layer.forward_owned(&x).unwrap();
        let grad = Matrix::from_fn(4, 3, |_, _| 1.0);
        let grad_input = layer.backward_owned(&grad).unwrap();
        assert_eq!(grad_input.shape(), (4, 5));
        layer.apply_update(&mut |p, g| assert_eq!(p.shape(), g.shape()));
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(&mut rng, 2, 2);
        let x = Matrix::zeros(3, 2);
        layer.forward_owned(&x).unwrap();
        let grad = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        layer.backward_owned(&grad).unwrap();
        let mut seen = Vec::new();
        layer.apply_update(&mut |_, g| seen.push(g.clone()));
        // Second parameter is the bias.
        assert_eq!(seen[1].row(0), &[9.0, 12.0]);
    }

    /// Counts the products a training step runs, delegating the work to
    /// the tiled kernels.
    #[derive(Default)]
    struct CountingBackend {
        matmul: AtomicUsize,
        transpose_matmul: AtomicUsize,
        matmul_transpose: AtomicUsize,
    }

    impl MatmulBackend for CountingBackend {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), ShapeError> {
            self.matmul.fetch_add(1, Ordering::Relaxed);
            TiledBackend.matmul_into(a, b, out)
        }

        fn matmul_transpose_into(
            &self,
            a: &Matrix,
            b: &Matrix,
            out: &mut Matrix,
        ) -> Result<(), ShapeError> {
            self.matmul_transpose.fetch_add(1, Ordering::Relaxed);
            TiledBackend.matmul_transpose_into(a, b, out)
        }

        fn transpose_matmul_into(
            &self,
            a: &Matrix,
            b: &Matrix,
            out: &mut Matrix,
        ) -> Result<(), ShapeError> {
            self.transpose_matmul.fetch_add(1, Ordering::Relaxed);
            TiledBackend.transpose_matmul_into(a, b, out)
        }
    }

    #[test]
    fn a_training_step_runs_no_product_without_a_consumer() {
        use crate::{Embedding, Gru, Model, Relu, Sequential, SgdConfig};
        let counts: &'static CountingBackend = Box::leak(Box::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut dense = |inputs, outputs| {
            let mut layer = Dense::new(&mut rng, inputs, outputs);
            layer.backend = counts;
            Box::new(layer)
        };
        let mut model = Sequential::new(vec![dense(6, 5), Box::new(Relu::new()), dense(5, 3)]);
        let x = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32 * 0.1 - 1.0);
        let y = [0, 1, 2, 0];
        let products = || {
            [
                counts.matmul.swap(0, Ordering::Relaxed),
                counts.transpose_matmul.swap(0, Ordering::Relaxed),
                counts.matmul_transpose.swap(0, Ordering::Relaxed),
            ]
        };
        // Two forwards (A·B), two weight gradients (Aᵀ·B), and ONE input
        // gradient (A·Bᵀ): the upper layer's, which the lower layer
        // consumes. Nothing consumes the lower layer's.
        model.train_batch(&x, &y, &SgdConfig::new(0.1)).unwrap();
        assert_eq!(products(), [2, 2, 1]);
        model.loss_and_gradient(&x, &y).unwrap();
        assert_eq!(products(), [2, 2, 1]);
        // With layer 0 frozen nothing consumes the upper layer's either,
        // and layer 0 is not asked for its weight gradient.
        let frozen = SgdConfig::new(0.1).with_frozen_prefix(6 * 5 + 5);
        model.train_batch(&x, &y, &frozen).unwrap();
        assert_eq!(products(), [2, 1, 0]);
        // Inference reaches the selected backend too, on fresh and on
        // reused buffers: one forward per layer.
        model.evaluate(&x, &y).unwrap();
        assert_eq!(products(), [2, 0, 0]);
        let mut scratch = crate::EvalScratch::new();
        model.evaluate_with_scratch(&x, &y, &mut scratch).unwrap();
        assert_eq!(products(), [2, 0, 0]);

        // The char-rnn stack over three timesteps: six forwards and six
        // weight gradients per timestep plus the output layer's.
        let embedding = Embedding::new(&mut rng, 5, 2);
        let mut gru = Gru::new(&mut rng, 2, 4);
        gru.backend = counts;
        let mut output = Dense::xavier(&mut rng, 4, 5);
        output.backend = counts;
        let frozen = SgdConfig::new(0.1).with_frozen_prefix(embedding.num_parameters());
        let mut model = Sequential::new(vec![Box::new(embedding), Box::new(gru), Box::new(output)]);
        let x = Matrix::from_fn(4, 3, |r, t| ((r + 2 * t) % 5) as f32);
        // The GRU's grad-input products are A·B against weights it
        // transposed once per pass: per timestep `ds` and the three
        // products of `dx`; the two of `dh_prev`, but not at `t = 0`. The
        // one A·Bᵀ left is the output layer's `dh`.
        model.train_batch(&x, &y, &SgdConfig::new(0.1)).unwrap();
        assert_eq!(products(), [3 * 6 + 1 + 3 * (1 + 3) + 2 * 2, 3 * 6 + 1, 1]);
        // While the embedding is frozen nothing consumes `dx`.
        model.train_batch(&x, &y, &frozen).unwrap();
        assert_eq!(products(), [3 * 6 + 1 + 3 + 2 * 2, 3 * 6 + 1, 1]);
        model.evaluate(&x, &y).unwrap();
        assert_eq!(products(), [3 * 6 + 1, 0, 0]);
    }

    #[test]
    fn num_parameters_counts_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::new(&mut rng, 7, 3);
        assert_eq!(layer.num_parameters(), 7 * 3 + 3);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(&mut rng, 7, 3);
        assert!(layer.forward_owned(&Matrix::zeros(1, 6)).is_err());
    }
}
