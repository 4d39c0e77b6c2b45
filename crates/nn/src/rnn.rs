//! The recurrent layer and the next-character model built from it.
//!
//! The paper's Poets experiment trains an LSTM on 80-character windows to
//! predict the next character. We use a GRU (fewer parameters, same
//! modelling class for this task) with full backpropagation through time.
//! [`Gru`] is an ordinary [`Layer`]; [`char_rnn`] stacks it between an
//! [`Embedding`] and a [`Dense`] output layer in a [`Sequential`], so the
//! recurrent model trains, evaluates and is scored through the same code
//! as every feed-forward one. Gradients are verified against numerical
//! differentiation in the test suite.

use dagfl_tensor::{xavier_uniform, MatmulBackend, MatmulBackendKind, Matrix, ShapeError};
use rand::Rng;
use std::cell::RefCell;

use crate::activations::{sigmoid_in_place, tanh_in_place};
use crate::sequential::take_params;
use crate::{Dense, Embedding, Layer, NnError, Sequential};

/// Positions in [`Gru`]'s parameter and gradient arrays — also the order
/// of the layer's flat parameters.
const WZ: usize = 0;
const WR: usize = 1;
const WH: usize = 2;
const UZ: usize = 3;
const UR: usize = 4;
const UH: usize = 5;
const BZ: usize = 6;
const BR: usize = 7;
const BH: usize = 8;

/// A gated recurrent unit run over a whole sequence.
///
/// Input rows are sequences flattened timestep by timestep
/// (`batch x (seq_len * input_size)`, what [`Embedding`] produces); the
/// output is the hidden state after the last timestep
/// (`batch x hidden_size`), starting from a zero state. Per timestep, in
/// the standard formulation:
///
/// ```text
/// z = sigmoid(x Wz + h_prev Uz + bz)        (update gate)
/// r = sigmoid(x Wr + h_prev Ur + br)        (reset gate)
/// h~ = tanh(x Wh + (r ⊙ h_prev) Uh + bh)   (candidate)
/// h = (1 - z) ⊙ h_prev + z ⊙ h~
/// ```
///
/// The backward pass is backpropagation through time over the gates and
/// states the training forward pass kept. Those, and every temporary of
/// every pass, live on a tape whose matrices are reshaped, never
/// reallocated, so a steady-state training step or evaluation allocates
/// nothing.
#[derive(Clone)]
pub struct Gru {
    input_size: usize,
    hidden_size: usize,
    /// `Wz Wr Wh Uz Ur Uh bz br bh`.
    params: [Matrix; 9],
    grads: [Matrix; 9],
    pub(crate) backend: &'static dyn MatmulBackend,
    /// Held from a training forward pass to its backward pass.
    tape: Option<Tape>,
}

/// What one timestep leaves behind for backpropagation through time.
#[derive(Debug, Clone, Default)]
struct Step {
    z: Matrix,
    r: Matrix,
    hc: Matrix,
    h: Matrix,
}

/// The working memory of one pass over a batch of sequences.
#[derive(Debug, Clone, Default)]
struct Tape {
    /// `Wzᵀ Wrᵀ Whᵀ Uzᵀ Urᵀ Uhᵀ`, indexed like the parameters: the
    /// weights of the grad-input products, transposed once per backward
    /// pass so every timestep multiplies by them as `A·B`.
    transposed: [Matrix; 6],
    /// The layer input of a training forward pass.
    input: Matrix,
    /// One entry per timestep of that pass; inference reuses the first.
    steps: Vec<Step>,
    /// The zero state before the first timestep.
    h0: Matrix,
    x: Matrix,
    s: Matrix,
    product: Matrix,
    dzpre: Matrix,
    drpre: Matrix,
    dhpre: Matrix,
    ds: Matrix,
    dh: Matrix,
    dh_prev: Matrix,
    dx: Matrix,
}

thread_local! {
    /// The tapes no pass on this thread is using. A tape holds four
    /// matrices per timestep, several times the layer's parameters.
    /// Inference takes `&self`, so its pass cannot keep a tape in the
    /// layer; lending one from here serves the scoring pass and the
    /// training pass from the same buffers.
    static TAPES: RefCell<Vec<Tape>> = const { RefCell::new(Vec::new()) };
}

fn borrow_tape() -> Tape {
    TAPES
        .with(|tapes| tapes.borrow_mut().pop())
        .unwrap_or_default()
}

fn return_tape(tape: Tape) {
    TAPES.with(|tapes| tapes.borrow_mut().push(tape));
}

impl Gru {
    /// Creates a GRU with Xavier-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        assert!(
            input_size > 0 && hidden_size > 0,
            "GRU dimensions must be positive"
        );
        // Drawn in index order: the three `W`, the three `U`, zero biases.
        let params: [Matrix; 9] = std::array::from_fn(|i| match i {
            WZ..=WH => xavier_uniform(rng, input_size, hidden_size),
            UZ..=UH => xavier_uniform(rng, hidden_size, hidden_size),
            _ => Matrix::zeros(1, hidden_size),
        });
        Self {
            input_size,
            hidden_size,
            grads: std::array::from_fn(|i| Matrix::zeros(params[i].rows(), params[i].cols())),
            params,
            backend: MatmulBackendKind::default().as_dyn(),
            tape: None,
        }
    }

    /// Feature dimension of one timestep.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden state dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// The number of timesteps in `input`.
    fn seq_len(&self, input: &Matrix) -> Result<usize, NnError> {
        if input.cols() % self.input_size != 0 {
            return Err(NnError::Shape(ShapeError::new(
                "gru_forward",
                input.shape(),
                (1, self.input_size),
            )));
        }
        Ok(input.cols() / self.input_size)
    }

    /// The inference pass over weights reached through `product`
    /// (`product(a, i, out)` is `out = a · params[i]`) and `bias`. Only
    /// the current state is kept.
    fn infer(
        &self,
        product: impl Fn(&Matrix, usize, &mut Matrix) -> Result<(), ShapeError>,
        bias: [&[f32]; 3],
        input: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        let seq_len = self.seq_len(input)?;
        let mut tape = borrow_tape();
        if tape.steps.is_empty() {
            tape.steps.push(Step::default());
        }
        out.reset(input.rows(), self.hidden_size);
        let inferred = (0..seq_len).try_for_each(|t| {
            let Tape {
                steps,
                x,
                s,
                product: tmp,
                ..
            } = &mut tape;
            timestep(input, t, self.input_size, x);
            forward_step(&product, bias, x, out, &mut steps[0], s, tmp)?;
            std::mem::swap(out, &mut steps[0].h);
            Ok(())
        });
        return_tape(tape);
        inferred
    }

    /// Backpropagation through time over `tape`, `t` descending. The
    /// weights the state and input gradients multiply by are transposed
    /// into the tape once, up front — the `W`s only when `grad_input` is
    /// wanted — and every timestep then multiplies by them as `A·B`. Per
    /// timestep every parameter gradient is a product into a buffer that
    /// is then added to the running sum; `dh_prev` is not formed at
    /// `t = 0` and `dx` only when `grad_input` is wanted.
    fn backpropagate(
        &mut self,
        tape: &mut Tape,
        grad_output: &Matrix,
        mut grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let (input_size, params, grads, backend) =
            (self.input_size, &self.params, &mut self.grads, self.backend);
        if grad_output.shape() != tape.h0.shape() {
            return Err(NnError::Shape(ShapeError::new(
                "gru_backward",
                grad_output.shape(),
                tape.h0.shape(),
            )));
        }
        for grad in grads.iter_mut() {
            grad.as_mut_slice().fill(0.0);
        }
        if let Some(grad_input) = grad_input.as_deref_mut() {
            grad_input.reset(tape.input.rows(), tape.input.cols());
        }
        let first = if grad_input.is_some() { WZ } else { UZ };
        for (weight, transposed) in params[first..].iter().zip(&mut tape.transposed[first..]) {
            weight.transpose_into(transposed);
        }
        // `a · Wᵀ` below is `matmul_into(a, Wᵀ)`, which skips zero entries
        // of `a` where a dot product over `W`'s rows would add them. For
        // finite weights that cannot change a bit: each accumulator starts
        // at +0.0 and, under round-to-nearest, never becomes -0.0
        // (`x + (-x) = +0.0`, `+0.0 + (-0.0) = +0.0`), so adding a ±0
        // product leaves it unchanged.
        let transposed = &tape.transposed;
        tape.dh.copy_from(grad_output);
        for t in (0..tape.steps.len()).rev() {
            let h_prev = if t > 0 {
                &tape.steps[t - 1].h
            } else {
                &tape.h0
            };
            let Step { z, r, hc, .. } = &tape.steps[t];
            let (dzpre, drpre, dhpre) = (&mut tape.dzpre, &mut tape.drpre, &mut tape.dhpre);
            let (dh, ds, product) = (&mut tape.dh, &mut tape.ds, &mut tape.product);
            elementwise([dh, hc, h_prev, z], dzpre, |[dh, hc, h, z]| {
                (dh * (hc - h)) * (z * (1.0 - z))
            });
            elementwise([dh, z, hc], dhpre, |[dh, z, hc]| (dh * z) * (1.0 - hc * hc));
            // ds is the gradient of r ⊙ h_prev.
            backend.matmul_into(dhpre, &transposed[UH], ds)?;
            elementwise([ds, h_prev, r], drpre, |[ds, h, r]| {
                (ds * h) * (r * (1.0 - r))
            });
            if t > 0 {
                // dh_prev = dh ⊙ (1-z) + ds ⊙ r + dzpre Uz^T + drpre Ur^T
                elementwise([dh, z, ds, r], &mut tape.dh_prev, |[dh, z, ds, r]| {
                    dh * (1.0 - z) + ds * r
                });
                for (dpre, u) in [(&*dzpre, UZ), (&*drpre, UR)] {
                    backend.matmul_into(dpre, &transposed[u], product)?;
                    tape.dh_prev.add_assign(product)?;
                }
            }
            if let Some(grad_input) = grad_input.as_deref_mut() {
                // dx = dzpre Wz^T + drpre Wr^T + dhpre Wh^T
                backend.matmul_into(dzpre, &transposed[WZ], &mut tape.dx)?;
                for (dpre, w) in [(&*drpre, WR), (&*dhpre, WH)] {
                    backend.matmul_into(dpre, &transposed[w], product)?;
                    tape.dx.add_assign(product)?;
                }
                for b in 0..tape.dx.rows() {
                    grad_input.row_mut(b)[t * input_size..(t + 1) * input_size]
                        .copy_from_slice(tape.dx.row(b));
                }
            }
            timestep(&tape.input, t, input_size, &mut tape.x);
            elementwise([r, h_prev], &mut tape.s, |[r, h]| r * h);
            for (dpre, w, u, state, b) in [
                (&*dzpre, WZ, UZ, h_prev, BZ),
                (&*drpre, WR, UR, h_prev, BR),
                (&*dhpre, WH, UH, &tape.s, BH),
            ] {
                backend.transpose_matmul_into(&tape.x, dpre, product)?;
                grads[w].add_assign(product)?;
                backend.transpose_matmul_into(state, dpre, product)?;
                grads[u].add_assign(product)?;
                dpre.column_sums_into(product);
                grads[b].add_assign(product)?;
            }
            if t > 0 {
                std::mem::swap(&mut tape.dh, &mut tape.dh_prev);
            }
        }
        Ok(())
    }
}

/// Copies timestep `t` of every sequence in `input` into `out`
/// (`batch x width`).
fn timestep(input: &Matrix, t: usize, width: usize, out: &mut Matrix) {
    out.reset(input.rows(), width);
    for b in 0..input.rows() {
        out.row_mut(b)
            .copy_from_slice(&input.row(b)[t * width..(t + 1) * width]);
    }
}

/// `out[i] = f([inputs[0][i], inputs[1][i], ..])` over equally shaped
/// matrices.
fn elementwise<const N: usize>(
    inputs: [&Matrix; N],
    out: &mut Matrix,
    f: impl Fn([f32; N]) -> f32,
) {
    out.reset(inputs[0].rows(), inputs[0].cols());
    let out = out.as_mut_slice();
    // Slices of one known length let the loop run without bounds checks.
    let inputs = inputs.map(|m| &m.as_slice()[..out.len()]);
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(inputs.map(|values| values[i]));
    }
}

/// One forward timestep: fills `step` from `x` and `h_prev`. Each gate is
/// `x·W`, `+= h·U`, `+= b` in that order, then one slice kernel over the
/// whole gate: [`sigmoid_in_place`] for `z` and `r`, [`tanh_in_place`]
/// for the candidate, bit-identical to the per-element libm forms. Both
/// run in lanes: the sigmoid's exps come from `dagfl_tensor::exp_in_place`,
/// the candidate's `tanhf` from a transcription of fdlibm.
fn forward_step(
    product: &impl Fn(&Matrix, usize, &mut Matrix) -> Result<(), ShapeError>,
    bias: [&[f32]; 3],
    x: &Matrix,
    h_prev: &Matrix,
    Step { z, r, hc, h }: &mut Step,
    s: &mut Matrix,
    tmp: &mut Matrix,
) -> Result<(), ShapeError> {
    let mut pre_activation = |w, state: &Matrix, u, b, out: &mut Matrix| {
        product(x, w, out)?;
        product(state, u, tmp)?;
        out.add_assign(tmp)?;
        out.add_row_broadcast(b)
    };
    pre_activation(WZ, h_prev, UZ, bias[0], z)?;
    sigmoid_in_place(z.as_mut_slice());
    pre_activation(WR, h_prev, UR, bias[1], r)?;
    sigmoid_in_place(r.as_mut_slice());
    elementwise([r, h_prev], s, |[r, h]| r * h);
    pre_activation(WH, s, UH, bias[2], hc)?;
    tanh_in_place(hc.as_mut_slice());
    elementwise([z, h_prev, hc], h, |[z, h, hc]| (1.0 - z) * h + z * hc);
    Ok(())
}

impl Layer for Gru {
    fn name(&self) -> &'static str {
        "Gru"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        let seq_len = self.seq_len(input)?;
        let (params, backend) = (&self.params, self.backend);
        let product =
            |a: &Matrix, i: usize, out: &mut Matrix| backend.matmul_into(a, &params[i], out);
        let bias = [BZ, BR, BH].map(|i| params[i].as_slice());
        let Tape {
            input: saved,
            steps,
            h0,
            x,
            s,
            product: tmp,
            ..
        } = self.tape.get_or_insert_with(borrow_tape);
        saved.copy_from(input);
        steps.resize_with(seq_len, Step::default);
        h0.reset(input.rows(), self.hidden_size);
        for t in 0..seq_len {
            let (done, rest) = steps.split_at_mut(t);
            let h_prev = done.last().map_or(&*h0, |step| &step.h);
            timestep(input, t, self.input_size, x);
            forward_step(&product, bias, x, h_prev, &mut rest[0], s, tmp)?;
        }
        out.copy_from(steps.last().map_or(&*h0, |step| &step.h));
        Ok(())
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        let product = |a: &Matrix, i: usize, out: &mut Matrix| {
            self.backend.matmul_into(a, &self.params[i], out)
        };
        let bias = [BZ, BR, BH].map(|i| self.params[i].as_slice());
        self.infer(product, bias, input, out)
    }

    fn forward_inference_params(
        &self,
        params: &mut &[f32],
        input: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        let mut block = take_params(params, self.num_parameters())?;
        let mut slices = [&[][..]; 9];
        for (slice, own) in slices.iter_mut().zip(&self.params) {
            (*slice, block) = block.split_at(own.len());
        }
        let product = |a: &Matrix, i: usize, out: &mut Matrix| {
            a.matmul_slice_into(slices[i], self.hidden_size, out)
        };
        let bias = [slices[BZ], slices[BR], slices[BH]];
        self.infer(product, bias, input, out)
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let mut tape = self.tape.take().expect("backward called before forward");
        let backpropagated = self.backpropagate(&mut tape, grad_output, grad_input);
        return_tape(tape);
        backpropagated
    }

    fn set_backend(&mut self, backend: MatmulBackendKind) {
        self.backend = backend.as_dyn();
    }

    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        self.params.iter().for_each(visitor);
    }

    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        for (param, grad) in self.params.iter_mut().zip(&self.grads) {
            update(param, grad);
        }
    }

    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        self.params.iter_mut().for_each(source);
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for Gru {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gru")
            .field("input_size", &self.input_size)
            .field("hidden_size", &self.hidden_size)
            .finish()
    }
}

/// The next-character prediction model: [`Embedding`] → [`Gru`] →
/// [`Dense`] over the final hidden state, for `vocab` tokens.
///
/// Inputs are matrices whose rows are fixed-length token-id sequences
/// (stored as `f32`, e.g. `x[(i, t)] = 42.0` means token 42 at position `t`
/// of sample `i`). The label of a sample is the id of the character that
/// follows the sequence. The output layer is Xavier-initialised like the
/// rest of the stack.
///
/// # Example
///
/// ```
/// use dagfl_nn::{char_rnn, Model, SgdConfig};
/// use dagfl_tensor::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), dagfl_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = char_rnn(&mut rng, 16, 4, 8);
/// // Two sequences of 5 tokens each.
/// let x = Matrix::from_fn(2, 5, |r, t| ((r + t) % 16) as f32);
/// let loss = model.train_batch(&x, &[3, 7], &SgdConfig::new(0.1))?;
/// assert!(loss.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn char_rnn<R: Rng>(rng: &mut R, vocab: usize, embed_dim: usize, hidden: usize) -> Sequential {
    Sequential::new(vec![
        Box::new(Embedding::new(rng, vocab, embed_dim)),
        Box::new(Gru::new(rng, embed_dim, hidden)),
        Box::new(Dense::xavier(rng, hidden, vocab)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_bits, assert_training_matches_reference, OwnedPasses};
    use crate::sequential::tests::reference_step;
    use crate::{Evaluation, Model, SgdConfig};
    use dagfl_tensor::NaiveBackend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> Sequential {
        char_rnn(&mut StdRng::seed_from_u64(seed), 6, 3, 5)
    }

    /// A tiny deterministic language: token t is always followed by
    /// (t + 1) mod vocab.
    fn cyclic_batch(vocab: usize, seq_len: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for start in 0..vocab {
            let seq: Vec<f32> = (0..seq_len).map(|t| ((start + t) % vocab) as f32).collect();
            labels.push((start + seq_len) % vocab);
            rows.push(seq);
        }
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    /// The flat lengths of the three blocks of `toy_model`: embedding,
    /// GRU, output layer.
    const BLOCKS: [usize; 3] = [6 * 3, 3 * 3 * 5 + 3 * 5 * 5 + 3 * 5, 5 * 6 + 6];

    #[test]
    fn parameter_roundtrip() {
        let model = toy_model(0);
        let params = model.parameters();
        assert_eq!(params.len(), model.num_parameters());
        let mut other = toy_model(1);
        other.set_parameters(&params).unwrap();
        assert_eq!(other.parameters(), params);
        // The flat order is `embedding, wz wr wh uz ur uh bz br bh, out_w,
        // out_b`, drawn from the RNG in that order.
        let mut rng = StdRng::seed_from_u64(0);
        let mut expected = xavier_uniform(&mut rng, 6, 3).into_vec();
        for (rows, cols) in [(3, 5), (3, 5), (3, 5), (5, 5), (5, 5), (5, 5)] {
            expected.extend(xavier_uniform(&mut rng, rows, cols).into_vec());
        }
        expected.extend([0.0; 3 * 5]);
        expected.extend(xavier_uniform(&mut rng, 5, 6).into_vec());
        expected.extend([0.0; 6]);
        assert_same_bits(&params, &expected, "flat parameter order");
        assert_eq!(params.len(), BLOCKS.iter().sum::<usize>());
    }

    #[test]
    fn set_parameters_rejects_wrong_length() {
        let mut model = toy_model(0);
        assert!(matches!(
            model.set_parameters(&[1.0]),
            Err(NnError::ParameterCount { .. })
        ));
    }

    #[test]
    fn learns_cyclic_language() {
        let mut model = toy_model(3);
        let (x, y) = cyclic_batch(6, 4);
        let initial = model.evaluate(&x, &y).unwrap();
        let opt = SgdConfig::new(0.5);
        for _ in 0..300 {
            model.train_batch(&x, &y, &opt).unwrap();
        }
        let eval = model.evaluate(&x, &y).unwrap();
        assert!(
            eval.accuracy > 0.9,
            "accuracy stayed at {} (loss {} -> {})",
            eval.accuracy,
            initial.loss,
            eval.loss
        );
    }

    #[test]
    fn rejects_token_out_of_range() {
        let mut model = toy_model(0);
        let x = Matrix::from_rows(&[&[99.0, 0.0]]).unwrap();
        assert!(matches!(
            model.train_batch(&x, &[0], &SgdConfig::new(0.1)),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_label_out_of_range() {
        let mut model = toy_model(0);
        let x = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        assert!(matches!(
            model.train_batch(&x, &[6], &SgdConfig::new(0.1)),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_batch_mismatch() {
        let mut model = toy_model(0);
        let x = Matrix::zeros(2, 3);
        assert!(matches!(
            model.train_batch(&x, &[0], &SgdConfig::new(0.1)),
            Err(NnError::BatchMismatch { .. })
        ));
    }

    #[test]
    fn evaluate_empty_is_default() {
        let model = toy_model(0);
        let eval = model.evaluate(&Matrix::zeros(0, 3), &[]).unwrap();
        assert_eq!(eval, Evaluation::default());
    }

    #[test]
    fn predict_matches_evaluate_correct_count() {
        let mut model = toy_model(3);
        let (x, y) = cyclic_batch(6, 4);
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
    fn train_batch_is_bit_identical_to_the_reference_step() {
        let model = toy_model(7);
        let (x, y) = cyclic_batch(6, 4);
        assert_training_matches_reference("char-rnn", &model, BLOCKS[0], &x, &y, reference_step);
    }

    #[test]
    fn frozen_blocks_stop_the_backward_pass_above_them() {
        let (x, y) = cyclic_batch(6, 4);
        let model = toy_model(8);
        let [embedding, gru, _] = BLOCKS;
        let gradient_of = |frozen| {
            let mut model = model.clone();
            model.forward_backward(&x, &y, frozen).unwrap();
            model.collect_gradients()
        };
        let full = gradient_of(0);
        // Whatever sits above the frozen prefix keeps its exact gradient;
        // a fully frozen block below it stays zeroed, because nothing
        // computed it: `Gru::backward_into` got no grad-input buffer
        // (embedding frozen) or was not called (GRU frozen too).
        for (frozen, computed_from) in [
            (embedding - 1, 0),
            (embedding, embedding),
            (embedding + gru, embedding + gru),
        ] {
            let cut = gradient_of(frozen);
            assert_same_bits(
                &cut[computed_from..],
                &full[computed_from..],
                &format!("frozen={frozen}"),
            );
            assert!(cut[..computed_from].iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn backward_step_outputs_do_not_change_parameter_gradients() {
        let mut gru = Gru::new(&mut StdRng::seed_from_u64(9), 3, 4);
        // Two sequences of three timesteps.
        let x = Matrix::from_fn(2, 9, |r, c| (r as f32 - c as f32) * 0.2);
        gru.forward_owned(&x).unwrap();
        let grad_h = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 0.3);
        let grads_of = |gru: &mut Gru| {
            let mut grads = Vec::new();
            gru.apply_update(&mut |_, g| grads.extend_from_slice(g.as_slice()));
            grads
        };
        let mut wanted = gru.clone();
        let dx = wanted.backward_owned(&grad_h).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.as_slice().iter().all(|&d| d != 0.0));
        let mut unwanted = gru.clone();
        unwanted.backward_into(&grad_h, None).unwrap();
        assert_same_bits(
            &grads_of(&mut unwanted),
            &grads_of(&mut wanted),
            "GRU parameter gradients",
        );
        let wrong_shape = Matrix::zeros(2, 5);
        assert!(matches!(
            gru.backward_into(&wrong_shape, None),
            Err(NnError::Shape(_))
        ));
    }

    /// Backpropagation through time over the tape of `gru`'s last
    /// training forward pass, by the textbook formula: every grad-input
    /// product is [`NaiveBackend`]'s dot-product `A·Bᵀ` (no zero skip)
    /// against the untransposed weight, every other product naive too,
    /// every result fresh.
    fn oracle_backward(
        gru: &Gru,
        grad_output: &Matrix,
        want_dx: bool,
    ) -> (Vec<Matrix>, Option<Matrix>) {
        let tape = gru.tape.as_ref().expect("a training forward pass first");
        let (p, width) = (&gru.params, gru.input_size);
        let times_transposed = |a: &Matrix, w: usize| {
            let mut out = Matrix::default();
            NaiveBackend
                .matmul_transpose_into(a, &p[w], &mut out)
                .unwrap();
            out
        };
        let transposed_times = |a: &Matrix, b: &Matrix| {
            let mut out = Matrix::default();
            NaiveBackend.transpose_matmul_into(a, b, &mut out).unwrap();
            out
        };
        fn fresh<const N: usize>(inputs: [&Matrix; N], f: impl Fn([f32; N]) -> f32) -> Matrix {
            let mut out = Matrix::default();
            elementwise(inputs, &mut out, f);
            out
        }
        let mut grads: Vec<Matrix> = p
            .iter()
            .map(|w| Matrix::zeros(w.rows(), w.cols()))
            .collect();
        let mut dx_all = want_dx.then(|| Matrix::zeros(tape.input.rows(), tape.input.cols()));
        let mut dh = grad_output.clone();
        for t in (0..tape.steps.len()).rev() {
            let h_prev = if t > 0 {
                &tape.steps[t - 1].h
            } else {
                &tape.h0
            };
            let Step { z, r, hc, .. } = &tape.steps[t];
            let dzpre = fresh([&dh, hc, h_prev, z], |[dh, hc, h, z]| {
                (dh * (hc - h)) * (z * (1.0 - z))
            });
            let dhpre = fresh([&dh, z, hc], |[dh, z, hc]| (dh * z) * (1.0 - hc * hc));
            let ds = times_transposed(&dhpre, UH);
            let drpre = fresh([&ds, h_prev, r], |[ds, h, r]| (ds * h) * (r * (1.0 - r)));
            if let Some(dx_all) = &mut dx_all {
                let mut dx = times_transposed(&dzpre, WZ);
                dx.add_assign(&times_transposed(&drpre, WR)).unwrap();
                dx.add_assign(&times_transposed(&dhpre, WH)).unwrap();
                for b in 0..dx.rows() {
                    dx_all.row_mut(b)[t * width..(t + 1) * width].copy_from_slice(dx.row(b));
                }
            }
            let mut x = Matrix::default();
            timestep(&tape.input, t, width, &mut x);
            let s = fresh([r, h_prev], |[r, h]| r * h);
            for (dpre, w, u, state, b) in [
                (&dzpre, WZ, UZ, h_prev, BZ),
                (&drpre, WR, UR, h_prev, BR),
                (&dhpre, WH, UH, &s, BH),
            ] {
                grads[w].add_assign(&transposed_times(&x, dpre)).unwrap();
                grads[u].add_assign(&transposed_times(state, dpre)).unwrap();
                let mut sums = Matrix::default();
                dpre.column_sums_into(&mut sums);
                grads[b].add_assign(&sums).unwrap();
            }
            if t > 0 {
                let mut dh_prev = fresh([&dh, z, &ds, r], |[dh, z, ds, r]| dh * (1.0 - z) + ds * r);
                dh_prev.add_assign(&times_transposed(&dzpre, UZ)).unwrap();
                dh_prev.add_assign(&times_transposed(&drpre, UR)).unwrap();
                dh = dh_prev;
            }
        }
        (grads, dx_all)
    }

    #[test]
    fn backward_matches_the_dot_product_oracle_bit_for_bit() {
        let mut gru = Gru::new(&mut StdRng::seed_from_u64(11), 3, 4);
        // Five sequences of four timesteps; every third input is an exact
        // zero, and rows 1 and 3 of the output gradient are all zero, so
        // whole rows of every gate gradient are zero at every timestep:
        // the entries `matmul_into` skips and the oracle's dot products
        // add.
        let x = Matrix::from_fn(5, 12, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                (r as f32 * 0.3 - c as f32 * 0.17).sin()
            }
        });
        let grad_h = Matrix::from_fn(5, 4, |r, c| {
            if r % 2 == 1 {
                0.0
            } else {
                (r * 4 + c) as f32 * 0.1 - 0.7
            }
        });
        for kind in [MatmulBackendKind::Naive, MatmulBackendKind::Tiled] {
            gru.set_backend(kind);
            gru.forward_owned(&x).unwrap();
            for want_dx in [false, true] {
                let (oracle_grads, oracle_dx) = oracle_backward(&gru, &grad_h, want_dx);
                let mut run = gru.clone();
                let mut dx = Matrix::default();
                run.backward_into(&grad_h, want_dx.then_some(&mut dx))
                    .unwrap();
                let context = format!("{kind:?}, dx wanted: {want_dx}");
                for (i, (grad, oracle)) in run.grads.iter().zip(&oracle_grads).enumerate() {
                    assert_eq!(grad.shape(), oracle.shape(), "{context}, parameter {i}");
                    assert_same_bits(
                        grad.as_slice(),
                        oracle.as_slice(),
                        &format!("{context}, parameter {i}"),
                    );
                }
                if let Some(oracle_dx) = oracle_dx {
                    assert_eq!(dx.shape(), x.shape(), "{context}");
                    assert_same_bits(dx.as_slice(), oracle_dx.as_slice(), &context);
                    assert!(dx.row(1).iter().all(|&d| d == 0.0), "{context}");
                    assert!(dx.row(0).iter().any(|&d| d != 0.0), "{context}");
                }
            }
        }
    }

    #[test]
    fn gru_cell_dimensions() {
        let mut gru = Gru::new(&mut StdRng::seed_from_u64(0), 4, 7);
        assert_eq!(gru.input_size(), 4);
        assert_eq!(gru.hidden_size(), 7);
        assert_eq!(gru.num_parameters(), 3 * 4 * 7 + 3 * 7 * 7 + 3 * 7);
        // Three timesteps in, the last hidden state out; a width that is
        // no whole number of timesteps is an error.
        let h = gru.forward_owned(&Matrix::zeros(2, 12)).unwrap();
        assert_eq!(h.shape(), (2, 7));
        assert_eq!(gru.inference_owned(&Matrix::zeros(2, 12)).unwrap(), h);
        assert!(matches!(
            gru.forward_owned(&Matrix::zeros(2, 13)),
            Err(NnError::Shape(_))
        ));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = toy_model(5);
        let b = a.clone();
        let (x, y) = cyclic_batch(6, 3);
        a.train_batch(&x, &y, &SgdConfig::new(0.5)).unwrap();
        assert_ne!(a.parameters(), b.parameters());
    }
}
