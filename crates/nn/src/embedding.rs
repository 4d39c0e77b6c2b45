//! A standalone token-embedding layer.

use dagfl_tensor::{xavier_uniform, Matrix};
use rand::Rng;

use crate::sequential::take_params;
use crate::{Layer, NnError};

/// Maps integer token ids (stored as `f32` matrix entries) to dense
/// vectors, concatenating per-position embeddings along the row.
///
/// Input: `batch x positions` of token ids; output:
/// `batch x (positions * dim)`. This makes bag-of-token / fixed-window
/// models expressible as ordinary [`Sequential`](crate::Sequential)
/// stacks, and it is the first layer of [`char_rnn`](crate::char_rnn):
/// [`Gru`](crate::Gru) reads position `t` of the output as timestep `t`.
#[derive(Clone)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    table: Matrix,
    grad_table: Matrix,
    /// The token ids of the last training forward pass, row-major.
    tokens: Vec<usize>,
}

impl Embedding {
    /// Creates an embedding table of `vocab x dim` Xavier-initialised
    /// vectors.
    pub fn new<R: Rng>(rng: &mut R, vocab: usize, dim: usize) -> Self {
        Self {
            vocab,
            dim,
            table: xavier_uniform(rng, vocab, dim),
            grad_table: Matrix::zeros(vocab, dim),
            tokens: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Looks every id of `input` up in `table` (`vocab x dim`, row-major),
/// handing each checked id to `seen`. An id that is not a whole number in
/// `0..vocab` (`NaN` and fractions included) is an error.
fn lookup(
    table: &[f32],
    (vocab, dim): (usize, usize),
    input: &Matrix,
    out: &mut Matrix,
    mut seen: impl FnMut(usize),
) -> Result<(), NnError> {
    out.reset(input.rows(), input.cols() * dim);
    for r in 0..input.rows() {
        for (p, &raw) in input.row(r).iter().enumerate() {
            let token = raw as usize;
            if !(raw >= 0.0 && raw.fract() == 0.0 && token < vocab) {
                return Err(NnError::LabelOutOfRange {
                    label: token,
                    classes: vocab,
                });
            }
            out.row_mut(r)[p * dim..(p + 1) * dim]
                .copy_from_slice(&table[token * dim..(token + 1) * dim]);
            seen(token);
        }
    }
    Ok(())
}

impl Layer for Embedding {
    fn name(&self) -> &'static str {
        "Embedding"
    }

    fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        let tokens = &mut self.tokens;
        tokens.clear();
        let shape = (self.vocab, self.dim);
        lookup(self.table.as_slice(), shape, input, out, |token| {
            tokens.push(token)
        })
    }

    fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        lookup(
            self.table.as_slice(),
            (self.vocab, self.dim),
            input,
            out,
            |_| {},
        )
    }

    fn forward_inference_params(
        &self,
        params: &mut &[f32],
        input: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        let table = take_params(params, self.table.len())?;
        lookup(table, (self.vocab, self.dim), input, out, |_| {})
    }

    /// Accumulates position-descending, then batch-row ascending: the
    /// order in which backpropagation through time reaches the timesteps.
    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let (rows, dim) = (grad_output.rows(), self.dim);
        let positions = self.tokens.len() / rows.max(1);
        assert_eq!(
            grad_output.len(),
            self.tokens.len() * dim,
            "backward called without the matching forward"
        );
        self.grad_table.as_mut_slice().fill(0.0);
        for p in (0..positions).rev() {
            for r in 0..rows {
                let slice = &grad_output.row(r)[p * dim..(p + 1) * dim];
                let token = self.tokens[r * positions + p];
                for (g, &d) in self.grad_table.row_mut(token).iter_mut().zip(slice) {
                    *g += d;
                }
            }
        }
        // Token ids are discrete; no gradient flows to the input.
        if let Some(grad_input) = grad_input {
            grad_input.reset(rows, positions);
        }
        Ok(())
    }

    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        visitor(&self.table);
    }

    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        update(&mut self.table, &self.grad_table);
    }

    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        source(&mut self.table);
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for Embedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Embedding")
            .field("vocab", &self.vocab)
            .field("dim", &self.dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::OwnedPasses;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_concatenates_position_embeddings() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 5, 3);
        let x = Matrix::from_rows(&[&[1.0, 4.0]]).unwrap();
        let y = e.forward_owned(&x).unwrap();
        assert_eq!(y.shape(), (1, 6));
        assert_eq!(&y.row(0)[..3], e.table.row(1));
        assert_eq!(&y.row(0)[3..], e.table.row(4));
    }

    #[test]
    fn rejects_out_of_vocab_token() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 5, 3);
        // Past the table, negative, not a number, not whole: none of them
        // may be read as some other token.
        for bad in [5.0, -1.0, f32::NAN, f32::INFINITY, 3.7] {
            let x = Matrix::from_rows(&[&[0.0, bad]]).unwrap();
            assert!(
                matches!(e.forward_owned(&x), Err(NnError::LabelOutOfRange { .. })),
                "token id {bad} was accepted"
            );
            assert!(e.inference_owned(&x).is_err(), "token id {bad}");
        }
    }

    #[test]
    fn backward_accumulates_repeated_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 4, 2);
        // Token 2 appears twice: its gradient row should sum both slots.
        let x = Matrix::from_rows(&[&[2.0, 2.0]]).unwrap();
        e.forward_owned(&x).unwrap();
        let grad = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        e.backward_owned(&grad).unwrap();
        let mut grads = Vec::new();
        e.apply_update(&mut |_, g| grads.push(g.clone()));
        assert_eq!(grads[0].row(2), &[4.0, 6.0]);
        assert_eq!(grads[0].row(0), &[0.0, 0.0]);
    }

    #[test]
    fn parameter_count_is_table_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(&mut rng, 7, 4);
        assert_eq!(e.num_parameters(), 28);
        assert_eq!(e.vocab(), 7);
        assert_eq!(e.dim(), 4);
    }

    #[test]
    fn gradients_match_numeric_in_a_model() {
        use crate::gradcheck::assert_gradients_match;
        use crate::{Dense, Sequential};
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Sequential::new(vec![
            Box::new(Embedding::new(&mut rng, 6, 3)),
            Box::new(Dense::new(&mut rng, 6, 3)),
        ]);
        let x = Matrix::from_fn(4, 2, |r, p| ((r + p) % 6) as f32);
        let y = vec![0, 1, 2, 0];
        assert_gradients_match(&mut model, &x, &y, 1e-2, 0.08);
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = Embedding::new(&mut rng, 8, 5);
        let x = Matrix::from_fn(3, 4, |r, p| ((r * 4 + p) % 8) as f32);
        let train = e.forward_owned(&x).unwrap();
        let infer = e.inference_owned(&x).unwrap();
        assert_eq!(train, infer);
    }
}
