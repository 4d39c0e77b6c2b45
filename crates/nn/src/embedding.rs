//! A standalone token-embedding layer.

use dagfl_tensor::{xavier_uniform, Matrix};
use rand::Rng;

use crate::{Layer, NnError};

/// Maps integer token ids (stored as `f32` matrix entries) to dense
/// vectors, concatenating per-position embeddings along the row.
///
/// Input: `batch x positions` of token ids; output:
/// `batch x (positions * dim)`. This makes bag-of-token / fixed-window
/// models expressible as ordinary [`Sequential`](crate::Sequential)
/// stacks (the recurrent [`CharRnn`](crate::CharRnn) keeps its own
/// internal embedding for per-timestep access).
#[derive(Clone)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    table: Matrix,
    grad_table: Matrix,
    cached_tokens: Option<Vec<Vec<usize>>>,
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
            cached_tokens: None,
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

    fn lookup(&self, input: &Matrix) -> Result<(Matrix, Vec<Vec<usize>>), NnError> {
        let positions = input.cols();
        let mut out = Matrix::zeros(input.rows(), positions * self.dim);
        let mut tokens = Vec::with_capacity(input.rows());
        for r in 0..input.rows() {
            let mut row_tokens = Vec::with_capacity(positions);
            for (p, &raw) in input.row(r).iter().enumerate() {
                let token = raw as usize;
                if raw < 0.0 || token >= self.vocab {
                    return Err(NnError::LabelOutOfRange {
                        label: token,
                        classes: self.vocab,
                    });
                }
                out.row_mut(r)[p * self.dim..(p + 1) * self.dim]
                    .copy_from_slice(self.table.row(token));
                row_tokens.push(token);
            }
            tokens.push(row_tokens);
        }
        Ok((out, tokens))
    }
}

impl Layer for Embedding {
    fn name(&self) -> &'static str {
        "Embedding"
    }

    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let (out, tokens) = self.lookup(input)?;
        self.cached_tokens = Some(tokens);
        Ok(out)
    }

    fn forward_inference(&self, input: &Matrix) -> Result<Matrix, NnError> {
        Ok(self.lookup(input)?.0)
    }

    fn backward_into(
        &mut self,
        grad_output: &Matrix,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let tokens = self
            .cached_tokens
            .as_ref()
            .expect("backward called before forward");
        self.grad_table.map_in_place(|_| 0.0);
        for (r, row_tokens) in tokens.iter().enumerate() {
            let grad_row = grad_output.row(r);
            for (p, &token) in row_tokens.iter().enumerate() {
                let slice = &grad_row[p * self.dim..(p + 1) * self.dim];
                for (g, &d) in self.grad_table.row_mut(token).iter_mut().zip(slice) {
                    *g += d;
                }
            }
        }
        // Token ids are discrete; no gradient flows to the input.
        if let Some(grad_input) = grad_input {
            *grad_input = Matrix::zeros(grad_output.rows(), tokens[0].len());
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_concatenates_position_embeddings() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 5, 3);
        let x = Matrix::from_rows(&[&[1.0, 4.0]]).unwrap();
        let y = e.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 6));
        assert_eq!(&y.row(0)[..3], e.table.row(1));
        assert_eq!(&y.row(0)[3..], e.table.row(4));
    }

    #[test]
    fn rejects_out_of_vocab_token() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 5, 3);
        let x = Matrix::from_rows(&[&[5.0]]).unwrap();
        assert!(matches!(
            e.forward(&x),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn backward_accumulates_repeated_tokens() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(&mut rng, 4, 2);
        // Token 2 appears twice: its gradient row should sum both slots.
        let x = Matrix::from_rows(&[&[2.0, 2.0]]).unwrap();
        e.forward(&x).unwrap();
        let grad = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        e.backward(&grad).unwrap();
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
        let train = e.forward(&x).unwrap();
        let infer = e.forward_inference(&x).unwrap();
        assert_eq!(train, infer);
    }
}
