//! Recurrent next-character model: Embedding → GRU → Dense.
//!
//! The paper's Poets experiment trains an LSTM on 80-character windows to
//! predict the next character. We use a GRU (fewer parameters, same
//! modelling class for this task) with full backpropagation through time,
//! implemented directly on [`Matrix`] batches. Gradients are verified
//! against numerical differentiation in the test suite.

use dagfl_tensor::{
    argmax, softmax_cross_entropy, xavier_uniform, MatmulBackend, MatmulBackendKind, Matrix,
};
use rand::Rng;

use crate::activations::sigmoid_scalar;
use crate::{Evaluation, Model, NnError, SgdConfig};

/// A gated recurrent unit cell operating on whole batches.
///
/// Weight naming follows the standard GRU formulation:
///
/// ```text
/// z = sigmoid(x Wz + h_prev Uz + bz)        (update gate)
/// r = sigmoid(x Wr + h_prev Ur + br)        (reset gate)
/// h~ = tanh(x Wh + (r ⊙ h_prev) Uh + bh)   (candidate)
/// h = (1 - z) ⊙ h_prev + z ⊙ h~
/// ```
#[derive(Clone)]
pub struct GruCell {
    input_size: usize,
    hidden_size: usize,
    wz: Matrix,
    wr: Matrix,
    wh: Matrix,
    uz: Matrix,
    ur: Matrix,
    uh: Matrix,
    bz: Matrix,
    br: Matrix,
    bh: Matrix,
    gwz: Matrix,
    gwr: Matrix,
    gwh: Matrix,
    guz: Matrix,
    gur: Matrix,
    guh: Matrix,
    gbz: Matrix,
    gbr: Matrix,
    gbh: Matrix,
    backend: &'static dyn MatmulBackend,
}

/// Everything a single GRU timestep caches for the backward pass.
#[derive(Debug, Clone)]
pub(crate) struct GruStepCache {
    x: Matrix,
    h_prev: Matrix,
    z: Matrix,
    r: Matrix,
    s: Matrix,
    hc: Matrix,
}

impl GruCell {
    /// Creates a GRU cell with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        let w = |rng: &mut R| xavier_uniform(rng, input_size, hidden_size);
        let u = |rng: &mut R| xavier_uniform(rng, hidden_size, hidden_size);
        Self {
            input_size,
            hidden_size,
            wz: w(rng),
            wr: w(rng),
            wh: w(rng),
            uz: u(rng),
            ur: u(rng),
            uh: u(rng),
            bz: Matrix::zeros(1, hidden_size),
            br: Matrix::zeros(1, hidden_size),
            bh: Matrix::zeros(1, hidden_size),
            gwz: Matrix::zeros(input_size, hidden_size),
            gwr: Matrix::zeros(input_size, hidden_size),
            gwh: Matrix::zeros(input_size, hidden_size),
            guz: Matrix::zeros(hidden_size, hidden_size),
            gur: Matrix::zeros(hidden_size, hidden_size),
            guh: Matrix::zeros(hidden_size, hidden_size),
            gbz: Matrix::zeros(1, hidden_size),
            gbr: Matrix::zeros(1, hidden_size),
            gbh: Matrix::zeros(1, hidden_size),
            backend: MatmulBackendKind::default().as_dyn(),
        }
    }

    /// Selects the backend the cell's matrix products run on.
    pub fn set_matmul_backend(&mut self, backend: MatmulBackendKind) {
        self.backend = backend.as_dyn();
    }

    /// Input feature dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden state dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    fn gate(
        &self,
        x: &Matrix,
        h_prev: &Matrix,
        w: &Matrix,
        u: &Matrix,
        b: &Matrix,
    ) -> Result<Matrix, NnError> {
        let backend = self.backend;
        let mut pre = backend.matmul(x, w)?;
        pre.add_assign(&backend.matmul(h_prev, u)?)?;
        pre.add_row_broadcast(b.as_slice())?;
        Ok(pre)
    }

    /// One forward timestep; returns the new hidden state and the cache
    /// required by [`GruCell::backward_step`].
    pub(crate) fn forward_step(
        &self,
        x: &Matrix,
        h_prev: &Matrix,
    ) -> Result<(Matrix, GruStepCache), NnError> {
        let z = self
            .gate(x, h_prev, &self.wz, &self.uz, &self.bz)?
            .map(sigmoid_scalar);
        let r = self
            .gate(x, h_prev, &self.wr, &self.ur, &self.br)?
            .map(sigmoid_scalar);
        let backend = self.backend;
        let s = r.hadamard(h_prev)?;
        let mut hc_pre = backend.matmul(x, &self.wh)?;
        hc_pre.add_assign(&backend.matmul(&s, &self.uh)?)?;
        hc_pre.add_row_broadcast(self.bh.as_slice())?;
        let hc = hc_pre.map(f32::tanh);
        // h = (1 - z) ⊙ h_prev + z ⊙ hc
        let mut h = h_prev.clone();
        for i in 0..h.rows() {
            let hr = h.row_mut(i);
            let zr = z.row(i);
            let hcr = hc.row(i);
            for ((hv, &zv), &hcv) in hr.iter_mut().zip(zr).zip(hcr) {
                *hv = (1.0 - zv) * *hv + zv * hcv;
            }
        }
        let cache = GruStepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            z,
            r,
            s,
            hc,
        };
        Ok((h, cache))
    }

    /// Inference-only forward step (no cache construction beyond the state).
    pub(crate) fn forward_step_inference(
        &self,
        x: &Matrix,
        h_prev: &Matrix,
    ) -> Result<Matrix, NnError> {
        Ok(self.forward_step(x, h_prev)?.0)
    }

    /// One backward timestep. Accumulates parameter gradients and returns
    /// `(grad_h_prev, grad_x)` — each only if the caller has a consumer
    /// for it (`need_dh_prev`, `need_dx`); the products feeding an
    /// unwanted one are not run.
    pub(crate) fn backward_step(
        &mut self,
        grad_h: &Matrix,
        cache: &GruStepCache,
        need_dh_prev: bool,
        need_dx: bool,
    ) -> Result<(Option<Matrix>, Option<Matrix>), NnError> {
        let GruStepCache {
            x,
            h_prev,
            z,
            r,
            s,
            hc,
        } = cache;
        // dz = dh ⊙ (hc - h_prev); dzpre = dz ⊙ z(1-z)
        let dz = grad_h.hadamard(&hc.sub(h_prev)?)?;
        let dzpre = dz.hadamard(&z.map(|v| v * (1.0 - v)))?;
        // dhc = dh ⊙ z; dhpre = dhc ⊙ (1 - hc^2)
        let dhc = grad_h.hadamard(z)?;
        let dhpre = dhc.hadamard(&hc.map(|v| 1.0 - v * v))?;
        let backend = self.backend;
        // ds = dhpre Uh^T; dr = ds ⊙ h_prev; drpre = dr ⊙ r(1-r)
        let ds = backend.matmul_transpose(&dhpre, &self.uh)?;
        let dr = ds.hadamard(h_prev)?;
        let drpre = dr.hadamard(&r.map(|v| v * (1.0 - v)))?;
        // dh_prev = dh ⊙ (1-z) + ds ⊙ r + dzpre Uz^T + drpre Ur^T
        let dh_prev = if need_dh_prev {
            let mut dh_prev = grad_h.hadamard(&z.map(|v| 1.0 - v))?;
            dh_prev.add_assign(&ds.hadamard(r)?)?;
            dh_prev.add_assign(&backend.matmul_transpose(&dzpre, &self.uz)?)?;
            dh_prev.add_assign(&backend.matmul_transpose(&drpre, &self.ur)?)?;
            Some(dh_prev)
        } else {
            None
        };
        // dx = dzpre Wz^T + drpre Wr^T + dhpre Wh^T
        let dx = if need_dx {
            let mut dx = backend.matmul_transpose(&dzpre, &self.wz)?;
            dx.add_assign(&backend.matmul_transpose(&drpre, &self.wr)?)?;
            dx.add_assign(&backend.matmul_transpose(&dhpre, &self.wh)?)?;
            Some(dx)
        } else {
            None
        };
        // Parameter gradients (accumulated across timesteps).
        self.gwz.add_assign(&backend.transpose_matmul(x, &dzpre)?)?;
        self.gwr.add_assign(&backend.transpose_matmul(x, &drpre)?)?;
        self.gwh.add_assign(&backend.transpose_matmul(x, &dhpre)?)?;
        self.guz
            .add_assign(&backend.transpose_matmul(h_prev, &dzpre)?)?;
        self.gur
            .add_assign(&backend.transpose_matmul(h_prev, &drpre)?)?;
        self.guh.add_assign(&backend.transpose_matmul(s, &dhpre)?)?;
        let add_bias = |b: &mut Matrix, g: &Matrix| {
            for (bv, gv) in b.as_mut_slice().iter_mut().zip(g.column_sums()) {
                *bv += gv;
            }
        };
        add_bias(&mut self.gbz, &dzpre);
        add_bias(&mut self.gbr, &drpre);
        add_bias(&mut self.gbh, &dhpre);
        Ok((dh_prev, dx))
    }

    fn zero_grads(&mut self) {
        for g in [
            &mut self.gwz,
            &mut self.gwr,
            &mut self.gwh,
            &mut self.guz,
            &mut self.gur,
            &mut self.guh,
            &mut self.gbz,
            &mut self.gbr,
            &mut self.gbh,
        ] {
            g.map_in_place(|_| 0.0);
        }
    }

    fn visit_parameters(&self, visitor: &mut dyn FnMut(&Matrix)) {
        for m in [
            &self.wz, &self.wr, &self.wh, &self.uz, &self.ur, &self.uh, &self.bz, &self.br,
            &self.bh,
        ] {
            visitor(m);
        }
    }

    fn apply_update(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        update(&mut self.wz, &self.gwz);
        update(&mut self.wr, &self.gwr);
        update(&mut self.wh, &self.gwh);
        update(&mut self.uz, &self.guz);
        update(&mut self.ur, &self.gur);
        update(&mut self.uh, &self.guh);
        update(&mut self.bz, &self.gbz);
        update(&mut self.br, &self.gbr);
        update(&mut self.bh, &self.gbh);
    }

    fn load_parameters(&mut self, source: &mut dyn FnMut(&mut Matrix)) {
        for m in [
            &mut self.wz,
            &mut self.wr,
            &mut self.wh,
            &mut self.uz,
            &mut self.ur,
            &mut self.uh,
            &mut self.bz,
            &mut self.br,
            &mut self.bh,
        ] {
            source(m);
        }
    }

    fn num_parameters(&self) -> usize {
        3 * (self.input_size * self.hidden_size)
            + 3 * (self.hidden_size * self.hidden_size)
            + 3 * self.hidden_size
    }
}

impl std::fmt::Debug for GruCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GruCell")
            .field("input_size", &self.input_size)
            .field("hidden_size", &self.hidden_size)
            .finish()
    }
}

/// Next-character prediction model: Embedding → GRU → Dense over the final
/// hidden state.
///
/// Inputs are matrices whose rows are fixed-length token-id sequences
/// (stored as `f32`, e.g. `x[(i, t)] = 42.0` means token 42 at position `t`
/// of sample `i`). The label of a sample is the id of the character that
/// follows the sequence.
///
/// # Example
///
/// ```
/// use dagfl_nn::{CharRnn, Model, SgdConfig};
/// use dagfl_tensor::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), dagfl_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = CharRnn::new(&mut rng, 16, 4, 8);
/// // Two sequences of 5 tokens each.
/// let x = Matrix::from_fn(2, 5, |r, t| ((r + t) % 16) as f32);
/// let loss = model.train_batch(&x, &[3, 7], &SgdConfig::new(0.1))?;
/// assert!(loss.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CharRnn {
    vocab: usize,
    embed_dim: usize,
    embedding: Matrix,
    cell: GruCell,
    out_w: Matrix,
    out_b: Matrix,
    grad_embedding: Matrix,
    grad_out_w: Matrix,
    grad_out_b: Matrix,
}

impl CharRnn {
    /// Creates a model for `vocab` tokens with the given embedding and
    /// hidden dimensions.
    pub fn new<R: Rng>(rng: &mut R, vocab: usize, embed_dim: usize, hidden: usize) -> Self {
        Self {
            vocab,
            embed_dim,
            embedding: xavier_uniform(rng, vocab, embed_dim),
            cell: GruCell::new(rng, embed_dim, hidden),
            out_w: xavier_uniform(rng, hidden, vocab),
            out_b: Matrix::zeros(1, vocab),
            grad_embedding: Matrix::zeros(vocab, embed_dim),
            grad_out_w: Matrix::zeros(hidden, vocab),
            grad_out_b: Matrix::zeros(1, vocab),
        }
    }

    /// Vocabulary size (number of output classes).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Hidden state dimension of the GRU.
    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    fn tokens_of_row(&self, x: &Matrix, row: usize) -> Result<Vec<usize>, NnError> {
        x.row(row)
            .iter()
            .map(|&t| {
                let id = t as usize;
                if id >= self.vocab || t < 0.0 {
                    Err(NnError::LabelOutOfRange {
                        label: id,
                        classes: self.vocab,
                    })
                } else {
                    Ok(id)
                }
            })
            .collect()
    }

    /// Embeds timestep `t` of every sequence in the batch.
    fn embed_step(&self, tokens: &[Vec<usize>], t: usize) -> Matrix {
        let mut out = Matrix::zeros(tokens.len(), self.embed_dim);
        for (b, seq) in tokens.iter().enumerate() {
            out.row_mut(b).copy_from_slice(self.embedding.row(seq[t]));
        }
        out
    }

    fn validate_batch(&self, x: &Matrix, y: &[usize]) -> Result<Vec<Vec<usize>>, NnError> {
        if x.rows() != y.len() {
            return Err(NnError::BatchMismatch {
                inputs: x.rows(),
                labels: y.len(),
            });
        }
        if let Some(&bad) = y.iter().find(|&&label| label >= self.vocab) {
            return Err(NnError::LabelOutOfRange {
                label: bad,
                classes: self.vocab,
            });
        }
        (0..x.rows()).map(|r| self.tokens_of_row(x, r)).collect()
    }

    /// Runs the network to the final hidden state without caching.
    fn final_hidden(&self, tokens: &[Vec<usize>]) -> Result<Matrix, NnError> {
        let seq_len = tokens.first().map_or(0, Vec::len);
        let mut h = Matrix::zeros(tokens.len(), self.cell.hidden_size());
        for t in 0..seq_len {
            let x_t = self.embed_step(tokens, t);
            h = self.cell.forward_step_inference(&x_t, &h)?;
        }
        Ok(h)
    }

    fn logits_from_hidden(&self, h: &Matrix) -> Result<Matrix, NnError> {
        let mut logits = self.cell.backend.matmul(h, &self.out_w)?;
        logits.add_row_broadcast(self.out_b.as_slice())?;
        Ok(logits)
    }

    /// Forward + backward over the whole sequence; leaves gradients in the
    /// layer fields and returns the batch loss.
    ///
    /// `frozen_prefix` is the number of leading flat parameters the caller
    /// will not update. As in [`Sequential`](crate::Sequential), a
    /// backward product runs only if its result has a consumer: the
    /// gradients of a fully frozen leading block (embedding, then the GRU
    /// cell, then the output layer) are not computed, nor is anything that
    /// only feeds them, and `dh_prev` is never formed at `t = 0`.
    fn forward_backward(
        &mut self,
        x: &Matrix,
        y: &[usize],
        frozen_prefix: usize,
    ) -> Result<f32, NnError> {
        let tokens = self.validate_batch(x, y)?;
        let batch = tokens.len();
        let seq_len = tokens.first().map_or(0, Vec::len);
        // Zero accumulated gradients.
        self.cell.zero_grads();
        self.grad_embedding.map_in_place(|_| 0.0);
        // Forward with caches.
        let mut h = Matrix::zeros(batch, self.cell.hidden_size());
        let mut caches = Vec::with_capacity(seq_len);
        for t in 0..seq_len {
            let x_t = self.embed_step(&tokens, t);
            let (h_new, cache) = self.cell.forward_step(&x_t, &h)?;
            caches.push(cache);
            h = h_new;
        }
        let logits = self.logits_from_hidden(&h)?;
        let (mut grad_logits, loss) = softmax_cross_entropy(&logits, y);
        let scale = 1.0 / batch.max(1) as f32;
        for (r, &label) in y.iter().enumerate() {
            grad_logits[(r, label)] -= 1.0;
        }
        grad_logits.scale_assign(scale);
        // Flat order: embedding, cell, output layer. Backward stops above
        // the last fully frozen block.
        let embedding_end = self.embedding.len();
        let cell_end = embedding_end + self.cell.num_parameters();
        if frozen_prefix >= self.num_parameters() {
            return Ok(loss);
        }
        // Output layer gradients.
        let backend = self.cell.backend;
        backend.transpose_matmul_into(&h, &grad_logits, &mut self.grad_out_w)?;
        grad_logits.column_sums_into(&mut self.grad_out_b);
        if frozen_prefix >= cell_end {
            return Ok(loss);
        }
        // BPTT; `dx` only feeds the embedding gradient.
        let need_dx = frozen_prefix < embedding_end;
        let mut dh = backend.matmul_transpose(&grad_logits, &self.out_w)?;
        for (t, cache) in caches.iter().enumerate().rev() {
            let (dh_prev, dx) = self.cell.backward_step(&dh, cache, t > 0, need_dx)?;
            if let Some(dx) = dx {
                for (b, seq) in tokens.iter().enumerate() {
                    let token = seq[t];
                    let grow = self.grad_embedding.row_mut(token);
                    for (g, &d) in grow.iter_mut().zip(dx.row(b)) {
                        *g += d;
                    }
                }
            }
            if let Some(dh_prev) = dh_prev {
                dh = dh_prev;
            }
        }
        Ok(loss)
    }

    fn visit_all(&self, visitor: &mut dyn FnMut(&Matrix)) {
        visitor(&self.embedding);
        self.cell.visit_parameters(visitor);
        visitor(&self.out_w);
        visitor(&self.out_b);
    }

    fn apply_all(&mut self, update: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        update(&mut self.embedding, &self.grad_embedding);
        self.cell.apply_update(update);
        update(&mut self.out_w, &self.grad_out_w);
        update(&mut self.out_b, &self.grad_out_b);
    }
}

impl Model for CharRnn {
    fn num_parameters(&self) -> usize {
        self.vocab * self.embed_dim
            + self.cell.num_parameters()
            + self.cell.hidden_size() * self.vocab
            + self.vocab
    }

    fn parameters(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        self.visit_all(&mut |m| out.extend_from_slice(m.as_slice()));
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
        let mut load = |m: &mut Matrix| {
            let len = m.len();
            m.as_mut_slice()
                .copy_from_slice(&params[offset..offset + len]);
            offset += len;
        };
        load(&mut self.embedding);
        self.cell.load_parameters(&mut load);
        load(&mut self.out_w);
        load(&mut self.out_b);
        debug_assert_eq!(offset, expected);
        Ok(())
    }

    fn set_matmul_backend(&mut self, backend: MatmulBackendKind) {
        self.cell.set_matmul_backend(backend);
    }

    fn train_batch(&mut self, x: &Matrix, y: &[usize], opt: &SgdConfig) -> Result<f32, NnError> {
        let loss = self.forward_backward(x, y, opt.frozen_prefix())?;
        let mut offset = 0;
        self.apply_all(&mut |param, grad| {
            opt.step(param.as_mut_slice(), grad.as_slice(), offset);
            offset += grad.len();
        });
        Ok(loss)
    }

    fn loss_and_gradient(&mut self, x: &Matrix, y: &[usize]) -> Result<(f32, Vec<f32>), NnError> {
        let loss = self.forward_backward(x, y, 0)?;
        let mut grads = Vec::with_capacity(self.num_parameters());
        self.apply_all(&mut |_, grad| grads.extend_from_slice(grad.as_slice()));
        Ok((loss, grads))
    }

    fn evaluate(&self, x: &Matrix, y: &[usize]) -> Result<Evaluation, NnError> {
        let tokens = self.validate_batch(x, y)?;
        if y.is_empty() {
            return Ok(Evaluation::default());
        }
        let h = self.final_hidden(&tokens)?;
        let logits = self.logits_from_hidden(&h)?;
        let (probs, loss) = softmax_cross_entropy(&logits, y);
        let mut correct = 0;
        for (r, &label) in y.iter().enumerate() {
            if argmax(probs.row(r)) == label {
                correct += 1;
            }
        }
        Ok(Evaluation {
            loss,
            accuracy: correct as f32 / y.len() as f32,
            correct,
            total: y.len(),
        })
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        let tokens: Result<Vec<_>, _> = (0..x.rows()).map(|r| self.tokens_of_row(x, r)).collect();
        let tokens = tokens?;
        if tokens.is_empty() {
            return Ok(Vec::new());
        }
        let h = self.final_hidden(&tokens)?;
        let logits = self.logits_from_hidden(&h)?;
        Ok((0..logits.rows()).map(|r| argmax(logits.row(r))).collect())
    }

    fn boxed_clone(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for CharRnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CharRnn")
            .field("vocab", &self.vocab)
            .field("embed_dim", &self.embed_dim)
            .field("hidden", &self.cell.hidden_size())
            .field("num_parameters", &self.num_parameters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_bits, assert_training_matches_reference, reference_update};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> CharRnn {
        CharRnn::new(&mut StdRng::seed_from_u64(seed), 6, 3, 5)
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

    #[test]
    fn parameter_roundtrip() {
        let model = toy_model(0);
        let params = model.parameters();
        assert_eq!(params.len(), model.num_parameters());
        let mut other = toy_model(1);
        other.set_parameters(&params).unwrap();
        assert_eq!(other.parameters(), params);
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

    /// The pre-cut training step: the full gradient (as
    /// `loss_and_gradient` computes it) followed by the old per-element
    /// update.
    fn reference_step(model: &mut CharRnn, x: &Matrix, y: &[usize], opt: &SgdConfig) -> f32 {
        let loss = model.forward_backward(x, y, 0).unwrap();
        let mut offset = 0;
        model.apply_all(&mut |param, grad| {
            reference_update(opt, param.as_mut_slice(), grad.as_slice(), offset);
            offset += grad.len();
        });
        loss
    }

    #[test]
    fn train_batch_is_bit_identical_to_the_reference_step() {
        let model = toy_model(7);
        let (x, y) = cyclic_batch(6, 4);
        let embedding = model.embedding.len();
        assert_training_matches_reference("char-rnn", &model, embedding, &x, &y, reference_step);
    }

    #[test]
    fn frozen_blocks_stop_the_backward_pass_above_them() {
        let (x, y) = cyclic_batch(6, 4);
        let mut model = toy_model(8);
        let (embedding, cell) = (model.embedding.len(), model.cell.num_parameters());
        let mut full = Vec::new();
        model.forward_backward(&x, &y, 0).unwrap();
        model.apply_all(&mut |_, grad| full.extend_from_slice(grad.as_slice()));
        // Whatever sits above the frozen prefix keeps its exact gradient;
        // a fully frozen block below it stays zeroed, because nothing
        // computed it.
        for (frozen, computed_from) in [
            (embedding - 1, 0),
            (embedding, embedding),
            (embedding + cell, embedding + cell),
        ] {
            let mut cut = Vec::new();
            model.forward_backward(&x, &y, frozen).unwrap();
            model.apply_all(&mut |_, grad| cut.extend_from_slice(grad.as_slice()));
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
        let cell = GruCell::new(&mut StdRng::seed_from_u64(9), 3, 4);
        let x = Matrix::from_fn(2, 3, |r, c| (r as f32 - c as f32) * 0.4);
        let h_prev = Matrix::from_fn(2, 4, |r, c| ((r + c) % 3) as f32 * 0.3 - 0.2);
        let (_, cache) = cell.forward_step(&x, &h_prev).unwrap();
        let grad_h = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 0.3);
        let grads_of = |cell: &mut GruCell| {
            let mut grads = Vec::new();
            cell.apply_update(&mut |_, g| grads.extend_from_slice(g.as_slice()));
            grads
        };
        let mut wanted = cell.clone();
        let (dh_prev, dx) = wanted.backward_step(&grad_h, &cache, true, true).unwrap();
        assert_eq!(dh_prev.unwrap().shape(), (2, 4));
        assert_eq!(dx.unwrap().shape(), (2, 3));
        let mut unwanted = cell.clone();
        let (dh_prev, dx) = unwanted
            .backward_step(&grad_h, &cache, false, false)
            .unwrap();
        assert!(dh_prev.is_none() && dx.is_none());
        assert_same_bits(
            &grads_of(&mut unwanted),
            &grads_of(&mut wanted),
            "GRU parameter gradients",
        );
    }

    #[test]
    fn gru_cell_dimensions() {
        let cell = GruCell::new(&mut StdRng::seed_from_u64(0), 4, 7);
        assert_eq!(cell.input_size(), 4);
        assert_eq!(cell.hidden_size(), 7);
        assert_eq!(cell.num_parameters(), 3 * 4 * 7 + 3 * 7 * 7 + 3 * 7);
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
