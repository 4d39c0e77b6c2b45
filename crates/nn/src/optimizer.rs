//! SGD configuration, including the FedProx proximal term.

use std::sync::Arc;

/// Configuration for a single mini-batch SGD step.
///
/// The plain update is `w ← w − lr · ∇L(w)`. When a proximal term is
/// configured (FedProx, Li et al.), the effective gradient becomes
/// `∇L(w) + μ · (w − w_ref)`, pulling local training towards the global
/// reference model `w_ref`.
///
/// # Example
///
/// ```
/// use dagfl_nn::SgdConfig;
/// use std::sync::Arc;
///
/// let plain = SgdConfig::new(0.05);
/// let global = Arc::new(vec![0.0_f32; 10]);
/// let prox = SgdConfig::new(0.05).with_proximal(0.1, global);
/// assert!(plain.proximal().is_none());
/// assert!(prox.proximal().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SgdConfig {
    learning_rate: f32,
    proximal: Option<Proximal>,
    frozen_prefix: usize,
}

/// The FedProx proximal term: strength `mu` and the reference parameters.
#[derive(Debug, Clone)]
pub struct Proximal {
    mu: f32,
    reference: Arc<Vec<f32>>,
}

impl Proximal {
    /// The proximal strength μ.
    pub fn mu(&self) -> f32 {
        self.mu
    }

    /// The reference (global) parameter vector the update is pulled towards.
    pub fn reference(&self) -> &[f32] {
        &self.reference
    }
}

impl SgdConfig {
    /// Creates a plain SGD configuration with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f32) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be finite and positive, got {learning_rate}"
        );
        Self {
            learning_rate,
            proximal: None,
            frozen_prefix: 0,
        }
    }

    /// Adds a FedProx proximal term pulling towards `reference` with
    /// strength `mu`.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is negative or not finite.
    pub fn with_proximal(mut self, mu: f32, reference: Arc<Vec<f32>>) -> Self {
        assert!(
            mu.is_finite() && mu >= 0.0,
            "proximal mu must be finite and non-negative, got {mu}"
        );
        self.proximal = Some(Proximal { mu, reference });
        self
    }

    /// Freezes the first `n` parameters (in flat-vector order): their
    /// gradients are ignored during updates.
    ///
    /// This enables the partial-layer personalisation the paper names as
    /// future work (§6): early (shared) layers can be pinned while later
    /// layers specialise. The flat parameter order of [`Sequential`] is
    /// layer-by-layer, so freezing a prefix freezes whole leading layers.
    ///
    /// [`Sequential`]: crate::Sequential
    pub fn with_frozen_prefix(mut self, n: usize) -> Self {
        self.frozen_prefix = n;
        self
    }

    /// Number of frozen leading parameters.
    pub fn frozen_prefix(&self) -> usize {
        self.frozen_prefix
    }

    /// Whether the parameter at flat index `offset` may be updated.
    pub fn is_trainable(&self, offset: usize) -> bool {
        offset >= self.frozen_prefix
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// The proximal term, if configured.
    pub fn proximal(&self) -> Option<&Proximal> {
        self.proximal.as_ref()
    }

    /// The effective gradient contribution of the proximal term for the
    /// parameter at flat index `offset`, given its current value.
    ///
    /// Returns `0.0` when no proximal term is configured or the offset is
    /// outside the reference vector (e.g. architectures diverged).
    pub fn proximal_pull(&self, offset: usize, current: f32) -> f32 {
        match &self.proximal {
            Some(p) => p
                .reference
                .get(offset)
                .map_or(0.0, |&r| p.mu * (current - r)),
            None => 0.0,
        }
    }

    /// Applies `w ← w − lr · (g + pull)` to one parameter slice whose first
    /// element sits at `flat_offset` of the model's flat parameter vector.
    ///
    /// This is the only update loop in the crate: every [`Model`] walks its
    /// `(parameter, gradient)` pairs through it. The slice is split once at
    /// the frozen-prefix boundary and once where the proximal reference
    /// ends, so the element loops carry no branch and vectorise; per
    /// element they evaluate `lr * (g + proximal)` with
    /// `proximal = mu * (w − w_ref)` inside the reference and the literal
    /// `0.0` outside it — the value [`SgdConfig::proximal_pull`] defines,
    /// signed zeros and non-finite weights included.
    ///
    /// [`Model`]: crate::Model
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length.
    pub fn step(&self, params: &mut [f32], grads: &[f32], flat_offset: usize) {
        assert_eq!(params.len(), grads.len(), "one gradient per parameter");
        let frozen = self
            .frozen_prefix
            .saturating_sub(flat_offset)
            .min(params.len());
        let (params, grads, offset) = (
            &mut params[frozen..],
            &grads[frozen..],
            flat_offset + frozen,
        );
        let lr = self.learning_rate;
        let (mu, reference) = self.proximal.as_ref().map_or((0.0, &[][..]), |p| {
            (p.mu, p.reference.get(offset..).unwrap_or(&[]))
        });
        let pulled = reference.len().min(params.len());
        let (pulled_params, free_params) = params.split_at_mut(pulled);
        let (pulled_grads, free_grads) = grads.split_at(pulled);
        let descend = |w: &mut f32, g: f32, proximal: f32| {
            *w -= lr * (g + proximal);
        };
        for ((w, &g), &r) in pulled_params.iter_mut().zip(pulled_grads).zip(reference) {
            let proximal = mu * (*w - r);
            descend(w, g, proximal);
        }
        for (w, &g) in free_params.iter_mut().zip(free_grads) {
            descend(w, g, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_config_has_no_pull() {
        let cfg = SgdConfig::new(0.1);
        assert_eq!(cfg.proximal_pull(0, 5.0), 0.0);
        assert_eq!(cfg.learning_rate(), 0.1);
    }

    #[test]
    fn proximal_pull_is_mu_times_distance() {
        let reference = Arc::new(vec![1.0, 2.0]);
        let cfg = SgdConfig::new(0.1).with_proximal(0.5, reference);
        assert!((cfg.proximal_pull(0, 3.0) - 1.0).abs() < 1e-6);
        assert!((cfg.proximal_pull(1, 2.0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn proximal_pull_out_of_range_is_zero() {
        let cfg = SgdConfig::new(0.1).with_proximal(0.5, Arc::new(vec![1.0]));
        assert_eq!(cfg.proximal_pull(10, 3.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_panics() {
        SgdConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "proximal mu")]
    fn negative_mu_panics() {
        SgdConfig::new(0.1).with_proximal(-1.0, Arc::new(vec![]));
    }

    #[test]
    fn frozen_prefix_gates_trainability() {
        let cfg = SgdConfig::new(0.1).with_frozen_prefix(5);
        assert_eq!(cfg.frozen_prefix(), 5);
        assert!(!cfg.is_trainable(0));
        assert!(!cfg.is_trainable(4));
        assert!(cfg.is_trainable(5));
    }

    #[test]
    fn default_has_no_frozen_prefix() {
        let cfg = SgdConfig::new(0.1);
        assert_eq!(cfg.frozen_prefix(), 0);
        assert!(cfg.is_trainable(0));
    }

    #[test]
    fn step_matches_the_per_element_definition_bit_for_bit() {
        use crate::reference::{assert_same_bits, reference_update, update_configs};
        // Signed zeros, infinities and a NaN among ordinary weights; the
        // slice sits at flat offset 3, so every boundary (frozen prefix,
        // end of the proximal reference) can fall before, inside or after it.
        let weights = [
            0.5,
            -0.0,
            0.0,
            f32::INFINITY,
            -1.25,
            f32::NAN,
            3.0e-39,
            -7.5,
            0.125,
        ];
        let grads = [
            -0.0,
            -0.0,
            0.0,
            1.0,
            -0.5,
            0.25,
            -0.0,
            2.0,
            f32::NEG_INFINITY,
        ];
        let model: Vec<f32> = (0..16).map(|i| i as f32 * 0.3 - 2.0).collect();
        for offset in [0, 3, 7] {
            for (name, opt) in update_configs(&model, 6) {
                let (mut fast, mut slow) = (weights, weights);
                opt.step(&mut fast, &grads, offset);
                reference_update(&opt, &mut slow, &grads, offset);
                assert_same_bits(&fast, &slow, &format!("{name}, offset {offset}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one gradient per parameter")]
    fn step_rejects_mismatched_lengths() {
        SgdConfig::new(0.1).step(&mut [0.0; 3], &[0.0; 2], 0);
    }

    #[test]
    fn proximal_accessors() {
        let reference = Arc::new(vec![1.0, 2.0]);
        let cfg = SgdConfig::new(0.1).with_proximal(0.25, reference);
        let p = cfg.proximal().unwrap();
        assert_eq!(p.mu(), 0.25);
        assert_eq!(p.reference(), &[1.0, 2.0]);
    }
}
