//! Test-only oracle for the training step.
//!
//! [`reference_update`] is the per-element SGD loop that
//! `Sequential::apply_sgd` and `CharRnn::train_batch` each carried before
//! [`SgdConfig::step`] replaced them, moved here verbatim. Together with
//! a model-specific reference backward pass (every gradient computed,
//! whether or not anything consumes it — see the `reference_step`
//! helpers in the `sequential` and `rnn` test modules) it pins the
//! production step bit for bit across the whole [`update_configs`]
//! matrix.

use std::sync::Arc;

use dagfl_tensor::Matrix;

use crate::{Model, SgdConfig};

/// The old update loop: one `is_trainable` branch and one
/// `regularization_pull` lookup per element.
pub(crate) fn reference_update(opt: &SgdConfig, params: &mut [f32], grads: &[f32], offset: usize) {
    let lr = opt.learning_rate();
    for (i, (w, &gv)) in params.iter_mut().zip(grads).enumerate() {
        if !opt.is_trainable(offset + i) {
            continue;
        }
        let pull = opt.regularization_pull(offset + i, *w);
        *w -= lr * (gv + pull);
    }
}

/// Every frozen prefix in {0, mid-layer-0, exactly layer 0, everything}
/// crossed with {plain, weight decay, proximal, proximal with a reference
/// shorter than the model, proximal + decay}.
pub(crate) fn update_configs(initial: &[f32], layer0_len: usize) -> Vec<(String, SgdConfig)> {
    let n = initial.len();
    // Pulling towards a shifted copy keeps the proximal term non-zero
    // from the first step.
    let shifted: Arc<Vec<f32>> = Arc::new(initial.iter().map(|w| w * 0.5 + 0.01).collect());
    let short = Arc::new(shifted[..layer0_len + (n - layer0_len) / 2].to_vec());
    let mut configs = Vec::new();
    for frozen in [0, layer0_len / 2, layer0_len, n] {
        let base = || SgdConfig::new(0.1).with_frozen_prefix(frozen);
        let regularized = [
            ("plain", base()),
            ("decay", base().with_weight_decay(0.01)),
            ("prox", base().with_proximal(0.5, Arc::clone(&shifted))),
            ("short-prox", base().with_proximal(0.5, Arc::clone(&short))),
            (
                "prox+decay",
                base()
                    .with_proximal(0.25, Arc::clone(&shifted))
                    .with_weight_decay(0.01),
            ),
        ];
        configs.extend(regularized.map(|(name, opt)| (format!("frozen={frozen} {name}"), opt)));
    }
    configs
}

/// Asserts two float slices are the same bits, element by element.
pub(crate) fn assert_same_bits(actual: &[f32], expected: &[f32], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: lengths differ");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{context}: element {i} is {a:e}, reference {e:e}"
        );
    }
}

/// Trains a clone of `model` with `train_batch` and another with
/// `reference_step` for 50 steps under every [`update_configs`] entry
/// and demands identical loss and parameter bits throughout.
pub(crate) fn assert_training_matches_reference<M: Model + Clone>(
    family: &str,
    model: &M,
    layer0_len: usize,
    x: &Matrix,
    y: &[usize],
    reference_step: impl Fn(&mut M, &Matrix, &[usize], &SgdConfig) -> f32,
) {
    for (name, opt) in update_configs(&model.parameters(), layer0_len) {
        let (mut fast, mut slow) = (model.clone(), model.clone());
        for step in 0..50 {
            let context = format!("{family}, {name}, step {step}");
            let loss = fast.train_batch(x, y, &opt).unwrap();
            let reference_loss = reference_step(&mut slow, x, y, &opt);
            assert_eq!(loss.to_bits(), reference_loss.to_bits(), "{context}: loss");
            assert_same_bits(&fast.parameters(), &slow.parameters(), &context);
        }
    }
}
