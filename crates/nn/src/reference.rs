//! Test-only oracle for the training step, and the owned-result forms
//! of the [`Layer`] passes that layer unit tests call.
//!
//! [`reference_update`] is the per-element SGD loop that
//! `Sequential::apply_sgd` carried before [`SgdConfig::step`] replaced it,
//! moved here verbatim. Together with the reference backward pass (every
//! gradient computed, whether or not anything consumes it — see
//! `reference_step` in the `sequential` test module) it pins the
//! production step bit for bit across the whole [`update_configs`]
//! matrix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dagfl_tensor::Matrix;

use crate::{Layer, Model, NnError, SgdConfig};

/// Each [`Layer`] pass with its result in a fresh matrix.
pub(crate) trait OwnedPasses: Layer {
    fn forward_owned(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.forward_train_into(input, &mut out).map(|()| out)
    }

    fn inference_owned(&self, input: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.forward_inference_into(input, &mut out).map(|()| out)
    }

    fn backward_owned(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let mut grad_input = Matrix::default();
        self.backward_into(grad_output, Some(&mut grad_input))
            .map(|()| grad_input)
    }
}

impl<L: Layer + ?Sized> OwnedPasses for L {}

thread_local! {
    /// Heap allocations made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: tests run on parallel
/// threads, and each asks only about its own. (A `realloc` is counted
/// through the provided method, which allocates anew.)
struct CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// SAFETY: every request is passed to `System` unchanged, so its
// guarantees are `System`'s; the counter is a const-initialised `Cell`
// that never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left, and nobody to ask.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// How many times `work` reached the heap on this thread.
pub(crate) fn allocations_in(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// The old update loop: one `is_trainable` branch and one
/// `proximal_pull` lookup per element.
pub(crate) fn reference_update(opt: &SgdConfig, params: &mut [f32], grads: &[f32], offset: usize) {
    let lr = opt.learning_rate();
    for (i, (w, &gv)) in params.iter_mut().zip(grads).enumerate() {
        if !opt.is_trainable(offset + i) {
            continue;
        }
        let pull = opt.proximal_pull(offset + i, *w);
        *w -= lr * (gv + pull);
    }
}

/// Every frozen prefix in {0, mid-layer-0, exactly layer 0, everything}
/// crossed with {plain, proximal, proximal with a reference shorter than
/// the model}.
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
            ("prox", base().with_proximal(0.5, Arc::clone(&shifted))),
            ("short-prox", base().with_proximal(0.5, Arc::clone(&short))),
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
