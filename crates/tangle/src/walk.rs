//! The random-walk tip-selection engine.
//!
//! A walk starts at some transaction and repeatedly steps to one of the
//! current transaction's approvers (children), chosen by a pluggable
//! [`WalkBias`], until it reaches a tip. This inverts the approval edges:
//! the walk moves forward in time, towards newer transactions.

use rand::Rng;

use crate::read::TangleRead;
use crate::{Tangle, TangleError, TxId};

/// Outcome of a random walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The tip the walk terminated at.
    pub tip: TxId,
    /// Number of steps taken (edges traversed).
    pub steps: usize,
    /// Total number of candidate transactions offered to the bias, one
    /// per approver at every step taken.
    ///
    /// The scalability experiment (Figure 15) and the communication-cost
    /// table report it. It is not a count of model evaluations: the
    /// paper's accuracy bias answers a lone approver without scoring it
    /// and serves repeats from its cache, and its evaluator counts the
    /// forward passes that remain.
    pub candidates_evaluated: usize,
}

/// A strategy assigning transition weights to the children reachable in one
/// step of the walk.
///
/// Generic over the storage backend `T` (defaulting to [`Tangle`]) so the
/// same bias drives walks over the single-owner store, the concurrent
/// [`ShardedTangle`](crate::ShardedTangle) and replica views alike.
pub trait WalkBias<P, T: TangleRead<P> = Tangle<P>> {
    /// Returns one non-negative, unnormalised weight per candidate.
    ///
    /// Returning all zeros (or non-finite values) makes the walker fall
    /// back to a uniform choice.
    fn weights(&mut self, tangle: &T, current: TxId, candidates: &[TxId]) -> Vec<f32>;

    /// Whether the walk should terminate at `current` even though it has
    /// approvers.
    ///
    /// The default never stops early (classic tip selection). Quality-aware
    /// biases can override this to refuse stepping down an accuracy cliff —
    /// e.g. when every approver is a flooding attacker's garbage update —
    /// and approve the current transaction instead, which tangle semantics
    /// permit.
    fn should_stop(&mut self, tangle: &T, current: TxId, candidates: &[TxId]) -> bool {
        let _ = (tangle, current, candidates);
        false
    }
}

/// Unbiased tip selection: every child is equally likely.
///
/// This is the "random tip selector" baseline of the paper's poisoning
/// evaluation (Figure 12).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformBias;

impl<P, T: TangleRead<P>> WalkBias<P, T> for UniformBias {
    fn weights(&mut self, _tangle: &T, _current: TxId, candidates: &[TxId]) -> Vec<f32> {
        vec![1.0; candidates.len()]
    }
}

/// Classic IOTA MCMC bias: transition weights are
/// `exp(alpha * (w_child - w_max))` over cumulative weights.
///
/// Cumulative weights are recomputed lazily whenever the tangle has grown
/// since the last query.
#[derive(Debug, Clone)]
pub struct CumulativeWeightBias {
    alpha: f32,
    cache: Vec<u64>,
}

impl CumulativeWeightBias {
    /// Creates a bias with the given randomness parameter `alpha`
    /// (larger ⇒ more deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f32) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be finite and non-negative, got {alpha}"
        );
        Self {
            alpha,
            cache: Vec::new(),
        }
    }

    /// The randomness parameter.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl<P, T: TangleRead<P>> WalkBias<P, T> for CumulativeWeightBias {
    fn weights(&mut self, tangle: &T, _current: TxId, candidates: &[TxId]) -> Vec<f32> {
        if self.cache.len() != tangle.len() {
            self.cache = tangle.cumulative_weights();
        }
        let ws: Vec<f32> = candidates
            .iter()
            .map(|c| self.cache[c.index() as usize] as f32)
            .collect();
        let max = ws.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        ws.iter().map(|&w| (self.alpha * (w - max)).exp()).collect()
    }
}

/// Samples an index proportionally to `weights`.
///
/// Falls back to a uniform choice when weights are all zero or contain
/// non-finite values.
///
/// # Panics
///
/// Panics if `weights` is empty.
pub fn weighted_choice<R: Rng>(weights: &[f32], rng: &mut R) -> usize {
    assert!(!weights.is_empty(), "weighted choice over empty set");
    let valid = weights.iter().all(|w| w.is_finite() && *w >= 0.0);
    let total: f32 = if valid { weights.iter().sum() } else { 0.0 };
    if !valid || total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// A safety bound on the edges one walk takes: a walk that reaches it
/// returns the transaction reached so far, even if it is not a tip.
const MAX_WALK_STEPS: usize = 1_000_000;

/// Runs biased random walks over a [`Tangle`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomWalker;

impl RandomWalker {
    /// Creates a walker; every walk stops after at most a million steps.
    pub fn new() -> Self {
        Self
    }

    /// Walks from `start` towards the tips, choosing among approvers with
    /// `bias`, and returns the tip reached.
    ///
    /// Generic over any [`TangleRead`] backend; the step sequence and RNG
    /// draws are identical for equivalent tangle contents regardless of
    /// the storage implementation.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::InvalidWalkStart`] if `start` is not part of
    /// the tangle.
    pub fn walk<P, T: TangleRead<P>, B: WalkBias<P, T>, R: Rng>(
        &self,
        tangle: &T,
        start: TxId,
        bias: &mut B,
        rng: &mut R,
    ) -> Result<WalkResult, TangleError> {
        if !tangle.contains(start) {
            return Err(TangleError::InvalidWalkStart(start));
        }
        let mut current = start;
        let mut steps = 0;
        let mut candidates_evaluated = 0;
        let mut children: Vec<TxId> = Vec::new();
        loop {
            tangle.children_into(current, &mut children)?;
            if children.is_empty()
                || steps >= MAX_WALK_STEPS
                || bias.should_stop(tangle, current, &children)
            {
                return Ok(WalkResult {
                    tip: current,
                    steps,
                    candidates_evaluated,
                });
            }
            let weights = bias.weights(tangle, current, &children);
            debug_assert_eq!(weights.len(), children.len());
            candidates_evaluated += children.len();
            let idx = weighted_choice(&weights, rng);
            current = children[idx];
            steps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize) -> Tangle<usize> {
        let mut t = Tangle::new(0);
        let mut prev = t.genesis();
        for i in 1..n {
            prev = t.attach(i, &[prev]).unwrap();
        }
        t
    }

    #[test]
    fn walk_on_chain_reaches_the_tip() {
        let t = chain(10);
        let mut rng = StdRng::seed_from_u64(0);
        let result = RandomWalker::new()
            .walk(&t, t.genesis(), &mut UniformBias, &mut rng)
            .unwrap();
        assert_eq!(result.tip, TxId(9));
        assert_eq!(result.steps, 9);
        assert_eq!(result.candidates_evaluated, 9);
    }

    /// A chain with no end: transaction `i` is approved by `i + 1` alone.
    struct EndlessChain;

    impl TangleRead<()> for EndlessChain {
        fn len(&self) -> usize {
            usize::MAX
        }
        fn payload_of(&self, _: TxId) -> Result<&(), TangleError> {
            Ok(&())
        }
        fn issuer_of(&self, _: TxId) -> Result<Option<u32>, TangleError> {
            Ok(None)
        }
        fn round_of(&self, _: TxId) -> Result<u32, TangleError> {
            Ok(0)
        }
        fn parents_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
            out.clear();
            out.extend(id.0.checked_sub(1).map(TxId));
            Ok(())
        }
        fn children_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
            out.clear();
            out.push(TxId(id.0 + 1));
            Ok(())
        }
        fn is_tip(&self, _: TxId) -> bool {
            false
        }
        fn tips(&self) -> Vec<TxId> {
            Vec::new()
        }
    }

    #[test]
    fn max_steps_truncates_walk() {
        let mut rng = StdRng::seed_from_u64(0);
        let result = RandomWalker::new()
            .walk(&EndlessChain, TxId(0), &mut UniformBias, &mut rng)
            .unwrap();
        assert_eq!(result.steps, MAX_WALK_STEPS);
        assert_eq!(result.tip, TxId(MAX_WALK_STEPS as u64));
    }

    #[test]
    fn walk_from_tip_is_a_noop() {
        let t = chain(3);
        let mut rng = StdRng::seed_from_u64(0);
        let result = RandomWalker::new()
            .walk(&t, TxId(2), &mut UniformBias, &mut rng)
            .unwrap();
        assert_eq!(result.tip, TxId(2));
        assert_eq!(result.steps, 0);
    }

    #[test]
    fn walk_rejects_unknown_start() {
        let t = chain(2);
        let mut rng = StdRng::seed_from_u64(0);
        let err = RandomWalker::new()
            .walk(&t, TxId(9), &mut UniformBias, &mut rng)
            .unwrap_err();
        assert_eq!(err, TangleError::InvalidWalkStart(TxId(9)));
    }

    #[test]
    fn uniform_walk_visits_both_branches() {
        // genesis with two long chains; over many walks both tips appear.
        let mut t = Tangle::new(());
        let g = t.genesis();
        let mut left = t.attach((), &[g]).unwrap();
        let mut right = t.attach((), &[g]).unwrap();
        for _ in 0..3 {
            left = t.attach((), &[left]).unwrap();
            right = t.attach((), &[right]).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let r = RandomWalker::new()
                .walk(&t, g, &mut UniformBias, &mut rng)
                .unwrap();
            seen.insert(r.tip);
        }
        assert_eq!(seen.len(), 2, "both branch tips should be reachable");
    }

    #[test]
    fn high_alpha_cumulative_bias_follows_heavy_branch() {
        // Heavy branch has many approvers; with alpha -> large the walk
        // should deterministically follow it at the first fork.
        let mut t = Tangle::new(());
        let g = t.genesis();
        let heavy = t.attach((), &[g]).unwrap();
        let _light = t.attach((), &[g]).unwrap();
        let mut prev = heavy;
        for _ in 0..10 {
            prev = t.attach((), &[prev]).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut bias = CumulativeWeightBias::new(100.0);
        for _ in 0..20 {
            let r = RandomWalker::new()
                .walk(&t, g, &mut bias, &mut rng)
                .unwrap();
            // The heavy chain's tip is the last attached transaction.
            assert_eq!(r.tip, prev);
        }
    }

    #[test]
    fn zero_alpha_cumulative_bias_is_uniform() {
        let t = chain(2);
        let mut bias = CumulativeWeightBias::new(0.0);
        let w = WalkBias::<usize>::weights(&mut bias, &t, t.genesis(), &[TxId(1)]);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn negative_alpha_panics() {
        CumulativeWeightBias::new(-1.0);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[weighted_choice(&[1.0, 0.0, 3.0], &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2, "counts: {counts:?}");
    }

    #[test]
    fn weighted_choice_zero_weights_falls_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(weighted_choice(&[0.0, 0.0, 0.0], &mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn weighted_choice_nan_falls_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(weighted_choice(&[f32::NAN, 1.0], &mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn weighted_choice_empty_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        weighted_choice(&[], &mut rng);
    }
}
