//! A read-only view trait abstracting over tangle storage backends.
//!
//! Tip selection, weight computations and specialization metrics only
//! ever *read* the DAG. [`TangleRead`] captures exactly that surface so
//! the same walk/metric code runs unchanged against the single-owner
//! [`Tangle`], the concurrent [`ShardedTangle`](crate::ShardedTangle),
//! and the per-client replica views in `dagfl-core`.
//!
//! The provided weight/depth/sampling methods mirror the inherent
//! `Tangle` algorithms line for line — same iteration order, same
//! number of RNG draws — so results are bit-identical across backends.

use rand::Rng;

use crate::{Tangle, TangleError, TxId};

/// Read-only access to a tangle's DAG structure.
///
/// Implementations must present transactions under the same contract as
/// [`Tangle`]: ids are dense indices `0..len()` assigned in insertion
/// order, parents always precede children, and id `0` is the genesis.
pub trait TangleRead<P> {
    /// Number of transactions, including the genesis.
    fn len(&self) -> usize;

    /// Always `false`: a tangle contains at least the genesis.
    fn is_empty(&self) -> bool {
        false
    }

    /// The id of the genesis transaction.
    fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Whether `id` is a transaction of this tangle.
    fn contains(&self, id: TxId) -> bool {
        (id.index() as usize) < self.len()
    }

    /// The payload attached to `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn payload_of(&self, id: TxId) -> Result<&P, TangleError>;

    /// The publishing client recorded for `id`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn issuer_of(&self, id: TxId) -> Result<Option<u32>, TangleError>;

    /// The round (or logical time) recorded for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn round_of(&self, id: TxId) -> Result<u32, TangleError>;

    /// Replaces the contents of `out` with the parents of `id`, in
    /// approval order.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn parents_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError>;

    /// Replaces the contents of `out` with the direct approvers
    /// (children) of `id`, in attachment order.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn children_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError>;

    /// Whether `id` currently has no approvers.
    fn is_tip(&self, id: TxId) -> bool;

    /// All current tips, sorted by id for determinism.
    fn tips(&self) -> Vec<TxId>;

    /// The parents of `id` as a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn parents_of(&self, id: TxId) -> Result<Vec<TxId>, TangleError> {
        let mut out = Vec::new();
        self.parents_into(id, &mut out)?;
        Ok(out)
    }

    /// The children of `id` as a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn children_of(&self, id: TxId) -> Result<Vec<TxId>, TangleError> {
        let mut out = Vec::new();
        self.children_into(id, &mut out)?;
        Ok(out)
    }

    /// Exact cumulative weight of every transaction (see
    /// [`Tangle::cumulative_weights`]); identical algorithm, expressed
    /// through this trait's accessors.
    fn cumulative_weights(&self) -> Vec<u64> {
        let n = self.len();
        let words = n.div_ceil(64);
        // bitsets[i] holds the strict descendants of transaction i.
        let mut bitsets: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        let mut weights = vec![0u64; n];
        let mut children = Vec::new();
        for i in (0..n).rev() {
            let id = TxId(i as u64);
            self.children_into(id, &mut children)
                .expect("index in range");
            // Split borrow: take the bitset out, merge children in, put back.
            let mut own = std::mem::take(&mut bitsets[i]);
            for &c in &children {
                let ci = c.index() as usize;
                if ci >= n {
                    continue; // child attached after this view's length
                }
                own[ci / 64] |= 1u64 << (ci % 64);
                for (w, &cw) in own.iter_mut().zip(&bitsets[ci]) {
                    *w |= cw;
                }
            }
            weights[i] = own.iter().map(|w| w.count_ones() as u64).sum::<u64>() + 1;
            bitsets[i] = own;
        }
        weights
    }

    /// Depth of every transaction measured from the tips (see
    /// [`Tangle::depths_from_tips`]); identical algorithm, expressed
    /// through this trait's accessors.
    fn depths_from_tips(&self) -> Vec<u32> {
        let n = self.len();
        let mut depths = vec![0u32; n];
        let mut children = Vec::new();
        for i in (0..n).rev() {
            let id = TxId(i as u64);
            self.children_into(id, &mut children)
                .expect("index in range");
            depths[i] = children
                .iter()
                .filter(|c| (c.index() as usize) < n)
                .map(|c| depths[c.index() as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        depths
    }

    /// The walk-start band of the tangle as it stands: everything
    /// [`TangleRead::sample_walk_start`] needs except the random draw.
    /// Depends on the tangle's contents only, so all walks over one
    /// unchanged tangle can share it.
    fn walk_start_band(&self, min_depth: u32, max_depth: u32) -> WalkStartBand {
        debug_assert!(min_depth <= max_depth);
        let depths = self.depths_from_tips();
        let candidates = depths
            .iter()
            .enumerate()
            .filter(|(_, &d)| d >= min_depth && d <= max_depth)
            .map(|(i, _)| TxId(i as u64))
            .collect();
        // Deepest transaction: ties resolve to the earliest (genesis).
        let (deepest, _) = depths
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
            .expect("tangle is never empty");
        WalkStartBand {
            len: depths.len(),
            candidates,
            deepest: TxId(deepest as u64),
        }
    }

    /// Samples a random-walk start transaction whose depth from the
    /// tips lies in `[min_depth, max_depth]` (see
    /// [`Tangle::sample_walk_start`]); identical result and RNG draw
    /// sequence.
    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        self.walk_start_band(min_depth, max_depth).draw(rng)
    }
}

/// The transactions a random walk may start from: those whose depth from
/// the tips lies in the requested band, with the deepest transaction as
/// the fallback while the tangle is too shallow to contain the band.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkStartBand {
    /// Length of the tangle the band was computed over.
    pub len: usize,
    /// The transactions inside the band, in ascending id order.
    pub candidates: Vec<TxId>,
    /// The deepest transaction (the earliest one on ties).
    pub deepest: TxId,
}

impl WalkStartBand {
    /// Draws a walk start: one `gen_range` over the candidates, or the
    /// deepest transaction — without touching `rng` — if there are none.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> TxId {
        if self.candidates.is_empty() {
            return self.deepest;
        }
        self.candidates[rng.gen_range(0..self.candidates.len())]
    }
}

impl<P> TangleRead<P> for Tangle<P> {
    fn len(&self) -> usize {
        Tangle::len(self)
    }

    fn payload_of(&self, id: TxId) -> Result<&P, TangleError> {
        Ok(self.get(id)?.payload())
    }

    fn issuer_of(&self, id: TxId) -> Result<Option<u32>, TangleError> {
        Ok(self.get(id)?.issuer())
    }

    fn round_of(&self, id: TxId) -> Result<u32, TangleError> {
        Ok(self.get(id)?.round())
    }

    fn parents_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
        let parents = self.get(id)?.parents();
        out.clear();
        out.extend_from_slice(parents);
        Ok(())
    }

    fn children_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
        let children = Tangle::children(self, id)?;
        out.clear();
        out.extend_from_slice(children);
        Ok(())
    }

    fn is_tip(&self, id: TxId) -> bool {
        Tangle::is_tip(self, id)
    }

    fn tips(&self) -> Vec<TxId> {
        Tangle::tips(self)
    }

    // Delegate the heavy computations to the inherent implementations so
    // the trait path is *the same code*, not merely the same algorithm.
    fn cumulative_weights(&self) -> Vec<u64> {
        Tangle::cumulative_weights(self)
    }

    fn depths_from_tips(&self) -> Vec<u32> {
        Tangle::depths_from_tips(self)
    }

    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        Tangle::sample_walk_start(self, min_depth, max_depth, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> Tangle<u32> {
        let mut t = Tangle::new(0);
        let g = t.genesis();
        let a = t.attach(1, &[g]).unwrap();
        let b = t.attach(2, &[g]).unwrap();
        t.attach_with_meta(3, &[a, b], Some(7), 2).unwrap();
        t
    }

    /// Runs the provided (default) trait bodies against a `Tangle` by
    /// routing through a newtype that only forwards the required methods.
    struct Forward<'a>(&'a Tangle<u32>);

    impl TangleRead<u32> for Forward<'_> {
        fn len(&self) -> usize {
            Tangle::len(self.0)
        }
        fn payload_of(&self, id: TxId) -> Result<&u32, TangleError> {
            Ok(self.0.get(id)?.payload())
        }
        fn issuer_of(&self, id: TxId) -> Result<Option<u32>, TangleError> {
            Ok(self.0.get(id)?.issuer())
        }
        fn round_of(&self, id: TxId) -> Result<u32, TangleError> {
            Ok(self.0.get(id)?.round())
        }
        fn parents_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
            out.clear();
            out.extend_from_slice(self.0.get(id)?.parents());
            Ok(())
        }
        fn children_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
            out.clear();
            out.extend_from_slice(self.0.children(id)?);
            Ok(())
        }
        fn is_tip(&self, id: TxId) -> bool {
            Tangle::is_tip(self.0, id)
        }
        fn tips(&self) -> Vec<TxId> {
            Tangle::tips(self.0)
        }
    }

    #[test]
    fn trait_accessors_match_inherent() {
        let t = fixture();
        let v: &dyn Fn(&Tangle<u32>) -> usize = &|t| TangleRead::len(t);
        assert_eq!(v(&t), 4);
        assert_eq!(TangleRead::payload_of(&t, TxId(3)).unwrap(), &3);
        assert_eq!(TangleRead::issuer_of(&t, TxId(3)).unwrap(), Some(7));
        assert_eq!(TangleRead::round_of(&t, TxId(3)).unwrap(), 2);
        assert_eq!(
            TangleRead::parents_of(&t, TxId(3)).unwrap(),
            vec![TxId(1), TxId(2)]
        );
        assert_eq!(
            TangleRead::children_of(&t, TxId(0)).unwrap(),
            vec![TxId(1), TxId(2)]
        );
        assert!(TangleRead::is_tip(&t, TxId(3)));
        assert_eq!(TangleRead::tips(&t), vec![TxId(3)]);
        assert!(TangleRead::contains(&t, TxId(3)));
        assert!(!TangleRead::contains(&t, TxId(4)));
        assert!(!TangleRead::is_empty(&t));
    }

    #[test]
    fn provided_weight_bodies_match_inherent_algorithms() {
        let t = fixture();
        let f = Forward(&t);
        assert_eq!(f.cumulative_weights(), t.cumulative_weights());
        assert_eq!(f.depths_from_tips(), t.depths_from_tips());
    }

    #[test]
    fn provided_sampler_draws_identically_to_inherent() {
        // Longer chain so the walk-start band filter is non-trivial.
        let mut t = Tangle::new(0u32);
        let mut prev = t.genesis();
        for i in 1..40 {
            prev = t.attach(i, &[prev]).unwrap();
        }
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let f = Forward(&t);
        for _ in 0..10 {
            let inherent = t.sample_walk_start(15, 25, &mut rng_a);
            let via_trait = f.sample_walk_start(15, 25, &mut rng_b);
            assert_eq!(inherent, via_trait);
        }
    }

    #[test]
    fn unknown_ids_error_through_the_trait() {
        let t = fixture();
        assert!(TangleRead::payload_of(&t, TxId(9)).is_err());
        assert!(TangleRead::parents_of(&t, TxId(9)).is_err());
        assert!(TangleRead::children_of(&t, TxId(9)).is_err());
        assert!(!TangleRead::is_tip(&t, TxId(9)));
    }
}
