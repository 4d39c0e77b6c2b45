//! The read surface every tangle store shares, and the one home of the
//! algorithms over it.
//!
//! Tip selection, weight computations, cones, export and specialization
//! metrics only ever *read* the DAG. [`TangleRead`] captures exactly
//! that surface: a store implements the required accessors, and every
//! algorithm is a provided method written once over them — so the same
//! code runs unchanged against the sequential [`Tangle`], the
//! simulators' [`ShardedTangle`](crate::ShardedTangle) (a `Tangle`
//! behind one lock: its transaction slots are read with no lock, its
//! structure under that one lock, and it is written only in serial
//! phases), and the per-client replica views in `dagfl-core`, with
//! bit-identical results.

use std::collections::HashSet;

use rand::Rng;

use crate::{Tangle, TangleError, TxId, DEPTH_CEILING};

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

    /// All approval edges as `(child, parent)` pairs, in insertion order.
    fn edges(&self) -> Vec<(TxId, TxId)> {
        let mut edges = Vec::new();
        let mut parents = Vec::new();
        for i in 0..self.len() {
            let id = TxId(i as u64);
            self.parents_into(id, &mut parents).expect("index in range");
            edges.extend(parents.iter().map(|&p| (id, p)));
        }
        edges
    }

    /// The past cone of `id`: the transaction itself plus everything it
    /// directly or indirectly approves.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    fn past_cone(&self, id: TxId) -> Result<HashSet<TxId>, TangleError> {
        if !self.contains(id) {
            return Err(TangleError::UnknownTransaction(id));
        }
        let mut seen = HashSet::new();
        let mut stack = vec![id];
        let mut parents = Vec::new();
        while let Some(current) = stack.pop() {
            if !seen.insert(current) {
                continue;
            }
            self.parents_into(current, &mut parents)?;
            stack.extend(parents.iter().filter(|p| !seen.contains(p)));
        }
        Ok(seen)
    }

    /// Exact cumulative weight of every transaction: the number of
    /// transactions that directly or indirectly approve it, counting the
    /// transaction itself as self-approving (Popov; Figure 3 of the paper).
    ///
    /// Computed with per-transaction descendant bitsets in reverse
    /// topological order, so diamonds are not double-counted. Memory is
    /// `O(n² / 64)` — appropriate for simulation-scale tangles (a 10 000
    /// transaction tangle needs ~12 MiB transiently).
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

    /// Depth of every transaction measured from the tips: tips have depth
    /// 0, every other transaction has `1 + max(depth of its approvers)`
    /// (the longest approval path to any tip).
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

    /// Every transaction's depth from the tips capped at
    /// [`DEPTH_CEILING`]. The stores keep this column up on attach; this
    /// body recomputes it from [`TangleRead::depths_from_tips`], the
    /// oracle they are tested against.
    fn capped_depths(&self) -> Vec<u32> {
        let mut depths = self.depths_from_tips();
        for depth in &mut depths {
            *depth = (*depth).min(DEPTH_CEILING);
        }
        depths
    }

    /// The walk-start band of the tangle as it stands: everything
    /// [`TangleRead::sample_walk_start`] needs except the random draw.
    /// Depends on the tangle's contents only, so all walks over one
    /// unchanged tangle can share it.
    ///
    /// This body recomputes every depth. The stores read their capped
    /// column instead whenever `max_depth < DEPTH_CEILING`, and keep this
    /// body only for windows at or above the ceiling.
    fn walk_start_band(&self, min_depth: u32, max_depth: u32) -> WalkStartBand {
        WalkStartBand::over(&self.depths_from_tips(), min_depth, max_depth)
    }

    /// Samples a random-walk start transaction whose depth from the tips
    /// lies in `[min_depth, max_depth]`, as proposed by Popov (the paper
    /// uses 15–25).
    ///
    /// Falls back to the deepest transaction (usually the genesis) while
    /// the tangle is still too shallow to contain the requested band.
    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        self.walk_start_band(min_depth, max_depth).draw(rng)
    }

    /// Renders the DAG in Graphviz DOT format (edges point from approver
    /// to approved, i.e. backwards in time, as in the paper's figures).
    ///
    /// `style` receives every transaction's id and issuer and may return
    /// extra node attributes (e.g. `fillcolor=...` to colour by cluster);
    /// return an empty string for defaults. Tips are always drawn grey,
    /// matching Figure 2.
    ///
    /// # Example
    ///
    /// ```
    /// use dagfl_tangle::{Tangle, TangleRead};
    ///
    /// # fn main() -> Result<(), dagfl_tangle::TangleError> {
    /// let mut t = Tangle::new(());
    /// let g = t.genesis();
    /// t.attach((), &[g])?;
    /// let dot = t.to_dot(|_, _| String::new());
    /// assert!(dot.starts_with("digraph tangle"));
    /// # Ok(())
    /// # }
    /// ```
    fn to_dot<F: Fn(TxId, Option<u32>) -> String>(&self, style: F) -> String {
        let mut out = String::from("digraph tangle {\n  rankdir=RL;\n  node [shape=circle];\n");
        for i in 0..self.len() {
            let id = TxId(i as u64);
            let issuer = self.issuer_of(id).expect("index in range");
            let mut attrs = String::new();
            if self.is_tip(id) {
                attrs.push_str("style=filled fillcolor=lightgray ");
            }
            attrs.push_str(&style(id, issuer));
            let label = match issuer {
                Some(issuer) => format!("label=\"{id}\\nc{issuer}\""),
                None => format!("label=\"{id}\""),
            };
            out.push_str(&format!("  \"{id}\" [{label} {attrs}];\n"));
        }
        for (child, parent) in self.edges() {
            out.push_str(&format!("  \"{child}\" -> \"{parent}\";\n"));
        }
        out.push_str("}\n");
        out
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
    /// The band over a column of depths in id order: exact depths, or
    /// depths capped above `max_depth`, which select the same
    /// candidates. The deepest transaction is the genesis either way,
    /// for every transaction descends from it.
    pub fn over(depths: &[u32], min_depth: u32, max_depth: u32) -> Self {
        debug_assert!(min_depth <= max_depth);
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

    fn capped_depths(&self) -> Vec<u32> {
        Tangle::capped_depths(self).to_vec()
    }

    /// The band read from the capped column below the ceiling.
    fn walk_start_band(&self, min_depth: u32, max_depth: u32) -> WalkStartBand {
        if max_depth < DEPTH_CEILING {
            WalkStartBand::over(Tangle::capped_depths(self), min_depth, max_depth)
        } else {
            WalkStartBand::over(&self.depths_from_tips(), min_depth, max_depth)
        }
    }

    /// Below the ceiling, two passes over the capped column and no band
    /// built: a count, then the drawn candidate, found by skipping whole
    /// blocks of ids by their counts. The draw is
    /// [`WalkStartBand::draw`]'s — one `gen_range` over the candidates in
    /// id order, or none and the genesis, the deepest transaction.
    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        const BLOCK: usize = 64;
        if max_depth >= DEPTH_CEILING {
            return self.walk_start_band(min_depth, max_depth).draw(rng);
        }
        let width = max_depth - min_depth;
        let inside = |depth: &&u32| depth.wrapping_sub(min_depth) <= width;
        let depths = Tangle::capped_depths(self);
        let count = depths.iter().filter(inside).count();
        if count == 0 {
            return self.genesis();
        }
        let mut rank = rng.gen_range(0..count);
        for (block, chunk) in depths.chunks(BLOCK).enumerate() {
            let here = chunk.iter().filter(inside).count();
            if rank < here {
                let offset = (0..chunk.len())
                    .filter(|&i| inside(&&chunk[i]))
                    .nth(rank)
                    .expect("the rank is below the block's count");
                return TxId((block * BLOCK + offset) as u64);
            }
            rank -= here;
        }
        unreachable!("the rank is below the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Tangle<u32> {
        let mut t = Tangle::new(0);
        let g = t.genesis();
        let a = t.attach(1, &[g]).unwrap();
        let b = t.attach(2, &[g]).unwrap();
        t.attach_with_meta(3, &[a, b], Some(7), 2).unwrap();
        t
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
        // Oracle: walk the inherent children lists. A transaction's weight
        // is the size of its future cone; its depth is the longest
        // approval path up to a tip.
        let t = fixture();
        let n = Tangle::len(&t);
        let mut weights = Vec::new();
        for i in 0..n {
            let mut seen = HashSet::new();
            let mut stack = vec![TxId(i as u64)];
            while let Some(id) = stack.pop() {
                if seen.insert(id) {
                    stack.extend_from_slice(t.children(id).unwrap());
                }
            }
            weights.push(seen.len() as u64);
        }
        let mut depths = vec![0u32; n];
        for i in (0..n).rev() {
            let children = t.children(TxId(i as u64)).unwrap();
            depths[i] = children
                .iter()
                .map(|c| depths[c.0 as usize] + 1)
                .max()
                .unwrap_or(0);
        }
        assert_eq!(weights, vec![4, 2, 2, 1]);
        assert_eq!(depths, vec![2, 1, 1, 0]);
        assert_eq!(TangleRead::cumulative_weights(&t), weights);
        assert_eq!(TangleRead::depths_from_tips(&t), depths);
    }

    #[test]
    fn provided_sampler_draws_identically_to_inherent() {
        use crate::ShardedTangle;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Longer chain so the walk-start band filter is non-trivial. The
        // sharded store overrides the band with one computed under a
        // single read lock; it must draw exactly what the provided body
        // draws.
        let mut t = Tangle::new(0u32);
        let s = ShardedTangle::new(0u32);
        let mut prev = t.genesis();
        for i in 1..40 {
            let id = t.attach(i, &[prev]).unwrap();
            assert_eq!(s.attach(i, &[prev]).unwrap(), id);
            prev = id;
        }
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let provided = TangleRead::sample_walk_start(&t, 15, 25, &mut rng_a);
            let sharded = TangleRead::sample_walk_start(&s, 15, 25, &mut rng_b);
            assert_eq!(provided, sharded);
            let depth = 39 - provided.0 as u32;
            assert!((15..=25).contains(&depth), "depth {depth} outside the band");
        }
    }

    #[test]
    fn column_draws_match_the_recomputing_oracle_on_every_side_of_the_ceiling() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut grow = StdRng::seed_from_u64(5);
        let mut t = Tangle::new(());
        let (mut ours, mut oracle) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        let windows = [(0, 0), (3, 6), (15, 25), (20, 31), (25, 40), (40, 50)];
        for _ in 0..150 {
            let len = Tangle::len(&t) as u64;
            let recent = TxId(grow.gen_range(len.saturating_sub(2)..len));
            t.attach((), &[recent]).unwrap();
            let depths = t.depths_from_tips();
            for (lo, hi) in windows.into_iter().chain([(u32::MAX - 1, u32::MAX)]) {
                let band = WalkStartBand::over(&depths, lo, hi);
                assert_eq!(TangleRead::walk_start_band(&t, lo, hi), band);
                assert_eq!(
                    TangleRead::sample_walk_start(&t, lo, hi, &mut ours),
                    band.draw(&mut oracle),
                    "window {lo}..={hi} at length {}",
                    Tangle::len(&t)
                );
            }
        }
        assert!(t.depths_from_tips()[0] > 50, "every window must fill");
        assert_eq!(ours.gen::<u64>(), oracle.gen::<u64>());
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
