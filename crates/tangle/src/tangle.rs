//! The sequential DAG store: attach, lookup and tip tracking behind a
//! plain `&mut self` — the store under every per-client replica view,
//! and the reference the concurrent store is tested against.

use std::collections::HashSet;

use crate::{TangleError, TangleStats, Transaction, TxId};

/// The depth every store's depth column is capped at: it keeps
/// `min(depth from tips, DEPTH_CEILING)` per transaction. A walk-start
/// window whose top lies below it reads the column; one at or above it
/// (the walk-from-genesis ablation) recomputes the depths. Popov's
/// window, which every shipped scenario uses, is 15–25.
pub const DEPTH_CEILING: u32 = 32;

/// An append-only DAG of transactions with approval edges, behind
/// `&mut self`. Every algorithm over it (weights, depths, cones,
/// edges, DOT export) is a provided method of
/// [`TangleRead`](crate::TangleRead).
///
/// The tangle starts from a single genesis transaction. Every further
/// transaction approves one or more existing transactions; approvals can
/// never be removed, so the graph is acyclic by construction (a transaction
/// can only approve transactions that were attached before it).
///
/// # Example
///
/// ```
/// use dagfl_tangle::Tangle;
///
/// # fn main() -> Result<(), dagfl_tangle::TangleError> {
/// let mut tangle = Tangle::new(0u32);
/// let genesis = tangle.genesis();
/// let a = tangle.attach(1, &[genesis])?;
/// let b = tangle.attach(2, &[genesis])?;
/// let c = tangle.attach(3, &[a, b])?;
/// assert_eq!(tangle.tips(), vec![c]);
/// assert_eq!(tangle.children(genesis)?, &[a, b]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tangle<P> {
    transactions: Vec<Transaction<P>>,
    children: Vec<Vec<TxId>>,
    tips: HashSet<TxId>,
    // Incremental structural counters maintained on attach so `stats()`
    // needs no full-graph re-scan (the test suite pins them against a
    // recomputed oracle).
    heights: Vec<u32>,
    edges: usize,
    max_height: u32,
    /// `min(depth from tips, DEPTH_CEILING)` per transaction, raised on
    /// attach.
    depths: Vec<u32>,
}

impl<P> Tangle<P> {
    /// Creates a tangle containing only the genesis transaction with the
    /// given payload.
    pub fn new(genesis_payload: P) -> Self {
        let genesis = Transaction {
            id: TxId(0),
            parents: Vec::new(),
            payload: genesis_payload,
            issuer: None,
            round: 0,
        };
        let mut tips = HashSet::new();
        tips.insert(TxId(0));
        Self {
            transactions: vec![genesis],
            children: vec![Vec::new()],
            tips,
            heights: vec![0],
            edges: 0,
            max_height: 0,
            depths: vec![0],
        }
    }

    /// The id of the genesis transaction.
    pub fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Number of transactions, including the genesis.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Always `false`: a tangle contains at least the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Attaches a new transaction approving `parents`.
    ///
    /// Duplicate parent ids are collapsed, so passing `[g, g]` (both walks
    /// ended at the same tip) records a single approval.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::MissingParents`] for an empty parent list and
    /// [`TangleError::UnknownParent`] if a parent does not exist.
    pub fn attach(&mut self, payload: P, parents: &[TxId]) -> Result<TxId, TangleError> {
        self.attach_with_meta(payload, parents, None, 0)
    }

    /// Attaches a new transaction recording the publishing client and round.
    ///
    /// # Errors
    ///
    /// Same as [`Tangle::attach`].
    pub fn attach_with_meta(
        &mut self,
        payload: P,
        parents: &[TxId],
        issuer: Option<u32>,
        round: u32,
    ) -> Result<TxId, TangleError> {
        if parents.is_empty() {
            return Err(TangleError::MissingParents);
        }
        let mut unique: Vec<TxId> = Vec::with_capacity(parents.len());
        for &p in parents {
            if p.0 as usize >= self.transactions.len() {
                return Err(TangleError::UnknownParent(p));
            }
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        let id = TxId(self.transactions.len() as u64);
        let height = 1 + unique
            .iter()
            .map(|p| self.heights[p.0 as usize])
            .max()
            .expect("parents are non-empty");
        for &p in &unique {
            self.children[p.0 as usize].push(id);
            self.tips.remove(&p);
        }
        self.edges += unique.len();
        self.transactions.push(Transaction {
            id,
            parents: unique,
            payload,
            issuer,
            round,
        });
        self.children.push(Vec::new());
        self.tips.insert(id);
        self.heights.push(height);
        self.max_height = self.max_height.max(height);
        self.depths.push(0);
        self.deepen_ancestors(id);
        Ok(id)
    }

    /// Raises the capped depths the new tip `id` deepens: up through the
    /// parents, until a depth stops growing or reaches the ceiling.
    fn deepen_ancestors(&mut self, id: TxId) {
        let mut stack = vec![(id, 0)];
        while let Some((child, depth)) = stack.pop() {
            let depth = (depth + 1).min(DEPTH_CEILING);
            for &p in &self.transactions[child.0 as usize].parents {
                let old = &mut self.depths[p.0 as usize];
                if *old < depth {
                    *old = depth;
                    stack.push((p, depth));
                }
            }
        }
    }

    /// Looks up a transaction by id.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn get(&self, id: TxId) -> Result<&Transaction<P>, TangleError> {
        self.transactions
            .get(id.0 as usize)
            .ok_or(TangleError::UnknownTransaction(id))
    }

    /// The direct approvers of `id` (transactions that list it as parent).
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn children(&self, id: TxId) -> Result<&[TxId], TangleError> {
        self.children
            .get(id.0 as usize)
            .map(Vec::as_slice)
            .ok_or(TangleError::UnknownTransaction(id))
    }

    /// Whether `id` currently has no approvers.
    pub fn is_tip(&self, id: TxId) -> bool {
        self.tips.contains(&id)
    }

    /// All current tips, sorted by id for determinism.
    pub fn tips(&self) -> Vec<TxId> {
        let mut tips: Vec<TxId> = self.tips.iter().copied().collect();
        tips.sort();
        tips
    }

    /// Every transaction's depth from the tips capped at
    /// [`DEPTH_CEILING`], in id order: the column kept on attach.
    pub fn capped_depths(&self) -> &[u32] {
        &self.depths
    }

    /// Iterator over all transactions in insertion (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction<P>> {
        self.transactions.iter()
    }

    /// Structural summary statistics, read from counters maintained
    /// incrementally on attach — `O(1)` instead of a full re-scan.
    /// (`max_depth` uses the identity "longest path from the genesis ==
    /// maximum depth-from-tips"; the regression tests pin every field
    /// against a recomputed oracle.)
    pub fn stats(&self) -> TangleStats {
        TangleStats::from_counts(self.len(), self.tips.len(), self.edges, self.max_height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TangleRead;

    /// The future cone of `id` — itself plus everything that directly or
    /// indirectly approves it — as the transactions whose past cone
    /// holds `id`.
    fn future_cone(t: &Tangle<u32>, id: TxId) -> HashSet<TxId> {
        t.iter()
            .map(Transaction::id)
            .filter(|&other| t.past_cone(other).unwrap().contains(&id))
            .collect()
    }

    fn diamond() -> (Tangle<u32>, [TxId; 4]) {
        let mut t = Tangle::new(0);
        let g = t.genesis();
        let a = t.attach(1, &[g]).unwrap();
        let b = t.attach(2, &[g]).unwrap();
        let c = t.attach(3, &[a, b]).unwrap();
        (t, [g, a, b, c])
    }

    #[test]
    fn new_tangle_has_single_tip_genesis() {
        let t = Tangle::new(());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.tips(), vec![t.genesis()]);
        assert!(t.get(t.genesis()).unwrap().is_genesis());
    }

    #[test]
    fn attach_updates_tips_and_children() {
        let (t, [g, a, b, c]) = diamond();
        assert_eq!(t.tips(), vec![c]);
        assert!(!t.is_tip(g));
        assert!(!t.is_tip(a));
        assert!(t.is_tip(c));
        assert_eq!(t.children(g).unwrap(), &[a, b]);
        assert_eq!(t.children(c).unwrap(), &[] as &[TxId]);
    }

    #[test]
    fn attach_rejects_unknown_parent() {
        let mut t = Tangle::new(());
        let err = t.attach((), &[TxId(5)]).unwrap_err();
        assert_eq!(err, TangleError::UnknownParent(TxId(5)));
    }

    #[test]
    fn attach_rejects_empty_parents() {
        let mut t = Tangle::new(());
        assert_eq!(t.attach((), &[]).unwrap_err(), TangleError::MissingParents);
    }

    #[test]
    fn attach_deduplicates_parents() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach((), &[g, g]).unwrap();
        assert_eq!(t.get(a).unwrap().parents(), &[g]);
        assert_eq!(t.children(g).unwrap(), &[a]);
    }

    #[test]
    fn meta_is_recorded() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach_with_meta((), &[g], Some(3), 17).unwrap();
        let tx = t.get(a).unwrap();
        assert_eq!(tx.issuer(), Some(3));
        assert_eq!(tx.round(), 17);
    }

    #[test]
    fn past_cone_of_diamond_top_is_everything() {
        let (t, [g, a, b, c]) = diamond();
        let cone = t.past_cone(c).unwrap();
        assert_eq!(cone.len(), 4);
        for id in [g, a, b, c] {
            assert!(cone.contains(&id));
        }
    }

    #[test]
    fn past_cone_of_middle_excludes_sibling() {
        let (t, [g, a, b, _]) = diamond();
        let cone = t.past_cone(a).unwrap();
        assert!(cone.contains(&g));
        assert!(cone.contains(&a));
        assert!(!cone.contains(&b));
    }

    #[test]
    fn future_cone_of_genesis_is_everything() {
        let (t, ids) = diamond();
        let cone = future_cone(&t, ids[0]);
        assert_eq!(cone.len(), 4);
    }

    #[test]
    fn future_cone_of_tip_is_self() {
        let (t, [_, _, _, c]) = diamond();
        let cone = future_cone(&t, c);
        assert_eq!(cone.len(), 1);
        assert!(cone.contains(&c));
    }

    #[test]
    fn cones_of_unknown_id_error() {
        let t = Tangle::new(());
        assert!(t.past_cone(TxId(3)).is_err());
        assert!(t.get(TxId(3)).is_err());
        assert!(t.children(TxId(3)).is_err());
    }

    #[test]
    fn edges_list_all_approvals() {
        let (t, [g, a, b, c]) = diamond();
        let edges = t.edges();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(a, g)));
        assert!(edges.contains(&(b, g)));
        assert!(edges.contains(&(c, a)));
        assert!(edges.contains(&(c, b)));
    }

    #[test]
    fn iter_is_topological() {
        let (t, _) = diamond();
        let mut last = None;
        for tx in t.iter() {
            for p in tx.parents() {
                assert!(p.index() < tx.id().index());
            }
            if let Some(prev) = last {
                assert!(tx.id().index() > prev);
            }
            last = Some(tx.id().index());
        }
    }

    #[test]
    fn capped_depths_equal_the_recomputed_depths_as_the_tangle_grows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = Tangle::new(());
        for _ in 0..120 {
            let len = t.len() as u64;
            let recent = TxId(rng.gen_range(len.saturating_sub(3)..len));
            let any = TxId(rng.gen_range(0..len));
            t.attach((), &[recent, any]).unwrap();
            let oracle: Vec<u32> = t
                .depths_from_tips()
                .into_iter()
                .map(|d| d.min(DEPTH_CEILING))
                .collect();
            assert_eq!(t.capped_depths(), oracle, "at length {}", t.len());
        }
        assert!(
            t.depths_from_tips()[0] > DEPTH_CEILING,
            "the ceiling was not reached"
        );
    }

    #[test]
    fn two_parallel_branches_have_two_tips() {
        let mut t = Tangle::new(());
        let g = t.genesis();
        let a = t.attach((), &[g]).unwrap();
        let b = t.attach((), &[g]).unwrap();
        assert_eq!(t.tips(), vec![a, b]);
    }
}
