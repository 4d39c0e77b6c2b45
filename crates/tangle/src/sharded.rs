//! The store both simulators share: write-once transaction slots read
//! with no lock, and the DAG structure in one [`Tangle`] behind one lock.
//!
//! # Layout
//!
//! Transactions live in a fixed directory of append-only **segments**:
//! `segments[s]` is lazily allocated as a boxed slice of [`OnceLock`]
//! slots, so a transaction written once is readable forever through a
//! plain `&self` reference — payload, parents, issuer and round need no
//! guard, no epoch and no copy.
//!
//! Everything structural — parent validation and deduplication,
//! children, tips, heights, the capped depths, the `stats()` counters
//! and the walk-start band — is the sequential [`Tangle`]'s, held as a
//! `Tangle<()>` in one [`RwLock`]: this store has no DAG rule of its
//! own.
//!
//! # Consistency
//!
//! [`ShardedTangle::attach`] takes the write lock, attaches to the inner
//! `Tangle` and writes the new slot before it unlocks, so every id a
//! reader can see through the lock is readable. Both simulators write
//! only in serial phases — walks read in a fan-out, attaches run after
//! it — so the lock is shared by readers and never waited on by a
//! writer in practice; `attach` still takes `&self`, and the tests below
//! grow the store from several threads at once.

use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard};

use rand::Rng;

use crate::read::{TangleRead, WalkStartBand};
use crate::{Tangle, TangleError, TangleSnapshot, TangleStats, Transaction, TxId};

/// Transactions per lazily-allocated segment.
const SEGMENT_SIZE: usize = 1024;
/// Fixed size of the segment directory; the capacity ceiling is
/// `SEGMENT_SIZE * MAX_SEGMENTS` = 4 194 304 transactions, far beyond
/// the 10k-client scenarios this store targets.
const MAX_SEGMENTS: usize = 4096;

/// One lazily-allocated run of `SEGMENT_SIZE` write-once slots.
type Segment<P> = Box<[OnceLock<Transaction<P>>]>;

/// An append-only DAG store sharing [`Tangle`]'s contract — dense
/// sequential ids, parents before children — whose transactions are
/// read with no lock, and which is appended to through `&self`.
///
/// # Example
///
/// ```
/// use dagfl_tangle::{ShardedTangle, TangleRead};
///
/// # fn main() -> Result<(), dagfl_tangle::TangleError> {
/// let tangle = ShardedTangle::new(0u32);
/// let genesis = tangle.genesis();
/// // Appends go through `&self`: no `mut`, no external lock.
/// let a = tangle.attach(1, &[genesis])?;
/// let b = tangle.attach(2, &[genesis])?;
/// let c = tangle.attach(3, &[a, b])?;
/// assert_eq!(tangle.tips(), vec![c]);
/// assert_eq!(tangle.children(genesis)?, vec![a, b]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedTangle<P> {
    /// Lazily-allocated slot segments; a slot, once set, is immutable.
    segments: Box<[OnceLock<Segment<P>>]>,
    /// The DAG structure. Slot `id` is written before the write lock
    /// that attached `id` is released.
    dag: RwLock<Tangle<()>>,
}

impl<P> ShardedTangle<P> {
    /// Creates a tangle containing only the genesis transaction.
    pub fn new(genesis_payload: P) -> Self {
        let this = Self {
            segments: (0..MAX_SEGMENTS).map(|_| OnceLock::new()).collect(),
            dag: RwLock::new(Tangle::new(())),
        };
        this.store(Transaction {
            id: TxId(0),
            parents: Vec::new(),
            payload: genesis_payload,
            issuer: None,
            round: 0,
        });
        this
    }

    /// The id of the genesis transaction.
    pub fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Number of attached transactions, including the genesis.
    pub fn len(&self) -> usize {
        self.dag().len()
    }

    /// Always `false`: a tangle contains at least the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read access to the structure. Poison is ignored: an attach that
    /// panics does so before it touches the inner tangle.
    fn dag(&self) -> RwLockReadGuard<'_, Tangle<()>> {
        self.dag.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `tx` into the slot of its id, allocating the segment on
    /// first touch. Panics if the slot was already written (ids are
    /// assigned once, under the write lock).
    fn store(&self, tx: Transaction<P>) {
        let index = tx.id.0 as usize;
        let segment = self.segments[index / SEGMENT_SIZE]
            .get_or_init(|| (0..SEGMENT_SIZE).map(|_| OnceLock::new()).collect());
        let fresh = segment[index % SEGMENT_SIZE].set(tx).is_ok();
        assert!(fresh, "transaction slot {index} written twice");
    }

    /// Attaches a new transaction approving `parents`, with the rules of
    /// [`Tangle::attach`]: duplicate parent ids are collapsed. Takes
    /// `&self`: appenders serialize on the write lock.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::MissingParents`] for an empty parent list
    /// and [`TangleError::UnknownParent`] if a parent does not exist.
    pub fn attach(&self, payload: P, parents: &[TxId]) -> Result<TxId, TangleError> {
        self.attach_with_meta(payload, parents, None, 0)
    }

    /// Attaches a new transaction recording the publishing client and
    /// round.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedTangle::attach`]. Panics only if the fixed
    /// capacity ceiling (`SEGMENT_SIZE * MAX_SEGMENTS` ≈ 4.2 M
    /// transactions) is exceeded.
    pub fn attach_with_meta(
        &self,
        payload: P,
        parents: &[TxId],
        issuer: Option<u32>,
        round: u32,
    ) -> Result<TxId, TangleError> {
        let mut dag = self.dag.write().unwrap_or_else(PoisonError::into_inner);
        assert!(
            dag.len() < SEGMENT_SIZE * MAX_SEGMENTS,
            "sharded tangle capacity ({} transactions) exceeded",
            SEGMENT_SIZE * MAX_SEGMENTS
        );
        let id = dag.attach((), parents)?;
        self.store(Transaction {
            id,
            parents: dag.get(id).expect("just attached").parents().to_vec(),
            payload,
            issuer,
            round,
        });
        Ok(id)
    }

    /// Looks up a transaction by id, with no lock. The returned
    /// reference is a plain `&Transaction` — slots are immutable once
    /// written.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn get(&self, id: TxId) -> Result<&Transaction<P>, TangleError> {
        let index = id.0 as usize;
        self.segments
            .get(index / SEGMENT_SIZE)
            .and_then(OnceLock::get)
            .and_then(|segment| segment[index % SEGMENT_SIZE].get())
            .ok_or(TangleError::UnknownTransaction(id))
    }

    /// The direct approvers of `id`, in attachment order.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn children(&self, id: TxId) -> Result<Vec<TxId>, TangleError> {
        self.dag().children(id).map(<[TxId]>::to_vec)
    }

    /// Whether `id` currently has no approvers.
    pub fn is_tip(&self, id: TxId) -> bool {
        self.dag().is_tip(id)
    }

    /// All current tips, sorted by id for determinism.
    pub fn tips(&self) -> Vec<TxId> {
        self.dag().tips()
    }

    /// Mutable access to the payload of `id`, for the store's owner: a
    /// writer with `&mut self` shares the store with no reader. The
    /// structure stays as attached.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn payload_mut(&mut self, id: TxId) -> Result<&mut P, TangleError> {
        let index = id.0 as usize;
        self.segments
            .get_mut(index / SEGMENT_SIZE)
            .and_then(OnceLock::get_mut)
            .and_then(|segment| segment[index % SEGMENT_SIZE].get_mut())
            .map(|tx| &mut tx.payload)
            .ok_or(TangleError::UnknownTransaction(id))
    }

    /// Iterator over the transactions attached when it is created, in
    /// insertion (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction<P>> {
        (0..self.len()).map(move |i| {
            self.get(TxId(i as u64))
                .expect("attached slots are written")
        })
    }

    /// Structural summary statistics, read from the inner tangle's
    /// incremental counters.
    pub fn stats(&self) -> TangleStats {
        self.dag().stats()
    }
}

impl<P: Clone> ShardedTangle<P> {
    /// Exports the current contents as a snapshot.
    pub fn snapshot(&self) -> TangleSnapshot<P> {
        TangleSnapshot::from_records(self.iter().map(crate::SnapshotRecord::from).collect())
    }
}

impl<P> TangleRead<P> for ShardedTangle<P> {
    fn len(&self) -> usize {
        ShardedTangle::len(self)
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
        self.dag().children_into(id, out)
    }

    fn is_tip(&self, id: TxId) -> bool {
        ShardedTangle::is_tip(self, id)
    }

    fn tips(&self) -> Vec<TxId> {
        ShardedTangle::tips(self)
    }

    fn capped_depths(&self) -> Vec<u32> {
        self.dag().capped_depths().to_vec()
    }

    /// The band of one consistent tangle: every depth is read under a
    /// single read lock, not one lock per transaction.
    fn walk_start_band(&self, min_depth: u32, max_depth: u32) -> WalkStartBand {
        self.dag().walk_start_band(min_depth, max_depth)
    }

    /// A draw over one consistent tangle, under a single read lock.
    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        self.dag().sample_walk_start(min_depth, max_depth, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tangle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Mirrors a random attach sequence into both stores and asserts
    /// they are indistinguishable through every read API.
    fn assert_equivalent(plain: &Tangle<u64>, sharded: &ShardedTangle<u64>) {
        assert_eq!(plain.len(), sharded.len());
        assert_eq!(plain.tips(), sharded.tips());
        assert_eq!(plain.stats(), sharded.stats());
        for tx in plain.iter() {
            let other = sharded.get(tx.id()).unwrap();
            assert_eq!(tx.parents(), other.parents());
            assert_eq!(tx.payload(), other.payload());
            assert_eq!(tx.issuer(), other.issuer());
            assert_eq!(tx.round(), other.round());
            assert_eq!(
                plain.children(tx.id()).unwrap(),
                sharded.children(tx.id()).unwrap().as_slice()
            );
            assert_eq!(plain.is_tip(tx.id()), sharded.is_tip(tx.id()));
        }
        assert_eq!(
            TangleRead::cumulative_weights(plain),
            TangleRead::cumulative_weights(sharded)
        );
        assert_eq!(
            TangleRead::depths_from_tips(plain),
            TangleRead::depths_from_tips(sharded)
        );
    }

    fn random_grow(seed: u64, n: usize) -> (Tangle<u64>, ShardedTangle<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plain = Tangle::new(0u64);
        let sharded = ShardedTangle::new(0u64);
        for i in 1..n {
            let len = plain.len() as u64;
            let a = TxId(rng.gen_range(0..len));
            let b = TxId(rng.gen_range(0..len));
            let issuer = Some(rng.gen_range(0..7u32));
            let round = rng.gen_range(0..5);
            let x = plain
                .attach_with_meta(i as u64, &[a, b], issuer, round)
                .unwrap();
            let y = sharded
                .attach_with_meta(i as u64, &[a, b], issuer, round)
                .unwrap();
            assert_eq!(x, y);
        }
        (plain, sharded)
    }

    #[test]
    fn sequential_growth_is_indistinguishable_from_tangle() {
        for seed in 0..4 {
            let (plain, sharded) = random_grow(seed, 200);
            assert_equivalent(&plain, &sharded);
        }
    }

    #[test]
    fn failed_attaches_amid_growth_leave_the_stores_indistinguishable() {
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut plain = Tangle::new(0u64);
            let sharded = ShardedTangle::new(0u64);
            let mut failures = 0;
            for i in 1..200u64 {
                let len = plain.len() as u64;
                let a = TxId(rng.gen_range(0..len));
                let parents = match rng.gen_range(0..4) {
                    0 => Vec::new(),
                    1 => vec![a, TxId(len + rng.gen_range(0..3u64))],
                    2 => vec![a, a],
                    _ => vec![a, TxId(rng.gen_range(0..len))],
                };
                let issuer = Some(rng.gen_range(0..7u32));
                let x = plain.attach_with_meta(i, &parents, issuer, 1);
                let y = sharded.attach_with_meta(i, &parents, issuer, 1);
                assert_eq!(x, y, "parents {parents:?}");
                failures += usize::from(x.is_err());
                // Ids stay dense: a success takes the next id, a failure
                // takes none and writes no slot.
                if let Ok(id) = y {
                    assert_eq!(id.index(), len);
                }
                assert_eq!(sharded.len(), plain.len());
                assert!(sharded.get(TxId(plain.len() as u64)).is_err());
            }
            assert!(failures > 0, "no attach failed");
            assert_equivalent(&plain, &sharded);
        }
    }

    #[test]
    fn payload_mut_rewrites_the_payload_and_nothing_else() {
        let (plain, mut sharded) = random_grow(3, 40);
        *sharded.payload_mut(TxId(5)).unwrap() += 100;
        assert_eq!(*sharded.get(TxId(5)).unwrap().payload(), 105);
        *sharded.payload_mut(TxId(5)).unwrap() -= 100;
        assert_equivalent(&plain, &sharded);
        assert_eq!(
            sharded.payload_mut(TxId(40)).unwrap_err(),
            TangleError::UnknownTransaction(TxId(40))
        );
    }

    #[test]
    fn new_sharded_tangle_has_single_tip_genesis() {
        let t = ShardedTangle::new(());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.tips(), vec![t.genesis()]);
        assert!(t.get(t.genesis()).unwrap().is_genesis());
    }

    #[test]
    fn attach_validation_matches_tangle() {
        let t = ShardedTangle::new(());
        assert_eq!(t.attach((), &[]).unwrap_err(), TangleError::MissingParents);
        assert_eq!(
            t.attach((), &[TxId(5)]).unwrap_err(),
            TangleError::UnknownParent(TxId(5))
        );
        // A failed attach leaves no trace.
        assert_eq!(t.len(), 1);
        assert_eq!(t.tips(), vec![TxId(0)]);
        // Duplicate parents collapse.
        let g = t.genesis();
        let a = t.attach((), &[g, g]).unwrap();
        assert_eq!(t.get(a).unwrap().parents(), &[g]);
        assert_eq!(t.children(g).unwrap(), vec![a]);
    }

    #[test]
    fn unknown_ids_error() {
        let t = ShardedTangle::new(());
        assert!(t.get(TxId(3)).is_err());
        assert!(t.children(TxId(3)).is_err());
        assert!(!t.is_tip(TxId(3)));
    }

    #[test]
    fn concurrent_attach_from_threads_preserves_counts() {
        let t = ShardedTangle::new(());
        let genesis = t.genesis();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..50 {
                        t.attach((), &[genesis]).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), 1 + 8 * 50);
        assert_eq!(t.children(genesis).unwrap().len(), 400);
        assert_eq!(t.tips().len(), 400);
        let stats = t.stats();
        assert_eq!(stats.edges, 400);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn concurrent_reads_during_growth_are_safe_and_bounded() {
        let t = ShardedTangle::new(0u64);
        std::thread::scope(|scope| {
            let writer = &t;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(3);
                for i in 1..400u64 {
                    let p = TxId(rng.gen_range(0..writer.len() as u64));
                    writer.attach(i, &[p]).unwrap();
                }
            });
            for _ in 0..4 {
                let reader = &t;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let len = reader.len();
                        // Everything below the published length is readable.
                        for i in 0..len {
                            let tx = reader.get(TxId(i as u64)).unwrap();
                            assert!(tx.id().index() < len as u64);
                        }
                        let _ = reader.tips();
                        let _ = reader.stats();
                    }
                });
            }
        });
        // Quiescent again: full equivalence with a sequential rebuild.
        let mut rng = StdRng::seed_from_u64(3);
        let mut plain = Tangle::new(0u64);
        for i in 1..400u64 {
            let p = TxId(rng.gen_range(0..plain.len() as u64));
            plain.attach(i, &[p]).unwrap();
        }
        assert_equivalent(&plain, &t);
    }

    /// Parents for a DAG that gets deep enough to have a walk-start
    /// band: each transaction approves two of the last four.
    fn deep_parents(seed: u64, n: usize) -> Vec<[TxId; 2]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..n as u64)
            .map(|len| {
                let recent = len.saturating_sub(4)..len;
                [
                    TxId(rng.gen_range(recent.clone())),
                    TxId(rng.gen_range(recent)),
                ]
            })
            .collect()
    }

    #[test]
    fn walk_start_matches_the_sequential_oracle_as_the_tangle_grows() {
        let (lo, hi) = (3, 6);
        let mut plain = Tangle::new(0u64);
        let sharded = ShardedTangle::new(0u64);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut fallbacks = 0;
        for (i, parents) in deep_parents(8, 120).iter().enumerate() {
            // Several walks per length, then one attach that the next
            // walk must see.
            for _ in 0..3 {
                let expected = plain.sample_walk_start(lo, hi, &mut rng_a);
                let got = TangleRead::sample_walk_start(&sharded, lo, hi, &mut rng_b);
                assert_eq!(expected, got, "at length {}", plain.len());
            }
            let band = TangleRead::walk_start_band(&sharded, lo, hi);
            assert_eq!(band.len, plain.len(), "an attach was not seen");
            fallbacks += usize::from(band.candidates.is_empty());
            // Other bounds at the same length are another band.
            if i % 7 == 0 {
                assert_eq!(
                    plain.sample_walk_start(0, 1, &mut rng_a),
                    TangleRead::sample_walk_start(&sharded, 0, 1, &mut rng_b)
                );
            }
            plain.attach(i as u64, parents).unwrap();
            sharded.attach(i as u64, parents).unwrap();
        }
        assert!(
            (1..100).contains(&fallbacks),
            "both branches must be exercised"
        );
        // Same draws in the same order: the streams are in the same state.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn concurrent_walk_starts_during_growth_match_the_oracle_at_each_length() {
        const READERS: usize = 8;
        const PHASES: usize = 12;
        const CHUNK: usize = 15;
        let (lo, hi) = (3, 6);
        let parents = deep_parents(5, 1 + PHASES * CHUNK);
        let t = ShardedTangle::new(0u64);
        // Everyone meets after each chunk: readers race the writer while
        // it attaches, then all sample the quiescent tangle.
        let barrier = std::sync::Barrier::new(READERS + 1);
        // (Nothing asserts between two barrier waits: a failing thread
        // would leave the others waiting forever.)
        let seen: Vec<(Vec<WalkStartBand>, Vec<usize>)> = std::thread::scope(|scope| {
            scope.spawn(|| {
                for chunk in parents.chunks(CHUNK) {
                    for p in chunk {
                        t.attach(0, p).unwrap();
                    }
                    barrier.wait();
                    barrier.wait();
                }
            });
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen: Vec<WalkStartBand> = Vec::new();
                        let mut quiescent = Vec::new();
                        let observe = |seen: &mut Vec<WalkStartBand>| {
                            let band = t.walk_start_band(lo, hi);
                            if seen.last() != Some(&band) {
                                seen.push(band);
                            }
                        };
                        for phase in 1..=PHASES {
                            while t.len() < 1 + phase * CHUNK {
                                observe(&mut seen);
                            }
                            barrier.wait();
                            observe(&mut seen);
                            quiescent.extend(seen.last().map(|band| band.len));
                            barrier.wait();
                        }
                        (seen, quiescent)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        // Sequential oracle: the same attaches replayed into a `Tangle`,
        // checked at every length some reader published a band for.
        let mut plain = Tangle::new(0u64);
        let mut oracle = vec![plain.walk_start_band(lo, hi)];
        for p in &parents {
            plain.attach(0, p).unwrap();
            oracle.push(plain.walk_start_band(lo, hi));
        }
        let chunk_ends: Vec<usize> = (1..=PHASES).map(|phase| 1 + phase * CHUNK).collect();
        for (bands, quiescent) in &seen {
            for band in bands {
                assert_eq!(band, &oracle[band.len - 1], "at length {}", band.len);
            }
            assert_eq!(quiescent, &chunk_ends, "a finished attach was not seen");
        }
    }

    #[test]
    fn stats_match_recomputed_oracle() {
        let (_, sharded) = random_grow(9, 150);
        let stats = sharded.stats();
        // Oracle: recompute everything from scratch via the read APIs.
        let edges: usize = sharded.iter().map(|tx| tx.parents().len()).sum();
        let max_depth = TangleRead::depths_from_tips(&sharded)
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(stats.transactions, sharded.len());
        assert_eq!(stats.tips, sharded.tips().len());
        assert_eq!(stats.edges, edges);
        assert_eq!(stats.max_depth, max_depth);
    }

    #[test]
    fn round_trips_through_tangle_preserve_everything() {
        let (plain, sharded) = random_grow(2, 120);
        // Replays one store into the other in id order: ids, parents and
        // metadata must all survive.
        let mut materialised = Tangle::new(0u64);
        let rebuilt = ShardedTangle::new(0u64);
        for (tx, original) in sharded.iter().zip(plain.iter()).skip(1) {
            let (payload, parents) = (*tx.payload(), tx.parents());
            materialised
                .attach_with_meta(payload, parents, tx.issuer(), tx.round())
                .unwrap();
            let (payload, parents) = (*original.payload(), original.parents());
            rebuilt
                .attach_with_meta(payload, parents, original.issuer(), original.round())
                .unwrap();
        }
        assert_equivalent(&materialised, &sharded);
        assert_equivalent(&materialised, &rebuilt);
    }

    #[test]
    fn snapshot_matches_plain_tangle_snapshot() {
        let (plain, sharded) = random_grow(5, 80);
        let snapshot = sharded.snapshot();
        assert_eq!(snapshot.len(), plain.len());
        for (tx, record) in plain.iter().zip(snapshot.records()) {
            assert_eq!(&crate::SnapshotRecord::from(tx), record);
        }
    }

    #[test]
    fn walks_run_against_the_sharded_store() {
        use crate::{RandomWalker, UniformBias};
        let (plain, sharded) = random_grow(7, 60);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let walker = RandomWalker::new();
        for _ in 0..20 {
            let a = walker
                .walk(&plain, plain.genesis(), &mut UniformBias, &mut rng_a)
                .unwrap();
            let b = walker
                .walk(&sharded, sharded.genesis(), &mut UniformBias, &mut rng_b)
                .unwrap();
            assert_eq!(a, b);
        }
    }
}
