//! A concurrent tangle whose read path never takes a global lock.
//!
//! # Layout
//!
//! Transactions live in a fixed directory of append-only **segments**:
//! `segments[s]` is lazily allocated as a boxed slice of
//! [`OnceLock`] slots, so a transaction written once is readable
//! forever through a plain `&self` reference — no guard, no epoch, no
//! copy. The mutable index (children adjacency and the tip set) is
//! split across `N` **shards** guarded by independent mutexes, with
//! transaction `id` assigned to shard `id % N`; an attach only touches
//! the shards of its parents and of the new transaction, so unrelated
//! attaches and reads of untouched shards never contend.
//!
//! Writers serialize on a single `append` mutex (id assignment must be
//! sequential for ids to stay dense topological indices), but readers
//! never take it: lookups go straight to the slot, and the published
//! [`ShardedTangle::len`] (release-stored after the slot is
//! initialised) bounds what they can see.
//!
//! # Consistency
//!
//! Reads concurrent with an in-flight attach are linearized at the
//! attach's *completion* for the index (children lists and the tip set
//! may already reflect a transaction whose id is not yet published via
//! `len`), while `len`-bounded enumeration (`iter`, weights, depths)
//! sees only fully published transactions. Both simulators only read
//! from quiescent tangles — walks happen in a read-only phase,
//! publications in a serial phase — and the equivalence tests below pin
//! sequential behaviour to [`Tangle`](crate::Tangle) exactly.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rand::Rng;

use crate::read::{TangleRead, WalkStartBand};
use crate::{TangleError, TangleSnapshot, TangleStats, Transaction, TxId};

/// Transactions per lazily-allocated segment.
const SEGMENT_SIZE: usize = 1024;
/// Fixed size of the segment directory; the capacity ceiling is
/// `SEGMENT_SIZE * MAX_SEGMENTS` = 4 194 304 transactions, far beyond
/// the 10k-client scenarios this store targets.
const MAX_SEGMENTS: usize = 4096;
/// Default number of index shards.
const DEFAULT_SHARDS: usize = 16;

/// A transaction plus its height (longest path from the genesis),
/// maintained incrementally so `stats()` needs no full-graph scan.
#[derive(Debug)]
struct StoredTx<P> {
    tx: Transaction<P>,
    height: u32,
}

/// The mutable per-shard index: children adjacency (indexed by
/// `id / shard_count`) and the shard's slice of the tip set.
#[derive(Debug, Default)]
struct ShardState {
    children: Vec<Vec<TxId>>,
    tips: HashSet<TxId>,
}

/// One lazily-allocated run of `SEGMENT_SIZE` write-once slots.
type Segment<P> = Box<[OnceLock<StoredTx<P>>]>;

/// Locks `mutex`, ignoring poison: every critical section leaves its
/// state consistent, so a panic elsewhere must not wedge the store.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An append-only DAG store sharing [`Tangle`](crate::Tangle)'s contract — dense
/// sequential ids, parents before children — but safe to read from any
/// number of threads without a global lock, and to append to through
/// `&self`.
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
    /// Published transaction count; release-stored after the slot and
    /// index updates of the newest transaction are complete.
    len: AtomicUsize,
    /// Serializes id assignment across appenders. Readers never take it.
    append: Mutex<()>,
    /// The sharded mutable index; transaction `id` maps to shard
    /// `id % shards.len()`.
    shards: Box<[Mutex<ShardState>]>,
    /// Incremental counters backing `stats()`.
    edges: AtomicUsize,
    max_height: AtomicU32,
    /// The last walk-start band computed, with the depth bounds it was
    /// asked for. Stamped with the length it was computed over and never
    /// invalidated: depths only count children below that length, so the
    /// band is a pure function of `(len, bounds)` and a stale slot is
    /// simply recomputed by the next reader.
    walk_start: Mutex<Option<(u32, u32, WalkStartBand)>>,
}

impl<P> ShardedTangle<P> {
    /// Creates a sharded tangle containing only the genesis transaction,
    /// with the default shard count.
    pub fn new(genesis_payload: P) -> Self {
        Self::with_shards(genesis_payload, DEFAULT_SHARDS)
    }

    /// Creates a sharded tangle with an explicit shard count (clamped to
    /// at least 1).
    pub fn with_shards(genesis_payload: P, shards: usize) -> Self {
        let nshards = shards.max(1);
        let this = Self {
            segments: (0..MAX_SEGMENTS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
            shards: (0..nshards)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            edges: AtomicUsize::new(0),
            max_height: AtomicU32::new(0),
            walk_start: Mutex::new(None),
        };
        this.store(
            0,
            StoredTx {
                tx: Transaction {
                    id: TxId(0),
                    parents: Vec::new(),
                    payload: genesis_payload,
                    issuer: None,
                    round: 0,
                },
                height: 0,
            },
        );
        {
            let mut shard = lock(&this.shards[0]);
            shard.children.push(Vec::new());
            shard.tips.insert(TxId(0));
        }
        this.len.store(1, Ordering::Release);
        this
    }

    /// The id of the genesis transaction.
    pub fn genesis(&self) -> TxId {
        TxId(0)
    }

    /// Number of published transactions, including the genesis.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Always `false`: a tangle contains at least the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: TxId) -> usize {
        id.0 as usize % self.shards.len()
    }

    fn slot_in_shard(&self, id: TxId) -> usize {
        id.0 as usize / self.shards.len()
    }

    /// Writes `stored` into slot `index`, allocating its segment on
    /// first touch. Panics if the slot was already written (ids are
    /// assigned once, under the append lock).
    fn store(&self, index: usize, stored: StoredTx<P>) {
        let segment = self.segments[index / SEGMENT_SIZE]
            .get_or_init(|| (0..SEGMENT_SIZE).map(|_| OnceLock::new()).collect());
        let fresh = segment[index % SEGMENT_SIZE].set(stored).is_ok();
        assert!(fresh, "transaction slot {index} written twice");
    }

    /// Reads the slot of a known-valid id.
    fn stored(&self, id: TxId) -> &StoredTx<P> {
        let index = id.0 as usize;
        self.segments[index / SEGMENT_SIZE]
            .get()
            .expect("segment of a published transaction exists")[index % SEGMENT_SIZE]
            .get()
            .expect("slot of a published transaction is initialised")
    }

    /// Attaches a new transaction approving `parents`. Takes `&self`:
    /// appenders serialize internally on the append mutex.
    ///
    /// Duplicate parent ids are collapsed, exactly as in
    /// [`Tangle::attach`](crate::Tangle::attach).
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
        if parents.is_empty() {
            return Err(TangleError::MissingParents);
        }
        let _guard = lock(&self.append);
        let len = self.len.load(Ordering::Acquire);
        // Validate fully before mutating anything: a failed attach must
        // leave no trace, like `Tangle::attach_with_meta`.
        let mut unique: Vec<TxId> = Vec::with_capacity(parents.len());
        for &p in parents {
            if p.0 as usize >= len {
                return Err(TangleError::UnknownParent(p));
            }
            if !unique.contains(&p) {
                unique.push(p);
            }
        }
        assert!(
            len < SEGMENT_SIZE * MAX_SEGMENTS,
            "sharded tangle capacity ({} transactions) exceeded",
            SEGMENT_SIZE * MAX_SEGMENTS
        );
        let id = TxId(len as u64);
        let height = 1 + unique
            .iter()
            .map(|&p| self.stored(p).height)
            .max()
            .expect("parents are non-empty");
        // Slot first: anything the index can point at must be readable.
        self.store(
            len,
            StoredTx {
                tx: Transaction {
                    id,
                    parents: unique.clone(),
                    payload,
                    issuer,
                    round,
                },
                height,
            },
        );
        for &p in &unique {
            let mut shard = lock(&self.shards[self.shard_of(p)]);
            let slot = self.slot_in_shard(p);
            shard.children[slot].push(id);
            shard.tips.remove(&p);
        }
        {
            let mut shard = lock(&self.shards[self.shard_of(id)]);
            debug_assert_eq!(shard.children.len(), self.slot_in_shard(id));
            shard.children.push(Vec::new());
            shard.tips.insert(id);
        }
        self.edges.fetch_add(unique.len(), Ordering::Relaxed);
        self.max_height.fetch_max(height, Ordering::Relaxed);
        self.len.store(len + 1, Ordering::Release);
        Ok(id)
    }

    /// Looks up a transaction by id. The returned reference is a plain
    /// `&Transaction` — slots are immutable once written, so no guard
    /// outlives the call.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn get(&self, id: TxId) -> Result<&Transaction<P>, TangleError> {
        if (id.0 as usize) < self.len() {
            Ok(&self.stored(id).tx)
        } else {
            Err(TangleError::UnknownTransaction(id))
        }
    }

    /// The direct approvers of `id`, in attachment order.
    ///
    /// # Errors
    ///
    /// Returns [`TangleError::UnknownTransaction`] for ids not in this
    /// tangle.
    pub fn children(&self, id: TxId) -> Result<Vec<TxId>, TangleError> {
        if (id.0 as usize) >= self.len() {
            return Err(TangleError::UnknownTransaction(id));
        }
        let shard = lock(&self.shards[self.shard_of(id)]);
        Ok(shard.children[self.slot_in_shard(id)].clone())
    }

    /// Whether `id` currently has no approvers.
    pub fn is_tip(&self, id: TxId) -> bool {
        if (id.0 as usize) >= self.len() {
            return false;
        }
        let shard = lock(&self.shards[self.shard_of(id)]);
        shard.tips.contains(&id)
    }

    /// All current tips, sorted by id for determinism.
    pub fn tips(&self) -> Vec<TxId> {
        let len = self.len();
        let mut tips: Vec<TxId> = Vec::new();
        for shard in self.shards.iter() {
            let shard = lock(shard);
            tips.extend(shard.tips.iter().copied().filter(|t| (t.0 as usize) < len));
        }
        tips.sort();
        tips
    }

    /// Iterator over all published transactions in insertion
    /// (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction<P>> {
        let len = self.len();
        (0..len).map(move |i| &self.stored(TxId(i as u64)).tx)
    }

    /// Structural summary statistics, computed from the incremental
    /// counters in `O(tips)` — no full-graph re-scan.
    pub fn stats(&self) -> TangleStats {
        TangleStats::from_counts(
            self.len(),
            self.tips().len(),
            self.edges.load(Ordering::Relaxed),
            self.max_height.load(Ordering::Relaxed),
        )
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
        if (id.0 as usize) >= ShardedTangle::len(self) {
            return Err(TangleError::UnknownTransaction(id));
        }
        let shard = lock(&self.shards[self.shard_of(id)]);
        out.clear();
        out.extend_from_slice(&shard.children[self.slot_in_shard(id)]);
        Ok(())
    }

    fn is_tip(&self, id: TxId) -> bool {
        ShardedTangle::is_tip(self, id)
    }

    fn tips(&self) -> Vec<TxId> {
        ShardedTangle::tips(self)
    }

    /// All walks over one unchanged tangle — the twenty of a round —
    /// share one band instead of recomputing every depth per walk. Same
    /// band, same single draw as the provided method.
    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        self.with_walk_start_band(min_depth, max_depth, |band| band.draw(rng))
    }
}

impl<P> ShardedTangle<P> {
    /// Calls `f` with the walk-start band of the current published
    /// length, computing it only if the memo slot holds another length
    /// or other bounds. The slot stays locked meanwhile, so readers
    /// arriving together wait for one computation instead of repeating
    /// it.
    fn with_walk_start_band<T>(
        &self,
        min_depth: u32,
        max_depth: u32,
        f: impl FnOnce(&WalkStartBand) -> T,
    ) -> T {
        let len = self.len();
        let mut slot = lock(&self.walk_start);
        let band = match &mut *slot {
            Some((lo, hi, band)) if (*lo, *hi, band.len) == (min_depth, max_depth, len) => band,
            // An attach may land between `len` above and the depth scan;
            // the band carries the length it really saw.
            stale => {
                let band = self.walk_start_band(min_depth, max_depth);
                &mut stale.insert((min_depth, max_depth, band)).2
            }
        };
        f(band)
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

    fn random_grow(seed: u64, n: usize, shards: usize) -> (Tangle<u64>, ShardedTangle<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plain = Tangle::new(0u64);
        let sharded = ShardedTangle::with_shards(0u64, shards);
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
            for shards in [1, 3, 16] {
                let (plain, sharded) = random_grow(seed, 200, shards);
                assert_equivalent(&plain, &sharded);
            }
        }
    }

    #[test]
    fn new_sharded_tangle_has_single_tip_genesis() {
        let t = ShardedTangle::new(());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.tips(), vec![t.genesis()]);
        assert!(t.get(t.genesis()).unwrap().is_genesis());
        assert!(t.shard_count() >= 1);
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
    fn memoised_walk_start_matches_the_sequential_oracle_as_the_tangle_grows() {
        let (lo, hi) = (3, 6);
        let mut plain = Tangle::new(0u64);
        let sharded = ShardedTangle::with_shards(0u64, 3);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut fallbacks = 0;
        for (i, parents) in deep_parents(8, 120).iter().enumerate() {
            // Several walks per length (the memo's hit path), then one
            // attach that the next walk must see (its miss path).
            for _ in 0..3 {
                let expected = plain.sample_walk_start(lo, hi, &mut rng_a);
                let got = TangleRead::sample_walk_start(&sharded, lo, hi, &mut rng_b);
                assert_eq!(expected, got, "at length {}", plain.len());
            }
            let band = sharded.with_walk_start_band(lo, hi, WalkStartBand::clone);
            assert_eq!(band.len, plain.len(), "an attach was not seen");
            fallbacks += usize::from(band.candidates.is_empty());
            // Other bounds at the same length are another band (only now
            // and then: most attaches must be noticed by length alone).
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
                            let band = t.with_walk_start_band(lo, hi, WalkStartBand::clone);
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
        let (_, sharded) = random_grow(9, 150, 4);
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
        let (plain, sharded) = random_grow(2, 120, 5);
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
        let (plain, sharded) = random_grow(5, 80, 2);
        let snapshot = sharded.snapshot();
        assert_eq!(snapshot.len(), plain.len());
        for (tx, record) in plain.iter().zip(snapshot.records()) {
            assert_eq!(&crate::SnapshotRecord::from(tx), record);
        }
    }

    #[test]
    fn walks_run_against_the_sharded_store() {
        use crate::{RandomWalker, UniformBias};
        let (plain, sharded) = random_grow(7, 60, 3);
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
