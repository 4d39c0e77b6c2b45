//! One client's view of the network: a local tangle replica fed
//! exclusively by [`GossipMessage`]s, with a solidification buffer for
//! out-of-order arrivals.
//!
//! # Memory model
//!
//! A replica splits into what every replica shares and what is its own.
//! Shared records live in one [`SegmentRegistry`]: an append-only intern
//! store of immutable [`Arc`]'d transaction records keyed by network id,
//! each holding the model parameters, issuer, round and deduplicated
//! network parents of one transaction — stored once per process, not
//! once per replica. Per-replica structure lives in a sequential
//! [`Tangle`] whose payload is the shared record: the local attachment
//! order, parents as local ids, children and tips, all of which depend
//! on the order this replica received its gossip in. Attaching a
//! transaction that any other replica already holds costs one `Arc`
//! clone, not a copy of its weights.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dagfl_tangle::{Tangle, TangleError, TangleRead, Transaction, TxId, WalkStartBand};
use rand::Rng;

use crate::metrics::{fnv_mix, payload_hashes, FNV_OFFSET};
use crate::{CoreError, Envelope, GossipMessage, ModelPayload, TxMessage};

/// The genesis always carries network id 0, in every transport.
pub const GENESIS_NET_ID: u64 = 0;

/// One immutable transaction as gossiped over the network: the unit
/// shared between replicas through the [`SegmentRegistry`].
///
/// Parents are stored as *network* ids, deduplicated but in approval
/// order — local ids differ between replicas (they depend on arrival
/// order), so they live in each replica's own [`Tangle`] instead.
#[derive(Debug)]
struct TxRecord {
    net_id: u64,
    /// Deduplicated parent network ids, in approval order. Empty only
    /// for the genesis.
    parents: Box<[u64]>,
    payload: ModelPayload,
    issuer: Option<u32>,
    round: u32,
}

/// A shared, append-only intern store of transaction records.
///
/// Cloning the registry is cheap and shares the underlying store; the
/// simulator hands one clone to every replica so that a transaction
/// gossiped to `n` clients is materialized once, not `n` times. Records
/// are immutable once interned (first writer wins — network ids are
/// unique per publication), so readers never contend beyond the brief
/// lock taken on insert. The map sits behind a mutex, not in a plain
/// field, because every replica holds a clone of it and replicas are
/// read from fan-out threads: the registry must be `Sync`.
#[derive(Debug, Clone, Default)]
pub struct SegmentRegistry {
    records: Arc<Mutex<HashMap<u64, Arc<TxRecord>>>>,
}

impl SegmentRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record map, locked. Records are only ever inserted whole, so a
    /// panic elsewhere cannot leave the map half-written: poison is
    /// ignored.
    fn records(&self) -> MutexGuard<'_, HashMap<u64, Arc<TxRecord>>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct transactions interned so far.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether no transaction has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.records().is_empty()
    }

    /// Returns the record for `net_id`, interning it from `msg` (with
    /// the given deduplicated parents) if absent.
    fn intern(&self, msg: &TxMessage, deduped_parents: &[u64]) -> Arc<TxRecord> {
        let mut records = self.records();
        Arc::clone(records.entry(msg.id).or_insert_with(|| {
            Arc::new(TxRecord {
                net_id: msg.id,
                parents: deduped_parents.into(),
                payload: ModelPayload::from_shared(msg.params.clone()),
                issuer: msg.issuer,
                round: msg.round,
            })
        }))
    }

    /// Interns a genesis payload under [`GENESIS_NET_ID`].
    fn intern_genesis(&self, genesis: ModelPayload) -> Arc<TxRecord> {
        let mut records = self.records();
        Arc::clone(records.entry(GENESIS_NET_ID).or_insert_with(|| {
            Arc::new(TxRecord {
                net_id: GENESIS_NET_ID,
                parents: Box::new([]),
                payload: genesis,
                issuer: None,
                round: 0,
            })
        }))
    }
}

/// One replica's ordered view over shared transaction records: a
/// sequential [`Tangle`] whose payload is the shared record, plus the
/// network-id → local-id map.
///
/// Local ids are the tangle's dense indices in attachment order
/// (genesis is id 0, parents always precede children), exactly the
/// contract of [`TangleRead`] — so tip selection, weights and metrics
/// run on a replica view unchanged. The tangle holds the local
/// structure (parents as local ids, children, tips); the transactions
/// are attached without metadata, since issuer, round and network
/// parents are read from the record.
#[derive(Debug, Clone)]
pub struct ReplicaTangle {
    tangle: Tangle<Arc<TxRecord>>,
    /// Network id → local id.
    to_local: HashMap<u64, TxId>,
}

impl ReplicaTangle {
    fn new(genesis: Arc<TxRecord>) -> Self {
        let to_local = HashMap::from([(genesis.net_id, TxId::from_index(0))]);
        Self {
            tangle: Tangle::new(genesis),
            to_local,
        }
    }

    fn record(&self, id: TxId) -> Result<&Arc<TxRecord>, TangleError> {
        self.tangle.payload_of(id)
    }

    /// The shared records in local attachment order.
    fn records(&self) -> impl Iterator<Item = &Arc<TxRecord>> {
        self.tangle.iter().map(Transaction::payload)
    }

    /// Number of transactions, including the genesis.
    pub fn len(&self) -> usize {
        self.tangle.len()
    }

    /// Always `false`: a replica is born holding the genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The local id of the genesis transaction.
    pub fn genesis(&self) -> TxId {
        self.tangle.genesis()
    }
}

impl TangleRead<ModelPayload> for ReplicaTangle {
    fn len(&self) -> usize {
        self.tangle.len()
    }

    fn payload_of(&self, id: TxId) -> Result<&ModelPayload, TangleError> {
        Ok(&self.record(id)?.payload)
    }

    fn issuer_of(&self, id: TxId) -> Result<Option<u32>, TangleError> {
        Ok(self.record(id)?.issuer)
    }

    fn round_of(&self, id: TxId) -> Result<u32, TangleError> {
        Ok(self.record(id)?.round)
    }

    fn parents_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
        self.tangle.parents_into(id, out)
    }

    fn children_into(&self, id: TxId, out: &mut Vec<TxId>) -> Result<(), TangleError> {
        self.tangle.children_into(id, out)
    }

    fn is_tip(&self, id: TxId) -> bool {
        self.tangle.is_tip(id)
    }

    fn tips(&self) -> Vec<TxId> {
        self.tangle.tips()
    }

    fn capped_depths(&self) -> Vec<u32> {
        self.tangle.capped_depths().to_vec()
    }

    fn walk_start_band(&self, min_depth: u32, max_depth: u32) -> WalkStartBand {
        self.tangle.walk_start_band(min_depth, max_depth)
    }

    fn sample_walk_start<R: Rng>(&self, min_depth: u32, max_depth: u32, rng: &mut R) -> TxId {
        self.tangle.sample_walk_start(min_depth, max_depth, rng)
    }
}

/// A client's tangle replica plus the id maps linking local ids to
/// network ids.
///
/// All mutation goes through messages: the owner inserts its own
/// publications with [`Replica::insert`] and everything received from
/// the transport with [`Replica::apply`]. A transaction whose parents
/// are still unknown waits in the solidification buffer and attaches
/// automatically once they arrive — in a gossip network nothing
/// guarantees causal delivery order.
///
/// Transaction contents live in a [`SegmentRegistry`]; construct
/// replicas with [`Replica::with_registry`] to share one store across a
/// whole simulated network ([`Replica::new`] gives the replica a
/// private store, which is what a real networked peer wants).
///
/// # Example
///
/// ```
/// use dagfl_core::{ModelPayload, Replica, TxMessage};
/// use std::sync::Arc;
///
/// let mut replica = Replica::new(ModelPayload::new(vec![0.0]));
/// let msg = TxMessage {
///     id: 7,
///     parents: vec![0],
///     params: Arc::new(vec![1.0]),
///     issuer: Some(2),
///     round: 1,
/// };
/// replica.insert(&msg).unwrap();
/// assert!(replica.contains(7));
/// assert_eq!(replica.tangle().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Replica {
    view: ReplicaTangle,
    registry: SegmentRegistry,
    /// Received but not yet solid: `(arrival time, message)`.
    buffered: Vec<(f64, TxMessage)>,
}

impl Replica {
    /// Creates a replica holding only the genesis (network id 0), with
    /// a private record store.
    pub fn new(genesis: ModelPayload) -> Self {
        Self::with_registry(genesis, SegmentRegistry::new())
    }

    /// Creates a replica holding only the genesis, interned into (and
    /// sharing records with) the given registry.
    pub fn with_registry(genesis: ModelPayload, registry: SegmentRegistry) -> Self {
        let record = registry.intern_genesis(genesis);
        Self {
            view: ReplicaTangle::new(record),
            registry,
            buffered: Vec::new(),
        }
    }

    /// The local tangle view.
    pub fn tangle(&self) -> &ReplicaTangle {
        &self.view
    }

    /// Whether a transaction with this network id has been attached.
    pub fn contains(&self, net_id: u64) -> bool {
        self.view.to_local.contains_key(&net_id)
    }

    /// The local id of a network id, if attached.
    pub fn local_id(&self, net_id: u64) -> Option<TxId> {
        self.view.to_local.get(&net_id).copied()
    }

    /// The network id of a local transaction.
    pub fn network_id(&self, local: TxId) -> Option<u64> {
        self.view.record(local).ok().map(|record| record.net_id)
    }

    /// All known network ids in local attachment order (starts with
    /// the genesis).
    pub fn network_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.view.records().map(|record| record.net_id)
    }

    /// Messages waiting in the solidification buffer.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Buffered messages that a later delivery can still attach: those
    /// whose missing parents lead, through other buffered messages, to
    /// an id that is neither attached nor buffered. The rest wait only
    /// on each other (a cycle such as A → B → A, or a descendant of
    /// one), so no frame can ever solidify them.
    pub fn waiting(&self) -> usize {
        let ids: HashSet<u64> = self.buffered.iter().map(|(_, m)| m.id).collect();
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut live: HashSet<u64> = HashSet::new();
        let mut queue = Vec::new();
        for (_, msg) in &self.buffered {
            for &parent in &msg.parents {
                if ids.contains(&parent) {
                    children.entry(parent).or_default().push(msg.id);
                } else if !self.contains(parent) && live.insert(msg.id) {
                    queue.push(msg.id);
                }
            }
        }
        while let Some(id) = queue.pop() {
            for &child in children.get(&id).into_iter().flatten() {
                if live.insert(child) {
                    queue.push(child);
                }
            }
        }
        self.buffered
            .iter()
            .filter(|(_, m)| live.contains(&m.id))
            .count()
    }

    /// Attaches one transaction whose parents are all known. This is
    /// how a peer records its *own* publication; received messages go
    /// through [`Replica::apply`] instead. Re-inserting a known id is
    /// a no-op returning the existing local id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if a parent is unknown (the
    /// message belongs in the solidification buffer, not here).
    pub fn insert(&mut self, msg: &TxMessage) -> Result<TxId, CoreError> {
        if let Some(&existing) = self.view.to_local.get(&msg.id) {
            return Ok(existing);
        }
        if msg.parents.is_empty() {
            return Err(TangleError::MissingParents.into());
        }
        // Validate and dedup (preserving order) before interning, so a
        // record always stores resolvable, duplicate-free parents.
        let mut deduped: Vec<u64> = Vec::with_capacity(msg.parents.len());
        let mut local_parents = Vec::with_capacity(msg.parents.len());
        for p in &msg.parents {
            let Some(&local) = self.view.to_local.get(p) else {
                return Err(CoreError::Config(format!(
                    "transaction {} references unknown parent {p}",
                    msg.id
                )));
            };
            if !deduped.contains(p) {
                deduped.push(*p);
                local_parents.push(local);
            }
        }
        let record = self.registry.intern(msg, &deduped);
        let local = self.view.tangle.attach(record, &local_parents)?;
        self.view.to_local.insert(msg.id, local);
        Ok(local)
    }

    fn is_solid(&self, msg: &TxMessage) -> bool {
        msg.parents
            .iter()
            .all(|p| self.view.to_local.contains_key(p))
    }

    /// Applies delivered envelopes: merges them with the
    /// solidification buffer, orders everything by `(arrival time,
    /// network id)` for determinism, attaches every message whose
    /// parents are known (repeating until a fixpoint, since one
    /// attachment can solidify others) and buffers the rest. Duplicate
    /// deliveries of known transactions are dropped, and so are
    /// transactions that can never attach: one with no parents, or one
    /// that lists itself as a parent. Returns the number of
    /// transactions attached.
    pub fn apply(&mut self, incoming: Vec<Envelope>) -> usize {
        let mut due = std::mem::take(&mut self.buffered);
        for envelope in incoming {
            let at = envelope.at;
            match envelope.message {
                GossipMessage::Transaction(msg) => due.push((at, msg)),
                GossipMessage::Snapshot(batch) => due.extend(batch.into_iter().map(|m| (at, m))),
            }
        }
        due.retain(|(_, msg)| !msg.parents.is_empty() && !msg.parents.contains(&msg.id));
        if due.is_empty() {
            return 0;
        }
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
        let mut attached = 0;
        loop {
            let mut progressed = false;
            due.retain(|(_, msg)| {
                if self.contains(msg.id) {
                    return false; // duplicate (e.g. snapshot overlap)
                }
                if self.is_solid(msg) {
                    self.insert(msg).expect("solid message attaches");
                    attached += 1;
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if !progressed {
                break;
            }
        }
        // Not yet solid: wait for the parents to arrive.
        self.buffered = due;
        attached
    }

    /// How many deliveries would *not* attach right now: envelopes
    /// still in flight (`at > now`), plus due and buffered messages
    /// whose parents are neither attached nor deliverable.
    pub fn backlog(&self, in_flight: &[Envelope], now: f64) -> usize {
        let future = in_flight.iter().filter(|e| e.at > now).count();
        let mut known: HashSet<u64> = self.view.to_local.keys().copied().collect();
        let mut due: Vec<(u64, &[u64])> = self
            .buffered
            .iter()
            .map(|(_, m)| (m.id, m.parents.as_slice()))
            .collect();
        for envelope in in_flight.iter().filter(|e| e.at <= now) {
            match &envelope.message {
                GossipMessage::Transaction(m) => due.push((m.id, &m.parents)),
                GossipMessage::Snapshot(batch) => {
                    due.extend(batch.iter().map(|m| (m.id, m.parents.as_slice())));
                }
            }
        }
        loop {
            let before = due.len();
            due.retain(|(id, parents)| {
                let solid = parents.iter().all(|p| known.contains(p));
                if solid {
                    known.insert(*id);
                }
                !solid
            });
            if due.len() == before {
                break;
            }
        }
        future + due.len()
    }

    /// The transactions a peer that already holds `have` is missing,
    /// in topological order — the answer to a snapshot request. The
    /// genesis is never included (every replica is born with it).
    pub fn snapshot_messages(&self, have: &HashSet<u64>) -> Vec<TxMessage> {
        self.view
            .records()
            .filter_map(|record| {
                if record.parents.is_empty() || have.contains(&record.net_id) {
                    return None;
                }
                Some(TxMessage {
                    id: record.net_id,
                    parents: record.parents.to_vec(),
                    params: record.payload.share(),
                    issuer: record.issuer,
                    round: record.round,
                })
            })
            .collect()
    }

    /// An order-independent digest of the replica's contents (ids,
    /// approvals, weights, metadata). Two replicas hold the same
    /// transaction set exactly when their digests match, up to hash
    /// collisions — the convergence check of the networked mode.
    ///
    /// Each record is one FNV-1a chain over its network id, parent
    /// count, parents, weights hash, issuer and round; the chains are
    /// summed with wrapping addition. The weights hashes are those
    /// [`tangle_digest`](crate::tangle_digest) uses, in jobs sized by
    /// weight volume that fan out over the cores when there are several.
    pub fn digest(&self) -> u64 {
        let payloads: Vec<&ModelPayload> = self.view.records().map(|r| &r.payload).collect();
        let mut total: u64 = 0;
        for (record, weights) in self.view.records().zip(payload_hashes(&payloads)) {
            let mut h = FNV_OFFSET;
            fnv_mix(&mut h, record.net_id);
            fnv_mix(&mut h, record.parents.len() as u64);
            for &p in record.parents.iter() {
                fnv_mix(&mut h, p);
            }
            fnv_mix(&mut h, weights);
            fnv_mix(&mut h, record.issuer.map_or(u64::MAX, u64::from));
            fnv_mix(&mut h, u64::from(record.round));
            total = total.wrapping_add(h);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn msg(id: u64, parents: &[u64]) -> TxMessage {
        TxMessage {
            id,
            parents: parents.to_vec(),
            params: Arc::new(vec![id as f32, 0.5]),
            issuer: Some((id % 4) as u32),
            round: id as u32,
        }
    }

    fn envelope(at: f64, m: TxMessage) -> Envelope {
        Envelope {
            at,
            message: GossipMessage::Transaction(m),
        }
    }

    fn fresh() -> Replica {
        Replica::new(ModelPayload::new(vec![0.0, 0.0]))
    }

    #[test]
    fn new_replica_holds_only_genesis() {
        let r = fresh();
        assert_eq!(r.tangle().len(), 1);
        assert!(r.contains(GENESIS_NET_ID));
        assert!(r.network_ids().eq([GENESIS_NET_ID]));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn insert_translates_parents_and_records_maps() {
        let mut r = fresh();
        let local = r.insert(&msg(5, &[0])).unwrap();
        assert_eq!(r.local_id(5), Some(local));
        assert_eq!(r.network_id(local), Some(5));
        let child = r.insert(&msg(9, &[5, 0])).unwrap();
        assert_eq!(r.tangle().parents_of(child).unwrap().len(), 2);
    }

    #[test]
    fn insert_rejects_unknown_parent() {
        let mut r = fresh();
        let err = r.insert(&msg(5, &[3])).unwrap_err();
        assert!(err.to_string().contains("unknown parent"));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut r = fresh();
        let a = r.insert(&msg(5, &[0])).unwrap();
        let b = r.insert(&msg(5, &[0])).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.tangle().len(), 2);
    }

    #[test]
    fn out_of_order_child_waits_then_attaches() {
        // Satellite: a child delivered before its parent sits in the
        // solidification buffer, then attaches when the parent lands.
        let mut r = fresh();
        let attached = r.apply(vec![envelope(1.0, msg(7, &[5]))]);
        assert_eq!(attached, 0);
        assert_eq!(r.buffered(), 1);
        assert!(!r.contains(7));
        let attached = r.apply(vec![envelope(2.0, msg(5, &[0]))]);
        assert_eq!(attached, 2, "parent arrival must solidify the child");
        assert_eq!(r.buffered(), 0);
        assert!(r.contains(5) && r.contains(7));
        // Parent precedes child in the local order.
        assert!(r.local_id(5).unwrap() < r.local_id(7).unwrap());
    }

    #[test]
    fn a_gossip_cycle_is_buffered_but_not_waiting() {
        let mut r = fresh();
        // 1 and 2 name each other; 9 is the child of an unseen 8.
        r.apply(vec![
            envelope(0.0, msg(1, &[2])),
            envelope(0.0, msg(2, &[1])),
            envelope(0.0, msg(9, &[8])),
        ]);
        assert_eq!(r.buffered(), 3);
        assert_eq!(r.waiting(), 1);
        // A child of the cycle waits on nothing a frame can bring.
        r.apply(vec![envelope(1.0, msg(3, &[0, 1]))]);
        assert_eq!((r.buffered(), r.waiting()), (4, 1));
        // A grandchild of the unseen parent waits through its parent.
        r.apply(vec![envelope(1.0, msg(10, &[9]))]);
        assert_eq!((r.buffered(), r.waiting()), (5, 2));
        r.apply(vec![envelope(2.0, msg(8, &[0]))]);
        assert_eq!((r.buffered(), r.waiting()), (3, 0));
    }

    #[test]
    fn apply_drops_transactions_that_can_never_attach() {
        let mut r = fresh();
        // No parents: `insert` rejects it, so it must not count as solid.
        // A self-parent never solidifies and would stay buffered forever.
        let attached = r.apply(vec![
            envelope(0.0, msg(1, &[])),
            envelope(0.0, msg(2, &[2])),
            envelope(0.0, msg(3, &[0, 3])),
            envelope(1.0, msg(4, &[0])),
        ]);
        assert_eq!(attached, 1);
        assert!(r.contains(4));
        assert!(!r.contains(1) && !r.contains(2) && !r.contains(3));
        assert_eq!(r.buffered(), 0);
        // The same hostile transactions inside a snapshot.
        let attached = r.apply(vec![Envelope {
            at: 2.0,
            message: GossipMessage::Snapshot(vec![msg(5, &[]), msg(6, &[6, 4]), msg(7, &[4])]),
        }]);
        assert_eq!(attached, 1);
        assert!(r.contains(7));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn apply_orders_by_arrival_time_then_id() {
        let mut a = fresh();
        a.apply(vec![
            envelope(2.0, msg(5, &[0])),
            envelope(1.0, msg(6, &[0])),
        ]);
        assert!(a.local_id(6).unwrap() < a.local_id(5).unwrap());

        let mut b = fresh();
        b.apply(vec![
            envelope(1.0, msg(5, &[0])),
            envelope(1.0, msg(6, &[0])),
        ]);
        assert!(b.local_id(5).unwrap() < b.local_id(6).unwrap());
    }

    #[test]
    fn duplicate_deliveries_are_dropped() {
        let mut r = fresh();
        r.apply(vec![envelope(1.0, msg(5, &[0]))]);
        let attached = r.apply(vec![envelope(2.0, msg(5, &[0]))]);
        assert_eq!(attached, 0);
        assert_eq!(r.tangle().len(), 2);
    }

    #[test]
    fn backlog_counts_future_and_unsolid() {
        let mut r = fresh();
        r.apply(vec![envelope(1.0, msg(9, &[5]))]); // buffered, parent missing
        let in_flight = [
            envelope(10.0, msg(5, &[0])), // future: would solidify 9
            envelope(1.5, msg(11, &[9])), // due but chain not solid
        ];
        assert_eq!(r.backlog(&in_flight, 2.0), 3);
        // Once 5 is due, the whole chain becomes deliverable.
        assert_eq!(r.backlog(&in_flight, 10.0), 0);
        assert_eq!(r.backlog(&[], 0.0), 1, "buffered child alone");
    }

    #[test]
    fn snapshot_messages_exclude_genesis_and_known() {
        let mut r = fresh();
        r.insert(&msg(5, &[0])).unwrap();
        r.insert(&msg(9, &[5])).unwrap();
        let all = r.snapshot_messages(&HashSet::new());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, 5);
        assert_eq!(all[1].id, 9);
        assert_eq!(all[1].parents, vec![5]);
        let have: HashSet<u64> = [5u64].into_iter().collect();
        let missing = r.snapshot_messages(&have);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].id, 9);
    }

    #[test]
    fn late_join_snapshot_equals_replayed_gossip() {
        // Satellite: a replica synced from a snapshot must equal one
        // built from the original gossip stream, message by message.
        let stream = [
            msg(5, &[0]),
            msg(6, &[0, 5]),
            msg(9, &[6, 5]),
            msg(12, &[9, 9]),
        ];
        let mut replayed = fresh();
        for (i, m) in stream.iter().enumerate() {
            replayed.apply(vec![envelope(i as f64, m.clone())]);
        }
        let mut synced = fresh();
        let batch = replayed.snapshot_messages(&HashSet::new());
        synced.apply(vec![Envelope {
            at: 0.0,
            message: GossipMessage::Snapshot(batch),
        }]);
        assert_eq!(synced.tangle().len(), replayed.tangle().len());
        assert_eq!(synced.digest(), replayed.digest());
        assert!(synced.network_ids().eq(replayed.network_ids()));
        assert_eq!(synced.tangle().edges(), replayed.tangle().edges());
    }

    #[test]
    fn digest_is_order_independent_but_content_sensitive() {
        let mut a = fresh();
        a.insert(&msg(5, &[0])).unwrap();
        a.insert(&msg(6, &[0])).unwrap();
        let mut b = fresh();
        b.insert(&msg(6, &[0])).unwrap();
        b.insert(&msg(5, &[0])).unwrap();
        assert_eq!(a.digest(), b.digest(), "same set, different order");

        let mut c = fresh();
        c.insert(&msg(5, &[0])).unwrap();
        assert_ne!(a.digest(), c.digest(), "different sets must differ");
    }

    /// The serial form of [`Replica::digest`]: the oracle its fan-out
    /// must match bit for bit.
    fn serial_digest(replica: &Replica) -> u64 {
        let mut total: u64 = 0;
        for record in replica.view.records() {
            let mut h = FNV_OFFSET;
            fnv_mix(&mut h, record.net_id);
            fnv_mix(&mut h, record.parents.len() as u64);
            for &p in record.parents.iter() {
                fnv_mix(&mut h, p);
            }
            let weights = crate::metrics::tests::serial_weights_hash(record.payload.params());
            fnv_mix(&mut h, weights);
            fnv_mix(&mut h, record.issuer.map_or(u64::MAX, u64::from));
            fnv_mix(&mut h, u64::from(record.round));
            total = total.wrapping_add(h);
        }
        total
    }

    #[test]
    fn digest_matches_the_byte_serial_form() {
        use crate::fanout::tests::with_workers;
        use crate::metrics::tests::{assert_jobs, one_and_multi_job_lengths};
        // Payloads that fill one fan-out job, then several.
        for (lengths, multi) in one_and_multi_job_lengths().iter().zip([false, true]) {
            let mut r = fresh();
            for (id, &len) in (1u64..).zip(lengths) {
                r.insert(&TxMessage {
                    params: Arc::new(
                        (0..len as u64)
                            .map(|j| (id * 1000 + j) as f32 * 0.37)
                            .collect(),
                    ),
                    ..msg(id, &[id / 2, id - 1])
                })
                .unwrap();
            }
            let payloads: Vec<&ModelPayload> =
                r.view.records().map(|record| &record.payload).collect();
            assert_jobs(&payloads, multi);
            let serial = serial_digest(&r);
            for workers in [1, 2, 3] {
                assert_eq!(
                    with_workers(workers, || r.digest()),
                    serial,
                    "{} records, {workers} workers",
                    payloads.len()
                );
            }
        }
    }

    #[test]
    fn shared_registry_interns_each_transaction_once() {
        // Satellite: two replicas on one registry share records — the
        // second attachment is an `Arc` clone, not a new allocation.
        let registry = SegmentRegistry::new();
        let genesis = ModelPayload::new(vec![0.0, 0.0]);
        let mut a = Replica::with_registry(genesis.clone(), registry.clone());
        let mut b = Replica::with_registry(genesis, registry.clone());
        a.insert(&msg(5, &[0])).unwrap();
        a.insert(&msg(9, &[5])).unwrap();
        b.apply(vec![
            envelope(0.5, msg(9, &[5])),
            envelope(1.0, msg(5, &[0])),
        ]);
        assert_eq!(registry.len(), 3, "genesis + two transactions, once each");
        assert_eq!(a.digest(), b.digest());
        let ra = a.view.record(a.local_id(9).unwrap()).unwrap();
        let rb = b.view.record(b.local_id(9).unwrap()).unwrap();
        assert!(Arc::ptr_eq(ra, rb), "replicas must share the record");
    }

    #[test]
    fn replica_view_implements_tangle_read() {
        let mut r = fresh();
        r.insert(&msg(5, &[0])).unwrap();
        r.insert(&msg(9, &[5, 0])).unwrap();
        let t = r.tangle();
        assert_eq!(TangleRead::len(t), 3);
        assert_eq!(t.issuer_of(TxId::from_index(1)).unwrap(), Some(1));
        assert_eq!(t.round_of(TxId::from_index(2)).unwrap(), 9);
        assert_eq!(
            t.payload_of(TxId::from_index(1)).unwrap().params(),
            &[5.0, 0.5]
        );
        assert_eq!(
            t.parents_of(TxId::from_index(2)).unwrap(),
            vec![TxId::from_index(1), TxId::from_index(0)]
        );
        assert_eq!(
            t.children_of(TxId::from_index(0)).unwrap(),
            vec![TxId::from_index(1), TxId::from_index(2)]
        );
        assert!(t.is_tip(TxId::from_index(2)) && !t.is_tip(TxId::from_index(1)));
        assert_eq!(TangleRead::tips(t), vec![TxId::from_index(2)]);
        assert!(t.payload_of(TxId::from_index(7)).is_err());
        assert!(!t.is_empty());
        assert_eq!(t.genesis(), TxId::from_index(0));
    }
}
