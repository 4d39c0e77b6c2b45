//! The transport seam: every inter-client effect travels as an
//! explicit [`GossipMessage`] through the [`Transport`] trait.
//!
//! The asynchronous simulator and the networked peer share one message
//! flow: a publication becomes a [`TxMessage`] (network id, parent
//! ids, `Arc`-shared weights, metadata), the transport delivers it to
//! every peer as an [`Envelope`] stamped with the arrival time, and
//! each [`Replica`](crate::Replica) attaches what is solid and buffers
//! the rest. Two implementations exist:
//!
//! * [`LoopbackTransport`] — in-process, deterministic. Per-link
//!   delays are drawn from the caller's RNG through the configured
//!   [`DelayModel`] in ascending peer order, which reproduces the
//!   exact RNG stream of the pre-transport simulator: simulations are
//!   bit-identical to the direct-mutation implementation it replaced.
//! * [`TcpTransport`](crate::TcpTransport) — real sockets with the
//!   length-prefixed wire format of [`crate::wire`], used by
//!   `dagfl peer`.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::{CoreError, DelayModel};

/// A model-update transaction in transit: the network representation
/// of one tangle attachment.
///
/// Network ids are transport-scoped: the loopback transport uses the
/// dense index of the simulator's global tangle, TCP peers derive ids
/// from `(issuer, sequence)` so ids never collide without
/// coordination. Id `0` is always the genesis, which every replica
/// holds from construction and which is never gossiped.
#[derive(Debug, Clone, PartialEq)]
pub struct TxMessage {
    /// Network id of this transaction.
    pub id: u64,
    /// Network ids of the approved transactions (1–2 entries;
    /// duplicates allowed, the tangle collapses them).
    pub parents: Vec<u64>,
    /// The flat model weights, shared — broadcasting to `n` peers
    /// costs `n` pointers, not `n` weight copies.
    pub params: Arc<Vec<f32>>,
    /// The publishing client.
    pub issuer: Option<u32>,
    /// The round (logical publish time) recorded with the transaction.
    pub round: u32,
}

/// What peers exchange: individual transactions, or a batch of them
/// when a late joiner catches up from a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMessage {
    /// One freshly published transaction.
    Transaction(TxMessage),
    /// A topologically ordered batch answering a snapshot request.
    Snapshot(Vec<TxMessage>),
}

/// A message en route to (or arrived at) one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Logical arrival time at the receiver.
    pub at: f64,
    /// The delivered message.
    pub message: GossipMessage,
}

/// Delivery accounting of a transport: latency of scheduled links plus
/// the fault/health counters a chaos harness asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportStats {
    /// Sum of all sampled per-link delays.
    pub latency_sum: f64,
    /// Number of per-link deliveries scheduled.
    pub latency_count: usize,
    /// Largest sampled per-link delay.
    pub latency_max: f64,
    /// Envelopes actually handed to a receiver.
    pub delivered: usize,
    /// Envelopes discarded before delivery (injected drops, crashed
    /// endpoints, dead sockets).
    pub dropped: usize,
    /// Extra copies created by duplication faults.
    pub duplicated: usize,
    /// Successful connection re-establishments (networked mode only).
    pub reconnects: usize,
}

impl TransportStats {
    /// Records one per-link delay.
    pub fn record(&mut self, delay: f64) {
        self.latency_sum += delay;
        self.latency_count += 1;
        if delay > self.latency_max {
            self.latency_max = delay;
        }
    }

    /// Mean per-link delay (`0.0` before any delivery).
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count > 0 {
            self.latency_sum / self.latency_count as f64
        } else {
            0.0
        }
    }

    /// `true` when any fault counter is non-zero — the gate for the
    /// extra report line, so fault-free runs print byte-identically.
    pub fn has_faults(&self) -> bool {
        self.dropped > 0 || self.duplicated > 0 || self.reconnects > 0
    }
}

/// Moves gossip messages between peers.
///
/// The contract: [`Transport::broadcast`] schedules one delivery per
/// peer other than the sender; [`Transport::receive`] hands a peer
/// every envelope whose arrival time has passed, at most once, in
/// scheduling order. Implementations decide what "time" means — the
/// loopback uses the simulator's logical clock, TCP uses the wall
/// clock of the receiving process.
pub trait Transport {
    /// Number of peers this transport connects (including the sender).
    fn num_peers(&self) -> usize;

    /// Sends `message` from peer `from` to every other peer. The RNG
    /// is the caller's event-loop RNG so deterministic transports can
    /// sample link delays from the single seeded stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when a message cannot be handed to the
    /// network (e.g. a broken socket).
    fn broadcast(
        &mut self,
        from: usize,
        now: f64,
        message: GossipMessage,
        rng: &mut StdRng,
    ) -> Result<(), CoreError>;

    /// Removes and returns every envelope for `peer` whose arrival
    /// time is `<= now`.
    fn receive(&mut self, peer: usize, now: f64) -> Vec<Envelope>;

    /// Envelopes addressed to `peer` that have not been received yet
    /// (empty for transports that cannot observe the network).
    fn in_flight(&self, peer: usize) -> &[Envelope];

    /// Latency accounting so far.
    fn stats(&self) -> TransportStats;
}

/// The in-process transport: per-peer inboxes with per-link delays
/// drawn from a [`DelayModel`].
///
/// # Example
///
/// ```
/// use dagfl_core::{DelayModel, GossipMessage, LoopbackTransport, Transport, TxMessage};
/// use rand::{rngs::StdRng, SeedableRng};
/// use std::sync::Arc;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut transport = LoopbackTransport::new(DelayModel::constant(1.0), vec![false; 3]);
/// let msg = GossipMessage::Transaction(TxMessage {
///     id: 1,
///     parents: vec![0],
///     params: Arc::new(vec![0.5]),
///     issuer: Some(0),
///     round: 0,
/// });
/// transport.broadcast(0, 0.0, msg, &mut rng).unwrap();
/// assert!(transport.receive(1, 0.5).is_empty()); // still in flight
/// assert_eq!(transport.receive(1, 1.0).len(), 1);
/// ```
#[derive(Debug)]
pub struct LoopbackTransport {
    delay: DelayModel,
    slow_cohort: Vec<bool>,
    inboxes: Vec<Vec<Envelope>>,
    stats: TransportStats,
    fanout: usize,
}

impl LoopbackTransport {
    /// Creates a loopback network of `slow_cohort.len()` peers with
    /// the given per-link delay model and per-peer cohort flags.
    pub fn new(delay: DelayModel, slow_cohort: Vec<bool>) -> Self {
        let n = slow_cohort.len();
        Self {
            delay,
            slow_cohort,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            stats: TransportStats::default(),
            fanout: 0,
        }
    }

    /// Restricts each broadcast to a deterministic random sample of
    /// `fanout` receivers (builder style). `0` — or any value at least
    /// the peer count minus one — keeps full broadcast, and in that
    /// case the RNG stream is untouched: fanout-free simulations stay
    /// bit-identical.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }
}

/// The receivers of a broadcast from peer `from` of `peers`, in ascending
/// order. With fanout active this consumes `fanout` draws from `rng` (a
/// partial Fisher–Yates over the other peers); otherwise it is everyone
/// but the sender with zero draws.
///
/// The shuffle runs over a *virtual* array of the other peers — slot `k`
/// holds `k`, stepping over `from` — and stores only the slots a swap
/// displaced, so sampling costs O(fanout) whatever the peer count. The
/// draws, their order and the resulting set are those of the shuffle over
/// the materialised array.
fn sample_receivers(peers: usize, from: usize, fanout: usize, rng: &mut StdRng) -> Vec<usize> {
    let others = peers - usize::from(from < peers);
    let peer_at = |slot: usize| slot + usize::from(slot >= from);
    if fanout == 0 || fanout >= others {
        return (0..others).map(peer_at).collect();
    }
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(fanout);
    let mut picked = Vec::with_capacity(fanout);
    for i in 0..fanout {
        let j = rng.gen_range(i..others);
        // swap(i, j), keeping only what a later step can still read:
        // slot `i` is final, slot `j` now holds what slot `i` held.
        let at_i = displaced.get(&i).copied().unwrap_or(i);
        let at_j = displaced.insert(j, at_i).unwrap_or(j);
        picked.push(peer_at(at_j));
    }
    picked.sort_unstable();
    picked
}

impl Transport for LoopbackTransport {
    fn num_peers(&self) -> usize {
        self.inboxes.len()
    }

    fn broadcast(
        &mut self,
        from: usize,
        now: f64,
        message: GossipMessage,
        rng: &mut StdRng,
    ) -> Result<(), CoreError> {
        let publisher_slow = self.slow_cohort[from];
        // Ascending peer order: the delay samples consume the caller's
        // RNG in a fixed, documented sequence — this is what keeps
        // whole-simulation determinism across refactors. (Fanout
        // sampling, when active, draws first, then delays follow in
        // the same ascending order over the selected subset.)
        for peer in sample_receivers(self.inboxes.len(), from, self.fanout, rng) {
            let delay = self
                .delay
                .sample(publisher_slow, self.slow_cohort[peer], rng);
            self.stats.record(delay);
            self.inboxes[peer].push(Envelope {
                at: now + delay,
                message: message.clone(),
            });
        }
        Ok(())
    }

    fn receive(&mut self, peer: usize, now: f64) -> Vec<Envelope> {
        let inbox = std::mem::take(&mut self.inboxes[peer]);
        let (due, keep): (Vec<Envelope>, Vec<Envelope>) =
            inbox.into_iter().partition(|e| e.at <= now);
        self.inboxes[peer] = keep;
        self.stats.delivered += due.len();
        due
    }

    fn in_flight(&self, peer: usize) -> &[Envelope] {
        &self.inboxes[peer]
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tx(id: u64, parents: &[u64]) -> GossipMessage {
        GossipMessage::Transaction(TxMessage {
            id,
            parents: parents.to_vec(),
            params: Arc::new(vec![id as f32]),
            issuer: Some(0),
            round: 0,
        })
    }

    /// The sampler `sample_receivers` replaced: a partial Fisher–Yates
    /// over the materialised array of other peers.
    fn dense_receivers(peers: usize, from: usize, fanout: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut others: Vec<usize> = (0..peers).filter(|&p| p != from).collect();
        if fanout == 0 || fanout >= others.len() {
            return others;
        }
        for i in 0..fanout {
            let j = rng.gen_range(i..others.len());
            others.swap(i, j);
        }
        others.truncate(fanout);
        others.sort_unstable();
        others
    }

    #[test]
    fn sparse_sampling_matches_the_dense_shuffle() {
        for seed in 0..8 {
            for peers in [1usize, 2, 3, 5, 9, 40, 257] {
                for fanout in [0, 1, 2, 3, 8, peers.saturating_sub(2), peers - 1, peers] {
                    for from in [0, peers / 2, peers - 1] {
                        let mut sparse_rng = StdRng::seed_from_u64(seed);
                        let mut dense_rng = StdRng::seed_from_u64(seed);
                        // Several broadcasts in a row: the streams must
                        // stay aligned, not just the first sample.
                        for _ in 0..3 {
                            assert_eq!(
                                sample_receivers(peers, from, fanout, &mut sparse_rng),
                                dense_receivers(peers, from, fanout, &mut dense_rng),
                                "seed {seed}, {peers} peers, fanout {fanout}, from {from}"
                            );
                        }
                        assert_eq!(sparse_rng.gen::<u64>(), dense_rng.gen::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_skips_the_sender() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = LoopbackTransport::new(DelayModel::constant(0.0), vec![false; 3]);
        t.broadcast(1, 0.0, tx(1, &[0]), &mut rng).unwrap();
        assert!(t.receive(1, 10.0).is_empty());
        assert_eq!(t.receive(0, 10.0).len(), 1);
        assert_eq!(t.receive(2, 10.0).len(), 1);
        assert_eq!(t.num_peers(), 3);
    }

    #[test]
    fn receive_honours_arrival_times_and_is_once_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = LoopbackTransport::new(DelayModel::constant(2.0), vec![false; 2]);
        t.broadcast(0, 1.0, tx(1, &[0]), &mut rng).unwrap();
        assert_eq!(t.in_flight(1).len(), 1);
        assert!(t.receive(1, 2.9).is_empty());
        let due = t.receive(1, 3.0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, 3.0);
        assert!(t.receive(1, 100.0).is_empty(), "delivery must be once-only");
        assert!(t.in_flight(1).is_empty());
    }

    #[test]
    fn stats_track_every_link() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = LoopbackTransport::new(DelayModel::constant(1.5), vec![false; 4]);
        t.broadcast(0, 0.0, tx(1, &[0]), &mut rng).unwrap();
        let s = t.stats();
        assert_eq!(s.latency_count, 3);
        assert_eq!(s.mean_latency(), 1.5);
        assert_eq!(s.latency_max, 1.5);
    }

    #[test]
    fn cohort_delays_differ_per_link() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DelayModel::Cohorts {
            slow_fraction: 0.5,
            fast: 1.0,
            slow: 9.0,
            jitter: 0.0,
        };
        let mut t = LoopbackTransport::new(model, vec![false, false, true]);
        t.broadcast(0, 0.0, tx(1, &[0]), &mut rng).unwrap();
        assert_eq!(t.in_flight(1)[0].at, 1.0, "fast link");
        assert_eq!(t.in_flight(2)[0].at, 9.0, "slow link");
    }

    #[test]
    fn stats_default_mean_is_zero() {
        assert_eq!(TransportStats::default().mean_latency(), 0.0);
        assert!(!TransportStats::default().has_faults());
    }

    #[test]
    fn receive_counts_deliveries() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = LoopbackTransport::new(DelayModel::constant(0.0), vec![false; 3]);
        t.broadcast(0, 0.0, tx(1, &[0]), &mut rng).unwrap();
        t.receive(1, 1.0);
        t.receive(2, 1.0);
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn fanout_limits_receivers_and_is_seed_deterministic() {
        let deliveries = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t =
                LoopbackTransport::new(DelayModel::constant(0.0), vec![false; 6]).with_fanout(2);
            t.broadcast(0, 0.0, tx(1, &[0]), &mut rng).unwrap();
            (0..6).filter(|&p| !t.receive(p, 10.0).is_empty()).collect()
        };
        let reached = deliveries(9);
        assert_eq!(reached.len(), 2, "fanout 2 must reach exactly 2 peers");
        assert!(!reached.contains(&0), "the sender never receives");
        assert_eq!(reached, deliveries(9), "same seed, same sample");
    }

    #[test]
    fn saturating_fanout_is_full_broadcast_with_identical_rng_stream() {
        let run = |fanout: usize| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut t = LoopbackTransport::new(
                DelayModel::UniformJitter {
                    base: 1.0,
                    jitter: 0.5,
                },
                vec![false; 4],
            )
            .with_fanout(fanout);
            t.broadcast(0, 0.0, tx(1, &[0]), &mut rng).unwrap();
            (1..4).map(|p| t.in_flight(p)[0].at).collect::<Vec<f64>>()
        };
        // fanout >= n-1 must not consume sampling draws: the delay
        // sequence matches full broadcast exactly.
        assert_eq!(run(0), run(3));
        assert_eq!(run(0), run(99));
    }
}
