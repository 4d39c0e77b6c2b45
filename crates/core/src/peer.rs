//! The networked peer session: one DAG-FL client speaking the real
//! [`TcpTransport`] instead of the simulator's loopback.
//!
//! A peer session is the event loop behind `dagfl peer`:
//!
//! 1. bind a gossip listener, register with the [`Tracker`] and dial
//!    every peer the tracker already knows;
//! 2. request a tangle snapshot from each of them (a late joiner is
//!    just a peer whose snapshots are non-trivial);
//! 3. repeatedly train on the local shard against the local
//!    [`Replica`], publish improved models as gossip, and apply
//!    whatever arrives;
//! 4. after the last local publication, announce `Done` and linger —
//!    still serving snapshots and applying gossip — until every peer
//!    of the session has announced `Done` and the link has settled.
//!
//! Every peer prints the same order-independent digest of its replica
//! at exit, so a harness (the CI `network-smoke` job) can assert that
//! the session converged to one transaction set.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_datasets::FederatedDataset;

use crate::wire::WireMessage;
use crate::{
    derive_seed, have_set, tracker_join, tracker_leave, ControlEvent, CoreError, DagClient,
    DagConfig, GossipMessage, ModelFactory, ModelPayload, Replica, TcpTransport, Transport,
    TxMessage, WireError,
};

/// RNG stream id of the peer's gossip fan-out sampling (see
/// [`derive_seed`]); kept separate from training and fault streams.
const GOSSIP_STREAM: u64 = 0x605_51b;

/// First retry delay after a dropped connection; doubles per failed
/// attempt up to [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling of the reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Configuration of one networked peer session.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This peer's client id (also selects its dataset shard).
    pub client: u32,
    /// Total peers expected in the session (the session ends when this
    /// many distinct clients have announced `Done`).
    pub peers: usize,
    /// Gossip listen address (use port 0 for an ephemeral port).
    pub listen: String,
    /// Tracker address to register with.
    pub tracker: String,
    /// Training activations to run before announcing `Done`.
    pub activations: usize,
    /// Wall-clock pause between consecutive activations.
    pub interarrival: Duration,
    /// Training settings and tip selection (shared by all peers; the
    /// seed also derives the shared genesis model).
    pub dag: DagConfig,
    /// How long the session must stay quiet (no new gossip) after
    /// everyone is done before the peer exits.
    pub settle: Duration,
    /// Abort the session with an error after this much wall-clock time
    /// (a crashed peer would otherwise hang everyone forever).
    pub timeout: Duration,
    /// Re-dial dropped connections with exponential backoff, looking
    /// the peer's current address up at the tracker each attempt (so a
    /// peer that restarted on a new port is found) and requesting a
    /// snapshot delta to catch up on anything missed while the link
    /// was down.
    pub reconnect: bool,
    /// Gossip each publication to this many randomly sampled live
    /// connections instead of all of them (`0` = full broadcast).
    /// `Done` announcements and snapshot replies always go to
    /// everyone.
    pub fanout: usize,
}

impl Default for PeerConfig {
    fn default() -> Self {
        Self {
            client: 0,
            peers: 1,
            listen: "127.0.0.1:0".to_string(),
            tracker: "127.0.0.1:7878".to_string(),
            activations: 4,
            interarrival: Duration::from_millis(50),
            dag: DagConfig::default(),
            settle: Duration::from_millis(300),
            timeout: Duration::from_secs(120),
            reconnect: false,
            fanout: 0,
        }
    }
}

/// What one peer session observed, for convergence checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerReport {
    /// This peer's client id.
    pub client: u32,
    /// Training activations completed.
    pub activations: usize,
    /// Transactions this peer published.
    pub published: usize,
    /// Transactions received from the network (gossip + snapshots).
    pub received: usize,
    /// Transactions in the final replica, including the genesis.
    pub transactions: usize,
    /// Order-independent digest of the final replica; equal digests
    /// mean equal transaction sets.
    pub digest: u64,
    /// Distinct clients seen to announce `Done` (including this one).
    pub peers_done: usize,
    /// Envelopes the transport handed to this peer.
    pub delivered: usize,
    /// Sends that failed on a dead connection.
    pub dropped: usize,
    /// Connections successfully re-established after a drop.
    pub reconnects: usize,
}

/// Network ids must be unique without coordination, so each peer owns
/// a disjoint range: the client id in the high bits, a local sequence
/// number in the low bits. (The loopback transport instead uses dense
/// global-tangle indices; both leave 0 for the genesis.)
fn net_id(client: u32, seq: u64) -> u64 {
    ((u64::from(client) + 1) << 40) | seq
}

/// The next unused sequence number in this client's id range, derived
/// from the replica rather than a counter: a peer that crashed and
/// rejoined recovers its pre-crash publications through the snapshot
/// delta, and must resume *after* them — reusing a sequence number
/// would collide with a different transaction of the same id and
/// silently diverge the session.
fn next_own_seq(replica: &Replica, client: u32) -> u64 {
    let range = u64::from(client) + 1;
    replica
        .network_ids()
        .filter(|&id| id >> 40 == range)
        .map(|id| id & ((1u64 << 40) - 1))
        .max()
        .map_or(1, |seq| seq + 1)
}

/// Picks the gossip receivers for one publication: all live
/// connections when `fanout` is 0 (or not smaller than the live
/// count), otherwise a partial Fisher–Yates sample of `fanout` of
/// them from the peer's dedicated gossip RNG stream.
fn gossip_targets(mut live: Vec<usize>, fanout: usize, rng: &mut StdRng) -> Vec<usize> {
    if fanout == 0 || fanout >= live.len() {
        return live;
    }
    for i in 0..fanout {
        let j = rng.gen_range(i..live.len());
        live.swap(i, j);
    }
    live.truncate(fanout);
    live
}

/// Per-peer reconnect bookkeeping: when to try next, and how long to
/// wait after another failure.
struct Backoff {
    next: Instant,
    delay: Duration,
}

impl Backoff {
    fn new() -> Self {
        Self {
            next: Instant::now() + BASE_BACKOFF,
            delay: BASE_BACKOFF,
        }
    }

    fn failed(&mut self) {
        self.delay = (self.delay * 2).min(MAX_BACKOFF);
        self.next = Instant::now() + self.delay;
    }
}

/// One reconnect attempt: look the target up at the tracker (its
/// address may have changed across a restart; re-joining is idempotent
/// for us), dial it, and request the snapshot delta of everything we
/// missed while the link was down.
fn try_reconnect(
    transport: &mut TcpTransport,
    config: &PeerConfig,
    listen_addr: &str,
    target: u32,
    replica: &Replica,
) -> Result<(), CoreError> {
    let known = tracker_join(&config.tracker, config.client, listen_addr)?;
    let peer = known
        .iter()
        .find(|p| p.client == target)
        .ok_or_else(|| WireError::Io(format!("peer {target} is not registered")))?;
    let conn = transport.connect(&peer.addr).map_err(WireError::from)?;
    transport
        .send_to_conn(
            conn,
            &WireMessage::SnapshotRequest {
                have: replica.network_ids().collect(),
            },
        )
        .map_err(CoreError::from)?;
    Ok(())
}

/// Runs one peer session to completion (see the module docs for the
/// protocol). The dataset is the *whole* federated dataset — the peer
/// trains on shard `config.client % dataset.num_clients()` — and the
/// factory plus `config.dag.seed` reproduce the same genesis model on
/// every peer, which is what makes the replicas compatible.
///
/// # Errors
///
/// Returns [`CoreError::Network`] for socket/tracker failures,
/// [`CoreError::Config`] on timeout, and propagates training errors.
pub fn run_peer(
    config: &PeerConfig,
    dataset: &FederatedDataset,
    factory: &ModelFactory,
) -> Result<PeerReport, CoreError> {
    if dataset.num_clients() == 0 {
        return Err(CoreError::invalid_field(
            "dataset.num_clients",
            0,
            "dataset has no clients",
        ));
    }
    config.dag.validate()?;
    // The first factory call on the session seed is the genesis every
    // peer shares; the second is the scratch model the client trains in.
    let mut rng = StdRng::seed_from_u64(config.dag.seed ^ 0xA57C);
    let genesis = ModelPayload::new(factory(&mut rng).parameters());
    let model = factory(&mut rng);
    let shard = &dataset.clients()[config.client as usize % dataset.num_clients()];
    let mut client = DagClient::new(
        config.client,
        model,
        config.dag.seed.wrapping_add(u64::from(config.client)),
    );
    let mut replica = Replica::new(genesis);

    let mut transport =
        TcpTransport::bind(&config.listen, config.client).map_err(WireError::from)?;
    let listen_addr = transport.local_addr().to_string();
    let known = tracker_join(&config.tracker, config.client, &listen_addr)?;
    // Dial everyone already registered and ask each for a snapshot: a
    // late joiner catches up on everything published before it
    // existed; publications after the dial arrive as live gossip.
    for peer in &known {
        match transport.connect(&peer.addr) {
            Ok(conn) => {
                let _ = transport.send_to_conn(
                    conn,
                    &WireMessage::SnapshotRequest {
                        have: replica.network_ids().collect(),
                    },
                );
            }
            Err(_) => {
                // A stale registration (the peer died); the Done
                // accounting below still needs its announcement, so a
                // vanished peer eventually times the session out —
                // which is the honest outcome.
            }
        }
    }

    let started = Instant::now();
    let mut done: HashSet<u32> = HashSet::new();
    let mut activations = 0usize;
    let mut published = 0usize;
    let mut received = 0usize;
    let mut gossip_rng = StdRng::seed_from_u64(derive_seed(
        config.dag.seed ^ u64::from(config.client),
        GOSSIP_STREAM,
    ));
    let mut reconnects: HashMap<u32, Backoff> = HashMap::new();
    let mut next_activation = Instant::now();
    let mut settle_until: Option<Instant> = None;
    loop {
        if started.elapsed() > config.timeout {
            let _ = tracker_leave(&config.tracker, config.client);
            return Err(CoreError::Config(format!(
                "peer {} timed out after {:?} ({}/{} peers done)",
                config.client,
                config.timeout,
                done.len(),
                config.peers
            )));
        }
        let mut activity = false;
        for event in transport.take_control() {
            match event {
                ControlEvent::Hello { conn, client } => {
                    activity = true;
                    // The peer found its own way back; stop redialing.
                    reconnects.remove(&client);
                    // A later joiner missed our earlier Done broadcast;
                    // re-announcing is idempotent (Done is a set).
                    if done.contains(&config.client) {
                        let _ = transport.send_to_conn(
                            conn,
                            &WireMessage::Done {
                                client: config.client,
                            },
                        );
                    }
                }
                ControlEvent::SnapshotRequest { conn, have } => {
                    activity = true;
                    let transactions = replica.snapshot_messages(&have_set(&have));
                    let _ = transport.send_to_conn(conn, &WireMessage::Snapshot { transactions });
                }
                ControlEvent::Done { client } => {
                    activity = true;
                    done.insert(client);
                }
                ControlEvent::Disconnected { client, .. } => {
                    if config.reconnect {
                        if let Some(client) = client {
                            reconnects.entry(client).or_insert_with(Backoff::new);
                        }
                    }
                }
            }
        }
        // Reconnect-with-backoff: a failed attempt is not activity (it
        // must not hold the settle grace open forever against a peer
        // that is gone for good), a successful one is.
        let due: Vec<u32> = reconnects
            .iter()
            .filter(|(_, b)| Instant::now() >= b.next)
            .map(|(&client, _)| client)
            .collect();
        for target in due {
            match try_reconnect(&mut transport, config, &listen_addr, target, &replica) {
                Ok(()) => {
                    reconnects.remove(&target);
                    transport.note_reconnect();
                    activity = true;
                }
                Err(_) => {
                    if let Some(b) = reconnects.get_mut(&target) {
                        b.failed();
                    }
                }
            }
        }
        let incoming = transport.receive(0, 0.0);
        if !incoming.is_empty() {
            activity = true;
            received += incoming
                .iter()
                .map(|e| match &e.message {
                    GossipMessage::Transaction(_) => 1,
                    GossipMessage::Snapshot(batch) => batch.len(),
                })
                .sum::<usize>();
            replica.apply(incoming);
        }
        if activations < config.activations && Instant::now() >= next_activation {
            activity = true;
            next_activation = Instant::now() + config.interarrival;
            let outcome = client.train_round(replica.tangle(), shard, &config.dag)?;
            activations += 1;
            if let Some(params) = outcome.published {
                let net_parents = vec![
                    replica
                        .network_id(outcome.parents.0)
                        .expect("selected tip is in the replica"),
                    replica
                        .network_id(outcome.parents.1)
                        .expect("selected tip is in the replica"),
                ];
                let seq = next_own_seq(&replica, config.client);
                let message = TxMessage {
                    id: net_id(config.client, seq),
                    parents: net_parents,
                    params: Arc::new(params),
                    issuer: Some(config.client),
                    round: activations as u32,
                };
                replica.insert(&message)?;
                published += 1;
                let targets =
                    gossip_targets(transport.live_connections(), config.fanout, &mut gossip_rng);
                transport.send_to_conns(&targets, &WireMessage::Transaction(message));
            }
            if activations == config.activations {
                transport.broadcast_wire(&WireMessage::Done {
                    client: config.client,
                });
                done.insert(config.client);
            }
        }
        let finished = activations >= config.activations
            && done.len() >= config.peers
            && replica.waiting() == 0;
        if finished {
            // Stay up through a quiet period: peers may still be
            // fetching our transactions, and stragglers may still be
            // in flight to us. Any activity re-arms the timer.
            match settle_until {
                Some(at) if !activity && Instant::now() >= at => break,
                Some(_) if activity => {
                    settle_until = Some(Instant::now() + config.settle);
                }
                Some(_) => {}
                None => settle_until = Some(Instant::now() + config.settle),
            }
        } else {
            settle_until = None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = tracker_leave(&config.tracker, config.client);
    let stats = transport.stats();
    Ok(PeerReport {
        client: config.client,
        activations,
        published,
        received,
        transactions: replica.tangle().len(),
        digest: replica.digest(),
        peers_done: done.len(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        reconnects: stats.reconnects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracker;
    use dagfl_datasets::{fmnist_clustered, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use std::thread;

    fn session_task(num_clients: usize) -> (FederatedDataset, ModelFactory) {
        let dataset = fmnist_clustered(&FmnistConfig {
            num_clients,
            samples_per_client: 30,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 8)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 8, 10)),
            ])) as Box<dyn Model>
        });
        (dataset, factory)
    }

    fn peer_config(client: u32, peers: usize, tracker: &str) -> PeerConfig {
        PeerConfig {
            client,
            peers,
            listen: "127.0.0.1:0".to_string(),
            tracker: tracker.to_string(),
            activations: 3,
            interarrival: Duration::from_millis(10),
            dag: DagConfig {
                local_batches: 2,
                ..DagConfig::default()
            },
            settle: Duration::from_millis(200),
            timeout: Duration::from_secs(60),
            reconnect: false,
            fanout: 0,
        }
    }

    /// Three peers (one joining late, synced via snapshot) converge to
    /// the same transaction set — the in-process version of the CI
    /// `network-smoke` job.
    #[test]
    fn three_peers_converge_including_a_late_joiner() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let tracker_addr = tracker.local_addr().unwrap().to_string();
        let tracker_handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(3)).unwrap())
        };
        let (dataset, factory) = session_task(3);
        let mut handles = Vec::new();
        for client in 0..3u32 {
            let config = peer_config(client, 3, &tracker_addr);
            let dataset = dataset.clone();
            let factory = Arc::clone(&factory);
            handles.push(thread::spawn(move || {
                if client == 2 {
                    // The late joiner: by now the others have likely
                    // published; it must catch up via snapshot sync.
                    thread::sleep(Duration::from_millis(150));
                }
                run_peer(&config, &dataset, &factory).unwrap()
            }));
        }
        let reports: Vec<PeerReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let summary = tracker_handle.join().unwrap();
        assert_eq!(summary.joined, 3);
        assert_eq!(summary.left, 3);
        let total_published: usize = reports.iter().map(|r| r.published).sum();
        assert!(total_published > 0, "nobody published anything");
        for r in &reports {
            assert_eq!(r.peers_done, 3, "peer {} missed a Done", r.client);
            assert_eq!(
                r.transactions,
                total_published + 1,
                "peer {} did not converge",
                r.client
            );
        }
        let digest = reports[0].digest;
        for r in &reports[1..] {
            assert_eq!(r.digest, digest, "peer {} diverged", r.client);
        }
    }

    #[test]
    fn net_ids_are_disjoint_across_clients_and_never_genesis() {
        assert_ne!(net_id(0, 1), crate::GENESIS_NET_ID);
        assert_ne!(net_id(0, 1), net_id(1, 1));
        // 2^40 sequence numbers per client before ranges could touch.
        assert!(net_id(0, (1 << 40) - 1) < net_id(1, 0));
    }

    #[test]
    fn next_own_seq_resumes_after_recovered_publications() {
        let (dataset, factory) = session_task(3);
        let _ = dataset;
        let mut rng = StdRng::seed_from_u64(1);
        let genesis = ModelPayload::new(factory(&mut rng).parameters());
        let mut replica = Replica::new(genesis);
        assert_eq!(next_own_seq(&replica, 3), 1, "fresh replica starts at 1");
        // The replica holds this client's own pre-crash publications
        // (recovered via snapshot) plus another client's.
        for (client, seq) in [(3u32, 1u64), (3, 2), (5, 9)] {
            replica
                .insert(&TxMessage {
                    id: net_id(client, seq),
                    parents: vec![0],
                    params: Arc::new(vec![0.0]),
                    issuer: Some(client),
                    round: 0,
                })
                .unwrap();
        }
        assert_eq!(next_own_seq(&replica, 3), 3, "resumes after own max");
        assert_eq!(next_own_seq(&replica, 5), 10);
        assert_eq!(next_own_seq(&replica, 0), 1, "other ranges don't bleed");
    }

    #[test]
    fn gossip_targets_sample_exactly_fanout_connections() {
        let mut rng = StdRng::seed_from_u64(7);
        let live = vec![0, 1, 2, 3, 4];
        assert_eq!(gossip_targets(live.clone(), 0, &mut rng), live);
        assert_eq!(gossip_targets(live.clone(), 5, &mut rng), live);
        assert_eq!(gossip_targets(live.clone(), 99, &mut rng), live);
        let picked = gossip_targets(live.clone(), 2, &mut rng);
        assert_eq!(picked.len(), 2);
        let distinct: HashSet<usize> = picked.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "no duplicate targets");
        assert!(picked.iter().all(|c| live.contains(c)));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut b = Backoff::new();
        assert_eq!(b.delay, BASE_BACKOFF);
        for _ in 0..12 {
            b.failed();
        }
        assert_eq!(b.delay, MAX_BACKOFF);
        assert!(b.next > Instant::now());
    }

    /// A one-peer session is its own Done quorum: it publishes, waits
    /// out the settle grace, and exits cleanly — the smallest exercise
    /// of the quorum/settle exit path.
    #[test]
    fn single_peer_session_satisfies_its_own_quorum() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let tracker_addr = tracker.local_addr().unwrap().to_string();
        let tracker_handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(1)).unwrap())
        };
        let (dataset, factory) = session_task(3);
        let config = PeerConfig {
            settle: Duration::from_millis(50),
            ..peer_config(0, 1, &tracker_addr)
        };
        let report = run_peer(&config, &dataset, &factory).unwrap();
        tracker_handle.join().unwrap();
        assert_eq!(report.peers_done, 1);
        assert_eq!(report.activations, config.activations);
        assert_eq!(report.received, 0, "nobody to gossip with");
        assert_eq!(report.reconnects, 0);
    }

    /// A session whose quorum never completes must exit through the
    /// timeout guard, not hang.
    #[test]
    fn missing_peer_times_the_session_out() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let tracker_addr = tracker.local_addr().unwrap().to_string();
        {
            let mut tracker = tracker;
            // Detached: the expectation never completes, the thread
            // dies with the test process.
            thread::spawn(move || {
                let _ = tracker.run(Some(99));
            });
        }
        let (dataset, factory) = session_task(3);
        let config = PeerConfig {
            timeout: Duration::from_millis(700),
            settle: Duration::from_millis(50),
            ..peer_config(0, 2, &tracker_addr)
        };
        let err = run_peer(&config, &dataset, &factory).unwrap_err();
        assert!(
            matches!(err, CoreError::Config(ref msg) if msg.contains("timed out")),
            "{err}"
        );
    }

    #[test]
    fn peer_without_tracker_errors_instead_of_hanging() {
        let (dataset, factory) = session_task(3);
        // Nothing listens on this port (bound but never accepted-from
        // would hang; a closed port errors immediately).
        let config = PeerConfig {
            tracker: "127.0.0.1:1".to_string(),
            ..peer_config(0, 2, "127.0.0.1:1")
        };
        let err = run_peer(&config, &dataset, &factory).unwrap_err();
        assert!(matches!(err, CoreError::Network(_)), "{err}");
    }
}
