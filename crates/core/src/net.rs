//! Real networking for the transport seam: a std-only [`TcpTransport`]
//! for gossip between peers, and the [`Tracker`] bootstrap service.
//!
//! Frames on every socket use the versioned wire format of
//! [`crate::wire`]. Each gossip connection starts with a
//! [`WireMessage::Hello`] identifying the caller; a late joiner then
//! sends a [`WireMessage::SnapshotRequest`] listing what it already
//! holds and receives the missing transactions in one
//! [`WireMessage::Snapshot`] batch. The tracker speaks a one-shot
//! request/response protocol: `Join` → `PeerList`, or `Leave`.
//!
//! Threading model: one detached accept thread per transport, one
//! detached reader thread per connection. Readers push decoded frames
//! into an in-process channel; all decoding results are consumed — and
//! all writes happen — on the owner's thread, so the event loop stays
//! single-threaded like the simulator's.

use std::collections::HashSet;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use rand::rngs::StdRng;

use crate::wire::{encode, read_message, write_message};
use crate::{
    CoreError, Envelope, GossipMessage, PeerInfo, Transport, TransportStats, WireError, WireMessage,
};

/// One established gossip connection (the write half; the read half
/// lives in the reader thread).
struct PeerConn {
    stream: TcpStream,
    client: Option<u32>,
    alive: bool,
}

/// What reader threads push to the owning thread.
enum NetEvent {
    Message { conn: usize, msg: WireMessage },
    Closed { conn: usize },
}

/// Connection-level happenings a peer's event loop must react to
/// (everything that is not a gossiped transaction).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A peer introduced itself on connection `conn`.
    Hello {
        /// Index of the connection.
        conn: usize,
        /// The remote peer's client id.
        client: u32,
    },
    /// The remote end of `conn` asks for everything not in `have`.
    SnapshotRequest {
        /// Index of the connection.
        conn: usize,
        /// Network ids the requester already holds.
        have: Vec<u64>,
    },
    /// A peer announced it has published its final transaction.
    Done {
        /// The finished peer's client id.
        client: u32,
    },
    /// A connection dropped (its peer exited or the link died).
    Disconnected {
        /// Index of the connection.
        conn: usize,
        /// The remote client id, if it ever said hello.
        client: Option<u32>,
    },
}

/// A gossip endpoint: listens for inbound peers, dials outbound ones,
/// and moves [`GossipMessage`]s as length-prefixed wire frames.
///
/// Unlike [`LoopbackTransport`](crate::LoopbackTransport) this
/// transport connects exactly one local client to the network, so the
/// peer indices of the [`Transport`] methods are ignored: `broadcast`
/// sends to every live connection and `receive` returns whatever has
/// arrived for the local client.
pub struct TcpTransport {
    client: u32,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<PeerConn>>>,
    events_rx: Receiver<NetEvent>,
    events_tx: Sender<NetEvent>,
    gossip: Vec<GossipMessage>,
    control: Vec<ControlEvent>,
    stats: TransportStats,
}

impl TcpTransport {
    /// Binds the gossip listener (use port 0 for an ephemeral port)
    /// and starts accepting inbound connections.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(listen: &str, client: u32) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<PeerConn>>> = Arc::new(Mutex::new(Vec::new()));
        let (events_tx, events_rx) = mpsc::channel();
        {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let events_tx = events_tx.clone();
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let _ = register(&conns, &events_tx, stream);
                        }
                        Err(_) => break,
                    }
                }
            });
        }
        Ok(Self {
            client,
            local_addr,
            shutdown,
            conns,
            events_rx,
            events_tx,
            gossip: Vec::new(),
            control: Vec::new(),
            stats: TransportStats::default(),
        })
    }

    /// The local client id.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// The address the gossip listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Dials a peer, introduces the local client with a `Hello`, and
    /// returns the connection index.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from connect.
    pub fn connect(&mut self, addr: &str) -> io::Result<usize> {
        let stream = TcpStream::connect(addr)?;
        let conn = register(&self.conns, &self.events_tx, stream)
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.send_to_conn(
            conn,
            &WireMessage::Hello {
                client: self.client,
            },
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(conn)
    }

    /// Writes one frame on one connection.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] if the connection is gone.
    pub fn send_to_conn(&mut self, conn: usize, message: &WireMessage) -> Result<(), WireError> {
        let frame = encode(message);
        match self.write_frame(&frame, Some(&[conn])) {
            (1, _) => Ok(()),
            (_, Some(error)) => Err(error.into()),
            _ => Err(WireError::Io(format!("connection {conn} is closed"))),
        }
    }

    /// Writes one frame on each live connection in `conns`, encoding it
    /// once whatever their number; returns how many received it.
    /// Closed connections are skipped; write failures are handled as
    /// in [`TcpTransport::broadcast_wire`].
    pub fn send_to_conns(&mut self, conns: &[usize], message: &WireMessage) -> usize {
        let frame = encode(message);
        self.write_frame(&frame, Some(conns)).0
    }

    /// Writes one frame on every live connection; returns how many
    /// received it. Write failures mark the connection dead instead of
    /// erroring — a departed peer must not abort the survivors — and
    /// count as dropped deliveries in [`Transport::stats`].
    pub fn broadcast_wire(&mut self, message: &WireMessage) -> usize {
        let frame = encode(message);
        self.write_frame(&frame, None).0
    }

    /// The one place frames meet sockets: writes an encoded `frame` on
    /// every live connection among `targets` (all of them for `None`)
    /// under one hold of the `conns` lock. A failed write marks its
    /// connection dead and counts as a dropped delivery. Returns how
    /// many connections received the frame and the last write error.
    fn write_frame(
        &mut self,
        frame: &[u8],
        targets: Option<&[usize]>,
    ) -> (usize, Option<io::Error>) {
        let (mut sent, mut error) = (0, None);
        let mut conns = lock(&self.conns);
        let mut write = |peer: &mut PeerConn| match peer
            .stream
            .write_all(frame)
            .and_then(|()| peer.stream.flush())
        {
            Ok(()) => sent += 1,
            Err(e) => {
                peer.alive = false;
                self.stats.dropped += 1;
                error = Some(e);
            }
        };
        match targets {
            Some(targets) => {
                for &conn in targets {
                    if let Some(peer) = conns.get_mut(conn).filter(|p| p.alive) {
                        write(peer);
                    }
                }
            }
            None => conns.iter_mut().filter(|p| p.alive).for_each(write),
        }
        (sent, error)
    }

    /// The client ids of every live connection that has said hello.
    pub fn connected_clients(&self) -> Vec<u32> {
        lock(&self.conns)
            .iter()
            .filter(|p| p.alive)
            .filter_map(|p| p.client)
            .collect()
    }

    /// Indices of every live connection, for callers that address
    /// peers individually (partial-fanout gossip).
    pub fn live_connections(&self) -> Vec<usize> {
        lock(&self.conns)
            .iter()
            .enumerate()
            .filter(|(_, p)| p.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Records one successful connection re-establishment in
    /// [`Transport::stats`].
    pub fn note_reconnect(&mut self) {
        self.stats.reconnects += 1;
    }

    /// Drains connection-level events (polls the reader threads
    /// first). Gossip payloads stay queued for [`Transport::receive`].
    pub fn take_control(&mut self) -> Vec<ControlEvent> {
        self.poll();
        std::mem::take(&mut self.control)
    }

    /// Moves everything the reader threads decoded since the last poll
    /// into the gossip/control queues.
    fn poll(&mut self) {
        while let Ok(event) = self.events_rx.try_recv() {
            match event {
                NetEvent::Message { conn, msg } => match msg {
                    WireMessage::Transaction(tx) => {
                        self.gossip.push(GossipMessage::Transaction(tx));
                    }
                    WireMessage::Snapshot { transactions } => {
                        self.gossip.push(GossipMessage::Snapshot(transactions));
                    }
                    WireMessage::Hello { client } => {
                        if let Some(peer) = lock(&self.conns).get_mut(conn) {
                            peer.client = Some(client);
                        }
                        self.control.push(ControlEvent::Hello { conn, client });
                    }
                    WireMessage::SnapshotRequest { have } => {
                        self.control
                            .push(ControlEvent::SnapshotRequest { conn, have });
                    }
                    WireMessage::Done { client } => {
                        self.control.push(ControlEvent::Done { client });
                    }
                    // Tracker-protocol frames have no business on a
                    // gossip connection; drop them.
                    WireMessage::Join { .. }
                    | WireMessage::PeerList { .. }
                    | WireMessage::Leave { .. } => {}
                },
                NetEvent::Closed { conn } => {
                    let client = {
                        let mut conns = lock(&self.conns);
                        conns.get_mut(conn).and_then(|p| {
                            p.alive = false;
                            p.client
                        })
                    };
                    self.control
                        .push(ControlEvent::Disconnected { conn, client });
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn num_peers(&self) -> usize {
        lock(&self.conns).iter().filter(|p| p.alive).count() + 1
    }

    fn broadcast(
        &mut self,
        _from: usize,
        _now: f64,
        message: GossipMessage,
        _rng: &mut StdRng,
    ) -> Result<(), CoreError> {
        let wire = match message {
            GossipMessage::Transaction(tx) => WireMessage::Transaction(tx),
            GossipMessage::Snapshot(transactions) => WireMessage::Snapshot { transactions },
        };
        self.broadcast_wire(&wire);
        Ok(())
    }

    fn receive(&mut self, _peer: usize, now: f64) -> Vec<Envelope> {
        self.poll();
        let out: Vec<Envelope> = self
            .gossip
            .drain(..)
            .map(|message| Envelope { at: now, message })
            .collect();
        self.stats.delivered += out.len();
        out
    }

    fn in_flight(&self, _peer: usize) -> &[Envelope] {
        // Messages on the network are invisible until they arrive.
        &[]
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept thread with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        for peer in lock(&self.conns).iter() {
            let _ = peer.stream.shutdown(Shutdown::Both);
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("client", &self.client)
            .field("local_addr", &self.local_addr)
            .field("connections", &lock(&self.conns).len())
            .finish()
    }
}

/// Registers a stream: stores the write half, spawns the reader thread
/// on the read half, returns the connection index.
fn register(
    conns: &Arc<Mutex<Vec<PeerConn>>>,
    events_tx: &Sender<NetEvent>,
    stream: TcpStream,
) -> io::Result<usize> {
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let conn = {
        let mut guard = lock(conns);
        guard.push(PeerConn {
            stream,
            client: None,
            alive: true,
        });
        guard.len() - 1
    };
    let events_tx = events_tx.clone();
    thread::spawn(move || loop {
        match read_message(&mut reader) {
            Ok(msg) => {
                if events_tx.send(NetEvent::Message { conn, msg }).is_err() {
                    break;
                }
            }
            Err(_) => {
                let _ = events_tx.send(NetEvent::Closed { conn });
                break;
            }
        }
    });
    Ok(conn)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What a tracker run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerSummary {
    /// Join requests served.
    pub joined: usize,
    /// Leave notices received.
    pub left: usize,
}

/// The bootstrap/discovery service of the networked mode.
///
/// Peers `Join` with their gossip address and get back the
/// [`PeerInfo`] list of everyone already registered; on exit they send
/// `Leave`. The tracker never touches model data — discovery only.
///
/// # Example
///
/// ```no_run
/// use dagfl_core::Tracker;
///
/// let mut tracker = Tracker::bind("127.0.0.1:7878").unwrap();
/// // Serve until 3 peers have joined and left again.
/// let summary = tracker.run(Some(3)).unwrap();
/// assert_eq!(summary.left, 3);
/// ```
#[derive(Debug)]
pub struct Tracker {
    listener: TcpListener,
    peers: Vec<PeerInfo>,
    joined: usize,
    left: usize,
}

impl Tracker {
    /// Binds the tracker listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            peers: Vec::new(),
            joined: 0,
            left: 0,
        })
    }

    /// The address the tracker is bound to.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The currently registered peers.
    pub fn peers(&self) -> &[PeerInfo] {
        &self.peers
    }

    /// Serves requests until `expect` peers have joined *and* left
    /// (forever when `None`).
    ///
    /// # Errors
    ///
    /// Propagates accept errors; malformed requests are dropped
    /// silently (a misbehaving peer must not kill discovery).
    pub fn run(&mut self, expect: Option<usize>) -> io::Result<TrackerSummary> {
        loop {
            let (stream, _) = self.listener.accept()?;
            self.serve_one(stream);
            if let Some(n) = expect {
                if self.joined >= n && self.left >= n {
                    return Ok(TrackerSummary {
                        joined: self.joined,
                        left: self.left,
                    });
                }
            }
        }
    }

    /// Handles one request/response exchange.
    fn serve_one(&mut self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        match read_message(&mut stream) {
            Ok(WireMessage::Join { client, addr }) => {
                // Answer with everyone *else*, then register the joiner
                // (replacing a stale registration of the same client).
                let peers: Vec<PeerInfo> = self
                    .peers
                    .iter()
                    .filter(|p| p.client != client)
                    .cloned()
                    .collect();
                if write_message(&mut stream, &WireMessage::PeerList { peers }).is_ok() {
                    self.peers.retain(|p| p.client != client);
                    self.peers.push(PeerInfo { client, addr });
                    self.joined += 1;
                }
            }
            Ok(WireMessage::Leave { client }) => {
                self.peers.retain(|p| p.client != client);
                self.left += 1;
            }
            _ => {}
        }
    }
}

/// Registers with a tracker and returns the already-known peers.
///
/// # Errors
///
/// Returns [`WireError`] on socket failure or an unexpected reply.
pub fn tracker_join(tracker: &str, client: u32, listen: &str) -> Result<Vec<PeerInfo>, WireError> {
    let mut stream = TcpStream::connect(tracker).map_err(WireError::from)?;
    write_message(
        &mut stream,
        &WireMessage::Join {
            client,
            addr: listen.to_string(),
        },
    )?;
    match read_message(&mut stream)? {
        WireMessage::PeerList { peers } => Ok(peers),
        _ => Err(WireError::Malformed("tracker did not answer with PeerList")),
    }
}

/// Notifies a tracker that a peer is gone (best effort).
///
/// # Errors
///
/// Returns [`WireError`] on socket failure.
pub fn tracker_leave(tracker: &str, client: u32) -> Result<(), WireError> {
    let mut stream = TcpStream::connect(tracker).map_err(WireError::from)?;
    write_message(&mut stream, &WireMessage::Leave { client })
}

/// The set of network ids a replica holds, in `SnapshotRequest` form.
pub fn have_set(ids: &[u64]) -> HashSet<u64> {
    ids.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxMessage;
    use rand::SeedableRng;
    use std::sync::Arc as StdArc;

    fn wait_for<F: FnMut() -> bool>(mut f: F, what: &str) {
        for _ in 0..400 {
            if f() {
                return;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn hello_and_gossip_flow_between_two_transports() {
        let mut a = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
        let mut b = TcpTransport::bind("127.0.0.1:0", 1).unwrap();
        b.connect(&a.local_addr().to_string()).unwrap();
        // A learns who called.
        wait_for(
            || {
                a.take_control()
                    .iter()
                    .any(|e| matches!(e, ControlEvent::Hello { client: 1, .. }))
                    || a.connected_clients().contains(&1)
            },
            "hello",
        );
        assert_eq!(a.connected_clients(), vec![1]);
        // B gossips a transaction; A receives it through the trait.
        let msg = GossipMessage::Transaction(TxMessage {
            id: 42,
            parents: vec![0],
            params: StdArc::new(vec![1.0, 2.0]),
            issuer: Some(1),
            round: 3,
        });
        let mut rng = StdRng::seed_from_u64(0);
        b.broadcast(0, 0.0, msg.clone(), &mut rng).unwrap();
        let mut got = Vec::new();
        wait_for(
            || {
                got.extend(a.receive(0, 7.5));
                !got.is_empty()
            },
            "gossip",
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, 7.5);
        assert_eq!(got[0].message, msg);
        assert!(a.in_flight(0).is_empty());
        assert_eq!(a.num_peers(), 2);
    }

    #[test]
    fn snapshot_request_reaches_the_other_side() {
        let mut a = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
        let mut b = TcpTransport::bind("127.0.0.1:0", 1).unwrap();
        let conn = b.connect(&a.local_addr().to_string()).unwrap();
        b.send_to_conn(conn, &WireMessage::SnapshotRequest { have: vec![0, 9] })
            .unwrap();
        let mut seen = Vec::new();
        wait_for(
            || {
                seen.extend(a.take_control());
                seen.iter()
                    .any(|e| matches!(e, ControlEvent::SnapshotRequest { .. }))
            },
            "snapshot request",
        );
        let req = seen
            .iter()
            .find_map(|e| match e {
                ControlEvent::SnapshotRequest { have, .. } => Some(have.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(req, vec![0, 9]);
    }

    #[test]
    fn send_to_conns_writes_each_live_target_once() {
        let mut a = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
        let mut b = TcpTransport::bind("127.0.0.1:0", 1).unwrap();
        let conn = b.connect(&a.local_addr().to_string()).unwrap();
        let done = WireMessage::Done { client: 1 };
        assert_eq!(b.send_to_conns(&[], &done), 0);
        // An unknown index is skipped like a closed connection.
        assert_eq!(b.send_to_conns(&[conn + 5, conn], &done), 1);
        assert!(b
            .send_to_conn(conn + 5, &done)
            .unwrap_err()
            .to_string()
            .contains("closed"));
        let mut seen = Vec::new();
        wait_for(
            || {
                seen.extend(a.take_control());
                seen.iter().any(|e| matches!(e, ControlEvent::Done { .. }))
            },
            "done",
        );
        assert_eq!(b.stats().dropped, 0);
    }

    #[test]
    fn dropping_a_peer_surfaces_disconnect() {
        let mut a = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
        {
            let mut b = TcpTransport::bind("127.0.0.1:0", 1).unwrap();
            b.connect(&a.local_addr().to_string()).unwrap();
            // connected_clients only reflects hellos after a poll, so
            // drain control events while waiting.
            wait_for(
                || {
                    let _ = a.take_control();
                    !a.connected_clients().is_empty()
                },
                "hello",
            );
        } // b drops: sockets shut down
        let mut seen = Vec::new();
        wait_for(
            || {
                seen.extend(a.take_control());
                seen.iter()
                    .any(|e| matches!(e, ControlEvent::Disconnected { .. }))
            },
            "disconnect",
        );
        assert!(a.connected_clients().is_empty());
    }

    #[test]
    fn tracker_registers_lists_and_forgets_peers() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let addr = tracker.local_addr().unwrap().to_string();
        let handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(2)).unwrap())
        };
        let first = tracker_join(&addr, 0, "127.0.0.1:9100").unwrap();
        assert!(first.is_empty(), "first peer sees an empty network");
        let second = tracker_join(&addr, 1, "127.0.0.1:9101").unwrap();
        assert_eq!(
            second,
            vec![PeerInfo {
                client: 0,
                addr: "127.0.0.1:9100".into()
            }]
        );
        tracker_leave(&addr, 0).unwrap();
        tracker_leave(&addr, 1).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary, TrackerSummary { joined: 2, left: 2 });
    }

    #[test]
    fn rejoin_replaces_the_stale_registration() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let addr = tracker.local_addr().unwrap().to_string();
        let handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(3)).unwrap())
        };
        tracker_join(&addr, 0, "127.0.0.1:9100").unwrap();
        tracker_join(&addr, 1, "127.0.0.1:9101").unwrap();
        // Client 0 crashed and rejoins from a new port: it must not be
        // offered its own stale address, and 1 must not be duplicated.
        let rejoin = tracker_join(&addr, 0, "127.0.0.1:9102").unwrap();
        assert_eq!(rejoin.len(), 1);
        assert_eq!(rejoin[0].client, 1);
        tracker_leave(&addr, 0).unwrap();
        tracker_leave(&addr, 1).unwrap();
        // One extra leave unblocks run(Some(3)) deterministically.
        tracker_leave(&addr, 7).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn have_set_collects_ids() {
        let set = have_set(&[0, 3, 3, 9]);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&9));
    }

    #[test]
    fn tracker_expect_one_exits_after_a_single_peer() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let addr = tracker.local_addr().unwrap().to_string();
        let handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(1)).unwrap())
        };
        assert!(tracker_join(&addr, 0, "127.0.0.1:9100").unwrap().is_empty());
        tracker_leave(&addr, 0).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary, TrackerSummary { joined: 1, left: 1 });
    }

    #[test]
    fn duplicate_join_registers_once_but_counts_toward_expect() {
        let tracker = Tracker::bind("127.0.0.1:0").unwrap();
        let addr = tracker.local_addr().unwrap().to_string();
        let handle = {
            let mut tracker = tracker;
            thread::spawn(move || tracker.run(Some(2)).unwrap())
        };
        tracker_join(&addr, 0, "127.0.0.1:9100").unwrap();
        // The same client joins again (e.g. a retry after a flaky
        // link): the registration is replaced, never duplicated, and
        // the joiner is not offered its own old address.
        let second = tracker_join(&addr, 0, "127.0.0.1:9200").unwrap();
        assert!(second.is_empty(), "a rejoiner must not see itself");
        tracker_leave(&addr, 0).unwrap();
        tracker_leave(&addr, 0).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.joined, 2, "every join counts toward --expect");
        assert_eq!(summary.left, 2);
    }

    #[test]
    fn tcp_stats_count_deliveries_and_dead_connection_drops() {
        let mut a = TcpTransport::bind("127.0.0.1:0", 0).unwrap();
        let mut b = TcpTransport::bind("127.0.0.1:0", 1).unwrap();
        b.connect(&a.local_addr().to_string()).unwrap();
        wait_for(
            || {
                let _ = a.take_control();
                !a.connected_clients().is_empty()
            },
            "hello",
        );
        let mut rng = StdRng::seed_from_u64(0);
        let msg = GossipMessage::Transaction(TxMessage {
            id: 7,
            parents: vec![0],
            params: StdArc::new(vec![0.0]),
            issuer: Some(1),
            round: 0,
        });
        b.broadcast(0, 0.0, msg, &mut rng).unwrap();
        wait_for(|| !a.receive(0, 0.0).is_empty(), "gossip");
        assert_eq!(a.stats().delivered, 1);
        b.note_reconnect();
        assert_eq!(b.stats().reconnects, 1);
        // Kill the remote end; the next two writes flush into the dead
        // socket until the OS notices, after which sends count as
        // dropped.
        drop(a);
        wait_for(
            || {
                let _ = b.take_control();
                b.broadcast_wire(&WireMessage::Done { client: 1 });
                b.live_connections().is_empty()
            },
            "dead connection",
        );
        assert!(b.stats().dropped > 0 || b.live_connections().is_empty());
    }
}
