//! The networked mode's wire format: length-prefixed, versioned binary
//! frames over any `Read`/`Write` stream — std only, no serialization
//! dependency.
//!
//! Every frame is
//!
//! ```text
//! [ length: u32 LE ][ version: u8 ][ kind: u8 ][ body ... ]
//! ```
//!
//! where `length` covers everything after itself. Integers are
//! little-endian, floats are IEEE-754 bit patterns, strings are
//! u32-length-prefixed UTF-8, vectors are u32-count-prefixed. Decoding
//! rejects truncated frames, version mismatches, unknown kinds,
//! oversized lengths and trailing bytes, so a peer can never be pushed
//! into reading garbage as weights.
//!
//! A model is most of every transaction frame, so each side touches
//! each weight once: [`encode`] sizes one buffer exactly for the whole
//! frame and packs the weights into it in a single pass, and decoding
//! unpacks them in a single pass from one bounds check. Frames are
//! canonical: a frame the decoder accepts re-encodes to exactly its own
//! bytes (pinned by `frames_are_byte_identical_to_wire_v1` and the
//! hostile-frame proptest in `tests/wire_proptests.rs`).

use std::io::{Read, Write};
use std::sync::Arc;

use crate::TxMessage;

/// Protocol version of this build; bumped on any frame-layout change.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame body (64 MiB) — a sanity valve against
/// corrupt length prefixes, not a protocol limit.
pub const MAX_FRAME: usize = 64 << 20;

/// A peer known to the tracker: client id plus gossip listen address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's client id.
    pub client: u32,
    /// The address its gossip listener is bound to.
    pub addr: String,
}

/// Everything peers and the tracker exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// First message on a gossip connection: who is calling.
    Hello {
        /// The connecting peer's client id.
        client: u32,
    },
    /// One published transaction.
    Transaction(TxMessage),
    /// "Send me everything I do not have" — `have` lists the network
    /// ids the requester already holds.
    SnapshotRequest {
        /// Network ids already held by the requester.
        have: Vec<u64>,
    },
    /// The answer to a snapshot request: missing transactions in
    /// topological order.
    Snapshot {
        /// The transactions the requester was missing.
        transactions: Vec<TxMessage>,
    },
    /// Tracker: a peer announces itself and its listen address.
    Join {
        /// The joining peer's client id.
        client: u32,
        /// Address other peers can dial for gossip.
        addr: String,
    },
    /// Tracker's reply to a join: everyone already registered.
    PeerList {
        /// The previously registered peers.
        peers: Vec<PeerInfo>,
    },
    /// Tracker: a peer is leaving the session.
    Leave {
        /// The departing peer's client id.
        client: u32,
    },
    /// Gossip: the sender has published its last transaction and will
    /// exit once everyone else is done too.
    Done {
        /// The finished peer's client id.
        client: u32,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_TRANSACTION: u8 = 2;
const KIND_SNAPSHOT_REQUEST: u8 = 3;
const KIND_SNAPSHOT: u8 = 4;
const KIND_JOIN: u8 = 5;
const KIND_PEER_LIST: u8 = 6;
const KIND_LEAVE: u8 = 7;
const KIND_DONE: u8 = 8;

/// Decoding/transport failures of the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame, or a body was shorter than its
    /// fields claim.
    Truncated,
    /// A frame decoded fine but left unread bytes in its body.
    TrailingBytes,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version this build speaks.
        expected: u8,
        /// Version found in the frame.
        found: u8,
    },
    /// The frame kind byte is not one this build knows.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// A structurally invalid body (e.g. a non-UTF-8 string).
    Malformed(&'static str),
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::TrailingBytes => write!(f, "frame has trailing bytes"),
            WireError::VersionMismatch { expected, found } => {
                write!(f, "wire version mismatch: expected {expected}, got {found}")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Oversized(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::Io(why) => write!(f, "wire i/o: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    }
}

/// Smallest encoded transaction: id, parent count, issuer tag, round
/// and weight count, with no parents, issuer or weights.
const MIN_TX_LEN: usize = 8 + 4 + 1 + 4 + 4;

/// Smallest encoded [`PeerInfo`]: client id and an empty address.
const MIN_PEER_LEN: usize = 4 + 4;

/// Encodes a message as one complete frame (length prefix included),
/// in one buffer allocated at its exact final size.
pub fn encode(message: &WireMessage) -> Vec<u8> {
    let (kind, body_len) = kind_and_body_len(message);
    let mut frame = Vec::with_capacity(6 + body_len);
    // The length prefix is patched in once the body is written.
    frame.extend_from_slice(&[0; 4]);
    frame.push(WIRE_VERSION);
    frame.push(kind);
    match message {
        WireMessage::Hello { client }
        | WireMessage::Leave { client }
        | WireMessage::Done { client } => put_u32(&mut frame, *client),
        WireMessage::Transaction(tx) => put_tx(&mut frame, tx),
        WireMessage::SnapshotRequest { have } => {
            put_u32(&mut frame, have.len() as u32);
            for id in have {
                put_u64(&mut frame, *id);
            }
        }
        WireMessage::Snapshot { transactions } => {
            put_u32(&mut frame, transactions.len() as u32);
            for tx in transactions {
                put_tx(&mut frame, tx);
            }
        }
        WireMessage::Join { client, addr } => {
            put_u32(&mut frame, *client);
            put_str(&mut frame, addr);
        }
        WireMessage::PeerList { peers } => {
            put_u32(&mut frame, peers.len() as u32);
            for peer in peers {
                put_u32(&mut frame, peer.client);
                put_str(&mut frame, &peer.addr);
            }
        }
    }
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame
}

/// The kind byte of `message` and the exact size of its encoded body.
fn kind_and_body_len(message: &WireMessage) -> (u8, usize) {
    match message {
        WireMessage::Hello { .. } => (KIND_HELLO, 4),
        WireMessage::Transaction(tx) => (KIND_TRANSACTION, tx_len(tx)),
        WireMessage::SnapshotRequest { have } => (KIND_SNAPSHOT_REQUEST, 4 + 8 * have.len()),
        WireMessage::Snapshot { transactions } => (
            KIND_SNAPSHOT,
            4 + transactions.iter().map(tx_len).sum::<usize>(),
        ),
        WireMessage::Join { addr, .. } => (KIND_JOIN, 4 + 4 + addr.len()),
        WireMessage::PeerList { peers } => (
            KIND_PEER_LIST,
            4 + peers
                .iter()
                .map(|p| MIN_PEER_LEN + p.addr.len())
                .sum::<usize>(),
        ),
        WireMessage::Leave { .. } => (KIND_LEAVE, 4),
        WireMessage::Done { .. } => (KIND_DONE, 4),
    }
}

/// The number of bytes [`put_tx`] writes for `tx`.
fn tx_len(tx: &TxMessage) -> usize {
    MIN_TX_LEN + 8 * tx.parents.len() + 4 * usize::from(tx.issuer.is_some()) + 4 * tx.params.len()
}

/// Decodes one complete frame (as produced by [`encode`]).
///
/// # Errors
///
/// Any [`WireError`] variant except `Io`.
pub fn decode(frame: &[u8]) -> Result<WireMessage, WireError> {
    if frame.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if frame.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    if frame.len() > 4 + len {
        return Err(WireError::TrailingBytes);
    }
    decode_payload(&frame[4..])
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Returns [`WireError::Io`] on write failure.
pub fn write_message(w: &mut impl Write, message: &WireMessage) -> Result<(), WireError> {
    w.write_all(&encode(message))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a stream (blocking until complete).
///
/// # Errors
///
/// Any [`WireError`] variant; a clean EOF before the length prefix
/// reads as [`WireError::Truncated`].
pub fn read_message(r: &mut impl Read) -> Result<WireMessage, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if len < 2 {
        return Err(WireError::Truncated);
    }
    // Read into spare capacity: no zero-fill for the bytes to overwrite.
    let mut payload = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(WireError::Truncated);
    }
    decode_payload(&payload)
}

/// Decodes version + kind + body (everything after the length prefix).
fn decode_payload(payload: &[u8]) -> Result<WireMessage, WireError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            expected: WIRE_VERSION,
            found: version,
        });
    }
    let kind = c.u8()?;
    let message = match kind {
        KIND_HELLO => WireMessage::Hello { client: c.u32()? },
        KIND_TRANSACTION => WireMessage::Transaction(c.tx()?),
        KIND_SNAPSHOT_REQUEST => {
            let count = c.counted(8)?;
            let mut have = Vec::with_capacity(count);
            for _ in 0..count {
                have.push(c.u64()?);
            }
            WireMessage::SnapshotRequest { have }
        }
        KIND_SNAPSHOT => {
            let count = c.counted(MIN_TX_LEN)?;
            let mut transactions = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                transactions.push(c.tx()?);
            }
            WireMessage::Snapshot { transactions }
        }
        KIND_JOIN => WireMessage::Join {
            client: c.u32()?,
            addr: c.string()?,
        },
        KIND_PEER_LIST => {
            let count = c.counted(MIN_PEER_LEN)?;
            let mut peers = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                peers.push(PeerInfo {
                    client: c.u32()?,
                    addr: c.string()?,
                });
            }
            WireMessage::PeerList { peers }
        }
        KIND_LEAVE => WireMessage::Leave { client: c.u32()? },
        KIND_DONE => WireMessage::Done { client: c.u32()? },
        other => return Err(WireError::UnknownKind(other)),
    };
    if c.pos != c.buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(message)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_tx(buf: &mut Vec<u8>, tx: &TxMessage) {
    put_u64(buf, tx.id);
    put_u32(buf, tx.parents.len() as u32);
    for p in &tx.parents {
        put_u64(buf, *p);
    }
    match tx.issuer {
        Some(issuer) => {
            buf.push(1);
            put_u32(buf, issuer);
        }
        None => buf.push(0),
    }
    put_u32(buf, tx.round);
    put_u32(buf, tx.params.len() as u32);
    let start = buf.len();
    buf.resize(start + 4 * tx.params.len(), 0);
    for (bytes, w) in buf[start..].chunks_exact_mut(4).zip(tx.params.iter()) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a count whose elements occupy at least `min_size` bytes
    /// each, rejecting counts the remaining body cannot possibly hold
    /// (prevents huge pre-allocations from a corrupt prefix).
    fn counted(&mut self, min_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_size) > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.counted(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn tx(&mut self) -> Result<TxMessage, WireError> {
        let id = self.u64()?;
        let parent_count = self.counted(8)?;
        let mut parents = Vec::with_capacity(parent_count);
        for _ in 0..parent_count {
            parents.push(self.u64()?);
        }
        let issuer = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            _ => return Err(WireError::Malformed("bad issuer tag")),
        };
        let round = self.u32()?;
        let param_count = self.counted(4)?;
        let bytes = self.take(4 * param_count)?;
        let mut params = Vec::with_capacity(param_count);
        // `try_into` vectorises; indexing `[b[0], .., b[3]]` ran the
        // same loop 3-4x slower.
        params.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("chunks_exact(4) yields 4 bytes"))),
        );
        Ok(TxMessage {
            id,
            parents,
            params: Arc::new(params),
            issuer,
            round,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx() -> TxMessage {
        TxMessage {
            id: 0x0100_0000_0007,
            parents: vec![0, 0x0100_0000_0003],
            params: Arc::new(vec![1.5, -0.25, f32::MIN_POSITIVE]),
            issuer: Some(3),
            round: 42,
        }
    }

    fn all_kinds() -> Vec<WireMessage> {
        vec![
            WireMessage::Hello { client: 2 },
            WireMessage::Transaction(sample_tx()),
            WireMessage::SnapshotRequest {
                have: vec![0, 7, 9],
            },
            WireMessage::SnapshotRequest { have: vec![] },
            WireMessage::Snapshot {
                transactions: vec![sample_tx()],
            },
            WireMessage::Snapshot {
                transactions: vec![],
            },
            WireMessage::Join {
                client: 1,
                addr: "127.0.0.1:7878".into(),
            },
            WireMessage::PeerList {
                peers: vec![PeerInfo {
                    client: 0,
                    addr: "127.0.0.1:9000".into(),
                }],
            },
            WireMessage::PeerList { peers: vec![] },
            WireMessage::Leave { client: 1 },
            WireMessage::Done { client: 0 },
        ]
    }

    /// A benchmark-sized transaction (13,258 weights, a 53,079-byte
    /// frame) whose weights cycle through NaNs with payload bits, a
    /// signalling NaN, ±inf, −0.0 and subnormals between arbitrary bit
    /// patterns.
    fn hostile_weights_tx() -> TxMessage {
        let specials = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_0123),
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
        ];
        let params = (0..13_258u32)
            .map(|i| match specials.get(i as usize % 13) {
                Some(&w) => w,
                None => f32::from_bits(i.wrapping_mul(0x9e37_79b9)),
            })
            .collect();
        TxMessage {
            id: 0x0200_0000_0011,
            parents: vec![0x0100_0000_0003, 0x0200_0000_0010],
            params: Arc::new(params),
            issuer: Some(2),
            round: 17,
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Hands out at most `step` bytes per `read`, the way TCP delivers a
    /// large frame to the reader thread in pieces.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The frame layout is pinned: the FNV-1a of every frame was taken
    /// from the per-field encoder that first shipped `WIRE_VERSION` 1.
    /// Round-trip tests cannot catch a change made symmetrically to
    /// both codec halves; this one can. Every frame is also allocated
    /// at exactly its final size.
    #[test]
    fn frames_are_byte_identical_to_wire_v1() {
        let mut messages = all_kinds();
        messages.push(WireMessage::Transaction(hostile_weights_tx()));
        let digests: Vec<u64> = messages
            .iter()
            .map(|msg| {
                let frame = encode(msg);
                assert_eq!(frame.capacity(), frame.len(), "{msg:?}");
                fnv1a(&frame)
            })
            .collect();
        assert_eq!(
            digests,
            [
                0xa896_9ccd_561f_c847,
                0xdbbd_1e73_bdae_81b7,
                0xbeba_8fa7_0646_63aa,
                0x4f43_7e67_af15_7a5f,
                0xe618_1e68_ba7d_347e,
                0x2936_d4e8_3727_3b36,
                0x2ce7_65b2_b3d8_fed1,
                0x6627_f5c1_3b91_0795,
                0x0fd9_0e93_3c88_6670,
                0x7c8d_45b5_63a2_1442,
                0xc169_7ae6_16e0_37da,
                0x016b_2eaf_b3c9_78e3,
            ]
        );
    }

    #[test]
    fn short_reads_rebuild_every_kind() {
        let mut messages = all_kinds();
        messages.push(WireMessage::Transaction(hostile_weights_tx()));
        let mut stream = Vec::new();
        for msg in &messages {
            write_message(&mut stream, msg).unwrap();
        }
        let big = encode(messages.last().unwrap());
        for step in [1, 7] {
            let mut r = Trickle {
                bytes: &stream,
                step,
            };
            for msg in &messages {
                let back = read_message(&mut r).unwrap();
                assert_eq!(encode(&back), encode(msg), "step {step}");
            }
            assert_eq!(read_message(&mut r), Err(WireError::Truncated));
            // The stream ends inside the length prefix, right after the
            // header, and anywhere inside the payload.
            for cut in [2, 6, 7, 4 + 4 + 1, big.len() / 2, big.len() - 1] {
                let mut r = Trickle {
                    bytes: &big[..cut],
                    step,
                };
                assert_eq!(
                    read_message(&mut r),
                    Err(WireError::Truncated),
                    "step {step}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn counts_the_body_cannot_hold_are_truncated() {
        // A 30-byte Snapshot body claiming 4,096 transactions: 4,096 of
        // even the smallest transaction need 86,016 bytes.
        let mut frame = vec![0u8; 6 + 30];
        frame[..4].copy_from_slice(&32u32.to_le_bytes());
        frame[4] = WIRE_VERSION;
        frame[5] = KIND_SNAPSHOT;
        frame[6..10].copy_from_slice(&4096u32.to_le_bytes());
        assert_eq!(decode(&frame), Err(WireError::Truncated));
        // One more than fits is rejected; exactly as many as fit decode.
        let peers = |count: u32| {
            let mut frame = encode(&WireMessage::PeerList {
                peers: vec![
                    PeerInfo {
                        client: 4,
                        addr: String::new(),
                    };
                    3
                ],
            });
            frame[6..10].copy_from_slice(&count.to_le_bytes());
            decode(&frame)
        };
        assert_eq!(peers(4), Err(WireError::Truncated));
        assert!(matches!(peers(3), Ok(WireMessage::PeerList { peers }) if peers.len() == 3));
    }

    #[test]
    fn every_kind_round_trips() {
        for msg in all_kinds() {
            let frame = encode(&msg);
            assert_eq!(decode(&frame).unwrap(), msg, "{msg:?}");
            let mut stream = frame.as_slice();
            assert_eq!(read_message(&mut stream).unwrap(), msg);
            assert!(stream.is_empty());
        }
    }

    #[test]
    fn stream_round_trips_back_to_back_frames() {
        let mut buf = Vec::new();
        for msg in all_kinds() {
            write_message(&mut buf, &msg).unwrap();
        }
        let mut stream = buf.as_slice();
        for msg in all_kinds() {
            assert_eq!(read_message(&mut stream).unwrap(), msg);
        }
        assert!(matches!(
            read_message(&mut stream),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let frame = encode(&WireMessage::Transaction(sample_tx()));
        for cut in 0..frame.len() {
            assert!(
                decode(&frame[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut frame = encode(&WireMessage::Hello { client: 1 });
        frame[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode(&frame),
            Err(WireError::VersionMismatch {
                expected: WIRE_VERSION,
                found: WIRE_VERSION + 1,
            })
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut frame = encode(&WireMessage::Hello { client: 1 });
        frame[5] = 200;
        assert_eq!(decode(&frame), Err(WireError::UnknownKind(200)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode(&WireMessage::Done { client: 0 });
        let len = (frame.len() as u32 - 4 + 1).to_le_bytes();
        frame[..4].copy_from_slice(&len);
        frame.push(0xAB);
        assert_eq!(decode(&frame), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut frame = encode(&WireMessage::Done { client: 0 });
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::Oversized(_))));
        let mut stream = frame.as_slice();
        assert!(matches!(
            read_message(&mut stream),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn corrupt_count_cannot_force_huge_allocation() {
        // A SnapshotRequest claiming 2^31 ids in a 10-byte body must
        // fail fast instead of allocating gigabytes.
        let mut frame = encode(&WireMessage::SnapshotRequest { have: vec![1] });
        // Overwrite the count field (starts right after version+kind).
        frame[6..10].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(decode(&frame).is_err());
    }

    #[test]
    fn nan_weights_round_trip_bitwise() {
        let tx = TxMessage {
            id: 1,
            parents: vec![0],
            params: Arc::new(vec![f32::NAN, f32::INFINITY, -0.0]),
            issuer: None,
            round: 0,
        };
        let frame = encode(&WireMessage::Transaction(tx.clone()));
        let WireMessage::Transaction(back) = decode(&frame).unwrap() else {
            panic!("wrong kind");
        };
        let bits: Vec<u32> = back.params.iter().map(|w| w.to_bits()).collect();
        let expected: Vec<u32> = tx.params.iter().map(|w| w.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn errors_display_usefully() {
        for (err, needle) in [
            (WireError::Truncated, "truncated"),
            (WireError::TrailingBytes, "trailing"),
            (
                WireError::VersionMismatch {
                    expected: 1,
                    found: 2,
                },
                "version",
            ),
            (WireError::UnknownKind(9), "kind 9"),
            (WireError::Oversized(1 << 30), "exceeds"),
            (WireError::Malformed("bad"), "bad"),
            (WireError::Io("broken pipe".into()), "broken pipe"),
        ] {
            assert!(err.to_string().contains(needle), "{err:?}");
        }
    }
}
