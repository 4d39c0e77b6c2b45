//! Property tests for the networked wire format and the replica layer
//! it feeds: arbitrary messages survive the encode/decode round trip
//! bit-for-bit (NaN payloads included), corrupted frames are rejected
//! rather than decoded as garbage, a replica survives whatever gossip a
//! frame decodes to, and it converges to the same tangle digest no
//! matter the order gossip arrives in.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use dagfl_core::wire::{decode, encode, read_message, write_message, MAX_FRAME, WIRE_VERSION};
use dagfl_core::{
    Envelope, GossipMessage, ModelPayload, PeerInfo, Replica, TxMessage, WireError, WireMessage,
    GENESIS_NET_ID,
};

/// Draws one `TxMessage` with arbitrary ids, parents and weight bit
/// patterns — including NaNs, infinities and negative zero, which must
/// survive the trip bitwise even though they break `==`.
fn arb_tx() -> impl Strategy<Value = TxMessage> {
    (
        (any::<u64>(), vec(any::<u64>(), 0..5)),
        (any::<bool>(), any::<u32>(), any::<u32>()),
        vec(any::<u32>(), 0..24),
    )
        .prop_map(
            |((id, parents), (has_issuer, issuer, round), bits)| TxMessage {
                id,
                parents,
                params: Arc::new(bits.into_iter().map(f32::from_bits).collect()),
                issuer: has_issuer.then_some(issuer),
                round,
            },
        )
}

/// Draws one message of every wire kind, degenerate shapes included
/// (empty snapshots, empty have-lists, empty addresses).
fn arb_message() -> impl Strategy<Value = WireMessage> {
    (
        (0u8..8, any::<u32>(), vec(any::<u64>(), 0..12)),
        vec(arb_tx(), 0..4),
        vec((any::<u32>(), 0usize..20), 0..4),
    )
        .prop_map(|((kind, client, have), transactions, peers)| match kind {
            0 => WireMessage::Hello { client },
            1 => WireMessage::Transaction(transactions.into_iter().next().unwrap_or_else(|| {
                TxMessage {
                    id: u64::from(client),
                    parents: have,
                    params: Arc::new(Vec::new()),
                    issuer: None,
                    round: 0,
                }
            })),
            2 => WireMessage::SnapshotRequest { have },
            3 => WireMessage::Snapshot { transactions },
            4 => WireMessage::Join {
                client,
                addr: "x".repeat(have.len()),
            },
            5 => WireMessage::PeerList {
                peers: peers
                    .into_iter()
                    .map(|(client, len)| PeerInfo {
                        client,
                        addr: "a".repeat(len),
                    })
                    .collect(),
            },
            6 => WireMessage::Leave { client },
            _ => WireMessage::Done { client },
        })
}

/// Offsets of every field boundary in `encode(msg)`, from 0 to the frame
/// length, computed from the documented layout rather than by the codec.
fn field_bounds(msg: &WireMessage) -> Vec<usize> {
    struct Bounds(Vec<usize>);
    impl Bounds {
        fn field(&mut self, size: usize) {
            let end = self.0.last().copied().unwrap_or(0) + size;
            self.0.push(end);
        }
        fn string(&mut self, s: &str) {
            self.field(4);
            self.field(s.len());
        }
        fn tx(&mut self, tx: &TxMessage) {
            self.field(8);
            self.field(4);
            tx.parents.iter().for_each(|_| self.field(8));
            self.field(1);
            if tx.issuer.is_some() {
                self.field(4);
            }
            self.field(4);
            self.field(4);
            tx.params.iter().for_each(|_| self.field(4));
        }
    }
    // Length prefix, version, kind.
    let mut b = Bounds(vec![0, 4, 5, 6]);
    match msg {
        WireMessage::Hello { .. } | WireMessage::Leave { .. } | WireMessage::Done { .. } => {
            b.field(4);
        }
        WireMessage::Transaction(tx) => b.tx(tx),
        WireMessage::SnapshotRequest { have } => {
            b.field(4);
            have.iter().for_each(|_| b.field(8));
        }
        WireMessage::Snapshot { transactions } => {
            b.field(4);
            transactions.iter().for_each(|tx| b.tx(tx));
        }
        WireMessage::Join { addr, .. } => {
            b.field(4);
            b.string(addr);
        }
        WireMessage::PeerList { peers } => {
            b.field(4);
            for peer in peers {
                b.field(4);
                b.string(&peer.addr);
            }
        }
    }
    b.0
}

/// One structure-aware corruption of a well-formed frame, chosen by
/// `how % 3` and placed by `pick`; `value` picks what is written.
///
/// 0. Overwrite the `u32` starting at a body field boundary with a
///    boundary value: 0, 1, a count that exactly fills the bytes after
///    it, 2^31 or `u32::MAX` — this is how counts get their lies.
/// 1. Flip bits of one byte at offset ≥ 6: the first byte of a body
///    field (even `pick`: tags, low count bytes) or any body byte. Low
///    masks turn an issuer tag into an invalid one; high ones break
///    UTF-8 and signs.
/// 2. Cut the frame at a field boundary, leaving the length prefix as it
///    was or (odd `value`) making it match the cut.
fn mutate(frame: &[u8], bounds: &[usize], how: u8, pick: usize, value: u8) -> Vec<u8> {
    let mut out = frame.to_vec();
    let starts: Vec<usize> = bounds
        .iter()
        .copied()
        .filter(|&at| (6..frame.len()).contains(&at))
        .collect();
    match how % 3 {
        0 => {
            let slots: Vec<usize> = starts
                .into_iter()
                .filter(|&at| at + 4 <= frame.len())
                .collect();
            let at = slots[pick % slots.len()];
            let fills = ((frame.len() - at - 4) / 4) as u32;
            let word = [0, 1, fills, 1 << 31, u32::MAX][usize::from(value) % 5];
            out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        1 => {
            let at = if pick % 2 == 0 {
                starts[pick / 2 % starts.len()]
            } else {
                6 + pick / 2 % (frame.len() - 6)
            };
            out[at] ^= [0x01, 0x02, 0x03, 0x80, value.max(1)][usize::from(value) % 5];
        }
        _ => {
            let at = bounds[pick % (bounds.len() - 1)];
            out.truncate(at);
            if value % 2 == 1 && at >= 4 {
                let len = (at - 4) as u32;
                out[..4].copy_from_slice(&len.to_le_bytes());
            }
        }
    }
    out
}

/// Frames are canonical: decoding and re-encoding reproduces the exact
/// bytes, so equality of values and equality of frames coincide (this
/// is how NaN-carrying payloads are compared without `==`).
fn assert_bitwise_round_trip(msg: &WireMessage) {
    let frame = encode(msg);
    let back = decode(&frame).expect("well-formed frame must decode");
    assert_eq!(encode(&back), frame, "{msg:?}");
}

proptest! {
    #[test]
    fn any_message_round_trips_bitwise(msg in arb_message()) {
        assert_bitwise_round_trip(&msg);
    }

    /// Fully arbitrary byte strings — not derived from any encoded
    /// message — must be *rejected*, never panic the decoder or the
    /// stream reader (a hostile or corrupted peer controls these bytes).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
        let mut stream = bytes.as_slice();
        while let Ok(_msg) = read_message(&mut stream) {}
    }

    #[test]
    fn framed_streams_round_trip_back_to_back(msgs in vec(arb_message(), 0..6)) {
        let mut buf = Vec::new();
        for msg in &msgs {
            write_message(&mut buf, msg).unwrap();
        }
        let mut stream = buf.as_slice();
        for msg in &msgs {
            let back = read_message(&mut stream).unwrap();
            prop_assert_eq!(encode(&back), encode(msg));
        }
        prop_assert!(matches!(
            read_message(&mut stream),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn every_strict_prefix_is_rejected(msg in arb_message(), fraction in 0.0f64..1.0) {
        let frame = encode(&msg);
        let cut = ((frame.len() as f64) * fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode(&frame[..cut]).is_err(), "accepted a {}-byte prefix", cut);
    }

    #[test]
    fn any_other_version_byte_is_rejected(msg in arb_message(), version in any::<u8>()) {
        let mut frame = encode(&msg);
        frame[4] = version;
        if version == WIRE_VERSION {
            prop_assert!(decode(&frame).is_ok());
        } else {
            prop_assert_eq!(
                decode(&frame),
                Err(WireError::VersionMismatch {
                    expected: WIRE_VERSION,
                    found: version,
                })
            );
        }
    }

    #[test]
    fn appended_garbage_is_rejected(msg in arb_message(), tail in vec(any::<u8>(), 1..8)) {
        let mut frame = encode(&msg);
        frame.extend_from_slice(&tail);
        prop_assert_eq!(decode(&frame), Err(WireError::TrailingBytes));
    }

    #[test]
    fn corrupt_length_prefix_never_decodes_as_the_message(
        msg in arb_message(),
        delta in 1u32..1024,
    ) {
        let mut frame = encode(&msg);
        let true_len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let lied = true_len.wrapping_add(delta);
        frame[..4].copy_from_slice(&lied.to_le_bytes());
        let outcome = decode(&frame);
        prop_assert!(
            matches!(
                outcome,
                Err(WireError::Truncated) | Err(WireError::Oversized(_))
            ),
            "length lie {} -> {:?}",
            lied,
            outcome
        );
        if (lied as usize) > MAX_FRAME {
            prop_assert!(matches!(outcome, Err(WireError::Oversized(_))));
        }
    }
}

proptest! {
    // A case costs microseconds and one mutation rarely hits a tag, so
    // this block runs at least 1,024 cases (more if `PROPTEST_CASES` asks).
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(1024)))]

    /// A hostile peer edits real frames where it hurts — counts, tags,
    /// lengths, cut points — instead of sending noise that dies at the
    /// version byte. Neither `decode` nor `read_message` may panic, and
    /// whatever they accept must be canonical: it re-encodes to exactly
    /// the mutated bytes, so no corrupted frame decodes as some other
    /// frame's message.
    #[test]
    fn mutated_frames_are_rejected_or_canonical(
        msg in arb_message(),
        (how, pick, value) in (any::<u8>(), any::<usize>(), any::<u8>()),
    ) {
        let frame = encode(&msg);
        let bounds = field_bounds(&msg);
        prop_assert_eq!(bounds.last().copied(), Some(frame.len()));
        let mutated = mutate(&frame, &bounds, how, pick, value);
        if let Ok(back) = decode(&mutated) {
            prop_assert_eq!(encode(&back), mutated);
        }
        let mut stream = mutated.as_slice();
        if let Ok(back) = read_message(&mut stream) {
            prop_assert!(stream.is_empty());
            prop_assert_eq!(encode(&back), mutated);
        }
    }
}

proptest! {
    /// A decoded gossip frame goes straight into a replica, so whatever
    /// a hostile peer encodes — no parents, itself as a parent, parents
    /// nobody has — `apply` must not panic, and a transaction attaches
    /// only after every parent it lists.
    #[test]
    fn decoded_gossip_never_panics_a_replica(msg in arb_message()) {
        let (sent, message) = match decode(&encode(&msg)).expect("well-formed frame must decode") {
            WireMessage::Transaction(tx) => (vec![tx.clone()], GossipMessage::Transaction(tx)),
            WireMessage::Snapshot { transactions } => {
                (transactions.clone(), GossipMessage::Snapshot(transactions))
            }
            _ => return,
        };
        let mut replica = Replica::new(ModelPayload::new(vec![0.0]));
        replica.apply(vec![Envelope { at: 0.0, message }]);
        let attached: Vec<u64> = replica.network_ids().collect();
        for (position, id) in attached.iter().enumerate().skip(1) {
            let tx = sent.iter().find(|tx| tx.id == *id).expect("attached from the frame");
            prop_assert!(!tx.parents.is_empty(), "{tx:?}");
            for parent in &tx.parents {
                prop_assert!(attached[..position].contains(parent), "{tx:?}");
            }
        }
    }
}

/// Builds a line tangle plus some fan-out: every transaction's parents
/// are earlier transactions (or genesis), so the set is attachable in
/// at least one order.
fn lineage(count: usize, fanout_seed: u64) -> Vec<TxMessage> {
    (0..count)
        .map(|i| {
            let id = (i as u64) + 1;
            let parent = if i == 0 {
                GENESIS_NET_ID
            } else {
                // A deterministic "random" earlier parent (possibly
                // genesis: the modulus keeps it strictly below `id`).
                fanout_seed.wrapping_mul(id) % id
            };
            TxMessage {
                id,
                parents: vec![parent],
                params: Arc::new(vec![id as f32, fanout_seed as f32]),
                issuer: Some(i as u32),
                round: i as u32,
            }
        })
        .collect()
}

proptest! {
    /// Satellite invariant: delivery order never matters. A replica fed
    /// the same transactions in any permutation — children before
    /// parents included, exercising the solidification buffer — lands
    /// on the identical order-independent digest.
    #[test]
    fn replica_digest_is_delivery_order_independent(
        count in 1usize..12,
        fanout_seed in any::<u64>(),
        swaps in vec((0usize..12, 0usize..12), 0..16),
    ) {
        let genesis = ModelPayload::new(vec![0.0, 0.0]);
        let messages = lineage(count, fanout_seed);

        // Reference: in-order delivery, one envelope per apply call.
        let mut reference = Replica::new(genesis.clone());
        for (i, msg) in messages.iter().enumerate() {
            reference.apply(vec![Envelope {
                at: i as f64,
                message: GossipMessage::Transaction(msg.clone()),
            }]);
        }
        prop_assert_eq!(reference.buffered(), 0);

        // Shuffled: apply the generated swaps, deliver as one batch.
        let mut shuffled = messages.clone();
        for &(a, b) in &swaps {
            let (a, b) = (a % count, b % count);
            shuffled.swap(a, b);
        }
        let mut replica = Replica::new(genesis);
        replica.apply(
            shuffled
                .into_iter()
                .map(|m| Envelope {
                    at: 0.0,
                    message: GossipMessage::Transaction(m),
                })
                .collect(),
        );
        prop_assert_eq!(replica.buffered(), 0, "a solid set must fully solidify");
        prop_assert_eq!(replica.digest(), reference.digest());

        // And a late joiner catching up from a snapshot agrees too.
        let mut late = Replica::new(ModelPayload::new(vec![0.0, 0.0]));
        let have: HashSet<u64> = late.network_ids().collect();
        late.apply(vec![Envelope {
            at: 0.0,
            message: GossipMessage::Snapshot(reference.snapshot_messages(&have)),
        }]);
        prop_assert_eq!(late.digest(), reference.digest());
    }
}
