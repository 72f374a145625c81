//! The frame protocol: one [`Message`] per length-prefixed, CRC-sealed
//! frame, encoded with the same `core::codec` primitives (and the same
//! anti-OOM discipline) as the `.pprx` index container.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PPRW"
//! 4       1     frame type (one byte per Message variant)
//! 5       4     payload length, u32 LE (capped by the reader's budget)
//! 9       4     CRC-32/IEEE of `type byte || payload`, u32 LE
//! 13      n     payload
//! ```
//!
//! Every frame byte is covered by a check: the magic by comparison, the
//! length by consistency with the bytes actually framed, and the type
//! byte *and* payload by the CRC (sealing the type prevents a corrupted
//! byte from reinterpreting the payload under another variant).
//! The payload length is validated against the reader's frame budget
//! *before* any allocation, the CRC is verified before any decoding, and
//! the decoder must consume the payload exactly — a frame whose length
//! field lies about its content is rejected even when the CRC was
//! re-sealed over the tampered bytes. Inside the payload, id lists are
//! delta-coded LEB128 varints and magnitudes are raw `f64` bits, so a
//! reply round-trips bit-identically — the transport can never perturb
//! an exact answer.
//!
//! [`reply_frame_bytes`] is the **single frame-size formula** shared by
//! the modeled and measured byte accounting: `Cluster` charges a modeled
//! reply with exactly the bytes the socket transport would put on the
//! wire for it (pinned in `tests/socket_cluster.rs`).

use ppr_core::codec::{
    crc32_tagged, read_ids_delta, read_ppv, write_ids_delta, write_ppv, write_varint, CodecError,
    Cursor, Result,
};
use ppr_core::SparseVector;
use ppr_graph::{CsrGraph, EdgeUpdate, GraphDelta, NodeId, NodeUpdate};

/// Frame magic: `b"PPRW"` — "PPR wire".
pub const FRAME_MAGIC: [u8; 4] = *b"PPRW";

/// Fixed bytes before the payload: magic + type + length + CRC.
pub const FRAME_HEADER_BYTES: u64 = 13;

/// Wire-protocol version carried in [`Message::Hello`]; the coordinator
/// refuses workers speaking any other version.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default per-frame byte budget (256 MiB). A header whose length field
/// exceeds the budget is rejected before any allocation — the same
/// lying-length defense the `.pprx` loader applies, adapted to a stream
/// where "bytes remaining" is unknowable.
pub const DEFAULT_MAX_FRAME_BYTES: u64 = 256 << 20;

/// One protocol message. Every variant encodes to exactly one frame.
#[derive(Clone, Debug)]
pub enum Message {
    /// Worker → coordinator, once per connection: identify the machine.
    Hello {
        /// Machine index this worker serves (0-based).
        machine: u32,
        /// Protocol version the worker speaks ([`PROTOCOL_VERSION`]).
        proto: u32,
    },
    /// Coordinator → worker, answering `Hello`: the current epoch and
    /// the graph the worker's index shard must be maintained against.
    Welcome {
        /// Epoch the worker joins at.
        epoch: u64,
        /// Current graph, shipped as per-node delta-coded adjacency.
        graph: CsrGraph,
    },
    /// Coordinator → worker: compute machine PPV contributions for a
    /// fan-out round's source list (request order is answer order).
    Request {
        /// Fan-out round number (echoed by the matching `Reply`).
        round: u64,
        /// Distinct source nodes, in coordinator batch order.
        sources: Vec<NodeId>,
    },
    /// Coordinator → worker: compute one machine contribution for a
    /// weighted preference set (Eq. 7), folded worker-side so the
    /// summation order matches the modeled transport bit for bit.
    RequestPref {
        /// Fan-out round number (echoed by the matching `Reply`).
        round: u64,
        /// `(member, weight)` pairs, in request order.
        pairs: Vec<(NodeId, f64)>,
    },
    /// Worker → coordinator: the machine's partial PPVs for one round.
    Reply {
        /// Round this reply answers.
        round: u64,
        /// Responding machine index.
        machine: u32,
        /// Worker-measured compute seconds (reported, never summed into
        /// any deterministic figure).
        compute_seconds: f64,
        /// One partial vector per requested source (or a single vector
        /// for a `RequestPref`), raw `f64` bits preserved.
        vectors: Vec<SparseVector>,
    },
    /// Coordinator → worker: one epoch barrier's update batch. The
    /// worker applies it through its own maintenance engine (the same
    /// deterministic path as the coordinator) and acks.
    Update {
        /// Epoch this barrier releases.
        epoch: u64,
        /// The batch: node churn plus edge updates.
        delta: GraphDelta,
    },
    /// Worker → coordinator: the barrier was applied and the worker now
    /// serves `epoch`.
    UpdateAck {
        /// Epoch the worker reached.
        epoch: u64,
        /// Acking machine index.
        machine: u32,
    },
    /// Coordinator → worker heartbeat probe.
    Ping {
        /// Probe sequence number (echoed by the matching `Pong`).
        seq: u64,
    },
    /// Worker → coordinator heartbeat answer.
    Pong {
        /// Echo of the probe's sequence number.
        seq: u64,
        /// Responding machine index.
        machine: u32,
        /// Epoch the worker currently serves.
        epoch: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        // `CsrGraph` has no `PartialEq`; Welcome frames compare the
        // graphs structurally (same node count, same edge stream).
        // Everything else is plain field equality — f64 fields compare
        // by bits, because the transport's promise is bit-identity, and
        // NaN-carrying replies must still equal themselves.
        use Message::*;
        match (self, other) {
            (
                Hello { machine, proto },
                Hello {
                    machine: m2,
                    proto: p2,
                },
            ) => machine == m2 && proto == p2,
            (
                Welcome { epoch, graph },
                Welcome {
                    epoch: e2,
                    graph: g2,
                },
            ) => {
                epoch == e2
                    && graph.node_count() == g2.node_count()
                    && graph.edges().eq(g2.edges())
            }
            (
                Request { round, sources },
                Request {
                    round: r2,
                    sources: s2,
                },
            ) => round == r2 && sources == s2,
            (
                RequestPref { round, pairs },
                RequestPref {
                    round: r2,
                    pairs: p2,
                },
            ) => {
                round == r2
                    && pairs.len() == p2.len()
                    && pairs
                        .iter()
                        .zip(p2)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }
            (
                Reply {
                    round,
                    machine,
                    compute_seconds,
                    vectors,
                },
                Reply {
                    round: r2,
                    machine: m2,
                    compute_seconds: c2,
                    vectors: v2,
                },
            ) => {
                round == r2
                    && machine == m2
                    && compute_seconds.to_bits() == c2.to_bits()
                    && vectors == v2
            }
            (
                Update { epoch, delta },
                Update {
                    epoch: e2,
                    delta: d2,
                },
            ) => epoch == e2 && delta.nodes == d2.nodes && delta.edges == d2.edges,
            (
                UpdateAck { epoch, machine },
                UpdateAck {
                    epoch: e2,
                    machine: m2,
                },
            ) => epoch == e2 && machine == m2,
            (Ping { seq }, Ping { seq: s2 }) => seq == s2,
            (
                Pong {
                    seq,
                    machine,
                    epoch,
                },
                Pong {
                    seq: s2,
                    machine: m2,
                    epoch: e2,
                },
            ) => seq == s2 && machine == m2 && epoch == e2,
            (Shutdown, Shutdown) => true,
            _ => false,
        }
    }
}

impl Message {
    /// The frame-type byte identifying this variant on the wire.
    pub fn frame_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::Request { .. } => 3,
            Message::RequestPref { .. } => 4,
            Message::Reply { .. } => 5,
            Message::Update { .. } => 6,
            Message::UpdateAck { .. } => 7,
            Message::Ping { .. } => 8,
            Message::Pong { .. } => 9,
            Message::Shutdown => 10,
        }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(CodecError::new(message))
}

// --------------------------------------------------------------- encoding

fn encode_payload(msg: &Message, buf: &mut Vec<u8>) -> Result<()> {
    match msg {
        Message::Hello { machine, proto } => {
            write_varint(buf, u64::from(*machine));
            write_varint(buf, u64::from(*proto));
        }
        Message::Welcome { epoch, graph } => {
            buf.extend_from_slice(&epoch.to_le_bytes());
            write_varint(buf, graph.node_count() as u64);
            for v in 0..graph.node_count() {
                let neighbors = graph.out_neighbors(v as NodeId);
                write_varint(buf, neighbors.len() as u64);
                // CSR adjacency is sorted-distinct by construction, so
                // the delta encoder's monotonicity check always passes.
                write_ids_delta(buf, neighbors.iter().copied())?;
            }
        }
        Message::Request { round, sources } => {
            buf.extend_from_slice(&round.to_le_bytes());
            write_varint(buf, sources.len() as u64);
            // Sources keep batch order (it is the reply's vector order),
            // so they are plain varints, not a delta chain.
            for &u in sources {
                write_varint(buf, u64::from(u));
            }
        }
        Message::RequestPref { round, pairs } => {
            buf.extend_from_slice(&round.to_le_bytes());
            write_varint(buf, pairs.len() as u64);
            for &(u, w) in pairs {
                write_varint(buf, u64::from(u));
                buf.extend_from_slice(&w.to_bits().to_le_bytes());
            }
        }
        Message::Reply {
            round,
            machine,
            compute_seconds,
            vectors,
        } => {
            // Round and machine are fixed-width so a reply's size depends
            // only on its vectors — the property that makes
            // `reply_frame_bytes` a pure function of the answer.
            buf.extend_from_slice(&round.to_le_bytes());
            buf.extend_from_slice(&machine.to_le_bytes());
            buf.extend_from_slice(&compute_seconds.to_bits().to_le_bytes());
            write_varint(buf, vectors.len() as u64);
            for v in vectors {
                write_ppv(buf, v)?;
            }
        }
        Message::Update { epoch, delta } => {
            buf.extend_from_slice(&epoch.to_le_bytes());
            write_varint(buf, delta.nodes.len() as u64);
            for n in &delta.nodes {
                match n {
                    NodeUpdate::Add => buf.push(0),
                    NodeUpdate::Remove(u) => {
                        buf.push(1);
                        write_varint(buf, u64::from(*u));
                    }
                }
            }
            write_varint(buf, delta.edges.len() as u64);
            for e in &delta.edges {
                let (tag, (u, v)) = match e {
                    EdgeUpdate::Insert(u, v) => (0u8, (*u, *v)),
                    EdgeUpdate::Remove(u, v) => (1u8, (*u, *v)),
                };
                buf.push(tag);
                write_varint(buf, u64::from(u));
                write_varint(buf, u64::from(v));
            }
        }
        Message::UpdateAck { epoch, machine } => {
            buf.extend_from_slice(&epoch.to_le_bytes());
            write_varint(buf, u64::from(*machine));
        }
        Message::Ping { seq } => buf.extend_from_slice(&seq.to_le_bytes()),
        Message::Pong {
            seq,
            machine,
            epoch,
        } => {
            buf.extend_from_slice(&seq.to_le_bytes());
            write_varint(buf, u64::from(*machine));
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Message::Shutdown => {}
    }
    Ok(())
}

/// Encode `msg` as one complete frame (header + payload).
///
/// # Errors
/// Fails only when the message itself violates an encoding invariant
/// (e.g. a reply vector with non-monotone ids) — malformed *input* is
/// the decoder's concern.
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    // The payload is written in place behind a header slot, which is
    // filled in once the payload's length and CRC are known.
    const HEADER: usize = FRAME_HEADER_BYTES as usize;
    let mut frame = vec![0u8; HEADER];
    encode_payload(msg, &mut frame)?;
    let Ok(payload_len) = u32::try_from(frame.len() - HEADER) else {
        return err("frame payload exceeds the u32 length field");
    };
    let crc = crc32_tagged(msg.frame_type(), &frame[HEADER..]);
    frame[0..4].copy_from_slice(&FRAME_MAGIC);
    frame[4] = msg.frame_type();
    frame[5..9].copy_from_slice(&payload_len.to_le_bytes());
    frame[9..HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

// --------------------------------------------------------------- decoding

/// A validated frame header.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// Frame-type byte (must match a [`Message`] variant).
    pub frame_type: u8,
    /// Payload length in bytes (already checked against the budget).
    pub payload_len: u32,
    /// CRC-32/IEEE that `type byte || payload` must hash to.
    pub crc: u32,
}

/// Parse and validate the 13 header bytes: magic, known frame type, and
/// a payload length within `max_frame_bytes`. Rejecting the length here
/// — before the payload is read or allocated — is the stream-side
/// anti-OOM gate.
///
/// # Errors
/// Wrong magic, unknown type, or a length beyond the budget.
pub fn decode_header(bytes: &[u8; 13], max_frame_bytes: u64) -> Result<FrameHeader> {
    if bytes[0..4] != FRAME_MAGIC {
        return err("bad frame magic");
    }
    let frame_type = bytes[4];
    if !(1..=10).contains(&frame_type) {
        return err(format!("unknown frame type {frame_type}"));
    }
    let payload_len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
    if u64::from(payload_len) > max_frame_bytes.saturating_sub(FRAME_HEADER_BYTES) {
        return err(format!(
            "frame length {payload_len} exceeds the {max_frame_bytes}-byte budget"
        ));
    }
    let crc = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
    Ok(FrameHeader {
        frame_type,
        payload_len,
        crc,
    })
}

fn decode_payload(frame_type: u8, payload: &[u8], node_bound: u64) -> Result<Message> {
    let mut cur = Cursor::new(payload);
    let msg = match frame_type {
        1 => {
            let machine = id_u32(cur.varint()?, "machine")?;
            let proto = id_u32(cur.varint()?, "protocol version")?;
            Message::Hello { machine, proto }
        }
        2 => {
            let epoch = cur.u64()?;
            // Each node costs at least its degree varint (1 byte).
            let n = cur.checked_len(1)?;
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for v in 0..n {
                let degree = cur.checked_len(1)?;
                let neighbors = read_ids_delta(&mut cur, degree, n as u64)?;
                let v = id_u32(v as u64, "node id")?;
                edges.extend(neighbors.into_iter().map(|w| (v, w)));
            }
            Message::Welcome {
                epoch,
                graph: ppr_graph::csr::from_edges(n, &edges),
            }
        }
        3 => {
            let round = cur.u64()?;
            let count = cur.checked_len(1)?;
            let mut sources = Vec::with_capacity(count);
            for _ in 0..count {
                sources.push(bounded_id(cur.varint()?, node_bound)?);
            }
            Message::Request { round, sources }
        }
        4 => {
            let round = cur.u64()?;
            // Each pair costs >= 1 id byte + 8 weight bytes.
            let count = cur.checked_len(9)?;
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let u = bounded_id(cur.varint()?, node_bound)?;
                pairs.push((u, cur.f64_bits()?));
            }
            Message::RequestPref { round, pairs }
        }
        5 => {
            let round = cur.u64()?;
            let machine = cur.u32()?;
            let compute_seconds = cur.f64_bits()?;
            // Each vector costs at least its nnz varint (1 byte).
            let count = cur.checked_len(1)?;
            let mut vectors = Vec::with_capacity(count);
            for _ in 0..count {
                vectors.push(read_ppv(&mut cur, node_bound)?);
            }
            Message::Reply {
                round,
                machine,
                compute_seconds,
                vectors,
            }
        }
        6 => {
            let epoch = cur.u64()?;
            let n_nodes = cur.checked_len(1)?;
            let mut nodes = Vec::with_capacity(n_nodes);
            let mut adds = 0u64;
            for _ in 0..n_nodes {
                match cur.u8()? {
                    0 => {
                        nodes.push(NodeUpdate::Add);
                        adds += 1;
                    }
                    1 => nodes.push(NodeUpdate::Remove(bounded_id(cur.varint()?, node_bound)?)),
                    t => return err(format!("unknown node-update tag {t}")),
                }
            }
            // Edge updates may wire nodes added earlier in this batch.
            let edge_bound = node_bound.saturating_add(adds);
            let n_edges = cur.checked_len(3)?;
            let mut edge_updates = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                let tag = cur.u8()?;
                let u = bounded_id(cur.varint()?, edge_bound)?;
                let v = bounded_id(cur.varint()?, edge_bound)?;
                edge_updates.push(match tag {
                    0 => EdgeUpdate::Insert(u, v),
                    1 => EdgeUpdate::Remove(u, v),
                    t => return err(format!("unknown edge-update tag {t}")),
                });
            }
            Message::Update {
                epoch,
                delta: GraphDelta {
                    nodes,
                    edges: edge_updates,
                },
            }
        }
        7 => {
            let epoch = cur.u64()?;
            let machine = id_u32(cur.varint()?, "machine")?;
            Message::UpdateAck { epoch, machine }
        }
        8 => Message::Ping { seq: cur.u64()? },
        9 => {
            let seq = cur.u64()?;
            let machine = id_u32(cur.varint()?, "machine")?;
            let epoch = cur.u64()?;
            Message::Pong {
                seq,
                machine,
                epoch,
            }
        }
        10 => Message::Shutdown,
        t => return err(format!("unknown frame type {t}")),
    };
    if !cur.is_empty() {
        // A re-sealed CRC cannot smuggle trailing garbage past this.
        return err(format!(
            "{} trailing bytes after frame payload",
            cur.remaining()
        ));
    }
    Ok(msg)
}

fn id_u32(x: u64, what: &str) -> Result<u32> {
    u32::try_from(x).map_err(|_| CodecError::new(format!("{what} {x} exceeds u32")))
}

fn bounded_id(x: u64, bound: u64) -> Result<NodeId> {
    if x >= bound {
        return err(format!("id {x} out of bounds (node count {bound})"));
    }
    id_u32(x, "node id")
}

/// Decode one complete frame (header + payload), verifying the CRC and
/// that the payload is consumed exactly. `node_bound` caps every node id
/// in the payload; `max_frame_bytes` caps the declared length.
///
/// # Errors
/// Any malformed byte: wrong magic, unknown type, lying length, CRC
/// mismatch, truncation, out-of-bounds ids, non-monotone id chains, or
/// trailing payload bytes. Never panics, never allocates past the budget.
pub fn decode_frame(bytes: &[u8], node_bound: u64, max_frame_bytes: u64) -> Result<Message> {
    if bytes.len() < FRAME_HEADER_BYTES as usize {
        return err(format!("frame truncated at {} header bytes", bytes.len()));
    }
    let mut header = [0u8; 13];
    header.copy_from_slice(&bytes[..13]);
    let h = decode_header(&header, max_frame_bytes)?;
    let payload = &bytes[13..];
    if payload.len() != h.payload_len as usize {
        return err(format!(
            "frame length field says {} payload bytes, got {}",
            h.payload_len,
            payload.len()
        ));
    }
    if crc32_tagged(h.frame_type, payload) != h.crc {
        return err("frame CRC mismatch");
    }
    decode_payload(h.frame_type, payload, node_bound)
}

// ------------------------------------------------------- the size formula

/// Encoded size of a LEB128 varint.
pub fn varint_len(x: u64) -> u64 {
    (64 - x.max(1).leading_zeros() as u64).div_ceil(7)
}

/// Encoded payload size of one PPV block ([`write_ppv`] layout): nnz
/// varint + delta-coded ids + 8 raw bytes per magnitude.
pub fn ppv_payload_bytes(v: &SparseVector) -> u64 {
    let mut bytes = varint_len(v.nnz() as u64) + 8 * v.nnz() as u64;
    let mut prev: Option<NodeId> = None;
    for (id, _) in v.iter() {
        bytes += match prev {
            None => varint_len(u64::from(id)),
            Some(p) => varint_len(u64::from(id.saturating_sub(p))),
        };
        prev = Some(id);
    }
    bytes
}

/// Exact on-wire size of the [`Message::Reply`] frame carrying
/// `vectors` — **the** frame-size formula: the modeled transport charges
/// a machine's reply with this, and the socket transport measures
/// exactly this many bytes for it (pinned by `frame_formula_is_exact`
/// below and `tests/socket_cluster.rs`). Fixed-width round/machine
/// fields keep it a pure function of the answer.
pub fn reply_frame_bytes(vectors: &[SparseVector]) -> u64 {
    let payload = 8 // round
        + 4 // machine
        + 8 // compute_seconds
        + varint_len(vectors.len() as u64)
        + vectors.iter().map(ppv_payload_bytes).sum::<u64>();
    FRAME_HEADER_BYTES + payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_core::sparse::SparseVector;

    fn sample_vectors() -> Vec<SparseVector> {
        vec![
            SparseVector::from_entries(vec![(0, 0.5), (3, 0.25), (700, 1e-9)]),
            SparseVector::from_entries(vec![]),
            SparseVector::from_entries(vec![(999, f64::MIN_POSITIVE)]),
        ]
    }

    fn roundtrip(msg: &Message, bound: u64) -> Message {
        let frame = encode_frame(msg).expect("encode");
        decode_frame(&frame, bound, DEFAULT_MAX_FRAME_BYTES).expect("decode")
    }

    #[test]
    fn all_variants_roundtrip() {
        let graph = ppr_graph::csr::from_edges(4, &[(0, 1), (1, 2), (1, 3), (3, 0)]);
        let msgs = vec![
            Message::Hello {
                machine: 3,
                proto: PROTOCOL_VERSION,
            },
            Message::Welcome { epoch: 9, graph },
            Message::Request {
                round: 7,
                sources: vec![999, 0, 17],
            },
            Message::RequestPref {
                round: 8,
                pairs: vec![(4, 0.75), (900, 0.25)],
            },
            Message::Reply {
                round: 7,
                machine: 2,
                compute_seconds: 1.5e-3,
                vectors: sample_vectors(),
            },
            Message::Update {
                epoch: 3,
                delta: GraphDelta {
                    nodes: vec![NodeUpdate::Add, NodeUpdate::Remove(5)],
                    edges: vec![EdgeUpdate::Insert(1, 1000), EdgeUpdate::Remove(2, 3)],
                },
            },
            Message::UpdateAck {
                epoch: 3,
                machine: 1,
            },
            Message::Ping { seq: 42 },
            Message::Pong {
                seq: 42,
                machine: 1,
                epoch: 3,
            },
            Message::Shutdown,
        ];
        for msg in msgs {
            assert_eq!(roundtrip(&msg, 1000), msg);
        }
    }

    #[test]
    fn reply_preserves_f64_bits() {
        let v = SparseVector::from_entries(vec![(1, -0.0), (2, f64::NAN), (3, 1e-300)]);
        let msg = Message::Reply {
            round: 0,
            machine: 0,
            compute_seconds: 0.0,
            vectors: vec![v.clone()],
        };
        let Message::Reply { vectors, .. } = roundtrip(&msg, 10) else {
            panic!("variant changed in roundtrip");
        };
        let got: Vec<(NodeId, u64)> = vectors[0].iter().map(|(i, x)| (i, x.to_bits())).collect();
        let want: Vec<(NodeId, u64)> = v.iter().map(|(i, x)| (i, x.to_bits())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn frame_formula_is_exact() {
        for vectors in [sample_vectors(), vec![], vec![SparseVector::default()]] {
            let msg = Message::Reply {
                round: u64::MAX,
                machine: u32::MAX,
                compute_seconds: 123.456,
                vectors: vectors.clone(),
            };
            let frame = encode_frame(&msg).expect("encode");
            assert_eq!(
                frame.len() as u64,
                reply_frame_bytes(&vectors),
                "formula must equal the encoded frame size"
            );
        }
    }

    #[test]
    fn varint_len_matches_encoder() {
        for x in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, x);
            assert_eq!(varint_len(x), buf.len() as u64, "x = {x}");
        }
    }

    #[test]
    fn ids_out_of_bound_are_rejected() {
        let msg = Message::Request {
            round: 0,
            sources: vec![10],
        };
        let frame = encode_frame(&msg).expect("encode");
        assert!(decode_frame(&frame, 10, DEFAULT_MAX_FRAME_BYTES).is_err());
        assert!(decode_frame(&frame, 11, DEFAULT_MAX_FRAME_BYTES).is_ok());
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let msg = Message::Ping { seq: 1 };
        let mut frame = encode_frame(&msg).expect("encode");
        // Claim a 2 GiB payload; the header gate must refuse it long
        // before anyone tries to read or allocate that much.
        frame[5..9].copy_from_slice(&(2u32 << 30).to_le_bytes());
        let err = decode_frame(&frame, 10, DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn update_may_reference_nodes_added_in_batch() {
        let msg = Message::Update {
            epoch: 1,
            delta: GraphDelta {
                nodes: vec![NodeUpdate::Add],
                edges: vec![EdgeUpdate::Insert(3, 4)], // 4 == the added node
            },
        };
        let frame = encode_frame(&msg).expect("encode");
        assert_eq!(
            decode_frame(&frame, 4, DEFAULT_MAX_FRAME_BYTES).expect("in-batch add is in bounds"),
            msg
        );
    }
}
