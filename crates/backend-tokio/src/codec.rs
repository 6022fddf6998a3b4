//! Framing for [`Msg`] over a byte stream: `[u32 len][u64 from][payload]`.
//!
//! The payload layout is not defined here: it is the message's own
//! [`WireCost`] encoding, generated from the per-variant tables beside
//! `Msg` (ipls) and `IpfsWire` (dfl-ipfs) — the same tables the simulator
//! prices flows from. This module adds the frame header, the 64 MiB cap on
//! both the sending and the receiving side, and a reader that never trusts
//! a length prefix.

use dfl_ipfs::wire::FRAME_HEADER_BYTES;
use dfl_netsim::NodeId;
use ipls::protocol::WireCost;
use ipls::Msg;

pub use dfl_ipfs::wire::DecodeError;
pub use ipls::messages::{decode_msg, encode_msg};

/// Upper bound on a frame's payload length. The largest legitimate frame
/// is a full-model gradient blob (megabytes); anything claiming more is a
/// torn or hostile header, rejected **before** any allocation so a 4-byte
/// prefix can never reserve gigabytes. Senders refuse such a message
/// outright: every receiver would.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Encodes one `[u32 len][u64 from][payload]` frame to bytes (the unit
/// the transport's fault-injection shim drops, truncates, or duplicates),
/// or `InvalidInput` when the payload would exceed [`MAX_FRAME_BYTES`].
pub fn try_encode_frame(from: NodeId, msg: &Msg) -> std::io::Result<Vec<u8>> {
    let len = msg.encoded_len();
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("message of {len} bytes exceeds frame cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.extend_from_slice(&(from.index() as u64).to_le_bytes());
    msg.encode_into(&mut frame);
    Ok(frame)
}

/// [`try_encode_frame`] for messages known to fit.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`].
pub fn encode_frame(from: NodeId, msg: &Msg) -> Vec<u8> {
    try_encode_frame(from, msg).expect("message fits MAX_FRAME_BYTES")
}

/// Writes one `[u32 len][u64 from][payload]` frame; `InvalidInput`, with
/// nothing written, when the payload would exceed [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl std::io::Write, from: NodeId, msg: &Msg) -> std::io::Result<()> {
    w.write_all(&try_encode_frame(from, msg)?)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// Malformed input — a length prefix over [`MAX_FRAME_BYTES`], a payload
/// cut short by a torn connection, or garbage bytes — yields a clean
/// `Err`, never a panic, and never allocates more than the bytes that
/// actually arrived.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<(NodeId, Msg)>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut read = 0;
    while read < header.len() {
        match r.read(&mut header[read..])? {
            0 if read == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF mid-header",
                ))
            }
            n => read += n,
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let from = NodeId(u64::from_le_bytes(header[4..12].try_into().expect("8 bytes")) as usize);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    // Grow the buffer as bytes arrive rather than trusting the header:
    // a hostile length can then never reserve more memory than the peer
    // actually transmits.
    let mut payload = Vec::new();
    let mut chunk = [0u8; 8192];
    while payload.len() < len {
        let want = (len - payload.len()).min(chunk.len());
        match r.read(&mut chunk[..want])? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF mid-payload",
                ))
            }
            n => payload.extend_from_slice(&chunk[..n]),
        }
    }
    let msg = decode_msg(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some((from, msg)))
}

#[cfg(test)]
mod tests {
    // Per-variant layout, round-trip, truncation and trailing-byte checks
    // live in the root package's tests/wire_schema.rs, generated from the
    // schema tables; these tests cover the frame around the payload.
    use super::*;
    use dfl_ipfs::wire::TRANSPORT_OVERHEAD_BYTES;
    use dfl_ipfs::{Cid, IpfsWire};

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::StartRound { iter: 7 },
            Msg::RegisterGradient {
                trainer: 3,
                partition: 1,
                iter: 2,
                cid: Cid::of(b"blob"),
                commitment: Some([9u8; 33]),
                signature: Some([7u8; 65]),
            },
            Msg::Ipfs(IpfsWire::Put {
                data: vec![1u8; 74].into(),
                req_id: 14,
                replicate: 2,
            }),
        ]
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            let before = buf.len();
            write_frame(&mut buf, NodeId(3), &msg).unwrap();
            // What the simulator charges for the message is the frame
            // plus the TCP/IP share of the transport overhead.
            let tcp_ip = TRANSPORT_OVERHEAD_BYTES - FRAME_HEADER_BYTES as u64;
            assert_eq!(msg.wire_bytes(), (buf.len() - before) as u64 + tcp_ip);
        }
        let mut cursor = std::io::Cursor::new(buf);
        for msg in sample_msgs() {
            let (from, back) = read_frame(&mut cursor).unwrap().expect("frame");
            assert_eq!(from, NodeId(3));
            assert_eq!(encode_msg(&back), encode_msg(&msg));
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn over_cap_message_is_refused_by_the_sender() {
        // DirectGradient { trainer, partition, iter, data }: 1 tag byte,
        // three u64s and the u32 length prefix surround `data`.
        let fixed = 1 + 8 + 8 + 8 + 4;
        let msg = |data_len: usize| Msg::DirectGradient {
            trainer: 0,
            partition: 0,
            iter: 0,
            data: vec![0u8; data_len].into(),
        };
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, NodeId(1), &msg(MAX_FRAME_BYTES - fixed + 1))
            .expect_err("over-cap frame written");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "a refused frame must not touch the stream");
        // The cap is exact: one byte less is a frame receivers accept.
        let frame = try_encode_frame(NodeId(1), &msg(MAX_FRAME_BYTES - fixed)).unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + MAX_FRAME_BYTES);
        assert_eq!(frame[..4], (MAX_FRAME_BYTES as u32).to_le_bytes());
    }

    // -- framing robustness: malformed input must yield clean errors,
    // never panics, and never allocate beyond the bytes that arrived.

    fn read_one(bytes: &[u8]) -> std::io::Result<Option<(NodeId, Msg)>> {
        read_frame(&mut std::io::Cursor::new(bytes))
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A header claiming u32::MAX (≈4 GiB) must fail the cap check —
        // if the old `vec![0; len]` pre-allocation were still there, this
        // test would OOM long before the assert.
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(b"tiny");
        let err = read_one(&frame).expect_err("oversized frame accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        // One past the cap fails; the cap boundary itself only fails for
        // lack of payload bytes (EOF), proving the check is exact.
        let mut frame = Vec::new();
        frame.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let err = read_one(&frame).expect_err("over-cap frame accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let err = read_one(&frame).expect_err("truncated at-cap frame accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_payload_is_a_clean_eof_error() {
        let mut frame = Vec::new();
        write_frame(&mut frame, NodeId(2), &sample_msgs()[1]).unwrap();
        // Every proper prefix longer than the header is a torn payload —
        // exactly what a chaos truncation or a mid-frame reset produces.
        for cut in 13..frame.len() {
            let err = read_one(&frame[..cut]).expect_err("torn frame decoded");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
        // Header-only prefixes (past byte 0) are EOF-mid-header.
        for cut in 1..12 {
            let err = read_one(&frame[..cut]).expect_err("torn header decoded");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // A cut at zero is a clean end-of-stream, not an error.
        assert!(read_one(&[]).unwrap().is_none());
    }

    #[test]
    fn garbage_sender_id_and_payload_fail_without_panic() {
        // An absurd sender id decodes structurally (NodeId is just an
        // index; routing rejects unknown peers) — but garbage *payload*
        // bytes must be an InvalidData error.
        let payload = encode_msg(&Msg::StartRound { iter: 3 });
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&payload);
        let (from, msg) = read_one(&frame).unwrap().expect("frame");
        assert_eq!(from, NodeId(u64::MAX as usize));
        assert!(matches!(msg, Msg::StartRound { iter: 3 }));

        let garbage = [0xFFu8; 24];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&garbage);
        let err = read_one(&frame).expect_err("garbage payload decoded");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_bytes_after_the_payload_poison_only_the_next_frame() {
        // The stream stays frame-aligned: a valid frame followed by junk
        // decodes the frame, then errors on the junk instead of panicking
        // or absorbing it into the previous message.
        let mut buf = Vec::new();
        write_frame(&mut buf, NodeId(1), &Msg::StartRound { iter: 9 }).unwrap();
        buf.extend_from_slice(&[0xAB; 7]);
        let mut cursor = std::io::Cursor::new(buf);
        let (_, msg) = read_frame(&mut cursor).unwrap().expect("first frame");
        assert!(matches!(msg, Msg::StartRound { iter: 9 }));
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn fuzzed_headers_never_panic_and_never_overallocate() {
        // SplitMix64-driven fuzz: random 12-byte headers with random
        // (bounded) payload bytes. Every outcome must be a clean Ok/Err
        // — a panic or runaway allocation fails the test by construction.
        let mut state = 0x5EED_F00D_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2_000 {
            let claimed = (next() % 4096) as u32;
            let actual = (next() % 64) as usize;
            let mut frame = Vec::new();
            frame.extend_from_slice(&claimed.to_le_bytes());
            frame.extend_from_slice(&next().to_le_bytes());
            frame.extend((0..actual).map(|_| next() as u8));
            let _ = read_one(&frame); // must return, not panic
        }
        // And with hostile length prefixes specifically.
        for _ in 0..200 {
            let claimed = (MAX_FRAME_BYTES as u32).saturating_add((next() % 1024) as u32 + 1);
            let mut frame = Vec::new();
            frame.extend_from_slice(&claimed.to_le_bytes());
            frame.extend_from_slice(&next().to_le_bytes());
            let err = read_one(&frame).expect_err("over-cap accepted");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
