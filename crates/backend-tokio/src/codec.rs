//! Framing for [`Msg`] over a byte stream: `[u32 len][u64 from][payload]`.
//!
//! The payload layout is not defined here: it is the message's own
//! [`WireCost`] encoding, generated from the per-variant tables beside
//! `Msg` (ipls) and `IpfsWire` (dfl-ipfs) — the same tables the simulator
//! prices flows from. This module adds the frame header, the 64 MiB cap on
//! both the sending and the receiving side, and a reader that never trusts
//! a length prefix.
//!
//! A blob's bytes are touched once on each side of a socket. Sending, the
//! frame is a [`Segments`] list — header and small fields in buffers of
//! their own, each large `Bytes` field by reference — handed to
//! `write_vectored`, so the kernel copies the blob out of the message's own
//! allocation ([`encode_frame`] still flattens, for callers that want one
//! buffer). Receiving, [`read_frame`] reads the payload straight into the
//! buffer it then wraps in one `Bytes`, and the decoded message's large
//! fields are slices of that buffer: the allocation the socket filled is
//! the allocation a storage node keeps.

use std::io::{self, ErrorKind, IoSlice, Read, Write};

use bytes::Bytes;
use dfl_ipfs::wire::{Segments, Sink, FRAME_HEADER_BYTES};
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

/// The receive buffer's first reservation, and the least it grows by: a
/// frame up to this size is one exact allocation.
const READ_STEP_MIN: usize = 64 << 10;

/// One `[u32 len][u64 from][payload]` frame in a sink made by
/// `with_capacity(frame length)`, or `InvalidInput` when the payload would
/// exceed [`MAX_FRAME_BYTES`].
fn frame_in<S: Sink>(with_capacity: fn(usize) -> S, from: NodeId, msg: &Msg) -> io::Result<S> {
    let len = msg.encoded_len();
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("message of {len} bytes exceeds frame cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut frame = with_capacity(FRAME_HEADER_BYTES + len);
    frame.put(&(len as u32).to_le_bytes());
    frame.put(&(from.index() as u64).to_le_bytes());
    msg.encode_into(&mut frame);
    Ok(frame)
}

/// Encodes one `[u32 len][u64 from][payload]` frame to flat bytes, or
/// `InvalidInput` when the payload would exceed [`MAX_FRAME_BYTES`].
pub fn try_encode_frame(from: NodeId, msg: &Msg) -> io::Result<Vec<u8>> {
    frame_in(Vec::with_capacity, from, msg)
}

/// [`try_encode_frame`] without the blob copies: the same bytes as a
/// segment list that borrows the message's large fields. This is the unit
/// the transport writes and its fault-injection shim drops, truncates,
/// duplicates or delays.
pub(crate) fn try_encode_segments(from: NodeId, msg: &Msg) -> io::Result<Segments> {
    frame_in(Segments::with_capacity, from, msg)
}

/// [`try_encode_frame`] for messages known to fit.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`].
pub fn encode_frame(from: NodeId, msg: &Msg) -> Vec<u8> {
    // The documented panic is this function's contract: the transport
    // calls `try_encode_segments`, and `encode_frame` is kept, as public
    // API, for callers that build their own in-range messages.
    #[allow(clippy::expect_used)]
    try_encode_frame(from, msg).expect("message fits MAX_FRAME_BYTES")
}

/// Writes the first `limit` bytes of `frame` (all of it when `limit` is
/// its length) with vectored writes, so no segment is copied in user space
/// to be sent.
pub(crate) fn write_prefix(w: &mut impl Write, frame: &Segments, limit: usize) -> io::Result<()> {
    let mut left = limit;
    let mut slices: Vec<IoSlice<'_>> = frame
        .slices()
        .map_while(|slice| {
            let clipped = &slice[..slice.len().min(left)];
            left -= clipped.len();
            (!clipped.is_empty()).then_some(IoSlice::new(clipped))
        })
        .collect();
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one `[u32 len][u64 from][payload]` frame; `InvalidInput`, with
/// nothing written, when the payload would exceed [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, from: NodeId, msg: &Msg) -> io::Result<()> {
    let frame = try_encode_segments(from, msg)?;
    write_prefix(w, &frame, frame.len())
}

/// Reads `len` payload bytes from `r` straight into `payload` (empty on
/// entry), growing it as bytes arrive rather than trusting `len`: each
/// step reserves exactly as much again as has arrived (at least
/// [`READ_STEP_MIN`]), clipped to what `len` still lacks. So at any moment
/// — and in `payload` as left behind by an error — capacity ≤
/// max(64 KiB, 2 × bytes arrived), and a finished buffer's capacity is
/// `len` exactly: it is about to become a stored blob, and slack there is
/// resident memory for as long as the blob lives.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> io::Result<()> {
    while payload.len() < len {
        let have = payload.len();
        let step = (len - have).min(have.max(READ_STEP_MIN));
        payload.reserve_exact(step);
        if r.by_ref().take(step as u64).read_to_end(payload)? < step {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "EOF mid-payload"));
        }
    }
    Ok(())
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// Malformed input — a length prefix over [`MAX_FRAME_BYTES`], a payload
/// cut short by a torn connection, or garbage bytes — yields a clean
/// `Err`, never a panic. The length prefix reserves nothing by itself:
/// the buffer's capacity never exceeds max(64 KiB, 2 × the bytes that
/// actually arrived), and is exactly the payload length once the frame is
/// whole. Large `Bytes` fields of the returned message are slices of that
/// buffer, not copies.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(NodeId, Msg)>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut read = 0;
    while read < header.len() {
        match r.read(&mut header[read..])? {
            0 if read == 0 => return Ok(None),
            0 => return Err(io::Error::new(ErrorKind::UnexpectedEof, "EOF mid-header")),
            n => read += n,
        }
    }
    let [l0, l1, l2, l3, f0, f1, f2, f3, f4, f5, f6, f7] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let from = NodeId(u64::from_le_bytes([f0, f1, f2, f3, f4, f5, f6, f7]) as usize);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    let msg = Msg::decode_shared(&Bytes::from(payload))
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
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

    // -- the receive buffer: grown by what arrived, finished without slack.

    /// Hands out `data` at most `per_read` bytes a call, then EOF.
    struct Trickle<'a> {
        data: &'a [u8],
        per_read: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.per_read.min(buf.len()).min(self.data.len());
            let (head, rest) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = rest;
            Ok(n)
        }
    }

    #[test]
    fn a_trickled_megabyte_ends_in_a_buffer_of_exactly_its_length() {
        let len = 1 << 20;
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let mut payload = Vec::new();
        let mut trickle = Trickle {
            data: &data,
            per_read: 7,
        };
        read_payload(&mut trickle, len, &mut payload).unwrap();
        assert_eq!(payload, data);
        assert_eq!(payload.capacity(), len, "the finished buffer has slack");

        // Whole, through `read_frame`: the blob *is* that buffer.
        let msg = Msg::Ipfs(IpfsWire::Replicate { data: data.into() });
        let frame = encode_frame(NodeId(5), &msg);
        let mut trickle = Trickle {
            data: &frame,
            per_read: 4099,
        };
        let (from, back) = read_frame(&mut trickle).unwrap().expect("frame");
        assert_eq!(from, NodeId(5));
        assert_eq!(encode_msg(&back), encode_msg(&msg));
    }

    #[test]
    fn capacity_follows_the_bytes_that_arrived_never_the_header() {
        // A header may claim the cap; what the peer then sends decides how
        // much is reserved. The buffer a failed read leaves behind is the
        // buffer at the moment the stream ended.
        let data = vec![0xA5u8; (1 << 20) + 1];
        for arrived in [
            0,
            1,
            100,
            65_535,
            65_536,
            65_537,
            200_000,
            1 << 20,
            data.len(),
        ] {
            for per_read in [5, 8192, usize::MAX] {
                let mut payload = Vec::new();
                let mut trickle = Trickle {
                    data: &data[..arrived],
                    per_read,
                };
                let err = read_payload(&mut trickle, MAX_FRAME_BYTES, &mut payload)
                    .expect_err("a 64 MiB frame out of a megabyte");
                assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
                assert_eq!(payload.len(), arrived);
                assert!(
                    payload.capacity() <= (2 * arrived).max(READ_STEP_MIN),
                    "{arrived} bytes arrived, {} reserved",
                    payload.capacity()
                );
            }
        }
        // A frame that fits the first step is one exact allocation.
        let mut payload = Vec::new();
        read_payload(&mut &data[..100], 100, &mut payload).unwrap();
        assert_eq!(payload.capacity(), 100);
    }

    // -- a blob is touched once per side: pointer identity, not timings.

    fn inside(inner: &[u8], outer: &[u8]) -> bool {
        let range = outer.as_ptr_range();
        range.start <= inner.as_ptr() && inner.as_ptr_range().end <= range.end
    }

    #[test]
    fn a_decoded_blob_is_a_slice_of_its_frame_and_small_fields_are_not() {
        let blob: Vec<u8> = (0..8192).map(|i| i as u8).collect();
        let msg = Msg::Ipfs(IpfsWire::PubGossip {
            topic: "sync/3".to_string(),
            data: blob.clone().into(),
            publisher: NodeId(9),
        });
        let frame = Bytes::from(encode_msg(&msg));
        let Msg::Ipfs(IpfsWire::PubGossip { topic, data, .. }) =
            Msg::decode_shared(&frame).unwrap()
        else {
            panic!("another variant came back");
        };
        assert_eq!(data, blob);
        assert!(
            inside(&data, &frame),
            "the blob was copied out of its frame"
        );
        assert!(!inside(topic.as_bytes(), &frame));
        // The blob alone keeps the frame alive, and is the last thing to.
        assert!(!frame.is_unique());
        drop(data);
        assert!(frame.is_unique(), "something else still pins the frame");

        // A field under the threshold is copied, so it cannot pin a frame
        // it is a sliver of.
        let small = Msg::ReportMisbehavior {
            record: vec![7u8; 33].into(),
        };
        let frame = Bytes::from(encode_msg(&small));
        let Msg::ReportMisbehavior { record } = Msg::decode_shared(&frame).unwrap() else {
            panic!("another variant came back");
        };
        assert_eq!(record, vec![7u8; 33]);
        assert!(!inside(&record, &frame));
        assert!(frame.is_unique());

        // The plain path never shares: it has nothing to share with.
        let Msg::Ipfs(IpfsWire::PubGossip { data, .. }) = decode_msg(&encode_msg(&msg)).unwrap()
        else {
            panic!("another variant came back");
        };
        assert_eq!(data, blob);
    }

    #[test]
    fn a_segmented_put_holds_the_messages_own_blob_and_flattens_to_the_frame() {
        let data = Bytes::from((0..8192).map(|i| (i >> 3) as u8).collect::<Vec<u8>>());
        let msg = Msg::Ipfs(IpfsWire::Put {
            data: data.clone(),
            req_id: 14,
            replicate: 2,
        });
        let frame = try_encode_segments(NodeId(3), &msg).unwrap();
        let slices: Vec<&[u8]> = frame.slices().collect();
        // Header, tags and length prefix; the blob; the two integers.
        assert_eq!(slices.len(), 3);
        assert!(std::ptr::eq(slices[1], &data[..]), "the blob was copied");
        assert_eq!(slices[2].len(), 16);
        assert_eq!(slices.concat(), encode_frame(NodeId(3), &msg));
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + msg.encoded_len());

        // A small message is one segment, all copied.
        let small = &sample_msgs()[2];
        let frame = try_encode_segments(NodeId(3), small).unwrap();
        assert_eq!(frame.slices().count(), 1);
        assert_eq!(
            frame.slices().next().unwrap(),
            &encode_frame(NodeId(3), small)[..]
        );
    }

    /// Accepts at most `per_write` bytes a call and, like a socket under
    /// pressure, may stop in the middle of a slice.
    struct Dribble {
        wire: Vec<u8>,
        per_write: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.per_write.min(buf.len());
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.per_write;
            for buf in bufs {
                let n = left.min(buf.len());
                self.wire.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.per_write - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_prefix_of_a_segmented_frame_is_that_prefix_of_the_flat_frame() {
        let msg = Msg::Ipfs(IpfsWire::Put {
            data: vec![0x3Cu8; 4500].into(),
            req_id: 1,
            replicate: 1,
        });
        let frame = try_encode_segments(NodeId(0), &msg).unwrap();
        let flat = encode_frame(NodeId(0), &msg);
        assert_eq!(frame.slices().count(), 3);
        for per_write in [1, 7, 4096, usize::MAX] {
            let limits = [
                0,
                1,
                17,
                18,
                19,
                flat.len() / 2,
                flat.len() - 17,
                flat.len() - 1,
            ];
            for limit in limits.into_iter().chain([flat.len()]) {
                let mut w = Dribble {
                    wire: Vec::new(),
                    per_write,
                };
                write_prefix(&mut w, &frame, limit).unwrap();
                assert_eq!(w.wire, flat[..limit], "limit {limit}, {per_write} a write");
            }
        }
        // A writer that takes nothing is an error, not a spin.
        let mut stuck = Dribble {
            wire: Vec::new(),
            per_write: 0,
        };
        let err = write_prefix(&mut stuck, &frame, 10).expect_err("wrote into a full pipe");
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }
}
