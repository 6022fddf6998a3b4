//! The wire schema: one trait, its field primitives, and the table macro
//! that turns a per-variant declaration into an enum plus its codec.
//!
//! Layout rules, shared by every message: one tag byte per enum variant,
//! then the variant's fields in declaration order; integers little-endian
//! and fixed-width (`usize` and node ids as `u64`); byte strings, strings
//! and lists behind a `u32` length/count; `Option`s behind a presence
//! byte; CIDs, commitments and signatures as raw fixed-size arrays.
//!
//! The same [`WireCost`] impl yields the bytes a socket carries
//! ([`WireCost::encode_into`] / [`WireCost::decode`]) and the size the
//! simulator charges ([`WireCost::wire_bytes`]), so the two cannot drift.
//!
//! A blob is not copied by its codec. There is one encoder per message,
//! generic over where the bytes go ([`Sink`]): into a `Vec<u8>` every
//! field is copied, into [`Segments`] a large [`Bytes`] field is kept by
//! reference for a vectored write. There is one decoder per message, over
//! a [`Reader`] that may know the buffer it reads from is itself a
//! `Bytes` ([`WireCost::decode_shared`]): a large `Bytes` field is then a
//! [`slice`](Bytes::slice) of that buffer. "Large" is one private
//! threshold, `SHARE_MIN_BYTES`, on both sides: below it a copy is
//! cheaper than a segment, and a decoded 33-byte field must never keep a
//! megabyte frame alive.

use bytes::Bytes;
use dfl_netsim::NodeId;

use crate::cid::Cid;

/// Bytes of the `[u32 payload length][u64 sender id]` header a transport
/// puts in front of every encoded message.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Bytes every message costs on a link beyond its own encoding: the
/// [`FRAME_HEADER_BYTES`] frame header plus one 40-byte TCP/IPv4 header
/// pair — the least a message pays below the socket. Charged once per
/// message, not per segment: the per-segment headers of a multi-segment
/// blob scale with its size (≈ 2.7 % at a 1 500-byte MTU) and belong to
/// the link's bandwidth figure, not to the message.
pub const TRANSPORT_OVERHEAD_BYTES: u64 = FRAME_HEADER_BYTES as u64 + 40;

/// A malformed encoding: truncated input, unknown tag, bad flag or UTF-8,
/// or trailing bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded when the input ran out or made no sense.
    pub context: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Smallest [`Bytes`] field that is shared instead of copied: kept by
/// reference in [`Segments`] on the way out, sliced out of the frame
/// buffer by a [`Reader::shared`] on the way in. A field that shares a
/// frame keeps all of it alive, so the frame can outweigh the longest-lived
/// of its shared fields by at most the rest of the frame — in the protocol's
/// blob messages, a tag, a length prefix and a few integers.
const SHARE_MIN_BYTES: usize = 4096;

/// A cursor over the bytes still to decode.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The buffer `buf` is the tail of, when that is a `Bytes`.
    owner: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Starts at the front of `buf`; every decoded field is a copy.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, owner: None }
    }

    /// Starts at the front of `frame`; decoded `Bytes` fields of
    /// `SHARE_MIN_BYTES` or more are slices of `frame`, not copies.
    pub fn shared(frame: &'a Bytes) -> Reader<'a> {
        Reader {
            buf: frame,
            owner: Some(frame),
        }
    }

    /// Consumes the next `n` bytes, or fails without consuming any.
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError { context });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// [`take`](Reader::take) as a `Bytes`: a slice of the owner when
    /// there is one and `n` is large, a copy otherwise.
    fn take_bytes(&mut self, n: usize, context: &'static str) -> Result<Bytes, DecodeError> {
        let head = self.take(n, context)?;
        Ok(match self.owner {
            Some(owner) if n >= SHARE_MIN_BYTES => {
                let end = owner.len() - self.buf.len();
                owner.slice(end - n..end)
            }
            _ => Bytes::copy_from_slice(head),
        })
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], DecodeError> {
        let head = self.take(N, context)?;
        head.try_into().map_err(|_| DecodeError { context })
    }

    fn len_prefix(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        Ok(u32::decode_from(self, context)? as usize)
    }

    /// `value` if the input was consumed to its last byte.
    fn finish<T>(self, value: T) -> Result<T, DecodeError> {
        if self.buf.is_empty() {
            Ok(value)
        } else {
            Err(DecodeError {
                context: "trailing bytes",
            })
        }
    }
}

/// Where an encoding goes: [`WireCost::encode_into`] is written once
/// against this, so a flat buffer and a segment list cannot disagree about
/// a layout.
pub trait Sink {
    /// Appends `bytes`, copying them.
    fn put(&mut self, bytes: &[u8]);

    /// Appends the content of a [`Bytes`] field (its length prefix is
    /// [`put`](Sink::put) separately). A sink that can hold a reference
    /// keeps a large one without copying it.
    fn put_bytes(&mut self, bytes: &Bytes) {
        self.put(bytes);
    }
}

/// The flat encoding: every byte is copied into the vector.
impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

enum Segment {
    Copied(Vec<u8>),
    Shared(Bytes),
}

/// An encoding as the list of slices a vectored write takes: runs of small
/// fields copied into buffers of their own, and between them every
/// [`Bytes`] field of `SHARE_MIN_BYTES` or more by reference — the
/// message's own allocation, not a copy of it. Concatenated, the slices are
/// exactly the flat encoding.
pub struct Segments {
    parts: Vec<Segment>,
    len: usize,
}

impl Segments {
    /// An empty list whose first copied run has room for `capacity` bytes
    /// (capped at the sharing threshold: a frame much longer than that
    /// holds a shared field, and its copied runs are short).
    pub fn with_capacity(capacity: usize) -> Segments {
        let head = Vec::with_capacity(capacity.min(SHARE_MIN_BYTES));
        Segments {
            parts: vec![Segment::Copied(head)],
            len: 0,
        }
    }

    /// Total bytes across all slices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The non-empty slices, in wire order.
    pub fn slices(&self) -> impl Iterator<Item = &[u8]> {
        let slices = self.parts.iter().map(|part| match part {
            Segment::Copied(run) => &run[..],
            Segment::Shared(bytes) => &bytes[..],
        });
        slices.filter(|s| !s.is_empty())
    }
}

impl Sink for Segments {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        match self.parts.last_mut() {
            Some(Segment::Copied(run)) => run.extend_from_slice(bytes),
            _ => self.parts.push(Segment::Copied(bytes.to_vec())),
        }
    }

    fn put_bytes(&mut self, bytes: &Bytes) {
        if bytes.len() < SHARE_MIN_BYTES {
            return self.put(bytes);
        }
        self.len += bytes.len();
        self.parts.push(Segment::Shared(bytes.clone()));
    }
}

fn put_len(out: &mut impl Sink, len: usize) {
    // Proof: no field of 4 GiB is ever encoded — the socket codec checks
    // `encoded_len` against its 64 MiB cap first; netsim only prices.
    #[allow(clippy::expect_used)]
    let len = u32::try_from(len).expect("length prefix fits u32: frames are capped at 64 MiB");
    out.put(&len.to_le_bytes());
}

/// A value with a wire encoding: how it is written, read back, sized,
/// and what it costs on a simulated link. Implemented here for the field
/// types messages are built from and, through [`wire_enum!`](crate::wire_enum),
/// for the message enums themselves.
pub trait WireCost: Sized {
    /// Appends the encoding to `out`.
    fn encode_into<S: Sink>(&self, out: &mut S);

    /// Reads one value off the front of `r`; `context` names the enclosing
    /// variant in the error.
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError>;

    /// Exactly `encode_into`'s output length, without allocating.
    fn encoded_len(&self) -> usize;

    /// Parses a whole buffer; trailing bytes are an error.
    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let value = Self::decode_from(&mut r, "message")?;
        r.finish(value)
    }

    /// [`decode`](WireCost::decode) of a buffer that is itself a `Bytes`:
    /// the same value and the same errors, but large `Bytes` fields share
    /// `frame`'s storage (and keep it alive) instead of copying out of it.
    fn decode_shared(frame: &Bytes) -> Result<Self, DecodeError> {
        let mut r = Reader::shared(frame);
        let value = Self::decode_from(&mut r, "message")?;
        r.finish(value)
    }

    /// Bytes the message occupies on a link — what the simulator models
    /// transfer time from: its encoding plus [`TRANSPORT_OVERHEAD_BYTES`].
    fn wire_bytes(&self) -> u64 {
        self.encoded_len() as u64 + TRANSPORT_OVERHEAD_BYTES
    }
}

macro_rules! le_int {
    ($($int:ty),*) => {$(
        impl WireCost for $int {
            fn encode_into<S: Sink>(&self, out: &mut S) {
                out.put(&self.to_le_bytes());
            }
            fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
                Ok(<$int>::from_le_bytes(r.array(context)?))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$int>()
            }
        }
    )*};
}
le_int!(u8, u32, u64);

impl WireCost for usize {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        (*self as u64).encode_into(out);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok(u64::decode_from(r, context)? as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl WireCost for NodeId {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.index().encode_into(out);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok(NodeId(usize::decode_from(r, context)?))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

/// Raw fixed-size arrays: commitments (33 bytes) and signatures (65).
impl<const N: usize> WireCost for [u8; N] {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.put(self);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        r.array(context)
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl WireCost for Cid {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        out.put(self.as_bytes());
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok(Cid::from_bytes(r.array(context)?))
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl WireCost for Bytes {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        out.put_bytes(self);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        let len = r.len_prefix(context)?;
        r.take_bytes(len, context)
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl WireCost for String {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        out.put(self.as_bytes());
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        let len = r.len_prefix(context)?;
        String::from_utf8(r.take(len, context)?.to_vec()).map_err(|_| DecodeError { context })
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: WireCost> WireCost for Option<T> {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        match self {
            Some(value) => {
                out.put(&[1]);
                value.encode_into(out);
            }
            None => out.put(&[0]),
        }
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        match u8::decode_from(r, context)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r, context)?)),
            _ => Err(DecodeError { context }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl<T: WireCost> WireCost for Vec<T> {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        put_len(out, self.len());
        for item in self {
            item.encode_into(out);
        }
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        let count = r.len_prefix(context)?;
        // A hostile count reserves at most 64 Ki slots up front; the rest
        // grows only as items actually decode.
        let mut items = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            items.push(T::decode_from(r, context)?);
        }
        Ok(items)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(T::encoded_len).sum::<usize>()
    }
}

impl<A: WireCost, B: WireCost, C: WireCost> WireCost for (A, B, C) {
    fn encode_into<S: Sink>(&self, out: &mut S) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok((
            A::decode_from(r, context)?,
            B::decode_from(r, context)?,
            C::decode_from(r, context)?,
        ))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

/// Defines a message enum and its [`WireCost`] impl from one table: each
/// row is `tag => Variant { field: Type, … }` (or `tag => Variant(name:
/// Type)` for a newtype variant). A variant is encoded as its tag byte
/// followed by its fields in row order, each by its type's [`WireCost`]
/// impl — so the row *is* the variant's definition, layout and size.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( { $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? } )?
                    $( ( $inner:ident : $ity:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                    $( { $( $(#[$fmeta])* $field : $fty ),* } )?
                    $( ( $ity ) )?
            ),*
        }

        impl $crate::wire::WireCost for $name {
            fn encode_into<S: $crate::wire::Sink>(&self, out: &mut S) {
                match self {
                    $(
                        $name::$variant $( { $( $field ),* } )? $( ( $inner ) )? => {
                            $crate::wire::Sink::put(out, &[$tag]);
                            $( $( $crate::wire::WireCost::encode_into($field, out); )* )?
                            $( $crate::wire::WireCost::encode_into($inner, out); )?
                        }
                    )*
                }
            }

            fn decode_from(
                r: &mut $crate::wire::Reader<'_>,
                _context: &'static str,
            ) -> Result<Self, $crate::wire::DecodeError> {
                let tag = <u8 as $crate::wire::WireCost>::decode_from(
                    r,
                    concat!(stringify!($name), " tag"),
                )?;
                Ok(match tag {
                    $(
                        $tag => $name::$variant
                            $( { $(
                                $field: $crate::wire::WireCost::decode_from(r, stringify!($variant))?
                            ),* } )?
                            $( (
                                <$ity as $crate::wire::WireCost>::decode_from(r, stringify!($variant))?
                            ) )?,
                    )*
                    _ => {
                        return Err($crate::wire::DecodeError {
                            context: concat!("unknown ", stringify!($name), " tag"),
                        })
                    }
                })
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $(
                        $name::$variant $( { $( $field ),* } )? $( ( $inner ) )? => {
                            1 $( $( + $crate::wire::WireCost::encoded_len($field) )* )?
                                $( + $crate::wire::WireCost::encoded_len($inner) )?
                        }
                    )*
                }
            }
        }
    };
}
