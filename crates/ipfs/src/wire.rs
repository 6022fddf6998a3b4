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

/// A cursor over the bytes still to decode.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
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

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N, context)?.try_into().expect("took N bytes"))
    }

    fn len_prefix(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        Ok(u32::decode_from(self, context)? as usize)
    }
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("length prefix fits u32: frames are capped at 64 MiB");
    out.extend_from_slice(&len.to_le_bytes());
}

/// A value with a wire encoding: how it is written, read back, sized,
/// and what it costs on a simulated link. Implemented here for the field
/// types messages are built from and, through [`wire_enum!`](crate::wire_enum),
/// for the message enums themselves.
pub trait WireCost: Sized {
    /// Appends the encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `r`; `context` names the enclosing
    /// variant in the error.
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError>;

    /// Exactly `encode_into`'s output length, without allocating.
    fn encoded_len(&self) -> usize;

    /// Parses a whole buffer; trailing bytes are an error.
    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let value = Self::decode_from(&mut r, "message")?;
        if r.buf.is_empty() {
            Ok(value)
        } else {
            Err(DecodeError {
                context: "trailing bytes",
            })
        }
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
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
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
    fn encode_into(&self, out: &mut Vec<u8>) {
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
    fn encode_into(&self, out: &mut Vec<u8>) {
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
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        r.array(context)
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl WireCost for Cid {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        Ok(Cid::from_bytes(r.array(context)?))
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl WireCost for Bytes {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self);
    }
    fn decode_from(r: &mut Reader<'_>, context: &'static str) -> Result<Self, DecodeError> {
        let len = r.len_prefix(context)?;
        Ok(Bytes::from(r.take(len, context)?.to_vec()))
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl WireCost for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
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
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => {
                out.push(1);
                value.encode_into(out);
            }
            None => out.push(0),
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
    fn encode_into(&self, out: &mut Vec<u8>) {
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
    fn encode_into(&self, out: &mut Vec<u8>) {
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
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $name::$variant $( { $( $field ),* } )? $( ( $inner ) )? => {
                            out.push($tag);
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
