//! Content identifiers.
//!
//! As in IPFS, data is addressed by the SHA-256 hash of its bytes
//! (`Cid = Hash(data)`, §III-C of the paper). A party that knows a CID can
//! verify any retrieved bytes against it; a party that does not know the CID
//! cannot locate the data — which is why the protocol needs a directory
//! service mapping addressing metadata to CIDs.

use std::fmt;

use dfl_crypto::sha256::Sha256;

/// A content identifier: the SHA-256 digest of the addressed bytes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid([u8; 32]);

impl Cid {
    /// Computes the CID of `data`.
    pub fn of(data: &[u8]) -> Cid {
        count_hash();
        Cid(Sha256::digest(data))
    }

    /// Wraps a raw digest (e.g. received over the wire).
    pub const fn from_bytes(bytes: [u8; 32]) -> Cid {
        Cid(bytes)
    }

    /// The raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The digest interpreted as a 256-bit big-endian integer — the
    /// coordinate used for XOR-metric routing.
    pub fn as_key(&self) -> dfl_crypto::bigint::U256 {
        dfl_crypto::bigint::U256::from_be_bytes(self.0)
    }

    /// Short human-readable prefix (first 8 hex chars).
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cid({}…)", self.short())
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Counts one SHA-256 pass in this thread's [`hashes`].
pub(crate) fn count_hash() {
    HASHES.with(|n| n.set(n.get() + 1));
}

thread_local! {
    static HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// SHA-256 passes [`Cid::of`] ran on this thread, and those
/// [`hash_in_flight`](crate::block::hash_in_flight) started from it on the
/// pool, whichever thread then ran them: lets a test pin how often a path
/// hashes a block.
#[doc(hidden)]
pub fn hashes() -> usize {
    HASHES.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_is_content_hash() {
        let cid = Cid::of(b"hello world");
        assert_eq!(*cid.as_bytes(), Sha256::digest(b"hello world"));
        assert_ne!(Cid::of(b"hello worlD"), cid);
    }

    #[test]
    fn equal_content_equal_cid() {
        assert_eq!(Cid::of(b"x"), Cid::of(b"x"));
        assert_ne!(Cid::of(b"x"), Cid::of(b"y"));
    }

    #[test]
    fn round_trip_bytes() {
        let cid = Cid::of(b"data");
        assert_eq!(Cid::from_bytes(*cid.as_bytes()), cid);
    }

    #[test]
    fn display_is_full_hex() {
        let s = Cid::of(b"abc").to_string();
        assert_eq!(s.len(), 64);
        assert!(s.starts_with(&Cid::of(b"abc").short()));
        // SHA-256 of "abc" is a known vector.
        assert!(s.starts_with("ba7816bf"));
    }
}
