//! Offline stand-in for the `bytes` crate.
//!
//! The workspace builds in hermetic environments, so the subset of the
//! `bytes 1.x` API actually used — a cheaply clonable, immutable, shared
//! byte buffer — is reimplemented here over `Arc<Vec<u8>>` and wired in
//! as a path dependency. The `Vec` is kept, not re-boxed as `Arc<[u8]>`,
//! so `Bytes::from(vec)` adopts the caller's allocation: `Arc::from(vec)`
//! has to allocate a second buffer (the reference counts sit in front of
//! the bytes) and copy into it, which doubles a megabyte blob's footprint
//! at the instant it is wrapped.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wraps a static byte slice (copied; cheapness is not load-bearing
    /// in the simulator).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts `v`'s allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(v: &'static [u8; N]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.data.len() > 32 {
            write!(f, "..{} bytes", self.data.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        assert_eq!(&a[1..], &[2, 3][..]);
        let s = Bytes::from_static(b"hello");
        assert_eq!(*s, *b"hello");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert!(std::ptr::eq(b.as_ptr(), ptr));
        assert_eq!(b.len(), 4096);
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }
}
