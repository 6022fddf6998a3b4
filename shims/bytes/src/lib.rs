//! Offline stand-in for the `bytes` crate.
//!
//! The workspace builds in hermetic environments, so the subset of the
//! `bytes 1.x` API actually used — a cheaply clonable, immutable, shared
//! byte buffer that can hand out views of itself — is reimplemented here
//! as a window `(Arc<Vec<u8>>, offset, len)` and wired in as a path
//! dependency. The `Vec` is kept, not re-boxed as `Arc<[u8]>`, so
//! `Bytes::from(vec)` adopts the caller's allocation: `Arc::from(vec)`
//! has to allocate a second buffer (the reference counts sit in front of
//! the bytes) and copy into it, which doubles a megabyte blob's footprint
//! at the instant it is wrapped.
//!
//! Equality, ordering and hashing are by content, as in the real crate:
//! two windows with the same bytes are the same value wherever they sit
//! in whichever allocation.

#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer: a window into a shared
/// allocation. Clones and [`slice`](Bytes::slice)s share the allocation,
/// which lives until the last of them is dropped.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    offset: usize,
    len: usize,
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
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Whether this is the only handle to the allocation — no clone or
    /// slice of it is alive anywhere.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// A view of `range` (relative to this buffer) sharing its storage:
    /// no byte is copied, and the whole allocation stays alive for as
    /// long as the view does.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds of a buffer of {} bytes",
            self.len,
        );
        Bytes {
            data: self.data.clone(),
            offset: self.offset + start,
            len: end - start,
        }
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
        &self.data[self.offset..self.offset + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts `v`'s allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            offset: 0,
            len: v.len(),
            data: Arc::new(v),
        }
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

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        // The same window of the same allocation needs no look at the
        // bytes (what `Arc`'s own `==` did for clones before slices).
        let same_window = Arc::ptr_eq(&self.data, &other.data)
            && (self.offset, self.len) == (other.offset, other.len);
        same_window || **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        (**self).cmp(&**other)
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
        for &b in self.iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len > 32 {
            write!(f, "..{} bytes", self.len)?;
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

    fn hash_of(b: &Bytes) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn a_slice_shares_the_parents_storage() {
        let parent = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        let view = parent.slice(16..48);
        assert_eq!(view.len(), 32);
        assert_eq!(&view[..], &parent[16..48]);
        assert!(std::ptr::eq(view.as_ptr(), parent[16..].as_ptr()));
        // A slice of a slice is relative to the slice, not the parent.
        let inner = view.slice(8..=15);
        assert_eq!(&inner[..], &parent[24..32]);
        assert!(std::ptr::eq(inner.as_ptr(), parent[24..].as_ptr()));
        assert_eq!(inner.to_vec(), (24..32u8).collect::<Vec<u8>>());
    }

    #[test]
    fn a_slice_keeps_the_allocation_alive_and_releases_it() {
        let parent = Bytes::from(vec![3u8; 64]);
        assert!(parent.is_unique());
        let view = parent.slice(..8);
        assert!(!parent.is_unique());
        drop(parent);
        assert!(view.is_unique());
        assert_eq!(view, vec![3u8; 8]);
    }

    #[test]
    fn empty_and_full_ranges() {
        let parent = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(parent.slice(..), parent);
        assert!(std::ptr::eq(parent.slice(..).as_ptr(), parent.as_ptr()));
        assert_eq!(parent.slice(0..4), parent);
        for at in 0..=4 {
            let empty = parent.slice(at..at);
            assert!(empty.is_empty());
            assert_eq!(empty, Bytes::new());
        }
        assert_eq!(parent.slice(1..), [2u8, 3, 4][..]);
        assert_eq!(Bytes::new().slice(..), Bytes::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_range_past_the_end_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_range_past_the_end_of_a_slice_panics_even_inside_the_parent() {
        Bytes::from(vec![0u8; 8]).slice(0..4).slice(2..6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_decreasing_range_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        Bytes::from(vec![0u8; 4]).slice(3..1);
    }

    #[test]
    fn equality_order_and_hash_are_by_content_not_position() {
        let parent = Bytes::from(vec![7u8, 8, 9, 7, 8, 9, 1]);
        let (a, b) = (parent.slice(0..3), parent.slice(3..6));
        let own = Bytes::from(vec![7u8, 8, 9]);
        assert_eq!(a, b);
        assert_eq!(a, own);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&own));
        assert_eq!(a.cmp(&b), Ordering::Equal);
        // Same offset and length in different allocations, different bytes.
        assert_ne!(Bytes::from(vec![1u8, 2]), Bytes::from(vec![1u8, 3]));
        // Order is the slices' lexicographic order.
        assert!(parent.slice(6..) < a);
        assert!(a < parent.slice(0..4));
        let set: std::collections::HashSet<Bytes> = [a, b, own].into_iter().collect();
        assert_eq!(set.len(), 1);
    }
}
