//! Deterministic fixed-size chunking of a blob into content-addressed
//! blocks, and the manifest that names them in order.
//!
//! What is left of chunked storage, which PR 18 removed after measuring it
//! (DESIGN.md §15): nothing in the storage path calls this module. It stays
//! only because the frozen `benchmark/` package times [`split`] as its
//! `ipfs.chunk_split_mb_s` kernel; delete the module together with that
//! kernel in the next PR that may edit `benchmark/`.

use bytes::Bytes;

use crate::block::Block;
use crate::cid::Cid;

/// The chunk size the `ipfs.chunk_split_mb_s` kernel splits at.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// The blob's total length plus the ordered `(cid, len)` list of its
/// chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    total_len: u64,
    chunks: Vec<(Cid, u32)>,
}

impl Manifest {
    /// Total length of the blob.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// The ordered `(cid, len)` chunk entries.
    pub fn chunks(&self) -> &[(Cid, u32)] {
        &self.chunks
    }
}

/// Splits `data` into fixed-size chunks and the manifest naming them.
///
/// Boundaries are a pure function of `(data, chunk_size)`: chunk `i`
/// covers `data[i*chunk_size ..]` up to `chunk_size` bytes. An empty blob
/// produces an empty manifest and no chunks.
pub fn split(data: &[u8], chunk_size: usize) -> (Manifest, Vec<Block>) {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let mut chunks = Vec::with_capacity(data.len().div_ceil(chunk_size));
    let mut blocks = Vec::with_capacity(chunks.capacity());
    for piece in data.chunks(chunk_size) {
        let block = Block::new(Bytes::copy_from_slice(piece));
        chunks.push((block.cid(), piece.len() as u32));
        blocks.push(block);
    }
    (
        Manifest {
            total_len: data.len() as u64,
            chunks,
        },
        blocks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Splits, then concatenates the blocks back in manifest order.
    fn round_trip(data: &[u8], chunk_size: usize) -> Vec<u8> {
        let (manifest, blocks) = split(data, chunk_size);
        assert_eq!(manifest.total_len(), data.len() as u64);
        assert_eq!(manifest.chunks().len(), blocks.len());
        let mut out = Vec::new();
        for (&(cid, len), block) in manifest.chunks().iter().zip(&blocks) {
            assert_eq!(cid, block.cid());
            assert_eq!(len as usize, block.data().len());
            out.extend_from_slice(block.data());
        }
        out
    }

    #[test]
    fn split_covers_the_blob_in_order() {
        let data = b"hello chunked world".to_vec();
        assert_eq!(round_trip(&data, 4), data);
        assert_eq!(round_trip(&data, 1), data);
        assert_eq!(round_trip(&data, 1024), data);
    }

    #[test]
    fn empty_blob_has_no_chunks() {
        let (manifest, blocks) = split(&[], 64);
        assert!(blocks.is_empty());
        assert_eq!(manifest.total_len(), 0);
        assert_eq!(manifest.chunks().len(), 0);
    }

    #[test]
    fn last_chunk_is_the_remainder() {
        let data = vec![7u8; 100];
        let (manifest, blocks) = split(&data, 32);
        assert_eq!(blocks.len(), 4);
        let lens: Vec<u32> = manifest.chunks().iter().map(|&(_, l)| l).collect();
        assert_eq!(lens, vec![32, 32, 32, 4]);
    }

    #[test]
    fn unchanged_prefix_has_identical_cids_across_rounds() {
        // Round r and round r+1 blobs share a 96-byte prefix; with a
        // 32-byte chunk size the first three chunk CIDs must match, so
        // only the changed tail re-ships.
        let mut round_a = vec![1u8; 128];
        let mut round_b = round_a.clone();
        round_b[100] = 2;
        round_a[127] = 3;
        let (ma, _) = split(&round_a, 32);
        let (mb, _) = split(&round_b, 32);
        assert_eq!(ma.chunks()[..3], mb.chunks()[..3]);
        assert_ne!(ma.chunks()[3], mb.chunks()[3]);
    }

    proptest! {
        /// The blocks concatenate back to the blob for arbitrary sizes,
        /// including empty and sub-chunk blobs.
        #[test]
        fn prop_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            chunk_size in 1usize..128,
        ) {
            prop_assert_eq!(round_trip(&data, chunk_size), data);
        }

        /// Chunk boundaries are deterministic: two runs over the same
        /// bytes produce the identical manifest (and so identical CIDs).
        #[test]
        fn prop_deterministic_boundaries(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            chunk_size in 1usize..128,
        ) {
            let (a, _) = split(&data, chunk_size);
            let (b, _) = split(&data, chunk_size);
            prop_assert_eq!(a, b);
        }

        /// An unchanged prefix yields identical chunk CIDs across rounds:
        /// only chunks past the first changed byte differ.
        #[test]
        fn prop_prefix_stability(
            data in proptest::collection::vec(any::<u8>(), 1..600),
            chunk_size in 1usize..128,
            flip in 0usize..600,
        ) {
            let flip = flip % data.len();
            let mut next = data.clone();
            next[flip] ^= 0xFF;
            let (a, _) = split(&data, chunk_size);
            let (b, _) = split(&next, chunk_size);
            let changed = flip / chunk_size;
            prop_assert_eq!(&a.chunks()[..changed], &b.chunks()[..changed]);
            prop_assert_ne!(a.chunks()[changed].0, b.chunks()[changed].0);
        }
    }
}
