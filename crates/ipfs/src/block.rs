//! Content-addressed blocks and the per-node block store.

use std::collections::HashMap;

use bytes::Bytes;

use crate::cid::Cid;

/// An immutable content-addressed block. [`Block::new`] is the only way to
/// make one, and it hashes: a block's CID is always its bytes' hash, so a
/// node that asked for a CID checks what arrived by comparing the two
/// (§III-A), and a block that never left the process is hashed once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    cid: Cid,
    data: Bytes,
}

impl Block {
    /// Creates a block, computing its CID from the data.
    pub fn new(data: Bytes) -> Block {
        Block {
            cid: Cid::of(&data),
            data,
        }
    }

    /// The block's CID.
    pub fn cid(&self) -> Cid {
        self.cid
    }

    /// The block's bytes.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a zero-length block.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A node-local store of blocks with pinning and size accounting.
#[derive(Default, Debug)]
pub struct BlockStore {
    blocks: HashMap<Cid, Block>,
    pins: HashMap<Cid, usize>,
    total_bytes: usize,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    /// Inserts a block; returns its CID. Idempotent.
    pub fn put(&mut self, block: Block) -> Cid {
        let (cid, len) = (block.cid(), block.len());
        if self.blocks.insert(cid, block).is_none() {
            self.total_bytes += len;
        }
        cid
    }

    /// Looks up a block by CID.
    pub fn get(&self, cid: &Cid) -> Option<&Block> {
        self.blocks.get(cid)
    }

    /// `true` if the store holds `cid`.
    pub fn contains(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    /// Pins a block so garbage collection never removes it.
    pub fn pin(&mut self, cid: Cid) {
        *self.pins.entry(cid).or_default() += 1;
    }

    /// Removes one pin; the block becomes collectable when pins reach zero.
    pub fn unpin(&mut self, cid: &Cid) {
        if let Some(count) = self.pins.get_mut(cid) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(cid);
            }
        }
    }

    /// Drops `cid` unless it is pinned.
    pub fn release(&mut self, cid: &Cid) {
        if self.pins.contains_key(cid) {
            return;
        }
        if let Some(block) = self.blocks.remove(cid) {
            self.total_bytes -= block.len();
        }
    }

    /// Drops all unpinned blocks; returns the number of bytes freed.
    pub fn gc(&mut self) -> usize {
        let mut freed = 0;
        self.blocks.retain(|cid, block| {
            let keep = self.pins.contains_key(cid);
            if !keep {
                freed += block.len();
            }
            keep
        });
        self.total_bytes -= freed;
        freed
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(data: &[u8]) -> Block {
        Block::new(Bytes::copy_from_slice(data))
    }

    #[test]
    fn block_integrity() {
        let b = block(b"payload");
        assert_eq!(b.cid(), Cid::of(b.data()));
        assert_ne!(block(b"tampered").cid(), b.cid());
    }

    #[test]
    fn put_get_contains() {
        let mut store = BlockStore::new();
        let b = block(b"one");
        let cid = store.put(b.clone());
        assert!(store.contains(&cid));
        assert_eq!(store.get(&cid), Some(&b));
        assert!(!store.contains(&Cid::of(b"other")));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn put_is_idempotent() {
        let mut store = BlockStore::new();
        store.put(block(b"dup"));
        store.put(block(b"dup"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 3);
    }

    #[test]
    fn gc_respects_pins() {
        let mut store = BlockStore::new();
        let keep = store.put(block(b"keep-me"));
        store.put(block(b"drop-me"));
        store.pin(keep);
        let freed = store.gc();
        assert_eq!(freed, 7);
        assert!(store.contains(&keep));
        assert_eq!(store.len(), 1);
        // Unpin then gc drops the rest.
        store.unpin(&keep);
        store.gc();
        assert!(store.is_empty());
    }

    #[test]
    fn gc_with_nothing_collectable_frees_nothing() {
        let mut store = BlockStore::new();
        assert_eq!(store.gc(), 0, "empty store");
        let a = store.put(block(b"four"));
        let b = store.put(block(b"sixsix"));
        store.pin(a);
        store.pin(b);
        assert_eq!(store.gc(), 0);
        assert_eq!(store.total_bytes(), 10);
        assert_eq!(store.len(), 2);
        // A pin on a block the store never held keeps nothing alive and
        // frees nothing.
        store.pin(Cid::of(b"absent"));
        store.unpin(&a);
        assert_eq!(store.gc(), 4);
        assert_eq!(store.total_bytes(), 6);
    }

    #[test]
    fn double_pin_requires_double_unpin() {
        let mut store = BlockStore::new();
        let cid = store.put(block(b"x"));
        store.pin(cid);
        store.pin(cid);
        store.unpin(&cid);
        store.gc();
        assert!(store.contains(&cid), "still pinned once");
        store.unpin(&cid);
        store.gc();
        assert!(!store.contains(&cid));
    }
}
