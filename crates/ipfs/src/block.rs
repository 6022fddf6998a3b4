//! Content-addressed blocks and the per-node block store.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use dfl_crypto::pool::{self, Pending};
use dfl_crypto::sha256::Sha256;

use crate::cid::{self, Cid};

/// An immutable content-addressed block. [`Block::new`] is the only way to
/// make one, and it hashes, or takes the digest [`hash_in_flight`] computed
/// on exactly its bytes: a block's CID is always its bytes' hash, so a
/// node that asked for a CID checks what arrived by comparing the two
/// (§III-A), and a block that never left the process is hashed once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    cid: Cid,
    data: Bytes,
}

impl Block {
    /// Creates a block: its CID is the digest [`hash_in_flight`] started
    /// on `data`, if it did, or else is computed here.
    pub fn new(data: Bytes) -> Block {
        Block {
            cid: take_in_flight(&data).unwrap_or_else(|| Cid::of(&data)),
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

/// A digest [`hash_in_flight`] started and no [`Block::new`] has taken yet.
/// It holds its own handle on the buffer it hashes, so that memory cannot
/// be reused for other bytes while the entry can be found by its address;
/// the job shares that handle, so the buffer's count says whether anything
/// outside the table holds it.
struct InFlight {
    bytes: Arc<Bytes>,
    digest: Pending<[u8; 32]>,
}

/// The process's digests in flight, few at a time: each is taken by the
/// first block made of its bytes.
static IN_FLIGHT: Mutex<Vec<InFlight>> = Mutex::new(Vec::new());

/// The table, first rid of every entry whose buffer nothing else holds:
/// its message was lost, and no block can be made of those bytes any more.
/// Every update is one push, removal or `retain`, so a poisoned lock still
/// guards a valid table.
fn in_flight() -> MutexGuard<'static, Vec<InFlight>> {
    let mut table = IN_FLIGHT.lock().unwrap_or_else(PoisonError::into_inner);
    table.retain(|entry| !entry.bytes.is_unique());
    table
}

/// Whether `a` and `b` are the same window of the same buffer: where
/// their bytes start and how many there are.
fn same_window(a: &Bytes, b: &Bytes) -> bool {
    a.as_ptr() == b.as_ptr() && a.len() == b.len()
}

/// Starts hashing `data` on a spare core ([`dfl_crypto::pool`]) while the
/// bytes travel to the storage node that will store them; that node's
/// [`Block::new`] takes the digest instead of hashing on its own thread.
/// The simulator adapter calls this for each `Put` it sends. A socket
/// backend never does: its receiver hashes on the reader thread, and no
/// sender hashes.
pub fn hash_in_flight(data: &Bytes) {
    let mut table = in_flight();
    if table.iter().any(|entry| same_window(&entry.bytes, data)) {
        return; // sent again before it landed: the first to land takes it
    }
    cid::count_hash();
    let bytes = Arc::new(data.clone());
    let job = Arc::clone(&bytes);
    let digest = pool::defer(move || Sha256::digest(&job));
    table.push(InFlight { bytes, digest });
}

/// The CID of `data` if [`hash_in_flight`] started its digest: waited for,
/// or computed here if no worker has started it.
fn take_in_flight(data: &Bytes) -> Option<Cid> {
    let entry = {
        let mut table = in_flight();
        let at = table
            .iter()
            .position(|entry| same_window(&entry.bytes, data))?;
        table.swap_remove(at)
    };
    TAKEN.with(|n| n.set(n.get() + 1));
    Some(Cid::from_bytes(entry.digest.wait()))
}

thread_local! {
    static TAKEN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Blocks made on this thread that took a digest [`hash_in_flight`]
/// started: lets a test of a simulator backend check that its sends are
/// hashed in flight, and not again by their receivers.
#[doc(hidden)]
pub fn taken_in_flight() -> usize {
    TAKEN.get()
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

    use crate::cid::hashes;

    /// Held by every test that starts a hash in flight, so each may say
    /// what the process-wide table holds.
    fn table_to_myself() -> MutexGuard<'static, ()> {
        static TESTS: Mutex<()> = Mutex::new(());
        TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn in_flight_count() -> usize {
        in_flight().len()
    }

    #[test]
    fn a_hash_started_in_flight_is_the_blocks_cid_and_runs_once() {
        let _table = table_to_myself();
        let data = Bytes::from(vec![9u8; 5000]);
        let expected = Cid::of(&data);
        let (before, taken) = (hashes(), taken_in_flight());
        hash_in_flight(&data);
        hash_in_flight(&data.clone()); // sent twice before it lands
        assert_eq!(in_flight_count(), 1);
        let block = Block::new(data.clone());
        assert_eq!(block.cid(), expected);
        assert_eq!(hashes() - before, 1, "one pass, started in flight");
        assert_eq!(taken_in_flight() - taken, 1);
        assert_eq!(in_flight_count(), 0, "taken by the first block");
        Block::new(data);
        assert_eq!(hashes() - before, 2, "a second block hashes its own");
    }

    /// The digest goes only to the very window it hashed: not to another
    /// window of the same buffer, nor to equal bytes elsewhere.
    #[test]
    fn only_the_window_hashed_takes_its_digest() {
        let _table = table_to_myself();
        let whole = Bytes::from((0..10_000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let (front, back) = (whole.slice(..5000), whole.slice(5000..));
        hash_in_flight(&front);
        let before = hashes();
        let copy = Bytes::copy_from_slice(&front);
        for other in [back, whole.slice(..4999), whole.slice(1..5001), copy] {
            assert_eq!(Block::new(other.clone()).cid(), Cid::of(&other));
        }
        assert_eq!(hashes() - before, 8, "each of the four hashed its own");
        assert_eq!(in_flight_count(), 1);
        assert_eq!(Block::new(front.clone()).cid(), Cid::of(&front));
        assert_eq!(in_flight_count(), 0);
    }

    /// A message lost in flight leaves an entry nothing else holds: the
    /// next use of the table drops it, and with it the buffer.
    #[test]
    fn an_entry_whose_buffer_nothing_else_holds_is_dropped() {
        let _table = table_to_myself();
        let lost = Bytes::from(vec![1u8; 5000]);
        hash_in_flight(&lost);
        let kept = lost.slice(..10);
        assert_eq!(in_flight_count(), 1, "a slice still holds the buffer");
        drop((lost, kept));
        assert_eq!(in_flight_count(), 0);
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
