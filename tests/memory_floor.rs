//! The memory floor: one small fig2-shaped task over loopback TCP, with
//! blobs large enough to dominate the heap, must peak within 1.3 × what
//! its roles have to hold at their worst instants, plus a fixed allowance
//! for everything that does not scale with the model.
//!
//! A counting global allocator (this test binary only) books every live
//! byte. Allocations of 16 KiB and more are also booked by size, and that
//! table is copied at each new peak, so the test prints what the peak was
//! made of — the instrument that shows a copy nothing reads any more, or a
//! buffer sized by a bound instead of by its contents. The allocator
//! counts the whole process, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use decentralized_fl::ml::{data, Model, SgdConfig, SyntheticModel};
use decentralized_fl::prelude::*;
use dfl_backend_tokio::run_task_over_tcp;

/// Allocations at least this large are booked by size.
const LARGE: usize = 16 * 1024;
/// Distinct large sizes the table can tell apart; more are only counted.
const SIZES: usize = 512;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LEDGER: Mutex<Ledger> = Mutex::new(Ledger {
    live: [(0, 0); SIZES],
    at_peak: [(0, 0); SIZES],
    peak: 0,
});

/// Live large allocations as `(size, count)` slots, and their copy at the
/// highest live-heap total seen on a large allocation.
struct Ledger {
    live: [(usize, usize); SIZES],
    at_peak: [(usize, usize); SIZES],
    peak: usize,
}

impl Ledger {
    fn book(&mut self, size: usize, grow: bool, live: usize) {
        let slot = self
            .live
            .iter()
            .position(|&(s, _)| s == size)
            .or_else(|| self.live.iter().position(|&(s, _)| s == 0));
        if let Some(slot) = slot {
            let (s, n) = &mut self.live[slot];
            *s = size;
            *n = if grow { *n + 1 } else { n.saturating_sub(1) };
        }
        if grow && live > self.peak {
            self.peak = live;
            self.at_peak = self.live;
        }
    }
}

struct Counting;

impl Counting {
    fn book(size: usize, grow: bool) {
        let live = if grow {
            LIVE.fetch_add(size, Ordering::Relaxed) + size
        } else {
            LIVE.fetch_sub(size, Ordering::Relaxed) - size
        };
        PEAK.fetch_max(live, Ordering::Relaxed);
        if size >= LARGE {
            let mut ledger = LEDGER.lock().unwrap_or_else(PoisonError::into_inner);
            ledger.book(size, grow, live);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// around it never allocates (atomics and a futex-backed lock).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::book(layout.size(), true);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Counting::book(layout.size(), true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::book(layout.size(), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            Counting::book(layout.size(), false);
            Counting::book(new_size, true);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// Trainers 4, partitions 2 of 131 072 parameters, 2 aggregators a
/// partition, 2 storage nodes, 2 rounds: a 1 MiB blob per partition.
fn task() -> (TaskConfig, usize) {
    let cfg = TaskConfig {
        trainers: 4,
        partitions: 2,
        aggregators_per_partition: 2,
        ipfs_nodes: 2,
        comm: CommMode::Indirect,
        rounds: 2,
        poll_interval: SimDuration::from_millis(20),
        ..TaskConfig::default()
    };
    (cfg, 2 * 131_072)
}

/// What the roles must hold at the round's worst instant — aggregation —
/// in bytes:
///
/// * a trainer, waiting for its updates, holds its model state: its
///   parameters, the model's own copy and its `ParamSink` entry, three
///   model-sized `f32` vectors;
/// * storage holds the round's gradient blobs, one per trainer and
///   partition, 8 bytes a value, until the aggregators have fetched them;
/// * an aggregator summing its partial holds its trainer set's vectors,
///   the exact `i128` accumulator (two vectors' worth) and the partial,
///   8 bytes a value.
///
/// A trainer's round start (a fourth model vector and its blobs) comes
/// when nothing of the round is stored or summed yet, and is smaller. The
/// 30 % on top covers what is brief beside these: frames being read, the
/// partials stored, a peer's partial fetched.
fn floor(cfg: &TaskConfig, params: usize) -> usize {
    let model = 4 * params;
    let blob = 8 * (params / cfg.partitions + 1);
    let aggregators = cfg.partitions * cfg.aggregators_per_partition;
    let set = cfg.trainers / cfg.aggregators_per_partition;
    let trainer = 3 * model;
    let storage = cfg.trainers * cfg.partitions * blob;
    let aggregator = (set + 3) * blob;
    cfg.trainers * trainer + storage + aggregators * aggregator
}

/// What does not scale with the model: the readers' 8 KiB buffers, the
/// runtime, the trace, channel blocks and the small messages in flight.
const ALLOWANCE: usize = 2 << 20;

#[test]
fn the_live_heap_peak_stays_within_its_floor() {
    let (cfg, params) = task();
    let model = SyntheticModel::new(params, 1);
    let initial = model.params();
    let dataset = data::make_blobs(16, 2, 2, 0.5, 1);
    let clients = data::partition_iid(&dataset, cfg.trainers, 0);
    let floor = floor(&cfg, params);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);

    let report = run_task_over_tcp(cfg.clone(), model, initial, clients, SgdConfig::default())
        .expect("TCP run");
    assert!(report.succeeded(&cfg), "every round completes");

    let peak = PEAK.load(Ordering::Relaxed) - before;
    let bound = floor * 13 / 10 + ALLOWANCE;
    println!(
        "live-heap peak {:.1} MiB; floor {:.1} MiB; bound 1.3 × floor + {:.0} MiB = {:.1} MiB",
        peak as f64 / MIB,
        floor as f64 / MIB,
        ALLOWANCE as f64 / MIB,
        bound as f64 / MIB,
    );
    // Copied out and released at once: a large allocation made while the
    // lock is held (a panic's, say) would wait on it forever.
    let (at_peak, ledger_peak) = {
        let ledger = LEDGER.lock().unwrap_or_else(PoisonError::into_inner);
        (ledger.at_peak, ledger.peak)
    };
    let mut sizes: Vec<(usize, usize)> = at_peak.into_iter().filter(|&(_, n)| n > 0).collect();
    sizes.sort_unstable_by_key(|&(size, n)| std::cmp::Reverse(size * n));
    println!(
        "at the peak ({:.1} MiB), the largest allocations by total:",
        (ledger_peak - before) as f64 / MIB
    );
    for (size, n) in sizes.iter().take(12) {
        let total = (size * n) as f64 / MIB;
        println!("  {n:>4} × {size:>9} B = {total:6.1} MiB");
    }
    assert!(
        peak <= bound,
        "live-heap peak {peak} B exceeds 1.3 × the {floor} B floor + {ALLOWANCE} B"
    );
}
