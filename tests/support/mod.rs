//! A counting global allocator for the memory tests. It books every live
//! byte of the process; allocations of 16 KiB and more are also booked by
//! size, and that table is copied at each new peak, so a test can print
//! what its peak was made of — the instrument that shows a copy nothing
//! reads any more, or a buffer sized by a bound instead of by its contents.
//!
//! The allocator counts the whole process, so a binary that includes this
//! module holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Allocations at least this large are booked by size.
const LARGE: usize = 16 * 1024;
/// Distinct large sizes the table can tell apart; more are only counted.
const SIZES: usize = 512;

pub const MIB: f64 = (1 << 20) as f64;

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

pub struct Counting;

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

/// Starts a measurement: the peak and its table restart from the live
/// heap now, which is returned.
pub fn start() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let mut ledger = LEDGER.lock().unwrap_or_else(PoisonError::into_inner);
    ledger.peak = live;
    ledger.at_peak = ledger.live;
    live
}

/// The live-heap peak since [`start`] returned `before`, above `before`.
pub fn peak_since(before: usize) -> usize {
    PEAK.load(Ordering::Relaxed) - before
}

/// Prints the largest allocations, by total, live at the peak since
/// [`start`] returned `before`.
pub fn print_peak(before: usize) {
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
        ledger_peak.saturating_sub(before) as f64 / MIB
    );
    for (size, n) in sizes.iter().take(12) {
        let total = (size * n) as f64 / MIB;
        println!("  {n:>4} × {size:>9} B = {total:6.1} MiB");
    }
}
