//! A counting global allocator: allocations made, bytes live, and the
//! high-water mark of live bytes.
//!
//! The benchmark runs on one thread, so each counter is updated with a
//! relaxed load and store instead of a locked read-modify-write: the
//! allocation path pays a few plain memory operations, not an atomic
//! instruction. A second thread could only lose counts, never corrupt
//! memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The allocator; installed with `#[global_allocator]` in `main.rs`.
pub struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on the side, so `System`'s guarantees
// carry over as they are.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Allocations (including reallocations) since the process started.
pub fn allocations() -> usize {
    ALLOCS.load(Relaxed)
}

/// Restart the high-water mark at the bytes live now, and return them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
