//! A counting global allocator: live bytes, their peak, and allocation
//! counts, for `peak_heap_mb` and the `alloc.*` per-layer counts.
//!
//! The counters are process-wide atomics. [`reset_peak`] lowers the peak
//! to the current live heap, so each measured repetition (and each
//! workload of a multi-workload invocation) reads only its own peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] plus live-byte, peak and allocation counters.
pub struct CountingAlloc {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

impl CountingAlloc {
    fn grow(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data, so
// `Relaxed` ordering suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.shrink(layout.size() as u64);
            self.grow(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

/// Lowers the recorded peak to the heap live right now.
pub fn reset_peak() {
    ALLOC
        .peak
        .store(ALLOC.live.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The highest live heap since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    ALLOC.peak.load(Ordering::Relaxed)
}

/// Allocations (including reallocations) since the process started.
pub fn allocations() -> u64 {
    ALLOC.allocs.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation() {
        reset_peak();
        let before = peak_bytes();
        let count = allocations();
        let v: Vec<u8> = vec![1; 8 << 20];
        assert!(peak_bytes() >= before + (8 << 20));
        assert!(allocations() > count);
        drop(v);
    }
}
