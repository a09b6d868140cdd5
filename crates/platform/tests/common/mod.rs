//! The counting global allocator of the test binaries that pin
//! allocation counts. `mod common;` installs it for the whole binary;
//! [`counted`] reads it around one closure. The counters are
//! process-wide, so a binary either holds one test or serializes them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to the system allocator
// (the default `realloc` goes through `alloc`, so growth is counted
// too); the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(result, allocations made, largest single allocation)` of `f`.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (result, made, LARGEST.load(Ordering::Relaxed))
}
