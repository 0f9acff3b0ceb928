//! The counting allocator behind the `*_allocs` ladder metrics and the
//! traced run's `alloc.*_per_op`. The binary installs it as its
//! `#[global_allocator]`; unit tests run on the system allocator.
//!
//! Counting is off unless [`set_counting`] turned it on: untraced runs
//! pay one relaxed load per allocation, not two contended read-modify-
//! writes, so the end-to-end numbers are not taxed by the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct CountingAllocator;

// SAFETY: every call forwards unchanged to `System`; the counters are
// plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`, as the caller's contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh backing allocation from the measured
        // code's point of view, so it counts.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to keep
        // within `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted so far while counting was on.
pub fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Is [`CountingAllocator`] this process's global allocator? False in
/// unit-test binaries; the ladder then reports `*_allocs` as 0 rather
/// than a number nobody counted.
pub fn is_installed() -> bool {
    let was = COUNTING.swap(true, Ordering::SeqCst);
    let before = counters().0;
    drop(std::hint::black_box(Vec::<u8>::with_capacity(64)));
    let after = counters().0;
    COUNTING.store(was, Ordering::SeqCst);
    after > before
}

/// Allocations and bytes `f` makes on this thread, counted with every
/// other thread idle (the ladder is single-threaded).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let was = COUNTING.swap(true, Ordering::SeqCst);
    let (a0, b0) = counters();
    let result = f();
    let (a1, b1) = counters();
    COUNTING.store(was, Ordering::SeqCst);
    (result, a1 - a0, b1 - b0)
}
