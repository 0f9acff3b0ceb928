//! A counting global allocator for allocation-per-call measurements.
//!
//! The type lives in the library, but only binaries that opt in install
//! it (`#[global_allocator]` in the harness and in the alloc-guard
//! integration test). Installing it here would tax every dependent
//! test run with two counter bumps per allocation for no benefit.
//!
//! Counters are per thread: a measuring thread reads only what it
//! allocated itself, so a verdict does not depend on what sibling
//! threads (parallel tests, server workers) happen to allocate
//! meanwhile. Every measurement loop here is single-threaded, which is
//! exactly what a per-thread count is exact for. An operation that
//! crosses threads (an invocation: caller, reactor, inbox, worker) is
//! counted process-wide instead ([`process_allocations`]); what siblings
//! allocate meanwhile only ever adds to that, so the least of many
//! samples is the operation's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every thread's allocations. A statistic: it orders nothing.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisers and no destructors: touching these from
    // inside the allocator neither allocates nor runs lazy set-up.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

/// What [`large_allocations`] counts as large: half a 16 KiB payload,
/// so a payload-sized buffer counts however its growth was rounded and
/// nothing a small message allocates does.
const LARGE_ALLOCATION: usize = 8 * 1024;

/// Count one allocation of `size` bytes against the calling thread.
/// `try_with`: a thread's last frees and allocations can run after its
/// locals are torn down, and those need not be counted.
fn count(size: usize) {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
    if size >= LARGE_ALLOCATION {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

/// Forwarding allocator that counts `alloc` and `realloc` calls.
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh backing allocation from the
        // measured code's point of view, so it counts.
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (alloc + realloc calls) made by the calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap allocations made by every thread of the process.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by the calling thread.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocations of at least 8 KiB made by the calling thread — the
/// copies of a large message's payload.
pub fn large_allocations() -> u64 {
    LARGE.with(Cell::get)
}

/// Whether the counting allocator is actually installed in this
/// process. Library test binaries use the system allocator, so the
/// counters stay at zero there; measurement code uses this to report
/// "not counted" instead of a bogus 0.
pub fn is_installed() -> bool {
    let before = allocations();
    drop(std::hint::black_box(Vec::<u8>::with_capacity(64)));
    allocations() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_installed_in_library_tests() {
        // The lib test binary does not set #[global_allocator], so the
        // probe must say so — this is exactly the case `is_installed`
        // exists to detect.
        assert!(!is_installed());
        assert_eq!(allocations(), 0);
        assert_eq!(bytes(), 0);
    }
}
