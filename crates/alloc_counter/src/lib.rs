//! A counting global allocator for zero-allocation assertions.
//!
//! The search hot path promises *zero* steady-state heap allocations;
//! this crate makes that checkable rather than aspirational. Both the
//! `crates/search/tests/alloc_free.rs` suite and the `xp` binary
//! install the same counter, so the test's assertion and the
//! `allocations` field of `xp`'s perf records measure the same thing:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = allocations();
//! hot_path();
//! assert_eq!(allocations() - before, 0);
//! ```
//!
//! The count is **per thread**: a libtest harness runs
//! coordinator threads that may allocate at any moment — parking, I/O,
//! timeout machinery — and a process-global counter would make
//! zero-allocation windows flaky. Counting in a const-initialized
//! thread-local (no lazy init, no destructor, so the allocator hooks
//! never re-enter the allocator) pins the measurement to the thread
//! doing the work.

#![warn(missing_docs)]

// lint: allow(unsafe-confinement): this crate IS the blessed GlobalAlloc shim — a forbid(unsafe_code) here would contradict its one job
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

/// Counts every heap acquisition (`alloc` and `realloc`; `dealloc` is
/// free and uncounted) on the allocating thread before delegating to
/// the system allocator.
pub struct CountingAllocator;

// SAFETY: delegates verbatim to `System`. The counter is a
// const-initialized, destructor-free thread-local `Cell`, so bumping
// it performs no allocation (no re-entrancy) and is safe during
// thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations performed **by the calling thread** so far
/// (monotone per thread).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate's own test binary does not install the allocator (no
    // `#[global_allocator]` here), so only the counter contract is
    // checkable; the installing binaries assert real counts.
    #[test]
    fn counter_is_monotone_and_thread_local() {
        let a = allocations();
        bump();
        let b = allocations();
        assert_eq!(b, a + 1);
        // A sibling thread's count starts at its own zero.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(allocations(), 0)).join().unwrap();
        });
    }
}
