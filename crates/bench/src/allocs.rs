//! Heap-allocation counting for the zero-alloc streaming exhibit.
//!
//! [`CountingAllocator`] wraps the system allocator and bumps a
//! per-thread counter on every `alloc`/`realloc`. The library only
//! *reads* the counter; the allocator is installed as
//! `#[global_allocator]` by the binaries that enforce the budget
//! (`kernels_gate`, `run_all`) and by the `stream_arena` integration
//! test — never by this library itself, so linking `sparseflex-bench`
//! does not change a host program's allocator.
//!
//! Counts are per thread: [`count_allocs`] reports only the allocations
//! the calling thread made while running its closure, so sibling test
//! threads (the default multi-threaded test harness) cannot pollute a
//! zero-allocation assertion. Work the closure hands to other threads is
//! not counted; the measured closures in this workspace spawn none.
//!
//! This module is the workspace's **single** `unsafe` exception: the
//! `GlobalAlloc` trait is itself unsafe to implement, and the impl only
//! forwards to [`System`] after bumping a counter. Every other crate is
//! `#![forbid(unsafe_code)]`; this crate is `#![deny(unsafe_code)]`
//! with the override scoped to exactly this module.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's `alloc`/`realloc` count. The `const` initializer and
    /// the destructor-free `Cell` mean touching it never allocates, so the
    /// allocator itself can bump it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the calling thread.
fn bump() {
    // `try_with` rather than `with`: never panic inside the allocator,
    // even if a thread allocates while its thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] that counts `alloc`/`realloc` calls, then defers to
/// the system allocator. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sparseflex_bench::allocs::CountingAllocator =
///     sparseflex_bench::allocs::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter bump neither
// allocates nor affects the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// `alloc`/`realloc` calls the calling thread has made so far (0 unless a
/// [`CountingAllocator`] is installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Run `f` and return how many heap allocations it performed on the
/// calling thread alongside its result. Reads 0 allocations when no
/// counting allocator is installed — check [`probe_installed`] first when
/// the count gates.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let r = f();
    (allocations() - before, r)
}

/// Whether a [`CountingAllocator`] is actually installed: performs one
/// deliberate heap allocation and checks the counter moved.
pub fn probe_installed() -> bool {
    let before = allocations();
    let v: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&v);
    drop(v);
    allocations() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_allocs_is_monotone() {
        // The test harness does not install the counting allocator, so
        // the count must simply never go backwards.
        let (n, _) = count_allocs(|| Vec::<u8>::with_capacity(32));
        let (m, _) = count_allocs(|| ());
        assert!(n >= m);
    }
}
