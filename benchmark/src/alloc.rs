//! A counting global allocator: heap allocations per call, per thread.
//!
//! The count is thread-local so that background flush and compaction
//! threads of an in-process engine do not leak into the count of the
//! call being measured on the benchmark's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc` and `realloc` calls per thread.
pub struct Counting;

fn count() {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = allocations();
        let v = std::hint::black_box(vec![1u8; 64]);
        let after_one = allocations();
        assert_eq!(after_one - before, 1);
        std::thread::spawn(|| drop(std::hint::black_box(vec![1u8; 64])))
            .join()
            .unwrap();
        // Spawning allocates on this thread; the vector in the other
        // thread must not be among what is counted here beyond that.
        drop(v);
        assert!(allocations() >= after_one);
    }
}
