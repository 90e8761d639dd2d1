//! What an optimizer step takes from the heap, counted with a counting
//! global allocator (the one of `lsm/tests/alloc_counts.rs`): once the
//! first backward pass has sized the gradient buffers, `apply_grads` steps
//! each layer's own weight and gradient slices and allocates nothing. It
//! used to gather a view of every parameter and a copy of every gradient,
//! two allocations of the network's size per step.
//!
//! Counters are thread-local: the test harness runs tests on parallel
//! threads, and each test must see only its own allocations.

use adcache_rl::{Activation, Mlp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread that is tearing down may allocate after its
    // thread-locals are gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell` that neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn apply_grads_allocates_nothing_after_the_first_step() {
    for hidden in [64, 256] {
        let mut net = Mlp::new(&[12, hidden, hidden, 4], Activation::Relu, 3);
        let mut adam = net.make_adam();
        let x = [0.5f32; 12];
        for step in 0..4 {
            net.forward(&x);
            net.backward(&[1.0, -1.0, 0.5, 0.25]);
            let before = allocations();
            net.apply_grads(&mut adam, 0.01);
            let spent = allocations() - before;
            assert!(
                step == 0 || spent == 0,
                "2×{hidden}: {spent} allocations in step {step}"
            );
        }
        assert_eq!(adam.steps(), 4);
    }
}
