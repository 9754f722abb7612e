//! Test-only global allocator for this crate's unit tests: the system
//! allocator, plus a per-thread note of the largest single request. It is
//! what lets the snapshot mutation sweep assert that no damaged length or
//! count makes the loader reserve more than the file could hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and `Drop`-free: reading it never allocates or registers a
    // destructor, so the allocator may touch it at any point of a thread's life.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct Probe;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; `note` only writes a thread-local
// `Cell<usize>`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Run `f` and return its result with the largest single allocation request
/// the **calling thread** made meanwhile.
pub(crate) fn largest_allocation_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.set(0);
    let result = f();
    (result, LARGEST.get())
}
