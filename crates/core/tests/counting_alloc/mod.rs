//! A counting global allocator for the test binaries that pin allocation
//! counts: the system allocator, plus counters that move only while the
//! calling thread is inside [`measured`]. The engine's executor workers
//! finish their bookkeeping for a dispatched query whenever they are
//! scheduled, which can be after the query has returned; they are never
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

thread_local! {
    /// Whether this thread is inside [`measured`]. Const-initialised and
    /// without a destructor, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only. `realloc` is
// the default alloc + copy + dealloc, so it counts as one of each.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            FREES.fetch_add(1, Ordering::Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator traffic of one call, on the calling thread.
// Each test binary reads the fields it asserts on.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub allocs: u64,
    pub allocated_bytes: u64,
    pub frees: u64,
    pub freed_bytes: u64,
}

pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
    let read =
        || [&ALLOCS, &ALLOCATED_BYTES, &FREES, &FREED_BYTES].map(|c| c.load(Ordering::Relaxed));
    let before = read();
    COUNTED.set(true);
    let out = f();
    COUNTED.set(false);
    let after = read();
    let traffic = Traffic {
        allocs: after[0] - before[0],
        allocated_bytes: after[1] - before[1],
        frees: after[2] - before[2],
        freed_bytes: after[3] - before[3],
    };
    (out, traffic)
}
