//! Allocation count of `Analyzer::tokenize_into`: at most one `String` per
//! token it keeps, and none at all when the caller's `Vec` already holds
//! strings as many and as long (a warm call with the same text), once the
//! thread has assembled a token as long before.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Only the measuring thread is counted, so other tests running
//! beside it do not disturb the count.

use irengine::Analyzer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations on this thread while it is measuring, or `None` when it
    /// is not. Const-initialised and without a destructor, so reading it
    /// never allocates.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only. `realloc` is
// the default alloc + copy + dealloc, so it counts as an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|n| n.set(n.get().map(|n| n + 1)));
        // SAFETY: the caller's obligations for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|n| n.set(Some(0)));
    f();
    COUNT.with(|n| n.replace(None)).expect("measuring")
}

#[test]
fn tokenize_into_allocates_only_the_tokens_it_keeps() {
    let analyzer = Analyzer::new();
    let long = "The Empire Strikes Back (1980): the CAST of the movie, directed by \
                Irvin Kershner — İstanbul, Zürich and counterrevolutionaries";
    let mut out = Vec::new();
    // The first call sizes the thread's token buffer.
    analyzer.tokenize_into(long, &mut out);
    for text in [
        long,
        "star wars",
        "the of and",
        "!!! --- ???",
        "",
        "Kershner KERSHNER kershner",
        long,
    ] {
        let kept = analyzer.tokenize(text);
        // At most one `String` per kept token, whatever `out` held before.
        let first = allocations(|| analyzer.tokenize_into(text, &mut out));
        assert_eq!(out, kept, "{text:?}");
        assert!(first <= kept.len() as u64, "{text:?}: {first} allocations");
        // Warm: the same text again overwrites the strings it left.
        let warm = allocations(|| analyzer.tokenize_into(text, &mut out));
        assert_eq!(out, kept, "{text:?}");
        assert_eq!(warm, 0, "{text:?}: a warm call made {warm} allocations");
    }
}
