//! Allocation count of a cold freeze: per shard, lane and vocabulary word,
//! never per document, token or posting.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. While a freeze is measured every thread is counted, the
//! calling thread apart from the rest, so the helpers `build_sharded` runs
//! phase 1 and phase 2 on are seen too. Run it alone (`RUST_TEST_THREADS=1`,
//! as CI does) or with its single test, so no other test's allocations are
//! counted.
//!
//! The caller reserves each shard's token log, field ends and document
//! lengths before phase 1 and allocates every posting lane at its exact size
//! between the phases; a helper interns its shard's vocabulary and replays
//! its log without allocating. So over one fixed vocabulary a 2-shard freeze
//! allocates the same number of times at N and at 2N documents, on the
//! caller and on the helpers alike. Measured with this allocator, 2 shards
//! of 526 terms each, 2 cores:
//!
//! | allocations of one freeze | 2 000 docs | 4 000 docs |
//! |---|---|---|
//! | before: shards one after another on the caller, a `Box<str>` per distinct token, a `(term, doc, tf)` row log that regrows | 1 236 | 1 238 |
//! | now, on the caller beyond the two helper spawns ([`FREEZE_ALLOCS`]) | 140 | 140 |
//! | now, on the helper (its thread's start, its shard's vocabulary) | 38 | 38 |

use irengine::{Document, IndexBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations of one 2-shard freeze on the calling thread when it runs on
/// two threads, beyond those of spawning a helper for each phase, which
/// depend on the test harness (capturing output installs a spawn hook).
const FREEZE_ALLOCS: u64 = 140;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLER: AtomicU64 = AtomicU64::new(0);
static OTHERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is the one measuring. Const-initialised and
    /// without a destructor, so reading it never allocates.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only. `realloc` is
// the default alloc + copy + dealloc, so it counts as an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let caller = IS_CALLER.try_with(Cell::get).unwrap_or(false);
            let counter = if caller { &CALLER } else { &OTHERS };
            counter.fetch_add(1, Ordering::Relaxed);
        }
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

/// Allocations during `f`: `(calling thread, every other thread)`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        CALLER.load(Ordering::Relaxed),
        OTHERS.load(Ordering::Relaxed),
    );
    IS_CALLER.set(true);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    IS_CALLER.set(false);
    let caller = CALLER.load(Ordering::Relaxed) - before.0;
    let others = OTHERS.load(Ordering::Relaxed) - before.1;
    (out, caller, others)
}

/// `n` documents over one fixed vocabulary of 500 body words and 51 anchor
/// words, every word in each shard's first 1 000 documents: document `i`
/// depends on `i` alone, so a shard of 2N documents meets its words in the
/// order the shard of N does.
fn builder_of(n: usize) -> IndexBuilder {
    let mut b = IndexBuilder::new();
    b.set_field_boost("anchor", 2.5);
    for i in 0..n {
        let body: Vec<String> = (0..8)
            .map(|j| format!("w{}", (i * 7 + j * 13) % 500))
            .collect();
        b.add(
            Document::new(format!("doc{i}"))
                .field("anchor", format!("title{} İ the", i % 50))
                .field("body", body.join(" ")),
        );
    }
    b
}

#[test]
fn a_freeze_allocates_per_lane_not_per_document() {
    // Warm-up: whatever this thread sets up on its first freeze.
    drop(builder_of(100).build_sharded(2));

    // What spawning a helper costs, the way the freeze spawns each.
    let ((), spawn, _) = measured(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| ()).join().expect("join");
        })
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let helpers = 2 * (threads as u64 - 1);

    let mut counts = Vec::new();
    for docs in [2_000, 4_000] {
        let builder = builder_of(docs);
        let (index, caller, others) = measured(|| builder.build_sharded(2));
        assert_eq!(index.num_docs(), docs);
        let terms = index.shards()[0].num_terms();
        println!(
            "{docs} docs, {terms} terms in shard 0, on {threads} threads: {caller} allocations \
             on the caller ({spawn} per helper spawned, {helpers} spawned), {others} elsewhere"
        );
        drop(index);
        counts.push((caller - helpers * spawn, others, terms));
    }
    assert_eq!(counts[0].2, counts[1].2, "the vocabulary grew");
    assert_eq!(counts[0].0, counts[1].0, "the caller's allocations grew");
    assert_eq!(counts[0].1, counts[1].1, "the helpers' allocations grew");
    if threads == 2 {
        assert_eq!(counts[0].0, FREEZE_ALLOCS);
    } else {
        println!("one core: the caller interns both shards, so FREEZE_ALLOCS is not checked");
    }
}
