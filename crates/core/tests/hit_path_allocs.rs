//! Exact allocation counts of the cache-hit path.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Only the thread inside [`measured`] is counted: the engine's
//! executor workers finish their bookkeeping for a dispatched query
//! whenever they are scheduled, which can be after the query has returned.
//!
//! What a hit costs is what it returns — one `Vec` and k owned keys — and a
//! click drops a cached list the same way, key by key, without freeing any
//! instance text: the instances belong to the engine and the lists only
//! point at them. Measured with this allocator on `"star wars cast"`, k = 10,
//! default synthetic IMDb:
//!
//! | | allocations per hit | bytes per hit | frees by a click, per cached list | bytes |
//! |---|---|---|---|---|
//! | parent (results own copies of the instance) | 92 (and 1 free) | 5 910 | 92 | 5 910 |
//! | now (results share the engine's instance) | 11 | 781 | 12 | 795 |

use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

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

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator traffic of one call, on the calling thread.
#[derive(Debug, Clone, Copy)]
struct Traffic {
    allocs: u64,
    allocated_bytes: u64,
    frees: u64,
    freed_bytes: u64,
}

fn measured<T>(f: impl FnOnce() -> T) -> (T, Traffic) {
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

#[test]
fn a_hit_allocates_its_keys_and_a_click_frees_no_instance_text() {
    const QUERY: &str = "star wars cast";
    const K: usize = 10;
    let data = ImdbData::generate(ImdbConfig::default());
    let catalog = expert_imdb_qunits(&data.db).expect("catalog");
    let engine =
        QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).expect("engine");

    // Warm-up: this thread's query scratch, and the feedback store's keys
    // for the signature and definition every later click repeats.
    let clicked = engine.search(QUERY, K)[0].key.clone();
    engine.record_click(QUERY, &clicked);

    let miss = engine.search(QUERY, K);
    assert_eq!(miss.len(), K);
    let hits_before = engine.cache_stats().hits;
    let (hit, cost) = measured(|| engine.search(QUERY, K));
    assert_eq!(engine.cache_stats().hits, hits_before + 1);
    assert_eq!(hit, miss);
    assert_eq!(cost.allocs, K as u64 + 1, "one Vec and k keys: {cost:?}");
    assert!(cost.allocated_bytes < 1024, "{cost:?}");
    assert_eq!(cost.frees, 0, "{cost:?}");
    drop((hit, miss));

    // The first click drops the one cached list; the second finds the cache
    // empty and is otherwise the same call.
    assert_eq!(engine.cache_stats().entries, 1);
    let ((), with_list) = measured(|| engine.record_click(QUERY, &clicked));
    assert_eq!(engine.cache_stats().entries, 0);
    let ((), without) = measured(|| engine.record_click(QUERY, &clicked));
    assert_eq!(
        with_list.frees - without.frees,
        K as u64 + 2,
        "the entry's query, its Vec and k keys: {with_list:?} vs {without:?}"
    );
    assert!(
        with_list.freed_bytes - without.freed_bytes < 1024 + QUERY.len() as u64,
        "{with_list:?} vs {without:?}"
    );
}
