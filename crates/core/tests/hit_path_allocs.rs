//! Exact allocation counts of the cache-hit path.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`counting_alloc`); only the thread inside [`measured`] is
//! counted.
//!
//! What a hit costs is what it returns — one `Vec` and k owned keys — and a
//! click drops a cached list the same way, key by key, without freeing any
//! instance text a caller still holds: the pages the miss rendered are
//! shared by its answer and the cached list, and a hit's answer, and freed
//! with the last of them. Measured with this allocator on `"star wars cast"`,
//! k = 10, default synthetic IMDb:
//!
//! | | allocations per hit | bytes per hit | frees by a click, per cached list | bytes |
//! |---|---|---|---|---|
//! | results own copies of the instance | 92 (and 1 free) | 5 910 | 92 | 5 910 |
//! | results share the engine's instance | 11 | 781 | 12 | 795 |
//! | now (results share the pages their miss rendered; the miss's answer still held) | 11 | 781 | 12 | 795 |

mod counting_alloc;

use counting_alloc::{measured, Counting};
use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine};

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    drop(hit);

    // The first click drops the one cached list; the second finds the cache
    // empty and is otherwise the same call. `miss` still holds the pages.
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
    // With the cache's hold gone, the answer holds the only handles: it
    // takes the k pages with it.
    let ((), dropped) = measured(|| drop(miss));
    assert!(dropped.frees > 3 * K as u64, "{dropped:?}");
}
