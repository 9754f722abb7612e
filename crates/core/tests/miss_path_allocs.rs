//! Allocation counts of the cache-miss path: what a miss allocates depends
//! on the query and on k, not on how many hits the kernel returned.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`counting_alloc`, as `hit_path_allocs.rs` does). Only the
//! thread inside [`measured`] is counted, and the engine scores every shard
//! inline on it, so the count is the whole query's.
//!
//! Rescoring reads each hit's definition and factors by document id from
//! arrays and buffers the thread already holds; only the k results own
//! anything: a key, and the page rendered for them into the thread's page
//! buffers. Measured with this allocator at k = 10 on a 100-movie synthetic
//! IMDb, cache off, warmed thread — allocations (bytes):
//!
//! | | `"star odyssey cast"` (typed, 10 results) | `"bear"` (6 hits) | `"clooney"` (100 hits) | 100 hits − 6 hits, what the results own aside | `"george clooney movies"` at k = 1 (typed, one document injected) |
//! |---|---|---|---|---|---|
//! | rescoring by key (per hit: its anchor text built; per query: a sort buffer) | 169 (24 366) | 43 (5 086) | 146 (22 992) | 99 | — |
//! | rescoring by doc id (per query: the typed route's mask; per injected document: the query tokenised again) | 46 (5 600) | 30 (4 002) | 34 (4 326) | 0 | 46 (6 336) |
//! | the mask in the thread's scratch; injection scores the terms analyzed once | 45 (5 588) | 30 (4 002) | 34 (4 326) | 0 | 40 (6 201) |
//! | the engine keeps row ids, not pages: each result's page is rendered, 9–10 blocks a page; only the few instances of more than 256 rows keep theirs once rendered, and none of these results is one | 145 (11 955) | 90 (6 864) | 145 (15 523) | 0 | 49 (13 647) |
//! | the query is tokenized once, into the thread's buffers: no token `String`s for the segmenter or the IR terms, no analyzer buffer, no residual `Vec`, no copy of the raw query in the segmentation; the IR terms are borrowed in one `Vec<&str>` | 137 (11 891) | 86 (6 840) | 141 (15 493) | 0 | 41 (13 575) |
//! | now (the terms are folded once per query — deduplicated, scored, bounded and ordered — and every fan-out and injected document reads that fold) | 137 (11 891) | 86 (6 840) | 141 (15 493) | 0 | 38 (13 455) |
//!
//! The two typed counts are pinned ([`TYPED_MISS`], [`INJECTING_MISS`]), so
//! neither a per-query mask, a per-injected-document tokenisation or term
//! fold nor a second tokenization of the query comes back unnoticed; what the results own ([`result_blocks`]) is set aside
//! when 100 hits are held to 6. `driver.allocs_per_query` (ROADMAP item 1) will replace
//! this file's numbers with the benchmark's.

mod counting_alloc;

use counting_alloc::{measured, Counting};
use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitResult, QunitSearchEngine, Segment};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the kernel's own hit lists may add between a query of a few
/// hits and one of a hundred.
const VEC_GROWTH: u64 = 8;

/// Allocations of the typed `"<title> cast"` miss at k = 10, its ten pages
/// included.
const TYPED_MISS: u64 = 137;

/// Allocations of the `"<person> movies"` miss at k = 1, which injects one
/// anchored document, its page included.
const INJECTING_MISS: u64 = 38;

/// Heap blocks a result owns: its key, and the page rendered for it — the
/// `Arc` and the page's own strings (key, definition, anchor, markup, text,
/// and the field list). A page the engine keeps (it holds a handle too) was
/// rendered once, before: the result owns only its key.
fn result_blocks(r: &QunitResult) -> u64 {
    let page = &r.instance;
    if Arc::strong_count(page) > 1 {
        return 1;
    }
    let strings = [&page.key, &page.definition, &page.rendered, &page.text];
    let anchor = page.anchor_value.as_ref().and_then(|v| v.as_text());
    let fields = page.fields.iter().filter(|f| !f.is_empty()).count() as u64;
    2 + strings.iter().filter(|s| !s.is_empty()).count() as u64
        + u64::from(anchor.is_some_and(|a| !a.is_empty()))
        + u64::from(!page.fields.is_empty())
        + fields
}

/// A one-word, entity-free query matching between `at_least` and `at_most`
/// instances, drawn from the words of the instances themselves.
fn word_matching(engine: &QunitSearchEngine, at_least: usize, at_most: usize) -> String {
    let mut words = std::collections::BTreeSet::new();
    for inst in engine.instances() {
        let lowercase = |word: &&str| word.chars().all(|c| c.is_ascii_lowercase());
        words.extend(
            inst.text
                .split_whitespace()
                .filter(lowercase)
                .map(str::to_string),
        );
    }
    words
        .into_iter()
        .find(|word| {
            let freetext = matches!(
                engine.segmenter().segment(word).segments.as_slice(),
                [Segment::Freetext { .. }]
            );
            // k = 200 fetches 2 000, so fewer results than 200 is every match
            let matches = engine.search_uncached(word, 200).len();
            freetext && (at_least..=at_most).contains(&matches)
        })
        .unwrap_or_else(|| panic!("no freetext word matches {at_least}..={at_most} instances"))
}

#[test]
fn a_miss_allocates_by_k_not_by_the_number_of_hits() {
    const K: usize = 10;
    /// At k = 10 the kernel is asked for 100 hits.
    const FETCH: usize = 100;
    // A tenth of the default corpus, because its vocabulary still has rare
    // words: at the default size no single word matches under 30 instances.
    let data = ImdbData::generate(ImdbConfig {
        n_people: 150,
        n_movies: 100,
        ..ImdbConfig::default()
    });
    let catalog = expert_imdb_qunits(&data.db).expect("catalog");
    let config = EngineConfig {
        cache_capacity: 0,
        // every shard scored on the measured thread
        inline_postings_threshold: usize::MAX,
        ..EngineConfig::default()
    };
    let engine = QunitSearchEngine::build(&data.db, catalog, config).expect("engine");

    let few = word_matching(&engine, 3, 8);
    let many = word_matching(&engine, FETCH, usize::MAX);
    let miss_at = |query: &str, k: usize| {
        // Warm-up: this thread's query scratch (page buffers included) and
        // the pooled accumulators.
        let warm = engine.search(query, k);
        let (answer, cost) = measured(|| engine.search(query, k));
        assert_eq!(answer, warm);
        (answer, cost)
    };
    let miss = |query: &str| miss_at(query, K);
    let typed_query = format!("{} cast", data.movies[0].title);
    let (typed_answer, typed) = miss(&typed_query);
    let (few_answer, few_cost) = miss(&few);
    let (many_answer, many_cost) = miss(&many);
    let [typed_results, few_results, many_results] =
        [&typed_answer, &few_answer, &many_answer].map(|answer| answer.len() as u64);
    // At k = 1 the kernel is asked for 50 hits, and the most-cast person's
    // long filmography page ranks below them: it is injected and scored on
    // its own.
    let star = &data.people[0].name;
    let injecting = format!("{star} movies");
    let (_, injected) = miss_at(&injecting, 1);
    assert_eq!(engine.cache_stats().hits, 0, "every one of them a miss");
    assert!(typed_results > 0);
    assert!((3..=8).contains(&few_results), "{few:?}: {few_results}");
    assert_eq!(many_results, K as u64, "{many:?}");
    println!(
        "k = {K} miss: {typed_query:?} ({typed_results} results) {} allocations ({} B); {few:?} \
         ({few_results} hits) {} ({} B); {many:?} ({FETCH} hits) {} ({} B); k = 1 miss: \
         {injecting:?} (one document injected) {} ({} B)",
        typed.allocs,
        typed.allocated_bytes,
        few_cost.allocs,
        few_cost.allocated_bytes,
        many_cost.allocs,
        many_cost.allocated_bytes,
        injected.allocs,
        injected.allocated_bytes,
    );
    // The typed route reads its definition mask from the thread's scratch,
    // and an injected document is scored on the query's terms as analyzed
    // once: neither allocates per query, nor per injected document.
    assert_eq!(typed.allocs, TYPED_MISS, "{typed_query:?}: {typed:?}");
    assert_eq!(
        injected.allocs, INJECTING_MISS,
        "{injecting:?}: {injected:?}"
    );

    // Same shape of query, twenty times the hits: beyond what each result
    // owns, only the kernel's hit `Vec`s may have grown — a few doublings
    // each, where a per-hit allocation would show as ~95.
    let owned = |answer: &[QunitResult]| answer.iter().map(result_blocks).sum::<u64>();
    let beyond_results = (many_cost.allocs - owned(&many_answer)) as i64
        - (few_cost.allocs - owned(&few_answer)) as i64;
    println!("100 hits − 6 hits, what the results own aside: {beyond_results}");
    assert!(
        beyond_results <= VEC_GROWTH as i64,
        "{beyond_results} allocations for {FETCH} hits over {few_results}: \
         {many_cost:?} vs {few_cost:?}"
    );
}
