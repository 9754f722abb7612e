//! A total outage is an error on every path. When every shard that had
//! documents to score fails, a sharded search returns `Err(Panicked)`,
//! inline or dispatched, even when the index also has empty shards, which
//! contribute nothing and cannot "survive". A dispatched search counts
//! each shard that panicked; the inline sweep stops at the first.
//!
//! One panicking slot is an error too, even though the other slots keep
//! pushing into the heap the query's shards share.
//!
//! This is its own test binary because the failpoint registry is
//! process-global: the schedule it arms must not share a process with
//! other tests' searches, and its tests take turns through `SERIAL`.

use irengine::{
    fault, Analyzer, DispatchPolicy, Document, IndexBuilder, ScoringFunction, ScratchPool,
    SearchContext, SearchFailure, ShardExecutor, ShardedSearcher,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn every_shard_with_documents_failing_is_an_error_inline_and_dispatched() {
    let _serial = serial();
    // Two documents over eight shards: two real shards, six empty ones.
    let mut b = IndexBuilder::new().with_analyzer(Analyzer::keep_all());
    b.add(Document::new("d0").field("body", "star wars cast"));
    b.add(Document::new("d1").field("body", "star trek cast"));
    let mut index = b.build_sharded(8);
    index.compress_postings();
    let searcher = ShardedSearcher::new(&index, ScoringFunction::default());
    let terms = vec!["star".to_string(), "cast".to_string()];
    let exec = ShardExecutor::new(2);
    let pool = ScratchPool::new();

    // Every posting-block decode panics, so both real shards fail.
    fault::install("postings.decode=panic@*").expect("valid schedule");
    let inline = SearchContext {
        policy: DispatchPolicy::force_inline(),
        ..SearchContext::default()
    };
    let dispatched = SearchContext {
        exec: Some(&exec),
        pool: Some(&pool),
        policy: DispatchPolicy::force_dispatch(),
        ..SearchContext::default()
    };
    let outcomes: Vec<_> = [("inline", inline, 1), ("dispatched", dispatched, 2)]
        .into_iter()
        .map(|(leg, ctx, panicked)| {
            let outcome = searcher.try_search_terms_where_ctx(&terms, 10, None, &ctx);
            (leg, outcome, panicked)
        })
        .collect();
    fault::clear();

    for (leg, outcome, panicked) in outcomes {
        match outcome {
            Err(SearchFailure::Panicked { message, shards }) => {
                assert!(message.contains("postings.decode"), "{leg}: {message}");
                assert_eq!(shards, panicked, "{leg}");
            }
            other => panic!("{leg}: expected Err(Panicked), got {other:?}"),
        }
    }
    // With the schedule cleared the same searches answer in full.
    let hits = searcher
        .try_search_terms_where_ctx(&terms, 10, None, &SearchContext::default())
        .expect("disarmed");
    assert_eq!(hits.hits.len(), 2);
}

/// One of four slots panics, at the executor's `exec.task` site or in the
/// kernel's block decode, while the other three run on two workers and
/// push into the shared heap. The query fails as `Panicked` counting that
/// one shard, returns rather than hangs, and the next query on the same
/// executor answers exactly what the inline sweep does.
#[test]
fn one_panicking_slot_fails_the_query_and_the_executor_serves_the_next() {
    let _serial = serial();
    let mut b = IndexBuilder::new().with_analyzer(Analyzer::keep_all());
    for i in 0..600 {
        let text = format!("star cast f{} {}", i % 13, "star ".repeat(i % 5));
        b.add(Document::new(format!("d{i}")).field("body", text));
    }
    let mut index = b.build_sharded(4);
    index.compress_postings();
    let searcher = ShardedSearcher::new(&index, ScoringFunction::default());
    let terms = vec!["star".to_string(), "cast".to_string()];
    let exec = ShardExecutor::new(2);
    let pool = ScratchPool::new();
    let dispatched = SearchContext {
        exec: Some(&exec),
        pool: Some(&pool),
        policy: DispatchPolicy::force_dispatch(),
        ..SearchContext::default()
    };
    let search = |ctx: &SearchContext| searcher.try_search_terms_where_ctx(&terms, 10, None, ctx);
    let want = search(&SearchContext::default()).expect("disarmed").hits;
    assert_eq!(want.len(), 10);

    for site in [fault::site::EXEC_TASK, fault::site::POSTINGS_DECODE] {
        fault::install(&format!("{site}=panic@#1")).expect("valid schedule");
        let outcome = search(&dispatched);
        let fired = fault::site_counters(site).1;
        fault::clear();
        assert_eq!(fired, 1, "{site}");
        match outcome {
            Err(SearchFailure::Panicked { message, shards }) => {
                assert!(message.contains(site), "{site}: {message}");
                assert_eq!(shards, 1, "{site}");
            }
            other => panic!("{site}: expected Err(Panicked), got {other:?}"),
        }
        let next = search(&dispatched).expect("disarmed");
        assert_eq!(next.hits, want, "the query after the {site} panic");
    }
}
