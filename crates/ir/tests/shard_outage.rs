//! A total outage is an error on every path. When every shard that had
//! documents to score fails, a sharded search returns `Err(Panicked)`,
//! inline or dispatched, even when the index also has empty shards, which
//! contribute nothing and cannot "survive". A dispatched search counts
//! each shard that panicked; the inline sweep stops at the first.
//!
//! This is its own test binary because the failpoint registry is
//! process-global: the schedule it arms must not share a process with
//! other tests' searches.

use irengine::{
    fault, Analyzer, DispatchPolicy, Document, IndexBuilder, ScoringFunction, ScratchPool,
    SearchContext, SearchFailure, ShardExecutor, ShardedSearcher,
};

#[test]
fn every_shard_with_documents_failing_is_an_error_inline_and_dispatched() {
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
