//! What a result says, pinned across commits.
//!
//! `exp_determinism` and the benchmark's fingerprints hash result keys and
//! score bits only, so a result that carries the right key and the wrong
//! instance's page passes both. These constants hash everything a caller
//! can read off a result — key, the three scores' bits, definition,
//! rendered page, text, fields, anchor text — for the 200 most frequent
//! queries of the default synthetic query log at k = 10: answered cold, then
//! again from the cache, then again after three clicks. They were computed
//! on the commit before results started sharing the engine's instances
//! (when each result still owned copies of all of it), so whatever a result
//! is from then on, this is what it must say.
//!
//! The same passes check the sharing itself: a miss renders its k pages,
//! and a cache hit holds the very handles its miss rendered, never a copy.
//!
//! If a change moves the constants *on purpose* (scoring, rendering, the
//! query log), recompute them with `RESULT_GOLDEN_PRINT=1 cargo test -p
//! qunit-core --test result_golden -- --nocapture` and say why in the commit.

mod fnv;

use datagen::imdb::{ImdbConfig, ImdbData};
use datagen::querylog::{QueryLog, QueryLogConfig};
use fnv::Fnv1a;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitResult, QunitSearchEngine};
use std::sync::Arc;

/// Every query answered by the full pipeline. A cache hit must say exactly
/// the same, so the pass served from the cache is held to this constant too.
const COLD_FNV1A: u64 = 0xde18_b439_45f7_0c80;
/// Every query answered again after the three clicks.
const AFTER_CLICKS_FNV1A: u64 = 0x2441_1e4b_88dc_510c;

const QUERIES: usize = 200;
const K: usize = 10;

/// Answer every query and hash all that the answers say; the answers too.
fn pass(engine: &QunitSearchEngine, queries: &[String]) -> (u64, Vec<Vec<QunitResult>>) {
    let mut h = Fnv1a::new();
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let results = engine.search(q, K);
        h.u64(results.len() as u64);
        for r in &results {
            h.str(&r.key);
            h.u64(r.score.to_bits());
            h.u64(r.ir_score.to_bits());
            h.u64(r.type_score.to_bits());
            h.str(&r.definition);
            h.str(&r.rendered);
            h.str(&r.text);
            h.u64(r.fields.len() as u64);
            for f in &r.fields {
                h.str(f);
            }
            match r.anchor_text() {
                Some(anchor) => {
                    h.u64(1);
                    h.str(&anchor);
                }
                None => h.u64(0),
            }
        }
        answers.push(results);
    }
    (h.0, answers)
}

#[test]
fn results_match_the_pinned_constants() {
    let data = ImdbData::generate(ImdbConfig::default());
    let log = QueryLog::generate(&data, QueryLogConfig::default());
    let queries: Vec<String> = log
        .unique_queries()
        .into_iter()
        .take(QUERIES)
        .map(|(q, _)| q)
        .collect();
    assert_eq!(queries.len(), QUERIES);
    let catalog = expert_imdb_qunits(&data.db).expect("catalog");
    let engine =
        QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).expect("engine");

    let (cold, misses) = pass(&engine, &queries);
    let hits_before = engine.cache_stats().hits;
    let (cached, hits) = pass(&engine, &queries);
    assert_eq!(
        engine.cache_stats().hits - hits_before,
        QUERIES as u64,
        "the second pass is served from the cache"
    );
    for ((q, miss), hit) in queries.iter().zip(&misses).zip(&hits) {
        for (m, h) in miss.iter().zip(hit) {
            assert!(
                Arc::ptr_eq(&m.instance, &h.instance),
                "{q:?}: {} copied",
                h.key
            );
        }
    }

    // Three clicks that can move a ranking: for the first three queries
    // whose answer spans two definitions, the best result that is not of
    // the top result's definition.
    let mut clicks = 0;
    for q in &queries {
        let results = engine.search(q, K);
        if let Some(r) = results
            .iter()
            .find(|r| r.definition != results[0].definition)
        {
            engine.record_click(q, &r.key);
            clicks += 1;
            if clicks == 3 {
                break;
            }
        }
    }
    assert_eq!(clicks, 3);
    let (after_clicks, _) = pass(&engine, &queries);

    if std::env::var_os("RESULT_GOLDEN_PRINT").is_some() {
        println!("COLD_FNV1A {cold:#018x} AFTER_CLICKS_FNV1A {after_clicks:#018x}");
        return;
    }
    assert_eq!(cold, COLD_FNV1A, "cold");
    assert_eq!(cached, COLD_FNV1A, "cache hits");
    assert_eq!(after_clicks, AFTER_CLICKS_FNV1A, "after three clicks");
}
