//! Concurrency suite for the search service: the engine is one shared,
//! immutable-after-build value that many threads query (and click) at once,
//! and the parallel build must be indistinguishable from the serial one.
//!
//! The click traffic in the stress test deliberately uses a query *shape*
//! (`[person.name] [freetext]`) disjoint from every searched shape:
//! feedback boosts are keyed by template signature, so the clicks exercise
//! the write path and the cache invalidation without changing any searched
//! query's scores — which is what makes "identical to a serial replay" a
//! well-defined assertion while writes are in flight.

use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitResult, QunitSearchEngine};

fn build_engine(data: &ImdbData, config: EngineConfig) -> QunitSearchEngine {
    let catalog = expert_imdb_qunits(&data.db).unwrap();
    QunitSearchEngine::build(&data.db, catalog, config).unwrap()
}

/// 100 mixed-shape queries: entity+attribute over movies and people, a
/// singleton-qunit query, and nonsense. No bare-title (underspecified)
/// queries and nothing with the clicked `[person.name] [freetext]` shape.
fn query_mix(data: &ImdbData) -> Vec<String> {
    let mut queries = Vec::new();
    let mut i = 0;
    while queries.len() < 100 {
        let movie = &data.movies[i % data.movies.len()];
        let person = &data.people[i % data.people.len()];
        match i % 5 {
            0 => queries.push(format!("{} cast", movie.title)),
            1 => queries.push(format!("{} box office", movie.title)),
            2 => queries.push(format!("{} movies", person.name)),
            3 => queries.push("best rated charts".to_string()),
            _ => queries.push("zzzz qqqq".to_string()),
        }
        i += 1;
    }
    queries
}

#[test]
fn concurrent_queries_and_clicks_match_serial_replay() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let engine = build_engine(&data, EngineConfig::default());
    let queries = query_mix(&data);

    // Click target: a real instance, clicked under a signature no searched
    // query shares.
    let clicked_person = &data.people[0].name;
    let click_query = format!("{clicked_person} wallpaper");
    let click_key = format!("person_page::{clicked_person}");
    assert!(
        engine.instance(&click_key).is_some(),
        "fixture: {click_key}"
    );

    // Serial replay — the ground truth every thread must reproduce.
    let expected: Vec<Vec<QunitResult>> = queries
        .iter()
        .map(|q| engine.search_uncached(q, 10))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            let click_query = &click_query;
            let click_key = &click_key;
            scope.spawn(move || {
                for i in 0..queries.len() {
                    // stagger start positions so threads collide on
                    // different cache shards and feedback reads
                    let j = (i + t * 13) % queries.len();
                    let got = engine.search(&queries[j], 10);
                    assert_eq!(got, expected[j], "thread {t} diverged on {}", queries[j]);
                    if i % 10 == t {
                        engine.record_click(click_query, click_key);
                    }
                }
            });
        }
    });

    // The clicks all landed (8 threads × 10 clicks each), and the engine
    // still replays the serial results afterwards.
    assert_eq!(engine.feedback().total("[person.name] [freetext]"), 80);
    for (q, exp) in queries.iter().zip(&expected) {
        assert_eq!(&engine.search(q, 10), exp, "post-stress replay of {q}");
    }
}

#[test]
fn executor_stress_dispatched_queries_and_clicks_match_serial_replay() {
    // The persistent-executor twin of the stress test above: a sharded
    // engine whose every search is forced through the worker pool
    // (threshold 0 dispatches any query with postings), hammered by 8
    // client threads whose searches enqueue shard tasks onto the same
    // 2-worker pool concurrently, with click writes interleaved. Every
    // result must equal the serial replay bit for bit.
    let data = ImdbData::generate(ImdbConfig::tiny());
    let engine = build_engine(
        &data,
        EngineConfig {
            search_shards: 4,
            executor_threads: 2,
            inline_postings_threshold: 0,
            ..EngineConfig::default()
        },
    );
    assert_eq!(engine.num_shards(), 4);
    assert_eq!(engine.executor_pool_size(), 2);
    let queries = query_mix(&data);

    let clicked_person = &data.people[0].name;
    let click_query = format!("{clicked_person} wallpaper");
    let click_key = format!("person_page::{clicked_person}");
    assert!(
        engine.instance(&click_key).is_some(),
        "fixture: {click_key}"
    );

    let expected: Vec<Vec<QunitResult>> = queries
        .iter()
        .map(|q| engine.search_uncached(q, 10))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            let click_query = &click_query;
            let click_key = &click_key;
            scope.spawn(move || {
                for i in 0..queries.len() {
                    let j = (i + t * 13) % queries.len();
                    let got = engine.search(&queries[j], 10);
                    assert_eq!(got, expected[j], "thread {t} diverged on {}", queries[j]);
                    if i % 10 == t {
                        engine.record_click(click_query, click_key);
                    }
                }
            });
        }
    });

    assert_eq!(engine.feedback().total("[person.name] [freetext]"), 80);
    for (q, exp) in queries.iter().zip(&expected) {
        assert_eq!(&engine.search(q, 10), exp, "post-stress replay of {q}");
    }
}

#[test]
fn any_executor_pool_size_and_dispatch_mode_is_bit_identical_to_unsharded() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let unsharded = build_engine(
        &data,
        EngineConfig {
            search_shards: 1,
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    let queries = query_mix(&data);
    let expected: Vec<Vec<QunitResult>> = queries
        .iter()
        .map(|q| unsharded.search_uncached(q, 10))
        .collect();

    let num_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for pool in [1usize, 2, num_cpus] {
        // threshold 0 ≈ dispatch everything, usize::MAX ≈ inline everything
        for threshold in [0usize, usize::MAX] {
            let engine = build_engine(
                &data,
                EngineConfig {
                    search_shards: 4,
                    executor_threads: pool,
                    inline_postings_threshold: threshold,
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            );
            assert_eq!(engine.executor_pool_size(), pool);
            assert_eq!(engine.index_fingerprint(), unsharded.index_fingerprint());
            for (q, exp) in queries.iter().zip(&expected) {
                assert_eq!(
                    &engine.search_uncached(q, 10),
                    exp,
                    "pool {pool} threshold {threshold} diverged on {q}"
                );
            }
            // a batch, each query dispatching onto the same executor, agrees too
            let refs: Vec<&str> = queries.iter().take(20).map(String::as_str).collect();
            let batched = engine.search_batch(&refs, 10);
            for (b, exp) in batched.iter().zip(&expected) {
                assert_eq!(b, exp, "batch pool {pool} threshold {threshold}");
            }
        }
    }
}

#[test]
fn build_is_identical_for_any_worker_count() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let serial = build_engine(
        &data,
        EngineConfig {
            build_threads: 1,
            ..EngineConfig::default()
        },
    );
    let mut serial_keys: Vec<String> = serial.instances().map(|i| i.key.clone()).collect();
    serial_keys.sort();

    let queries: Vec<String> = data
        .movies
        .iter()
        .take(5)
        .map(|m| format!("{} cast", m.title))
        .chain(
            data.people
                .iter()
                .take(3)
                .map(|p| format!("{} movies", p.name)),
        )
        .chain(["best rated charts".to_string()])
        .collect();

    for workers in [2usize, 3, 8] {
        let parallel = build_engine(
            &data,
            EngineConfig {
                build_threads: workers,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            parallel.num_instances(),
            serial.num_instances(),
            "{workers} workers"
        );
        let mut keys: Vec<String> = parallel.instances().map(|i| i.key.clone()).collect();
        keys.sort();
        assert_eq!(keys, serial_keys, "{workers} workers");
        // identical top-10 — keys AND scores — for the fixed query set
        // guards the merge order (doc ids feed BM25 tie-breaks)
        for q in &queries {
            assert_eq!(
                parallel.search_uncached(q, 10),
                serial.search_uncached(q, 10),
                "{workers} workers diverged on {q}"
            );
        }
    }
}

#[test]
fn index_fingerprint_invariant_under_workers_and_shards() {
    // The in-repo twin of the CI determinism gate (exp_determinism): the
    // logical index content must not depend on how many threads built it
    // or how many shards serve it.
    let data = ImdbData::generate(ImdbConfig::tiny());
    let baseline = build_engine(
        &data,
        EngineConfig {
            build_threads: 1,
            search_shards: 1,
            ..EngineConfig::default()
        },
    )
    .index_fingerprint();
    for (build_threads, search_shards) in [(8, 1), (1, 8), (3, 5), (8, 8), (0, 0)] {
        let engine = build_engine(
            &data,
            EngineConfig {
                build_threads,
                search_shards,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            engine.index_fingerprint(),
            baseline,
            "fingerprint moved at build_threads={build_threads} search_shards={search_shards}"
        );
    }
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<QunitSearchEngine>();
}

#[test]
fn batch_equals_sequential_on_shared_engine() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let engine = build_engine(&data, EngineConfig::default());
    let queries = query_mix(&data);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let batched = engine.search_batch(&refs, 10);
    assert_eq!(batched.len(), refs.len());
    for (q, batch) in refs.iter().zip(&batched) {
        assert_eq!(
            batch,
            &engine.search_uncached(q, 10),
            "batch diverged on {q}"
        );
    }
}

#[test]
fn cache_counters_track_hits_and_invalidation() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let engine = build_engine(&data, EngineConfig::default());
    let q = format!("{} cast", data.movies[0].title);

    engine.search(&q, 5);
    let s1 = engine.cache_stats();
    assert_eq!(s1.hits, 0);
    assert!(s1.misses >= 1);
    assert_eq!(s1.entries, 1);

    engine.search(&q, 5);
    let s2 = engine.cache_stats();
    assert_eq!(s2.hits, 1);

    // a click empties the cache, so the same query misses again
    let click_key = format!("movie_cast::{}", data.movies[0].title);
    engine.record_click(&q, &click_key);
    assert_eq!(engine.cache_stats().entries, 0);
    engine.search(&q, 5);
    let s3 = engine.cache_stats();
    assert_eq!(s3.hits, 1);
    assert!(s3.misses > s2.misses);
}

#[test]
fn zero_capacity_cache_disables_memoization() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let engine = build_engine(
        &data,
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    );
    let q = format!("{} cast", data.movies[0].title);
    let a = engine.search(&q, 5);
    let b = engine.search(&q, 5);
    assert_eq!(a, b);
    let s = engine.cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
}
