//! Property tests for qunit-core: segmentation invariants, materialization
//! consistency, and engine sanity on randomized databases.

use proptest::prelude::*;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{
    materialize_all, DocDefLane, EngineConfig, EntityDictionary, QunitCatalog, QunitSearchEngine,
    Segment, Segmenter,
};
use relstore::index::tokenize;

mod fixtures {
    use datagen::imdb::{ImdbConfig, ImdbData};
    use std::sync::OnceLock;

    /// One shared tiny database: generation is deterministic, so sharing it
    /// across property cases is sound and keeps the suite fast.
    pub fn data() -> &'static ImdbData {
        static DATA: OnceLock<ImdbData> = OnceLock::new();
        DATA.get_or_init(|| ImdbData::generate(ImdbConfig::tiny()))
    }
}

/// Engines for the cache/batch equivalence properties. Each property that
/// mutates feedback gets its own engine (separate from any other test fn),
/// so the test binary stays correct under `RUST_TEST_THREADS=8`.
fn fresh_engine() -> QunitSearchEngine {
    let data = fixtures::data();
    QunitSearchEngine::build(
        &data.db,
        expert_imdb_qunits(&data.db).unwrap(),
        EngineConfig::default(),
    )
    .unwrap()
}

fn segmenter() -> Segmenter {
    let data = fixtures::data();
    Segmenter::new(EntityDictionary::from_database(
        &data.db,
        EntityDictionary::imdb_specs(),
    ))
}

/// Arbitrary query text: mixes entity fragments, attribute words, and noise.
fn query_strategy() -> impl Strategy<Value = String> {
    let data = fixtures::data();
    let movie = data.movies[0].title.clone();
    let person = data.people[0].name.clone();
    let movie2 = data.movies[3].title.clone();
    prop::collection::vec(
        prop::sample::select(vec![
            movie,
            person,
            movie2,
            "cast".to_string(),
            "movies".to_string(),
            "box".to_string(),
            "office".to_string(),
            "wallpaper".to_string(),
            "the".to_string(),
        ]),
        0..5,
    )
    .prop_map(|parts| parts.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segments_tile_the_query_exactly(q in query_strategy()) {
        let seg = segmenter().segment(&q);
        // reassembling the segment tokens must reproduce the tokenized query
        let mut rebuilt: Vec<String> = Vec::new();
        for s in &seg.segments {
            match s {
                Segment::Entity { text, .. } => rebuilt.extend(tokenize(text)),
                Segment::Attribute { term, .. } => rebuilt.extend(tokenize(term)),
                Segment::Freetext { term } => rebuilt.extend(tokenize(term)),
            }
        }
        prop_assert_eq!(rebuilt, tokenize(&q));
    }

    #[test]
    fn segmentation_is_deterministic(q in query_strategy()) {
        let s = segmenter();
        prop_assert_eq!(s.segment(&q), s.segment(&q));
    }

    #[test]
    fn residual_plus_entities_cover_all_segments(q in query_strategy()) {
        let seg = segmenter().segment(&q);
        let n = seg.entities().len() + seg.residual().count();
        prop_assert_eq!(n, seg.segments.len());
    }

    #[test]
    fn template_signature_is_stable_under_case(q in query_strategy()) {
        let s = segmenter();
        let upper = q.to_uppercase();
        prop_assert_eq!(
            s.segment(&q).template_signature(),
            s.segment(&upper).template_signature()
        );
    }
}

mod shard_props {
    use super::*;
    use std::sync::OnceLock;

    /// One engine per shard count, shared by `sharded_engines_agree` ONLY:
    /// the property records clicks, and all four engines receive the same
    /// clicks in the same order, so they stay observably equivalent.
    fn engines() -> &'static [QunitSearchEngine; 4] {
        static ENGINES: OnceLock<[QunitSearchEngine; 4]> = OnceLock::new();
        ENGINES.get_or_init(|| {
            let data = fixtures::data();
            [1usize, 2, 3, 8].map(|search_shards| {
                QunitSearchEngine::build(
                    &data.db,
                    expert_imdb_qunits(&data.db).unwrap(),
                    EngineConfig {
                        search_shards,
                        ..EngineConfig::default()
                    },
                )
                .unwrap()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // The sharding determinism contract at the engine layer: for any
        // query and k, every shard count returns the 1-shard results —
        // keys, order, and scores to the ulp (QunitResult's PartialEq
        // compares the f64s exactly). Click feedback re-ranks results, so
        // the equality must also survive a click + cache invalidation.
        #[test]
        fn sharded_engines_agree(q in query_strategy(), k in 0usize..8) {
            let [one, rest @ ..] = engines();
            prop_assert_eq!(one.num_shards(), 1);
            let expected = one.search(&q, k);
            for e in rest.iter() {
                prop_assert_eq!(&e.search(&q, k), &expected);
                prop_assert_eq!(e.index_fingerprint(), one.index_fingerprint());
            }
            // replay the same click everywhere; equivalence must hold on
            // the re-ranked (and freshly uncached) result lists too
            if let Some(top) = expected.first() {
                for e in engines().iter() {
                    e.record_click(&q, &top.key);
                }
                let after = one.search(&q, k);
                for e in rest.iter() {
                    prop_assert_eq!(&e.search(&q, k), &after);
                    prop_assert_eq!(&e.search_uncached(&q, k), &after);
                }
            }
        }
    }
}

mod lane_props {
    use super::*;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    fn catalog() -> &'static QunitCatalog {
        static CATALOG: OnceLock<QunitCatalog> = OnceLock::new();
        CATALOG.get_or_init(|| expert_imdb_qunits(&fixtures::data().db).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The typed-IR filter contract: for every document id (eight past
        // the end included) and any subset of the catalog, two array reads
        // through the doc→definition lane answer exactly what resolving
        // external id → instance → definition name and comparing against
        // the preferred names answered. `owners[doc]` picks the document's
        // definition; the two values past the catalog are a key with no
        // instance behind it and an instance of a definition the catalog
        // does not hold — both belong to no restriction.
        #[test]
        fn lane_filter_equals_name_resolution(
            owners in prop::collection::vec(0usize..catalog().len() + 2, 0..48),
            picks in prop::collection::vec(0u8..2, catalog().len()),
        ) {
            let names: Vec<&str> = catalog().iter().map(|d| d.name.as_str()).collect();
            let keys: Vec<String> = (0..owners.len()).map(|doc| format!("k{doc}")).collect();
            let instances: HashMap<&str, &str> = keys
                .iter()
                .zip(&owners)
                .filter(|(_, &o)| o != names.len())
                .map(|(key, &o)| (key.as_str(), *names.get(o).unwrap_or(&"not_in_catalog")))
                .collect();
            let definition_of = |doc: u32| instances.get(keys.get(doc as usize)?.as_str()).copied();

            let docs = 0..keys.len() as u32;
            let lane = DocDefLane::build(docs.map(|doc| catalog().def_id(definition_of(doc)?)));
            prop_assert_eq!(lane.len(), keys.len());
            let allowed: Vec<bool> = picks.iter().map(|&p| p == 1).collect();
            let preferred: Vec<&str> = names
                .iter()
                .zip(&allowed)
                .filter_map(|(n, &on)| on.then_some(*n))
                .collect();
            for doc in 0..keys.len() as u32 + 8 {
                let by_name = definition_of(doc).is_some_and(|def| preferred.contains(&def));
                prop_assert_eq!((doc, lane.accepts(&allowed, doc)), (doc, by_name));
                prop_assert_eq!(
                    lane.def_of(doc).map(|d| names[d.index()]),
                    definition_of(doc).filter(|def| names.contains(def))
                );
            }
        }
    }
}

mod cache_props {
    use super::*;
    use std::sync::OnceLock;

    /// Shared by `cached_search_equals_uncached` ONLY — that property
    /// records clicks, and sharing a mutated engine with another test fn
    /// would race under parallel test threads.
    fn click_engine() -> &'static QunitSearchEngine {
        static ENGINE: OnceLock<QunitSearchEngine> = OnceLock::new();
        ENGINE.get_or_init(fresh_engine)
    }

    /// Shared by `interleaved_clicks_never_leave_a_stale_entry` ONLY — it
    /// records clicks too.
    fn interleave_engine() -> &'static QunitSearchEngine {
        static ENGINE: OnceLock<QunitSearchEngine> = OnceLock::new();
        ENGINE.get_or_init(fresh_engine)
    }

    /// Shared by `batch_search_equals_sequential` ONLY (never mutated).
    fn batch_engine() -> &'static QunitSearchEngine {
        static ENGINE: OnceLock<QunitSearchEngine> = OnceLock::new();
        ENGINE.get_or_init(fresh_engine)
    }

    /// Queries for the interleaving property: two pairs that share a
    /// template signature within the pair and not across it, and three
    /// shapes of their own.
    fn interleave_queries() -> Vec<String> {
        let data = fixtures::data();
        let (m0, m3) = (&data.movies[0].title, &data.movies[3].title);
        let (p0, p1) = (&data.people[0].name, &data.people[1].name);
        vec![
            format!("{m0} cast"),
            format!("{m3} cast"),
            format!("{p0} movies"),
            format!("{p1} movies"),
            m0.clone(),
            "box office".to_string(),
            format!("{m3} box office"),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The service contract: caching is invisible. For any query and k,
        // the cached path returns exactly what an uncached search returns —
        // on a cold cache, on a warm cache, and again after clicks
        // invalidated every entry.
        #[test]
        fn cached_search_equals_uncached(q in query_strategy(), k in 0usize..8) {
            let engine = click_engine();
            let cold = engine.search(&q, k);
            prop_assert_eq!(&cold, &engine.search_uncached(&q, k));
            // second call is (potentially) a cache hit
            prop_assert_eq!(&engine.search(&q, k), &engine.search_uncached(&q, k));
            // clicking the top result shifts scores and drops the cache;
            // the equality must survive the invalidation
            if let Some(top) = cold.first() {
                engine.record_click(&q, &top.key);
            }
            prop_assert_eq!(&engine.search(&q, k), &engine.search_uncached(&q, k));
        }

        // The same contract across queries: a click on one query must not
        // leave a stale entry for another, whether the two share a
        // template signature (and so the feedback the click moves) or not.
        // Searches and clicks interleave at random over several queries;
        // every search, and finally every query, equals an uncached search.
        #[test]
        fn interleaved_clicks_never_leave_a_stale_entry(
            ops in prop::collection::vec(
                (0usize..3, 0usize..7, 0usize..7, 0usize..10, 0usize..8),
                1..24,
            ),
        ) {
            let engine = interleave_engine();
            let qs = interleave_queries();
            let seg = segmenter();
            let sig = |i: usize| seg.segment(&qs[i]).template_signature();
            prop_assert_eq!(sig(0), sig(1));
            prop_assert_eq!(sig(2), sig(3));
            prop_assert_ne!(sig(0), sig(2));
            for (kind, i, j, r, k) in ops {
                if kind < 2 {
                    prop_assert_eq!(&engine.search(&qs[i], k), &engine.search_uncached(&qs[i], k));
                } else if let Some(hit) = engine.search_uncached(&qs[i], 10).get(r) {
                    engine.record_click(&qs[j], &hit.key);
                }
            }
            for q in &qs {
                prop_assert_eq!(&engine.search(q, 5), &engine.search_uncached(q, 5));
            }
        }

        #[test]
        fn batch_search_equals_sequential(
            qs in prop::collection::vec(query_strategy(), 0..6),
            k in 0usize..8,
        ) {
            let engine = batch_engine();
            let refs: Vec<&str> = qs.iter().map(String::as_str).collect();
            let batched = engine.search_batch(&refs, k);
            prop_assert_eq!(batched.len(), refs.len());
            for (q, batch) in refs.iter().zip(&batched) {
                prop_assert_eq!(batch, &engine.search(q, k));
            }
        }
    }
}

#[test]
fn materialized_instances_have_unique_keys_and_nonempty_text() {
    let data = fixtures::data();
    let cat = expert_imdb_qunits(&data.db).unwrap();
    for def in cat.iter() {
        let instances = materialize_all(&data.db, def).unwrap();
        let mut keys = std::collections::HashSet::new();
        for inst in &instances {
            assert!(keys.insert(inst.key.clone()), "duplicate key {}", inst.key);
            assert!(
                !inst.text.is_empty(),
                "empty instance text for {}",
                inst.key
            );
            assert_eq!(inst.definition, def.name);
            assert!(inst.tuple_count > 0);
        }
    }
}

#[test]
fn anchored_instances_mention_their_anchor() {
    let data = fixtures::data();
    let cat = expert_imdb_qunits(&data.db).unwrap();
    for def in cat.iter().filter(|d| d.is_anchored()) {
        for inst in materialize_all(&data.db, def).unwrap() {
            let anchor = inst.anchor_text().expect("anchored");
            assert!(
                inst.text.contains(&anchor),
                "{}: text lacks anchor {anchor}",
                inst.key
            );
        }
    }
}

#[test]
fn engine_results_reference_real_instances() {
    let data = fixtures::data();
    let cat = expert_imdb_qunits(&data.db).unwrap();
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();
    for m in data.movies.iter().take(10) {
        for r in engine.search(&format!("{} cast", m.title), 5) {
            let inst = engine.instance(&r.key).expect("result key resolves");
            assert_eq!(inst.definition, r.definition);
            assert!(r.score.is_finite() && r.score >= 0.0);
        }
    }
}

#[test]
fn relevance_feedback_shifts_routing() {
    // Ambiguous single-entity queries default to the summary page; after
    // repeated clicks on cast results for that query shape, the engine
    // should start preferring the cast qunit (§3's relevance-feedback
    // extension).
    let data = fixtures::data();
    let cat = expert_imdb_qunits(&data.db).unwrap();
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();

    let movie = &data.movies[0];
    let query = movie.title.clone();
    let before = engine.top(&query).expect("has result");
    assert_eq!(
        before.definition, "movie_page",
        "default routing is the summary page"
    );

    // Users keep clicking the cast instance for bare-title queries.
    let cast_key = format!("movie_cast::{}", movie.title);
    assert!(engine.instance(&cast_key).is_some());
    for _ in 0..50 {
        engine.record_click(&query, &cast_key);
    }
    assert!(engine.feedback().total("[movie.title]") == 50);

    let after = engine.top(&query).expect("has result");
    assert_eq!(
        after.definition, "movie_cast",
        "feedback should shift bare-title routing toward the clicked type"
    );

    // A different query shape is untouched by that feedback.
    let other = engine
        .top(&format!("{} box office", data.movies[1].title))
        .unwrap();
    assert_eq!(other.definition, "movie_boxoffice");
}

#[test]
fn engine_scores_monotone_in_k() {
    // growing k never changes the relative order of the prefix
    let data = fixtures::data();
    let cat = expert_imdb_qunits(&data.db).unwrap();
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();
    let q = format!("{} cast", data.movies[0].title);
    let five: Vec<String> = engine.search(&q, 5).into_iter().map(|r| r.key).collect();
    let ten: Vec<String> = engine.search(&q, 10).into_iter().map(|r| r.key).collect();
    assert_eq!(&ten[..five.len().min(ten.len())], &five[..]);
}
