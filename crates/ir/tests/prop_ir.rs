//! Property tests over the IR engine's core invariants.

use irengine::{
    Analyzer, DispatchPolicy, DocId, DocView, Document, Hit, Index, IndexBuilder, KernelTier,
    PostingsBuf, ScoreScratch, ScoringFunction, ScratchPool, SearchContext, Searcher,
    ShardExecutor, ShardedIndex, ShardedSearcher, TermStats,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference scorer, kept as an executable specification: terms
/// de-duplicated in first-occurrence order, then accumulated in the
/// canonical **bound-descending order** (per-term score upper bound ×
/// query multiplicity, ties by first occurrence — the exact expression the
/// kernel uses), per-posting statistics re-read through [`TermStats::of`]
/// (IDF recomputed every posting), scores summed into a `HashMap`
/// accumulator, every match sorted, then truncated to `k`. The production
/// kernel (interned terms, CSR postings, hoisted scorers, dense
/// accumulator, bounded top-k, MaxScore pruning) must reproduce this
/// **bit for bit**.
fn naive_search(index: &Index, scoring: ScoringFunction, terms: &[String], k: usize) -> Vec<Hit> {
    if k == 0 || terms.is_empty() {
        return Vec::new();
    }
    let mut deduped: Vec<(&str, usize)> = Vec::new();
    for t in terms {
        match deduped.iter_mut().find(|(s, _)| *s == t.as_str()) {
            Some((_, c)) => *c += 1,
            None => deduped.push((t.as_str(), 1)),
        }
    }
    // Same bound expression as the kernel: margin-inflated max_score over
    // the term's max weighted tf, scaled by query multiplicity.
    let bounds: Vec<f64> = deduped
        .iter()
        .map(|(term, qtf)| {
            let scorer = scoring.scorer(TermStats::of(index, term));
            scorer.max_score(index.max_weighted_tf(term)) * *qtf as f64
        })
        .collect();
    let mut order: Vec<usize> = (0..deduped.len()).collect();
    order.sort_by(|&a, &b| {
        bounds[b]
            .partial_cmp(&bounds[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut acc: HashMap<DocId, (f64, usize)> = HashMap::new();
    for &i in &order {
        let (term, qtf) = deduped[i];
        for p in index.postings_with(term, &mut PostingsBuf::new()) {
            let s = scoring.score_term_stats(
                TermStats::of(index, term),
                index.doc_length(p.doc),
                p.weighted_tf,
            ) * qtf as f64;
            let e = acc.entry(p.doc).or_insert((0.0, 0));
            e.0 += s;
            e.1 += 1;
        }
    }
    let mut hits: Vec<Hit> = acc
        .into_iter()
        .map(|(doc, (score, matched_terms))| Hit {
            doc,
            score,
            matched_terms,
        })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(k);
    hits
}

fn word() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "star", "wars", "trek", "ocean", "cast", "movie", "actor", "drama", "space", "heist",
    ])
    .prop_map(str::to_string)
}

fn doc_text() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 1..12).prop_map(|ws| ws.join(" "))
}

fn builder(texts: &[String]) -> IndexBuilder {
    let mut b = IndexBuilder::new().with_analyzer(Analyzer::keep_all());
    for (i, t) in texts.iter().enumerate() {
        b.add(Document::new(format!("d{i}")).field("body", t.clone()));
    }
    b
}

fn build_index(texts: &[String]) -> irengine::Index {
    builder(texts).build()
}

/// [`Searcher::search_terms_with`] from query text, on a fresh scratch.
fn search(s: &Searcher, q: &str, k: usize) -> Vec<Hit> {
    s.search_terms_with(
        &Analyzer::keep_all().tokenize(q),
        k,
        &mut ScoreScratch::new(),
    )
}

/// An unfiltered sharded search under `ctx`, which must not fail.
fn sharded_search(
    s: &ShardedSearcher,
    terms: &[String],
    k: usize,
    ctx: &SearchContext,
) -> Vec<Hit> {
    s.try_search_terms_where_ctx(terms, k, None, ctx)
        .expect("no probe, no faults")
        .hits
}

/// Same docs, same order, same matched counts, scores identical to the bit.
fn assert_bit_identical(
    got: &[Hit],
    expected: &[Hit],
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(expected) {
        prop_assert_eq!(g.doc, e.doc);
        prop_assert_eq!(g.matched_terms, e.matched_terms);
        prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scores_are_finite_and_nonnegative(texts in prop::collection::vec(doc_text(), 1..20), q in doc_text()) {
        let ix = build_index(&texts);
        let s = Searcher::new(&ix, ScoringFunction::default());
        for hit in search(&s, &q, texts.len()) {
            prop_assert!(hit.score.is_finite());
            prop_assert!(hit.score >= 0.0);
            prop_assert!(hit.matched_terms >= 1);
        }
    }

    #[test]
    fn every_hit_contains_a_query_term(texts in prop::collection::vec(doc_text(), 1..20), q in doc_text()) {
        let ix = build_index(&texts);
        let s = Searcher::new(&ix, ScoringFunction::default());
        let analyzer = Analyzer::keep_all();
        let q_terms = analyzer.tokenize(&q);
        for hit in search(&s, &q, texts.len()) {
            let body = ix.document(hit.doc).unwrap().full_text();
            let doc_terms = analyzer.tokenize(&body);
            prop_assert!(q_terms.iter().any(|t| doc_terms.contains(t)),
                "hit {} shares no term with query {:?}", body, q_terms);
        }
    }

    #[test]
    fn hits_sorted_descending_and_bounded_by_k(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        k in 0usize..25,
    ) {
        let ix = build_index(&texts);
        let s = Searcher::new(&ix, ScoringFunction::default());
        let hits = search(&s, &q, k);
        prop_assert!(hits.len() <= k);
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn adding_an_irrelevant_doc_keeps_match_set(
        texts in prop::collection::vec(doc_text(), 2..15),
        q in doc_text(),
    ) {
        // An added document sharing no vocabulary with the query must never
        // enter the result set, and the set of matched documents must be
        // unchanged. (Exact *order* may shift: avgdl moves for everyone.)
        let ix = build_index(&texts);
        let s = Searcher::new(&ix, ScoringFunction::default());
        let mut before: Vec<u32> = search(&s, &q, 100).into_iter().map(|h| h.doc).collect();

        let mut extended = texts.clone();
        extended.push("zzz yyy xxx www".to_string());
        let new_doc = (extended.len() - 1) as u32;
        let ix2 = build_index(&extended);
        let s2 = Searcher::new(&ix2, ScoringFunction::default());
        let mut after: Vec<u32> = search(&s2, &q, 100).into_iter().map(|h| h.doc).collect();

        prop_assert!(!after.contains(&new_doc));
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn doc_length_equals_token_count_without_boosts(texts in prop::collection::vec(doc_text(), 1..10)) {
        let ix = build_index(&texts);
        let analyzer = Analyzer::keep_all();
        for (i, t) in texts.iter().enumerate() {
            let n = analyzer.tokenize(t).len() as f64;
            prop_assert!((ix.doc_length(i as u32) - n).abs() < 1e-9);
        }
    }

    #[test]
    fn df_never_exceeds_num_docs(texts in prop::collection::vec(doc_text(), 1..20)) {
        let ix = build_index(&texts);
        for term in ["star", "wars", "ocean", "cast"] {
            prop_assert!(ix.doc_freq(term) <= ix.num_docs());
        }
    }

    // The flat-kernel determinism contract: for any corpus, query, scoring
    // function, and k ∈ {1, 3, all}, the CSR/dense/bounded-top-k kernel
    // returns exactly what the naive reference computes — same docs, same
    // order, same matched_terms, scores identical to the bit.
    #[test]
    fn kernel_bit_identical_to_naive_reference(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        tfidf in prop::sample::select(vec![false, true]),
    ) {
        let scoring = if tfidf { ScoringFunction::TfIdf } else { ScoringFunction::default() };
        let ix = build_index(&texts);
        let s = Searcher::new(&ix, scoring);
        let terms = Analyzer::keep_all().tokenize(&q);
        let mut scratch = ScoreScratch::new();
        for k in [1usize, 3, texts.len() + 5] {
            let expected = naive_search(&ix, scoring, &terms, k);
            let got = s.search_terms_with(&terms, k, &mut scratch);
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.doc, e.doc);
                prop_assert_eq!(g.matched_terms, e.matched_terms);
                prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
            }
        }
    }

    // The same contract through the sharded path: per-shard kernels against
    // corpus-global scorers + deterministic merge ≡ the naive reference —
    // unfiltered, and under a random accept-set. The filter sees global ids,
    // so its reference is the full naive ranking, filtered, then cut to k.
    #[test]
    fn sharded_kernel_bit_identical_to_naive_reference(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        accept in prop::collection::vec(prop::sample::select(vec![false, true]), 20),
    ) {
        let scoring = ScoringFunction::default();
        let ix = build_index(&texts);
        let terms = Analyzer::keep_all().tokenize(&q);
        let accepts = |d: DocId| accept[d as usize];
        let everything = naive_search(&ix, scoring, &terms, texts.len());
        let ctx = SearchContext::default();
        for n in [1usize, 2, 3, 8] {
            let sx = builder(&texts).build_sharded(n);
            let sharded = ShardedSearcher::new(&sx, scoring);
            for k in [1usize, 3, texts.len() + 5] {
                let expected = naive_search(&ix, scoring, &terms, k);
                assert_bit_identical(&sharded_search(&sharded, &terms, k, &ctx), &expected)?;
                let filtered: Vec<Hit> =
                    everything.iter().filter(|h| accepts(h.doc)).take(k).cloned().collect();
                let got = sharded
                    .try_search_terms_where_ctx(&terms, k, Some(&accepts), &ctx)
                    .expect("no probe, no faults")
                    .hits;
                assert_bit_identical(&got, &filtered)?;
            }
        }
    }

    // The sharding determinism contract at the IR layer: for any corpus,
    // query, k, and shard count, the sharded searcher returns exactly the
    // unsharded hits — same global ids, same order, scores equal to the
    // ulp (Hit's PartialEq compares f64 exactly, which is the point).
    #[test]
    fn sharded_search_equals_unsharded_for_any_shard_count(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        k in 0usize..25,
    ) {
        let ix = build_index(&texts);
        let flat = Searcher::new(&ix, ScoringFunction::default());
        let expected = search(&flat, &q, k);
        let terms = Analyzer::keep_all().tokenize(&q);
        for n in [1usize, 2, 3, 8] {
            let sx = builder(&texts).build_sharded(n);
            let sharded = ShardedSearcher::new(&sx, ScoringFunction::default());
            prop_assert_eq!(
                &sharded_search(&sharded, &terms, k, &SearchContext::default()),
                &expected
            );
        }
    }

    #[test]
    fn sharded_fingerprint_is_shard_count_invariant(
        texts in prop::collection::vec(doc_text(), 0..15),
    ) {
        let base = builder(&texts).build_sharded(1).fingerprint();
        for n in [2usize, 3, 8] {
            prop_assert_eq!(builder(&texts).build_sharded(n).fingerprint(), base);
        }
    }

    // The executor determinism contract: for any corpus, query, shard
    // count, pool size, and k, the adaptive inline path, forced inline and
    // forced dispatch onto a persistent ShardExecutor all return
    // bit-identical hits (ids, order, scores, matched_terms — Hit's
    // PartialEq compares f64 exactly).
    #[test]
    fn inline_and_dispatched_execution_bit_identical(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        n in 1usize..6,
        // A pool of one inlines whatever the policy says, so the
        // dispatched leg needs two workers or more.
        pool_threads in 2usize..4,
        k in 1usize..15,
    ) {
        let sx = builder(&texts).build_sharded(n);
        let sharded = ShardedSearcher::new(&sx, ScoringFunction::default());
        let terms = Analyzer::keep_all().tokenize(&q);
        let exec = ShardExecutor::new(pool_threads);
        let pool = ScratchPool::new();
        let accept_all = |_: DocId| true;
        let run = |ctx: &SearchContext| {
            sharded
                .try_search_terms_where_ctx(&terms, k, Some(&accept_all), ctx)
                .expect("no probe, no faults")
        };
        let inline = run(&SearchContext {
            policy: DispatchPolicy::force_inline(),
            ..SearchContext::default()
        });
        let dispatched = run(&SearchContext {
            exec: Some(&exec),
            pool: Some(&pool),
            policy: DispatchPolicy::force_dispatch(),
            ..SearchContext::default()
        });
        // adaptive with a zero threshold dispatches everything with
        // postings; with usize::MAX it inlines everything — both must
        // agree with each other and with the forced modes
        let adaptive_low = run(&SearchContext {
            exec: Some(&exec),
            pool: Some(&pool),
            policy: DispatchPolicy::adaptive(0),
            ..SearchContext::default()
        });
        let adaptive_high = run(&SearchContext {
            exec: Some(&exec),
            pool: Some(&pool),
            policy: DispatchPolicy::adaptive(usize::MAX),
            ..SearchContext::default()
        });
        prop_assert_eq!(&dispatched, &inline);
        prop_assert_eq!(&adaptive_low, &inline);
        prop_assert_eq!(&adaptive_high, &inline);
    }

    // The kernel-tier contract: block-max ≡ MaxScore ≡ exhaustive ≡ naive
    // reference — docs, order, matched_terms, and score bits — for
    // k ∈ {1, 3, all}, every block size (1, tiny, default), flat and
    // sharded, inline and dispatched. This pins both that no pruned tier
    // ever diverges and that the tiers `QUNITS_KERNEL` selects stay wired
    // up.
    #[test]
    fn all_kernel_tiers_bit_identical_to_naive(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        n in 1usize..6,
        tfidf in prop::sample::select(vec![false, true]),
        block_size in prop::sample::select(vec![1usize, 3, 128]),
    ) {
        let scoring = if tfidf { ScoringFunction::TfIdf } else { ScoringFunction::default() };
        let mut fb = builder(&texts);
        fb.set_block_size(block_size);
        let ix = fb.build();
        let terms = Analyzer::keep_all().tokenize(&q);
        let mut sb = builder(&texts);
        sb.set_block_size(block_size);
        let sx = sb.build_sharded(n);
        let sharded = ShardedSearcher::new(&sx, scoring);
        let exec = ShardExecutor::new(2);
        let pool = ScratchPool::new();
        let mut scratch = ScoreScratch::new();
        let tiers = [KernelTier::BlockMax, KernelTier::MaxScore, KernelTier::Exhaustive];
        for k in [1usize, 3, texts.len() + 5] {
            let expected = naive_search(&ix, scoring, &terms, k);
            for tier in tiers {
                let flat = Searcher::new(&ix, scoring).with_tier(tier);
                assert_bit_identical(&flat.search_terms_with(&terms, k, &mut scratch), &expected)?;
                let inline = sharded.try_search_terms_where_ctx(&terms, k, None, &SearchContext {
                    policy: DispatchPolicy::force_inline(),
                    tier,
                    ..SearchContext::default()
                }).unwrap().hits;
                let dispatched = sharded.try_search_terms_where_ctx(&terms, k, None, &SearchContext {
                    exec: Some(&exec),
                    pool: Some(&pool),
                    policy: DispatchPolicy::force_dispatch(),
                    tier,
                    ..SearchContext::default()
                }).unwrap().hits;
                assert_bit_identical(&inline, &expected)?;
                assert_bit_identical(&dispatched, &expected)?;
            }
        }
    }

    // The compression determinism contract: delta+varint posting lanes are
    // a physical re-encoding only. For any corpus, query, k, and shard
    // count, compressing leaves the fingerprint untouched and every hit
    // list bit-identical (pruned and exhaustive kernels both — the
    // MaxScore bound lanes are rebuilt from the same data), and a
    // decompress round-trip restores byte-for-byte flat lanes.
    #[test]
    fn compressed_search_bit_identical_to_flat(
        texts in prop::collection::vec(doc_text(), 1..20),
        q in doc_text(),
        n in 1usize..6,
        k in 1usize..15,
    ) {
        let mut sx = builder(&texts).build_sharded(n);
        let fingerprint = sx.fingerprint();
        let flat_bytes = sx.posting_store_bytes();
        let terms = Analyzer::keep_all().tokenize(&q);
        let ctx = SearchContext::default();
        let flat_hits = sharded_search(&ShardedSearcher::new(&sx, ScoringFunction::default()), &terms, k, &ctx);
        sx.compress_postings();
        prop_assert_eq!(sx.postings_codec(), irengine::PostingsCodec::DeltaVarint);
        // `sx` remembers its fingerprint from above, so the walk over
        // compressed lanes is taken on an index that never computed one.
        let mut walked_compressed = builder(&texts).build_sharded(n);
        walked_compressed.compress_postings();
        prop_assert_eq!(walked_compressed.fingerprint(), fingerprint);
        prop_assert_eq!(sx.fingerprint(), fingerprint);
        let sharded = ShardedSearcher::new(&sx, ScoringFunction::default());
        assert_bit_identical(&sharded_search(&sharded, &terms, k, &ctx), &flat_hits)?;
        for tier in [KernelTier::BlockMax, KernelTier::MaxScore, KernelTier::Exhaustive] {
            let forced = sharded.try_search_terms_where_ctx(&terms, k, None, &SearchContext {
                tier,
                ..SearchContext::default()
            }).unwrap().hits;
            assert_bit_identical(&forced, &flat_hits)?;
        }
        sx.decompress_postings();
        prop_assert_eq!(sx.postings_codec(), irengine::PostingsCodec::Flat);
        prop_assert_eq!(sx.posting_store_bytes(), flat_bytes);
        prop_assert_eq!(sx.fingerprint(), fingerprint);
    }

    // The snapshot determinism contract: save → load reproduces the exact
    // logical index for any corpus, shard count, and codec — fingerprint,
    // codec, posting-store bytes, and every ranked list bit-identical.
    #[test]
    fn snapshot_round_trip_bit_identical(
        texts in prop::collection::vec(doc_text(), 0..15),
        q in doc_text(),
        n in 1usize..6,
        compressed in prop::sample::select(vec![false, true]),
        k in 1usize..15,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static UNIQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "qunits-prop-snap-{}-{}.qx",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut sx = builder(&texts).build_sharded(n);
        if compressed {
            sx.compress_postings();
        }
        sx.save_snapshot(&path).unwrap();
        let loaded = irengine::ShardedIndex::load_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(loaded.fingerprint(), sx.fingerprint());
        prop_assert_eq!(loaded.postings_codec(), sx.postings_codec());
        prop_assert_eq!(loaded.posting_store_bytes(), sx.posting_store_bytes());
        prop_assert_eq!(loaded.num_docs(), sx.num_docs());
        prop_assert_eq!(loaded.num_postings(), sx.num_postings());
        let terms = Analyzer::keep_all().tokenize(&q);
        let ctx = SearchContext::default();
        let expected = sharded_search(&ShardedSearcher::new(&sx, ScoringFunction::default()), &terms, k, &ctx);
        let got = sharded_search(&ShardedSearcher::new(&loaded, ScoringFunction::default()), &terms, k, &ctx);
        assert_bit_identical(&got, &expected)?;
    }

    #[test]
    fn bm25_and_tfidf_agree_on_single_term_single_doc_ranking(
        texts in prop::collection::vec(doc_text(), 1..15),
    ) {
        // For a single-term query the set of matched docs is identical
        // across scorers (scores differ, membership doesn't).
        let ix = build_index(&texts);
        let bm = Searcher::new(&ix, ScoringFunction::default());
        let tf = Searcher::new(&ix, ScoringFunction::TfIdf);
        let mut a: Vec<u32> = search(&bm, "star", 100).into_iter().map(|h| h.doc).collect();
        let mut b: Vec<u32> = search(&tf, "star", 100).into_iter().map(|h| h.doc).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// Stored-document ingredients: empty strings, multi-byte UTF-8 (two-,
/// three- and four-byte, and a combining mark), and few enough external ids
/// and field names that both repeat.
const EXTERNAL_IDS: &[&str] = &["", "d1", "d2", "é", "d1 "];
const FIELD_NAMES: &[&str] = &["title", "body", "", "名前"];
const FIELD_TEXTS: &[&str] = &[
    "",
    "star wars",
    "İstanbul straße",
    "日本語 テキスト",
    "a\u{307} 🎬",
    " ",
];

/// A document of 0–4 fields.
fn stored_document() -> impl Strategy<Value = Document> {
    (
        prop::sample::select(EXTERNAL_IDS.to_vec()),
        prop::collection::vec(
            (
                prop::sample::select(FIELD_NAMES.to_vec()),
                prop::sample::select(FIELD_TEXTS.to_vec()),
            ),
            0..5,
        ),
    )
        .prop_map(|(id, fields)| {
            fields
                .into_iter()
                .fold(Document::new(id), |doc, (name, text)| doc.field(name, text))
        })
}

/// Every stored document reads back as the `Document` added, and every
/// external id resolves to the first document added with it.
fn assert_stored<'a>(
    docs: &[Document],
    document: impl Fn(DocId) -> Option<DocView<'a>>,
    doc_for_external: impl Fn(&str) -> Option<DocId>,
    what: &str,
) {
    for (i, want) in docs.iter().enumerate() {
        let view = document(i as DocId).expect("in range");
        assert_eq!(view.external_id(), want.external_id.as_str(), "{what}");
        let fields: Vec<(&str, &str)> = view.fields().collect();
        let want_fields: Vec<(&str, &str)> = want
            .fields
            .iter()
            .map(|(name, text)| (name.as_str(), text.as_str()))
            .collect();
        assert_eq!(fields, want_fields, "{what}");
        for name in FIELD_NAMES.iter().chain(&["absent"]) {
            assert_eq!(view.get_field(name), want.get_field(name), "{what}");
        }
        assert_eq!(view.full_text(), want.full_text(), "{what}");
        let first = docs
            .iter()
            .position(|d| d.external_id == want.external_id)
            .map(|p| p as DocId);
        assert_eq!(doc_for_external(&want.external_id), first, "{what}");
    }
    assert!(document(docs.len() as DocId).is_none(), "{what}");
    assert_eq!(doc_for_external("absent"), None, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stored documents through the text arena and the id table: a cold
    /// build, unsharded and at 1 and 3 shards, and the same after a save
    /// and load.
    #[test]
    fn stored_documents_read_back_as_added(docs in prop::collection::vec(stored_document(), 0..12)) {
        let builder = || {
            let mut b = IndexBuilder::new();
            for doc in &docs {
                b.add(doc.clone());
            }
            b
        };
        let ix = builder().build();
        assert_stored(&docs, |d| ix.document(d), |e| ix.doc_for_external(e), "unsharded");
        for n in [1usize, 3] {
            let built = builder().build_sharded(n);
            let cold = format!("cold, {n} shards");
            assert_stored(&docs, |d| built.document(d), |e| built.doc_for_external(e), &cold);
            static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "qunits-prop-stored-{}-{}.qx",
                std::process::id(),
                UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            built.save_snapshot(&path).unwrap();
            let loaded = ShardedIndex::load_snapshot(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let reloaded = format!("loaded, {n} shards");
            assert_stored(&docs, |d| loaded.document(d), |e| loaded.doc_for_external(e), &reloaded);
        }
    }
}
