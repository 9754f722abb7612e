//! `corpus_scale`: the IR crate alone on a 200 000-document synthetic corpus.
//!
//! Eight times the postings of the IMDb workloads, so the block-max kernel,
//! posting decode, executor dispatch and merge, and the snapshot reader do
//! nearly all the work, and segmentation, cache and materialisation none. It
//! is the only workload on which queries are dispatched to the executor. One
//! client, because the executor supplies the parallelism.

use crate::check;
use crate::layers::{report_driver, report_exec, ExecReading, IrLayers};
use crate::load::{closed_loop, traced_loop, Kind, Sample};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{busiest_rate, fastest, median, timed, Latency};
use crate::trace::{Span, Tracer};
use crate::Args;
use datagen::corpus::{CorpusConfig, CorpusDoc, SyntheticCorpus};
use irengine::{
    DispatchCounts, DispatchPolicy, Document, IndexBuilder, KernelTier, ScratchPool, SearchContext,
    SearchFailure, SearchOutcome, ShardExecutor, ShardTimings, ShardedIndex, ShardedSearcher,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The engine's defaults on this path.
const SHARDS: usize = 2;
const K: usize = 10;
const ANCHOR_BOOST: f64 = 3.0;
/// Queries generated; the loops cycle through them.
const QUERY_POOL: usize = 100_000;
/// Entity-name queries judged for `result_quality`.
const QUALITY_QUERIES: usize = 300;

#[derive(Default)]
struct SetUpTimes {
    whole: Vec<f64>,
    datagen: Vec<f64>,
    add: Vec<f64>,
    freeze: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
}

pub fn run(args: &Args, tmp: &Path) -> (Outcome, Option<Vec<Span>>) {
    let mut out = Outcome::default();
    let snapshot = tmp.join("corpus.snap");
    let config = CorpusConfig {
        seed: args.sub_seed(1),
        ..CorpusConfig::at_scale(args.scale.corpus_factor)
    };

    // Set-up, several times over: generate, index, freeze, save, and restart
    // from the snapshot. The last restart's index is the one that serves.
    let mut times = SetUpTimes::default();
    let mut kept = None;
    for _ in 0..args.scale.corpus_setups {
        drop(kept.take());
        let whole = Instant::now();
        let corpus = SyntheticCorpus::new(config);
        let docs: Vec<CorpusDoc> = timed(&mut times.datagen, || corpus.docs().collect());
        let mut builder = IndexBuilder::new();
        builder.set_field_boost("anchor", ANCHOR_BOOST);
        timed(&mut times.add, || {
            for d in docs {
                builder.add(
                    Document::new(d.external_id)
                        .field("anchor", d.anchor)
                        .field("body", d.body),
                );
            }
        });
        let built = timed(&mut times.freeze, || builder.build_sharded(SHARDS));
        timed(&mut times.save, || {
            built.save_snapshot(&snapshot).expect("save the snapshot")
        });
        let built_fingerprint = built.fingerprint();
        drop(built);
        let loaded = timed(&mut times.load, || {
            ShardedIndex::load_snapshot(&snapshot).expect("load the snapshot")
        });
        times.whole.push(whole.elapsed().as_secs_f64());
        kept = Some((corpus, loaded, built_fingerprint));
    }
    let after_setups = Instant::now();
    let (corpus, index, built_fingerprint) = kept.expect("at least one set-up");
    out.check(
        "snapshot_fingerprint",
        index.fingerprint() == built_fingerprint,
    );
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());

    let warmup = args.scale.warmup_ops;
    let queries = corpus.queries(warmup + QUERY_POOL, args.sub_seed(2));
    let exec = ShardExecutor::new(0);
    let pool = ScratchPool::new();
    let timings = ShardTimings::new(SHARDS);
    let decisions = DispatchCounts::new();
    let ctx = SearchContext {
        pool: Some(&pool),
        exec: Some(&exec),
        timings: Some(&timings),
        policy: DispatchPolicy::adaptive(DispatchPolicy::DEFAULT_INLINE_THRESHOLD),
        decisions: Some(&decisions),
        tier: KernelTier::BlockMax,
        ..SearchContext::default()
    };
    let searcher = ShardedSearcher::new(&index, irengine::ScoringFunction::default());

    // What a caller of the IR crate does for one query: analyse, then search.
    let serve = |query_at: usize, terms: &mut Vec<String>| -> Sample {
        let start = Instant::now();
        index.analyzer().tokenize_into(&queries[query_at], terms);
        let answer = searcher.try_search_terms_where_ctx(terms, K, None, &ctx);
        sample_of(query_at, start.elapsed(), answer)
    };
    let reading = || ExecReading {
        exec: exec.stats(),
        decisions: decisions.snapshot(),
        shard_nanos: timings.snapshot(),
    };
    let mut terms = Vec::new();
    for i in 0..warmup {
        black_box(serve(i, &mut terms));
    }
    let setup_s = median(&mut times.whole.clone()) + after_setups.elapsed().as_secs_f64();

    let (samples, spans, compressed) = if args.traced {
        let calibration = closed_loop(1, args.limit.fraction(0.25), |_| {
            let mut terms = Vec::new();
            move |i| serve(warmup + i % QUERY_POOL, &mut terms)
        });
        let untraced = Latency::from_nanos(calibration.samples.iter().map(|s| s.latency_ns));

        let mut compress_s = Vec::new();
        let mut compressed = index.clone();
        timed(&mut compress_s, || compressed.compress_postings());
        let mut layers = IrLayers::new(&index, &compressed);
        let before = reading();
        let mut tracer = Tracer::new();
        let mut samples = Vec::new();
        // The traced stream starts half way into the pool, wherever the
        // calibration got to, so a fixed --ops traces the same queries.
        traced_loop(args.limit, &mut tracer, |t, op| {
            let query_at = warmup + (QUERY_POOL / 2 + op as usize) % QUERY_POOL;
            let answer = t.span("driver.op", op, 0, |t, root| {
                layers.analysis(t, op, root, &queries[query_at]);
                let answer = layers.shard(t, op, root, K, &ctx);
                layers.term_stats(t, op, root);
                layers.kernel(t, op, root, K);
                answer
            });
            samples.push(sample_of(query_at, Duration::ZERO, answer));
        });
        let spans = tracer.spans;

        layers.report(&spans, &mut out);
        report_exec(&before, &reading(), &mut out);
        out.set("ir.index.add_s", median(&mut times.add));
        out.set("ir.index.freeze_s", median(&mut times.freeze));
        out.set("ir.index.compress_s", compress_s[0]);
        out.set("ir.snapshot.save_s", median(&mut times.save));
        out.set("ir.snapshot.load_s", median(&mut times.load));
        out.set("ir.snapshot.bytes", snapshot_bytes as f64);
        out.set("datagen.corpus_s", median(&mut times.datagen));
        report_driver(
            &spans,
            &["ir.analysis", "ir.shard"],
            &["ir.shard"],
            &["ir.shard.term_stats"],
            untraced.p50_us,
            &mut out,
        );
        (samples, Some(spans), Some(compressed))
    } else {
        let timed_section = closed_loop(1, args.limit, |_| {
            let mut terms = Vec::new();
            move |i| serve(warmup + i % QUERY_POOL, &mut terms)
        });
        let rss = peak_rss_mb();
        let latency = Latency::quietest(
            timed_section
                .samples
                .iter()
                .map(|s| (s.done_ns, s.latency_ns)),
        );
        out.set("setup_s", setup_s);
        out.set("query_p50_us", latency.p50_us);
        out.set("query_p99_us", latency.p99_us);
        out.set(
            "throughput_qps",
            busiest_rate(timed_section.samples.iter().map(|s| s.done_ns)),
        );
        out.note("timed_wall_s", timed_section.wall_s);
        out.set("build_s", fastest(&sum(&times.add, &times.freeze)));
        out.set("restart_s", fastest(&times.load));
        out.set(
            "index_bytes_per_posting",
            index.posting_store_bytes() as f64 / index.num_postings() as f64,
        );
        out.set(
            "snapshot_bytes_per_doc",
            snapshot_bytes as f64 / index.num_docs() as f64,
        );
        out.set("peak_rss_mb", rss);
        out.note("latency_samples", latency.samples as f64);
        out.note("samples_beyond_p99", latency.beyond_p99() as f64);
        let (inline, dispatched) = decisions.snapshot();
        out.note(
            "dispatched_frac",
            dispatched as f64 / (inline + dispatched).max(1) as f64,
        );
        (timed_section.samples, None, None)
    };

    // Output checks. The reference differs from the served path in every way
    // that must not matter: exhaustive kernel, compressed postings, no
    // executor, thread-local scratch.
    let reference_index = compressed.unwrap_or_else(|| {
        let mut copy = index.clone();
        copy.compress_postings();
        copy
    });
    let reference_searcher =
        ShardedSearcher::new(&reference_index, irengine::ScoringFunction::default());
    let reference_ctx = SearchContext {
        policy: DispatchPolicy::force_inline(),
        tier: KernelTier::Exhaustive,
        ..SearchContext::default()
    };
    let reference: HashMap<u32, u64> = check::pick_queries(&samples, args.scale.check_queries)
        .into_iter()
        .map(|q| {
            reference_index
                .analyzer()
                .tokenize_into(&queries[q as usize], &mut terms);
            let hits = reference_searcher
                .try_search_terms_where_ctx(&terms, K, None, &reference_ctx)
                .expect("the reference search cannot fail")
                .hits;
            (q, check::of_hits(&hits))
        })
        .collect();
    out.attempted = samples.len() as u64;
    let errors = samples.iter().filter(|s| !s.ok).count() as u64;
    let wrong = check::mismatches(&samples, &reference);
    out.failed = errors + wrong;
    out.note("errors_or_degraded", errors as f64);
    out.note("answers_unlike_reference", wrong as f64);
    out.note("queries_checked", reference.len() as f64);

    if !args.traced {
        out.set(
            "result_quality",
            entity_precision(&index, &searcher, &ctx, &queries),
        );
    }
    (out, spans)
}

fn sample_of(
    query_at: usize,
    latency: Duration,
    answer: Result<SearchOutcome, SearchFailure>,
) -> Sample {
    Sample {
        query: query_at as u32,
        latency_ns: latency.as_nanos() as u64,
        done_ns: 0,
        fingerprint: answer.as_ref().map_or(0, |o| check::of_hits(&o.hits)),
        ok: answer.is_ok_and(|o| !o.degraded()),
        kind: Kind::Query,
    }
}

/// Element-wise sum of two equally long series.
fn sum(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `result_quality` on this workload: over the pool's first entity-name
/// queries, the share of returned hits that are documents anchored on the
/// entity asked for.
fn entity_precision(
    index: &ShardedIndex,
    searcher: &ShardedSearcher,
    ctx: &SearchContext,
    queries: &[String],
) -> f64 {
    let (mut relevant, mut returned) = (0usize, 0usize);
    let mut terms = Vec::new();
    // `SyntheticCorpus::queries` makes every third query a bare entity name.
    for query in queries.iter().step_by(3).take(QUALITY_QUERIES) {
        index.analyzer().tokenize_into(query, &mut terms);
        let hits = searcher
            .try_search_terms_where_ctx(&terms, K, None, ctx)
            .map_or(Vec::new(), |o| o.hits);
        returned += hits.len();
        relevant += hits
            .iter()
            .filter(|h| index.document(h.doc).and_then(|d| d.get_field("anchor")) == Some(query))
            .count();
    }
    relevant as f64 / returned.max(1) as f64
}
