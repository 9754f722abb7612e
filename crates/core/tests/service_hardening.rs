//! Service-hardening contract tests: the dispatch paths, the kernel tiers,
//! and the observability counters — the guarantees behind serving
//! open-loop load.
//!
//! The load-bearing claims pinned here, complementing the CI determinism
//! transcript gate (which diffs `exp_determinism` at
//! `QUNITS_INLINE_THRESHOLD=0`):
//!
//! 1. a sharded engine is bit-identical to the default one — keys, order,
//!    score bits — whether every shard is scored inline on the caller or
//!    dispatched onto the executor;
//! 2. the obs counters add up under `search_batch`, including the
//!    inline-vs-dispatch split;
//! 3. every scoring kernel tier ([`EngineConfig::kernel`], and the
//!    [`EngineConfig::force_exhaustive`] shorthand) is bit-identical to the
//!    default at every shard count.

use datagen::imdb::{ImdbConfig, ImdbData};
use irengine::KernelTier;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine};

fn data() -> ImdbData {
    ImdbData::generate(ImdbConfig::tiny())
}

fn build(data: &ImdbData, config: EngineConfig) -> QunitSearchEngine {
    QunitSearchEngine::build(&data.db, expert_imdb_qunits(&data.db).unwrap(), config).unwrap()
}

/// A small workload covering every routing shape the engine has.
fn workload(data: &ImdbData) -> Vec<String> {
    let mut qs: Vec<String> = Vec::new();
    for m in data.movies.iter().take(8) {
        qs.push(format!("{} cast", m.title));
        qs.push(m.title.clone());
    }
    for p in data.people.iter().take(8) {
        qs.push(format!("{} movies", p.name));
    }
    qs.push("best rated charts".into());
    qs.push("zzzz qqqq".into());
    qs
}

/// Transcript of (key, score bit pattern) rows — the same identity the CI
/// determinism gate diffs.
fn transcript(engine: &QunitSearchEngine, queries: &[String]) -> Vec<(String, u64)> {
    queries
        .iter()
        .flat_map(|q| {
            engine
                .search_uncached(q, 10)
                .into_iter()
                .map(|r| (r.key, r.score.to_bits()))
        })
        .collect()
}

#[test]
fn inline_and_dispatched_shards_are_bit_identical_to_baseline() {
    let data = data();
    let baseline = build(&data, EngineConfig::default());
    let qs = workload(&data);
    let want = transcript(&baseline, &qs);
    // Four shards with every ranking pass swept inline on the caller, then
    // dispatched onto the executor.
    let sharded = EngineConfig {
        search_shards: 4,
        executor_threads: 2,
        ..EngineConfig::default()
    };
    let inline = build(
        &data,
        EngineConfig {
            inline_postings_threshold: usize::MAX,
            ..sharded.clone()
        },
    );
    assert_eq!(want, transcript(&inline, &qs));
    assert_eq!(inline.obs_snapshot().dispatched_queries, 0);
    let dispatched = build(
        &data,
        EngineConfig {
            inline_postings_threshold: 0,
            ..sharded
        },
    );
    assert_eq!(want, transcript(&dispatched, &qs));
    assert!(dispatched.obs_snapshot().dispatched_queries > 0);
}

#[test]
fn forced_kernel_tiers_are_bit_identical_to_default() {
    // The engine-level face of the kernel determinism contract: the default
    // kernel and every tier `QUNITS_KERNEL` can select must not differ by a
    // single score bit, at any shard count.
    let data = data();
    let qs = workload(&data);
    for shards in [1, 4] {
        let config = EngineConfig {
            search_shards: shards,
            ..EngineConfig::default()
        };
        let want = transcript(&build(&data, config.clone()), &qs);
        for kernel in [
            KernelTier::BlockMax,
            KernelTier::MaxScore,
            KernelTier::Exhaustive,
        ] {
            let forced = build(
                &data,
                EngineConfig {
                    kernel,
                    ..config.clone()
                },
            );
            assert_eq!(
                want,
                transcript(&forced, &qs),
                "default vs {kernel:?} diverged at {shards} shard(s)"
            );
        }
        let shorthand = build(
            &data,
            EngineConfig {
                force_exhaustive: true,
                ..config
            },
        );
        assert_eq!(
            want,
            transcript(&shorthand, &qs),
            "default vs force_exhaustive diverged at {shards} shard(s)"
        );
    }
}

#[test]
fn latency_histogram_covers_every_query() {
    // Satellite of the obs contract: every query counted in `queries`
    // lands in exactly one latency bucket, and the quantiles come back
    // non-zero once anything has been recorded.
    let data = data();
    let engine = build(&data, EngineConfig::default());
    let qs = workload(&data);
    for q in &qs {
        engine.search(q, 10);
    }
    let obs = engine.obs_snapshot();
    assert_eq!(
        obs.latency.count(),
        obs.queries,
        "histogram must record exactly the counted queries"
    );
    assert!(obs.latency.p50() > 0, "p50 of a non-empty histogram");
    assert!(
        obs.latency.p99() >= obs.latency.p50(),
        "quantiles must be monotone"
    );
}

#[test]
fn obs_counters_add_up_under_search_batch() {
    let data = data();
    let engine = build(
        &data,
        EngineConfig {
            search_shards: 4,
            executor_threads: 2,
            inline_postings_threshold: 0, // adaptive → always dispatch
            ..EngineConfig::default()
        },
    );
    let queries = workload(&data);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let batched = engine.search_batch(&refs, 10);
    assert_eq!(batched.len(), refs.len());

    let obs = engine.obs_snapshot();
    assert_eq!(
        obs.queries,
        refs.len() as u64,
        "one count per batched query"
    );
    assert_eq!(
        obs.cache_hits + obs.cache_misses,
        refs.len() as u64,
        "every query probed the cache exactly once"
    );
    // Every cache miss ran at least one multi-shard ranking pass, and
    // every pass recorded exactly one inline-vs-dispatch decision (a few
    // queries rank twice via the empty-preferred fallback, hence >=).
    assert!(obs.inline_queries + obs.dispatched_queries >= obs.cache_misses);
    assert_eq!(obs.per_shard_scoring_nanos.len(), engine.num_shards());

    // Threshold 0 on a multi-worker pool means the policy must dispatch.
    let dispatched_before = obs.dispatched_queries;
    engine.search_uncached(refs[0], 10);
    assert!(
        engine.obs_snapshot().dispatched_queries > dispatched_before,
        "adaptive policy with a zero threshold must dispatch"
    );

    // A second identical batch is all cache hits: queries still count,
    // decisions don't move (cache hits never touch the shards).
    let before = engine.obs_snapshot();
    let again = engine.search_batch(&refs, 10);
    assert_eq!(again, batched);
    let obs2 = engine.obs_snapshot();
    assert_eq!(obs2.queries, before.queries + refs.len() as u64);
    assert!(obs2.cache_hits > before.cache_hits);
    assert_eq!(
        obs2.inline_queries + obs2.dispatched_queries,
        before.inline_queries + before.dispatched_queries,
        "cache hits must not re-rank"
    );
}
