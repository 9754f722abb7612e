//! Seeded chaos suite: deterministic fault injection against the full
//! engine, exercising panic containment, graceful degradation, admission
//! control against a slot held by a delayed kernel, snapshot
//! quarantine/retry, and the fault counter family.
//!
//! The failpoint registry ([`irengine::fault`]) is process-global, so every
//! test here serializes on one mutex ([`hold_registry`]) — a schedule armed
//! by one test must never leak into another's engine. Other test binaries
//! are separate processes and never see these schedules.
//!
//! Determinism story: schedules are seeded by *hit counts*, not clocks, so
//! a failpoint with a deterministic hit order (inline scoring, snapshot
//! load) produces byte-identical degraded answers on every run. Sites hit
//! from pool workers (`exec.task`) fire at scheduling-dependent *shards*,
//! so those tests assert containment, counter balance, and recovery rather
//! than exact degraded content.

use datagen::imdb::{ImdbConfig, ImdbData};
use irengine::fault::{self, site};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{
    EngineConfig, QunitSearchEngine, SearchError, SearchResponse, ShardFailurePolicy,
};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Exclusive hold on the process-global failpoint registry. Dropping the
/// guard clears whatever schedule the test installed — including on the
/// unwind path of a failed assertion — so no test can poison the next.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn hold_registry() -> FaultGuard {
    FaultGuard(REGISTRY.lock().unwrap_or_else(|e| e.into_inner()))
}

/// One shared tiny corpus: generation is deterministic, and the engines
/// under test are built per-test (they carry the mutable counters).
fn data() -> &'static ImdbData {
    static DATA: OnceLock<ImdbData> = OnceLock::new();
    DATA.get_or_init(|| ImdbData::generate(ImdbConfig::tiny()))
}

fn build_engine(config: EngineConfig) -> QunitSearchEngine {
    let catalog = expert_imdb_qunits(&data().db).unwrap();
    QunitSearchEngine::build(&data().db, catalog, config).unwrap()
}

/// Shard-heavy config: 4 shards, every ranking pass dispatched onto the
/// executor pool (threshold 0), so the `exec.task` failpoint sits on every
/// query's path.
fn dispatch_config() -> EngineConfig {
    EngineConfig {
        search_shards: 4,
        executor_threads: 4,
        inline_postings_threshold: 0,
        ..EngineConfig::default()
    }
}

fn mixed_queries() -> Vec<String> {
    let data = data();
    let mut queries = Vec::new();
    for i in 0..40 {
        let movie = &data.movies[i % data.movies.len()];
        let person = &data.people[i % data.people.len()];
        match i % 4 {
            0 => queries.push(format!("{} cast", movie.title)),
            1 => queries.push(format!("{} box office", movie.title)),
            2 => queries.push(format!("{} movies", person.name)),
            _ => queries.push("best rated charts".to_string()),
        }
    }
    queries
}

fn cast_query() -> String {
    format!("{} cast", data().movies[0].title)
}

#[test]
fn armed_but_never_firing_schedule_is_bit_identical_to_baseline() {
    let _guard = hold_registry();
    let queries = mixed_queries();
    let baseline = build_engine(dispatch_config());
    let expected: Vec<_> = queries.iter().map(|q| baseline.search(q, 5)).collect();

    // Armed on every hot-path site, but with triggers no tiny-corpus run
    // can reach: the armed-registry code path runs on every check, and the
    // results must not move a bit.
    let config = EngineConfig {
        fault_schedule: Some(
            "exec.task=panic@#1000000;exec.enqueue=error@#1000000;\
             postings.decode=error@#1000000;kernel.checkpoint=error@#1000000;\
             snapshot.read=error@#1000000;snapshot.write=error@#1000000"
                .to_string(),
        ),
        ..dispatch_config()
    };
    let engine = build_engine(config);
    assert!(fault::armed());
    let got: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();
    assert_eq!(got, expected);

    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, 0);
    assert_eq!(snap.panics_contained, 0);
    assert_eq!(snap.degraded_results, 0);
    assert_eq!(snap.degraded_to_empty, 0);
}

#[test]
fn injected_task_panic_is_contained_and_the_engine_keeps_serving() {
    let _guard = hold_registry();
    let engine = build_engine(dispatch_config());
    let q = cast_query();
    let baseline = engine.try_search_uncached(&q, 5).unwrap();
    assert!(!baseline.is_empty(), "fixture query must match");

    fault::install("exec.task=panic@#1").unwrap();
    let err = engine.try_search_uncached(&q, 5).unwrap_err();
    match &err {
        SearchError::Internal { site } => {
            assert!(site.contains("exec.task"), "unexpected site: {site}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(fault::site_counters(site::EXEC_TASK).1, 1);

    // The schedule is spent: the pool workers survived the panic, and the
    // very same engine now answers bit-identically to its pre-fault self.
    let recovered = engine.try_search_uncached(&q, 5).unwrap();
    assert_eq!(recovered, baseline);

    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, 1);
    assert_eq!(snap.panics_contained, 1);
    assert_eq!(snap.degraded_results, 0);
}

#[test]
fn infallible_search_counts_errors_it_degrades_to_empty() {
    let _guard = hold_registry();
    let engine = build_engine(dispatch_config());
    let q = cast_query();

    fault::install("exec.task=panic@#1").unwrap();
    // `search` swallows the Internal error into an empty list — but the
    // swallow lands in the counter, so it is not silent.
    assert_eq!(engine.search_uncached(&q, 5), Vec::new());
    let snap = engine.obs_snapshot();
    assert_eq!(snap.degraded_to_empty, 1);
    assert_eq!(snap.internal_errors, 1);
}

#[test]
fn degrade_policy_serves_partial_answers_and_never_caches_them() {
    let _guard = hold_registry();
    let config = EngineConfig {
        on_shard_failure: ShardFailurePolicy::Degrade,
        ..dispatch_config()
    };
    let engine = build_engine(config);
    let q = cast_query();

    fault::install("exec.task=panic@#1").unwrap();
    let degraded = engine.try_search_partial(&q, 5).unwrap();
    assert!(degraded.degraded, "one lost shard must tag the answer");
    assert_eq!(fault::site_counters(site::EXEC_TASK).1, 1);

    // Re-ask with the schedule spent: a cached degraded answer would come
    // back verbatim — instead the cache was skipped, the query reruns
    // fault-free, and the answer matches a never-faulted engine's.
    let full = engine.try_search_partial(&q, 5).unwrap();
    assert!(!full.degraded);
    fault::clear();
    let control = build_engine(EngineConfig {
        on_shard_failure: ShardFailurePolicy::Degrade,
        ..dispatch_config()
    });
    assert_eq!(
        full.results,
        control.try_search_partial(&q, 5).unwrap().results
    );

    // The *full* answer was cached; asking again is a hit with identical
    // content.
    let cached = engine.try_search_partial(&q, 5).unwrap();
    assert_eq!(cached, full);
    let snap = engine.obs_snapshot();
    assert!(snap.cache_hits >= 1);
    assert_eq!(snap.degraded_results, 1);
    assert_eq!(snap.panics_contained, 1);
    assert_eq!(snap.internal_errors, 0);
}

#[test]
fn inline_decode_fault_degrades_deterministically() {
    let _guard = hold_registry();
    // Inline scoring visits shards in index order and the compressed
    // codec decodes blocks in posting order, so `postings.decode` hit
    // counts — and therefore the degraded answer — are deterministic.
    let config = EngineConfig {
        on_shard_failure: ShardFailurePolicy::Degrade,
        compress_postings: true,
        search_shards: 4,
        inline_postings_threshold: usize::MAX,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let engine = build_engine(config);
    let q = cast_query();

    let run = |spec: &str| -> SearchResponse {
        fault::install(spec).unwrap();
        engine.try_search_partial(&q, 10).unwrap()
    };
    let first = run("postings.decode=panic@#1");
    let second = run("postings.decode=panic@#1");
    assert!(first.degraded);
    assert_eq!(first, second, "same seed, same partial answer");

    fault::install("").unwrap();
    let full = engine.try_search_partial(&q, 10).unwrap();
    assert!(!full.degraded);
    let snap = engine.obs_snapshot();
    assert_eq!(snap.degraded_results, 2);
    assert_eq!(snap.internal_errors, 0);
}

#[test]
fn panic_storm_under_concurrent_load_balances_counters_exactly() {
    let _guard = hold_registry();
    let config = EngineConfig {
        on_shard_failure: ShardFailurePolicy::Degrade,
        cache_capacity: 0, // every query fans out, so the balance is exact
        ..dispatch_config()
    };
    let engine = build_engine(config);
    let queries = mixed_queries();
    let expected: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();

    // The storm's "seed" is the panic cadence; CI sweeps several so the
    // balance identity is proven across different failure densities.
    let cadence: u64 = std::env::var("QUNITS_CHAOS_CADENCE")
        .map(|v| v.parse().expect("QUNITS_CHAOS_CADENCE must be an integer"))
        .unwrap_or(5);
    fault::install(&format!("exec.task=panic@%{cadence}")).unwrap();
    let mut degraded_total = 0u64;
    let mut internal_total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = &engine;
                let queries = &queries;
                scope.spawn(move || {
                    let (mut degraded, mut internal) = (0u64, 0u64);
                    for (i, q) in queries.iter().enumerate() {
                        match engine.try_search_partial(q, 5) {
                            Ok(r) if r.degraded => degraded += 1,
                            Ok(_) => {}
                            Err(SearchError::Internal { .. }) => internal += 1,
                            Err(other) => panic!("thread {t} query {i}: {other:?}"),
                        }
                    }
                    (degraded, internal)
                })
            })
            .collect();
        for h in handles {
            let (d, i) = h.join().expect("no storm thread may die");
            degraded_total += d;
            internal_total += i;
        }
    });

    // Exact balance: every cadence-th task hit panicked. A degraded answer charges
    // one contained failure per lost shard; an all-4-shards-failed fan-out
    // surfaces as one Internal error (1 contained, 4 fired), so the fired
    // count exceeds the contained count by exactly 3 per Internal error.
    let (hits, fired) = fault::site_counters(site::EXEC_TASK);
    assert!(fired > 0, "storm must actually inject ({hits} hits)");
    let snap = engine.obs_snapshot();
    assert_eq!(snap.degraded_results, degraded_total);
    assert_eq!(snap.internal_errors, internal_total);
    assert_eq!(snap.panics_contained + 3 * snap.internal_errors, fired);
    // The executor queues drained: nothing lost, nothing stuck.
    let stats = engine.executor_stats();
    assert_eq!(stats.enqueued, stats.dequeued);

    // Full recovery: cleared faults, bit-identical answers, workers alive.
    fault::install("").unwrap();
    let after: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();
    assert_eq!(after, expected);
}

#[test]
fn admission_slots_survive_a_panic_storm() {
    let _guard = hold_registry();
    let config = EngineConfig {
        max_concurrent_queries: 2,
        ..dispatch_config()
    };
    let engine = build_engine(config);
    let q = cast_query();

    fault::install("exec.task=panic").unwrap();
    for _ in 0..10 {
        // Every shard task panics, every query errors — and every one of
        // them must hand its admission slot back on the way out.
        assert!(matches!(
            engine.try_search(&q, 5),
            Err(SearchError::Internal { .. })
        ));
    }
    fault::install("").unwrap();
    // No leaked slots: with the limit at 2, a leak of even one error-path
    // slot would reject this immediately as Overloaded.
    assert!(engine.try_search(&q, 5).is_ok());
    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, 10);
    assert_eq!(snap.rejected_overload, 0);
}

// --- admission under constructed pressure ---------------------------------

/// Offer `CONTENDERS × ATTEMPTS` queries to an engine that admits one at a
/// time while a query is **held inside the kernel**: the first checkpoint
/// any query reaches sleeps (`kernel.checkpoint=delay`), the one query
/// issued before the contenders start is long enough to reach it, and the
/// contenders start once the failpoint reports it fired — so each one's
/// first attempt finds `in_flight == limit`. Collisions are constructed,
/// not hoped for. Returns the engine and every contender attempt's outcome.
fn offer_against_a_held_slot() -> (QunitSearchEngine, Vec<Result<usize, SearchError>>) {
    const CONTENDERS: usize = 7;
    const ATTEMPTS: usize = 40;
    // Checkpoints come every 4 096 postings of one kernel run, which takes
    // the full-size corpus, unsharded, and a deadline (nothing polls
    // without one; this one never trips).
    static DATA: OnceLock<ImdbData> = OnceLock::new();
    let data = DATA.get_or_init(|| ImdbData::generate(ImdbConfig::default()));
    let engine = QunitSearchEngine::build(
        &data.db,
        expert_imdb_qunits(&data.db).unwrap(),
        EngineConfig {
            max_concurrent_queries: 1,
            cache_capacity: 0,
            search_shards: 1,
            deadline: Some(Duration::from_secs(60)),
            fault_schedule: Some("kernel.checkpoint=delay:250@#1".to_string()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let held = format!("{} movies", data.people[0].name);
    let queries: Vec<String> = (data.movies.iter().take(8))
        .flat_map(|m| [format!("{} cast", m.title), m.title.clone()])
        .collect();
    let outcomes = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| engine.try_search(&held, 10));
        for t in 0..CONTENDERS {
            let (engine, queries, outcomes) = (&engine, &queries, &outcomes);
            scope.spawn(move || {
                while fault::site_counters(site::KERNEL_CHECKPOINT).1 == 0 {
                    std::thread::yield_now();
                }
                let mine: Vec<_> = (0..ATTEMPTS)
                    .map(|i| {
                        let q = &queries[(t * 7 + i) % queries.len()];
                        engine.try_search(q, 10).map(|results| results.len())
                    })
                    .collect();
                outcomes.lock().unwrap().extend(mine);
            });
        }
        let held = holder.join().unwrap();
        assert!(held.is_ok(), "nothing was in flight before it: {held:?}");
    });
    let outcomes = outcomes.into_inner().unwrap();
    assert_eq!(outcomes.len(), CONTENDERS * ATTEMPTS);
    (engine, outcomes)
}

#[test]
fn admission_accounting_balances_under_pressure() {
    let _guard = hold_registry();
    let (engine, outcomes) = offer_against_a_held_slot();
    let mut rejected = 0u64;
    for outcome in &outcomes {
        match outcome {
            Ok(_) => {}
            Err(SearchError::Overloaded { limit, .. }) => {
                assert_eq!(*limit, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // served + rejected = offered by the match above; each contender's
    // first attempt met the held slot.
    assert!(rejected >= 7, "only {rejected} attempts were rejected");
    assert_eq!(engine.obs_snapshot().rejected_overload, rejected);
    // Every admitted query eventually released its slot.
    for _ in 0..3 {
        assert!(engine.try_search(&cast_query(), 10).is_ok());
    }
}

#[test]
fn overload_rejections_carry_bounded_retry_after_hints() {
    // The hint is pure arithmetic over rejection-time pressure: half a
    // millisecond per unit of drain-ahead work, never zero (a rejection
    // implies at least one query must finish first), never above the
    // 100ms cap, always a whole number of 500µs steps. No clock feeds it,
    // so the same pressure always hints the same wait.
    let _guard = hold_registry();
    let (_engine, outcomes) = offer_against_a_held_slot();
    let hints: Vec<Duration> = outcomes
        .into_iter()
        .filter_map(|outcome| match outcome {
            Err(SearchError::Overloaded {
                in_flight,
                limit,
                retry_after,
            }) => {
                assert!(in_flight >= limit);
                Some(retry_after)
            }
            _ => None,
        })
        .collect();
    assert!(hints.len() >= 7, "only {} rejections", hints.len());
    const STEP: Duration = Duration::from_micros(500);
    const CAP: Duration = Duration::from_millis(100);
    for h in &hints {
        assert!(*h >= STEP, "hint below one backoff step: {h:?}");
        assert!(*h <= CAP, "hint above the 100ms cap: {h:?}");
        assert_eq!(
            h.as_micros() % STEP.as_micros(),
            0,
            "hint not a whole number of 500µs steps: {h:?}"
        );
    }
}

// --- snapshot quarantine and retry ----------------------------------------

/// Per-test scratch dir under the system temp dir; unique per process so
/// parallel `cargo test` invocations never collide.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qunits-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot_config(path: std::path::PathBuf) -> EngineConfig {
    EngineConfig {
        search_shards: 2,
        snapshot_path: Some(path),
        ..EngineConfig::default()
    }
}

#[test]
fn transient_snapshot_read_errors_are_retried_with_backoff() {
    let _guard = hold_registry();
    let dir = scratch_dir("retry");
    let path = dir.join("idx.snap");
    build_engine(snapshot_config(path.clone()));
    assert!(path.exists(), "fresh build must write the snapshot");

    // One injected transient error: attempt 1 fails, attempt 2 loads.
    let config = EngineConfig {
        fault_schedule: Some("snapshot.read=error@#1".to_string()),
        ..snapshot_config(path.clone())
    };
    let engine = build_engine(config);
    assert_eq!(
        fault::site_counters(site::SNAPSHOT_READ),
        (2, 1),
        "exactly one retry"
    );
    assert!(path.exists());
    assert!(!engine.search(&cast_query(), 3).is_empty());

    // Persistent errors: the bounded budget (3 attempts) is spent, then
    // the engine falls back to a rebuild — and does NOT quarantine a file
    // that may be healthy on a sick volume.
    let config = EngineConfig {
        fault_schedule: Some("snapshot.read=error".to_string()),
        ..snapshot_config(path.clone())
    };
    let engine = build_engine(config);
    assert_eq!(fault::site_counters(site::SNAPSHOT_READ).0, 3);
    assert!(!path.with_extension("snap.corrupt").exists());
    assert!(!engine.search(&cast_query(), 3).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_quarantined_for_post_mortem() {
    let _guard = hold_registry();
    let dir = scratch_dir("corrupt");
    let path = dir.join("idx.snap");
    build_engine(snapshot_config(path.clone()));

    let garbage = b"QNITSNAP but not really; torn write simulation".to_vec();
    std::fs::write(&path, &garbage).unwrap();
    let engine = build_engine(snapshot_config(path.clone()));

    // The bad bytes were moved aside verbatim for diagnosis, the rebuild
    // wrote a clean snapshot at the configured path, and the engine works.
    let quarantined = {
        let mut p = path.as_os_str().to_owned();
        p.push(".corrupt");
        std::path::PathBuf::from(p)
    };
    assert_eq!(std::fs::read(&quarantined).unwrap(), garbage);
    assert!(path.exists());
    irengine::ShardedIndex::load_snapshot(&path).expect("rebuilt snapshot must be clean");
    assert!(!engine.search(&cast_query(), 3).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_snapshot_is_quarantined_and_rebuilt_over() {
    let _guard = hold_registry();
    let dir = scratch_dir("stale");
    let path = dir.join("idx.snap");
    build_engine(snapshot_config(path.clone()));

    // Same file, different shard-count config: stale, not corrupt — but
    // equally unusable, so it is quarantined the same way.
    let config = EngineConfig {
        search_shards: 3,
        snapshot_path: Some(path.clone()),
        ..EngineConfig::default()
    };
    let engine = build_engine(config);
    let quarantined = {
        let mut p = path.as_os_str().to_owned();
        p.push(".corrupt");
        std::path::PathBuf::from(p)
    };
    assert!(quarantined.exists());
    assert_eq!(engine.num_shards(), 3);
    assert!(!engine.search(&cast_query(), 3).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
