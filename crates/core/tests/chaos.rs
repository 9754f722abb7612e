//! Seeded chaos suite: deterministic fault injection against the full
//! engine, exercising panic containment (single queries and batches), the
//! one shard-failure rule (a failed shard fails the query, which is never
//! cached), snapshot quarantine/retry, and the fault counter family.
//!
//! The failpoint registry ([`irengine::fault`]) is process-global, so every
//! test here serializes on one mutex ([`hold_registry`]) — a schedule armed
//! by one test must never leak into another's engine. Other test binaries
//! are separate processes and never see these schedules.
//!
//! Determinism story: schedules are seeded by *hit counts*, not clocks, so
//! a schedule produces the same errors on every run. Sites hit from pool
//! workers (`exec.task`) fire at scheduling-dependent *shards*, so those
//! tests assert containment, counter balance, and recovery.

use datagen::imdb::{ImdbConfig, ImdbData};
use irengine::fault::{self, site};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine, SearchError};
use std::sync::{Mutex, MutexGuard, OnceLock};

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
    // can reach: the armed-registry code path runs on every check, from the
    // build on, and the results must not move a bit.
    fault::install(
        "exec.task=panic@#1000000;postings.decode=error@#1000000;\
         snapshot.read=error@#1000000;snapshot.write=error@#1000000",
    )
    .unwrap();
    let engine = build_engine(dispatch_config());
    assert!(fault::armed());
    let got: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();
    assert_eq!(got, expected);

    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, 0);
    assert_eq!(snap.panics_contained, 0);
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
    let SearchError::Internal { site } = engine.try_search_uncached(&q, 5).unwrap_err();
    assert!(site.contains("exec.task"), "unexpected site: {site}");
    assert_eq!(fault::site_counters(site::EXEC_TASK).1, 1);

    // The schedule is spent: the pool workers survived the panic, and the
    // very same engine now answers bit-identically to its pre-fault self.
    let recovered = engine.try_search_uncached(&q, 5).unwrap();
    assert_eq!(recovered, baseline);

    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, 1);
    assert_eq!(snap.panics_contained, 1);
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
fn a_decode_fault_fails_the_query_deterministically_and_is_never_cached() {
    let _guard = hold_registry();
    // Inline scoring visits shards in index order and the compressed codec
    // decodes blocks in posting order, so the inline error is the same on
    // every run; dispatched, the first decode to panic is on whichever
    // shard gets there first, and the error names the same site.
    let inline = EngineConfig {
        compress_postings: true,
        search_shards: 4,
        inline_postings_threshold: usize::MAX,
        ..EngineConfig::default()
    };
    let dispatched = EngineConfig {
        compress_postings: true,
        ..dispatch_config()
    };
    let q = cast_query();
    for (leg, config) in [("inline", inline), ("dispatched", dispatched)] {
        let control = build_engine(config.clone()).try_search(&q, 10).unwrap();
        assert!(!control.is_empty(), "fixture query must match");
        let engine = build_engine(config);
        let run = || {
            fault::install("postings.decode=panic@#1").unwrap();
            engine.try_search(&q, 10).unwrap_err()
        };
        let first = run();
        assert_eq!(first, run(), "{leg}: same schedule, same error");
        let SearchError::Internal { site } = &first;
        assert!(site.contains("postings.decode"), "{leg}: {site}");
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "{leg}: an error was cached"
        );

        // Disarmed, the same engine misses, answers in full, and caches
        // that answer.
        fault::clear();
        assert_eq!(engine.try_search(&q, 10).unwrap(), control, "{leg}");
        assert_eq!(engine.try_search(&q, 10).unwrap(), control, "{leg}");
        let snap = engine.obs_snapshot();
        assert_eq!((snap.cache_misses, snap.cache_hits), (3, 1), "{leg}");
        assert_eq!(snap.internal_errors, 2, "{leg}");
        assert_eq!(snap.panics_contained, 2, "{leg}");
    }
}

#[test]
fn panic_storm_under_concurrent_load_balances_counters_exactly() {
    let _guard = hold_registry();
    let config = EngineConfig {
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
    let mut internal_total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let engine = &engine;
                let (queries, expected) = (&queries, &expected);
                scope.spawn(move || {
                    let mut internal = 0u64;
                    for (i, q) in queries.iter().enumerate() {
                        match engine.try_search(q, 5) {
                            // An answer is never partial: it is the full one.
                            Ok(r) => assert_eq!(r, expected[i], "thread {t} query {i}"),
                            Err(SearchError::Internal { .. }) => internal += 1,
                        }
                    }
                    internal
                })
            })
            .collect();
        for h in handles {
            internal_total += h.join().expect("no storm thread may die");
        }
    });

    // Exact balance: every cadence-th task hit panicked, each panic killed
    // one shard task, and each killed shard task is one contained panic of
    // a query that failed with Internal (a query loses 1 to 4 shards).
    let (hits, fired) = fault::site_counters(site::EXEC_TASK);
    assert!(fired > 0, "storm must actually inject ({hits} hits)");
    let snap = engine.obs_snapshot();
    assert_eq!(snap.internal_errors, internal_total);
    assert_eq!(snap.panics_contained, fired);
    assert!(snap.internal_errors <= fired && fired <= 4 * snap.internal_errors);
    // The executor queues drained: nothing lost, nothing stuck.
    let stats = engine.executor_stats();
    assert_eq!(stats.enqueued, stats.dequeued);

    // Full recovery: cleared faults, bit-identical answers, workers alive.
    fault::install("").unwrap();
    let after: Vec<_> = queries.iter().map(|q| engine.search(q, 5)).collect();
    assert_eq!(after, expected);
}

#[test]
fn a_batch_isolates_a_failed_query_from_the_others() {
    let _guard = hold_registry();
    // Two workers over six queries, every shard fan-out dispatched: the
    // first executor task any query submits panics, and only that query
    // may lose its answer.
    let engine = build_engine(EngineConfig {
        executor_threads: 2,
        cache_capacity: 0,
        ..dispatch_config()
    });
    let queries = mixed_queries();
    let batch: Vec<&str> = queries.iter().take(6).map(String::as_str).collect();
    let expected = engine.search_batch(&batch, 5);
    assert!(
        expected.iter().all(|r| !r.is_empty()),
        "fixture queries must match"
    );

    fault::install("exec.task=panic@#1").unwrap();
    let got = engine.search_batch(&batch, 5);
    let lost: Vec<usize> = (0..got.len()).filter(|&i| got[i].is_empty()).collect();
    assert_eq!(lost.len(), 1, "exactly one query lost, not {lost:?}");
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if i != lost[0] {
            assert_eq!(g, e, "slot {i} answers as the unarmed batch");
        }
    }
    let snap = engine.obs_snapshot();
    assert_eq!(snap.degraded_to_empty, 1);
    assert_eq!(snap.panics_contained, 1);

    fault::clear();
    assert_eq!(engine.search_batch(&batch, 5), expected);
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
    fault::install("snapshot.read=error@#1").unwrap();
    let engine = build_engine(snapshot_config(path.clone()));
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
    fault::install("snapshot.read=error").unwrap();
    let engine = build_engine(snapshot_config(path.clone()));
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

/// A snapshot of the previous format version (the version field at byte 8
/// patched to `SNAPSHOT_VERSION - 1` over a current file) is stale: quarantined as `.corrupt`,
/// rebuilt over with a file of the current version, and the next build
/// restarts from that file with the cold build's fingerprint.
#[test]
fn a_previous_version_snapshot_is_quarantined_and_saved_again() {
    let _guard = hold_registry();
    let dir = scratch_dir("upgrade");
    let path = dir.join("idx.snap");
    let cold = build_engine(snapshot_config(path.clone()));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(irengine::SNAPSHOT_VERSION - 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let rebuilt = build_engine(snapshot_config(path.clone()));
    let quarantined = {
        let mut p = path.as_os_str().to_owned();
        p.push(".corrupt");
        std::path::PathBuf::from(p)
    };
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
    assert!(!rebuilt.build_timings().from_snapshot);
    let header = irengine::read_snapshot_header(&path).expect("the rebuild saved again");
    assert_eq!(header.version, irengine::SNAPSHOT_VERSION);

    let restarted = build_engine(snapshot_config(path.clone()));
    assert!(restarted.build_timings().from_snapshot);
    assert_eq!(restarted.index_fingerprint(), cold.index_fingerprint());
    assert_eq!(header.fingerprint, cold.index_fingerprint());
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
