//! The three IMDb workloads: one database (IMDb ×4, the expert catalog, about
//! 27 000 qunit instances), three ways of asking.
//!
//! * `imdb_uncached` — cache off, two closed-loop clients replaying disjoint
//!   halves of a query log. Every query runs the paper's whole pipeline
//!   (segment, type-score, rank, rescore, materialise); cache and executor do
//!   nothing. The workload for claims about `core::engine` and below.
//! * `imdb_zipf_serve` — default engine, open loop at a fixed Poisson rate,
//!   Zipf-repeated queries with more distinct ones than the cache holds: what
//!   independent users see. The cache answers most requests, the kernel few.
//! * `imdb_click_mix` — default engine, two closed-loop clients drawing from a
//!   hot set that fits the cache, every hundredth operation a click. A click
//!   clears the whole cache, so the read hit ratio is set by the write rate.

use crate::check;
use crate::layers::{report_driver, report_exec, report_spans, ExecReading, IrLayers};
use crate::load::{closed_loop, open_loop, overdue, traced_loop, Kind as OpKind, Sample};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{busiest_rate, fastest, median, timed, Latency};
use crate::trace::{Span, Tracer};
use crate::Args;
use datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
use datagen::imdb::{ImdbConfig, ImdbData};
use datagen::querylog::{QueryLog, QueryLogConfig};
use datagen::Zipf;
use irengine::{Document, IndexBuilder, KernelTier, ScratchPool, SearchContext, ShardedIndex};
use qunit_core::derive::evidence::{self, EvidenceDeriveConfig, EvidencePage};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::derive::querylog::{self, QueryLogDeriveConfig};
use qunit_core::derive::schema_data::{self, SchemaDataConfig};
use qunit_core::{
    materialize_all, EngineConfig, EntityDictionary, QueryCache, QunitResult, QunitSearchEngine,
};
use qunit_eval::experiments::fig3::score_system;
use qunit_eval::systems::QunitSystem;
use qunit_eval::{Oracle, Workload, WorkloadQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const K: usize = 10;
/// Candidates the engine fetches from the IR layer for `K` results.
const FETCH: usize = 100;
/// Clients of the closed loops and firing threads of the open loop.
const CLIENTS: usize = 2;
/// Arrival rate of `imdb_zipf_serve`: about a quarter of what two threads
/// sustain at its hit ratio, so the queue stays short and latency is service
/// time, not backlog.
const OPEN_LOOP_QPS: f64 = 2_500.0;
/// An arrival that waits this long for a free firing thread (250 arrivals at
/// the rate above) means the engine fell behind the timetable: it counts as
/// failed. Shorter waits are ordinary queueing, inside the arrival's latency.
const MAX_START_DELAY: Duration = Duration::from_millis(100);
/// Entity popularity in the log of `imdb_zipf_serve`. At the generator's
/// default (1.1) the cache answers 60 % of the arrivals and the median sits
/// on the edge between a hit and a miss, where it flips from run to run; at
/// 1.4 it answers about 80 %, still with several times more distinct queries
/// than the cache holds, and the median is a hit.
const SERVE_ENTITY_SKEW: f64 = 1.4;
/// `imdb_click_mix` draws from the log's most frequent distinct queries; this
/// many fit the default cache (1 024 entries).
const HOT_QUERIES: usize = 800;
/// Zipf exponent of those draws. Each click empties the cache, so at 1.0 only
/// 45 % of reads hit and the median again sits on the edge; at 1.4 about 70 %.
const HOT_SKEW: f64 = 1.4;
/// Every n-th operation of a click-mix client is a click on its last answer.
const CLICK_EVERY: usize = 100;
/// Hot queries compared cached against uncached after the clicks.
const COHERENCE_QUERIES: usize = 200;
/// Figure-3 workload: templates × queries per template (the paper judges
/// 14 × 2; more queries per template steady the mean).
const FIG3_TEMPLATES: usize = 14;
const FIG3_PER_TEMPLATE: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uncached,
    ZipfServe,
    ClickMix,
}

impl Kind {
    pub fn from_name(name: &str) -> Kind {
        match name {
            "imdb_uncached" => Kind::Uncached,
            "imdb_zipf_serve" => Kind::ZipfServe,
            "imdb_click_mix" => Kind::ClickMix,
            other => unreachable!("{other} is not an IMDb workload"),
        }
    }
}

#[derive(Default)]
struct SetUpTimes {
    whole: Vec<f64>,
    imdb: Vec<f64>,
    querylog: Vec<f64>,
    build: Vec<f64>,
    restart: Vec<f64>,
}

fn engine_config(kind: Kind, snapshot: Option<&Path>) -> EngineConfig {
    EngineConfig {
        cache_capacity: match kind {
            Kind::Uncached => 0,
            Kind::ZipfServe | Kind::ClickMix => EngineConfig::default().cache_capacity,
        },
        snapshot_path: snapshot.map(Path::to_path_buf),
        ..EngineConfig::default()
    }
}

fn build(data: &ImdbData, config: EngineConfig) -> QunitSearchEngine {
    let catalog = expert_imdb_qunits(&data.db).expect("the expert catalog");
    QunitSearchEngine::build(&data.db, catalog, config).expect("build the engine")
}

fn sample_of(query: usize, latency: Duration, answer: &Result<Vec<QunitResult>, ()>) -> Sample {
    Sample {
        query: query as u32,
        latency_ns: latency.as_nanos() as u64,
        done_ns: 0,
        fingerprint: answer.as_ref().map_or(0, |r| check::of_results(r)),
        ok: answer.is_ok(),
        kind: OpKind::Query,
    }
}

/// The served call: a full answer, or `Err` for an error or a degraded one.
fn serve(engine: &QunitSearchEngine, query: &str) -> Result<Vec<QunitResult>, ()> {
    match engine.try_search_partial(query, K) {
        Ok(response) if !response.degraded => Ok(response.results),
        _ => Err(()),
    }
}

fn timed_query(engine: &QunitSearchEngine, table: &[&str], at: usize) -> Sample {
    let start = Instant::now();
    let answer = serve(engine, table[at]);
    sample_of(at, start.elapsed(), &answer)
}

/// One click-mix client: Zipf draws from the hot set, and every
/// `CLICK_EVERY`-th operation a click on the previous answer's top result.
fn click_mix_client<'a>(
    engine: &'a QunitSearchEngine,
    table: &'a [&'a str],
    seed: u64,
) -> impl FnMut(usize) -> Sample + 'a {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(table.len(), HOT_SKEW);
    let mut last: Option<(usize, String)> = None;
    move |i| {
        if i % CLICK_EVERY == CLICK_EVERY - 1 {
            if let Some((at, key)) = last.take() {
                let start = Instant::now();
                engine.record_click(table[at], &key);
                return Sample {
                    query: at as u32,
                    latency_ns: start.elapsed().as_nanos() as u64,
                    done_ns: 0,
                    fingerprint: 0,
                    ok: true,
                    kind: OpKind::Click,
                };
            }
        }
        let at = zipf.sample(&mut rng);
        let start = Instant::now();
        let answer = serve(engine, table[at]);
        let sample = sample_of(at, start.elapsed(), &answer);
        last = answer
            .ok()
            .and_then(|r| r.into_iter().next())
            .map(|top| (at, top.key));
        sample
    }
}

pub fn run(kind: Kind, args: &Args, tmp: &Path) -> (Outcome, Option<Vec<Span>>) {
    let mut out = Outcome::default();
    let snapshot = tmp.join("engine.snap");
    let warmup = args.scale.warmup_ops;
    let arrivals = args
        .limit
        .ops
        .unwrap_or((OPEN_LOOP_QPS * args.limit.seconds).ceil() as usize);
    let imdb_config = ImdbConfig {
        seed: args.sub_seed(1),
        n_movies: 1_000 * args.scale.imdb_factor,
        n_people: 2_000 * args.scale.imdb_factor,
        ..ImdbConfig::default()
    };
    let log_config = QueryLogConfig {
        seed: args.sub_seed(2),
        // The open loop's log has one record per arrival, so it never wraps.
        n_queries: match kind {
            Kind::ZipfServe => arrivals + warmup,
            Kind::Uncached | Kind::ClickMix => args.scale.log_queries,
        },
        entity_skew: match kind {
            Kind::ZipfServe => SERVE_ENTITY_SKEW,
            Kind::Uncached | Kind::ClickMix => QueryLogConfig::default().entity_skew,
        },
        ..QueryLogConfig::default()
    };

    // Set-up, several times over: generate, build cold (which saves the
    // snapshot), restart from the snapshot. The last restart's engine serves.
    let mut times = SetUpTimes::default();
    let mut kept = None;
    for _ in 0..args.scale.imdb_setups {
        drop(kept.take());
        let whole = Instant::now();
        let data = timed(&mut times.imdb, || ImdbData::generate(imdb_config.clone()));
        let log = timed(&mut times.querylog, || {
            QueryLog::generate(&data, log_config.clone())
        });
        let _ = std::fs::remove_file(&snapshot);
        let cold = timed(&mut times.build, || {
            build(&data, engine_config(kind, Some(&snapshot)))
        });
        let cold_fingerprint = cold.index_fingerprint();
        drop(cold);
        let engine = timed(&mut times.restart, || {
            build(&data, engine_config(kind, Some(&snapshot)))
        });
        times.whole.push(whole.elapsed().as_secs_f64());
        kept = Some((data, log, engine, cold_fingerprint));
    }
    let after_setups = Instant::now();
    let (data, log, engine, cold_fingerprint) = kept.expect("at least one set-up");
    out.check(
        "snapshot_fingerprint",
        engine.index_fingerprint() == cold_fingerprint,
    );
    let snapshot_bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());

    // The query table samples index into, and the untimed warm-up.
    let hot: Vec<String> = match kind {
        Kind::ClickMix => log
            .unique_queries()
            .into_iter()
            .take(HOT_QUERIES)
            .map(|(q, _)| q)
            .collect(),
        Kind::Uncached | Kind::ZipfServe => Vec::new(),
    };
    let table: Vec<&str> = match kind {
        Kind::ClickMix => hot.iter().map(String::as_str).collect(),
        Kind::Uncached | Kind::ZipfServe => log.records.iter().map(|r| r.raw.as_str()).collect(),
    };
    // Log-replaying workloads warm up on the log's tail and time its head.
    let replayed = table.len() - warmup.min(table.len() / 2);
    match kind {
        Kind::ClickMix => {
            let (mut rng, zipf) = (
                StdRng::seed_from_u64(args.sub_seed(9)),
                Zipf::new(table.len(), HOT_SKEW),
            );
            for _ in 0..warmup {
                black_box(serve(&engine, table[zipf.sample(&mut rng)]).is_ok());
            }
        }
        Kind::Uncached | Kind::ZipfServe => {
            for query in &table[replayed..] {
                black_box(serve(&engine, query).is_ok());
            }
        }
    }
    let setup_s = median(&mut times.whole.clone()) + after_setups.elapsed().as_secs_f64();

    let (samples, spans) = if args.traced {
        let (samples, spans) = traced_pass(
            kind, args, tmp, &data, &log, &engine, &table, replayed, &times, &mut out,
        );
        (samples, Some(spans))
    } else {
        let (samples, wall_s) = match kind {
            Kind::Uncached => {
                let half = replayed / CLIENTS;
                let timed_section = closed_loop(CLIENTS, args.limit, |client| {
                    let (engine, table) = (&engine, &table);
                    move |i| timed_query(engine, table, client * half + i % half)
                });
                (timed_section.samples, timed_section.wall_s)
            }
            Kind::ClickMix => {
                let timed_section = closed_loop(CLIENTS, args.limit, |client| {
                    click_mix_client(&engine, &table, args.sub_seed(10 + client as u64))
                });
                (timed_section.samples, timed_section.wall_s)
            }
            Kind::ZipfServe => {
                let due: Vec<Duration> = log
                    .open_loop_schedule(OPEN_LOOP_QPS, arrivals, args.sub_seed(3))
                    .into_iter()
                    .map(|(at, _)| at)
                    .collect();
                let (fired, wall_s) = open_loop(&due, CLIENTS, |i| {
                    let answer = serve(&engine, table[i]);
                    (
                        answer.as_ref().map_or(0, |r| check::of_results(r)),
                        answer.is_ok(),
                    )
                });
                let fell_behind = overdue(&fired, &due, MAX_START_DELAY);
                let late = Latency::from_nanos(fired.iter().map(|f| {
                    f.started
                        .saturating_sub(due[f.sample.query as usize])
                        .as_nanos() as u64
                }));
                out.note("open_loop_overdue", fell_behind as f64);
                out.note("open_loop_late_p50_us", late.p50_us);
                out.note("open_loop_late_p99_us", late.p99_us);
                out.failed += fell_behind as u64;
                (fired.into_iter().map(|f| f.sample).collect(), wall_s)
            }
        };
        let rss = peak_rss_mb();
        let queries = Latency::quietest(
            samples
                .iter()
                .filter(|s| s.kind == OpKind::Query)
                .map(|s| (s.done_ns, s.latency_ns)),
        );
        out.set("setup_s", setup_s);
        out.set("query_p50_us", queries.p50_us);
        out.set("query_p99_us", queries.p99_us);
        out.set(
            "throughput_qps",
            busiest_rate(samples.iter().map(|s| s.done_ns)),
        );
        out.note("timed_wall_s", wall_s);
        out.set("build_s", fastest(&times.build));
        out.set("restart_s", fastest(&times.restart));
        out.set(
            "index_bytes_per_posting",
            engine.posting_store_bytes() as f64 / engine.num_postings() as f64,
        );
        out.set(
            "snapshot_bytes_per_doc",
            snapshot_bytes as f64 / engine.num_instances() as f64,
        );
        out.set("peak_rss_mb", rss);
        out.note("latency_samples", queries.samples as f64);
        out.note("samples_beyond_p99", queries.beyond_p99() as f64);
        if samples.iter().any(|s| s.kind == OpKind::Click) {
            let clicks = Latency::from_nanos(
                samples
                    .iter()
                    .filter(|s| s.kind == OpKind::Click)
                    .map(|s| s.latency_ns),
            );
            out.note("click_p50_us", clicks.p50_us);
            out.note("clicks", clicks.samples as f64);
        }
        let cache = engine.cache_stats();
        out.note(
            "cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        let (inline, dispatched) = engine.dispatch_counts();
        out.note(
            "dispatched_frac",
            dispatched as f64 / (inline + dispatched).max(1) as f64,
        );
        out.note(
            "obs_latency_p50_us",
            engine.obs_snapshot().latency.p50() as f64 / 1e3,
        );
        (samples, None)
    };

    out.attempted = samples.len() as u64;
    let errors = samples.iter().filter(|s| !s.ok).count() as u64;
    out.failed += errors;
    out.note("errors_or_degraded", errors as f64);
    match kind {
        Kind::ClickMix => {
            // Clicks move rankings, so there is no fixed reference; what must
            // hold is that the cache never serves an answer a click outdated.
            let coherent = table.iter().take(COHERENCE_QUERIES).all(|q| {
                check::of_results(&engine.search(q, K))
                    == check::of_results(&engine.search_uncached(q, K))
            });
            out.check("cache_coherent_after_clicks", coherent);
        }
        Kind::Uncached | Kind::ZipfServe => {
            // The reference differs from the served engine in every way that
            // must not matter: exhaustive kernel, compressed postings, one
            // shard, no cache, built cold rather than restarted.
            let reference_engine = build(
                &data,
                EngineConfig {
                    force_exhaustive: true,
                    compress_postings: true,
                    search_shards: 1,
                    cache_capacity: 0,
                    ..EngineConfig::default()
                },
            );
            let reference: HashMap<u32, u64> =
                check::pick_queries(&samples, args.scale.check_queries)
                    .into_iter()
                    .map(|q| {
                        (
                            q,
                            check::of_results(
                                &reference_engine.search_uncached(table[q as usize], K),
                            ),
                        )
                    })
                    .collect();
            let wrong = check::mismatches(&samples, &reference);
            out.failed += wrong;
            out.note("answers_unlike_reference", wrong as f64);
            out.note("queries_checked", reference.len() as f64);
        }
    }

    if !args.traced {
        // The paper's Figure-3 bar for this engine: the judge panel's mean
        // score over the log's most frequent query templates.
        let system = QunitSystem::new("qunits", engine);
        let workload = Workload::build(
            &log,
            system.engine().segmenter(),
            FIG3_TEMPLATES,
            FIG3_PER_TEMPLATE,
        );
        let judged: Vec<&WorkloadQuery> = workload.queries.iter().collect();
        out.set(
            "result_quality",
            score_system(&system, &judged, &Oracle::default()).mean,
        );
        out.note("queries_judged", judged.len() as f64);
    }
    (out, spans)
}

/// A replica of the engine's index, built through the public APIs the engine
/// itself uses, so layer calls can be replayed on the engine's own inputs.
fn replica(data: &ImdbData, engine: &QunitSearchEngine, out: &mut Outcome) -> ShardedIndex {
    let config = EngineConfig::default();
    let (mut materialize_s, mut add_s, mut freeze_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut builder = IndexBuilder::new();
    builder.set_field_boost("anchor", config.anchor_boost);
    builder.set_field_boost("intent", config.intent_boost);
    builder.set_block_size(config.block_size);
    let mut instances = 0usize;
    for def in engine.catalog().iter() {
        let batch = timed(&mut materialize_s, || {
            materialize_all(&data.db, def).expect("materialize")
        });
        instances += batch.len();
        timed(&mut add_s, || {
            for inst in batch {
                let mut doc = Document::new(inst.key.clone());
                if let Some(anchor) = inst.anchor_text() {
                    doc = doc.field("anchor", anchor);
                }
                if !def.intent_terms.is_empty() {
                    doc = doc.field("intent", def.intent_terms.join(" "));
                }
                builder.add(doc.field("body", inst.text));
            }
        });
    }
    let index = timed(&mut freeze_s, || builder.build_sharded(engine.num_shards()));
    out.check(
        "replica_fingerprint",
        index.fingerprint() == engine.index_fingerprint(),
    );
    out.set("core.materialize.s", materialize_s.iter().sum());
    out.set("core.materialize.instances", instances as f64);
    out.set("ir.index.add_s", add_s.iter().sum());
    out.set("ir.index.freeze_s", freeze_s[0]);
    index
}

/// The three automatic derivations of §4, timed once each.
fn time_derivations(
    args: &Args,
    data: &ImdbData,
    log: &QueryLog,
    engine: &QunitSearchEngine,
    out: &mut Outcome,
) {
    let mut s = Vec::new();
    timed(&mut s, || {
        schema_data::derive(&data.db, &SchemaDataConfig::default()).expect("schema-data derivation")
    });
    let raw: Vec<String> = log.records.iter().map(|r| r.raw.clone()).collect();
    timed(&mut s, || {
        querylog::derive(
            &data.db,
            engine.segmenter(),
            &raw,
            &QueryLogDeriveConfig::default(),
        )
        .expect("query-log derivation")
    });
    let corpus = EvidenceCorpus::generate(
        data,
        EvidenceGenConfig {
            seed: args.sub_seed(4),
            ..EvidenceGenConfig::default()
        },
    );
    let pages: Vec<EvidencePage> = corpus
        .pages
        .iter()
        .map(|p| EvidencePage {
            elements: p
                .elements
                .iter()
                .map(|e| (e.tag.clone(), e.text.clone()))
                .collect(),
        })
        .collect();
    let dict = EntityDictionary::from_database(&data.db, EntityDictionary::imdb_specs());
    timed(&mut s, || {
        evidence::derive(&data.db, &dict, &pages, &EvidenceDeriveConfig::default())
            .expect("evidence derivation")
    });
    out.set("core.derive.schema_data_s", s[0]);
    out.set("core.derive.querylog_s", s[1]);
    out.set("core.derive.evidence_s", s[2]);
}

fn exec_reading(engine: &QunitSearchEngine) -> ExecReading {
    ExecReading {
        exec: engine.executor_stats(),
        decisions: engine.dispatch_counts(),
        shard_nanos: engine.shard_stats().per_shard_nanos,
    }
}

/// The traced pass: one client, a span around every call into a layer, and
/// the layers' own calls replayed beside (not inside) the engine call.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    kind: Kind,
    args: &Args,
    tmp: &Path,
    data: &ImdbData,
    log: &QueryLog,
    engine: &QunitSearchEngine,
    table: &[&str],
    replayed: usize,
    times: &SetUpTimes,
    out: &mut Outcome,
) -> (Vec<Sample>, Vec<Span>) {
    let flat = replica(data, engine, out);
    let mut s = Vec::new();
    let mut compressed = flat.clone();
    timed(&mut s, || compressed.compress_postings());
    let replica_snapshot = tmp.join("replica.snap");
    timed(&mut s, || {
        flat.save_snapshot(&replica_snapshot)
            .expect("save the replica")
    });
    let reloaded = timed(&mut s, || {
        ShardedIndex::load_snapshot(&replica_snapshot).expect("load the replica")
    });
    out.check(
        "replica_snapshot_fingerprint",
        reloaded.fingerprint() == flat.fingerprint(),
    );
    drop(reloaded);
    out.set("ir.index.compress_s", s[0]);
    out.set("ir.snapshot.save_s", s[1]);
    out.set("ir.snapshot.load_s", s[2]);
    out.set(
        "ir.snapshot.bytes",
        std::fs::metadata(&replica_snapshot).map_or(0, |m| m.len()) as f64,
    );
    out.set("datagen.imdb_s", median(&mut times.imdb.clone()));
    out.set("datagen.querylog_s", median(&mut times.querylog.clone()));
    if kind == Kind::Uncached {
        time_derivations(args, data, log, engine, out);
    }

    // An untraced stretch of uncached engine calls first: its median is what
    // the traced `core.engine.uncached` span is compared with. (The served
    // call would not do: with a cache its median flips between hit and miss.)
    // It draws its queries the way the traced stretch will.
    let calibration = closed_loop(1, args.limit.fraction(0.25), |_| {
        let (mut rng, zipf) = (
            StdRng::seed_from_u64(args.sub_seed(20)),
            Zipf::new(table.len(), HOT_SKEW),
        );
        move |i| {
            let at = match kind {
                Kind::ClickMix => zipf.sample(&mut rng),
                Kind::Uncached | Kind::ZipfServe => i % replayed,
            };
            let start = Instant::now();
            let answer = engine.try_search_uncached(table[at], K).map_err(|_| ());
            sample_of(at, start.elapsed(), &answer)
        }
    });
    let untraced = Latency::from_nanos(calibration.samples.iter().map(|s| s.latency_ns));

    let pool = ScratchPool::new();
    let replica_ctx = SearchContext {
        pool: Some(&pool),
        tier: KernelTier::BlockMax,
        ..SearchContext::default()
    };
    let mut layers = IrLayers::new(&flat, &compressed);
    let cache: QueryCache<Vec<QunitResult>> =
        QueryCache::new(EngineConfig::default().cache_capacity);
    let cache_before = engine.cache_stats();
    let before = exec_reading(engine);
    let (mut rng, zipf) = (
        StdRng::seed_from_u64(args.sub_seed(21)),
        Zipf::new(table.len(), HOT_SKEW),
    );
    let mut last: Option<(usize, String)> = None;
    let mut samples = Vec::new();
    let mut tracer = Tracer::new();
    traced_loop(args.limit, &mut tracer, |t, op| {
        if kind == Kind::ClickMix && op as usize % CLICK_EVERY == CLICK_EVERY - 1 {
            if let Some((at, key)) = last.take() {
                t.span("driver.op", op, 0, |t, root| {
                    t.leaf("core.feedback.record_click", op, root, || {
                        engine.record_click(table[at], &key)
                    })
                });
                samples.push(Sample {
                    query: at as u32,
                    latency_ns: 0,
                    done_ns: 0,
                    fingerprint: 0,
                    ok: true,
                    kind: OpKind::Click,
                });
                return;
            }
        }
        let at = match kind {
            Kind::ClickMix => zipf.sample(&mut rng),
            Kind::Uncached | Kind::ZipfServe => (replayed / 2 + op as usize) % replayed,
        };
        let query = table[at];
        let answer = t.span("driver.op", op, 0, |t, root| {
            // The uncached call goes first: after the served call the same
            // query's postings and instances would be warm in the CPU caches
            // and the pipeline would measure a third faster than it serves.
            let uncached = t.leaf("core.engine.uncached", op, root, || {
                engine.try_search_uncached(query, K)
            });
            let answer = t.leaf("core.engine", op, root, || serve(engine, query));
            t.leaf("core.segment", op, root, || {
                black_box(engine.segmenter().segment(query))
            });
            t.leaf("core.engine.type_scores", op, root, || {
                black_box(engine.type_scores(query))
            });
            layers.analysis(t, op, root, query);
            layers.term_stats(t, op, root);
            let _ = black_box(layers.shard(t, op, root, FETCH, &replica_ctx));
            layers.kernel(t, op, root, FETCH);
            // The engine's cache traffic, replayed on a cache of our own
            // under the engine's key (the normalised query).
            let key = relstore::index::tokenize(query).join(" ");
            let hit = t.leaf("core.cache.get", op, root, || cache.get(&key, K, 0));
            if let (None, Ok(results)) = (hit, uncached) {
                t.leaf("core.cache.insert", op, root, || {
                    cache.insert(key, K, 0, results)
                });
            }
            answer
        });
        samples.push(sample_of(at, Duration::ZERO, &answer));
        last = answer
            .ok()
            .and_then(|r| r.into_iter().next())
            .map(|top| (at, top.key));
    });
    let spans = tracer.spans;

    layers.report(&spans, out);
    report_spans(
        &spans,
        &[
            "core.segment",
            "core.engine.uncached",
            "core.cache.get",
            "core.cache.insert",
            "core.feedback.record_click",
        ],
        out,
    );
    // `type_scores(query)` segments the query itself, so its own share is its
    // span less the segmentation span; what is left of the uncached engine
    // call after the attributable layers is `rest`.
    let mut by_op: HashMap<u32, HashMap<&str, f64>> = HashMap::new();
    for s in &spans {
        by_op
            .entry(s.op)
            .or_default()
            .insert(s.name, s.nanos() as f64 / 1e3);
    }
    let of = |op: &HashMap<&str, f64>, name: &str| op.get(name).copied().unwrap_or(0.0);
    let queries: Vec<&HashMap<&str, f64>> = by_op
        .values()
        .filter(|op| op.contains_key("core.engine.uncached"))
        .collect();
    let mut type_scores: Vec<f64> = queries
        .iter()
        .map(|op| (of(op, "core.engine.type_scores") - of(op, "core.segment")).max(0.0))
        .collect();
    let mut rest: Vec<f64> = queries
        .iter()
        .map(|op| {
            of(op, "core.engine.uncached")
                - of(op, "core.engine.type_scores")
                - of(op, "ir.analysis")
                - of(op, "ir.shard")
        })
        .collect();
    if !queries.is_empty() {
        out.set("core.engine.type_scores.us", median(&mut type_scores));
        out.set("core.engine.rest.us", median(&mut rest));
    }

    let cache_after = engine.cache_stats();
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    out.set(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("core.cache.entries", cache_after.entries as f64);
    out.set(
        "core.feedback.generation",
        engine.feedback().generation() as f64,
    );
    report_exec(&before, &exec_reading(engine), out);
    report_driver(
        &spans,
        &["core.engine.uncached"],
        &["core.engine.uncached"],
        &["core.engine.type_scores", "ir.analysis", "ir.shard"],
        untraced.p50_us,
        out,
    );
    (samples, spans)
}
