//! The qunit search engine (§3) — a concurrent search service.
//!
//! Build phase: run the joins of every definition in the catalog and group
//! their rows into instances ([`crate::materialize`]), render each instance
//! once through its conversion expression, and index the renderings as
//! plain documents (anchor text and intent vocabulary get boosted fields).
//! Definitions join independently, so scoped worker threads
//! ([`EngineConfig::build_threads`]) each claim the next one until none is
//! left, and the per-definition row ids are merged back in catalog order —
//! the resulting index is byte-identical to a single-threaded build. A
//! snapshot ([`EngineConfig::snapshot_path`]) replaces the render,
//! tokenise and freeze half of that, not the joins ([`BuildTimings`] says
//! where a build's time went).
//!
//! The engine keeps no page: it shares the caller's database and keeps each
//! instance's row ids, and renders a page again only when a query returns
//! it — the k results of a cache miss, which the cache then holds. The one
//! exception is the handful of instances of more than 256 rows (the charts,
//! the most-cast people's filmographies), each kept once first rendered.
//!
//! Query phase, exactly the paper's pipeline:
//!
//! 1. segment the query into entities + residual terms;
//! 2. match the segmentation against qunit definitions (anchor-type overlap
//!    plus intent-term overlap plus utility prior) — "one high-ranking
//!    segmentation is `[movie.name] [cast]`, and this has a very high
//!    overlap with the qunit definition that involves a join between
//!    movie.name and cast" — and, before any posting is read, decide which
//!    documents the ranking is open to;
//! 3. rank those instances with standard IR, each instance an independent
//!    document, and rescore.
//!
//! # Concurrency model
//!
//! After `build` the engine is immutable except for three interior-mutable
//! stores, all thread-safe: the [`FeedbackStore`] (lock-protected click
//! counts), the [`crate::cache::QueryCache`] (sharded, lock-per-shard), and
//! a [`ScratchPool`] of warm scoring buffers (lock-protected free list;
//! scratches hold no query state between uses, so any thread may take any
//! buffer).
//! [`QunitSearchEngine`] is therefore `Send + Sync` (checked at compile
//! time below): share one engine behind an `Arc` — or plain borrows in
//! scoped threads — and call [`QunitSearchEngine::search`] /
//! [`QunitSearchEngine::record_click`] freely from any number of threads.
//! [`QunitSearchEngine::search_batch`] answers a query slice on scoped
//! threads, one per executor worker, each claiming the next query and
//! running [`QunitSearchEngine::search`] on it. Cached results are
//! stamped with the feedback generation, so a click immediately
//! invalidates every cached result list.
//!
//! Within a single query, the index itself is sharded
//! ([`EngineConfig::search_shards`], backed by [`irengine::ShardedIndex`]):
//! instance scoring fans across the shards with corpus-global statistics
//! and a deterministic top-k merge, so one hot query uses every core and
//! still returns results identical — keys, order, scores to the last bit
//! — to a single-shard engine. Dispatch is amortized, not paid per query:
//! the engine builds one persistent [`ShardExecutor`] worker pool
//! ([`EngineConfig::executor_threads`]) at `build` time, and each search
//! either enqueues its shard tasks there or — when the estimated postings
//! walk is at most [`EngineConfig::inline_postings_threshold`] — scores
//! every shard inline on the calling thread with zero dispatch cost. A
//! query's shard fan-out is the executor's one caller. Per-shard scoring
//! time accumulates in [`QunitSearchEngine::shard_stats`] beside the cache
//! counters.
//!
//! # Service hardening
//!
//! A query fails only when something panics on its path: the engine
//! contains the panic at the query boundary ([`SearchError::Internal`]) and
//! keeps serving. Admission, request queueing and per-query time limits
//! belong to the caller that embeds the engine. Every query-path event
//! lands in cheap relaxed-atomic counters surfaced as one coherent
//! [`QunitSearchEngine::obs_snapshot`] (see [`crate::obs`]); the repo
//! benchmark's open-loop `imdb_zipf_serve` workload (`perf/`) replays a
//! Zipf query log at a target QPS against all of it.

use crate::cache::{CacheStats, QueryCache};
use crate::catalog::QunitCatalog;
use crate::doc_def::{AnchorDocs, DefId, DocDefLane};
use crate::feedback::FeedbackStore;
use crate::materialize::DefRows;
use crate::obs::{EngineObs, ObsSnapshot};
use crate::presentation::RenderBuf;
use crate::qunit::{QunitDefinition, QunitInstance};
use crate::segment::{EntityDictionary, SegmentedQuery, Segmenter};
use irengine::{
    DispatchCounts, DispatchPolicy, DocId, ExecutorStats, Hit, IndexBuilder, KernelTier,
    NormalForm, PostingsBuf, ScoringFunction, ScratchPool, SearchContext, SearchFailure,
    ShardExecutor, ShardTimings, ShardedIndex, ShardedSearcher, SnapshotError,
};
use relstore::{Database, Error, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// IR scoring function for instance ranking. [`QunitSearchEngine::build`]
    /// refuses one outside the range the kernels' score bounds assume
    /// ([`ScoringFunction::check`]).
    pub scoring: ScoringFunction,
    /// Index-time boost for the anchor field.
    pub anchor_boost: f64,
    /// Index-time boost for the intent-vocabulary field.
    pub intent_boost: f64,
    /// Weight of the definition-match (type) score when re-ranking hits.
    pub type_weight: f64,
    /// Weight of the definition's utility prior.
    pub utility_weight: f64,
    /// Multiplier bonus when a segmented query entity exactly equals an
    /// instance's anchor text (protects long instances — a star's huge
    /// filmography — from BM25 length normalization).
    pub anchor_exact_bonus: f64,
    /// Multiplier bonus for the *default* definition of an underspecified
    /// query (no residual terms): the highest-utility definition anchored on
    /// the query's entity type — the paper's rollup-for-underspecified rule.
    pub default_def_bonus: f64,
    /// Weight of accumulated click feedback (see [`crate::feedback`]);
    /// 0 disables relevance feedback entirely.
    pub feedback_weight: f64,
    /// Entity columns for the segmenter; `None` uses
    /// [`EntityDictionary::imdb_specs`].
    pub entity_specs: Option<Vec<(String, String)>>,
    /// Worker threads for materialising the instances; 0 = one per
    /// available core. Any value produces byte-identical instances (the
    /// merge replays catalog order), so this is purely a wall-clock knob. The
    /// index freeze does not read it: it runs one thread per shard, at most
    /// one per core ([`IndexBuilder::build_sharded`]).
    pub build_threads: usize,
    /// Query-cache capacity in cached result lists; 0 disables caching.
    /// Cached and uncached searches return identical results — the cache is
    /// invalidated whenever click feedback changes scores.
    pub cache_capacity: usize,
    /// Index shards for **intra-query** parallelism; 0 = one per available
    /// core (clamped to the instance count), 1 = a single monolithic index.
    /// One hot query fans its scoring across this many executor tasks.
    /// Any value produces identical results — same keys, same order, same
    /// scores to the last bit — because shards are scored with
    /// corpus-global statistics and merged deterministically (contrast
    /// [`EngineConfig::build_threads`], the *build*-time knob; this one is
    /// query-time). The query cache is keyed by `(normalized query, k)`
    /// only, so shard count never fragments or poisons cached entries.
    pub search_shards: usize,
    /// Worker threads in the persistent [`ShardExecutor`] the engine
    /// builds once and dispatches every query's shard fan-out onto; 0 = one
    /// per available core. [`QunitSearchEngine::search_batch`] runs as many
    /// scoped threads. Purely a scheduling knob: any pool size returns
    /// bit-identical results (the executor stress tests pin it).
    pub executor_threads: usize,
    /// Adaptive inline cutoff: a query whose estimated postings walk (sum
    /// of its terms' corpus-global document frequencies) is at or below
    /// this scores all shards inline on the calling thread instead of
    /// dispatching — below the threshold even a parked-worker handoff
    /// costs more than the scoring. `usize::MAX` always inlines; `0`
    /// dispatches every query with postings to walk onto a pool of two or
    /// more workers. `QUNITS_INLINE_THRESHOLD` overrides it at build time
    /// (the CI determinism gate diffs both extremes).
    pub inline_postings_threshold: usize,
    /// The scoring kernel tier every query runs; the default is
    /// [`KernelTier::default`]. Purely a performance knob: every tier is
    /// bit-identical (the CI determinism gate diffs transcripts across all
    /// three), so the others stay reachable for kernel triage — the
    /// exhaustive reference when auditing a suspected pruning bug, MaxScore
    /// to measure what block skipping adds over term pruning alone.
    /// `QUNITS_KERNEL=blockmax|maxscore|exhaustive` overrides this at build
    /// time.
    pub kernel: KernelTier,
    /// Shorthand for `kernel: KernelTier::Exhaustive`, folded into
    /// [`EngineConfig::kernel`] at build, before the `QUNITS_KERNEL`
    /// override; `false` (the default) leaves `kernel` alone. Kept only
    /// because the benchmark under `perf/` sets it to build its reference
    /// engine; it goes once that harness selects the tier through `kernel`.
    pub force_exhaustive: bool,
    /// Postings per block in the frozen block-max lanes (see
    /// `docs/INDEX_FORMAT.md`): smaller blocks skip more precisely but
    /// cost more bound-lane memory and per-block codec framing. Values
    /// are clamped to at least 1; the default is
    /// [`irengine::DEFAULT_BLOCK_SIZE`]. Changing it changes the index
    /// layout (and invalidates snapshots built at another size) but never
    /// the results — every block size is bit-identical (proptest-pinned).
    /// `QUNITS_BLOCK_SIZE` overrides this at build time.
    pub block_size: usize,
    /// Re-encode the posting lanes as a per-block delta+varint stream
    /// ([`irengine::PostingsCodec::DeltaVarint`], see
    /// `docs/INDEX_FORMAT.md`) once the index is built or loaded — a
    /// memory/CPU trade: several-fold smaller posting storage for a decode
    /// pass per (term, shard) scored. Purely representational: results are
    /// bit-identical to the flat codec (CI-gated), and the in-memory codec
    /// also becomes the snapshot's on-disk codec. `false` (the default)
    /// keeps the flat zero-decode lanes. `QUNITS_COMPRESS_POSTINGS=1`
    /// overrides this at build time.
    pub compress_postings: bool,
    /// Index snapshot location. When set, [`QunitSearchEngine::build`]
    /// loads the index from this file if it exists and passes validation
    /// (skipping tokenization and index freezing entirely), and writes it
    /// after a fresh build otherwise — so the *next* restart gets the fast
    /// path. A snapshot whose document count, shard count or document keys
    /// disagree with the current catalog/config, or that fails
    /// checksum/structure validation, is ignored and rebuilt over. Beyond
    /// its keys the snapshot is trusted to match the database content (see
    /// the trust model in `docs/INDEX_FORMAT.md`): delete the file after
    /// changing the text of instances whose keys stay.
    /// `None` (the default) never touches disk. `QUNITS_SNAPSHOT_PATH`
    /// overrides this at build time.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scoring: ScoringFunction::default(),
            anchor_boost: 3.0,
            intent_boost: 2.0,
            type_weight: 2.0,
            utility_weight: 0.3,
            anchor_exact_bonus: 8.0,
            default_def_bonus: 1.5,
            feedback_weight: 2.0,
            entity_specs: None,
            build_threads: 0,
            cache_capacity: 1024,
            search_shards: 0,
            executor_threads: 0,
            inline_postings_threshold: DispatchPolicy::DEFAULT_INLINE_THRESHOLD,
            kernel: KernelTier::default(),
            force_exhaustive: false,
            block_size: irengine::DEFAULT_BLOCK_SIZE,
            compress_postings: false,
            snapshot_path: None,
        }
    }
}

impl EngineConfig {
    /// The range the kernels' score bounds and the rescoring assume of every
    /// numeric field: `scoring` within [`ScoringFunction::check`], the two
    /// field boosts within [`IndexBuilder::check_field_boost`] (finite and
    /// `> 0`), and the weights and bonuses finite and `>= 0` (the rescoring
    /// multiplies by `1 + weight · factor`). [`QunitSearchEngine::build`]
    /// runs it; the error names the field.
    pub fn check(&self) -> std::result::Result<(), String> {
        let named = |name: &'static str| move |why: String| format!("EngineConfig::{name}: {why}");
        self.scoring.check().map_err(named("scoring"))?;
        IndexBuilder::check_field_boost(self.anchor_boost).map_err(named("anchor_boost"))?;
        IndexBuilder::check_field_boost(self.intent_boost).map_err(named("intent_boost"))?;
        for (name, value) in [
            ("type_weight", self.type_weight),
            ("utility_weight", self.utility_weight),
            ("anchor_exact_bonus", self.anchor_exact_bonus),
            ("default_def_bonus", self.default_def_bonus),
            ("feedback_weight", self.feedback_weight),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(named(name)(format!("{value} is not a finite value >= 0")));
            }
        }
        Ok(())
    }
}

/// Why a fallible search entry point declined to produce a result list.
/// Deterministic *in content*: the error carries no timing data, so
/// transcript-style tests can match it structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// A shard task panicked mid-query, or the pipeline around it did,
    /// and the engine contained it at the query boundary instead of
    /// unwinding the caller. A failed shard fails the whole query: no
    /// partial answer is ever returned or cached. The
    /// engine, its worker pool, and its scratch buffers all remain
    /// healthy — a crashed query returns its scratch on the way out — so
    /// callers may keep querying; the counter family in
    /// [`crate::obs::ObsSnapshot`] tracks how often this fires.
    Internal {
        /// The panic's message — for injected faults, the failpoint site
        /// name (`"injected fault at exec.task"`); for organic panics,
        /// whatever the panic payload carried.
        site: String,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Internal { site } => {
                write!(f, "internal query failure contained: {site}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Result alias for the fallible search entry points
/// ([`QunitSearchEngine::try_search`] and friends).
pub type SearchResult<T> = std::result::Result<T, SearchError>;

/// One ranked search result: the scores of one query, and the instance
/// they rank.
///
/// The instance is rendered when a cache miss returns it, and shared from
/// then on: the cached list and every list served from it hold the very
/// handle the miss rendered, never a copy. A result derefs to it, so
/// `result.definition`, `result.rendered`, `result.text`, `result.fields`
/// and `result.anchor_text()` read through.
#[derive(Debug, Clone, PartialEq)]
pub struct QunitResult {
    /// Instance key (`definition::anchor`), owned so callers can move it out.
    pub key: String,
    /// Final score (IR × type match).
    pub score: f64,
    /// IR component of the score.
    pub ir_score: f64,
    /// Type-match component (0 when the query gave no typing signal).
    pub type_score: f64,
    /// The ranked instance.
    pub instance: Arc<QunitInstance>,
}

impl std::ops::Deref for QunitResult {
    type Target = QunitInstance;

    fn deref(&self) -> &QunitInstance {
        &self.instance
    }
}

impl QunitResult {
    /// Query-biased, `[match]`-highlighted snippet of the instance text
    /// (window in tokens); `None` when no query term occurs.
    pub fn snippet(&self, query: &str, window: usize) -> Option<String> {
        irengine::snippet::extract(&irengine::Analyzer::keep_all(), &self.text, query, window)
            .map(|s| s.highlighted())
    }
}

/// The answer of [`QunitSearchEngine::try_search_partial`]: the ranked
/// results, tagged "not degraded". Kept only because the benchmark harness
/// under `perf/` still reads it; a failed shard fails the query, so no
/// answer is partial.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Ranked results.
    pub results: Vec<QunitResult>,
    /// Always `false`.
    pub degraded: bool,
}

/// Per-definition facts the query path needs on every call, precomputed at
/// build time (the serial engine re-derived all of these per query).
#[derive(Debug, Clone)]
struct DefMeta {
    /// Typed id: this entry's position, which is the catalog's.
    id: DefId,
    /// Definition name (parallel to catalog order).
    name: String,
    /// `anchor.qualified()`, formatted once.
    anchor_qualified: Option<String>,
    /// Utility prior, copied out of the definition.
    utility: f64,
}

/// Per-shard query-path counters (see [`QunitSearchEngine::shard_stats`]).
///
/// Like [`CacheStats`], a plain snapshot of relaxed atomics: cheap to read
/// from benches and operators without touching any lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard fan-outs run by uncached searches — one per ranking pass, so
    /// a typed query whose restricted pass came back empty and reran
    /// unrestricted counts two. Every fan-out adds to `per_shard_nanos`,
    /// which makes nanos ÷ `searches` the cost of one pass.
    pub searches: u64,
    /// Accumulated scoring wall-clock per shard, in nanoseconds,
    /// index-aligned with the engine's shards. The spread across slots is
    /// the load-balance story; the max per search is the latency story.
    pub per_shard_nanos: Vec<u64>,
}

/// The engine: an indexed flat collection of qunit instances, sharded for
/// intra-query parallelism ([`EngineConfig::search_shards`]).
pub struct QunitSearchEngine {
    index: ShardedIndex,
    /// The database every page is rendered from, shared with the caller.
    db: Arc<Database>,
    /// Every definition's instances as row ids, by [`DefId`]: what a page
    /// is rendered from when a query returns it.
    rows: Vec<DefRows>,
    /// The first document of each definition, by [`DefId`], then the
    /// document count: definition `d` owns documents
    /// `first_doc[d]..first_doc[d + 1]`.
    first_doc: Vec<DocId>,
    catalog: QunitCatalog,
    segmenter: Segmenter,
    config: EngineConfig,
    feedback: FeedbackStore,
    /// Catalog-ordered metadata (see [`DefMeta`]), indexed by [`DefId`].
    def_meta: Vec<DefMeta>,
    /// Owning definition of every global document id — what
    /// [`QueryPlan::admits`] and the rescoring loop read instead of
    /// resolving a key to a definition name per candidate.
    doc_def: DocDefLane,
    /// The documents each anchor instantiates, by the anchor's normal form:
    /// where a plan's anchored documents come from.
    anchors: AnchorDocs,
    /// Highest utility in the catalog (normalizer for the utility prior).
    max_utility: f64,
    cache: QueryCache<Vec<QunitResult>>,
    /// Scoring wall-clock accumulated per shard: lock-free atomic
    /// nanosecond counters, one slot per index shard (no allocation on the
    /// hot path; see [`ShardTimings`]).
    shard_timings: ShardTimings,
    /// Number of ranking passes that fanned across the shards.
    sharded_searches: AtomicU64,
    /// Warm dense-accumulator buffers for the scoring kernel. Shard tasks
    /// (on the executor workers or the calling thread) check one out and
    /// return it, so the `Vec`-indexed score slots survive across queries
    /// instead of being reallocated per shard per search.
    scratch_pool: ScratchPool,
    /// The persistent shard executor: parked workers constructed once at
    /// build time that every dispatched shard fan-out enqueues onto —
    /// per-query thread spawns never happen on the query path.
    exec: ShardExecutor,
    /// Engine-owned observability counters (queries served, contained
    /// failures); merged with the cache, executor, and
    /// shard-timing counters in [`QunitSearchEngine::obs_snapshot`].
    obs: EngineObs,
    /// Inline-vs-dispatch decision tally, recorded by the sharded search
    /// path through [`SearchContext::decisions`].
    dispatch_counts: DispatchCounts,
    /// Phase clock of the build that made this engine.
    build_timings: BuildTimings,
}

// Compile-time proof that the engine is a shareable service: every query
// method takes `&self`, so `Send + Sync` is the whole thread-safety story.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<QunitSearchEngine>();

/// Per-thread working buffers for the query path, so neither the cache
/// lookup nor the segmentation/tokenization ahead of the scoring kernel
/// allocates afresh per query. A serving thread keeps its buffers across
/// queries, and a `search_batch` thread across the queries it claims.
#[derive(Debug, Default)]
struct QueryScratch {
    /// The query's one tokenization, filled by [`with_query`]: the cache
    /// key, the segmenter's windows and the IR terms all read it.
    norm: NormalForm,
    /// The query's plan, decided in place ([`QunitSearchEngine::plan`]).
    plan: QueryPlan,
    /// The rescored candidates, before the top k are kept.
    scored: Vec<Scored>,
    /// Where the k results' pages are rendered.
    render: RenderBuf,
}

/// Which documents a query's ranking is open to (§3: "standard IR …
/// against qunit instances *of the identified type*").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Route {
    /// An underspecified query's default definition (§4.2).
    Default(DefId),
    /// The definitions within 0.25 of a best type score of at least 1.5:
    /// [`QueryPlan::typed`].
    Typed,
    /// Every document: the typing is not confident.
    #[default]
    Open,
}

/// What the uncached pipeline decides before it reads the index (§3's
/// "identify the qunit type"), refilled for every query by
/// [`QunitSearchEngine::plan`]: run by [`QunitSearchEngine::candidates`],
/// read by [`QunitSearchEngine::rescore`].
#[derive(Debug, Default)]
struct QueryPlan {
    route: Route,
    type_scores: Vec<f64>,
    boosts: Vec<f64>,
    /// Every definition's factors, by [`DefId`].
    factors: Vec<DefFactors>,
    /// [`Route::Typed`]'s definitions, by [`DefId`].
    typed: Vec<bool>,
    /// Hits asked of the kernel.
    fetch: usize,
    /// Every document a segmented entity anchors, ascending: what injection
    /// considers and the anchor bonus multiplies.
    anchored: Vec<DocId>,
}

impl QueryPlan {
    /// Whether the route ranks `doc`: the kernel's filter and the anchor
    /// injection's check.
    fn admits(&self, lane: &DocDefLane, doc: DocId) -> bool {
        match self.route {
            Route::Default(d) => lane.def_of(doc) == Some(d),
            Route::Typed => lane.accepts(&self.typed, doc),
            Route::Open => true,
        }
    }
}

/// What one query multiplies into every hit of one definition: pure
/// functions of the query and the definition, computed once per query and
/// read per hit by [`DefId`].
#[derive(Debug, Clone, Copy)]
struct DefFactors {
    /// The definition-match score.
    type_score: f64,
    /// `1 + type_weight · type_score`.
    type_factor: f64,
    /// `1 + feedback_weight · boost`; 1 when feedback is off.
    feedback_factor: f64,
}

impl DefFactors {
    /// Factors of a document no catalog definition owns: no type signal,
    /// no feedback.
    const NO_DEF: DefFactors = DefFactors {
        type_score: 0.0,
        type_factor: 1.0,
        feedback_factor: 1.0,
    };
}

/// One rescored candidate: its scores and its document, nothing owned.
#[derive(Debug, Clone, Copy)]
struct Scored {
    score: f64,
    ir_score: f64,
    type_score: f64,
    doc: DocId,
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// Run `f` with this thread's query scratch, `query` tokenized into it:
/// the one tokenization of a query on every search path. Falls back to a
/// fresh scratch if the thread-local is already borrowed (re-entrant
/// searches — e.g. a caller inside a filter callback — stay correct, just
/// unamortized).
fn with_query<R>(query: &str, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    let run = |qs: &mut QueryScratch| {
        qs.norm.fill(query);
        f(qs)
    };
    QUERY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => run(&mut scratch),
        Err(_) => run(&mut QueryScratch::default()),
    })
}

/// Transient-I/O retry budget for the snapshot fast path: how many load
/// attempts in total, and the backoff unit between them (attempt `n` waits
/// `n × SNAPSHOT_RETRY_BACKOFF`, so the whole budget is ~15ms — enough for
/// a blip, nowhere near the cost of the rebuild it tries to avoid).
const SNAPSHOT_LOAD_ATTEMPTS: u32 = 3;
const SNAPSHOT_RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Move a bad snapshot aside to `<path>.corrupt` so the next restart does
/// not trip over it again and the bytes survive for post-mortem. A failed
/// rename is diagnostic only — the caller rebuilds either way.
fn quarantine_snapshot(path: &std::path::Path, why: &str) {
    let mut quarantined = path.as_os_str().to_owned();
    quarantined.push(".corrupt");
    let quarantined = PathBuf::from(quarantined);
    match std::fs::rename(path, &quarantined) {
        Ok(()) => eprintln!(
            "qunits: snapshot {} quarantined to {} ({why})",
            path.display(),
            quarantined.display()
        ),
        Err(e) => eprintln!(
            "qunits: snapshot {} could not be quarantined ({why}): {e}",
            path.display()
        ),
    }
}

/// Try the snapshot fast path: if [`EngineConfig::snapshot_path`] names an
/// existing file that loads cleanly (header, checksums, lane invariants)
/// and holds this build's documents — `keys`, key for key in catalog ×
/// materialisation order, in `shard_count` shards — return the loaded
/// index; otherwise `None` and the caller freezes from scratch.
/// Failures are diagnostic, never fatal, and handled by kind:
///
/// - transient I/O errors get [`SNAPSHOT_LOAD_ATTEMPTS`] tries with linear
///   backoff — the file may be fine while the volume hiccups, so it is
///   *not* quarantined when the budget runs out;
/// - corrupt or stale (wrong doc/shard/block-size, or a document under
///   another key: a file saved from another database or catalog) snapshots
///   are renamed to `<path>.corrupt` ([`quarantine_snapshot`]) so the bytes
///   stay available for diagnosis and the next restart rebuilds cleanly
///   instead of re-parsing a file known to be bad.
fn try_load_snapshot(
    config: &EngineConfig,
    keys: &DocKeys,
    shard_count: usize,
) -> Option<ShardedIndex> {
    let path = config.snapshot_path.as_deref()?;
    if !path.exists() {
        return None;
    }
    let num_docs = keys.len();
    let block_size = config.block_size.max(1);
    let mut attempt = 0u32;
    let result = loop {
        attempt += 1;
        match ShardedIndex::load_snapshot(path) {
            Err(SnapshotError::Io(e))
                if e.kind() != std::io::ErrorKind::NotFound && attempt < SNAPSHOT_LOAD_ATTEMPTS =>
            {
                eprintln!(
                    "qunits: snapshot {} read failed (attempt {attempt}/{SNAPSHOT_LOAD_ATTEMPTS}): \
                     {e}; retrying",
                    path.display()
                );
                std::thread::sleep(SNAPSHOT_RETRY_BACKOFF * attempt);
            }
            other => break other,
        }
    };
    match result {
        Ok(index)
            if index.num_docs() == num_docs
                && index.num_shards() == shard_count
                && index.block_size() == block_size =>
        {
            // Equal counts do not make it this catalog's index. Every
            // doc-indexed lane is filled by position, so position by
            // position the file must hold the document the catalog puts
            // there.
            match keys.first_unlike(|doc| index.external_id(doc)) {
                None => Some(index),
                Some((doc, key)) => {
                    let why = format!(
                        "stale: document {doc} is {:?}, the catalog's is {key:?}",
                        index.external_id(doc).unwrap_or_default()
                    );
                    quarantine_snapshot(path, &why);
                    None
                }
            }
        }
        Ok(index) => {
            let why = format!(
                "stale: {} docs / {} shards / block size {}, want \
                 {num_docs} / {shard_count} / {block_size}",
                index.num_docs(),
                index.num_shards(),
                index.block_size(),
            );
            quarantine_snapshot(path, &why);
            None
        }
        Err(e @ SnapshotError::Corrupt(_)) => {
            quarantine_snapshot(path, &e.to_string());
            None
        }
        Err(e) => {
            eprintln!(
                "qunits: snapshot {} unreadable after {attempt} attempt(s): {e}; rebuilding",
                path.display()
            );
            None
        }
    }
}

/// Resolve a requested thread count: 0 means one per available core, and
/// there is never a point in more workers than items.
fn worker_count(requested: usize, items: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .clamp(1, items.max(1))
}

/// `work(i)` for every `i < items`, on [`worker_count`]`(threads, items)`
/// scoped threads that each claim the next unclaimed index until none is
/// left — so one heavy item occupies one worker while the others drain the
/// rest, whatever its position. Slot `i` of the result is `work(i)`
/// regardless of which worker ran it or when. A panic in `work` resurfaces
/// on the caller.
fn claim_each<T: Send>(items: usize, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results reach the caller through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return done;
            }
            done.push((i, work(i)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..worker_count(threads, items))
            .map(|_| scope.spawn(claim))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // Every index was claimed exactly once, so sorted they are `0..items`.
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Every document's key, in document order: each definition's instances,
/// in catalog order, read from their rows.
struct DocKeys<'a> {
    db: &'a Database,
    defs: &'a [&'a QunitDefinition],
    rows: &'a [DefRows],
}

impl DocKeys<'_> {
    /// Number of documents.
    fn len(&self) -> usize {
        self.rows.iter().map(DefRows::len).sum()
    }

    /// The first document whose key is not `key_at(doc)`, and its key.
    fn first_unlike<'k>(
        &self,
        key_at: impl Fn(DocId) -> Option<&'k str>,
    ) -> Option<(DocId, String)> {
        let mut key = String::new();
        let mut doc: DocId = 0;
        for (def, rows) in self.defs.iter().zip(self.rows) {
            for i in 0..rows.len() {
                rows.write_key(self.db, def, i, &mut key);
                if key_at(doc) != Some(key.as_str()) {
                    return Some((doc, key));
                }
                doc += 1;
            }
        }
        None
    }
}

/// Render every instance once, in document order, into a fresh index
/// builder: the anchor text and the definition's intent terms as boosted
/// fields, the page's text as the body. Each page is dropped as soon as it
/// is added.
fn index_documents(
    db: &Database,
    defs: &[&QunitDefinition],
    rows: &[DefRows],
    config: &EngineConfig,
) -> IndexBuilder {
    let mut builder = IndexBuilder::new();
    builder.set_field_boost("anchor", config.anchor_boost);
    builder.set_field_boost("intent", config.intent_boost);
    builder.set_block_size(config.block_size);
    let (mut buf, mut key) = (RenderBuf::default(), String::new());
    for (def, rows) in defs.iter().zip(rows) {
        let intent = def.intent_terms.join(" ");
        for i in 0..rows.len() {
            rows.render(db, i, &mut buf);
            rows.write_key(db, def, i, &mut key);
            // The key is `definition::anchor`.
            let anchor = rows.anchor(db, i).map(|_| &key[def.name.len() + 2..]);
            let fields = [
                anchor.map(|a| ("anchor", a)),
                (!intent.is_empty()).then_some(("intent", intent.as_str())),
                Some(("body", buf.text.as_str())),
            ];
            builder.add_fields(&key, fields.into_iter().flatten());
        }
    }
    builder
}

/// Wall-clock of each phase of one [`QunitSearchEngine::build`], in the
/// order they run. The phases are bracketed back to back, so their sum is
/// the build minus configuration handling and struct assembly.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Entity dictionary and segmenter.
    pub dictionary: Duration,
    /// Every definition joined and its rows grouped into instances, across
    /// the build workers — wall-clock, not the CPU sum. Nothing is rendered
    /// here.
    pub materialize: Duration,
    /// Obtaining the index: on a cold build, every page rendered once, its
    /// document tokenised, and the index frozen; on a restart, the
    /// snapshot load and the check of every document's key. Either way
    /// including the conversion to the configured postings codec.
    pub index: Duration,
    /// Writing the snapshot (zero unless a cold build has a
    /// [`EngineConfig::snapshot_path`]).
    pub snapshot_save: Duration,
    /// The doc-indexed lanes, filled by position: every document's
    /// definition, and the anchor → documents table.
    pub doc_def: Duration,
    /// Whether the index came from the snapshot.
    pub from_snapshot: bool,
}

/// Time since `*since`, which is moved up to now: consecutive calls bracket
/// consecutive phases with nothing in between.
fn lap(since: &mut Instant) -> Duration {
    let now = Instant::now();
    let elapsed = now - *since;
    *since = now;
    elapsed
}

impl QunitSearchEngine {
    /// Join, render and index every instance of `catalog` against `db`,
    /// fanning definitions across [`EngineConfig::build_threads`] workers.
    /// The engine keeps `db` to render the pages queries return.
    pub fn build(
        db: &Arc<Database>,
        catalog: QunitCatalog,
        mut config: EngineConfig,
    ) -> Result<Self> {
        // The shorthand first, so that `QUNITS_KERNEL` overrides it.
        if config.force_exhaustive {
            config.kernel = KernelTier::Exhaustive;
        }
        let config = crate::overrides::from_env(config);
        config.check().map_err(Error::InvalidSchema)?;
        if catalog.len() > DefId::MAX_DEFINITIONS {
            return Err(Error::InvalidSchema(format!(
                "catalog has {} definitions; the doc→definition lane addresses at most {}",
                catalog.len(),
                DefId::MAX_DEFINITIONS
            )));
        }
        let mut timings = BuildTimings::default();
        let mut clock = Instant::now();
        let dict = match &config.entity_specs {
            Some(s) => {
                let refs: Vec<(&str, &str)> =
                    s.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                EntityDictionary::from_database(db, &refs)
            }
            None => EntityDictionary::from_database(db, EntityDictionary::imdb_specs()),
        };
        let segmenter = Segmenter::new(dict);
        timings.dictionary = lap(&mut clock);

        // `rows[i]` is definition i's instances whichever worker claimed
        // it, so everything below replays exact catalog × materialization
        // order — which is what makes the index byte-identical to a serial
        // build (guarded by the determinism test suite). If definitions
        // fail, the build fails with the first one's error.
        let defs: Vec<&QunitDefinition> = catalog.iter().collect();
        let rows = claim_each(defs.len(), config.build_threads, |i| {
            DefRows::join(db, defs[i])
        })
        .into_iter()
        .collect::<Result<Vec<DefRows>>>()?;
        timings.materialize = lap(&mut clock);

        // Shard for intra-query parallelism. The partition is round-robin
        // over the documents in catalog order, so shard contents depend
        // only on the catalog — not on build_threads, not on search_shards
        // (the fingerprint is shard-count invariant; the CI determinism
        // gate holds both).
        let keys = DocKeys {
            db,
            defs: &defs,
            rows: &rows,
        };
        let num_docs = keys.len();
        let shard_count = worker_count(config.search_shards, num_docs);
        let loaded = try_load_snapshot(&config, &keys, shard_count);
        timings.from_snapshot = loaded.is_some();
        // Pages are rendered only on a cold build: a restart renders and
        // tokenises nothing it would then discard.
        let mut index = loaded.unwrap_or_else(|| {
            index_documents(db, &defs, &rows, &config).build_sharded(shard_count)
        });
        // The codec knob governs the in-memory representation regardless of
        // how the index was obtained (a flat snapshot loads then
        // compresses, and vice versa). Both directions are lossless, so
        // results are bit-identical either way.
        index.set_postings_codec(if config.compress_postings {
            irengine::PostingsCodec::DeltaVarint
        } else {
            irengine::PostingsCodec::Flat
        });
        timings.index = lap(&mut clock);
        if let (false, Some(path)) = (timings.from_snapshot, &config.snapshot_path) {
            // Saved under the configured codec, after the conversion above.
            // Best-effort: a failed save costs the next restart its fast
            // path but must not fail this build.
            if let Err(e) = index.save_snapshot(path) {
                eprintln!("qunits: snapshot save to {} failed: {e}", path.display());
            }
            timings.snapshot_save = lap(&mut clock);
        }

        // The doc-indexed lanes, filled by position: document d of the
        // index — built above or verified key by key on load — is the d-th
        // instance in catalog × materialisation order, and its definition
        // is the one whose rows it came in.
        assert_eq!(index.num_docs(), num_docs);
        let mut first_doc: Vec<DocId> = vec![0];
        for def_rows in &rows {
            let last = *first_doc.last().expect("starts at 0");
            first_doc.push(last + DocId::try_from(def_rows.len()).expect("doc ids fit DocId"));
        }
        let doc_def = DocDefLane::build(rows.iter().enumerate().flat_map(|(i, def_rows)| {
            let id = DefId::new(i).expect("catalog size checked on entry");
            std::iter::repeat_n(Some(id), def_rows.len())
        }));
        let anchors: Vec<Option<&relstore::Value>> = rows
            .iter()
            .flat_map(|def_rows| (0..def_rows.len()).map(|i| def_rows.anchor(db, i)))
            .collect();
        let anchors = AnchorDocs::build(anchors.into_iter());
        timings.doc_def = lap(&mut clock);

        let def_meta: Vec<DefMeta> = catalog
            .iter()
            .enumerate()
            .map(|(i, d)| DefMeta {
                id: DefId::new(i).expect("catalog size checked on entry"),
                name: d.name.clone(),
                anchor_qualified: d.anchor.as_ref().map(|a| a.qualified()),
                utility: d.utility,
            })
            .collect();
        let max_utility = def_meta
            .iter()
            .map(|m| m.utility)
            .fold(f64::MIN_POSITIVE, f64::max);
        let cache = QueryCache::new(config.cache_capacity);

        let shard_timings = ShardTimings::new(index.num_shards());
        // The persistent worker pool every parallel search dispatches onto
        // — constructed once here, parked until queries arrive, joined on
        // drop. Scheduling only: pool size can never change results.
        let exec = ShardExecutor::new(config.executor_threads);
        Ok(QunitSearchEngine {
            index,
            db: Arc::clone(db),
            rows,
            first_doc,
            catalog,
            segmenter,
            config,
            feedback: FeedbackStore::new(),
            def_meta,
            doc_def,
            anchors,
            max_utility,
            cache,
            shard_timings,
            sharded_searches: AtomicU64::new(0),
            scratch_pool: ScratchPool::new(),
            exec,
            obs: EngineObs::default(),
            dispatch_counts: DispatchCounts::new(),
            build_timings: timings,
        })
    }

    /// Where the wall-clock of the [`QunitSearchEngine::build`] that made
    /// this engine went.
    pub fn build_timings(&self) -> BuildTimings {
        self.build_timings
    }

    /// Number of indexed instances.
    pub fn num_instances(&self) -> usize {
        self.doc_def.len()
    }

    /// The catalog behind the engine.
    pub fn catalog(&self) -> &QunitCatalog {
        &self.catalog
    }

    /// The segmenter (shared with experiments that need query typing).
    pub fn segmenter(&self) -> &Segmenter {
        &self.segmenter
    }

    /// The instance of `key`, rendered on demand. Should two documents
    /// share a key, this is the first-inserted one's, as
    /// [`ShardedIndex::doc_for_external`] resolves it.
    pub fn instance(&self, key: &str) -> Option<Arc<QunitInstance>> {
        let doc = self.index.doc_for_external(key)?;
        Some(self.page(doc, &mut RenderBuf::default()))
    }

    /// Every instance, rendered on demand one at a time, in document-id
    /// order: catalog order, and within a definition the order it
    /// materialised them in.
    pub fn instances(&self) -> impl Iterator<Item = Arc<QunitInstance>> + '_ {
        let mut buf = RenderBuf::default();
        (0..self.doc_def.len() as DocId).map(move |doc| self.page(doc, &mut buf))
    }

    /// Document `doc`'s page, rendered in `buf` (unless it is one of the
    /// few the engine keeps once rendered, [`DefRows::page`]).
    fn page(&self, doc: DocId, buf: &mut RenderBuf) -> Arc<QunitInstance> {
        // The last definition that starts at or before `doc` owns it.
        let d = self.first_doc.partition_point(|&first| first <= doc) - 1;
        let i = (doc - self.first_doc[d]) as usize;
        self.rows[d].page(&self.db, self.catalog.at(d), i, buf)
    }

    /// The relevance-feedback store.
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Query-cache hit/miss counters and residency.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of index shards the query path fans out across.
    pub fn num_shards(&self) -> usize {
        self.index.num_shards()
    }

    /// Total postings across all index shards — the flat CSR entries a
    /// worst-case query walks; with [`QunitSearchEngine::num_instances`]
    /// and [`QunitSearchEngine::num_shards`], the index-size story benches
    /// and operators report against.
    pub fn num_postings(&self) -> usize {
        self.index.num_postings()
    }

    /// Heap bytes held by the posting lanes across all shards (doc-id and
    /// term-frequency arrays, plus per-row byte offsets when compressed;
    /// the CSR `offsets` lane is excluded under both codecs). Divide by
    /// [`QunitSearchEngine::num_postings`] for bytes per posting.
    pub fn posting_store_bytes(&self) -> usize {
        self.index.posting_store_bytes()
    }

    /// Per-shard scoring-time counters accumulated by every uncached
    /// search (cache hits never touch the shards, so they don't count).
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            searches: self.sharded_searches.load(Ordering::Relaxed),
            per_shard_nanos: self.shard_timings.snapshot(),
        }
    }

    /// Size of the persistent shard-executor worker pool.
    pub fn executor_pool_size(&self) -> usize {
        self.exec.pool_size()
    }

    /// Inline-vs-dispatch decision totals `(inline, dispatched)` across
    /// every multi-shard ranking pass since build. The spread is the
    /// adaptive policy's report card: all-inline means the threshold never
    /// fires, all-dispatch means no query is small enough to keep.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        self.dispatch_counts.snapshot()
    }

    /// Queue counters from the persistent shard executor: enqueues,
    /// dequeues, accumulated queue-wait nanoseconds and the deepest queue.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.exec.stats()
    }

    /// One coherent snapshot of every observability signal the engine
    /// tracks — queries served, cache hits/misses, inline-vs-dispatch
    /// decisions, contained failures, per-shard scoring
    /// nanos, and executor queue stats. Monotonic totals since build;
    /// snapshot twice and subtract for interval rates. Reading is a
    /// handful of relaxed atomic loads plus one `Vec` for the shard slots
    /// — safe to poll from an operator thread at any frequency.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let cache = self.cache.stats();
        let (inline_queries, dispatched_queries) = self.dispatch_counts.snapshot();
        let queue = self.exec.stats();
        ObsSnapshot {
            queries: self.obs.queries.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            inline_queries,
            dispatched_queries,
            internal_errors: self.obs.internal_errors.get(),
            panics_contained: self.obs.panics_contained.get(),
            degraded_to_empty: self.obs.degraded_to_empty.get(),
            typed_queries: self.obs.typed_queries.get(),
            typed_fallbacks: self.obs.typed_fallbacks.get(),
            per_shard_scoring_nanos: self.shard_timings.snapshot(),
            tasks_enqueued: queue.enqueued,
            tasks_dequeued: queue.dequeued,
            queue_wait_nanos: queue.queue_wait_nanos,
            max_queue_depth: queue.max_queue_depth,
            latency: self.obs.latency.snapshot(),
        }
    }

    /// Fingerprint of the logical index content — invariant under both
    /// [`EngineConfig::build_threads`] and [`EngineConfig::search_shards`]
    /// (the CI determinism gate compares this value across sweeps of both).
    pub fn index_fingerprint(&self) -> u64 {
        self.index.fingerprint()
    }

    /// Record a user click on a result: future queries with the same
    /// template signature will prefer the clicked definition. Every cached
    /// result list is invalidated (feedback changes scores).
    ///
    /// With [`EngineConfig::feedback_weight`] at 0 this does nothing: the
    /// salience of a default definition and the per-hit factor both
    /// multiply the boost by the weight, so no click could move a score
    /// and the cache keeps every entry. Neither does a key no document
    /// carries. The key's definition is read off the doc-indexed lane;
    /// nothing is rendered.
    pub fn record_click(&self, query: &str, result_key: &str) {
        if self.config.feedback_weight == 0.0 {
            return;
        }
        let doc = self.index.doc_for_external(result_key);
        if let Some(def) = doc.and_then(|doc| self.doc_def.def_of(doc)) {
            let sig = self.segmenter.segment(query).template_signature();
            self.feedback.record(&sig, &self.def_meta[def.index()].name);
            // The feedback generation stamp already marks every cached entry
            // stale; the eager clear just releases the memory now.
            self.cache.invalidate_all();
        }
    }

    /// Definition-match (type) scores for a query: intent overlap + anchor
    /// agreement + utility prior, per definition name.
    pub fn type_scores(&self, query: &str) -> HashMap<String, f64> {
        let mut scores = Vec::new();
        self.type_scores_into(&self.segmenter.segment(query), &mut scores);
        self.def_meta
            .iter()
            .map(|m| m.name.clone())
            .zip(scores)
            .collect()
    }

    /// [`QunitSearchEngine::type_scores`] indexed by [`DefId`], into `out`
    /// (cleared first).
    fn type_scores_into(&self, seg: &SegmentedQuery, out: &mut Vec<f64>) {
        let typed = seg.entity_texts().next().is_some();
        out.clear();
        out.extend(self.catalog.iter().zip(&self.def_meta).map(|(def, meta)| {
            let intent = def.intent_overlap(seg.residual());
            let anchor = match &meta.anchor_qualified {
                Some(a) if seg.segments.iter().any(|s| s.is_entity_of(a)) => 1.0,
                Some(_) if !typed => 0.25, // nothing contradicts it
                Some(_) => 0.0,            // typed to a different entity
                None => {
                    if typed {
                        0.0
                    } else {
                        0.5 // singleton qunits fit entity-free queries
                    }
                }
            };
            let utility = self.config.utility_weight * (meta.utility / self.max_utility);
            intent + anchor + utility
        }));
    }

    /// Run a keyword query, returning up to `k` results. Consults the query
    /// cache first; on a miss the result list is computed by
    /// [`QunitSearchEngine::search_uncached`] and cached under the current
    /// feedback generation.
    ///
    /// Infallible by design: a query that fails ([`SearchError`]) returns
    /// an empty result list (the documented degraded answer, never
    /// cached). A caller that needs to distinguish "no matches" from a
    /// failed query uses [`QunitSearchEngine::try_search`].
    pub fn search(&self, query: &str, k: usize) -> Vec<QunitResult> {
        match self.try_search(query, k) {
            Ok(results) => results,
            Err(_) => {
                // Counted, so silent error loss is visible to operators
                // even through the infallible API.
                self.obs.degraded_to_empty.incr();
                Vec::new()
            }
        }
    }

    /// Fallible entry point: [`QunitSearchEngine::search`] with its errors
    /// surfaced — [`SearchError::Internal`] when a contained panic killed
    /// the query. With no fault this never errors and is bit-identical to
    /// [`QunitSearchEngine::search`].
    pub fn try_search(&self, query: &str, k: usize) -> SearchResult<Vec<QunitResult>> {
        self.obs.queries.incr();
        let started = Instant::now();
        let out = if k == 0 || !self.cache.is_enabled() {
            // k == 0 skips the cache entirely: no point spending an LRU
            // slot (and maybe an eviction) on an always-empty result.
            with_query(query, |qs| self.search_uncached_guarded(k, qs))
        } else {
            with_query(query, |qs| {
                // Read the generation *before* searching: a click landing
                // mid-search makes the entry immediately stale rather than
                // wrongly fresh.
                let generation = self.feedback.generation();
                if let Some(cached) = self.cache.get(qs.norm.as_str(), k, generation) {
                    return Ok(cached);
                }
                // `?` before the insert: a failed query is never cached —
                // the cache contract is "identical to uncached".
                let results = self.search_uncached_guarded(k, qs)?;
                // The cache owns its key, so a miss pays one String clone;
                // a hit borrows the normal form and allocates only the list
                // it returns (one `Vec`, k keys).
                let key = qs.norm.as_str().to_string();
                self.cache.insert(key, k, generation, results.clone());
                Ok(results)
            })
        };
        // Hits, misses, and failures all count: the histogram is the
        // served-latency distribution, not the kernel-cost one.
        self.obs.latency.record(started.elapsed().as_nanos() as u64);
        out
    }

    /// [`QunitSearchEngine::try_search`], its results wrapped in a
    /// [`SearchResponse`] that is never degraded. Kept only because the
    /// benchmark harness under `perf/` still calls it.
    pub fn try_search_partial(&self, query: &str, k: usize) -> SearchResult<SearchResponse> {
        self.try_search(query, k).map(|results| SearchResponse {
            results,
            degraded: false,
        })
    }

    /// Answer a batch of queries on scoped threads, one per executor
    /// worker ([`EngineConfig::executor_threads`]), each claiming the next
    /// unanswered query. Slot `i` is [`QunitSearchEngine::search`] of
    /// query `i`, failures included: a query that fails answers an empty
    /// list, counted in [`ObsSnapshot::degraded_to_empty`], and leaves
    /// every other query's answer alone.
    pub fn search_batch(&self, queries: &[&str], k: usize) -> Vec<Vec<QunitResult>> {
        claim_each(queries.len(), self.exec.pool_size(), |i| {
            self.search(queries[i], k)
        })
    }

    /// Run a keyword query without touching the cache, returning up to `k`
    /// results. Like [`QunitSearchEngine::search`], a failed query
    /// degrades to an empty list; [`QunitSearchEngine::try_search_uncached`]
    /// surfaces its error instead.
    pub fn search_uncached(&self, query: &str, k: usize) -> Vec<QunitResult> {
        match self.try_search_uncached(query, k) {
            Ok(results) => results,
            Err(_) => {
                self.obs.degraded_to_empty.incr();
                Vec::new()
            }
        }
    }

    /// Fallible uncached search: the full pipeline and no cache probe.
    pub fn try_search_uncached(&self, query: &str, k: usize) -> SearchResult<Vec<QunitResult>> {
        self.obs.queries.incr();
        let started = Instant::now();
        let out = with_query(query, |qs| self.search_uncached_guarded(k, qs));
        self.obs.latency.record(started.elapsed().as_nanos() as u64);
        out
    }

    /// [`QunitSearchEngine::search_uncached_inner`] behind the query-level
    /// panic boundary. The shard fan-out already contains panics inside
    /// its tasks; this outer catch covers the rest of the pipeline (the
    /// segmenter, the exact-anchor rescore, result materialization), so
    /// *no* panic on any query path unwinds into the caller — it becomes
    /// [`SearchError::Internal`] and the engine keeps serving. Scratch is
    /// epoch-guarded, so nothing leaks on the unwind path.
    fn search_uncached_guarded(
        &self,
        k: usize,
        qs: &mut QueryScratch,
    ) -> SearchResult<Vec<QunitResult>> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.search_uncached_inner(k, qs)
        })) {
            Ok(out) => out,
            Err(payload) => {
                self.obs.internal_errors.incr();
                self.obs.panics_contained.incr();
                Err(SearchError::Internal {
                    site: irengine::TaskPanic { payload }.message(),
                })
            }
        }
    }

    /// The uncached pipeline with explicit working buffers (`qs`, the query
    /// already tokenized into them by [`with_query`]; it never tokenizes
    /// again) — the one body behind every search entry point.
    fn search_uncached_inner(
        &self,
        k: usize,
        qs: &mut QueryScratch,
    ) -> SearchResult<Vec<QunitResult>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let seg = self.segmenter.segment_normal(&qs.norm);
        self.plan(&seg, k, &mut qs.plan);
        let hits = self.candidates(&qs.plan, &qs.norm)?;
        Ok(self.rescore(&qs.plan, &hits, k, &mut qs.scored, &mut qs.render))
    }

    /// Identify the qunit type of a segmented query and decide into `plan`
    /// everything its ranking needs: every definition's [`DefFactors`], the
    /// [`Route`], the fetch depth and the anchored documents. Reads the
    /// catalog metadata, the config weights, the feedback store and the
    /// anchor table — never the index.
    fn plan(&self, seg: &SegmentedQuery, k: usize, plan: &mut QueryPlan) {
        self.type_scores_into(seg, &mut plan.type_scores);
        let type_scores = &plan.type_scores;

        // Everything the rescoring loop multiplies in that depends on the
        // definition alone. The store is read once, under one lock, so the
        // default definition below and every hit's factor see the same
        // clicks.
        let config = &self.config;
        if config.feedback_weight == 0.0 {
            plan.boosts.clear();
            plan.boosts.resize(self.def_meta.len(), 0.0);
        } else {
            let names = self.def_meta.iter().map(|m| m.name.as_str());
            self.feedback
                .boosts_into(&seg.template_signature(), names, &mut plan.boosts);
        }
        let boosts = &plan.boosts;
        plan.factors.clear();
        plan.factors.extend(
            type_scores
                .iter()
                .zip(boosts)
                .map(|(&ts, &boost)| DefFactors {
                    type_score: ts,
                    type_factor: 1.0 + config.type_weight * ts,
                    feedback_factor: if config.feedback_weight > 0.0 {
                        1.0 + config.feedback_weight * boost
                    } else {
                        1.0
                    },
                }),
        );

        // Underspecified query (entity, no residual): its default answer is
        // the most *salient* qunit of that entity type — "the qunit
        // definition for an under-specified query is an aggregation of ...
        // its specializations" (§4.2). Salience is the derivation-assigned
        // utility plus accumulated click feedback for this query shape, so
        // user behaviour can move the default over time.
        let salience = |m: &DefMeta| m.utility + config.feedback_weight * boosts[m.id.index()];
        let typed = seg.entity_texts().next().is_some();
        let default_def: Option<DefId> = if typed && seg.residual().next().is_none() {
            self.def_meta
                .iter()
                .filter(|m| {
                    m.anchor_qualified
                        .as_ref()
                        .is_some_and(|a| seg.segments.iter().any(|s| s.is_entity_of(a)))
                })
                .max_by(|a, b| {
                    salience(a)
                        .partial_cmp(&salience(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.name.cmp(&a.name))
                })
                .map(|m| m.id)
        } else {
            None
        };
        // Otherwise, definitions whose anchor AND intent both align.
        let best_ts = type_scores.iter().copied().fold(0.0, f64::max);
        plan.typed.clear();
        plan.typed
            .extend(type_scores.iter().map(|&ts| ts >= best_ts - 0.25));
        plan.route = match default_def {
            Some(d) => Route::Default(d),
            None if best_ts >= 1.5 => Route::Typed,
            None => Route::Open,
        };
        plan.fetch = k.saturating_mul(10).max(50);
        plan.anchored.clear();
        let anchored = seg.entity_texts().flat_map(|t| self.anchors.docs_of(t));
        plan.anchored.extend(anchored);
        plan.anchored.sort_unstable();
        plan.anchored.dedup();
    }

    /// Run a plan: rank the documents its route admits with IR, rank every
    /// document instead when the route admits none that match (a movie with
    /// no soundtrack asked for its ost), then add the anchored documents the
    /// route admits and the fetch cutoff missed.
    fn candidates(&self, plan: &QueryPlan, norm: &NormalForm) -> SearchResult<Vec<Hit>> {
        // Intra-query parallelism: every ranking pass below fans across
        // the index shards — inline or on the persistent executor per the
        // inline threshold — scored with corpus-global stats and merged
        // deterministically, so results are identical at any shard count,
        // pool size, or threshold. Per-shard scoring time lands in the
        // atomic shard counters.
        let searcher = ShardedSearcher::new(&self.index, self.config.scoring);
        // The IR terms: the query's tokens the analyzer keeps, borrowed.
        let analyzer = self.index.analyzer();
        let terms: Vec<&str> = norm.tokens().filter(|t| analyzer.keeps(t)).collect();
        // Folded once: both fan-outs and the injection below read it.
        let folded = searcher.fold(&terms);
        let ctx = SearchContext {
            pool: Some(&self.scratch_pool),
            exec: Some(&self.exec),
            timings: Some(&self.shard_timings),
            policy: DispatchPolicy::adaptive(self.config.inline_postings_threshold),
            decisions: Some(&self.dispatch_counts),
            tier: self.config.kernel,
        };
        // A shard panic the fan-out contained surfaces as `Internal`,
        // counting every shard that panicked — the chaos suite balances
        // `panics_contained` against the fault registry's fired count
        // exactly. The error lands before the caller's cache insert — a
        // failed query is never cached.
        let rank_trip = |f: SearchFailure| match f {
            SearchFailure::Panicked { message, shards } => {
                self.obs.internal_errors.incr();
                self.obs.panics_contained.add(shards as u64);
                SearchError::Internal { site: message }
            }
        };
        let fan_out = |filter: Option<&(dyn Fn(DocId) -> bool + Sync)>| {
            self.sharded_searches.fetch_add(1, Ordering::Relaxed);
            searcher
                .try_search_folded(&folded, plan.fetch, filter, &ctx)
                .map(|outcome| outcome.hits)
                .map_err(rank_trip)
        };
        let typed = plan.route != Route::Open;
        if typed {
            self.obs.typed_queries.incr();
        }
        let admits = |doc| plan.admits(&self.doc_def, doc);
        let mut hits = fan_out(typed.then_some(&admits))?;
        if typed && hits.is_empty() {
            self.obs.typed_fallbacks.incr();
            hits = fan_out(None)?;
        }

        // Exact-anchor injection: an anchored document the planned route
        // admits — a fallback does not widen it — is a candidate even below
        // the fetch cutoff (a star's filmography document is long, scores
        // low, and would otherwise vanish behind 50 short near-misses).
        let mut buf = PostingsBuf::new();
        for &doc in &plan.anchored {
            if admits(doc) && !hits.iter().any(|h| h.doc == doc) {
                let scored = searcher.score_doc(&folded, doc, &mut buf);
                if scored.score > 0.0 {
                    hits.push(scored);
                }
            }
        }
        Ok(hits)
    }

    /// The second half: multiply each candidate's IR score by its type,
    /// exact-anchor, default-definition and feedback factors — in that
    /// order, which the score's bits depend on — and build results for the
    /// best `k`. Per candidate that is array reads by doc id and by
    /// [`DefId`] and a binary search of the plan's anchored documents; keys
    /// are compared only to break score ties. Only the `k` results own
    /// anything: a key, and their page, rendered in `render`.
    fn rescore(
        &self,
        plan: &QueryPlan,
        hits: &[Hit],
        k: usize,
        scored: &mut Vec<Scored>,
        render: &mut RenderBuf,
    ) -> Vec<QunitResult> {
        let anchor_factor = 1.0 + self.config.anchor_exact_bonus;
        let default_factor = 1.0 + self.config.default_def_bonus;
        scored.clear();
        scored.extend(hits.iter().map(|h| {
            let def = self.doc_def.def_of(h.doc);
            let of_def = def.map_or(&DefFactors::NO_DEF, |d| &plan.factors[d.index()]);
            let mut score = h.score * of_def.type_factor;
            if plan.anchored.binary_search(&h.doc).is_ok() {
                score *= anchor_factor;
            }
            if matches!(plan.route, Route::Default(d) if def == Some(d)) {
                score *= default_factor;
            }
            score *= of_def.feedback_factor;
            Scored {
                score,
                ir_score: h.score,
                type_score: of_def.type_score,
                doc: h.doc,
            }
        }));
        // Best score first, then by key; two documents under one key, by
        // insertion. A total order, so selecting the best k and sorting only
        // those is the full sort's prefix.
        let key = |s: &Scored| self.index.external_id(s.doc).unwrap_or_default();
        let by_rank = |a: &Scored, b: &Scored| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| key(a).cmp(key(b)))
                .then(a.doc.cmp(&b.doc))
        };
        if scored.len() > k {
            scored.select_nth_unstable_by(k, by_rank);
            scored.truncate(k);
        }
        scored.sort_unstable_by(by_rank);
        scored
            .iter()
            .map(|s| {
                let instance = self.page(s.doc, render);
                QunitResult {
                    key: instance.key.clone(),
                    score: s.score,
                    ir_score: s.ir_score,
                    type_score: s.type_score,
                    instance,
                }
            })
            .collect()
    }

    /// Convenience: the single best result.
    pub fn top(&self, query: &str) -> Option<QunitResult> {
        self.search(query, 1).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::manual::expert_imdb_qunits;
    use crate::materialize::materialize_all;
    use datagen::imdb::{ImdbConfig, ImdbData};
    use datagen::querylog::{QueryLog, QueryLogConfig};
    use relstore::Value;

    fn engine() -> (ImdbData, QunitSearchEngine) {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let catalog = expert_imdb_qunits(&data.db).unwrap();
        let engine = QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).unwrap();
        (data, engine)
    }

    #[test]
    fn builds_instances_for_every_definition() {
        let (data, engine) = engine();
        assert!(engine.num_instances() > data.movies.len());
        // the engine indexes exactly the instances each definition
        // materializes — no definition dropped, none double-counted
        for def in engine.catalog().iter() {
            let expected = materialize_all(&data.db, def).unwrap().len();
            let indexed = engine
                .instances()
                .filter(|i| i.definition == def.name)
                .count();
            assert_eq!(indexed, expected, "instance count for {}", def.name);
            assert!(expected > 0, "{} materialized nothing", def.name);
        }
        // every movie with cast gets a movie_cast instance
        let cast_def = engine.catalog().get("movie_cast").unwrap();
        let cast_instances = materialize_all(&data.db, cast_def).unwrap().len();
        assert!(cast_instances > 0);
        assert!(cast_instances <= data.movies.len());
    }

    #[test]
    fn star_wars_cast_pipeline() {
        // The paper's running example: "<movie> cast" must return the cast
        // qunit instance of that movie.
        let (data, engine) = engine();
        // pick a movie guaranteed to have cast
        let movie = &data.movies[0];
        let q = format!("{} cast", movie.title);
        let top = engine.top(&q).expect("result expected");
        assert_eq!(top.definition, "movie_cast", "query {q} → {top:?}");
        assert_eq!(top.anchor_text().as_deref(), Some(movie.title.as_str()));
        assert!(top.type_score > 0.0);
    }

    #[test]
    fn filmography_query_routes_to_person_qunits() {
        let (data, engine) = engine();
        let person = &data.people[0];
        let q = format!("{} movies", person.name);
        let top = engine.top(&q).expect("result expected");
        assert!(
            top.definition == "person_filmography" || top.definition == "person_page",
            "{q} → {}",
            top.definition
        );
        assert_eq!(top.anchor_text().as_deref(), Some(person.name.as_str()));
    }

    #[test]
    fn single_entity_movie_query_prefers_movie_page() {
        let (data, engine) = engine();
        let movie = &data.movies[1];
        let top = engine.top(&movie.title).expect("result expected");
        assert_eq!(top.anchor_text().as_deref(), Some(movie.title.as_str()));
        // underspecified single-entity queries roll up to the summary page
        assert!(
            top.definition.starts_with("movie"),
            "expected a movie qunit, got {}",
            top.definition
        );
    }

    #[test]
    fn soundtrack_intent_wins_over_summary() {
        let (data, engine) = engine();
        // find a movie that actually has a soundtrack instance
        let st_movie = data.movies.iter().find(|m| {
            engine
                .instance(&format!("movie_soundtrack::{}", m.title))
                .is_some()
        });
        if let Some(m) = st_movie {
            let q = format!("{} ost", m.title);
            let top = engine.top(&q).unwrap();
            assert_eq!(top.definition, "movie_soundtrack", "{q}");
        }
    }

    #[test]
    fn charts_query_hits_singleton() {
        let (_, engine) = engine();
        let results = engine.search("best rated charts", 5);
        assert!(!results.is_empty());
        assert_eq!(results[0].definition, "top_charts");
    }

    #[test]
    fn k_limits_results_and_scores_sorted() {
        let (data, engine) = engine();
        let q = data.movies[0].title.to_string();
        let r = engine.search(&q, 3);
        assert!(r.len() <= 3);
        assert!(r.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(engine.search(&q, 0).is_empty());
    }

    #[test]
    fn nonsense_query_returns_nothing() {
        let (_, engine) = engine();
        assert!(engine.search("zzzz qqqq xxxx", 10).is_empty());
    }

    #[test]
    fn results_offer_query_biased_snippets() {
        let (data, engine) = engine();
        let q = format!("{} cast", data.movies[0].title);
        let top = engine.top(&q).unwrap();
        let snip = top.snippet(&q, 8).expect("snippet");
        // the anchor words must be highlighted in the snippet
        let first_word = data.movies[0].title.split(' ').next().unwrap();
        assert!(snip.contains(&format!("[{first_word}]")), "{snip}");
    }

    #[test]
    fn type_scores_favor_matching_anchor() {
        let (data, engine) = engine();
        let q = format!("{} cast", data.movies[0].title);
        let ts = engine.type_scores(&q);
        assert!(ts["movie_cast"] > ts["person_page"], "{ts:?}");
        assert!(ts["movie_cast"] > ts["top_charts"], "{ts:?}");
    }

    #[test]
    fn any_shard_count_returns_identical_results() {
        let (data, _) = engine();
        let catalog = || expert_imdb_qunits(&data.db).unwrap();
        let build = |search_shards| {
            QunitSearchEngine::build(
                &data.db,
                catalog(),
                EngineConfig {
                    search_shards,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        let one = build(1);
        assert_eq!(one.num_shards(), 1);
        let queries: Vec<String> = data
            .movies
            .iter()
            .take(4)
            .map(|m| format!("{} cast", m.title))
            .chain([data.people[0].name.clone(), "best rated charts".into()])
            .collect();
        for shards in [2usize, 3, 8] {
            let sharded = build(shards);
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(sharded.index_fingerprint(), one.index_fingerprint());
            // partitioning moves postings between shards, never drops any
            assert_eq!(sharded.num_postings(), one.num_postings());
            for q in &queries {
                assert_eq!(
                    sharded.search_uncached(q, 10),
                    one.search_uncached(q, 10),
                    "{shards} shards diverged on {q}"
                );
            }
        }
    }

    #[test]
    fn compressed_postings_return_identical_results() {
        let (data, plain) = engine();
        assert_eq!(plain.index.postings_codec(), irengine::PostingsCodec::Flat);
        let packed = QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).unwrap(),
            EngineConfig {
                compress_postings: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            packed.index.postings_codec(),
            irengine::PostingsCodec::DeltaVarint
        );
        // compression is a physical re-encoding: logical content, posting
        // counts, and every ranked list stay bit-identical
        assert_eq!(packed.index_fingerprint(), plain.index_fingerprint());
        assert_eq!(packed.num_postings(), plain.num_postings());
        assert!(packed.posting_store_bytes() > 0);
        let queries: Vec<String> = data
            .movies
            .iter()
            .take(4)
            .map(|m| format!("{} cast", m.title))
            .chain([data.people[0].name.clone(), "best rated charts".into()])
            .collect();
        for q in &queries {
            assert_eq!(
                packed.search_uncached(q, 10),
                plain.search_uncached(q, 10),
                "compressed engine diverged on {q}"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_serves_identical_results() {
        let path = std::env::temp_dir().join(format!(
            "qunits-engine-snap-round-trip-{}.qx",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (data, _) = engine();
        let config = || EngineConfig {
            snapshot_path: Some(path.clone()),
            search_shards: 3,
            ..EngineConfig::default()
        };
        // first build finds no snapshot, builds fresh, and saves one
        let fresh =
            QunitSearchEngine::build(&data.db, expert_imdb_qunits(&data.db).unwrap(), config())
                .unwrap();
        assert!(path.exists(), "fresh build must write {}", path.display());
        // second build loads the snapshot instead of rebuilding
        let loaded =
            QunitSearchEngine::build(&data.db, expert_imdb_qunits(&data.db).unwrap(), config())
                .unwrap();
        assert_eq!(loaded.index_fingerprint(), fresh.index_fingerprint());
        assert_eq!(loaded.num_postings(), fresh.num_postings());
        assert_eq!(loaded.num_shards(), fresh.num_shards());
        assert_eq!(loaded.doc_def, fresh.doc_def);
        let queries: Vec<String> = data
            .movies
            .iter()
            .take(4)
            .map(|m| format!("{} cast", m.title))
            .chain([data.people[0].name.clone(), "best rated charts".into()])
            .collect();
        for q in &queries {
            assert_eq!(
                loaded.search_uncached(q, 10),
                fresh.search_uncached(q, 10),
                "snapshot-loaded engine diverged on {q}"
            );
        }
        // a shard-count mismatch makes the snapshot stale: the build must
        // fall back to a fresh build (and refresh the file), not fail
        let resharded = QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).unwrap(),
            EngineConfig {
                snapshot_path: Some(path.clone()),
                search_shards: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(resharded.num_shards(), 2);
        assert_eq!(resharded.index_fingerprint(), fresh.index_fingerprint());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_snapshot_of_other_documents_is_quarantined_even_at_equal_counts() {
        let (data, _) = engine();
        let expert = || expert_imdb_qunits(&data.db).unwrap();
        // The same instances under other keys, and the same keys in another
        // order: both as many documents, shards and postings blocks as the
        // snapshot holds.
        let mut renamed = QunitCatalog::new();
        for def in expert().iter() {
            let mut def = def.clone();
            if def.name == "movie_cast" {
                def.name = "movie_crew".into();
            }
            renamed.add(def);
        }
        let mut reordered = QunitCatalog::new();
        let defs: Vec<QunitDefinition> = expert().iter().cloned().collect();
        for def in defs.into_iter().rev() {
            reordered.add(def);
        }
        let queries: Vec<String> = data
            .movies
            .iter()
            .take(4)
            .flat_map(|m| [format!("{} cast", m.title), m.title.clone()])
            .chain([data.people[0].name.clone(), "best rated charts".into()])
            .collect();
        for (name, stale_for) in [("renamed", renamed), ("reordered", reordered)] {
            let path = std::env::temp_dir().join(format!(
                "qunits-engine-snap-stale-{name}-{}.qx",
                std::process::id()
            ));
            let mut quarantined = path.clone().into_os_string();
            quarantined.push(".corrupt");
            let quarantined = PathBuf::from(quarantined);
            for file in [&path, &quarantined] {
                let _ = std::fs::remove_file(file);
            }
            let config = |snapshot_path| EngineConfig {
                snapshot_path,
                search_shards: 2,
                ..EngineConfig::default()
            };
            let saved =
                QunitSearchEngine::build(&data.db, expert(), config(Some(path.clone()))).unwrap();
            assert!(path.exists());

            let restarted =
                QunitSearchEngine::build(&data.db, stale_for.clone(), config(Some(path.clone())))
                    .unwrap();
            assert_eq!(restarted.num_instances(), saved.num_instances(), "{name}");
            assert!(!restarted.build_timings().from_snapshot, "{name}");
            assert!(quarantined.exists(), "{name}: the stale file is kept aside");
            let cold = QunitSearchEngine::build(&data.db, stale_for, config(None)).unwrap();
            assert_eq!(restarted.index_fingerprint(), cold.index_fingerprint());
            assert_eq!(restarted.doc_def, cold.doc_def, "{name}");
            for q in &queries {
                let answer = restarted.search_uncached(q, 10);
                assert_eq!(answer, cold.search_uncached(q, 10), "{name}: {q}");
                for r in &answer {
                    assert_eq!(r.key, r.instance.key, "{name}: {q}");
                }
            }
            // the rebuild saved its own snapshot over the path: the next
            // restart takes it
            let again = QunitSearchEngine::build(
                &data.db,
                cold.catalog().clone(),
                config(Some(path.clone())),
            )
            .unwrap();
            assert!(again.build_timings().from_snapshot, "{name}");
            for file in [&path, &quarantined] {
                let _ = std::fs::remove_file(file);
            }
        }
    }

    #[test]
    fn two_documents_under_one_key_each_answer_with_their_own_instance() {
        use crate::presentation::ConversionExpr;
        use crate::qunit::{AnchorSpec, DerivationSource};
        use relstore::{ColumnDef, DataType, Predicate, QueryBuilder, TableSchema, View};

        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("movie")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("title", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        db.insert("movie", vec![1.into(), "b::x".into()]).unwrap();
        db.insert("movie", vec![2.into(), "x".into()]).unwrap();
        // One page per title under each of two names: definition `a` keys
        // the title `b::x` exactly as definition `a::b` keys the title `x`.
        let page = |name: &str, intent: &[&str], utility: f64| {
            let b = QueryBuilder::new(&db).table("movie").unwrap();
            let title = b.col(0, "title").unwrap();
            QunitDefinition {
                name: name.into(),
                base: View::new(name, b.filter(Predicate::eq_param(title, "x")).build()),
                conversion: ConversionExpr::flat(name),
                anchor: Some(AnchorSpec {
                    table: "movie".into(),
                    column: "title".into(),
                    param: "x".into(),
                }),
                intent_terms: intent.iter().map(|t| t.to_string()).collect(),
                covered_fields: vec!["movie.title".into()],
                utility,
                provenance: DerivationSource::Manual,
            }
        };
        let mut catalog = QunitCatalog::new();
        catalog.add(page("a", &[], 2.0));
        catalog.add(page("a::b", &["cast"], 1.0));
        let config = EngineConfig {
            entity_specs: Some(vec![("movie".into(), "title".into())]),
            search_shards: 2,
            ..EngineConfig::default()
        };
        let e = QunitSearchEngine::build(&Arc::new(db), catalog, config).unwrap();

        let pages: Vec<Arc<QunitInstance>> = e.instances().collect();
        let keys: Vec<&str> = pages.iter().map(|i| i.key.as_str()).collect();
        assert_eq!(keys, ["a::b::x", "a::x", "a::b::b::x", "a::b::x"]);
        assert_eq!(e.num_instances(), 4, "every document, not every key");
        // by key: the first-inserted, as the index resolves it
        let first = e.instance("a::b::x").unwrap();
        assert_eq!(first, pages[0]);
        assert_eq!(first.definition, "a");

        // An underspecified query defaults to `a`, the more useful page,
        // and its document 0 answers as `a`'s page of `b::x` — not as the
        // page of `x` that `a::b` stored later under the same key.
        let of_a = e.search_uncached("b x", 10);
        let hit = of_a
            .iter()
            .find(|r| r.key == "a::b::x")
            .expect("document 0");
        assert_eq!(hit.definition, "a");
        assert_eq!(hit.anchor_text().as_deref(), Some("b::x"));
        assert_eq!(hit.instance, pages[0]);
        // The intent term types the query to `a::b`, whose document 3
        // carries the same key and its own page.
        let of_ab = e.search_uncached("x cast", 10);
        assert_eq!(of_ab[0].key, "a::b::x");
        assert_eq!(of_ab[0].definition, "a::b");
        assert_eq!(of_ab[0].anchor_text().as_deref(), Some("x"));
        assert_eq!(of_ab[0].instance, pages[3]);
        for r in of_a.iter().chain(&of_ab) {
            assert_eq!(r.key, r.instance.key);
        }
    }

    /// What the rescoring oracle reads of each document's instance, by doc
    /// id: its anchor and its definition's name.
    struct DocFacts {
        anchor: Option<Value>,
        definition: String,
    }

    impl QunitSearchEngine {
        /// Rescoring as it was while instances lived in a map by key, kept
        /// as [`QunitSearchEngine::rescore`]'s oracle: every hit resolved
        /// through its external id to its instance's `facts`, its anchor
        /// text built to be compared, its feedback boost read from the store
        /// by signature and definition name, and the whole list sorted by
        /// score then key.
        fn rescore_reference(
            &self,
            seg: &SegmentedQuery,
            plan: &QueryPlan,
            found: &[Hit],
            k: usize,
            facts: &[DocFacts],
        ) -> Vec<QunitResult> {
            let default_def = match plan.route {
                Route::Default(d) => Some(d),
                _ => None,
            };
            let seg_signature = seg.template_signature();
            let entity_texts: Vec<String> = seg
                .segments
                .iter()
                .filter_map(|s| match s {
                    crate::segment::Segment::Entity { text, .. } => Some(text.clone()),
                    _ => None,
                })
                .collect();
            struct Scored<'e> {
                score: f64,
                ir_score: f64,
                type_score: f64,
                key: &'e str,
                doc: DocId,
            }
            let mut scored: Vec<Scored> = found
                .iter()
                .filter_map(|h| {
                    let key = self.index.external_id(h.doc)?;
                    let doc = self.index.doc_for_external(key)?;
                    let inst = &facts[doc as usize];
                    let def = self.doc_def.def_of(h.doc);
                    let ts = def.map_or(0.0, |d| plan.factors[d.index()].type_score);
                    let mut score = h.score * (1.0 + self.config.type_weight * ts);
                    if let Some(anchor) = inst.anchor.as_ref().map(Value::display_plain) {
                        if entity_texts.iter().any(|t| t.eq_ignore_ascii_case(&anchor)) {
                            score *= 1.0 + self.config.anchor_exact_bonus;
                        }
                    }
                    if default_def.is_some() && default_def == def {
                        score *= 1.0 + self.config.default_def_bonus;
                    }
                    if self.config.feedback_weight > 0.0 {
                        let fb = self.feedback.boost(&seg_signature, &inst.definition);
                        score *= 1.0 + self.config.feedback_weight * fb;
                    }
                    Some(Scored {
                        score,
                        ir_score: h.score,
                        type_score: ts,
                        key,
                        doc,
                    })
                })
                .collect();
            scored.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.key.cmp(b.key))
            });
            scored.truncate(k);
            scored
                .into_iter()
                .map(|s| QunitResult {
                    key: s.key.to_string(),
                    score: s.score,
                    ir_score: s.ir_score,
                    type_score: s.type_score,
                    instance: self.page(s.doc, &mut RenderBuf::default()),
                })
                .collect()
        }
    }

    /// How often the log exercised each case the rescoring property is
    /// stated over.
    #[derive(Debug, Default)]
    struct RescoreCoverage {
        compared: usize,
        /// More candidates than `k`: the top k were selected.
        truncated: usize,
        /// Fewer candidates than `k`.
        short: usize,
        /// A candidate whose anchor matches an entity only up to ASCII case.
        case_folded_anchor: usize,
        /// A candidate of no definition.
        no_definition: usize,
        /// The query had a default definition.
        default_definition: usize,
        /// A candidate whose definition carried a feedback boost.
        boosted: usize,
        /// Two neighbours in the answer tied on score: the key decided.
        score_ties: usize,
    }

    #[test]
    fn rescoring_by_doc_id_equals_the_reference() {
        let data = ImdbData::generate(ImdbConfig {
            n_people: 400,
            n_movies: 200,
            ..ImdbConfig::default()
        });
        let log = QueryLog::generate(&data, QueryLogConfig::tiny());
        let queries: Vec<String> = log.unique_queries().into_iter().map(|(q, _)| q).collect();
        assert!(queries.len() > 200, "{} distinct queries", queries.len());
        let mut seen = RescoreCoverage::default();
        for feedback_weight in [0.0, EngineConfig::default().feedback_weight] {
            let config = EngineConfig {
                feedback_weight,
                search_shards: 2,
                ..EngineConfig::default()
            };
            let mut e =
                QunitSearchEngine::build(&data.db, expert_imdb_qunits(&data.db).unwrap(), config)
                    .unwrap();
            // States no build produces, which rescoring must still agree
            // on: every third text anchor in upper case (in the anchor table
            // too), and every seventh document owned by no definition of the
            // catalog.
            let owners: Vec<Option<DefId>> = (0..e.num_instances() as DocId)
                .map(|doc| e.doc_def.def_of(doc).filter(|_| doc % 7 != 0))
                .collect();
            e.doc_def = DocDefLane::build(owners);
            let facts: Vec<DocFacts> = e
                .instances()
                .enumerate()
                .map(|(doc, inst)| {
                    let mut anchor = inst.anchor_value.clone();
                    if let (0, Some(Value::Text(text))) = (doc % 3, &mut anchor) {
                        text.make_ascii_uppercase();
                    }
                    let definition = match doc % 7 {
                        0 => "of_no_catalog".into(),
                        _ => inst.definition.clone(),
                    };
                    DocFacts { anchor, definition }
                })
                .collect();
            e.anchors = AnchorDocs::build(facts.iter().map(|f| f.anchor.as_ref()));
            let definition_of = |r: &QunitResult| {
                let doc = e
                    .index
                    .doc_for_external(&r.key)
                    .expect("a result's key resolves");
                facts[doc as usize].definition.as_str()
            };

            let mut clicks = 0;
            for clicks_wanted in [0, 3, 50] {
                // Clicks go straight to the store, so that a weight of zero
                // is held to ignoring a store that is not empty.
                for (i, q) in queries.iter().cycle().enumerate() {
                    if clicks == clicks_wanted {
                        break;
                    }
                    let answer = e.search_uncached(q, 10);
                    let mut pick = answer.iter().cycle().skip(i).take(answer.len());
                    if let Some(r) = pick.find(|r| definition_of(r) != "of_no_catalog") {
                        let signature = e.segmenter.segment(q).template_signature();
                        e.feedback.record(&signature, definition_of(r));
                        clicks += 1;
                    }
                }
                assert_eq!(e.feedback.generation(), clicks_wanted);
                for k in [1, 10, 200] {
                    for q in &queries {
                        compare_rescoring(&e, q, k, &facts, &mut seen);
                    }
                }
            }
        }
        assert_eq!(seen.compared, queries.len() * 2 * 3 * 3);
        for (case, times) in [
            ("truncated", seen.truncated),
            ("short", seen.short),
            ("case-folded anchor", seen.case_folded_anchor),
            ("no definition", seen.no_definition),
            ("default definition", seen.default_definition),
            ("boosted", seen.boosted),
            ("score ties", seen.score_ties),
        ] {
            assert!(times > 20, "{case}: exercised {times} times — {seen:?}");
        }
    }

    /// One query's candidates rescored both ways, and held equal.
    fn compare_rescoring(
        e: &QunitSearchEngine,
        q: &str,
        k: usize,
        facts: &[DocFacts],
        seen: &mut RescoreCoverage,
    ) {
        let mut qs = QueryScratch::default();
        qs.norm.fill(q);
        let seg = e.segmenter.segment_normal(&qs.norm);
        e.plan(&seg, k, &mut qs.plan);
        let plan = &qs.plan;
        let found = e.candidates(plan, &qs.norm).unwrap();
        let new = e.rescore(plan, &found, k, &mut qs.scored, &mut qs.render);
        let old = e.rescore_reference(&seg, plan, &found, k, facts);
        let bits = |r: &QunitResult| {
            (
                r.key.clone(),
                r.score.to_bits(),
                r.ir_score.to_bits(),
                r.type_score.to_bits(),
            )
        };
        assert_eq!(
            new.iter().map(bits).collect::<Vec<_>>(),
            old.iter().map(bits).collect::<Vec<_>>(),
            "{q:?} at k = {k}"
        );
        for (n, o) in new.iter().zip(&old) {
            assert_eq!(n.instance, o.instance, "{q:?}: {}", n.key);
        }

        seen.compared += 1;
        seen.truncated += usize::from(found.len() > k);
        seen.short += usize::from(found.len() < k);
        seen.default_definition += usize::from(matches!(plan.route, Route::Default(_)));
        seen.score_ties += usize::from(new.windows(2).any(|w| w[0].score == w[1].score));
        seen.case_folded_anchor += usize::from(found.iter().any(|h| {
            let anchor = facts[h.doc as usize].anchor.as_ref();
            let anchor = anchor.map(Value::display_plain).unwrap_or_default();
            seg.entity_texts()
                .any(|t| t != anchor && t.eq_ignore_ascii_case(&anchor))
        }));
        let owner = |h: &Hit| e.doc_def.def_of(h.doc);
        seen.no_definition += usize::from(found.iter().any(|h| owner(h).is_none()));
        seen.boosted += usize::from(
            found
                .iter()
                .any(|h| owner(h).is_some_and(|d| plan.factors[d.index()].feedback_factor > 1.0)),
        );
    }

    #[test]
    fn shard_stats_accumulate_per_uncached_search() {
        let (data, _) = engine();
        let e = QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).unwrap(),
            EngineConfig {
                search_shards: 4,
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(e.shard_stats().searches, 0);
        assert_eq!(e.shard_stats().per_shard_nanos.len(), 4);
        e.search(&format!("{} cast", data.movies[0].title), 5);
        let s = e.shard_stats();
        assert!(s.searches >= 1, "{s:?}");
        // nonsense queries never reach the shards (no terms after analysis
        // still fan out, but a zero-k search short-circuits)
        e.search("star", 0);
        assert_eq!(e.shard_stats().searches, s.searches);
    }

    /// The resolution the lane replaced, kept as the oracle: external id →
    /// instance → definition name, compared against the preferred names.
    fn resolves_to_preferred(e: &QunitSearchEngine, preferred: &[&str], doc: DocId) -> bool {
        e.index
            .external_id(doc)
            .and_then(|key| e.instance(key))
            .map(|inst| preferred.iter().any(|d| *d == inst.definition))
            .unwrap_or(false)
    }

    #[test]
    fn lane_filter_equals_name_resolution_for_every_doc_and_subset() {
        let (data, _) = engine();
        for search_shards in [1usize, 3] {
            let e = QunitSearchEngine::build(
                &data.db,
                expert_imdb_qunits(&data.db).unwrap(),
                EngineConfig {
                    search_shards,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let names: Vec<&str> = e.def_meta.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(e.doc_def.len(), e.index.num_docs());
            let last = e.index.num_docs() as DocId + 8;
            // every definition alone, none, all, and a seeded walk over
            // the subsets in between
            let mut masks: Vec<u64> = (0..names.len()).map(|i| 1 << i).collect();
            masks.extend([0, u64::MAX]);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..24 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                masks.push(state >> 20);
            }
            for mask in masks {
                let allowed: Vec<bool> = (0..names.len()).map(|i| mask >> i & 1 == 1).collect();
                let preferred: Vec<&str> = names
                    .iter()
                    .zip(&allowed)
                    .filter_map(|(n, &on)| on.then_some(*n))
                    .collect();
                for doc in 0..last {
                    assert_eq!(
                        e.doc_def.accepts(&allowed, doc),
                        resolves_to_preferred(&e, &preferred, doc),
                        "doc {doc}, preferred {preferred:?}, {search_shards} shard(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn typed_query_without_an_instance_falls_back_and_counts_both_fan_outs() {
        // No movie has a soundtrack, so "<movie> ost" identifies a type
        // with nothing to rank and must answer from the unrestricted pool.
        let mut data = ImdbData::generate(ImdbConfig::tiny());
        let soundtrack = data.db.catalog().table_id("soundtrack").unwrap();
        let db = Arc::get_mut(&mut data.db).expect("not shared yet");
        let table = db.table_mut(soundtrack).unwrap();
        let rows: Vec<_> = table.scan().map(|(id, _)| id).collect();
        for id in rows {
            table.delete(id).unwrap();
        }
        let e = QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).unwrap(),
            EngineConfig {
                search_shards: 2,
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(e.instances().all(|i| i.definition != "movie_soundtrack"));

        let title = &data.movies[0].title;
        let results = e.search(&format!("{title} ost"), 5);
        assert!(!results.is_empty(), "fallback must still answer");
        assert_eq!(results[0].anchor_text().as_deref(), Some(title.as_str()));
        let obs = e.obs_snapshot();
        assert_eq!((obs.typed_queries, obs.typed_fallbacks), (1, 1));
        assert_eq!(e.shard_stats().searches, 2, "restricted pass + rerun");

        // a typed query that finds its instances takes one fan-out…
        e.search(&format!("{title} cast"), 5);
        let obs = e.obs_snapshot();
        assert_eq!((obs.typed_queries, obs.typed_fallbacks), (2, 1));
        assert_eq!(e.shard_stats().searches, 3);
        // …and so does one too vague to type at all
        e.search("wallpaper", 5);
        let obs = e.obs_snapshot();
        assert_eq!((obs.typed_queries, obs.typed_fallbacks), (2, 1));
        assert_eq!(e.shard_stats().searches, 4);
    }

    /// The route of `plan` and the definitions it admits, asked of each
    /// definition's first document: `"open"` when that is every definition.
    fn route_of(e: &QunitSearchEngine, plan: &QueryPlan) -> String {
        let admitted: Vec<&str> = e
            .def_meta
            .iter()
            .filter(|m| {
                let mut docs = 0..e.doc_def.len() as DocId;
                docs.find(|&doc| e.doc_def.def_of(doc) == Some(m.id))
                    .is_some_and(|doc| plan.admits(&e.doc_def, doc))
            })
            .map(|m| m.name.as_str())
            .collect();
        match plan.route {
            Route::Open if admitted.len() == e.def_meta.len() => "open".into(),
            Route::Open => format!("open, yet only {admitted:?}"),
            Route::Default(_) => format!("default {}", admitted.join(" ")),
            Route::Typed => format!("typed {}", admitted.join(" ")),
        }
    }

    #[test]
    fn every_querylog_template_takes_its_pinned_route() {
        let (data, e) = engine();
        let title = &data.movies[0].title;
        let (person, other) = (&data.people[0].name, &data.people[1].name);
        // `exp_querylog`'s 14 most frequent templates, in its order; the
        // routes were recorded from the engine before the plan was a value.
        let table = [
            ("[movie.title]", title.clone(), "default movie_page"),
            ("[person.name]", person.clone(), "default person_page"),
            ("[movie.title] [freetext]", format!("{title} scene"), "open"),
            ("movie [freetext]", "movie premiere".into(), "open"),
            ("[freetext]", "wallpaper".into(), "open"),
            (
                "[movie.title] cast",
                format!("{title} cast"),
                "typed movie_cast",
            ),
            (
                "[person.name] movies",
                format!("{person} movies"),
                "typed person_filmography",
            ),
            (
                "[movie.title] plot",
                format!("{title} plot"),
                "typed movie_plot",
            ),
            (
                "[movie.title] year",
                format!("{title} year"),
                "typed movie_page",
            ),
            (
                "[movie.title] box office",
                format!("{title} box office"),
                "typed movie_boxoffice",
            ),
            (
                "[movie.title] ost",
                format!("{title} ost"),
                "typed movie_soundtrack",
            ),
            (
                "[movie.title] posters",
                format!("{title} posters"),
                "typed movie_posters",
            ),
            (
                "[person.name] [movie.title]",
                format!("{person} {title}"),
                "default movie_page",
            ),
            (
                "[person.name] [person.name]",
                format!("{person} {other}"),
                "default person_page",
            ),
        ];
        let mut plan = QueryPlan::default();
        for (template, query, route) in table {
            let seg = e.segmenter.segment(&query);
            assert_eq!(seg.template_signature(), template, "{query:?}");
            e.plan(&seg, 10, &mut plan);
            assert_eq!(route_of(&e, &plan), route, "{query:?}");
            // the typed counter counts the route
            let before = e.obs_snapshot().typed_queries;
            e.search_uncached(&query, 10);
            let typed = e.obs_snapshot().typed_queries - before;
            assert_eq!(typed, u64::from(plan.route != Route::Open), "{query:?}");
        }
    }

    #[test]
    fn a_fallback_injects_only_what_the_planned_route_admits() {
        // No movie has a soundtrack: "<movie> ost" plans the typed route to
        // `movie_soundtrack`, whose pass finds nothing and falls back.
        let mut data = ImdbData::generate(ImdbConfig::tiny());
        let soundtrack = data.db.catalog().table_id("soundtrack").unwrap();
        let db = Arc::get_mut(&mut data.db).expect("not shared yet");
        let table = db.table_mut(soundtrack).unwrap();
        let rows: Vec<_> = table.scan().map(|(id, _)| id).collect();
        for id in rows {
            table.delete(id).unwrap();
        }
        let e = QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).unwrap(),
            EngineConfig::default(),
        )
        .unwrap();
        let query = format!("{} ost", data.movies[0].title);
        let mut qs = QueryScratch::default();
        qs.norm.fill(&query);
        e.plan(&e.segmenter.segment(&query), 5, &mut qs.plan);
        let plan = &qs.plan;
        assert_eq!(plan.route, Route::Typed);
        let routed = e.def_meta.iter().filter(|m| plan.typed[m.id.index()]);
        let routed: Vec<&str> = routed.map(|m| m.name.as_str()).collect();
        assert_eq!(routed, ["movie_soundtrack"]);
        // The title's other pages are anchored, and the open pass may rank
        // them, but the planned route admits none of them…
        assert!(plan.anchored.len() > 3, "{:?}", plan.anchored);
        assert!(plan
            .anchored
            .iter()
            .all(|&doc| !plan.admits(&e.doc_def, doc)));
        let found = e.candidates(plan, &qs.norm).unwrap();
        // …so the candidates are the open pass's hits and nothing more.
        let terms = e.index.analyzer().tokenize(&query);
        let open = ShardedSearcher::new(&e.index, e.config.scoring)
            .try_search_terms_where_ctx(&terms, plan.fetch, None, &SearchContext::default())
            .unwrap()
            .hits;
        assert!(!open.is_empty());
        assert_eq!(found, open);
        assert_eq!(e.obs_snapshot().typed_fallbacks, 1);
    }

    #[test]
    fn a_capitalised_anchor_below_the_fetch_cutoff_is_injected() {
        use crate::presentation::ConversionExpr;
        use crate::qunit::{AnchorSpec, DerivationSource};
        use relstore::{ColumnDef, DataType, Predicate, QueryBuilder, TableSchema, View};

        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("movie")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("title", DataType::Text))
                .column(ColumnDef::new("plot", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        // Sixty short near-misses, then one long page BM25 ranks below all
        // of them, titled in capitals the segmenter folds away.
        for i in 1..=60 {
            let row = vec![i.into(), format!("star wars {i}").into(), "short".into()];
            db.insert("movie", row).unwrap();
        }
        let plot: Vec<String> = (0..150).map(|w| format!("filler{w}")).collect();
        let row = vec![61.into(), "Star Wars".into(), plot.join(" ").into()];
        db.insert("movie", row).unwrap();
        let b = QueryBuilder::new(&db).table("movie").unwrap();
        let title = b.col(0, "title").unwrap();
        let mut catalog = QunitCatalog::new();
        catalog.add(QunitDefinition {
            name: "movie_page".into(),
            base: View::new(
                "movie_page",
                b.filter(Predicate::eq_param(title, "x")).build(),
            ),
            conversion: ConversionExpr::flat("movie_page"),
            anchor: Some(AnchorSpec {
                table: "movie".into(),
                column: "title".into(),
                param: "x".into(),
            }),
            intent_terms: Vec::new(),
            covered_fields: vec!["movie.title".into()],
            utility: 1.0,
            provenance: DerivationSource::Manual,
        });
        let config = EngineConfig {
            entity_specs: Some(vec![("movie".into(), "title".into())]),
            ..EngineConfig::default()
        };
        let e = QunitSearchEngine::build(&Arc::new(db), catalog, config).unwrap();
        let page = "movie_page::Star Wars";
        let doc = e.index.doc_for_external(page).unwrap();
        let terms = e.index.analyzer().tokenize("star wars");
        let searcher = ShardedSearcher::new(&e.index, e.config.scoring);
        let ranked = searcher
            .try_search_terms_where_ctx(&terms, 61, None, &SearchContext::default())
            .unwrap()
            .hits;
        let rank = ranked.iter().position(|h| h.doc == doc).unwrap();
        assert!(
            rank >= 50,
            "the page must fall below fetch 50, not at {rank}"
        );

        let answer = e.search_uncached("star wars", 5);
        assert!(
            answer.iter().any(|r| r.key == page),
            "{:?}",
            answer.iter().map(|r| &r.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_catalog_fails_build_instead_of_truncating_ids() {
        let (data, small) = engine();
        let template = small.catalog().iter().next().unwrap().clone();
        let mut catalog = QunitCatalog::new();
        for i in 0..=DefId::MAX_DEFINITIONS {
            catalog.add(QunitDefinition {
                name: format!("d{i}"),
                ..template.clone()
            });
        }
        match QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()) {
            Err(Error::InvalidSchema(why)) => assert!(why.contains("65536"), "{why}"),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a catalog past the lane's id range must not build"),
        }
    }

    #[test]
    fn scoring_outside_the_bounds_range_fails_build() {
        let (data, small) = engine();
        for (scoring, field) in [
            (ScoringFunction::Bm25 { k1: 1.2, b: 1.5 }, "b = 1.5"),
            (ScoringFunction::Bm25 { k1: 1.2, b: -0.5 }, "b = -0.5"),
            (ScoringFunction::Bm25 { k1: -0.5, b: 0.75 }, "k1 = -0.5"),
        ] {
            let config = EngineConfig {
                scoring,
                ..EngineConfig::default()
            };
            match QunitSearchEngine::build(&data.db, small.catalog().clone(), config) {
                Err(Error::InvalidSchema(why)) => {
                    assert!(why.starts_with("EngineConfig::scoring"), "{why}");
                    assert!(why.contains(field), "{why}");
                }
                Err(other) => panic!("wrong error: {other}"),
                Ok(_) => panic!("{scoring:?} must not build"),
            }
        }
    }

    /// Every boost, weight and bonus outside the range the bounds and the
    /// rescoring assume is refused by name, and `build` runs the check: a
    /// zero anchor boost at b = 1 used to build, score NaN and rank first.
    #[test]
    fn each_boost_weight_and_bonus_out_of_range_fails_build_by_name() {
        let base = EngineConfig {
            scoring: ScoringFunction::Bm25 { k1: 1.2, b: 1.0 },
            ..EngineConfig::default()
        };
        let refused = |field: &str, set: fn(&mut EngineConfig)| {
            let mut config = base.clone();
            set(&mut config);
            let why = config.check().expect_err(field);
            assert!(
                why.starts_with(&format!("EngineConfig::{field}: ")),
                "{why}"
            );
            config
        };
        refused("intent_boost", |c| c.intent_boost = -1.0);
        refused("anchor_boost", |c| c.anchor_boost = f64::INFINITY);
        refused("type_weight", |c| c.type_weight = f64::NAN);
        refused("utility_weight", |c| c.utility_weight = -0.3);
        refused("anchor_exact_bonus", |c| {
            c.anchor_exact_bonus = f64::INFINITY
        });
        refused("default_def_bonus", |c| c.default_def_bonus = -1.5);
        refused("feedback_weight", |c| c.feedback_weight = f64::NAN);
        let zero_anchor = refused("anchor_boost", |c| c.anchor_boost = 0.0);
        let (data, small) = engine();
        match QunitSearchEngine::build(&data.db, small.catalog().clone(), zero_anchor) {
            Err(Error::InvalidSchema(why)) => {
                assert!(why.starts_with("EngineConfig::anchor_boost"))
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a zero anchor boost must not build"),
        }
        // Zero weights and bonuses are in range: they switch a factor off.
        let zeros = EngineConfig {
            type_weight: 0.0,
            utility_weight: 0.0,
            anchor_exact_bonus: 0.0,
            default_def_bonus: 0.0,
            feedback_weight: 0.0,
            ..base
        };
        assert_eq!(zeros.check(), Ok(()));
    }

    #[test]
    fn claim_each_fills_slot_i_with_work_i() {
        for workers in [1, 2, 3, 8, 20] {
            let out = claim_each(13, workers, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(claim_each(0, 1, |i| i).is_empty());
        // never more workers than items, never fewer than one
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 12), 2);
        assert_eq!(worker_count(5, 0), 1);
        assert_eq!(worker_count(0, 1), 1);
    }

    #[test]
    fn claim_each_resurfaces_a_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            claim_each(6, 3, |i| {
                if i == 4 {
                    panic!("definition {i} blew up");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("definition 4 blew up")
        );
    }

    /// The expert catalog with an unknown anchor column planted at each of
    /// `broken` positions, so that definition's bulk materialization fails.
    fn catalog_with_broken(data: &ImdbData, broken: &[(usize, &str)]) -> QunitCatalog {
        let mut catalog = QunitCatalog::new();
        for (i, def) in expert_imdb_qunits(&data.db).unwrap().iter().enumerate() {
            let mut def = def.clone();
            if let Some((_, column)) = broken.iter().find(|(at, _)| *at == i) {
                def.anchor.as_mut().expect("anchored").column = column.to_string();
            }
            catalog.add(def);
        }
        catalog
    }

    #[test]
    fn failing_definition_fails_the_build_whichever_worker_claims_it() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let anchored: Vec<usize> = expert_imdb_qunits(&data.db)
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_anchored().then_some(i))
            .collect();
        let (first, last) = (anchored[0], *anchored.last().unwrap());
        assert!(first < last);
        for build_threads in [1, 2, 3, 8] {
            // Alone at either end of the catalog, and both at once: the
            // error reported is the earlier definition's.
            for (broken, want) in [
                (vec![(first, "ghost_a")], "ghost_a"),
                (vec![(last, "ghost_b")], "ghost_b"),
                (vec![(last, "ghost_b"), (first, "ghost_a")], "ghost_a"),
            ] {
                let config = EngineConfig {
                    build_threads,
                    ..EngineConfig::default()
                };
                match QunitSearchEngine::build(
                    &data.db,
                    catalog_with_broken(&data, &broken),
                    config,
                ) {
                    Err(Error::UnknownColumn { column, .. }) => assert_eq!(column, want),
                    Err(other) => panic!("wrong error: {other}"),
                    Ok(_) => panic!("{build_threads} workers built over a failed definition"),
                }
            }
        }
    }

    #[test]
    fn one_dominant_definition_builds_identically_at_every_worker_count() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let tuples = |def: &QunitDefinition| -> usize {
            materialize_all(&data.db, def)
                .unwrap()
                .iter()
                .map(|i| i.tuple_count)
                .sum()
        };
        // The heaviest definition first, then the light ones that keep its
        // share of the tuples above 80 %.
        let expert = expert_imdb_qunits(&data.db).unwrap();
        let mut by_weight: Vec<(usize, &QunitDefinition)> =
            expert.iter().map(|d| (tuples(d), d)).collect();
        by_weight.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
        let (heavy, _) = by_weight[0];
        let mut catalog = QunitCatalog::new();
        let mut total = 0;
        for (n, def) in by_weight {
            if (total + n) * 4 <= heavy * 5 {
                total += n;
                catalog.add(def.clone());
            }
        }
        assert!(catalog.len() >= 3, "fixture: {} definitions", catalog.len());
        assert!(heavy * 5 > total * 4, "fixture: {heavy} of {total} tuples");

        let build = |build_threads| {
            let config = EngineConfig {
                build_threads,
                ..EngineConfig::default()
            };
            let engine = QunitSearchEngine::build(&data.db, catalog.clone(), config).unwrap();
            let mut instances: Vec<(String, String, String, usize)> = engine
                .instances()
                .map(|i| {
                    (
                        i.key.clone(),
                        i.rendered.clone(),
                        i.text.clone(),
                        i.tuple_count,
                    )
                })
                .collect();
            instances.sort();
            (
                engine.index_fingerprint(),
                engine.doc_def.clone(),
                instances,
            )
        };
        let serial = build(1);
        for build_threads in [2, 3, 8, 0] {
            assert_eq!(build(build_threads), serial, "{build_threads} workers");
        }
    }

    #[test]
    fn build_timings_fit_in_the_build_and_flag_the_restart() {
        let path = std::env::temp_dir().join(format!(
            "qunits-engine-build-timings-{}.qx",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let data = ImdbData::generate(ImdbConfig::tiny());
        let timed_build = |snapshot_path: Option<PathBuf>| {
            let config = EngineConfig {
                snapshot_path,
                ..EngineConfig::default()
            };
            let started = Instant::now();
            let engine =
                QunitSearchEngine::build(&data.db, expert_imdb_qunits(&data.db).unwrap(), config)
                    .unwrap();
            let (total, t) = (started.elapsed(), engine.build_timings());
            let phases = t.dictionary + t.materialize + t.index + t.snapshot_save + t.doc_def;
            assert!(phases <= total, "{phases:?} of phases in a {total:?} build");
            assert!(t.materialize > Duration::ZERO && t.index > Duration::ZERO);
            t
        };
        let cold = timed_build(Some(path.clone()));
        assert!(!cold.from_snapshot);
        assert!(cold.snapshot_save > Duration::ZERO);
        let restarted = timed_build(Some(path.clone()));
        assert!(restarted.from_snapshot);
        assert_eq!(restarted.snapshot_save, Duration::ZERO);
        let _ = std::fs::remove_file(&path);
        let unsaved = timed_build(None);
        assert!(!unsaved.from_snapshot);
        assert_eq!(unsaved.snapshot_save, Duration::ZERO);
    }

    #[test]
    fn repeated_search_is_served_from_cache() {
        let (data, engine) = engine();
        let q = format!("{} cast", data.movies[0].title);
        let first = engine.search(&q, 5);
        let before = engine.cache_stats();
        let second = engine.search(&q, 5);
        let after = engine.cache_stats();
        assert_eq!(first, second);
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        // normalization folds case and punctuation into the same entry —
        // and that fold is sound: the cached answer for the variant equals
        // what an uncached search of the variant itself computes
        let variant = q.to_uppercase();
        let third = engine.search(&variant, 5);
        assert_eq!(first, third);
        assert_eq!(third, engine.search_uncached(&variant, 5));
        assert_eq!(engine.cache_stats().hits, after.hits + 1);
        // k == 0 bypasses the cache entirely
        let snapshot = engine.cache_stats();
        assert!(engine.search(&q, 0).is_empty());
        assert_eq!(engine.cache_stats(), snapshot);
    }

    #[test]
    fn click_invalidates_cached_results() {
        let (data, engine) = engine();
        let q = data.movies[0].title.to_string();
        let before = engine.search(&q, 5);
        assert_eq!(before[0].definition, "movie_page");
        let cast_key = format!("movie_cast::{}", data.movies[0].title);
        for _ in 0..50 {
            engine.record_click(&q, &cast_key);
        }
        // a stale cache would keep returning movie_page here
        let after = engine.search(&q, 5);
        assert_eq!(after[0].definition, "movie_cast");
        assert_eq!(after, engine.search_uncached(&q, 5));
    }

    #[test]
    fn a_click_drops_the_cache_only_when_it_can_move_a_score() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let q = data.movies[0].title.to_string();
        let cast_key = format!("movie_cast::{q}");
        let default_weight = EngineConfig::default().feedback_weight;
        for (feedback_weight, survives) in [(0.0, true), (default_weight, false)] {
            let config = EngineConfig {
                feedback_weight,
                ..EngineConfig::default()
            };
            let catalog = expert_imdb_qunits(&data.db).unwrap();
            let engine = QunitSearchEngine::build(&data.db, catalog, config).unwrap();
            let cold = engine.search(&q, 5);
            engine.record_click(&q, &cast_key);
            let clicked = engine.cache_stats();
            assert_eq!(clicked.entries, usize::from(survives), "{feedback_weight}");
            let again = engine.search(&q, 5);
            let hits = engine.cache_stats().hits - clicked.hits;
            assert_eq!(hits, u64::from(survives), "weight {feedback_weight}");
            if survives {
                assert_eq!(again, cold);
            }
            assert_eq!(again, engine.search_uncached(&q, 5));
        }
    }

    #[test]
    fn a_click_on_a_key_no_document_carries_changes_nothing() {
        let (data, engine) = engine();
        let q = data.movies[0].title.to_string();
        let cold = engine.search(&q, 5);
        let before = engine.cache_stats();
        for key in ["movie_cast::no such movie", "no_such_definition::*", ""] {
            engine.record_click(&q, key);
        }
        assert_eq!(engine.feedback().generation(), 0);
        assert_eq!(engine.cache_stats().entries, before.entries);
        assert_eq!(engine.search(&q, 5), cold);
        assert_eq!(
            engine.cache_stats().hits,
            before.hits + 1,
            "served from the cache"
        );
        // a key that resolves does count
        engine.record_click(&q, &cold[0].key);
        assert_eq!(engine.feedback().generation(), 1);
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn batch_matches_per_query_search() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let queries: Vec<String> = data
            .movies
            .iter()
            .take(8)
            .map(|m| format!("{} cast", m.title))
            .chain([format!("{} movies", data.people[0].name)])
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        // one, two and eight scoped threads claim the queries
        for executor_threads in [1, 2, 8] {
            let config = EngineConfig {
                executor_threads,
                ..EngineConfig::default()
            };
            let catalog = expert_imdb_qunits(&data.db).unwrap();
            let engine = QunitSearchEngine::build(&data.db, catalog, config).unwrap();
            let batched = engine.search_batch(&refs, 5);
            assert_eq!(batched.len(), refs.len());
            for (q, batch) in refs.iter().zip(&batched) {
                assert_eq!(
                    batch,
                    &engine.search_uncached(q, 5),
                    "batch diverged on {q} at {executor_threads} threads"
                );
            }
            assert!(engine.search_batch(&[], 5).is_empty());
        }
    }
}
