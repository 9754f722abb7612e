//! # qunit-core
//!
//! The paper's primary contribution: **qunits** — queried units for database
//! search (Nandi & Jagadish, CIDR 2009).
//!
//! A qunit is the basic, independent semantic unit of information in a
//! database: a *base expression* (a view, possibly parameterized by an
//! anchor entity) plus a *conversion expression* (a presentation template).
//! Once a database is carved into qunits, keyword search splits cleanly:
//!
//! 1. **Typing** — segment the query into entities and intent terms
//!    ([`segment`]), match it against qunit definitions;
//! 2. **Ranking** — treat qunit instances as independent documents and rank
//!    them with standard IR ([`engine`], backed by `qunit-ir`).
//!
//! Definitions come from four sources ([`mod@derive`]): manual/expert catalogs,
//! schema + data *queriability* (§4.1), query-log *rollup* (§4.2), and
//! external-evidence *type signatures* (§4.3).
//!
//! ## Concurrency model
//!
//! The engine is built as a **concurrent search service**:
//!
//! * **Parallel build** — definitions materialize independently, so
//!   [`QunitSearchEngine::build`] fans them across scoped worker threads
//!   ([`EngineConfig::build_threads`], 0 = one per core) and merges the
//!   per-definition document batches back in catalog order. Any worker
//!   count produces a byte-identical index.
//! * **`Send + Sync` queries** — after `build` the engine is immutable
//!   except for two thread-safe interior-mutable stores (the
//!   lock-protected [`FeedbackStore`] and the sharded
//!   [`cache::QueryCache`]), so one engine can serve `search`,
//!   `search_batch`, and `record_click` from any number of threads
//!   simultaneously. This is asserted at compile time in [`engine`].
//! * **Sharded index, intra-query parallelism** — the instance index is
//!   split into [`EngineConfig::search_shards`] independent shards
//!   (deterministic round-robin, `0` = one per core) and every search
//!   scores them — inline when the query is small, else on the engine's
//!   persistent shard executor — with corpus-global statistics plus a
//!   deterministic top-k merge, so a *single* hot query saturates the
//!   machine. Results are identical at any shard count — keys, order,
//!   scores to the ulp (property-tested) — and per-shard scoring time is
//!   exposed via [`QunitSearchEngine::shard_stats`].
//! * **Query cache** — result lists are memoized per
//!   `(normalized query, k)` in a sharded LRU ([`cache`]). Entries are
//!   stamped with the feedback generation and invalidated the moment a
//!   click changes scores, so cached and uncached searches always agree
//!   (property-tested), and the key deliberately excludes the shard count
//!   (identical results make entries interchangeable across layouts).
//!   A [`QunitResult`] holds the `Arc<QunitInstance>` its miss rendered,
//!   so an entry holds its k pages once, and the clone a hit returns is
//!   k keys and k pointers, not k rendered pages. Hit/miss counters are
//!   exposed via
//!   [`QunitSearchEngine::cache_stats`].
//!
//! Throughput, latency and build cost are measured by the repo benchmark
//! under `perf/` (see `BENCHMARK.json` for its workloads).
//!
//! ```
//! use relstore::{ColumnDef, Database, DataType, TableSchema};
//! use qunit_core::{QunitCatalog, QunitSearchEngine, EngineConfig};
//! use qunit_core::derive::manual;
//!
//! // build a tiny movie database …
//! # let mut db = Database::new("demo");
//! # db.create_table(TableSchema::new("movie")
//! #     .column(ColumnDef::new("id", DataType::Int).not_null())
//! #     .column(ColumnDef::new("title", DataType::Text).not_null())
//! #     .primary_key("id")).unwrap();
//! # db.insert("movie", vec![1.into(), "star wars".into()]).unwrap();
//! // … derive a qunit catalog and search it:
//! let catalog = manual::movie_summary_only(&db).unwrap();
//! let db = std::sync::Arc::new(db);
//! let engine = QunitSearchEngine::build(&db, catalog, EngineConfig::default()).unwrap();
//! let results = engine.search("star wars", 5);
//! assert!(!results.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod derive;
pub mod doc_def;
pub mod engine;
pub mod feedback;
pub mod materialize;
pub mod obs;
mod overrides;
pub mod presentation;
pub mod qunit;
pub mod segment;

pub use cache::{CacheStats, QueryCache};
pub use catalog::QunitCatalog;
pub use doc_def::{DefId, DocDefLane};
pub use engine::{
    BuildTimings, EngineConfig, QunitResult, QunitSearchEngine, SearchError, SearchResponse,
    SearchResult, ShardStats,
};
pub use feedback::FeedbackStore;
pub use materialize::materialize_all;
pub use obs::{Counter, ObsSnapshot};
pub use presentation::ConversionExpr;
pub use qunit::{AnchorSpec, DerivationSource, QunitDefinition, QunitInstance};
pub use segment::{EntityDictionary, Segment, SegmentedQuery, Segmenter};
