//! # qunit-ir
//!
//! A from-scratch information-retrieval engine: analyzer, inverted index,
//! TF-IDF and BM25 ranking, and top-k retrieval.
//!
//! This is the "standard IR techniques" half of the qunits paradigm: once a
//! database has been carved into qunit instances, each instance is rendered
//! to a document and handed to this engine; ranking then needs nothing
//! database-specific.
//!
//! Thread safety: an [`Index`] is immutable after [`IndexBuilder::build`]
//! and a [`Searcher`] is a stateless view over it, so both are
//! `Send + Sync` (compile-time asserted in their modules). The concurrent
//! qunit search service in `qunit-core` relies on this to serve queries
//! from many threads against one shared index.
//!
//! Intra-query parallelism: [`IndexBuilder::build_sharded`] partitions the
//! corpus into `n` independent [`Index`] shards (deterministic round-robin
//! by insertion order) and [`ShardedSearcher`] scores them with
//! corpus-global statistics — inline for small queries, or fanned across a
//! persistent [`ShardExecutor`] worker pool ([`exec`] module) for large
//! ones — returning results identical in ids, order, and scores to the
//! last bit to an unsharded search regardless of the dispatch path (see
//! [`shard`] for the determinism contract).
//!
//! Scoring kernel: postings live in an interned-term CSR layout
//! ([`index`] module docs) and queries run resolve-once / dense-accumulate
//! / bounded-top-k ([`search`] module docs), with MaxScore early
//! termination over per-term score bounds and scratch buffers reused
//! across queries ([`ScoreScratch`], [`ScratchPool`]). The pruned kernel
//! is bit-identical to the exhaustive kernel and to the naive reference
//! scorer — that equivalence is property-tested and gated in CI.
//!
//! ```
//! use irengine::{Document, IndexBuilder, ScoreScratch, Searcher, ScoringFunction};
//!
//! let mut b = IndexBuilder::new();
//! b.set_field_boost("title", 2.0);
//! b.add(Document::new("m1").field("title", "Star Wars").field("body", "space opera"));
//! b.add(Document::new("m2").field("title", "Solaris").field("body", "space station drama"));
//! let index = b.build();
//! let searcher = Searcher::new(&index, ScoringFunction::Bm25 { k1: 1.2, b: 0.75 });
//! let terms = index.analyzer().tokenize("star wars");
//! let hits = searcher.search_terms_with(&terms, 10, &mut ScoreScratch::new());
//! assert_eq!(index.external_id(hits[0].doc).unwrap(), "m1");
//! ```

#![deny(unsafe_code)]

#[cfg(test)]
mod alloc_probe;
pub mod analysis;
mod arena;
pub mod document;
pub mod exec;
pub mod fault;
pub mod index;
pub mod score;
pub mod search;
pub mod shard;
pub mod snapshot;
pub mod snippet;

pub use analysis::{Analyzer, NormalForm};
pub use document::{DocId, DocView, Document};
pub use exec::{
    DispatchCounts, DispatchMode, DispatchPolicy, ExecutorStats, ShardExecutor, TaskPanic,
};
pub use fault::InjectedFault;
pub use index::{
    Index, IndexBuilder, Posting, Postings, PostingsBuf, PostingsCodec, TermId, DEFAULT_BLOCK_SIZE,
};
pub use score::{ScoringFunction, TermScorer, TermStats};
pub use search::{FoldedTerms, Hit, KernelTier, ScoreScratch, ScratchPool, Searcher};
pub use shard::{
    SearchContext, SearchFailure, SearchOutcome, ShardTimings, ShardedIndex, ShardedSearcher,
};
pub use snapshot::{read_snapshot_header, SnapshotError, SnapshotHeader, SNAPSHOT_VERSION};
pub use snippet::{extract as extract_snippet, Snippet};
