//! Sharded index + intra-query parallel search.
//!
//! The qunits model ranks independently materialized instances, so the
//! corpus partitions freely: any document subset can be scored alone and
//! the per-subset rankings merged by score. [`ShardedIndex`] holds `n`
//! independent [`Index`] shards (round-robin by insertion order, see
//! [`crate::IndexBuilder::build_sharded`]) and [`ShardedSearcher`] scores
//! them in parallel — one hot query saturating every core instead of
//! walking one monolithic index serially. *How* the fan-out happens is the
//! caller's choice via [`SearchContext`]: dispatch onto a persistent
//! [`ShardExecutor`] (the amortized service path), or — with no executor,
//! or for queries whose estimated postings walk is below the
//! [`DispatchPolicy`] threshold — score every shard inline on the calling
//! thread with zero dispatch cost.
//!
//! # Determinism contract
//!
//! For any shard count, a sharded search returns **exactly** the hits an
//! unsharded search over the same documents returns: same global doc ids,
//! same order, scores equal to the last bit. Three mechanisms add up to
//! that guarantee, each load-bearing:
//!
//! 1. **Global ids survive sharding.** Round-robin places document `i` at
//!    shard `i % n`, local slot `i / n`, and [`ShardedIndex::to_global`]
//!    inverts that — so the global id of every document equals its
//!    insertion position regardless of `n`.
//! 2. **Corpus-global statistics.** Scores are computed from
//!    [`TermStats`] (document frequency, corpus size, average length)
//!    aggregated across *all* shards, never from shard-local counts; the
//!    average length is even summed in global document order so the
//!    floating-point reduction matches the unsharded build bit-for-bit.
//!    Per-document accumulation iterates query terms in the same
//!    bound-descending order as [`crate::Searcher`] (score upper bounds
//!    are pure functions of those corpus-global statistics, so every
//!    shard — and the unsharded path — sorts identically), and MaxScore
//!    pruning only ever skips documents that provably cannot reach the
//!    top-k, so the f64 sums agree to the ulp.
//! 3. **One top-k heap per query.** Every heap is a [`crate::search`]
//!    `TopK` under the shared hit order (score desc, global doc id asc),
//!    total because global doc ids are unique, so a heap fed in any order
//!    keeps exactly the first k of the full sort. The inline sweep feeds
//!    one; each dispatched slot its own, which passes every hit it keeps
//!    (every global top-k hit among them) on to the query's `SharedTopK`.
//!    A shard skips a document only when its margin-inflated bound is ≤
//!    the k-th score some heap holds, so it would lose anyway.

use crate::analysis::Analyzer;
use crate::document::{DocId, DocView};
use crate::exec::{DispatchCounts, DispatchPolicy, ShardExecutor, TaskPanic};
use crate::index::{Index, PostingsBuf, PostingsCodec, TermId};
use crate::score::{ScoringFunction, TermStats};
use crate::search::{
    score_terms_into_topk, with_thread_scratch, FoldedTerms, Hit, KernelTier, ScoreScratch,
    ScratchPool, SharedTopK, TopK,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::OnceLock;
use std::time::Instant;

/// An immutable collection of [`Index`] shards presenting one **global**
/// document id space. Build via [`crate::IndexBuilder::build_sharded`].
///
/// Like [`Index`], a built `ShardedIndex` is plain owned data — `Send +
/// Sync`, shareable across any number of threads without locking.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    /// Always at least one shard (a 1-shard index is the unsharded case).
    shards: Vec<Index>,
    /// Total documents across shards.
    num_docs: usize,
    /// Corpus-global mean document length, reduced in global doc order so
    /// it is bit-identical to the single-[`Index`] average.
    avg_doc_length: f64,
    /// [`ShardedIndex::fingerprint`], computed on first use. Never reset:
    /// the content is fixed at construction and the codec conversions
    /// preserve the fingerprint by contract.
    fingerprint: OnceLock<u64>,
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<ShardedIndex>();
const _: () = assert_send_sync::<ShardedSearcher<'static>>();
const _: () = assert_send_sync::<ShardTimings>();
const _: () = assert_send_sync::<SearchContext<'static>>();

impl ShardedIndex {
    /// Wrap already-built shards. Shard `s` is assumed to hold the
    /// documents `{ g | g % n == s }` of the global order at local position
    /// `g / n` — [`crate::IndexBuilder::build_sharded`] is the only
    /// sanctioned producer.
    pub(crate) fn from_shards(shards: Vec<Index>) -> Self {
        assert!(!shards.is_empty(), "a sharded index needs >= 1 shard");
        let num_docs = shards.iter().map(Index::num_docs).sum();
        let n = shards.len();
        // Replay the unsharded reduction: sum lengths in *global* order.
        // Summing per-shard subtotals would associate the additions
        // differently and drift in the last ulp — enough to flip a BM25
        // tie — so the loop below is not an optimization target.
        let mut total = 0.0;
        for g in 0..num_docs {
            total += shards[g % n].doc_length((g / n) as DocId);
        }
        let avg_doc_length = if num_docs == 0 {
            0.0
        } else {
            total / num_docs as f64
        };
        ShardedIndex {
            shards,
            num_docs,
            avg_doc_length,
            fingerprint: OnceLock::new(),
        }
    }

    /// Number of shards (>= 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves, for callers that fan out per shard.
    pub fn shards(&self) -> &[Index] {
        &self.shards
    }

    /// Total documents across all shards.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Total postings across all shards (size of the CSR arrays a query
    /// walks in the worst case; the capacity-planning number).
    pub fn num_postings(&self) -> usize {
        self.shards.iter().map(Index::num_postings).sum()
    }

    /// Corpus-global document frequency of a term (sum over shards).
    pub fn doc_freq(&self, term: &str) -> usize {
        self.shards.iter().map(|s| s.doc_freq(term)).sum()
    }

    /// Corpus-global maximum boost-weighted term frequency of a term —
    /// the max over every shard's [`Index::max_weighted_tf`] lane. Max is
    /// order-insensitive, so the value (and the score bounds derived from
    /// it) is bit-identical at every shard count. `0.0` for unknown terms.
    pub fn max_weighted_tf(&self, term: &str) -> f64 {
        self.shards
            .iter()
            .map(|s| s.max_weighted_tf(term))
            .fold(0.0, f64::max)
    }

    /// Corpus-global [`TermStats`] for one query term.
    pub fn term_stats(&self, term: &str) -> TermStats {
        TermStats {
            num_docs: self.num_docs,
            doc_freq: self.doc_freq(term),
            avg_doc_length: self.avg_doc_length,
        }
    }

    /// The analyzer shared by every shard (use it for queries).
    pub fn analyzer(&self) -> &Analyzer {
        self.shards[0].analyzer()
    }

    /// Map a shard-local id to the global id space.
    pub fn to_global(&self, shard: usize, local: DocId) -> DocId {
        local * self.shards.len() as DocId + shard as DocId
    }

    /// Map a global id to its `(shard, local)` coordinates. Total — an
    /// out-of-range global id maps to coordinates that are themselves out
    /// of range in the target shard, where every accessor degrades per the
    /// [`Index`] id-space contract.
    pub fn to_local(&self, doc: DocId) -> (usize, DocId) {
        let n = self.shards.len() as DocId;
        ((doc % n) as usize, doc / n)
    }

    /// Boost-weighted length of a **global** document id; `0.0` when out of
    /// range (same contract as [`Index::doc_length`]).
    pub fn doc_length(&self, doc: DocId) -> f64 {
        let (shard, local) = self.to_local(doc);
        self.shards[shard].doc_length(local)
    }

    /// The stored document for a global id, borrowed from its shard.
    pub fn document(&self, doc: DocId) -> Option<DocView<'_>> {
        let (shard, local) = self.to_local(doc);
        self.shards[shard].document(local)
    }

    /// External id of a global document id.
    pub fn external_id(&self, doc: DocId) -> Option<&str> {
        let (shard, local) = self.to_local(doc);
        self.shards[shard].external_id(local)
    }

    /// Global id for an external id. Duplicate external ids resolve to the
    /// **first-inserted** document — the same answer the unsharded
    /// [`Index::doc_for_external`] gives — by minimizing over the shards'
    /// first-local matches.
    pub fn doc_for_external(&self, external: &str) -> Option<DocId> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(s, shard)| {
                shard
                    .doc_for_external(external)
                    .map(|l| self.to_global(s, l))
            })
            .min()
    }

    /// A 64-bit fingerprint of the **logical index content**, invariant
    /// under shard count: documents in global order (external id, fields,
    /// weighted length) plus every postings list (terms sorted, postings in
    /// global doc order, term frequencies as exact bit patterns).
    ///
    /// Two builds fingerprint equal iff they indexed the same documents in
    /// the same order with the same analyzer output — which is exactly the
    /// invariant the CI determinism gate holds over build-worker and
    /// shard-count sweeps. FNV-1a, fully specified here, so the value is
    /// stable across runs, platforms, and toolchains (unlike
    /// `DefaultHasher`, which only promises within-process stability).
    ///
    /// The walk visits every document and posting, so it runs once per
    /// index and is remembered; an index loaded from a snapshot computes
    /// its own (the header's copy is never trusted).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    /// Whether [`ShardedIndex::fingerprint`] is computed already (a save
    /// weighs the walk by it).
    pub(crate) fn fingerprint_known(&self) -> bool {
        self.fingerprint.get().is_some()
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.num_docs);
        for g in 0..self.num_docs as DocId {
            let (shard, local) = self.to_local(g);
            let doc = self.shards[shard]
                .document(local)
                .expect("global id < num_docs resolves");
            h.write_str(doc.external_id());
            h.write_usize(doc.fields().len());
            for (name, text) in doc.fields() {
                h.write_str(name);
                h.write_str(text);
            }
            h.write_u64(self.doc_length(g).to_bits());
        }
        // Shard vocabularies are sorted and rows doc-ascending, so both the
        // terms and each term's postings come out of a k-way merge: no name
        // lookups, no sort, and one buffer of `(global doc, tf bits)` reused
        // for every term. `next[s]` is shard `s`'s next unmerged TermId.
        let n = self.shards.len();
        let mut next = vec![0 as TermId; n];
        let mut buf = PostingsBuf::new();
        let mut merged: Vec<(DocId, u64)> = Vec::new();
        // `runs[s]..runs[s + 1]` is shard `s`'s stretch of `merged`; `heads`
        // are the merge cursors into those stretches.
        let mut runs = vec![0usize; n + 1];
        let mut heads = vec![0usize; n];
        let head_term = |s: usize, next: &[TermId]| self.shards[s].term(next[s]);
        while let Some(term) = (0..n).filter_map(|s| head_term(s, &next)).min() {
            h.write_str(term);
            merged.clear();
            for (s, shard) in self.shards.iter().enumerate() {
                if head_term(s, &next) == Some(term) {
                    // Buffered view: decoded per term on a compressed store,
                    // zero-copy on a flat one, so the fingerprint is
                    // codec-independent by construction.
                    let row = shard.postings_of_with(next[s], &mut buf);
                    merged.extend(
                        row.iter()
                            .map(|p| (self.to_global(s, p.doc), p.weighted_tf.to_bits())),
                    );
                    next[s] += 1;
                }
                runs[s + 1] = merged.len();
            }
            h.write_usize(merged.len());
            heads.copy_from_slice(&runs[..n]);
            for _ in 0..merged.len() {
                let s = (0..n)
                    .filter(|&s| heads[s] < runs[s + 1])
                    .min_by_key(|&s| merged[heads[s]].0)
                    .expect("an unmerged posting remains");
                let (doc, tf_bits) = merged[heads[s]];
                heads[s] += 1;
                h.write_u64(doc as u64);
                h.write_u64(tf_bits);
            }
        }
        h.finish()
    }

    /// Which codec the shards' posting lanes currently use (uniform across
    /// shards by construction — the conversion methods below visit all of
    /// them).
    pub fn postings_codec(&self) -> PostingsCodec {
        self.shards[0].postings_codec()
    }

    /// [`Index::compress_postings`] across every shard. Lossless and
    /// fingerprint-preserving; no-op when already compressed.
    pub fn compress_postings(&mut self) {
        for shard in &mut self.shards {
            shard.compress_postings();
        }
    }

    /// [`Index::decompress_postings`] across every shard.
    pub fn decompress_postings(&mut self) {
        for shard in &mut self.shards {
            shard.decompress_postings();
        }
    }

    /// Force the posting lanes to `codec` across every shard.
    pub fn set_postings_codec(&mut self, codec: PostingsCodec) {
        match codec {
            PostingsCodec::Flat => self.decompress_postings(),
            PostingsCodec::DeltaVarint => self.compress_postings(),
        }
    }

    /// Heap bytes held by the posting lanes across all shards (see
    /// [`Index::posting_store_bytes`]).
    pub fn posting_store_bytes(&self) -> usize {
        self.shards.iter().map(Index::posting_store_bytes).sum()
    }

    /// The block-max lane block size (identical across shards — the
    /// builder stamps every shard with one setting).
    pub fn block_size(&self) -> usize {
        self.shards[0].block_size()
    }
}

/// FNV-1a with explicit framing (lengths prefix variable-size values), so
/// the fingerprint is a function of the content alone. Shared with the
/// snapshot section checksums ([`crate::snapshot`]).
#[derive(Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// One FNV-1a step over a whole word instead of a byte: the snapshot's
    /// section checksums, eight times fewer dependent multiplies.
    pub(crate) fn write_word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-shard scoring-time counters: one atomic nanosecond accumulator per
/// shard slot, so the hot path records a timing with a single relaxed
/// `fetch_add` — no per-search `Vec<Duration>` allocation, no lock. The
/// engine owns one sized to its index and snapshots it for operators.
#[derive(Debug, Default)]
pub struct ShardTimings {
    nanos: Box<[AtomicU64]>,
}

impl ShardTimings {
    /// Counters for `shards` slots, all zero.
    pub fn new(shards: usize) -> Self {
        ShardTimings {
            nanos: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// Accumulate `nanos` into shard `s` (out-of-range slots are ignored —
    /// a smaller counter set than the index has shards just under-reports).
    #[inline]
    pub fn add(&self, s: usize, nanos: u64) {
        if let Some(slot) = self.nanos.get(s) {
            slot.fetch_add(nanos, AtomicOrdering::Relaxed);
        }
    }

    /// Snapshot of the accumulated nanoseconds per shard slot.
    pub fn snapshot(&self) -> Vec<u64> {
        self.nanos
            .iter()
            .map(|n| n.load(AtomicOrdering::Relaxed))
            .collect()
    }
}

/// Why a sharded search (or one shard of it) failed.
#[derive(Debug)]
pub enum SearchFailure {
    /// A shard task panicked; the panic was caught at the fan-out boundary
    /// and the pool workers survived. `message` is the panic payload when
    /// it was a string (injected faults name their site here).
    Panicked {
        /// Best-effort panic message of one panicking shard.
        message: String,
        /// How many shards' scoring panicked: 1 on the inline sweep,
        /// which stops at its first panic; every panicked slot when the
        /// query was dispatched, since every slot runs to completion.
        shards: usize,
    },
}

/// A sharded search's result: the top-k hits merged from every shard. A
/// shard that fails fails the whole search, so an outcome is never partial.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchOutcome {
    /// Top-k hits, best first.
    pub hits: Vec<Hit>,
}

impl SearchOutcome {
    /// Always `false`: no outcome is partial. Kept only because the
    /// benchmark harness under `perf/` still reads it.
    pub fn degraded(&self) -> bool {
        false
    }
}

/// Run scoring behind a panic boundary: a kernel panic becomes
/// [`SearchFailure::Panicked`] — the query's error, not the process's.
fn contained<T>(score: impl FnOnce() -> T) -> Result<T, SearchFailure> {
    catch_unwind(AssertUnwindSafe(score)).map_err(|payload| SearchFailure::Panicked {
        message: TaskPanic { payload }.message(),
        shards: 1,
    })
}

/// Everything a sharded search draws from its environment, bundled so the
/// hot path has one signature instead of a growing tail of optionals. The
/// default context (no pool, no executor, no timings, adaptive policy)
/// scores on the calling thread with its thread-local scratch; a
/// long-lived service (the qunit engine) builds one per search from the
/// resources it owns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchContext<'a> {
    /// Warm [`ScoreScratch`] buffers; `None` = the executing thread's
    /// thread-local scratch.
    pub pool: Option<&'a ScratchPool>,
    /// Persistent worker pool for shard dispatch; `None` scores every
    /// shard on the calling thread, whatever the policy says.
    pub exec: Option<&'a ShardExecutor>,
    /// Per-shard scoring-time accumulators; `None` skips timing entirely
    /// (not even a clock read).
    pub timings: Option<&'a ShardTimings>,
    /// Inline-vs-dispatch decision (see [`DispatchPolicy`]).
    pub policy: DispatchPolicy,
    /// Tally of inline-vs-dispatch decisions taken; `None` skips the
    /// bookkeeping (one relaxed `fetch_add` per multi-shard query when set).
    pub decisions: Option<&'a DispatchCounts>,
    /// Which scoring kernel tier to run (`QUNITS_KERNEL` upstream). All
    /// tiers return bit-identical hits; [`KernelTier::Exhaustive`] is the
    /// reference every pruned run must match bit-for-bit.
    pub tier: KernelTier,
}

impl SearchContext<'_> {
    /// Run `f` with a scratch from this context: a [`ScratchPool`]
    /// checkout (returned afterwards) when a pool is configured, the
    /// executing thread's thread-local otherwise. The single place the
    /// checkout contract lives — the inline sweep and each dispatched task
    /// draw through here.
    /// Panic-safe: a panic inside `f` still returns the scratch to the
    /// pool before resuming (the buffers hold no cross-query invariant — a
    /// fresh `begin` bumps the accumulator epoch, so a half-written scratch
    /// is indistinguishable from a clean one), so a panic storm cannot
    /// drain the pool's free list.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut ScoreScratch) -> R) -> R {
        match self.pool {
            Some(pool) => {
                let mut scratch = pool.take();
                let out = catch_unwind(AssertUnwindSafe(|| f(&mut scratch)));
                pool.put(scratch);
                match out {
                    Ok(r) => r,
                    Err(payload) => resume_unwind(payload),
                }
            }
            None => with_thread_scratch(f),
        }
    }
}

/// Executes queries against a borrowed [`ShardedIndex`], scoring shards
/// inline or fanning them across a [`ShardExecutor`] per the
/// [`SearchContext`] (always inline when there is a single shard).
///
/// Every [`DocId`] in and out is **global**, and filters must be `Sync`
/// because they may run on shard worker threads.
#[derive(Debug, Clone)]
pub struct ShardedSearcher<'a> {
    index: &'a ShardedIndex,
    scoring: ScoringFunction,
}

impl<'a> ShardedSearcher<'a> {
    /// New searcher with the given scoring function.
    pub fn new(index: &'a ShardedIndex, scoring: ScoringFunction) -> Self {
        ShardedSearcher { index, scoring }
    }

    /// Fold analyzed query terms against the corpus-global statistics, once
    /// per query: every fan-out and every [`ShardedSearcher::score_doc`]
    /// call of that query reads the result. Scorers and bounds are pure
    /// functions of corpus-global statistics (document frequency, corpus
    /// size, average length, the largest weighted tf over all shards), so
    /// the bound order — the canonical accumulation order — is the same
    /// on every shard and at every shard count.
    pub fn fold<'t>(&self, terms: &'t [impl AsRef<str>]) -> FoldedTerms<'t> {
        FoldedTerms::new(terms, self.scoring, |t| {
            (self.index.term_stats(t), self.index.max_weighted_tf(t))
        })
    }

    /// Run a query given pre-analyzed terms: [`ShardedSearcher::fold`],
    /// then [`ShardedSearcher::try_search_folded`].
    pub fn try_search_terms_where_ctx(
        &self,
        terms: &[impl AsRef<str>],
        k: usize,
        filter: Option<&(dyn Fn(DocId) -> bool + Sync)>,
        ctx: &SearchContext,
    ) -> Result<SearchOutcome, SearchFailure> {
        self.try_search_folded(&self.fold(terms), k, filter, ctx)
    }

    /// Run a folded query, returning up to `k` hits, best first —
    /// identical (ids, order, scores to the last bit) to an unsharded
    /// search over the same documents. `filter` is optional (`None` =
    /// unfiltered, which additionally arms the kernel's partial-threshold
    /// pruning probe) and sees **global** doc ids. Every resource — scratch
    /// pool, executor, timing counters, dispatch policy, kernel tier —
    /// comes from `ctx`; `&SearchContext::default()` scores
    /// every shard on the calling thread.
    ///
    /// Two bodies run a search, with bit-identical results:
    ///
    /// - **The shared-top-k sweep**, when the query scores inline: every
    ///   shard on the calling thread into ONE bounded heap, behind one
    ///   panic boundary.
    /// - **Per-shard slots**, when it is dispatched: each shard behind its
    ///   own boundary on the executor, every slot passing the hits it keeps
    ///   on to the query's one shared heap as it goes.
    ///
    /// A query is dispatched only when the context has an executor, the
    /// index has more than one shard, and the policy weighs the query's
    /// estimated postings walk (the sum of corpus-global document
    /// frequencies of its terms, a by-product of folding them) against the
    /// pool and declines to inline it.
    ///
    /// A shard fails only by panicking, and a shard that fails fails the
    /// query: it surfaces as `Err(`[`SearchFailure::Panicked`]`)` and no
    /// partial result is ever returned.
    pub fn try_search_folded(
        &self,
        folded: &FoldedTerms,
        k: usize,
        filter: Option<&(dyn Fn(DocId) -> bool + Sync)>,
        ctx: &SearchContext,
    ) -> Result<SearchOutcome, SearchFailure> {
        let shards = self.index.shards();
        if k == 0 || folded.terms.is_empty() {
            return Ok(SearchOutcome::default());
        }
        let n = shards.len();
        let dispatch_to = ctx.exec.filter(|exec| {
            n > 1
                && !ctx
                    .policy
                    .should_inline(folded.estimated_postings, exec.pool_size())
        });
        if let Some(d) = ctx.decisions {
            d.record(dispatch_to.is_none());
        }

        let Some(exec) = dispatch_to else {
            // Zero-dispatch path: walk the shards on this thread, reusing
            // ONE scratch (each shard re-begins it, so the accumulator
            // stays cache-warm shard to shard), ONE resolved-terms buffer,
            // and ONE shared top-k heap across all of them. A single
            // bounded heap over every shard's candidates selects exactly
            // what per-shard heaps + a merge would — rank_hits is total on
            // distinct documents — without materializing per-shard hit
            // lists at all. (A heap already holding k hits from earlier
            // shards also hands later shards a ready pruning threshold.)
            let score_all = |scratch: &mut ScoreScratch| {
                let mut top = TopK::new(k, None);
                let mut resolved = Vec::with_capacity(folded.terms.len());
                for (s, shard) in shards.iter().enumerate() {
                    if shard.num_docs() == 0 {
                        continue;
                    }
                    self.score_shard(s, folded, filter, ctx, scratch, &mut resolved, &mut top);
                }
                top.into_sorted_hits()
            };
            // A kernel panic on the caller's own thread is still contained
            // at this boundary (the query's error, not the process's) —
            // with_scratch has already returned the scratch.
            let hits = contained(|| ctx.with_scratch(score_all))?;
            return Ok(SearchOutcome { hits });
        };

        // Per-shard slots, each recording its own failure and feeding the
        // query's shared heap. Empty shards are not given a task.
        let shared = SharedTopK::new(k);
        let has_docs = |s: usize| shards[s].num_docs() > 0;
        let score_slot = |s: usize, scratch: &mut ScoreScratch| {
            let (mut top, mut resolved) = (TopK::new(k, Some(&shared)), Vec::new());
            contained(|| self.score_shard(s, folded, filter, ctx, scratch, &mut resolved, &mut top))
        };
        let mut slots: Vec<Option<Result<(), SearchFailure>>> = (0..n).map(|_| None).collect();
        // Organic panics are caught inside each task (so its slot records
        // them and the other slots still run), while a panic injected at
        // the executor's own `exec.task` site fires outside that catch and
        // comes back through `try_run` — its shard's slot stays `None`.
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| has_docs(*s))
            .map(|(s, slot)| {
                let score_slot = &score_slot;
                Box::new(move || *slot = Some(ctx.with_scratch(|sc| score_slot(s, sc))))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let run_panic = exec.try_run(tasks).err();
        // Any failed slot fails the query: the survivors' hits would not be
        // bit-identical to anything. Every slot is read, so the failure
        // counts each panicked shard.
        let mut panic: Option<(String, usize)> = None;
        for (s, slot) in slots.into_iter().enumerate() {
            let message = match slot {
                Some(Ok(())) => continue,
                Some(Err(SearchFailure::Panicked { message, .. })) => message,
                None if has_docs(s) => run_panic
                    .as_ref()
                    .map(TaskPanic::message)
                    .unwrap_or_else(|| "shard task panicked".to_string()),
                None => continue,
            };
            panic.get_or_insert((message, 0)).1 += 1;
        }
        match panic {
            Some((message, shards)) => Err(SearchFailure::Panicked { message, shards }),
            None => Ok(SearchOutcome {
                hits: shared.into_sorted_hits(),
            }),
        }
    }

    /// Score one shard through the shared kernel
    /// ([`crate::search`]'s dense-accumulate + bounded-top-k) against
    /// corpus-global scorers, pushing globally-identified candidates into
    /// `top` — the sweep's one heap, or a slot's, which feeds the shared
    /// one. `resolved` is the buffer the kernel resolves the terms into
    /// against the shard's own dictionary (TermIds never cross shards),
    /// reused across the sweep's shards.
    /// Scoring wall-clock accumulates into the context's [`ShardTimings`]
    /// slot `s` when present (one relaxed atomic add; no timing configured
    /// = not even a clock read).
    #[allow(clippy::too_many_arguments)]
    fn score_shard(
        &self,
        s: usize,
        folded: &FoldedTerms,
        filter: Option<&(dyn Fn(DocId) -> bool + Sync)>,
        ctx: &SearchContext,
        scratch: &mut ScoreScratch,
        resolved: &mut Vec<(Option<TermId>, usize)>,
        top: &mut TopK,
    ) {
        let start = ctx.timings.map(|_| Instant::now());
        let to_global = |local| self.index.to_global(s, local);
        score_terms_into_topk(
            &self.index.shards()[s],
            folded,
            resolved,
            scratch,
            to_global,
            filter.map(|f| f as &dyn Fn(DocId) -> bool),
            ctx.tier,
            top,
        );
        if let (Some(timings), Some(start)) = (ctx.timings, start) {
            timings.add(s, start.elapsed().as_nanos() as u64);
        }
    }

    /// Score one specific **global** document against a folded query (the
    /// accumulation [`ShardedSearcher::try_search_folded`] runs, restricted
    /// to `doc`); `buf` is the decode buffer a compressed store needs.
    /// Returns a zero-score hit when no query term matches.
    ///
    /// Sums term contributions in the folded bound order with the folded
    /// scorers, as the kernel does, so the float total is bit-identical to
    /// the document's full-search score.
    pub fn score_doc(&self, folded: &FoldedTerms, doc: DocId, buf: &mut PostingsBuf) -> Hit {
        let (s, local) = self.index.to_local(doc);
        let shard = &self.index.shards()[s];
        let mut score = 0.0;
        let mut matched_terms = 0;
        for (&(term, qtf), scorer) in folded.terms.iter().zip(&folded.scorers) {
            // One postings resolution per term (decoded through the buffer
            // on a compressed store); the doc probe is a binary search over
            // the doc-id slice.
            let postings = shard.postings_with(term, buf);
            if let Ok(p) = postings.docs.binary_search(&local) {
                score +=
                    scorer.score(shard.doc_length(local), postings.weighted_tfs[p]) * qtf as f64;
                matched_terms += 1;
            }
        }
        Hit {
            doc,
            score,
            matched_terms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::search::Searcher;
    use crate::Document;

    /// Unfiltered search on the calling thread under `ctx`.
    fn search(s: &ShardedSearcher, q: &str, k: usize, ctx: &SearchContext) -> Vec<Hit> {
        let terms = s.index.analyzer().tokenize(q);
        s.try_search_terms_where_ctx(&terms, k, None, ctx)
            .expect("no probe, no faults")
            .hits
    }

    fn corpus() -> Vec<Document> {
        let texts = [
            "star wars cast luke skywalker",
            "star trek kirk spock enterprise",
            "ocean drama george clooney",
            "star wars empire rebels",
            "heist casino brad pitt",
            "space station drama solaris",
            "cast list of the movie",
            "star cast crew",
        ];
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Document::new(format!("d{i}")).field("body", *t))
            .collect()
    }

    fn builder_with(docs: &[Document]) -> IndexBuilder {
        let mut b = IndexBuilder::new();
        b.set_field_boost("title", 2.0);
        for d in docs {
            b.add(d.clone());
        }
        b
    }

    #[test]
    fn global_ids_equal_insertion_order_for_any_shard_count() {
        let docs = corpus();
        for n in [1usize, 2, 3, 8, 16] {
            let sx = builder_with(&docs).build_sharded(n);
            assert_eq!(sx.num_docs(), docs.len(), "{n} shards");
            for (i, d) in docs.iter().enumerate() {
                assert_eq!(sx.external_id(i as DocId), Some(d.external_id.as_str()));
                assert_eq!(sx.doc_for_external(&d.external_id), Some(i as DocId));
            }
        }
    }

    #[test]
    fn global_stats_match_unsharded_bitwise() {
        let docs = corpus();
        let ix = builder_with(&docs).build();
        for n in [1usize, 2, 3, 8] {
            let sx = builder_with(&docs).build_sharded(n);
            assert_eq!(
                sx.avg_doc_length.to_bits(),
                ix.avg_doc_length().to_bits(),
                "{n} shards"
            );
            for term in ["star", "cast", "drama", "zzz"] {
                assert_eq!(sx.doc_freq(term), ix.doc_freq(term), "{term} @ {n}");
            }
            for g in 0..docs.len() as DocId {
                assert_eq!(sx.doc_length(g).to_bits(), ix.doc_length(g).to_bits());
            }
        }
    }

    #[test]
    fn sharded_search_identical_to_unsharded() {
        let docs = corpus();
        let ix = builder_with(&docs).build();
        let flat = Searcher::new(&ix, ScoringFunction::default());
        let mut scratch = ScoreScratch::new();
        for n in [1usize, 2, 3, 8] {
            let sx = builder_with(&docs).build_sharded(n);
            let sharded = ShardedSearcher::new(&sx, ScoringFunction::default());
            for q in ["star wars", "cast", "drama space", "star star cast", "zzz"] {
                let terms = ix.analyzer().tokenize(q);
                for k in [0usize, 1, 3, 100] {
                    assert_eq!(
                        search(&sharded, q, k, &SearchContext::default()),
                        flat.search_terms_with(&terms, k, &mut scratch),
                        "{q} k={k} n={n}"
                    );
                }
            }
        }
    }

    /// The reference for both the filter and `score_doc` is one exhaustive
    /// search at k = `num_docs`: every matching document with its score.
    #[test]
    fn sharded_filter_and_score_doc_agree_with_unsharded() {
        let docs = corpus();
        let exhaustive = SearchContext {
            tier: KernelTier::Exhaustive,
            ..SearchContext::default()
        };
        // filters see global ids, so one predicate works at every n
        let even = |d: DocId| d.is_multiple_of(2);
        for n in [1usize, 2, 3, 8] {
            let sx = builder_with(&docs).build_sharded(n);
            let sharded = ShardedSearcher::new(&sx, ScoringFunction::default());
            for q in ["star cast", "star wars", "drama", "zzz"] {
                let all = search(&sharded, q, docs.len(), &exhaustive);
                let terms = sx.analyzer().tokenize(q);
                let folded = sharded.fold(&terms);
                let mut buf = PostingsBuf::new();
                for k in [1usize, 2, 10] {
                    let want: Vec<Hit> = all
                        .iter()
                        .filter(|h| even(h.doc))
                        .take(k)
                        .cloned()
                        .collect();
                    let got = sharded
                        .try_search_folded(&folded, k, Some(&even), &SearchContext::default())
                        .unwrap()
                        .hits;
                    assert_eq!(got, want, "{q} k={k} n={n}");
                }
                for g in 0..docs.len() as DocId {
                    let want = all.iter().find(|h| h.doc == g).cloned().unwrap_or(Hit {
                        doc: g,
                        score: 0.0,
                        matched_terms: 0,
                    });
                    let got = sharded.score_doc(&folded, g, &mut buf);
                    assert_eq!(got.doc, g);
                    assert_eq!(got.score.to_bits(), want.score.to_bits(), "{q} doc {g}");
                    assert_eq!(got.matched_terms, want.matched_terms, "{q} doc {g}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_invariant_under_shard_count_and_sensitive_to_content() {
        let docs = corpus();
        let base = builder_with(&docs).build_sharded(1).fingerprint();
        for n in [2usize, 3, 8, 16] {
            assert_eq!(builder_with(&docs).build_sharded(n).fingerprint(), base);
        }
        // reordering documents is a different logical index
        let mut reordered = docs.clone();
        reordered.swap(0, 1);
        assert_ne!(
            builder_with(&reordered).build_sharded(4).fingerprint(),
            base
        );
        // so is changing one token
        let mut edited = docs.clone();
        edited[2] = Document::new("d2").field("body", "ocean drama george");
        assert_ne!(builder_with(&edited).build_sharded(4).fingerprint(), base);
    }

    #[test]
    fn remembered_fingerprint_survives_codec_conversions() {
        // `fingerprint()` is computed once and kept across conversions, so
        // the contract "conversions preserve it" is checked against the
        // walk itself, not against the remembered value.
        let mut index = builder_with(&corpus()).build_sharded(3);
        let flat = index.fingerprint();
        assert_eq!(index.compute_fingerprint(), flat);
        index.compress_postings();
        assert_eq!(index.compute_fingerprint(), flat);
        assert_eq!(index.fingerprint(), flat);
        index.decompress_postings();
        assert_eq!(index.compute_fingerprint(), flat);
        assert_eq!(index.clone().fingerprint(), flat);
    }

    #[test]
    fn empty_and_oversharded_indexes_are_well_behaved() {
        let ctx = SearchContext::default();
        let empty = IndexBuilder::new().build_sharded(4);
        assert_eq!(empty.num_docs(), 0);
        assert_eq!(empty.avg_doc_length, 0.0);
        let s = ShardedSearcher::new(&empty, ScoringFunction::default());
        assert!(search(&s, "star", 10, &ctx).is_empty());

        // more shards than documents: trailing shards are empty but searches
        // still see every document
        let two = builder_with(&corpus()[..2]).build_sharded(8);
        assert_eq!(two.num_shards(), 8);
        let s = ShardedSearcher::new(&two, ScoringFunction::default());
        assert_eq!(search(&s, "star", 10, &ctx).len(), 2);
    }

    #[test]
    fn timings_accumulate_one_counter_per_shard() {
        let sx = builder_with(&corpus()).build_sharded(3);
        let s = ShardedSearcher::new(&sx, ScoringFunction::default());
        let timings = ShardTimings::new(3);
        let ctx = SearchContext {
            timings: Some(&timings),
            ..SearchContext::default()
        };
        assert!(!search(&s, "star cast", 5, &ctx).is_empty());
        assert_eq!(timings.len(), 3);
        assert_eq!(timings.snapshot().len(), 3);
        // a second search adds on top (monotone accumulation)
        let before = timings.snapshot();
        search(&s, "star cast", 5, &ctx);
        let after = timings.snapshot();
        for (b, a) in before.iter().zip(&after) {
            assert!(a >= b);
        }
    }

    /// Both ways shards get scored agree bit for bit: the shared-heap
    /// sweep and the per-shard slots on the executor.
    #[test]
    fn inline_executor_and_scoped_dispatch_agree_bitwise() {
        let docs = corpus();
        let sx = builder_with(&docs).build_sharded(4);
        let s = ShardedSearcher::new(&sx, ScoringFunction::default());
        let exec = ShardExecutor::new(2);
        let pool = ScratchPool::new();
        let accept_all = |_: DocId| true;
        for q in ["star wars", "cast", "drama space", "zzz"] {
            let terms = sx.analyzer().tokenize(q);
            let run = |ctx: &SearchContext| {
                s.try_search_terms_where_ctx(&terms, 10, Some(&accept_all), ctx)
                    .unwrap()
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
            assert_eq!(inline, dispatched, "{q}");
        }
    }

    /// A shard scored into the shared heap another shard already filled —
    /// what a dispatched slot meets once a faster slot has pushed — prunes
    /// against that shard's hits: the heap ends with the same hits as a
    /// merge of each shard's own top k, and Block-Max walks fewer postings.
    #[test]
    fn a_shard_prunes_against_the_hits_another_shard_pushed() {
        // Round-robin: shard 0 holds the even documents, whose first twenty
        // are `spike`-heavy; shard 1 holds weak matches and ten slightly
        // longer `spike`-heavy ones, whose blocks it still has to load.
        let docs: Vec<Document> = (0..4_000)
            .map(|i| {
                let text = match i {
                    _ if i < 40 && i % 2 == 0 => "spike spike spike hot".to_string(),
                    _ if i % 400 == 1 => "spike spike spike hot f1".to_string(),
                    _ if i % 3 == 0 => format!("hot f{} spike f{}", i % 7, i % 11),
                    _ => format!("hot f{} f{}", i % 7, i % 11),
                };
                Document::new(format!("d{i}")).field("body", text)
            })
            .collect();
        let sx = builder_with(&docs).build_sharded(2);
        let s = ShardedSearcher::new(&sx, ScoringFunction::default());
        let terms = sx.analyzer().tokenize("spike hot");
        let folded = s.fold(&terms);
        let ctx = SearchContext::default();
        // Score `order` as slots feeding one shared heap, one after the
        // other; the postings the last shard walked.
        let walk = |order: &[usize]| {
            let (shared, mut scratch, mut walked) = (SharedTopK::new(10), ScoreScratch::new(), 0);
            for &shard in order {
                let before = scratch.postings_visited();
                let mut top = TopK::new(10, Some(&shared));
                s.score_shard(
                    shard,
                    &folded,
                    None,
                    &ctx,
                    &mut scratch,
                    &mut Vec::new(),
                    &mut top,
                );
                walked = scratch.postings_visited() - before;
            }
            (shared.into_sorted_hits(), walked)
        };
        let (first, _) = walk(&[0]);
        let (alone, walked_alone) = walk(&[1]);
        let (shared, walked_after) = walk(&[0, 1]);
        let mut merged = TopK::new(10, None);
        first
            .into_iter()
            .chain(alone)
            .for_each(|hit| merged.push(hit));
        assert_eq!(shared, merged.into_sorted_hits());
        assert_eq!(shared, search(&s, "spike hot", 10, &ctx));
        assert_eq!((walked_alone, walked_after), (1_269, 667));
    }

    #[test]
    fn duplicate_externals_resolve_to_first_inserted_across_shards() {
        let mut b = IndexBuilder::new();
        b.add(Document::new("dup").field("body", "one"));
        b.add(Document::new("dup").field("body", "two"));
        b.add(Document::new("dup").field("body", "three"));
        let sx = b.build_sharded(2);
        assert_eq!(sx.doc_for_external("dup"), Some(0));
    }
}
