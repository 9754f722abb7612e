//! Top-k ranked retrieval over an [`Index`]: the flat scoring kernel.
//!
//! One query runs in three dense passes, shared verbatim by the unsharded
//! [`Searcher`] and the per-shard loop of [`crate::ShardedSearcher`]:
//!
//! 1. **Fold and resolve.** [`FoldedTerms`] folds each distinct query
//!    term's statistics once into a [`TermScorer`] (the IDF `ln()` is paid
//!    here, not per posting), plus a per-term **score upper bound**
//!    ([`TermScorer::max_score`] × query multiplicity), and sorts the terms
//!    by bound, descending (ties by first occurrence in the query) — this
//!    bound order is the canonical accumulation sequence. Each index the
//!    query runs on then resolves the terms through its own dictionary
//!    once ([`Index::term_id`]).
//! 2. **Accumulate** over each term's CSR postings slices into a dense
//!    [`ScoreScratch`]: `Vec`-indexed score/matched-count slots with epoch
//!    tags, so the buffer is reused across queries without clearing. Once
//!    the running top-k threshold strictly exceeds the cumulative bound of
//!    the remaining tail terms, the kernel stops admitting **new**
//!    documents (MaxScore early termination): tail terms only update
//!    already-touched candidates, either by an epoch-checked walk or by
//!    binary-searching each candidate in the postings, whichever is
//!    cheaper.
//! 3. **Select** the top `k` with a bounded heap ordered by `rank_hits`
//!    instead of sorting every matched document.
//!
//! # Kernel tiers
//!
//! Three tiers run the same query ([`KernelTier`]), strongest first:
//!
//! - **Block-max** (the default): document-at-a-time traversal over the
//!   frozen per-block bound lanes (`BlockLanes` in `crate::index`). The
//!   essential prefix of the bound order advances with skip-to-geq cursors
//!   over block boundaries (galloping inside a block); non-essential terms
//!   are probed only for candidates their bounds admit. A candidate is
//!   scored only when it can beat the running top-k threshold θ̂ twice
//!   over: first the essential cursors' block bounds (each the scorer at
//!   the block's largest tf and shortest document length,
//!   [`TermScorer::block_bound`]) plus the non-essential suffix, then the
//!   bound at **every** term's block — each non-essential cursor moved
//!   through the lane onto the block that may hold the candidate, unloaded,
//!   adding 0 if its next posting lies past it. When either cannot, whole
//!   runs of documents are skipped, without decoding their blocks.
//! - **MaxScore**: term-at-a-time accumulation that stops admitting new
//!   documents once θ̂ strictly exceeds the remaining tail-bound suffix.
//! - **Exhaustive**: walk every posting (the reference kernel).
//!
//! # The pruning invariant
//!
//! Every tier's output is **bit-identical** to the exhaustive kernel's.
//! All tiers score a document by the same bound-descending term order, so
//! every surviving document's score is the same floating-point sum in the
//! same sequence; a document is only skipped when its best possible score
//! (the margin-inflated bound suffix, or the block-max upper bound) is
//! *strictly* below the threshold, so it could never have displaced a kept
//! hit even on the doc-id tiebreak. The block-max bound at every term's
//! block sums the same margin-inflated per-term bounds in the same bound
//! order as the score it bounds (0 where a term cannot match), and float
//! addition is monotone, so it holds for the float sum too; a run of
//! documents is skipped only up to the first doc id where some term's
//! block, or its next posting, could change that bound. The bounds are pure functions of
//! corpus-global statistics and the query, hence identical at every shard
//! count, codec, and dispatch mode. Property-tested against a naive
//! reference in `tests/prop_ir.rs` and held by the CI determinism gate,
//! which diffs block-max, forced-MaxScore, and forced-exhaustive
//! transcripts against one another.

use crate::document::DocId;
use crate::index::{BlockLanes, Index, PostingsBuf, TermId};
use crate::score::{ScoringFunction, TermScorer, TermStats};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Internal document id (resolve with [`Index::external_id`]).
    pub doc: DocId,
    /// Accumulated relevance score.
    pub score: f64,
    /// How many distinct query terms matched the document.
    pub matched_terms: usize,
}

/// Which scoring kernel runs a query. Every tier returns bit-identical
/// hits (see the module docs); the tiers differ only in how many postings
/// they touch. The engine selects one with `QUNITS_KERNEL`, mostly so the
/// CI determinism gate can diff all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelTier {
    /// Block-max document-at-a-time skipping over the frozen block lanes
    /// (the production default — walks the fewest postings).
    #[default]
    BlockMax,
    /// MaxScore term pruning: whole tail terms stop admitting new
    /// documents, but surviving lists are walked in full.
    MaxScore,
    /// Walk every posting of every query term (the reference kernel).
    Exhaustive,
}

/// Executes queries against a borrowed index.
///
/// A `Searcher` is a stateless view (`&Index` + a copyable scoring config):
/// construct one per thread, or share one across threads — both are safe
/// and equivalent. Asserted `Send + Sync` below. Mutable query state lives
/// in the caller's [`ScoreScratch`] (see [`Searcher::search_terms_with`]).
#[derive(Debug, Clone)]
pub struct Searcher<'a> {
    index: &'a Index,
    scoring: ScoringFunction,
    tier: KernelTier,
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Searcher<'static>>();
const _: () = assert_send_sync::<ScratchPool>();

/// De-duplicate query terms in **first-occurrence order**, remembering
/// multiplicity (a repeated query term contributes proportionally).
///
/// First-occurrence position is the tiebreak when two terms have equal
/// score bounds (see [`bound_order`]), so the full accumulation order —
/// and with it every floating-point sum — stays a pure function of the
/// query text. Queries are a handful of terms, hence the quadratic scan
/// instead of a map.
fn dedup_terms(terms: &[impl AsRef<str>]) -> Vec<(&str, usize)> {
    let mut out: Vec<(&str, usize)> = Vec::with_capacity(terms.len());
    for t in terms.iter().map(AsRef::as_ref) {
        match out.iter_mut().find(|(s, _)| *s == t) {
            Some((_, c)) => *c += 1,
            None => out.push((t, 1)),
        }
    }
    out
}

/// The canonical accumulation order: indices into `bounds` sorted by bound
/// **descending**, ties broken by ascending position (= first occurrence
/// in the query, via [`dedup_terms`]). [`FoldedTerms::new`], the one fold,
/// permutes the terms through this order, and every scoring path — pruned,
/// exhaustive, sharded, and the single-document
/// [`crate::ShardedSearcher::score_doc`] — reads its terms from a fold, so
/// per-document floating-point sums are identical everywhere. The sharded
/// fold's bounds derive from corpus-global statistics, making the order
/// shard-count invariant.
fn bound_order(bounds: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_by(|&a, &b| {
        bounds[b]
            .partial_cmp(&bounds[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// A query's distinct terms folded once: each term with its multiplicity,
/// its scorer and its score upper bound, in the canonical accumulation
/// order (`bound_order`), plus the dispatch decision's work estimate.
/// [`crate::ShardedSearcher::fold`] folds against corpus-global statistics
/// and [`Searcher::search_terms_with`] against its index's own; every kernel
/// run and every [`crate::ShardedSearcher::score_doc`] call of the query
/// reads the one value.
#[derive(Debug, Clone)]
pub struct FoldedTerms<'t> {
    /// Distinct terms and their multiplicity, in bound order.
    pub(crate) terms: Vec<(&'t str, usize)>,
    /// One scorer per term, parallel to `terms`.
    pub(crate) scorers: Vec<TermScorer>,
    /// One score upper bound per term (multiplicity included), parallel to
    /// `terms` and descending.
    pub(crate) bounds: Vec<f64>,
    /// Sum of the terms' document frequencies.
    pub(crate) estimated_postings: usize,
}

impl<'t> FoldedTerms<'t> {
    /// Fold analyzed query terms: [`dedup_terms`], then each distinct term's
    /// scorer from the [`TermStats`] `stats` gives for it and its bound from
    /// the largest weighted tf it gives, all permuted into [`bound_order`].
    /// The bit pattern of every score follows from `stats`, so callers that
    /// must agree (every shard, every shard count) pass the same statistics.
    pub(crate) fn new(
        terms: &'t [impl AsRef<str>],
        scoring: ScoringFunction,
        stats: impl Fn(&str) -> (TermStats, f64),
    ) -> Self {
        let deduped = dedup_terms(terms);
        let mut estimated_postings = 0usize;
        let mut bounds: Vec<f64> = Vec::with_capacity(deduped.len());
        let scorers: Vec<TermScorer> = deduped
            .iter()
            .map(|(t, qtf)| {
                let (stats, max_weighted_tf) = stats(t);
                estimated_postings += stats.doc_freq;
                let scorer = scoring.scorer(stats);
                bounds.push(scorer.max_score(max_weighted_tf) * *qtf as f64);
                scorer
            })
            .collect();
        let order = bound_order(&bounds);
        FoldedTerms {
            terms: order.iter().map(|&i| deduped[i]).collect(),
            scorers: order.iter().map(|&i| scorers[i]).collect(),
            bounds: order.iter().map(|&i| bounds[i]).collect(),
            estimated_postings,
        }
    }
}

/// The ranking order of hits: descending score, ties broken by ascending
/// doc id — the one order of [`TopK`], the only top-k selection, so every
/// search path orders identical score sets identically. Total on distinct
/// documents — the doc-id tiebreak means no two hits ever compare `Equal` —
/// which is what makes bounded top-k selection equivalent to
/// sort-everything-then-truncate.
pub(crate) fn rank_hits(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.doc.cmp(&b.doc))
}

/// One document's accumulator slot (see [`ScoreScratch`]). 16 bytes, so a
/// doc's score, match count, and liveness tag share a cache line touch.
#[derive(Debug, Clone, Copy, Default)]
struct DocAcc {
    score: f64,
    matched: u32,
    /// Slot is live iff this equals the scratch's current epoch.
    epoch: u32,
}

/// Reusable dense accumulation state for the scoring kernel.
///
/// Holds one `DocAcc` slot per document, indexed directly by local
/// [`DocId`] — no hashing — plus the list of documents touched by the
/// current query. Instead of zeroing `num_docs` slots per query, each query
/// bumps an **epoch**: a slot whose tag differs from the current epoch is
/// logically empty and is re-initialized on first touch. On the (once per
/// 4 billion queries) epoch wrap every tag is reset for real.
///
/// # Reuse rules
///
/// - A scratch may be reused across queries, indexes, and shards of any
///   size (it grows to the largest `num_docs` it has served, and never
///   shrinks).
/// - It is plain mutable state: one query at a time per scratch. Share
///   scratches across threads through a [`ScratchPool`], not `&mut`.
/// - Droppable at any time; it caches no index content, only capacity.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    acc: Vec<DocAcc>,
    touched: Vec<DocId>,
    epoch: u32,
    /// Workspace for the k-th-best-partial threshold probe.
    thresh: Vec<f64>,
    /// Cumulative postings accumulated (full walks, pruned probes, and
    /// block-max cursor steps alike) across this scratch's lifetime. Never
    /// reset by `begin` — callers diff before/after a query to measure one
    /// kernel run.
    postings_visited: u64,
    /// Blocks the block-max kernel bypassed via the bound lanes without
    /// loading (or, compressed, decoding) them. Cumulative like
    /// `postings_visited`.
    blocks_skipped: u64,
    /// Blocks the block-max kernel actually loaded and walked. Cumulative.
    blocks_scored: u64,
    /// Per-term decode buffer for [`crate::PostingsCodec::DeltaVarint`]
    /// indexes; untouched (and unallocated) under the flat codec. Lives in
    /// the scratch so one allocation serves a whole workload.
    decode: PostingsBuf,
    /// Per-cursor block decode buffers for the block-max kernel (one per
    /// query term under the compressed codec; unallocated under flat).
    block_bufs: Vec<PostingsBuf>,
}

impl ScoreScratch {
    /// An empty scratch; it sizes itself to each query's index.
    pub fn new() -> Self {
        ScoreScratch::default()
    }

    /// Cumulative count of postings accumulated through this scratch —
    /// full-walk postings, pruned-mode probes, and block-max cursor steps
    /// all count one each. Monotone across queries; diff two readings to
    /// meter one search.
    pub fn postings_visited(&self) -> u64 {
        self.postings_visited
    }

    /// Cumulative count of blocks the block-max kernel bypassed through
    /// the bound lanes without loading them (a skipped block is never
    /// varint-decoded). Monotone; diff two readings to meter one search.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Cumulative count of blocks the block-max kernel loaded and walked.
    /// Monotone; diff two readings to meter one search.
    pub fn blocks_scored(&self) -> u64 {
        self.blocks_scored
    }

    /// Start a query over `num_docs` documents: grow if needed, invalidate
    /// every slot by bumping the epoch, forget the touched list.
    fn begin(&mut self, num_docs: usize) {
        if self.acc.len() < num_docs {
            self.acc.resize(num_docs, DocAcc::default());
        }
        if self.epoch == u32::MAX {
            // Wrap: tags from 4B queries ago could collide with a fresh
            // epoch, so pay one full reset and restart the cycle.
            self.acc.fill(DocAcc::default());
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Add one posting's contribution to `doc` (first touch initializes).
    #[inline]
    fn add(&mut self, doc: DocId, score: f64) {
        let slot = &mut self.acc[doc as usize];
        if slot.epoch == self.epoch {
            slot.score += score;
            slot.matched += 1;
        } else {
            *slot = DocAcc {
                score,
                matched: 1,
                epoch: self.epoch,
            };
            self.touched.push(doc);
        }
    }

    /// The k-th best partial score among the documents touched so far —
    /// a lower bound on the final top-k threshold (partials only grow),
    /// valid only for unfiltered queries. Caller guarantees
    /// `touched.len() >= k >= 1`.
    fn kth_best_partial(&mut self, k: usize) -> f64 {
        let ScoreScratch {
            acc,
            touched,
            thresh,
            ..
        } = self;
        thresh.clear();
        thresh.extend(touched.iter().map(|&d| acc[d as usize].score));
        let (_, kth, _) = thresh.select_nth_unstable_by(k - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        *kth
    }
}

/// Hard cap on [`ScratchPool`]'s free list. A one-time burst of pooled
/// threads used to pin `threads × num_docs`-sized buffers forever; now
/// `put` drops returns beyond the cap and steady-state memory is bounded
/// by the cap, not the historical peak.
const MAX_POOLED_SCRATCHES: usize = 32;

/// A lock-protected free list of [`ScoreScratch`] buffers, so shard tasks
/// draw warm buffers whichever executor worker (or helping caller) runs
/// them, instead of one thread-local scratch per thread that ever scored.
///
/// `take` pops a warm scratch (or makes a cold one), `put` returns it —
/// keeping at most `MAX_POOLED_SCRATCHES` buffers. The lock is held only
/// for the pop/push, never while scoring.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<ScoreScratch>>,
}

impl ScratchPool {
    /// An empty pool; buffers are created on demand and kept on `put`.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Pop a scratch, or create a fresh one if the pool is empty (also the
    /// fallback if the lock was poisoned by a panicking scorer thread —
    /// scratches hold no cross-query state, so a fresh one is always safe).
    pub fn take(&self) -> ScoreScratch {
        self.free
            .lock()
            .map(|mut v| v.pop().unwrap_or_default())
            .unwrap_or_default()
    }

    /// Return a scratch for the next `take` to reuse warm. Dropped instead
    /// if the free list is already at `MAX_POOLED_SCRATCHES`.
    pub fn put(&self, scratch: ScoreScratch) {
        if let Ok(mut v) = self.free.lock() {
            if v.len() < MAX_POOLED_SCRATCHES {
                v.push(scratch);
            }
        }
    }
}

thread_local! {
    /// Default scratch for sharded searches whose context carries no
    /// [`ScratchPool`]: long-lived caller threads get cross-query buffer
    /// reuse for free.
    static THREAD_SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::new());
}

/// Run `f` with the calling thread's default scratch. Falls back to a fresh
/// buffer if the thread-local is already borrowed (a filter callback that
/// recursively searches on the same thread must not panic the outer query).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut ScoreScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScoreScratch::new()),
    })
}

/// Bounded top-k selection under [`rank_hits`]: a max-heap of the k kept
/// hits whose top is the *worst* kept hit, so each candidate costs O(log k)
/// and non-contenders cost O(1) — versus sorting all `m` matches at
/// O(m log m). Because `rank_hits` totally orders distinct documents, the
/// selected set and its final sorted order are exactly the full sort's
/// first k entries — and that holds no matter how candidates are batched
/// into it. So it is the one selection every search makes: the unsharded
/// search and the sharded inline sweep feed one `TopK`, and each dispatched
/// shard its own, passing every hit it keeps on to a [`SharedTopK`].
pub(crate) struct TopK<'s> {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
    shared: Option<&'s SharedTopK>,
}

/// A dispatched query's one top-k, a `TopK` behind a mutex that every
/// shard's [`TopK`] feeds at once with the hits it keeps (so a query whose
/// candidates all tie does not lock once per candidate); only hits its
/// published threshold admits take the lock.
pub(crate) struct SharedTopK {
    top: Mutex<TopK<'static>>,
    /// Bits of the kept k-th score once full and > 0, else 0. Non-negative
    /// floats' bits order like the floats, so `fetch_max` keeps the highest
    /// published, never above the current threshold, which only rises.
    /// Relaxed: it publishes no other data, and a stale read prunes less.
    threshold: AtomicU64,
}

/// Heap wrapper ordering hits so the max-heap's top is the worst-ranked.
struct WorstFirst(Hit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // rank_hits: Less = ranks first. Greater = ranks later = "larger"
        // here, so BinaryHeap::peek is the worst kept hit.
        rank_hits(&self.0, &other.0)
    }
}

impl<'s> TopK<'s> {
    /// A heap of `k`, passing every hit it keeps on to `shared` if given.
    pub(crate) fn new(k: usize, shared: Option<&'s SharedTopK>) -> Self {
        TopK {
            k,
            // k can be usize::MAX-ish ("give me everything"); don't let a
            // huge request pre-allocate a huge heap.
            heap: BinaryHeap::with_capacity(k.min(1024)),
            shared,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, hit: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit.clone()));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank_hits(&hit, &worst.0) != std::cmp::Ordering::Less {
                return;
            }
            *worst = WorstFirst(hit.clone());
        }
        if let Some(shared) = self.shared {
            shared.push(hit);
        }
    }

    /// The top-k admission threshold: the worst kept score once the heap
    /// holds `k` hits, or the shared heap's published one if higher; `None`
    /// while neither is full. Block-Max pushes while it traverses; the
    /// accumulating tiers see only other shards' hits during their run.
    pub(crate) fn full_threshold(&self) -> Option<f64> {
        let full = self.k > 0 && self.heap.len() >= self.k;
        let own = self.heap.peek().filter(|_| full).map(|w| w.0.score);
        let shared = self.shared.and_then(SharedTopK::threshold);
        own.map_or(shared, |t| Some(shared.map_or(t, |s| t.max(s))))
    }

    /// The kept hits, best first.
    pub(crate) fn into_sorted_hits(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
        hits.sort_by(rank_hits);
        hits
    }
}

impl SharedTopK {
    pub(crate) fn new(k: usize) -> Self {
        SharedTopK {
            top: Mutex::new(TopK::new(k, None)),
            threshold: AtomicU64::new(0),
        }
    }

    fn push(&self, hit: Hit) {
        if self.threshold().is_some_and(|t| hit.score < t) {
            return;
        }
        // A poisoned heap belongs to a failed query; no push stops half-way.
        let mut top = self.top.lock().unwrap_or_else(PoisonError::into_inner);
        top.push(hit);
        if let Some(t) = top.full_threshold().filter(|&t| t > 0.0) {
            self.threshold.fetch_max(t.to_bits(), Relaxed);
        }
    }

    fn threshold(&self) -> Option<f64> {
        let bits = self.threshold.load(Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    pub(crate) fn into_sorted_hits(self) -> Vec<Hit> {
        let top = self.top.into_inner();
        top.unwrap_or_else(PoisonError::into_inner)
            .into_sorted_hits()
    }
}

/// The best lower bound available on the final top-k threshold, or `None`
/// when nothing bounds it yet. Combines the heap threshold (valid always:
/// kept scores only improve, and the other shards pushing into the same
/// heap hold documents distinct from this one's) with the k-th best
/// partial among touched documents (valid only unfiltered — a selective
/// filter could make the true filtered threshold lower than any partial).
fn current_threshold(top: &TopK, scratch: &mut ScoreScratch, unfiltered: bool) -> Option<f64> {
    let heap = top.full_threshold();
    let partial = if unfiltered && top.k > 0 && scratch.touched.len() >= top.k {
        Some(scratch.kth_best_partial(top.k))
    } else {
        None
    };
    match (heap, partial) {
        (Some(h), Some(p)) => Some(h.max(p)),
        (h, p) => h.or(p),
    }
}

/// Work counters local to one block-max kernel run; flushed into the
/// [`ScoreScratch`] meters when the run ends.
#[derive(Default)]
struct BlockMeter {
    /// In-block cursor steps (each counts one posting visited).
    steps: u64,
    /// Blocks bypassed via the bound lanes without loading.
    skipped: u64,
    /// Blocks loaded (and, compressed, decoded). Each load also counts one
    /// posting visited — the landing posting the cursor reads first; steps
    /// cover the rest — so a fully-walked block costs exactly its length,
    /// the same accounting as the term-at-a-time kernels.
    scored: u64,
}

/// A document-at-a-time read head over one query term's postings, skipping
/// at block granularity through the frozen [`BlockLanes`].
///
/// The cursor is **lazy**: positioning on a block costs nothing (the
/// candidate doc id is answered from the `first_docs` lane), and the
/// block's postings are only loaded — for the compressed codec, decoded
/// into the cursor's own buffer — when the cursor actually steps into or
/// probes the block. A block the traversal bounds away is bypassed through
/// the `last_docs` lane and never touched.
struct BlockCursor<'a> {
    tid: TermId,
    /// The term's whole CSR row under the flat codec (zero-copy); `None`
    /// under the compressed codec (blocks decode into `buf` on load).
    flat: Option<(&'a [DocId], &'a [f64])>,
    lanes: &'a BlockLanes,
    /// The term's global block range in the lanes.
    blk_lo: usize,
    blk_hi: usize,
    /// Term document frequency (the CSR row length).
    df: usize,
    /// Currently positioned block (global index); `blk_hi` = exhausted.
    cur: usize,
    /// Position within the current block.
    pos: usize,
    /// Postings in the current block.
    len: usize,
    /// Whether the current block's postings are loaded (always true once
    /// `pos > 0`).
    loaded: bool,
    /// Score upper bound of the current block: the scorer's block bound at
    /// the block's max weighted tf and shortest document length, × query
    /// multiplicity.
    bound: f64,
    /// Decode target for the current block (compressed codec only).
    buf: PostingsBuf,
    scorer: TermScorer,
    qtf: f64,
}

impl<'a> BlockCursor<'a> {
    fn new(index: &'a Index, tid: TermId, scorer: TermScorer, qtf: f64, buf: PostingsBuf) -> Self {
        let lanes = index.raw_blocks();
        let range = lanes.term_blocks(tid as usize);
        let mut cursor = BlockCursor {
            tid,
            flat: index.flat_row(tid),
            lanes,
            blk_lo: range.start,
            blk_hi: range.end,
            df: index.doc_freq_of(tid),
            cur: range.start,
            pos: 0,
            len: 0,
            loaded: false,
            bound: 0.0,
            buf,
            scorer,
            qtf,
        };
        if !cursor.exhausted() {
            cursor.position(range.start);
        }
        cursor
    }

    #[inline]
    fn exhausted(&self) -> bool {
        self.cur == self.blk_hi
    }

    /// Last doc id of the current block (the skip lane).
    #[inline]
    fn last_doc(&self) -> DocId {
        self.lanes.last_docs[self.cur]
    }

    /// Point at the head of block `blk` without loading its postings.
    fn position(&mut self, blk: usize) {
        let bs = self.lanes.block_size;
        self.cur = blk;
        self.pos = 0;
        self.loaded = false;
        self.len = (self.df - (blk - self.blk_lo) * bs).min(bs);
        let min_len = f64::from(self.lanes.min_lens[blk]);
        self.bound = self.scorer.block_bound(self.lanes.max_tfs[blk], min_len) * self.qtf;
    }

    /// Load the current block's postings (decode under the compressed
    /// codec). The one place `blocks_scored` counts.
    fn ensure_loaded(&mut self, index: &'a Index, meter: &mut BlockMeter) {
        if !self.loaded {
            if self.flat.is_none() {
                index.block_postings_with(self.tid, self.cur, &mut self.buf);
            }
            self.loaded = true;
            meter.scored += 1;
        }
    }

    /// Doc id under the read head. Answered from the `first_docs` lane
    /// while the block is unloaded (the head of a block is its first doc).
    #[inline]
    fn doc(&self) -> DocId {
        if !self.loaded {
            debug_assert_eq!(self.pos, 0);
            return self.lanes.first_docs[self.cur];
        }
        match self.flat {
            Some((docs, _)) => docs[(self.cur - self.blk_lo) * self.lanes.block_size + self.pos],
            None => self.buf.docs[self.pos],
        }
    }

    /// Weighted tf under the read head (requires a loaded block).
    #[inline]
    fn wtf(&self) -> f64 {
        match self.flat {
            Some((_, tfs)) => tfs[(self.cur - self.blk_lo) * self.lanes.block_size + self.pos],
            None => self.buf.tfs[self.pos],
        }
    }

    /// The current block's doc ids (requires a loaded block).
    #[inline]
    fn block_docs(&self) -> &[DocId] {
        match self.flat {
            Some((docs, _)) => {
                let start = (self.cur - self.blk_lo) * self.lanes.block_size;
                &docs[start..start + self.len]
            }
            None => &self.buf.docs[..self.len],
        }
    }

    /// Move onto the first block whose last doc id is **not** `too_small`,
    /// bypassing whole blocks through the `last_docs` lane without loading
    /// any. Returns `false` when the term is exhausted.
    fn skip_blocks(&mut self, too_small: impl Fn(DocId) -> bool, meter: &mut BlockMeter) -> bool {
        if self.exhausted() {
            return false;
        }
        if too_small(self.last_doc()) {
            // The rest of this block is too small: jump through the lane.
            // `partition_point` over the ascending last-doc lane finds the
            // first later block that can contain the target.
            if !self.loaded {
                meter.skipped += 1;
            }
            let rel =
                self.lanes.last_docs[self.cur + 1..self.blk_hi].partition_point(|&d| too_small(d));
            meter.skipped += rel as u64;
            let next = self.cur + 1 + rel;
            if next == self.blk_hi {
                self.cur = self.blk_hi;
                return false;
            }
            self.position(next);
        }
        true
    }

    /// Advance to the first posting whose doc id is **not** `too_small`:
    /// [`BlockCursor::skip_blocks`], then a seek inside the block. `too_small`
    /// must hold on a prefix of ascending doc ids (`d < t` for seek-geq,
    /// `d <= t` for seek-strictly-past). Returns `false` when the term is
    /// exhausted. The in-block seek gallops from the read head (most seeks
    /// land one or two postings on) and counts **one** posting visit per
    /// landing — mirroring the MaxScore kernel's candidate-driven probe
    /// accounting ([`prune_accumulate`]), so a one-step-at-a-time walk
    /// still costs exactly the block length (the load plus `len − 1`
    /// landings) while a far probe costs one.
    fn advance_while(
        &mut self,
        index: &'a Index,
        too_small: impl Fn(DocId) -> bool,
        meter: &mut BlockMeter,
    ) -> bool {
        if !self.skip_blocks(&too_small, meter) {
            return false;
        }
        if too_small(self.doc()) {
            self.ensure_loaded(index, meter);
            // The block's last doc is not too small, so the gallop stops
            // inside it: every doc before `lo` is too small, `hi`'s is not.
            let docs = self.block_docs();
            let (mut lo, mut hi, mut step) = (self.pos + 1, self.pos + 1, 1);
            while too_small(docs[hi]) {
                lo = hi + 1;
                hi = (hi + step).min(docs.len() - 1);
                step *= 2;
            }
            self.pos = lo + docs[lo..hi].partition_point(|&x| too_small(x));
            meter.steps += 1;
        }
        true
    }
}

/// The block-max document-at-a-time kernel ([`KernelTier::BlockMax`]).
///
/// Terms arrive permuted into bound order (like every kernel). The prefix
/// `terms[..p]` is *essential*: a document matching none of them has upper
/// bound at most `suffix[p]`, which the running threshold θ̂ already beats
/// (p only shrinks as θ̂ grows — the exact MaxScore engagement rule).
/// Essential cursors advance document-at-a-time; their minimum current doc
/// is the next candidate `d`, upper-bounded by `suffix[p]` plus the block
/// bounds of the essential cursors sitting on `d`, and — once that passes —
/// again by those block bounds plus each non-essential term's bound at the
/// block that may hold `d` (0 if its next posting lies past `d`). If a
/// bound cannot strictly beat θ̂, every document up to the earliest end of
/// the blocks (or gaps) it read is skipped, capped by the next essential
/// doc; otherwise `d` is scored across **all** terms in bound order — the
/// same float sum, in the same sequence, as the exhaustive kernel — and
/// pushed into `top` directly (candidates arrive in ascending doc order,
/// and [`TopK`] selection is push-order independent, so the final hits are
/// identical).
fn block_max_accumulate(
    index: &Index,
    terms: &[(Option<TermId>, usize)],
    folded: &FoldedTerms,
    scratch: &mut ScoreScratch,
    to_global: &dyn Fn(DocId) -> DocId,
    filter: Option<&dyn Fn(DocId) -> bool>,
    top: &mut TopK,
) {
    // Same reverse-summed suffix lane as the MaxScore path: suffix[i] is
    // the best score a document matching only terms[i..] could reach.
    let mut suffix = vec![0.0f64; terms.len() + 1];
    for i in (0..terms.len()).rev() {
        suffix[i] = suffix[i + 1] + folded.bounds[i];
    }
    let lengths = index.doc_lengths();
    let meter = &mut BlockMeter::default();
    let mut bufs = std::mem::take(&mut scratch.block_bufs);
    let mut cursors: Vec<Option<BlockCursor>> = terms
        .iter()
        .zip(&folded.scorers)
        .map(|(&(tid, qtf), &scorer)| {
            let tid = tid?;
            if index.doc_freq_of(tid) == 0 {
                return None;
            }
            Some(BlockCursor::new(
                index,
                tid,
                scorer,
                qtf as f64,
                bufs.pop().unwrap_or_default(),
            ))
        })
        .collect();
    // Essential prefix size: terms[p..] alone cannot beat θ̂. Starts full
    // (no threshold, no skipping) and only shrinks, like MaxScore
    // engagement — strictly-greater for the same tiebreak-safety reason.
    let mut p = cursors.len();
    loop {
        let theta = top.full_threshold();
        if let Some(theta) = theta {
            while p > 0 && theta > suffix[p - 1] {
                p -= 1;
            }
            if p == 0 {
                break;
            }
        }
        // The next candidate: minimum current doc over live essential
        // cursors — and the runner-up doc, which caps any skip.
        let mut d: Option<DocId> = None;
        let mut next_after: Option<DocId> = None;
        for c in cursors[..p].iter().flatten() {
            if c.exhausted() {
                continue;
            }
            let doc = c.doc();
            match d {
                None => d = Some(doc),
                Some(cur) if doc < cur => {
                    next_after = Some(next_after.map_or(cur, |n| n.min(cur)));
                    d = Some(doc);
                }
                Some(cur) if doc > cur => {
                    next_after = Some(next_after.map_or(doc, |n| n.min(doc)));
                }
                _ => {}
            }
        }
        let Some(d) = d else { break };
        // Upper bound on d's score: the non-essential suffix plus the
        // current block maxima of the essential cursors sitting on d. `end`
        // is the last doc every one of those blocks still covers.
        let (mut ub, mut block_ub, mut end) = (suffix[p], 0.0, DocId::MAX);
        for c in cursors[..p].iter().flatten() {
            if !c.exhausted() && c.doc() == d {
                ub += c.bound;
                block_ub += c.bound;
                end = end.min(c.last_doc());
            }
        }
        let mut beats = theta.is_none_or(|t| ub > t);
        if let Some(t) = theta.filter(|_| beats && p < cursors.len()) {
            // Bound d again with every term at its block: each non-essential
            // cursor moves through the lane onto the block that may hold d
            // (unloaded) and adds that block's bound, or 0 if its next
            // posting lies past d. Summed in bound order, so it bounds d's
            // float sum, and every doc up to the new `end` shares it.
            for c in cursors[p..].iter_mut().flatten() {
                if c.skip_blocks(|x| x < d, meter) {
                    if c.doc() <= d {
                        block_ub += c.bound;
                        end = end.min(c.last_doc());
                    } else {
                        end = end.min(c.doc() - 1);
                    }
                }
            }
            beats = block_ub > t;
        }
        if beats {
            let global = to_global(d);
            if filter.is_none_or(|f| f(global)) {
                // Score d across ALL terms in bound order — essential
                // cursors already sit on or past d, non-essential ones
                // catch up here (admitted candidates only move forward, so
                // their cursors stay monotone). Identical float sum and
                // matched count to the exhaustive kernel's slot for d.
                let mut score = 0.0f64;
                let mut matched = 0usize;
                for c in cursors.iter_mut().flatten() {
                    if c.advance_while(index, |x| x < d, meter) && c.doc() == d {
                        c.ensure_loaded(index, meter);
                        score += c.scorer.score(lengths[d as usize], c.wtf()) * c.qtf;
                        matched += 1;
                    }
                }
                top.push(Hit {
                    doc: global,
                    score,
                    matched_terms: matched,
                });
            }
            for c in cursors[..p].iter_mut().flatten() {
                if !c.exhausted() && c.doc() == d {
                    c.advance_while(index, |x| x <= d, meter);
                }
            }
        } else {
            // d (and everything sharing its blocks) cannot beat θ̂. Every
            // doc in (d, end] lies only in the blocks that bounded d — any
            // other essential cursor sits at or past `next_after` — so the
            // whole run shares (at most) d's upper bound and is skipped in
            // one seek per essential cursor.
            let cap = next_after.filter(|&nd| nd <= end);
            for c in cursors[..p].iter_mut().flatten() {
                if !c.exhausted() && c.doc() == d {
                    match cap {
                        // Seek to the runner-up candidate (≥ nd)…
                        Some(nd) => c.advance_while(index, |x| x < nd, meter),
                        // …or strictly past the earliest block end.
                        None => c.advance_while(index, |x| x <= end, meter),
                    };
                }
            }
        }
    }
    // Flush the meters and hand the decode buffers back to the scratch.
    for c in cursors.into_iter().flatten() {
        bufs.push(c.buf);
    }
    scratch.block_bufs = bufs;
    scratch.postings_visited += meter.steps + meter.scored;
    scratch.blocks_skipped += meter.skipped;
    scratch.blocks_scored += meter.scored;
}

/// Tail-term accumulation once pruning is engaged: update already-touched
/// candidates only, admitting no new documents. Touched candidates get the
/// exact same `+=` their slot would have received exhaustively (one add
/// per term per doc — cross-document order is irrelevant to the per-doc
/// float sum), so surviving scores stay bit-identical.
///
/// Two walk strategies, picked by cost: binary-search each candidate in
/// the postings (`touched × log₂(df)` probes) when the candidate list is
/// small relative to the postings, else an epoch-checked walk over the
/// full postings slice. Both count toward `postings_visited` per element
/// walked.
fn prune_accumulate(
    scratch: &mut ScoreScratch,
    lengths: &[f64],
    docs: &[DocId],
    tfs: &[f64],
    scorer: &TermScorer,
    qtf: f64,
) {
    let ScoreScratch {
        acc,
        touched,
        epoch,
        postings_visited,
        ..
    } = scratch;
    let df = docs.len();
    let bitlen = (usize::BITS - df.leading_zeros()) as usize;
    if touched.len().saturating_mul(bitlen + 1) < df {
        // Candidate-driven: probe each touched doc against the postings.
        for &doc in touched.iter() {
            if let Ok(i) = docs.binary_search(&doc) {
                // Touched docs are live by construction; no epoch check.
                let slot = &mut acc[doc as usize];
                slot.score += scorer.score(lengths[doc as usize], tfs[i]) * qtf;
                slot.matched += 1;
            }
        }
        *postings_visited += touched.len() as u64;
    } else {
        // Posting-driven: walk the slice, skipping docs with dead slots.
        let ep = *epoch;
        for (&doc, &weighted_tf) in docs.iter().zip(tfs) {
            let slot = &mut acc[doc as usize];
            if slot.epoch == ep {
                slot.score += scorer.score(lengths[doc as usize], weighted_tf) * qtf;
                slot.matched += 1;
            }
        }
        *postings_visited += df as u64;
    }
}

/// The accumulation half of the kernel: walk each resolved term's postings
/// (decoding through `decode` when the index stores them compressed) into
/// `scratch`, engaging MaxScore pruning as thresholds allow. Split out of
/// [`score_terms_into_topk`] so the decoded-postings borrow of `decode` and
/// the `&mut scratch` accumulator borrows stay disjoint.
#[allow(clippy::too_many_arguments)]
fn accumulate_terms(
    index: &Index,
    terms: &[(Option<TermId>, usize)],
    folded: &FoldedTerms,
    scratch: &mut ScoreScratch,
    filter: Option<&dyn Fn(DocId) -> bool>,
    tier: KernelTier,
    top: &TopK,
    decode: &mut PostingsBuf,
) {
    let lengths = index.doc_lengths();
    // suffix[i] = Σ bounds[i..]: the best score any document first seen at
    // term i could still reach. Summed in reverse so the value is exact up
    // to n·ε rounding — absorbed by the bounds' built-in margin.
    let mut suffix = vec![0.0f64; terms.len() + 1];
    for i in (0..terms.len()).rev() {
        suffix[i] = suffix[i + 1] + folded.bounds[i];
    }
    let mut pruning = false;
    for (i, ((tid, qtf), scorer)) in terms.iter().zip(&folded.scorers).enumerate() {
        // Strictly-greater: a doc admitted at term i can reach at most
        // suffix[i]; pruning it is only safe when even that loses to the
        // threshold outright (ties would fall through to the doc-id
        // tiebreak, which bounds know nothing about). Once engaged it
        // stays engaged — suffixes shrink and thresholds grow.
        if tier != KernelTier::Exhaustive && !pruning {
            pruning = current_threshold(top, scratch, filter.is_none())
                .is_some_and(|theta| theta > suffix[i]);
        }
        // Unknown terms have no postings.
        let Some(tid) = *tid else {
            continue;
        };
        let postings = index.postings_of_with(tid, decode);
        let qtf = *qtf as f64;
        if pruning {
            prune_accumulate(
                scratch,
                lengths,
                postings.docs,
                postings.weighted_tfs,
                scorer,
                qtf,
            );
            continue;
        }
        // Two parallel flat slices: docs ascending, tfs matched by index.
        let (docs, tfs) = (postings.docs, postings.weighted_tfs);
        for (&doc, &weighted_tf) in docs.iter().zip(tfs) {
            let score = scorer.score(lengths[doc as usize], weighted_tf) * qtf;
            scratch.add(doc, score);
        }
        scratch.postings_visited += docs.len() as u64;
    }
}

/// The scoring kernel every search path shares: accumulate the folded
/// terms' postings in `index` into `scratch`, then push the documents
/// accepted by `filter` into the caller's [`TopK`].
///
/// `folded` carries each distinct query term with its multiplicity, scorer
/// and margin-inflated score upper bound, already in [`bound_order`] (the
/// caller decides whether its statistics are index-local or
/// corpus-global). The terms are resolved against this index's own
/// dictionary into `resolved` (`None` = not in its vocabulary): one hash
/// probe per term here, none in the loops. `to_global` maps the index's
/// local doc ids into the caller's id space (identity for an unsharded
/// index); `filter` sees mapped ids, as do the pushed hits — `None` means
/// unfiltered and additionally unlocks the partial-threshold pruning probe.
///
/// Because [`rank_hits`] totally orders distinct documents, feeding
/// several indexes (the shards of a sharded search) through one `TopK`
/// yields exactly the hits that per-index selection followed by a merge
/// would — minus the per-index heaps, sorts, and hit lists; the sharded
/// inline sweep cashes that in (and its partially-full heap gives later
/// shards a head-start pruning threshold).
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_terms_into_topk(
    index: &Index,
    folded: &FoldedTerms,
    resolved: &mut Vec<(Option<TermId>, usize)>,
    scratch: &mut ScoreScratch,
    to_global: impl Fn(DocId) -> DocId,
    filter: Option<&dyn Fn(DocId) -> bool>,
    tier: KernelTier,
    top: &mut TopK,
) {
    resolved.clear();
    resolved.extend(folded.terms.iter().map(|&(t, qtf)| (index.term_id(t), qtf)));
    scratch.begin(index.num_docs());
    if tier == KernelTier::BlockMax {
        // Document-at-a-time: pushes hits into `top` itself during the
        // traversal (that's what feeds θ̂), no touched-slot sweep needed.
        block_max_accumulate(index, resolved, folded, scratch, &to_global, filter, top);
        return;
    }
    // The decode buffer leaves the scratch for the duration of the
    // accumulation loop: a decoded `Postings` view borrows the buffer,
    // while the accumulators need `&mut scratch` at the same time. Restore
    // it afterwards so the allocation keeps amortizing.
    let mut decode = std::mem::take(&mut scratch.decode);
    accumulate_terms(
        index,
        resolved,
        folded,
        scratch,
        filter,
        tier,
        top,
        &mut decode,
    );
    scratch.decode = decode;

    for &doc in &scratch.touched {
        let global = to_global(doc);
        if let Some(f) = filter {
            if !f(global) {
                continue;
            }
        }
        let slot = &scratch.acc[doc as usize];
        top.push(Hit {
            doc: global,
            score: slot.score,
            matched_terms: slot.matched as usize,
        });
    }
}

impl<'a> Searcher<'a> {
    /// New searcher with the given scoring function (pruning enabled).
    pub fn new(index: &'a Index, scoring: ScoringFunction) -> Self {
        Searcher {
            index,
            scoring,
            tier: KernelTier::default(),
        }
    }

    /// Builder: pick the scoring kernel tier explicitly (every tier
    /// returns bit-identical hits; they differ only in postings walked).
    pub fn with_tier(mut self, tier: KernelTier) -> Self {
        self.tier = tier;
        self
    }

    /// Run a query given pre-analyzed terms, returning up to `k` hits, best
    /// first. Documents must match at least one query term to appear; ties
    /// break by ascending doc id. Query state lives in the caller-owned
    /// `scratch` (see [`ScoreScratch`] for the reuse rules), so batch
    /// drivers and `tests/kernel_counters.rs` pair this with
    /// [`ScoreScratch::postings_visited`] to meter the kernel. Unfiltered,
    /// so pruning is fully armed.
    pub fn search_terms_with(
        &self,
        terms: &[impl AsRef<str>],
        k: usize,
        scratch: &mut ScoreScratch,
    ) -> Vec<Hit> {
        if k == 0 || terms.is_empty() {
            return Vec::new();
        }
        let mut top = TopK::new(k, None);
        score_terms_into_topk(
            self.index,
            &self.fold(terms),
            &mut Vec::new(),
            scratch,
            |d| d,
            None,
            self.tier,
            &mut top,
        );
        top.into_sorted_hits()
    }

    /// Fold `terms` against this index's own statistics.
    fn fold<'t>(&self, terms: &'t [impl AsRef<str>]) -> FoldedTerms<'t> {
        FoldedTerms::new(terms, self.scoring, |t| {
            (TermStats::of(self.index, t), self.index.max_weighted_tf(t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::index::{IndexBuilder, DEFAULT_BLOCK_SIZE};

    /// [`Searcher::search_terms_with`] from query text, on a fresh scratch.
    fn search(s: &Searcher, q: &str, k: usize) -> Vec<Hit> {
        let terms = s.index.analyzer().tokenize(q);
        s.search_terms_with(&terms, k, &mut ScoreScratch::new())
    }

    fn movie_index() -> Index {
        let mut b = IndexBuilder::new();
        b.set_field_boost("title", 2.0);
        b.add(
            Document::new("star-wars")
                .field("title", "Star Wars")
                .field("body", "luke skywalker darth vader rebels empire"),
        );
        b.add(
            Document::new("star-trek")
                .field("title", "Star Trek")
                .field("body", "kirk spock enterprise federation"),
        );
        b.add(
            Document::new("oceans")
                .field("title", "Ocean's Eleven")
                .field("body", "george clooney brad pitt heist casino"),
        );
        b.build()
    }

    #[test]
    fn exact_title_wins() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let hits = search(&s, "star wars", 10);
        assert_eq!(ix.external_id(hits[0].doc), Some("star-wars"));
        assert_eq!(hits[0].matched_terms, 2);
        // star trek shares one term
        assert_eq!(ix.external_id(hits[1].doc), Some("star-trek"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn body_terms_match_too() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let top = &search(&s, "george clooney", 1)[0];
        assert_eq!(ix.external_id(top.doc), Some("oceans"));
    }

    #[test]
    fn k_truncates_and_orders_descending() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let hits = search(&s, "star", 1);
        assert_eq!(hits.len(), 1);
        let all = search(&s, "star", 10);
        assert!(all.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn bounded_topk_equals_full_ranking_prefix() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let all = search(&s, "star wars george", 100);
        for k in 1..=all.len() {
            assert_eq!(search(&s, "star wars george", k), all[..k], "k={k}");
        }
    }

    /// A panic while the shared heap's lock is held poisons it; the heap
    /// keeps selecting, and its threshold and hits never panic.
    #[test]
    fn a_poisoned_shared_top_k_still_selects() {
        let shared = SharedTopK::new(2);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = shared.top.lock();
            panic!("a slot panicked while holding the heap");
        }));
        assert!(poison.is_err() && shared.top.is_poisoned());
        let mut slot = TopK::new(2, Some(&shared));
        for (doc, score) in [(0, 1.0), (1, 3.0), (2, 2.0), (3, 1.5)] {
            slot.push(Hit {
                doc,
                score,
                matched_terms: 1,
            });
        }
        assert_eq!(slot.full_threshold(), Some(2.0));
        let docs: Vec<DocId> = shared.into_sorted_hits().iter().map(|h| h.doc).collect();
        assert_eq!(docs, [1, 2]);
    }

    #[test]
    fn zero_k_and_empty_query() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        assert!(search(&s, "star", 0).is_empty());
        assert!(search(&s, "", 10).is_empty());
        assert!(search(&s, "the of", 10).is_empty()); // all stopwords
    }

    #[test]
    fn unmatched_query_returns_empty() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        assert!(search(&s, "zzzz qqqq", 10).is_empty());
    }

    #[test]
    fn explicit_scratch_reuse_matches_thread_local_path() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let mut scratch = ScoreScratch::new();
        let terms = ix.analyzer().tokenize("star wars");
        let expected = search(&s, "star wars", 10);
        // the same scratch serves many queries (and a different index size)
        for _ in 0..3 {
            let got = s.search_terms_with(&terms, 10, &mut scratch);
            assert_eq!(got, expected);
        }
        let mut small = IndexBuilder::new();
        small.add(Document::new("x").field("body", "star"));
        let small = small.build();
        let s2 = Searcher::new(&small, ScoringFunction::default());
        let t2 = small.analyzer().tokenize("star");
        assert_eq!(
            s2.search_terms_with(&t2, 5, &mut scratch),
            search(&s2, "star", 5)
        );
    }

    #[test]
    fn epoch_wrap_resets_slots() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let terms = ix.analyzer().tokenize("star wars");
        let expected = search(&s, "star wars", 10);
        let mut scratch = ScoreScratch::new();
        // Force the wrap path: pretend 2^32 - 1 queries already ran.
        scratch.epoch = u32::MAX - 1;
        let a = s.search_terms_with(&terms, 10, &mut scratch);
        // this query hits epoch == u32::MAX, the next one wraps
        let b = s.search_terms_with(&terms, 10, &mut scratch);
        let c = s.search_terms_with(&terms, 10, &mut scratch);
        assert_eq!(a, expected);
        assert_eq!(b, expected);
        assert_eq!(c, expected);
        // a ran at u32::MAX, b triggered the reset (epoch 1), c is epoch 2
        assert_eq!(scratch.epoch, 2);
    }

    #[test]
    fn scratch_pool_round_trips_buffers() {
        let pool = ScratchPool::new();
        let mut a = pool.take();
        a.begin(64); // warm it
        pool.put(a);
        let b = pool.take(); // the warm buffer comes back
        assert_eq!(b.acc.len(), 64);
        let c = pool.take(); // pool empty again → fresh
        assert_eq!(c.acc.len(), 0);
    }

    #[test]
    fn scratch_pool_free_list_is_capped() {
        let pool = ScratchPool::new();
        let burst: Vec<ScoreScratch> = (0..MAX_POOLED_SCRATCHES + 8).map(|_| pool.take()).collect();
        for s in burst {
            pool.put(s);
        }
        assert_eq!(
            pool.free.lock().unwrap().len(),
            MAX_POOLED_SCRATCHES,
            "returns beyond the cap must be dropped"
        );
        // And the pool still round-trips normally at the cap.
        let s = pool.take();
        pool.put(s);
        assert_eq!(pool.free.lock().unwrap().len(), MAX_POOLED_SCRATCHES);
    }

    #[test]
    fn tfidf_also_ranks_exact_match_first() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::TfIdf);
        let hits = search(&s, "star wars", 10);
        assert_eq!(ix.external_id(hits[0].doc), Some("star-wars"));
    }

    #[test]
    fn repeated_query_terms_increase_weight() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let once = search(&s, "star clooney", 10);
        let twice = search(&s, "star star clooney", 10);
        // doubling "star" should (weakly) promote the star documents
        let pos_once = once
            .iter()
            .position(|h| ix.external_id(h.doc) == Some("star-wars"))
            .unwrap();
        let pos_twice = twice
            .iter()
            .position(|h| ix.external_id(h.doc) == Some("star-wars"))
            .unwrap();
        assert!(pos_twice <= pos_once);
    }

    #[test]
    fn deterministic_tiebreak_by_doc_id() {
        let mut b = IndexBuilder::new();
        b.add(Document::new("a").field("body", "same text"));
        b.add(Document::new("b").field("body", "same text"));
        let ix = b.build();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let hits = search(&s, "same", 10);
        assert_eq!(ix.external_id(hits[0].doc), Some("a"));
        assert_eq!(ix.external_id(hits[1].doc), Some("b"));
        // tie + k=1 keeps the lower doc id, same as the full ranking
        assert_eq!(search(&s, "same", 1), hits[..1]);
    }

    #[test]
    fn bound_order_sorts_descending_with_first_occurrence_ties() {
        assert_eq!(bound_order(&[1.0, 3.0, 3.0, 0.5]), vec![1, 2, 0, 3]);
        assert_eq!(bound_order(&[0.0, 0.0]), vec![0, 1]);
        assert_eq!(bound_order(&[]), Vec::<usize>::new());
    }

    /// One rare term (df=3) and one ubiquitous term (df=n): after the rare
    /// term the k≤3 partial threshold dwarfs the common term's bound, so
    /// the kernel must go candidate-driven and probe the 3 touched docs
    /// instead of walking n postings — with bit-identical output.
    #[test]
    fn pruned_matches_exhaustive_and_walks_fewer_postings() {
        let mut b = IndexBuilder::new();
        for i in 0..3 {
            b.add(Document::new(format!("d{i}")).field("body", "rare common"));
        }
        for i in 3..200 {
            b.add(Document::new(format!("d{i}")).field("body", "common"));
        }
        let ix = b.build();
        let terms = ix.analyzer().tokenize("rare common");

        let pruned_searcher =
            Searcher::new(&ix, ScoringFunction::default()).with_tier(KernelTier::MaxScore);
        let exhaustive_searcher = pruned_searcher.clone().with_tier(KernelTier::Exhaustive);
        for k in [1usize, 3, 500] {
            let mut ps = ScoreScratch::new();
            let mut es = ScoreScratch::new();
            let pruned = pruned_searcher.search_terms_with(&terms, k, &mut ps);
            let exhaustive = exhaustive_searcher.search_terms_with(&terms, k, &mut es);
            // Bit-identical scores, ids, order, matched counts.
            assert_eq!(pruned.len(), exhaustive.len(), "k={k}");
            for (p, e) in pruned.iter().zip(&exhaustive) {
                assert_eq!(p.doc, e.doc, "k={k}");
                assert_eq!(p.score.to_bits(), e.score.to_bits(), "k={k}");
                assert_eq!(p.matched_terms, e.matched_terms, "k={k}");
            }
            if k < 200 {
                assert!(
                    ps.postings_visited() < es.postings_visited(),
                    "k={k}: pruned {} vs exhaustive {}",
                    ps.postings_visited(),
                    es.postings_visited()
                );
            } else {
                // k >= matched docs: the threshold never fills, no pruning.
                assert_eq!(ps.postings_visited(), es.postings_visited());
            }
        }
    }

    /// `postings_visited` is cumulative across queries on one scratch —
    /// callers meter a single search by diffing readings.
    #[test]
    fn postings_visited_accumulates_across_queries() {
        let ix = movie_index();
        let s = Searcher::new(&ix, ScoringFunction::default());
        let terms = ix.analyzer().tokenize("star wars");
        let mut scratch = ScoreScratch::new();
        s.search_terms_with(&terms, 10, &mut scratch);
        let first = scratch.postings_visited();
        assert!(first > 0);
        s.search_terms_with(&terms, 10, &mut scratch);
        assert_eq!(scratch.postings_visited(), first * 2);
    }

    /// Filtered searches keep pruning sound: the partial threshold is
    /// disabled (a filter could reject the partial leaders), and results
    /// must match the exhaustive filtered ranking exactly.
    #[test]
    fn filtered_search_matches_exhaustive_reference() {
        let mut b = IndexBuilder::new();
        b.add(Document::new("d0").field("body", "rare common"));
        for i in 1..100 {
            b.add(Document::new(format!("d{i}")).field("body", "common"));
        }
        let ix = b.build_sharded(1);
        let terms = ix.analyzer().tokenize("rare common");
        let s = crate::ShardedSearcher::new(&ix, ScoringFunction::default());
        // A filter that rejects the best partial leader (doc 0).
        let filter = |d: DocId| d != 0;
        let run = |tier: KernelTier| {
            let ctx = crate::SearchContext {
                tier,
                ..crate::SearchContext::default()
            };
            s.try_search_terms_where_ctx(&terms, 3, Some(&filter), &ctx)
                .unwrap()
                .hits
        };
        let exhaustive = run(KernelTier::Exhaustive);
        let block_max = run(KernelTier::BlockMax);
        assert_eq!(block_max, exhaustive);
        assert!(block_max.iter().all(|h| h.doc != 0));
        // MaxScore closes the triangle.
        assert_eq!(run(KernelTier::MaxScore), exhaustive);
    }

    /// The determinism triangle at the unit level: block-max ≡ MaxScore ≡
    /// exhaustive, bit-for-bit, across block sizes (1, tiny, the default
    /// 32, the old default 128, larger than any posting list), both codecs,
    /// and a k sweep — and
    /// block-max never walks more postings than the exhaustive kernel.
    #[test]
    fn block_max_matches_other_tiers_across_block_sizes_and_codecs() {
        for block_size in [1usize, 4, DEFAULT_BLOCK_SIZE, 128, 10_000] {
            for compressed in [false, true] {
                let mut b = IndexBuilder::new();
                b.set_block_size(block_size);
                for i in 0..3 {
                    b.add(Document::new(format!("d{i}")).field("body", "rare common"));
                }
                for i in 3..200 {
                    b.add(Document::new(format!("d{i}")).field("body", "common"));
                }
                let mut ix = b.build();
                if compressed {
                    ix.compress_postings();
                }
                let terms = ix.analyzer().tokenize("rare common");
                let bm = Searcher::new(&ix, ScoringFunction::default());
                let ms = bm.clone().with_tier(KernelTier::MaxScore);
                let ex = bm.clone().with_tier(KernelTier::Exhaustive);
                for k in [1usize, 3, 10, 500] {
                    let tag = format!("bs={block_size} compressed={compressed} k={k}");
                    let mut bs = ScoreScratch::new();
                    let mut mss = ScoreScratch::new();
                    let mut es = ScoreScratch::new();
                    let b_hits = bm.search_terms_with(&terms, k, &mut bs);
                    let m_hits = ms.search_terms_with(&terms, k, &mut mss);
                    let e_hits = ex.search_terms_with(&terms, k, &mut es);
                    assert_eq!(b_hits.len(), e_hits.len(), "{tag}");
                    for (b, e) in b_hits.iter().zip(&e_hits) {
                        assert_eq!(b.doc, e.doc, "{tag}");
                        assert_eq!(b.score.to_bits(), e.score.to_bits(), "{tag}");
                        assert_eq!(b.matched_terms, e.matched_terms, "{tag}");
                    }
                    assert_eq!(m_hits, e_hits, "{tag}");
                    assert!(
                        bs.postings_visited() <= es.postings_visited(),
                        "{tag}: block-max {} vs exhaustive {}",
                        bs.postings_visited(),
                        es.postings_visited()
                    );
                }
            }
        }
    }

    /// In-term skipping MaxScore cannot do: one term whose giant posting
    /// sits in its *first* block. Once that document sets θ̂, every later
    /// block's bound loses and is bypassed through the lanes — never
    /// loaded, never decoded, postings uncounted.
    #[test]
    fn block_max_skips_later_blocks_after_an_early_spike() {
        // The spike doc is short and saturated in tf, the filler docs are
        // long: BM25's length normalization puts the spike's actual score
        // above the analytic tf-1 peak that bounds every other block, so
        // θ̂ beats those bounds outright once the spike is scored.
        let mut b = IndexBuilder::new();
        b.set_block_size(4);
        b.add(Document::new("d0").field("body", "spike ".repeat(8)));
        let filler: String = (0..20).fold("spike".to_string(), |s, i| s + &format!(" w{i}"));
        for i in 1..=400 {
            b.add(Document::new(format!("d{i}")).field("body", &filler));
        }
        let mut ix = b.build();
        ix.compress_postings();
        let terms = ix.analyzer().tokenize("spike");

        let bm = Searcher::new(&ix, ScoringFunction::default());
        let ex = bm.clone().with_tier(KernelTier::Exhaustive);
        let mut bs = ScoreScratch::new();
        let mut es = ScoreScratch::new();
        let b_hits = bm.search_terms_with(&terms, 1, &mut bs);
        let e_hits = ex.search_terms_with(&terms, 1, &mut es);
        assert_eq!(b_hits.len(), 1);
        assert_eq!(b_hits[0].doc, e_hits[0].doc);
        assert_eq!(b_hits[0].score.to_bits(), e_hits[0].score.to_bits());
        // 401 postings in ~101 blocks: the spike block scores, the rest
        // skip wholesale without a varint decode.
        assert!(
            bs.blocks_skipped() > 90,
            "skipped only {} blocks",
            bs.blocks_skipped()
        );
        assert!(
            bs.postings_visited() * 10 < es.postings_visited(),
            "block-max {} vs exhaustive {}",
            bs.postings_visited(),
            es.postings_visited()
        );
        assert_eq!(es.blocks_skipped(), 0, "exhaustive never skips");
    }

    /// Two field boosts the builder used to accept broke the scorer. Boost
    /// 0.0 kept postings of tf 0: at b = 1 a document whose only field had
    /// it scored 0/0 = NaN and ranked first in every tier. Boost −1.0 made
    /// scores fall as tf grows, so the block bounds undercounted and
    /// Block-Max returned lists unlike Exhaustive's. Either boost must now
    /// be refused before an index exists; an index the builder does accept
    /// must score every hit finite and > 0, equally in every tier.
    #[test]
    fn boosts_that_break_the_bounds_never_reach_a_kernel() {
        let build = |boost: f64| {
            let mut b = IndexBuilder::new();
            b.set_block_size(2);
            b.set_field_boost("title", boost);
            for i in 0..400usize {
                let title = format!("w{} ", i % 7).repeat(1 + i % 4);
                let body: Vec<String> = (0..i % 9)
                    .map(|j| format!("w{}", (i + j * j) % 11))
                    .collect();
                b.add(
                    Document::new(format!("d{i}"))
                        .field("title", title)
                        .field("body", body.join(" ")),
                );
            }
            b.build()
        };
        for (boost, scoring) in [
            (0.0, ScoringFunction::Bm25 { k1: 1.2, b: 1.0 }),
            (-1.0, ScoringFunction::default()),
        ] {
            let Ok(ix) = std::panic::catch_unwind(|| build(boost)) else {
                continue;
            };
            for q in ["w1", "w2 w5", "w0 w3 w6", "w4 w4 w8 w10"] {
                let terms = ix.analyzer().tokenize(q);
                for k in [1usize, 3, 10] {
                    let tag = format!("boost {boost} {q:?} k={k}");
                    let exhaustive = Searcher::new(&ix, scoring)
                        .with_tier(KernelTier::Exhaustive)
                        .search_terms_with(&terms, k, &mut ScoreScratch::new());
                    assert!(
                        exhaustive
                            .iter()
                            .all(|h| h.score.is_finite() && h.score > 0.0),
                        "{tag}: {exhaustive:?}"
                    );
                    for tier in [KernelTier::BlockMax, KernelTier::MaxScore] {
                        let hits = Searcher::new(&ix, scoring)
                            .with_tier(tier)
                            .search_terms_with(&terms, k, &mut ScoreScratch::new());
                        assert_eq!(hits, exhaustive, "{tag} {tier:?}");
                    }
                }
            }
        }
    }

    /// BM25 outside `k1 >= 0`, `0 <= b <= 1` can grow with document length
    /// or shrink with tf, so neither the term bounds nor the block bounds
    /// hold there: both are `+∞`, no tier prunes, and every tier answers
    /// what the exhaustive kernel answers. 400 documents of 1 to 60 tokens.
    #[test]
    fn out_of_range_bm25_prunes_nothing_and_every_tier_agrees() {
        let mut b = IndexBuilder::new();
        b.set_block_size(16);
        for i in 0..400usize {
            let words: Vec<String> = (0..1 + (i * 37) % 60)
                .map(|j| format!("w{}", (i * 11 + j * j * 3) % 29))
                .collect();
            b.add(Document::new(format!("d{i}")).field("body", words.join(" ")));
        }
        let ix = b.build();
        for scoring in [
            ScoringFunction::Bm25 { k1: 1.2, b: 1.5 },
            ScoringFunction::Bm25 { k1: 1.2, b: -0.5 },
            ScoringFunction::Bm25 { k1: -0.5, b: 0.75 },
        ] {
            assert!(scoring.check().is_err(), "{scoring:?}");
            for q in ["w1", "w2 w5", "w0 w3 w7", "w4 w4 w28 w13"] {
                let terms = ix.analyzer().tokenize(q);
                for k in [1usize, 5, 20] {
                    let exhaustive = Searcher::new(&ix, scoring)
                        .with_tier(KernelTier::Exhaustive)
                        .search_terms_with(&terms, k, &mut ScoreScratch::new());
                    for tier in [KernelTier::BlockMax, KernelTier::MaxScore] {
                        let mut scratch = ScoreScratch::new();
                        let hits = Searcher::new(&ix, scoring)
                            .with_tier(tier)
                            .search_terms_with(&terms, k, &mut scratch);
                        let tag = format!("{scoring:?} {tier:?} {q:?} k={k}");
                        assert_eq!(hits.len(), exhaustive.len(), "{tag}");
                        for (h, e) in hits.iter().zip(&exhaustive) {
                            assert_eq!((h.doc, h.matched_terms), (e.doc, e.matched_terms), "{tag}");
                            assert_eq!(h.score.to_bits(), e.score.to_bits(), "{tag}");
                        }
                        assert_eq!(scratch.blocks_skipped(), 0, "{tag}");
                    }
                }
            }
        }
    }
}
