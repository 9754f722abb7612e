//! The inverted index: interned term dictionary, CSR postings, document
//! lengths, and stored documents.
//!
//! Field boosts are applied at index time: a token occurring in a field with
//! boost `w` contributes `w` to its weighted term frequency. This keeps the
//! scorer field-agnostic — exactly the "treat qunit instances as plain
//! documents" stance of the paper.
//!
//! # Postings layout
//!
//! Postings are stored as one compressed-sparse-row (CSR) structure of
//! arrays rather than a map of per-term `Vec<Posting>` allocations:
//!
//! ```text
//! term_ids:     "cast" → 0   "star" → 1   "wars" → 2        (dictionary)
//! terms:        ["cast", "star", "wars"]                    (TermId → term)
//! offsets:      [0,      2,      5,     6]                  (len = terms+1)
//!                 \______ \_______ \_____
//! posting_docs: [ 0, 7,  | 0, 3, 7, | 3 ]                   (flat, doc asc)
//! posting_tfs:  [1.0,2.0,|1.0,1.0,3.0|1.0]                  (parallel)
//! ```
//!
//! Term `t`'s postings are the contiguous slices
//! `posting_docs[offsets[t]..offsets[t+1]]` /
//! `posting_tfs[offsets[t]..offsets[t+1]]`. A query resolves each term
//! through the dictionary **once**, then walks two flat arrays — no
//! per-posting hashing, no pointer chasing between heap-allocated lists.
//! [`TermId`]s are assigned by sorted term order at freeze time, so the
//! layout (and everything downstream of it) is a pure function of the
//! indexed content.
//!
//! # The freeze pipeline
//!
//! [`IndexBuilder::build_sharded`] deals document `i` to shard `i % n` and
//! freezes the shards side by side, one thread per shard and at most one per
//! core, the caller among them; [`IndexBuilder::build`] is the same pipeline
//! at one shard. Only the caller allocates anything that grows with the
//! documents or the postings:
//!
//! 1. **reserve** (caller) — per shard, a `u32` token log of
//!    Σ (field bytes / 2 + 1) entries, a log end per field and a length per
//!    document: a field cannot hold more tokens than that;
//! 2. **intern** (phase 1, one thread per shard) — each token, lent as a
//!    `&str` by the analyzer's one tokenizer loop, is mapped by one probe of
//!    an id table over a text arena to a *provisional id* (first-seen
//!    order); the stopword / minimum-length verdict is asked once per
//!    distinct token and kept in the id's slot, a doc stamp counts each
//!    token's document frequency, and each kept token's id is logged. The
//!    vocabulary is all this phase allocates;
//! 3. **rank** (caller) — the kept tokens are sorted, rank = [`TermId`], the
//!    prefix sum of their document frequencies is the `offsets` lane, and the
//!    posting lanes are allocated at their exact size;
//! 4. **replay** (phase 2, one thread per shard) — the log is walked again in
//!    token order, each id dropped at its term's cursor with a doc stamp
//!    telling a document's first occurrence from the rest; documents replay
//!    in order and a cursor only advances, so every CSR row is doc-ascending
//!    by construction. Nothing is allocated;
//! 5. **finish** (caller) — `term_max_tfs`, the block lanes and both id
//!    tables are built from the finished lanes.
//!
//! Which thread freezes a shard depends on the shard and thread counts
//! alone, and a shard's lanes on its documents alone, so the thread count
//! moves no lane. A helper's panic resurfaces on the caller.
//!
//! The tf bits cannot move: a posting's tf is the float sum
//! `b₁ + b₂ + …` of the boosts of the term's occurrences in token order
//! (each finite and > 0, so every tf is too), a document's length
//! the same sum over its kept tokens, and float addition does not
//! associate — the pipeline does exactly those additions in exactly that
//! order. The map-of-lists builder it replaced is kept under `#[cfg(test)]`
//! as `build_reference` and a proptest holds the two equal lane for lane,
//! bit for bit.
//!
//! # Block-max lanes
//!
//! Each term's CSR row is additionally cut into fixed-size blocks of
//! [`DEFAULT_BLOCK_SIZE`] postings (configurable per build), and a second
//! CSR structure — `BlockLanes` — freezes, per block, the maximum
//! weighted tf, the first/last doc id and the shortest document length
//! (rounded down). The block-max kernel in
//! `crate::search` uses those to skip whole blocks whose score upper bound
//! cannot beat the running top-k threshold, without touching the postings.
//! Like `term_max_tfs`, the lanes are a pure function of the indexed
//! content and survive both codecs and the snapshot format.
//!
//! # Compressed posting lanes
//!
//! The two flat lanes cost 12 bytes per posting (`u32` doc + `f64` tf). At
//! millions of documents that dominates the index footprint, so the lanes
//! can be swapped — [`Index::compress_postings`] — for a per-**block**
//! delta+varint byte stream ([`PostingsCodec::DeltaVarint`], fully specified
//! in `docs/INDEX_FORMAT.md`). Doc-id gaps restart at every block boundary,
//! so each block is independently decodable and a block the kernel skips is
//! never varint-decoded. The CSR `offsets` lane is kept verbatim in
//! both representations, so document frequencies and term lookup never
//! decode anything. Reads go through [`Index::postings_of_with`], which
//! hands back the same [`Postings`] view either way: a zero-copy borrow of
//! the flat lanes, or a bit-exact decode into a caller-supplied
//! [`PostingsBuf`]. Everything downstream (scores, MaxScore bound lanes,
//! shard fingerprints) is bit-identical across the two codecs.
//!
//! # Strings
//!
//! An index holds no `String` per term or per stored document. The
//! vocabulary is one text arena in [`TermId`] order, and
//! [`IndexBuilder::add`] copies each document's external id and field texts
//! into another as documents arrive (a `DocStore`; field names interned).
//! The dictionary and the external-id lookup are open-addressing tables of
//! ids over those arenas, so a lookup compares against the arena and
//! nothing is stored twice. [`Index::document`] hands back a [`DocView`]
//! borrowed from the index.

use crate::analysis::{for_each_raw_token, Analyzer};
use crate::arena::{IdTable, TextArena};
use crate::document::{DocId, DocStore, DocView, Document};
use crate::shard::ShardedIndex;
use std::collections::HashMap;

/// Interned id of an indexed term: its rank in the lexicographically sorted
/// vocabulary of one [`Index`]. Dense, 0-based, assigned at freeze time —
/// and therefore **local to its index**: shards of a [`ShardedIndex`] each
/// intern their own vocabulary, so a `TermId` must never cross shards
/// (resolve per shard via [`Index::term_id`]).
pub type TermId = u32;

/// Default postings per block-max block (see the module docs). 32 keeps a
/// block's doc ids in two cache lines and its bounds tight enough to skip
/// blocks of terms most documents match, for 20 B of lanes per block.
pub const DEFAULT_BLOCK_SIZE: usize = 32;

/// One entry of a postings list (a materialized row of the CSR arrays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Boost-weighted term frequency.
    pub weighted_tf: f64,
}

/// A borrowed view of one term's postings: two parallel slices into the
/// index's CSR arrays.
///
/// The hot scoring loop iterates `docs`/`weighted_tfs` directly (two linear
/// streams, no per-entry indirection); [`Postings::iter`] materializes
/// [`Posting`] values for callers that want the old row-at-a-time shape.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    /// Documents containing the term, ascending.
    pub docs: &'a [DocId],
    /// Boost-weighted term frequencies, parallel to `docs`.
    pub weighted_tfs: &'a [f64],
}

impl<'a> Postings<'a> {
    /// The empty postings list (unknown terms resolve to this).
    pub fn empty() -> Self {
        Postings {
            docs: &[],
            weighted_tfs: &[],
        }
    }

    /// Number of postings (the term's document frequency).
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True iff the term occurs nowhere.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The `i`-th posting, if in range.
    pub fn get(&self, i: usize) -> Option<Posting> {
        Some(Posting {
            doc: *self.docs.get(i)?,
            weighted_tf: self.weighted_tfs[i],
        })
    }

    /// Iterate the postings as materialized [`Posting`] values.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + 'a {
        (*self).into_iter()
    }
}

impl<'a> IntoIterator for Postings<'a> {
    type Item = Posting;
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::slice::Iter<'a, DocId>, std::slice::Iter<'a, f64>>,
        fn((&DocId, &f64)) -> Posting,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.docs
            .iter()
            .zip(self.weighted_tfs)
            .map(|(&doc, &weighted_tf)| Posting { doc, weighted_tf })
    }
}

/// Freeze-time per-block score-bound lanes: a second CSR structure over the
/// posting rows, cut into fixed-size blocks.
///
/// Term `t`'s blocks are `offsets[t] .. offsets[t + 1]` (global block
/// indices) in the four parallel lanes; block `j` of term `t` covers
/// postings `csr_lo + j * block_size .. min(csr_lo + (j+1) * block_size,
/// csr_hi)` of the term's CSR row. Every lane is a pure function of the
/// indexed content (max is order-insensitive, first/last follow from the
/// ascending-doc contract, a document's length is its own), so the lanes
/// are identical across codecs, shard counts, and a snapshot round trip.
#[derive(Debug, Clone)]
pub(crate) struct BlockLanes {
    /// Fixed postings per block; only a term's final block may be shorter.
    /// Always ≥ 1.
    pub(crate) block_size: usize,
    /// CSR block offsets: `offsets.len() == terms.len() + 1`, prefix-sum of
    /// per-term block counts `ceil(df / block_size)`.
    pub(crate) offsets: Vec<u32>,
    /// Max boost-weighted tf within each block (the per-block analogue of
    /// the `term_max_tfs` lane).
    pub(crate) max_tfs: Vec<f64>,
    /// First doc id of each block.
    pub(crate) first_docs: Vec<DocId>,
    /// Last doc id of each block (inclusive; blocks are never empty).
    pub(crate) last_docs: Vec<DocId>,
    /// Shortest boost-weighted document length in each block, rounded
    /// down (`as u32`: a negative or NaN length saturates to 0, a huge
    /// one to `u32::MAX`), so it never exceeds any length in the block —
    /// the length [`crate::TermScorer::block_bound`] evaluates at.
    pub(crate) min_lens: Vec<u32>,
}

impl BlockLanes {
    /// Freeze the lanes from flat posting lanes (`offsets` is the CSR
    /// posting offsets lane, `docs`/`tfs` the flat postings) and the
    /// documents' lengths, indexed by doc id.
    pub(crate) fn freeze(
        block_size: usize,
        offsets: &[u32],
        docs: &[DocId],
        tfs: &[f64],
        doc_lengths: &[f64],
    ) -> BlockLanes {
        let block_size = block_size.max(1);
        let terms = offsets.len().saturating_sub(1);
        let total_blocks: usize = (0..terms)
            .map(|t| ((offsets[t + 1] - offsets[t]) as usize).div_ceil(block_size))
            .sum();
        let mut lanes = BlockLanes {
            block_size,
            offsets: Vec::with_capacity(terms + 1),
            max_tfs: Vec::with_capacity(total_blocks),
            first_docs: Vec::with_capacity(total_blocks),
            last_docs: Vec::with_capacity(total_blocks),
            min_lens: Vec::with_capacity(total_blocks),
        };
        lanes.offsets.push(0u32);
        for t in 0..terms {
            let (lo, hi) = (offsets[t] as usize, offsets[t + 1] as usize);
            let mut start = lo;
            while start < hi {
                let end = (start + block_size).min(hi);
                lanes.first_docs.push(docs[start]);
                lanes.last_docs.push(docs[end - 1]);
                lanes
                    .max_tfs
                    .push(tfs[start..end].iter().fold(0.0f64, |a, &b| a.max(b)));
                // Rounding down is monotone, so the least rounded length
                // is the shortest length rounded.
                let min_len = docs[start..end]
                    .iter()
                    .map(|&d| doc_lengths[d as usize] as u32)
                    .min();
                lanes.min_lens.push(min_len.unwrap_or(0));
                start = end;
            }
            lanes.offsets.push(lanes.max_tfs.len() as u32);
        }
        lanes
    }

    /// Total number of blocks across all terms.
    pub(crate) fn num_blocks(&self) -> usize {
        self.max_tfs.len()
    }

    /// Global block index range of term `t`.
    pub(crate) fn term_blocks(&self, t: usize) -> std::ops::Range<usize> {
        self.offsets[t] as usize..self.offsets[t + 1] as usize
    }
}

/// In-memory representation of the CSR posting lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostingsCodec {
    /// Two flat parallel arrays — zero decode cost, 12 bytes per posting.
    Flat,
    /// Per-term delta + varint byte stream (see `docs/INDEX_FORMAT.md`):
    /// doc ids as LEB128 gap varints, weighted tfs as tagged varints with a
    /// raw-bits escape for non-integral values. Decodes bit-exactly.
    DeltaVarint,
}

/// The posting lanes behind the CSR `offsets`. Both variants describe the
/// same logical postings; [`Index::compress_postings`] /
/// [`Index::decompress_postings`] convert losslessly between them.
#[derive(Debug, Clone)]
pub(crate) enum PostingStore {
    /// `docs`/`tfs` are the flat parallel lanes from the module docs.
    Flat { docs: Vec<DocId>, tfs: Vec<f64> },
    /// `bytes[byte_offsets[b]..byte_offsets[b+1]]` is **block** `b`'s
    /// encoded run (global block index per [`BlockLanes`]);
    /// `byte_offsets.len() == total_blocks + 1`. Doc-id gaps restart at
    /// each block boundary, so a block decodes without its predecessors.
    Compressed {
        bytes: Vec<u8>,
        byte_offsets: Vec<u64>,
    },
}

impl PostingStore {
    /// Heap bytes held by the posting lanes (the `memory_per_posting`
    /// numerator; excludes the shared `offsets` lane).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            PostingStore::Flat { docs, tfs } => {
                docs.len() * std::mem::size_of::<DocId>() + tfs.len() * std::mem::size_of::<f64>()
            }
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            } => bytes.len() + byte_offsets.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// Reusable decode buffer for [`Index::postings_of_with`].
///
/// On a [`PostingsCodec::Flat`] index the buffer is untouched (the view
/// borrows the index directly); on a compressed index the term's row is
/// decoded into it and the view borrows the buffer. Reuse one buffer per
/// thread/query to amortize its allocation across terms.
///
/// ```
/// use irengine::{Document, IndexBuilder, PostingsBuf};
///
/// let mut b = IndexBuilder::new();
/// b.add(Document::new("a").field("body", "star wars"));
/// let mut ix = b.build();
/// ix.compress_postings();
///
/// let mut buf = PostingsBuf::new();
/// let view = ix.postings_with("star", &mut buf);
/// assert_eq!(view.docs, &[0]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PostingsBuf {
    pub(crate) docs: Vec<DocId>,
    pub(crate) tfs: Vec<f64>,
}

impl PostingsBuf {
    /// An empty buffer (allocates lazily on first compressed decode).
    pub fn new() -> Self {
        PostingsBuf::default()
    }
}

/// Message for decode-time invariant violations. The encoder below is the
/// only producer of compressed rows and snapshot sections are checksummed,
/// so hitting this means in-memory corruption or a hand-edited snapshot
/// (snapshots are a trusted cache, not an untrusted input format).
const CORRUPT_ROW: &str = "corrupt delta+varint posting row (see docs/INDEX_FORMAT.md)";

/// Largest weighted tf storable inline as `(tf << 1) | 1` without
/// overflowing the tag varint's value space.
const MAX_INLINE_TF: u64 = (1 << 62) - 1;

/// LEB128: 7 value bits per byte, high bit = continuation.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).expect(CORRUPT_ROW);
        *pos += 1;
        assert!(shift < 64, "{CORRUPT_ROW}");
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Encode one term's postings: per posting, the doc-id gap as a varint
/// (first doc absolute, then strictly positive deltas), followed by the tf
/// as a tagged varint — odd tag `(t << 1) | 1` for an exactly-representable
/// non-negative integer tf `t` (the overwhelmingly common case: tfs are sums
/// of field boosts), or tag `0` followed by the raw little-endian `f64` bits.
fn encode_row(docs: &[DocId], tfs: &[f64], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for (i, (&doc, &tf)) in docs.iter().zip(tfs).enumerate() {
        let doc = u64::from(doc);
        let gap = if i == 0 { doc } else { doc - prev };
        write_varint(out, gap);
        prev = doc;
        let int = tf as u64;
        if int <= MAX_INLINE_TF && (int as f64).to_bits() == tf.to_bits() {
            write_varint(out, (int << 1) | 1);
        } else {
            write_varint(out, 0);
            out.extend_from_slice(&tf.to_bits().to_le_bytes());
        }
    }
}

/// Bit-exact inverse of [`encode_row`]; panics on a malformed row (see
/// [`CORRUPT_ROW`]). Clears `buf` first; [`decode_block`] is the appending
/// variant the per-block reads compose from.
fn decode_row(bytes: &[u8], count: usize, buf: &mut PostingsBuf) {
    buf.docs.clear();
    buf.tfs.clear();
    decode_block(bytes, count, buf);
}

/// Decode one independently-encoded block, **appending** to `buf`. `bytes`
/// must be exactly the block's run (the trailing-bytes assert pins that).
fn decode_block(bytes: &[u8], count: usize, buf: &mut PostingsBuf) {
    // `postings.decode` failpoint: decode is infallible by contract (a
    // malformed row is index corruption and panics), so an injected error
    // escalates to a panic here too — contained at the query boundary.
    crate::fault::check_infallible(crate::fault::site::POSTINGS_DECODE);
    buf.docs.reserve(count);
    buf.tfs.reserve(count);
    let mut pos = 0usize;
    let mut doc = 0u64;
    for i in 0..count {
        let gap = read_varint(bytes, &mut pos);
        doc = if i == 0 { gap } else { doc + gap };
        assert!(doc <= u64::from(DocId::MAX), "{CORRUPT_ROW}");
        buf.docs.push(doc as DocId);
        let tag = read_varint(bytes, &mut pos);
        let tf = if tag == 0 {
            let raw: [u8; 8] = bytes
                .get(pos..pos + 8)
                .expect(CORRUPT_ROW)
                .try_into()
                .unwrap();
            pos += 8;
            f64::from_bits(u64::from_le_bytes(raw))
        } else {
            assert!(tag & 1 == 1, "{CORRUPT_ROW}");
            (tag >> 1) as f64
        };
        buf.tfs.push(tf);
    }
    assert!(pos == bytes.len(), "{CORRUPT_ROW}");
}

/// An immutable searchable index. Build via [`IndexBuilder`].
///
/// Immutability is load-bearing for the concurrent query path upstream:
/// once built, an `Index` holds plain owned data (no interior mutability),
/// so it is `Send + Sync` and any number of [`crate::Searcher`]s can read
/// it from different threads without locking. The assertion below keeps a
/// future mutation cache from silently revoking that.
///
/// # Document id space
///
/// Every [`DocId`] accepted or returned by this type is **local to this
/// index**: the dense 0-based position at which [`IndexBuilder::add`]
/// received the document. A standalone index's local ids are also its
/// global ids; inside a [`ShardedIndex`] each shard has its own local id
/// space and the sharded wrapper owns the global one — translate with
/// [`ShardedIndex::to_global`] / [`ShardedIndex::to_local`] and never hand
/// a global id to a shard (or vice versa). Out-of-range lookups are always
/// defined, never a panic: [`Index::doc_length`] returns `0.0`,
/// [`Index::document`] and [`Index::external_id`] return `None`.
#[derive(Debug, Clone)]
pub struct Index {
    analyzer: Analyzer,
    /// Term dictionary: analyzed term → interned [`TermId`].
    ///
    /// Deliberately held *beside* the sorted `terms` arena even though a
    /// binary search over it could answer the same lookups: the dictionary
    /// probe is the entry point of every query term's scoring, and O(1)
    /// hashing beats ~log2(V) cache-missing string compares there. The
    /// table stores ids, not strings: a probe compares against the arena.
    term_ids: IdTable,
    /// Inverse dictionary: string `t` is the term interned as id `t`.
    /// Sorted — [`TermId`]s are assigned in lexicographic term order.
    terms: TextArena,
    /// CSR row offsets: term `t`'s postings span
    /// `offsets[t] .. offsets[t + 1]` in the posting store below.
    /// `offsets.len() == terms.len() + 1`; `u32` bounds the index at 4 B
    /// postings (asserted in [`IndexBuilder::build`]). Kept uncompressed in
    /// both codecs so document frequency never decodes anything.
    offsets: Vec<u32>,
    /// The posting lanes: flat parallel arrays or a delta+varint stream.
    store: PostingStore,
    /// Per-term maximum of `posting_tfs` over the term's CSR row, indexed
    /// by [`TermId`] (`term_max_tfs.len() == terms.len()`). Computed at
    /// freeze time so the MaxScore pruned kernel can derive a score upper
    /// bound per query term ([`crate::TermScorer::max_score`]) without
    /// touching the postings. `max` is order-insensitive, so the corpus
    /// aggregate (max over shards) is invariant under shard count.
    term_max_tfs: Vec<f64>,
    /// Per-block score-bound lanes (see [`BlockLanes`]): block max tfs and
    /// first/last doc ids, frozen at build time beside `term_max_tfs` so
    /// the block-max kernel can bound and skip whole blocks without
    /// touching (or, compressed, decoding) the postings.
    blocks: BlockLanes,
    doc_lengths: Vec<f64>,
    avg_doc_length: f64,
    /// Stored documents, one text arena (see [`DocStore`]).
    docs: DocStore,
    /// External id → the first document carrying it.
    external_to_doc: IdTable,
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Index>();

impl Index {
    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Vocabulary size (distinct terms).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total number of postings across all terms (the CSR arrays' length).
    pub fn num_postings(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Interned id of a term (already analyzed form), if indexed. This is
    /// the **one** hash lookup a query term pays; everything after it is
    /// array indexing.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.term_ids.get(term, |id| self.terms.get(id as usize))
    }

    /// The term interned as `id`, if in range.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.try_get(id as usize)
    }

    /// The flat lanes' row of an interned term id: its doc ids and weighted
    /// tfs, zero-copy. `None` under [`PostingsCodec::DeltaVarint`], whose
    /// rows only a decode can serve ([`Index::postings_of_with`]).
    /// Out-of-range ids yield the empty row (ids only come from
    /// [`Index::term_id`], but total beats panicking).
    pub(crate) fn flat_row(&self, id: TermId) -> Option<(&[DocId], &[f64])> {
        let PostingStore::Flat { docs, tfs } = &self.store else {
            return None;
        };
        let t = id as usize;
        // (compare against terms.len(), not offsets.len() - 1 or t + 1:
        // both alternatives overflow at the extremes on 32-bit targets)
        if t >= self.terms.len() {
            return Some((&[], &[]));
        }
        let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
        Some((&docs[lo..hi], &tfs[lo..hi]))
    }

    /// Postings for an interned term id under **either codec**: a zero-copy
    /// borrow of the flat lanes, or a bit-exact decode of the term's row
    /// into `buf` (the view then borrows `buf`). Out-of-range ids yield the
    /// empty view either way.
    pub fn postings_of_with<'s>(&'s self, id: TermId, buf: &'s mut PostingsBuf) -> Postings<'s> {
        let t = id as usize;
        if t >= self.terms.len() {
            return Postings::empty();
        }
        let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
        match &self.store {
            PostingStore::Flat { docs, tfs } => Postings {
                docs: &docs[lo..hi],
                weighted_tfs: &tfs[lo..hi],
            },
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            } => {
                buf.docs.clear();
                buf.tfs.clear();
                let bs = self.blocks.block_size;
                for (j, b) in self.blocks.term_blocks(t).enumerate() {
                    let count = (hi - lo - j * bs).min(bs);
                    let run = &bytes[byte_offsets[b] as usize..byte_offsets[b + 1] as usize];
                    decode_block(run, count, buf);
                }
                Postings {
                    docs: &buf.docs,
                    weighted_tfs: &buf.tfs,
                }
            }
        }
    }

    /// [`Index::postings_of_with`] by analyzed term (dictionary lookup;
    /// unknown terms yield the empty view).
    pub fn postings_with<'s>(&'s self, term: &str, buf: &'s mut PostingsBuf) -> Postings<'s> {
        match self.term_id(term) {
            Some(id) => self.postings_of_with(id, buf),
            None => Postings::empty(),
        }
    }

    /// Document frequency of a term. Reads the CSR `offsets` lane only, so
    /// it is O(1) and never decodes under any codec.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.term_id(term).map_or(0, |id| self.doc_freq_of(id))
    }

    /// Document frequency of an interned term id (0 when out of range).
    /// O(1): one subtraction over the `offsets` lane, no decode.
    pub fn doc_freq_of(&self, id: TermId) -> usize {
        let t = id as usize;
        if t >= self.terms.len() {
            return 0;
        }
        (self.offsets[t + 1] - self.offsets[t]) as usize
    }

    /// Which codec the posting lanes currently use.
    pub fn postings_codec(&self) -> PostingsCodec {
        match self.store {
            PostingStore::Flat { .. } => PostingsCodec::Flat,
            PostingStore::Compressed { .. } => PostingsCodec::DeltaVarint,
        }
    }

    /// Re-encode the posting lanes as a per-block delta+varint stream
    /// ([`PostingsCodec::DeltaVarint`]): one independently-decodable run per
    /// block-max block, gaps restarting at each block boundary. Lossless:
    /// decoding reproduces doc ids and weighted tfs bit-for-bit, so scores,
    /// MaxScore bounds, and fingerprints are unchanged. No-op if already
    /// compressed.
    pub fn compress_postings(&mut self) {
        let PostingStore::Flat { docs, tfs } = &self.store else {
            return;
        };
        let bs = self.blocks.block_size;
        let mut bytes = Vec::new();
        let mut byte_offsets = Vec::with_capacity(self.blocks.num_blocks() + 1);
        byte_offsets.push(0u64);
        for t in 0..self.terms.len() {
            let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
            let mut start = lo;
            while start < hi {
                let end = (start + bs).min(hi);
                encode_row(&docs[start..end], &tfs[start..end], &mut bytes);
                byte_offsets.push(bytes.len() as u64);
                start = end;
            }
        }
        bytes.shrink_to_fit();
        self.store = PostingStore::Compressed {
            bytes,
            byte_offsets,
        };
    }

    /// Decode the posting lanes back to flat parallel arrays
    /// ([`PostingsCodec::Flat`]). No-op if already flat.
    pub fn decompress_postings(&mut self) {
        let PostingStore::Compressed {
            bytes,
            byte_offsets,
        } = &self.store
        else {
            return;
        };
        let total = self.num_postings();
        let mut docs = Vec::with_capacity(total);
        let mut tfs = Vec::with_capacity(total);
        let mut buf = PostingsBuf::new();
        let bs = self.blocks.block_size;
        for t in 0..self.terms.len() {
            let df = (self.offsets[t + 1] - self.offsets[t]) as usize;
            for (j, b) in self.blocks.term_blocks(t).enumerate() {
                let count = (df - j * bs).min(bs);
                let run = &bytes[byte_offsets[b] as usize..byte_offsets[b + 1] as usize];
                decode_row(run, count, &mut buf);
                docs.extend_from_slice(&buf.docs);
                tfs.extend_from_slice(&buf.tfs);
            }
        }
        self.store = PostingStore::Flat { docs, tfs };
    }

    /// Heap bytes held by the posting lanes under the current codec (the
    /// numerator of bytes per posting).
    pub fn posting_store_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    /// Largest boost-weighted term frequency among `id`'s postings — the
    /// freeze-time lane behind [`crate::TermScorer::max_score`]. `0.0` for
    /// out-of-range ids (and thus for any term with no postings).
    pub fn max_weighted_tf_of(&self, id: TermId) -> f64 {
        self.term_max_tfs.get(id as usize).copied().unwrap_or(0.0)
    }

    /// [`Index::max_weighted_tf_of`] by analyzed term (dictionary lookup;
    /// unknown terms yield `0.0`).
    pub fn max_weighted_tf(&self, term: &str) -> f64 {
        self.term_id(term)
            .map_or(0.0, |id| self.max_weighted_tf_of(id))
    }

    /// Postings per block-max block this index was frozen with (a term's
    /// final block may be shorter).
    pub fn block_size(&self) -> usize {
        self.blocks.block_size
    }

    /// One block of an interned term's postings under **either codec**:
    /// `block` is a *global* block index from
    /// [`BlockLanes::term_blocks`]`(t)`. Flat lanes hand back a zero-copy
    /// subslice; compressed lanes decode exactly this block into `buf` —
    /// never its neighbours, which is the point of per-block restarts.
    pub(crate) fn block_postings_with<'s>(
        &'s self,
        id: TermId,
        block: usize,
        buf: &'s mut PostingsBuf,
    ) -> Postings<'s> {
        let t = id as usize;
        let range = self.blocks.term_blocks(t);
        debug_assert!(range.contains(&block), "block {block} not in term {t}");
        let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
        let start = lo + (block - range.start) * self.blocks.block_size;
        let end = (start + self.blocks.block_size).min(hi);
        match &self.store {
            PostingStore::Flat { docs, tfs } => Postings {
                docs: &docs[start..end],
                weighted_tfs: &tfs[start..end],
            },
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            } => {
                let run = &bytes[byte_offsets[block] as usize..byte_offsets[block + 1] as usize];
                decode_row(run, end - start, buf);
                Postings {
                    docs: &buf.docs,
                    weighted_tfs: &buf.tfs,
                }
            }
        }
    }

    /// Boost-weighted length of a document.
    ///
    /// `doc` is a **local** id of this index (see the type-level docs on the
    /// id space). An out-of-range id returns `0.0` — the length of a
    /// document with no tokens — rather than panicking, and the sharded
    /// path ([`ShardedIndex::doc_length`]) honors the same contract for
    /// global ids, so both id spaces degrade identically on bad input.
    pub fn doc_length(&self, doc: DocId) -> f64 {
        self.doc_lengths.get(doc as usize).copied().unwrap_or(0.0)
    }

    /// All document lengths, indexed by local [`DocId`] (the scoring kernel
    /// reads this directly: postings only ever name in-range docs).
    pub fn doc_lengths(&self) -> &[f64] {
        &self.doc_lengths
    }

    /// Mean document length (0 for an empty index).
    pub fn avg_doc_length(&self) -> f64 {
        self.avg_doc_length
    }

    /// The stored document, borrowed from the index.
    pub fn document(&self, doc: DocId) -> Option<DocView<'_>> {
        self.docs.doc(doc as usize)
    }

    /// External id of a document.
    pub fn external_id(&self, doc: DocId) -> Option<&str> {
        ((doc as usize) < self.docs.len()).then(|| self.docs.external_id(doc as usize))
    }

    /// Internal id for an external id (the first document carrying it).
    pub fn doc_for_external(&self, external: &str) -> Option<DocId> {
        self.external_to_doc
            .get(external, |d| self.docs.external_id(d as usize))
    }

    /// The analyzer this index was built with (use it for queries).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Every indexed term, in [`TermId`] order (lexicographically sorted).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.terms.iter()
    }

    // --- raw access for the snapshot writer/reader (crate::snapshot) ---

    pub(crate) fn raw_terms(&self) -> &TextArena {
        &self.terms
    }

    pub(crate) fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    pub(crate) fn raw_store(&self) -> &PostingStore {
        &self.store
    }

    pub(crate) fn raw_term_max_tfs(&self) -> &[f64] {
        &self.term_max_tfs
    }

    pub(crate) fn raw_blocks(&self) -> &BlockLanes {
        &self.blocks
    }

    pub(crate) fn raw_docs(&self) -> &DocStore {
        &self.docs
    }

    /// [`Index::from_indexed_parts`], with the dictionary and the
    /// external-id table built here from the stored lanes.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)] // one parameter per snapshot section
    pub(crate) fn from_raw_parts(
        analyzer: Analyzer,
        terms: TextArena,
        offsets: Vec<u32>,
        store: PostingStore,
        term_max_tfs: Vec<f64>,
        blocks: BlockLanes,
        doc_lengths: Vec<f64>,
        docs: DocStore,
    ) -> Result<Index, String> {
        let term_ids = term_table(&terms);
        let external_to_doc = external_id_table(&docs);
        Index::from_indexed_parts(
            analyzer,
            (terms, term_ids),
            offsets,
            store,
            term_max_tfs,
            blocks,
            doc_lengths,
            (docs, external_to_doc),
        )
    }

    /// Reassemble an [`Index`] from snapshot sections, each arena with the
    /// table that indexes it ([`index_terms`], [`index_external_ids`]: the
    /// snapshot loader fills them where it decodes). The derived state is
    /// a pure function of the stored lanes, so the result is identical to
    /// the originally built index. Returns a description of the first
    /// violated invariant instead of constructing a malformed index.
    #[allow(clippy::too_many_arguments)] // one parameter per snapshot section
    pub(crate) fn from_indexed_parts(
        analyzer: Analyzer,
        (terms, term_ids): (TextArena, IdTable),
        offsets: Vec<u32>,
        store: PostingStore,
        term_max_tfs: Vec<f64>,
        blocks: BlockLanes,
        doc_lengths: Vec<f64>,
        (docs, external_to_doc): (DocStore, IdTable),
    ) -> Result<Index, String> {
        if offsets.len() != terms.len() + 1 {
            return Err(format!(
                "offsets lane has {} entries for {} terms (want terms + 1)",
                offsets.len(),
                terms.len()
            ));
        }
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets lane is not a monotone prefix-sum from 0".to_owned());
        }
        if term_max_tfs.len() != terms.len() {
            return Err(format!(
                "term_max_tfs lane has {} entries for {} terms",
                term_max_tfs.len(),
                terms.len()
            ));
        }
        if (1..terms.len()).any(|t| terms.get(t - 1) >= terms.get(t)) {
            return Err("term dictionary is not strictly sorted".to_owned());
        }
        if doc_lengths.len() != docs.len() {
            return Err(format!(
                "doc_lengths lane has {} entries for {} stored docs",
                doc_lengths.len(),
                docs.len()
            ));
        }
        if blocks.block_size == 0 {
            return Err("block lanes declare block_size 0 (must be ≥ 1)".to_owned());
        }
        if blocks.offsets.len() != terms.len() + 1 {
            return Err(format!(
                "block offsets lane has {} entries for {} terms (want terms + 1)",
                blocks.offsets.len(),
                terms.len()
            ));
        }
        if blocks.offsets.first() != Some(&0) || blocks.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("block offsets lane is not a monotone prefix-sum from 0".to_owned());
        }
        for t in 0..terms.len() {
            let df = (offsets[t + 1] - offsets[t]) as usize;
            let want = df.div_ceil(blocks.block_size);
            let got = (blocks.offsets[t + 1] - blocks.offsets[t]) as usize;
            if got != want {
                return Err(format!(
                    "term {t} has {got} blocks for {df} postings at block size {} (want {want})",
                    blocks.block_size
                ));
            }
        }
        let total_blocks = *blocks.offsets.last().unwrap() as usize;
        if blocks.max_tfs.len() != total_blocks
            || blocks.first_docs.len() != total_blocks
            || blocks.last_docs.len() != total_blocks
            || blocks.min_lens.len() != total_blocks
        {
            return Err(format!(
                "block lanes hold {}/{}/{}/{} entries, block offsets say {total_blocks}",
                blocks.max_tfs.len(),
                blocks.first_docs.len(),
                blocks.last_docs.len(),
                blocks.min_lens.len()
            ));
        }
        let total = *offsets.last().unwrap() as usize;
        match &store {
            PostingStore::Flat { docs, tfs } => {
                if docs.len() != total || tfs.len() != total {
                    return Err(format!(
                        "flat lanes hold {}/{} postings, offsets say {total}",
                        docs.len(),
                        tfs.len()
                    ));
                }
            }
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            } => {
                if byte_offsets.len() != total_blocks + 1 {
                    return Err(format!(
                        "byte_offsets lane has {} entries for {total_blocks} blocks \
                         (want blocks + 1)",
                        byte_offsets.len()
                    ));
                }
                if byte_offsets.first() != Some(&0)
                    || byte_offsets.windows(2).any(|w| w[0] > w[1])
                    || byte_offsets.last() != Some(&(bytes.len() as u64))
                {
                    return Err(
                        "byte_offsets lane is not a monotone prefix-sum over the stream".to_owned(),
                    );
                }
            }
        }

        // The freeze's reduction, so the float result is bit-identical to
        // the built index's.
        let avg_doc_length = mean(&doc_lengths);
        Ok(Index {
            analyzer,
            term_ids,
            terms,
            offsets,
            store,
            term_max_tfs,
            blocks,
            doc_lengths,
            avg_doc_length,
            docs,
            external_to_doc,
        })
    }
}

/// The dictionary of a sorted, duplicate-free vocabulary: term → [`TermId`].
fn term_table(terms: &TextArena) -> IdTable {
    let mut table = IdTable::with_capacity(terms.len());
    index_terms(&mut table, terms);
    table
}

/// Enter every term into `table`, which has room for them all when it was
/// made with `IdTable::with_capacity(terms.len())`.
pub(crate) fn index_terms(table: &mut IdTable, terms: &TextArena) {
    for (t, term) in terms.iter().enumerate() {
        table.insert_first(term, t as TermId, |id| terms.get(id as usize));
    }
}

/// External id → the first document carrying it.
fn external_id_table(docs: &DocStore) -> IdTable {
    let mut table = IdTable::with_capacity(docs.len());
    index_external_ids(&mut table, docs);
    table
}

/// Enter every document's external id into `table` (first one wins), which
/// has room for them all when it was made with
/// `IdTable::with_capacity(docs.len())`.
pub(crate) fn index_external_ids(table: &mut IdTable, docs: &DocStore) {
    for d in 0..docs.len() {
        table.insert_first(docs.external_id(d), d as DocId, |id| {
            docs.external_id(id as usize)
        });
    }
}

/// Mutable accumulation of documents into an [`Index`].
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    analyzer: Analyzer,
    field_boosts: HashMap<String, f64>,
    block_size: usize,
    /// Every document added so far, copied into one text arena.
    docs: DocStore,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

impl IndexBuilder {
    /// Builder with the default analyzer and no field boosts.
    pub fn new() -> Self {
        IndexBuilder {
            analyzer: Analyzer::new(),
            field_boosts: HashMap::new(),
            block_size: DEFAULT_BLOCK_SIZE,
            docs: DocStore::default(),
        }
    }

    /// Use a custom analyzer.
    pub fn with_analyzer(mut self, analyzer: Analyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Set the boost of a field (default 1.0).
    ///
    /// # Panics
    ///
    /// If `boost` is outside the range [`IndexBuilder::check_field_boost`]
    /// admits.
    pub fn set_field_boost(&mut self, field: impl Into<String>, boost: f64) {
        let field = field.into();
        if let Err(why) = Self::check_field_boost(boost) {
            panic!("field {field:?}: {why}");
        }
        self.field_boosts.insert(field, boost);
    }

    /// The range every score bound assumes of a field boost: finite and
    /// `> 0`, so every weighted tf is too. A zero boost would keep postings
    /// of tf 0, which BM25 scores 0/0 = NaN at `b = 1` or `k1 = 0`; under a
    /// negative one a score falls as tf grows, and the block bounds would
    /// not hold. The error names the value.
    pub fn check_field_boost(boost: f64) -> Result<(), String> {
        if boost.is_finite() && boost > 0.0 {
            Ok(())
        } else {
            Err(format!("boost = {boost} is not a finite value > 0"))
        }
    }

    /// Set the postings-per-block granularity of the frozen block lanes
    /// (default [`DEFAULT_BLOCK_SIZE`]; clamped to ≥ 1). Smaller blocks
    /// skip more precisely but cost more lane memory and more per-block
    /// bound checks; the choice never affects scores, only work.
    pub fn set_block_size(&mut self, block_size: usize) {
        self.block_size = block_size.max(1);
    }

    /// Add a document: its external id and fields are copied into the
    /// builder's text arena. Duplicate external ids are allowed but
    /// [`Index::doc_for_external`] will resolve to the first.
    pub fn add(&mut self, doc: Document) -> DocId {
        let fields = doc.fields.iter();
        self.add_fields(
            &doc.external_id,
            fields.map(|(name, text)| (name.as_str(), text.as_str())),
        )
    }

    /// [`IndexBuilder::add`] from borrowed text: the document of
    /// `external_id` and `(field name, text)` pairs, copied straight into
    /// the builder.
    pub fn add_fields<'s>(
        &mut self,
        external_id: &str,
        fields: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) -> DocId {
        let id = self.docs.len() as DocId;
        self.docs.push(external_id, fields);
        id
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True iff no documents were added.
    pub fn is_empty(&self) -> bool {
        self.docs.len() == 0
    }

    /// Freeze into a sharded index of `n` independent [`Index`] shards (at
    /// least one; empty shards are fine when `n` exceeds the corpus).
    ///
    /// Documents partition by **deterministic round-robin over insertion
    /// order**: document `i` goes to shard `i % n` at local position
    /// `i / n`. Insertion order is the only input, so two builders fed the
    /// same documents in the same order shard identically no matter how
    /// many worker threads produced those documents — that, plus each
    /// shard's freeze being a pure function of its docs, is what the CI
    /// determinism gate hashes. Round-robin (rather than contiguous ranges)
    /// also balances shard sizes to within one document, so intra-query
    /// fan-out degrades gracefully at any shard count.
    ///
    /// The shards freeze side by side, one thread per shard and at most one
    /// per core, the caller among them (see *The freeze pipeline* in the
    /// module docs); the thread count moves no lane.
    pub fn build_sharded(self, n: usize) -> ShardedIndex {
        let n = n.max(1);
        ShardedIndex::from_shards(self.freeze(n, freeze_threads(n)))
    }

    /// Freeze into a searchable index: [`IndexBuilder::build_sharded`]'s
    /// pipeline at one shard, on the calling thread.
    pub fn build(self) -> Index {
        self.freeze(1, 1)
            .pop()
            .expect("one shard in, one index out")
    }

    /// Deal the documents into `shards` parts and freeze each on one of
    /// `threads` threads (see *The freeze pipeline* in the module docs).
    /// Only the caller allocates what grows with documents or postings.
    fn freeze(self, shards: usize, threads: usize) -> Vec<Index> {
        assert!(
            self.docs.len() < NEVER_SEEN as usize,
            "doc ids are u32: index exceeds 4B documents"
        );
        let IndexBuilder {
            analyzer,
            field_boosts,
            block_size,
            docs,
        } = self;
        let mut parts: Vec<ShardFreeze> = docs
            .deal(shards)
            .into_iter()
            .map(|docs| ShardFreeze::new(docs, &field_boosts))
            .collect();
        fan_out(&mut parts, threads, |part| part.intern(&analyzer));
        parts.iter_mut().for_each(ShardFreeze::rank);
        fan_out(&mut parts, threads, ShardFreeze::replay);
        parts
            .into_iter()
            .map(|part| part.finish(analyzer.clone(), block_size))
            .collect()
    }
}

/// Threads a freeze of `shards` shards runs on: one per shard, at most one
/// per core, the caller among them.
fn freeze_threads(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(shards)
}

/// `work` on every item, the items cut into at most `threads` runs of
/// neighbours: the caller works through the first run and one scoped helper
/// through each other, so which thread takes an item depends on the counts
/// alone, never on timing. A helper's panic resurfaces on the caller with
/// its own payload.
fn fan_out<T: Send>(items: &mut [T], threads: usize, work: impl Fn(&mut T) + Sync) {
    let run = items.len().div_ceil(threads.max(1)).max(1);
    let mut runs = items.chunks_mut(run);
    let first = runs.next();
    let work = &work;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = runs
            .map(|run| scope.spawn(move || run.iter_mut().for_each(work)))
            .collect();
        first.into_iter().flatten().for_each(work);
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// [`TermSlot::seen_in`] before the token's first document.
const NEVER_SEEN: DocId = DocId::MAX;

/// Freeze-time state of one distinct raw token, indexed by provisional id.
struct TermSlot {
    /// The analyzer's stopword / minimum-length verdict, asked once.
    kept: bool,
    /// The document the phase last met the token in (the doc stamp): the
    /// first token of each document is told apart without sweeping slots
    /// between documents. Reset between the phases.
    seen_in: DocId,
    /// Documents containing the token, counted in phase 1.
    doc_freq: u32,
    /// Where the token's term's next posting goes, from ranking on.
    next: u32,
}

/// One shard's freeze in flight: its documents, and what each phase leaves
/// for the next.
struct ShardFreeze {
    docs: DocStore,
    /// The boost of each of `docs`' field names, by name id.
    boosts: Vec<f64>,
    /// Provisional id of every kept token, in token order.
    log: Vec<u32>,
    /// Where each field's tokens end in `log`, fields in document order.
    field_ends: Vec<u32>,
    doc_lengths: Vec<f64>,
    /// Every distinct raw token, in first-seen order: provisional id `i` is
    /// string `i`.
    tokens: TextArena,
    slots: Vec<TermSlot>,
    /// The kept tokens, sorted: [`TermId`] `t` is string `t`.
    terms: TextArena,
    offsets: Vec<u32>,
    posting_docs: Vec<DocId>,
    posting_tfs: Vec<f64>,
}

impl ShardFreeze {
    /// On the caller: reserve what phase 1 fills. A field of `b` bytes holds
    /// at most `b / 2 + 1` tokens — each is at least a byte long, and a
    /// byte at least parts two — so the log never outgrows its reservation.
    fn new(docs: DocStore, field_boosts: &HashMap<String, f64>) -> ShardFreeze {
        let boosts = docs
            .field_names()
            .map(|name| field_boosts.get(name).copied().unwrap_or(1.0))
            .collect();
        let (fields, tokens) = (0..docs.len())
            .flat_map(|d| docs.field_ids(d))
            .fold((0, 0), |(fields, tokens), (_, text)| {
                (fields + 1, tokens + text.len() / 2 + 1)
            });
        assert!(
            tokens <= u32::MAX as usize,
            "the token log is u32-addressed: a shard's text could hold over 4B tokens"
        );
        ShardFreeze {
            boosts,
            log: Vec::with_capacity(tokens),
            field_ends: Vec::with_capacity(fields),
            doc_lengths: Vec::with_capacity(docs.len()),
            docs,
            tokens: TextArena::default(),
            slots: Vec::new(),
            terms: TextArena::default(),
            offsets: Vec::new(),
            posting_docs: Vec::new(),
            posting_tfs: Vec::new(),
        }
    }

    /// Phase 1, one thread per shard: tokenise, intern each token to a
    /// provisional id, count document frequencies, log each kept token and
    /// sum each document's length. Allocates the vocabulary alone.
    fn intern(&mut self, analyzer: &Analyzer) {
        let ShardFreeze {
            docs,
            boosts,
            log,
            field_ends,
            doc_lengths,
            tokens,
            slots,
            ..
        } = self;
        let mut ids = IdTable::with_capacity(0);
        let mut token = String::new();
        for d in 0..docs.len() {
            let doc = d as DocId;
            let mut length = 0.0;
            for (field, text) in docs.field_ids(d) {
                let boost = boosts[field as usize];
                for_each_raw_token(text, &mut token, |tok| {
                    let next = tokens.len() as u32;
                    let id = ids.insert_first(tok, next, |id| tokens.get(id as usize));
                    if id == next {
                        tokens.push(tok);
                        slots.push(TermSlot {
                            kept: analyzer.keeps(tok),
                            seen_in: NEVER_SEEN,
                            doc_freq: 0,
                            next: 0,
                        });
                    }
                    let slot = &mut slots[id as usize];
                    if slot.kept {
                        if slot.seen_in != doc {
                            slot.seen_in = doc;
                            slot.doc_freq += 1;
                        }
                        log.push(id);
                        length += boost;
                    }
                });
                field_ends.push(log.len() as u32);
            }
            doc_lengths.push(length);
        }
    }

    /// Between the phases, on the caller: rank the kept tokens — TermId
    /// assignment must be a pure function of the content (first-seen order
    /// is not, across shard counts), and the sort clusters prefix-sharing
    /// terms' postings for locality — lay out the offsets as the prefix sum
    /// of their document frequencies, point each term's slot at its first
    /// posting, and allocate the posting lanes at their exact size.
    fn rank(&mut self) {
        let (tokens, slots) = (&self.tokens, &mut self.slots);
        let mut kept: Vec<u32> = Vec::with_capacity(slots.len());
        kept.extend((0..slots.len() as u32).filter(|&id| slots[id as usize].kept));
        kept.sort_unstable_by(|&a, &b| tokens.get(a as usize).cmp(tokens.get(b as usize)));
        let total: usize = kept
            .iter()
            .map(|&id| slots[id as usize].doc_freq as usize)
            .sum();
        assert!(
            total <= u32::MAX as usize,
            "CSR offsets are u32: index exceeds 4B postings"
        );
        let bytes = kept.iter().map(|&id| tokens.get(id as usize).len()).sum();
        let mut terms = TextArena::with_capacity(kept.len(), bytes);
        let mut offsets = Vec::with_capacity(kept.len() + 1);
        offsets.push(0u32);
        let mut end = 0u32;
        for &id in &kept {
            terms.push(tokens.get(id as usize));
            let slot = &mut slots[id as usize];
            slot.seen_in = NEVER_SEEN;
            slot.next = end;
            end += slot.doc_freq;
            offsets.push(end);
        }
        self.tokens = TextArena::default();
        self.terms = terms;
        self.offsets = offsets;
        self.posting_docs = vec![0; total];
        self.posting_tfs = vec![0.0; total];
    }

    /// Phase 2, one thread per shard: replay the log into the posting lanes,
    /// allocating nothing. Documents replay in order and a term's cursor only
    /// advances, so every CSR row comes out doc-ascending — the contract
    /// `Postings` and the kernels' binary searches lean on — and a posting's
    /// tf is re-added as `b₁ + b₂ + …` in token order, so its bits are
    /// those of the builder this pipeline replaced.
    fn replay(&mut self) {
        let ShardFreeze {
            docs,
            boosts,
            log,
            field_ends,
            slots,
            posting_docs,
            posting_tfs,
            ..
        } = self;
        let mut ends = field_ends.iter();
        let mut start = 0;
        for d in 0..docs.len() {
            let doc = d as DocId;
            for (field, _) in docs.field_ids(d) {
                let boost = boosts[field as usize];
                let end = *ends.next().expect("phase 1 ends every field") as usize;
                for &id in &log[start..end] {
                    let slot = &mut slots[id as usize];
                    let at = slot.next as usize;
                    if slot.seen_in == doc {
                        posting_tfs[at - 1] += boost;
                    } else {
                        slot.seen_in = doc;
                        slot.next += 1;
                        posting_docs[at] = doc;
                        posting_tfs[at] = boost;
                    }
                }
                start = end;
            }
        }
    }

    /// On the caller: free the log, then fold the lanes into `term_max_tfs`
    /// and the block lanes and build both id tables.
    fn finish(self, analyzer: Analyzer, block_size: usize) -> Index {
        let ShardFreeze {
            docs,
            log,
            field_ends,
            slots,
            doc_lengths,
            terms,
            offsets,
            posting_docs,
            posting_tfs,
            ..
        } = self;
        drop((log, field_ends, slots));
        let term_max_tfs = offsets
            .windows(2)
            .map(|w| {
                posting_tfs[w[0] as usize..w[1] as usize]
                    .iter()
                    .fold(0.0f64, |a, &b| a.max(b))
            })
            .collect();
        let blocks = BlockLanes::freeze(
            block_size,
            &offsets,
            &posting_docs,
            &posting_tfs,
            &doc_lengths,
        );
        Index {
            analyzer,
            term_ids: term_table(&terms),
            terms,
            offsets,
            store: PostingStore::Flat {
                docs: posting_docs,
                tfs: posting_tfs,
            },
            term_max_tfs,
            blocks,
            avg_doc_length: mean(&doc_lengths),
            doc_lengths,
            external_to_doc: external_id_table(&docs),
            docs,
        }
    }
}

/// Mean document length, summed in document order (0 for no documents).
fn mean(doc_lengths: &[f64]) -> f64 {
    if doc_lengths.is_empty() {
        0.0
    } else {
        doc_lengths.iter().sum::<f64>() / doc_lengths.len() as f64
    }
}

#[cfg(test)]
impl IndexBuilder {
    /// `build` as it stood before the single-pass freeze — a map of
    /// per-term lists filled through a per-document map — over the
    /// reference tokenizer. The oracle `build` must match lane for lane.
    pub(crate) fn build_reference(self) -> Index {
        // Transient per-term lists; flattened into the CSR arrays below.
        let mut lists: HashMap<String, Vec<(DocId, f64)>> = HashMap::new();
        let mut doc_lengths = Vec::with_capacity(self.docs.len());

        // `tf` is cleared per document but keeps its table allocation.
        let mut tf: HashMap<String, f64> = HashMap::new();
        for i in 0..self.docs.len() {
            let doc_id = i as DocId;
            let mut length = 0.0;
            for (field, text) in self.docs.doc(i).expect("in range").fields() {
                let boost = self.field_boosts.get(field).copied().unwrap_or(1.0);
                for tok in self.analyzer.tokenize_reference(text) {
                    *tf.entry(tok).or_insert(0.0) += boost;
                    length += boost;
                }
            }
            doc_lengths.push(length);
            for (term, &weighted_tf) in &tf {
                match lists.get_mut(term) {
                    Some(list) => list.push((doc_id, weighted_tf)),
                    None => {
                        lists.insert(term.clone(), vec![(doc_id, weighted_tf)]);
                    }
                }
            }
            tf.clear();
        }

        // Intern terms in sorted order: TermId assignment must be a pure
        // function of the content (HashMap iteration order is not), and the
        // sort clusters prefix-sharing terms' postings for locality.
        let mut entries: Vec<(String, Vec<(DocId, f64)>)> = lists.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        let total: usize = entries.iter().map(|(_, l)| l.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "CSR offsets are u32: index exceeds 4B postings"
        );
        let mut terms = TextArena::default();
        let mut offsets = Vec::with_capacity(entries.len() + 1);
        let mut posting_docs = Vec::with_capacity(total);
        let mut posting_tfs = Vec::with_capacity(total);
        let mut term_max_tfs = Vec::with_capacity(entries.len());
        offsets.push(0u32);
        for (term, mut list) in entries {
            terms.push(&term);
            // Documents were scanned in id order, so each list arrives
            // sorted by doc — but the binary searches in score_doc and the
            // ascending-docs contract of `Postings` lean on this, so keep
            // enforcing it (O(n) on already-sorted input) rather than
            // trusting future mutation paths to preserve it.
            list.sort_unstable_by_key(|&(doc, _)| doc);
            let mut max_tf = 0.0f64;
            for (doc, weighted_tf) in list {
                posting_docs.push(doc);
                posting_tfs.push(weighted_tf);
                max_tf = max_tf.max(weighted_tf);
            }
            term_max_tfs.push(max_tf);
            offsets.push(posting_docs.len() as u32);
        }

        let avg_doc_length = if doc_lengths.is_empty() {
            0.0
        } else {
            doc_lengths.iter().sum::<f64>() / doc_lengths.len() as f64
        };
        let blocks = BlockLanes::freeze(
            self.block_size,
            &offsets,
            &posting_docs,
            &posting_tfs,
            &doc_lengths,
        );
        Index {
            analyzer: self.analyzer,
            term_ids: term_table(&terms),
            terms,
            offsets,
            store: PostingStore::Flat {
                docs: posting_docs,
                tfs: posting_tfs,
            },
            term_max_tfs,
            blocks,
            doc_lengths,
            avg_doc_length,
            external_to_doc: external_id_table(&self.docs),
            docs: self.docs,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_index() -> Index {
        let mut b = IndexBuilder::new();
        b.add(Document::new("a").field("body", "star wars cast"));
        b.add(Document::new("b").field("body", "star trek"));
        b.add(Document::new("c").field("body", "ocean drama"));
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let ix = small_index();
        assert_eq!(ix.num_docs(), 3);
        assert_eq!(ix.doc_freq("star"), 2);
        assert_eq!(ix.doc_freq("ocean"), 1);
        assert_eq!(ix.doc_freq("ghost"), 0);
        assert_eq!(ix.external_id(0), Some("a"));
        assert_eq!(ix.doc_for_external("c"), Some(2));
        assert_eq!(ix.doc_for_external("zzz"), None);
    }

    #[test]
    fn postings_sorted_by_doc() {
        let ix = small_index();
        let mut buf = PostingsBuf::new();
        let ps = ix.postings_with("star", &mut buf);
        assert!(ps.docs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn term_ids_are_sorted_dense_and_invertible() {
        let ix = small_index();
        // vocabulary: cast drama ocean star trek wars
        assert_eq!(ix.num_terms(), 6);
        let terms: Vec<&str> = ix.terms().collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        assert_eq!(terms, sorted, "TermIds follow lexicographic order");
        for (expect, term) in terms.iter().enumerate() {
            let id = ix.term_id(term).unwrap();
            assert_eq!(id as usize, expect);
            assert_eq!(ix.term(id), Some(*term));
        }
        assert_eq!(ix.term_id("ghost"), None);
        assert_eq!(ix.term(999), None);
    }

    #[test]
    fn csr_view_agrees_with_term_lookup() {
        let ix = small_index();
        assert_eq!(ix.num_postings(), 7); // 3 + 2 + 2 tokens, all distinct per doc
        for term in ["star", "trek", "cast"] {
            let (mut name_buf, mut id_buf) = (PostingsBuf::new(), PostingsBuf::new());
            let by_name = ix.postings_with(term, &mut name_buf);
            let by_id = ix.postings_of_with(ix.term_id(term).unwrap(), &mut id_buf);
            assert_eq!(by_name.docs, by_id.docs);
            assert_eq!(by_name.weighted_tfs, by_id.weighted_tfs);
            assert_eq!(by_name.len(), ix.doc_freq(term));
            for (i, p) in by_name.iter().enumerate() {
                assert_eq!(by_name.get(i), Some(p));
            }
            assert_eq!(by_name.get(by_name.len()), None);
        }
        assert!(ix
            .postings_of_with(TermId::MAX, &mut PostingsBuf::new())
            .is_empty());
    }

    #[test]
    fn term_max_tf_lane_matches_postings() {
        let mut b = IndexBuilder::new();
        b.set_field_boost("title", 3.0);
        b.add(
            Document::new("x")
                .field("title", "star")
                .field("body", "star wars wars"),
        );
        b.add(Document::new("y").field("body", "star"));
        let ix = b.build();
        for term in ["star", "wars"] {
            let expect = ix
                .postings_with(term, &mut PostingsBuf::new())
                .weighted_tfs
                .iter()
                .fold(0.0f64, |a, &b| a.max(b));
            assert_eq!(ix.max_weighted_tf(term).to_bits(), expect.to_bits());
            let id = ix.term_id(term).unwrap();
            assert_eq!(ix.max_weighted_tf_of(id).to_bits(), expect.to_bits());
        }
        assert_eq!(ix.max_weighted_tf("star"), 4.0); // 3.0 title + 1.0 body
        assert_eq!(ix.max_weighted_tf("wars"), 2.0);
        assert_eq!(ix.max_weighted_tf("ghost"), 0.0);
        assert_eq!(ix.max_weighted_tf_of(TermId::MAX), 0.0);
    }

    #[test]
    fn doc_lengths_and_average() {
        let ix = small_index();
        assert_eq!(ix.doc_length(0), 3.0);
        assert_eq!(ix.doc_length(1), 2.0);
        assert!((ix.avg_doc_length() - (3.0 + 2.0 + 2.0) / 3.0).abs() < 1e-12);
        assert_eq!(ix.doc_lengths(), &[3.0, 2.0, 2.0]);
    }

    #[test]
    fn doc_length_out_of_range_is_zero_never_a_panic() {
        let ix = small_index();
        assert_eq!(ix.doc_length(3), 0.0);
        assert_eq!(ix.doc_length(DocId::MAX), 0.0);
        assert!(ix.document(3).is_none());
        assert!(ix.external_id(3).is_none());
        // the empty index has no valid id at all
        assert_eq!(IndexBuilder::new().build().doc_length(0), 0.0);
    }

    #[test]
    fn field_boost_scales_tf_and_length() {
        let mut b = IndexBuilder::new();
        b.set_field_boost("title", 3.0);
        b.add(
            Document::new("x")
                .field("title", "star")
                .field("body", "star"),
        );
        let ix = b.build();
        let mut buf = PostingsBuf::new();
        let p = ix.postings_with("star", &mut buf);
        assert_eq!(p.len(), 1);
        assert_eq!(p.weighted_tfs[0], 4.0);
        assert_eq!(ix.doc_length(0), 4.0);
    }

    #[test]
    fn empty_index() {
        let ix = IndexBuilder::new().build();
        assert_eq!(ix.num_docs(), 0);
        assert_eq!(ix.num_terms(), 0);
        assert_eq!(ix.num_postings(), 0);
        assert_eq!(ix.avg_doc_length(), 0.0);
        assert!(ix.postings_with("x", &mut PostingsBuf::new()).is_empty());
    }

    #[test]
    fn duplicate_external_resolves_to_first() {
        let mut b = IndexBuilder::new();
        b.add(Document::new("dup").field("body", "one"));
        b.add(Document::new("dup").field("body", "two"));
        let ix = b.build();
        assert_eq!(ix.doc_for_external("dup"), Some(0));
    }

    #[test]
    fn compress_roundtrip_is_bit_exact() {
        let mut b = IndexBuilder::new();
        b.set_field_boost("title", 2.5); // fractional boost → raw-escape tfs
        b.add(
            Document::new("a")
                .field("title", "star")
                .field("body", "star wars cast"),
        );
        b.add(Document::new("b").field("body", "star trek star"));
        b.add(Document::new("c").field("body", "ocean drama wars"));
        let flat = b.build();
        let mut ix = flat.clone();

        assert_eq!(ix.postings_codec(), PostingsCodec::Flat);
        ix.compress_postings();
        assert_eq!(ix.postings_codec(), PostingsCodec::DeltaVarint);
        ix.compress_postings(); // idempotent

        assert_eq!(ix.num_postings(), flat.num_postings());
        let (mut buf, mut flat_buf) = (PostingsBuf::new(), PostingsBuf::new());
        for term in flat.terms() {
            let want = flat.postings_with(term, &mut flat_buf);
            let got = ix.postings_with(term, &mut buf);
            assert_eq!(got.docs, want.docs, "{term}");
            let want_bits: Vec<u64> = want.weighted_tfs.iter().map(|t| t.to_bits()).collect();
            let got_bits: Vec<u64> = got.weighted_tfs.iter().map(|t| t.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{term}");
            assert_eq!(ix.doc_freq(term), want.len(), "{term}");
            assert_eq!(
                ix.max_weighted_tf(term).to_bits(),
                flat.max_weighted_tf(term).to_bits()
            );
        }
        assert!(ix.postings_of_with(TermId::MAX, &mut buf).is_empty());
        assert!(ix.postings_with("ghost", &mut buf).is_empty());

        ix.decompress_postings();
        assert_eq!(ix.postings_codec(), PostingsCodec::Flat);
        for term in flat.terms() {
            let want = flat.postings_with(term, &mut flat_buf);
            let got = ix.postings_with(term, &mut buf);
            assert_eq!(got.docs, want.docs);
            assert_eq!(got.weighted_tfs, want.weighted_tfs);
        }
    }

    #[test]
    fn flat_reads_work_through_the_buffered_api_too() {
        let ix = small_index();
        let mut buf = PostingsBuf::new();
        let view = ix.postings_with("star", &mut buf);
        let (docs, _) = ix.flat_row(ix.term_id("star").unwrap()).unwrap();
        assert_eq!(view.docs, docs);
        assert!(buf.docs.is_empty(), "flat path must not touch the buffer");
    }

    #[test]
    fn compression_shrinks_the_posting_store() {
        let mut b = IndexBuilder::new();
        for i in 0..500 {
            let body = format!("common w{} w{}", i % 7, i % 31);
            b.add(Document::new(format!("d{i}")).field("body", &body));
        }
        let mut ix = b.build();
        let flat_bytes = ix.posting_store_bytes();
        assert_eq!(flat_bytes, ix.num_postings() * 12);
        ix.compress_postings();
        let packed = ix.posting_store_bytes();
        assert!(
            packed < flat_bytes / 3,
            "expected ≥3× shrink, got {packed} vs {flat_bytes}"
        );
    }

    #[test]
    fn tf_codec_round_trips_awkward_values() {
        // Exercise both tag paths, including values near the inline cutoff.
        let tfs = [
            0.0,
            1.0,
            2.0,
            2.5,
            1e-300,
            1e300,
            f64::INFINITY,
            f64::MAX,
            (MAX_INLINE_TF / 2) as f64,
            9.007199254740993e15, // 2^53 + 1: not exactly representable
        ];
        let docs: Vec<DocId> = (0..tfs.len() as DocId).collect();
        let mut bytes = Vec::new();
        encode_row(&docs, &tfs, &mut bytes);
        let mut buf = PostingsBuf::new();
        decode_row(&bytes, tfs.len(), &mut buf);
        assert_eq!(buf.docs, docs);
        for (got, want) in buf.tfs.iter().zip(&tfs) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn from_raw_parts_rejects_malformed_lanes() {
        let ix = small_index();
        let bad = Index::from_raw_parts(
            ix.analyzer().clone(),
            ix.raw_terms().clone(),
            vec![0; ix.raw_offsets().len() + 1],
            ix.raw_store().clone(),
            ix.raw_term_max_tfs().to_vec(),
            ix.raw_blocks().clone(),
            ix.doc_lengths().to_vec(),
            ix.raw_docs().clone(),
        );
        assert!(bad.is_err());
        // Malformed block lanes are caught too: a dropped block entry…
        let mut chopped = ix.raw_blocks().clone();
        chopped.max_tfs.pop();
        let bad_blocks = Index::from_raw_parts(
            ix.analyzer().clone(),
            ix.raw_terms().clone(),
            ix.raw_offsets().to_vec(),
            ix.raw_store().clone(),
            ix.raw_term_max_tfs().to_vec(),
            chopped,
            ix.doc_lengths().to_vec(),
            ix.raw_docs().clone(),
        );
        assert!(bad_blocks.is_err());
        // …and a block size that disagrees with the per-term block counts.
        let mut skewed = ix.raw_blocks().clone();
        skewed.block_size = 1;
        let bad_size = Index::from_raw_parts(
            ix.analyzer().clone(),
            ix.raw_terms().clone(),
            ix.raw_offsets().to_vec(),
            ix.raw_store().clone(),
            ix.raw_term_max_tfs().to_vec(),
            skewed,
            ix.doc_lengths().to_vec(),
            ix.raw_docs().clone(),
        );
        assert!(bad_size.is_err());
        let good = Index::from_raw_parts(
            ix.analyzer().clone(),
            ix.raw_terms().clone(),
            ix.raw_offsets().to_vec(),
            ix.raw_store().clone(),
            ix.raw_term_max_tfs().to_vec(),
            ix.raw_blocks().clone(),
            ix.doc_lengths().to_vec(),
            ix.raw_docs().clone(),
        )
        .unwrap();
        assert_eq!(good.num_docs(), ix.num_docs());
        assert_eq!(good.doc_for_external("c"), Some(2));
        assert_eq!(
            good.avg_doc_length().to_bits(),
            ix.avg_doc_length().to_bits()
        );
    }

    /// Reference check of every block-lane invariant against the flat
    /// postings, for any block size.
    fn assert_block_lanes_consistent(ix: &Index) {
        let lanes = ix.raw_blocks();
        let bs = lanes.block_size;
        assert!(bs >= 1);
        assert_eq!(lanes.offsets.len(), ix.num_terms() + 1);
        let mut buf = PostingsBuf::new();
        let mut block_buf = PostingsBuf::new();
        for t in 0..ix.num_terms() as TermId {
            let df = ix.doc_freq_of(t);
            let range = ix.raw_blocks().term_blocks(t as usize);
            assert_eq!(range.len(), df.div_ceil(bs), "term {t} block count");
            // Clone out the full row: `buf` is reborrowed per block below.
            let row = ix.postings_of_with(t, &mut buf);
            let (row_docs, row_tfs) = (row.docs.to_vec(), row.weighted_tfs.to_vec());
            let mut term_max = 0.0f64;
            for (j, b) in range.clone().enumerate() {
                let (start, end) = (j * bs, ((j + 1) * bs).min(df));
                assert_eq!(lanes.first_docs[b], row_docs[start]);
                assert_eq!(lanes.last_docs[b], row_docs[end - 1]);
                let want_max = row_tfs[start..end].iter().fold(0.0f64, |a, &v| a.max(v));
                assert_eq!(lanes.max_tfs[b].to_bits(), want_max.to_bits());
                let shortest = row_docs[start..end]
                    .iter()
                    .map(|&d| ix.doc_length(d))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(lanes.min_lens[b], shortest.floor() as u32);
                term_max = term_max.max(want_max);
                // The per-block read hands back exactly this slice.
                let block = ix.block_postings_with(t, b, &mut block_buf);
                assert_eq!(block.docs, &row_docs[start..end]);
                let got: Vec<u64> = block.weighted_tfs.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = row_tfs[start..end].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
            assert_eq!(term_max.to_bits(), ix.max_weighted_tf_of(t).to_bits());
        }
    }

    fn blocky_index(block_size: usize) -> Index {
        let mut b = IndexBuilder::new();
        b.set_block_size(block_size);
        b.set_field_boost("title", 2.5); // fractional boost → raw-escape tfs
        for i in 0..40 {
            let mut doc = Document::new(format!("d{i}")).field("body", "common filler");
            // "rare" appears once, in one document: a single-posting term.
            if i == 17 {
                doc = doc.field("body2", "rare");
            }
            // The max-weighted posting of "spike" lands in document 39 —
            // the *final* block of its list at small block sizes.
            if i == 39 {
                doc = doc.field("title", "spike").field("body3", "spike spike");
            } else if i % 3 == 0 {
                doc = doc.field("body3", "spike");
            }
            b.add(doc);
        }
        b.build()
    }

    #[test]
    fn block_lanes_respect_any_block_size() {
        // Size 1 (one block per posting), a mid size that splits rows, the
        // default, and a size beyond every list length (one block per term).
        for bs in [1, 4, DEFAULT_BLOCK_SIZE, 10_000] {
            let ix = blocky_index(bs);
            assert_eq!(ix.block_size(), bs);
            assert_block_lanes_consistent(&ix);
            // And the lanes survive the compressed codec bit-for-bit.
            let mut packed = ix.clone();
            packed.compress_postings();
            assert_eq!(packed.raw_blocks().offsets, ix.raw_blocks().offsets);
            assert_block_lanes_consistent(&packed);
            packed.decompress_postings();
            let mut buf = PostingsBuf::new();
            for term in ["common", "rare", "spike"] {
                assert_eq!(
                    packed.postings_with(term, &mut buf).docs.to_vec(),
                    ix.postings_with(term, &mut PostingsBuf::new()).docs
                );
            }
        }
    }

    #[test]
    fn single_posting_term_gets_one_single_doc_block() {
        let ix = blocky_index(4);
        let t = ix.term_id("rare").unwrap() as usize;
        let range = ix.raw_blocks().term_blocks(t);
        assert_eq!(range.len(), 1);
        let b = range.start;
        assert_eq!(ix.raw_blocks().first_docs[b], 17);
        assert_eq!(ix.raw_blocks().last_docs[b], 17);
        assert_eq!(ix.raw_blocks().max_tfs[b], 1.0);
    }

    #[test]
    fn max_posting_in_final_block_is_frozen_there() {
        let ix = blocky_index(4);
        let t = ix.term_id("spike").unwrap();
        let range = ix.raw_blocks().term_blocks(t as usize);
        assert!(range.len() > 1, "spike must span several blocks");
        let last = range.end - 1;
        // title boost 2.5 + two body tokens = 4.5, in doc 39 (the last).
        assert_eq!(ix.raw_blocks().max_tfs[last], 4.5);
        assert_eq!(ix.max_weighted_tf("spike"), 4.5);
        assert!(
            ix.raw_blocks().max_tfs[range.start] < 4.5,
            "earlier blocks bound strictly lower"
        );
    }

    #[test]
    fn builder_defaults_and_clamps_block_size() {
        let ix = IndexBuilder::new().build();
        assert_eq!(ix.block_size(), DEFAULT_BLOCK_SIZE);
        let mut b = IndexBuilder::new();
        b.set_block_size(0);
        assert_eq!(b.build().block_size(), 1);
    }

    fn bits(lane: &[f64]) -> Vec<u64> {
        lane.iter().map(|v| v.to_bits()).collect()
    }

    /// Every lane of `got` equals `want`'s, floats compared as bit patterns.
    pub(crate) fn assert_same_index(got: &Index, want: &Index, what: &str) {
        assert_eq!(got.terms, want.terms, "terms, {what}");
        for (t, term) in want.terms().enumerate() {
            assert_eq!(got.term_id(term), Some(t as TermId), "dictionary, {what}");
        }
        assert_eq!(got.offsets, want.offsets, "offsets, {what}");
        match (&got.store, &want.store) {
            (
                PostingStore::Flat { docs, tfs },
                PostingStore::Flat {
                    docs: want_docs,
                    tfs: want_tfs,
                },
            ) => {
                assert_eq!(docs, want_docs, "posting docs, {what}");
                assert_eq!(bits(tfs), bits(want_tfs), "posting tf bits, {what}");
            }
            (
                PostingStore::Compressed {
                    bytes,
                    byte_offsets,
                },
                PostingStore::Compressed {
                    bytes: want_bytes,
                    byte_offsets: want_offsets,
                },
            ) => {
                assert_eq!(bytes, want_bytes, "posting bytes, {what}");
                assert_eq!(byte_offsets, want_offsets, "posting byte offsets, {what}");
            }
            _ => panic!("both indexes hold one codec, {what}"),
        }
        assert_eq!(
            bits(&got.term_max_tfs),
            bits(&want.term_max_tfs),
            "term_max_tfs, {what}"
        );
        assert_eq!(got.blocks.block_size, want.blocks.block_size, "{what}");
        assert_eq!(
            got.blocks.offsets, want.blocks.offsets,
            "block offsets, {what}"
        );
        assert_eq!(
            bits(&got.blocks.max_tfs),
            bits(&want.blocks.max_tfs),
            "block max tfs, {what}"
        );
        assert_eq!(
            got.blocks.first_docs, want.blocks.first_docs,
            "block first docs, {what}"
        );
        assert_eq!(
            got.blocks.last_docs, want.blocks.last_docs,
            "block last docs, {what}"
        );
        assert_eq!(
            got.blocks.min_lens, want.blocks.min_lens,
            "block shortest lengths, {what}"
        );
        assert_eq!(
            bits(&got.doc_lengths),
            bits(&want.doc_lengths),
            "doc_lengths, {what}"
        );
        assert_eq!(
            got.avg_doc_length.to_bits(),
            want.avg_doc_length.to_bits(),
            "avg_doc_length, {what}"
        );
        assert_eq!(got.docs, want.docs, "stored docs, {what}");
        for d in 0..want.num_docs() as DocId {
            let external = want.external_id(d).unwrap();
            assert_eq!(
                got.doc_for_external(external),
                want.doc_for_external(external),
                "external ids (first wins), {what}"
            );
        }
    }

    /// Text fragments for the equivalence proptest: stopwords, one- and
    /// two-character tokens, case variants of one term, lower-casings that
    /// expand or change length, and fragments with no token at all.
    const FRAGMENTS: &[&str] = &[
        "star",
        "Star",
        "STAR",
        "wars",
        "the",
        "of",
        "a",
        "x",
        "ab",
        "İstanbul",
        "i\u{307}stanbul",
        "İ",
        "ß",
        "STRASSE",
        "straße",
        "Ⅻ",
        "٣",
        "--",
        "!!!",
        "",
        " ",
    ];
    const FIELDS: &[&str] = &["title", "body", "anchor", "extra"];
    /// `None` leaves the field at the default boost of 1.0.
    const BOOSTS: &[Option<f64>] = &[
        None,
        None,
        Some(0.5),
        Some(0.1),
        Some(1.0),
        Some(2.5),
        Some(3.0),
    ];

    prop_compose! {
        fn text()(
            parts in prop::collection::vec(
                (prop::sample::select(FRAGMENTS.to_vec()), prop::sample::select(vec![" ", " ", "", "-", ", "])),
                0..8,
            ),
        ) -> String {
            parts.into_iter().flat_map(|(frag, sep)| [frag, sep]).collect()
        }
    }

    prop_compose! {
        /// Few distinct external ids, so duplicates are the rule; fields
        /// repeat within a document and may be absent altogether.
        fn document()(
            id in 0usize..6,
            fields in prop::collection::vec((prop::sample::select(FIELDS.to_vec()), text()), 0..5),
        ) -> Document {
            fields
                .into_iter()
                .fold(Document::new(format!("d{id}")), |doc, (name, text)| doc.field(name, text))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `build` against `build_reference`, lane for lane and bit for bit,
        /// unsharded and on every shard of 2 / 3 / 8 (dealt out here the way
        /// `build_sharded` documents: document `i` to shard `i % n`).
        #[test]
        fn build_matches_the_reference_builder(
            docs in prop::collection::vec(document(), 0..24),
            boosts in prop::collection::vec(prop::sample::select(BOOSTS.to_vec()), FIELDS.len()),
            analyzer in 0usize..5,
            block_size in prop::sample::select(vec![1usize, 3, DEFAULT_BLOCK_SIZE, 128]),
        ) {
            let analyzer = crate::analysis::tests::analyzers().swap_remove(analyzer);
            let mut empty = IndexBuilder::new().with_analyzer(analyzer);
            empty.set_block_size(block_size);
            for (field, boost) in FIELDS.iter().zip(boosts) {
                if let Some(boost) = boost {
                    empty.set_field_boost(*field, boost);
                }
            }
            let mut whole = empty.clone();
            for doc in &docs {
                whole.add(doc.clone());
            }
            assert_same_index(&whole.clone().build(), &whole.clone().build_reference(), "unsharded");
            for n in [1usize, 2, 3, 8] {
                let sharded = whole.clone().build_sharded(n);
                prop_assert_eq!(sharded.num_shards(), n);
                for (s, shard) in sharded.shards().iter().enumerate() {
                    let mut part = empty.clone();
                    for doc in docs.iter().skip(s).step_by(n) {
                        part.add(doc.clone());
                    }
                    assert_same_index(shard, &part.build_reference(), &format!("shard {s} of {n}"));
                }
            }
        }
    }

    /// Each shard of a freeze on 1, 2 or `n` threads equals its dealt part
    /// frozen alone, lane for lane — with more shards than threads, and at 8
    /// shards more shards than documents.
    #[test]
    fn the_thread_count_cannot_move_a_lane() {
        let mut empty = IndexBuilder::new();
        empty.set_block_size(2);
        empty.set_field_boost("title", 2.5);
        empty.set_field_boost("hidden", 0.25);
        let docs: Vec<Document> = (0..6)
            .map(|i| {
                Document::new(format!("d{}", i % 4))
                    .field("title", FRAGMENTS[i % FRAGMENTS.len()])
                    .field("body", format!("star wars w{} w{} the Star", i % 3, i % 2))
                    .field("hidden", "ghost İstanbul")
            })
            .collect();
        let mut whole = empty.clone();
        for doc in &docs {
            whole.add(doc.clone());
        }
        for n in [2usize, 3, 8] {
            for threads in [1, n.min(2), n] {
                let shards = whole.clone().freeze(n, threads);
                assert_eq!(shards.len(), n);
                for (s, shard) in shards.iter().enumerate() {
                    let mut part = empty.clone();
                    for doc in docs.iter().skip(s).step_by(n) {
                        part.add(doc.clone());
                    }
                    let what = format!("shard {s} of {n} on {threads} threads");
                    assert_same_index(shard, &part.build(), &what);
                }
            }
        }
    }

    #[test]
    fn fan_out_resurfaces_a_helper_panic() {
        let mut items: Vec<usize> = (0..6).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&mut items, 3, |i| {
                if *i == 4 {
                    panic!("shard {i} blew up");
                }
                *i *= 10;
            })
        }));
        let payload = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("shard 4 blew up")
        );
        // Every item once, whatever the thread count.
        for threads in [1, 2, 4, 9] {
            let mut items: Vec<usize> = (0..7).collect();
            fan_out(&mut items, threads, |i| *i *= 10);
            assert_eq!(items, (0..7).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    /// A boost of 0.0 would keep a posting of tf 0 (BM25 scores it NaN at
    /// b = 1, ranking it first), and a negative or non-finite one breaks the
    /// bounds: each is refused by name, and no posting ever has tf 0.
    #[test]
    fn a_boost_that_is_not_finite_and_positive_is_refused() {
        for boost in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let refused = std::panic::catch_unwind(|| {
                IndexBuilder::new().set_field_boost("hidden", boost);
            });
            let message = *refused.expect_err("refused").downcast::<String>().unwrap();
            assert!(
                message.starts_with("field \"hidden\": boost = "),
                "{message}"
            );
        }
        let mut b = IndexBuilder::new();
        b.set_field_boost("hidden", f64::MIN_POSITIVE);
        b.add(Document::new("x").field("hidden", "ghost ghost"));
        let ix = b.build();
        let mut buf = PostingsBuf::new();
        let p = ix.postings_with("ghost", &mut buf);
        assert_eq!(p.docs, &[0]);
        assert!(p.weighted_tfs[0] > 0.0);
    }

    #[test]
    fn stopwords_not_indexed_by_default() {
        let mut b = IndexBuilder::new();
        b.add(Document::new("x").field("body", "the cast of the movie"));
        let ix = b.build();
        assert_eq!(ix.doc_freq("the"), 0);
        assert_eq!(ix.doc_freq("cast"), 1);
    }
}
