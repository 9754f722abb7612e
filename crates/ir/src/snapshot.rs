//! Index snapshots: serialize a built [`ShardedIndex`] to one flat file and
//! load it back without re-tokenizing or re-freezing anything.
//!
//! A service restart over a large corpus should cost a sequential file read,
//! not a full index rebuild — that is the entire job of this module. The
//! format (fully specified in `docs/INDEX_FORMAT.md`) is a fixed 32-byte
//! header followed by, per shard, a fixed sequence of tagged, length-framed,
//! checksummed sections holding the index's persistent lanes verbatim:
//!
//! ```text
//! header   magic "QNITSNAP" · version u32 · shard_count u32 ·
//!          num_docs u64 · fingerprint u64            (little-endian)
//! shard 0  [tag u8 | payload_len u64 | payload | fnv1a(payload) u64] × 8
//! shard 1  …                                         (same 8 sections)
//! ```
//!
//! The `terms` and `docs` sections are each walked once, every string copied
//! into one text arena reserved from the section's length — the
//! vocabulary; the external ids and field texts — so a load allocates per
//! section, never per string or document, and constructs no `Document`.
//! Derived state — the term dictionary and the external-id table (both
//! open-addressing tables of ids into those arenas), the average document
//! length — is *not* stored: each is a pure function of the persisted lanes
//! and is rebuilt on load (`Index::from_raw_parts`), so a loaded index is
//! identical to the originally built one, fingerprint and all. The bytes
//! are version 2's either way: the arenas are an in-memory layout, not a
//! format change. The posting lanes are stored under whichever
//! [`crate::PostingsCodec`] the index held at save time; a compressed index
//! snapshots compressed and loads compressed.
//!
//! # Integrity and trust model
//!
//! Every section carries an FNV-1a checksum of its payload and the loader
//! rejects bad magic, unknown versions, truncation, checksum mismatches,
//! and structurally invalid lanes with a [`SnapshotError`] — corruption is
//! detected at load, never at query time. The checksums guard against
//! *accidental* damage (torn writes, bit rot); a snapshot is a trusted
//! cache of a build, not an untrusted input format. The stored corpus
//! fingerprint ([`ShardedIndex::fingerprint`]) lets callers cheaply check
//! *identity* (is this snapshot the index I expect?) without the full
//! recompute, which at millions of documents would defeat the point of
//! loading from disk.

use crate::analysis::Analyzer;
use crate::arena::TextArena;
use crate::document::DocStore;
use crate::fault::{self, site};
use crate::index::{BlockLanes, Index, PostingStore};
use crate::shard::{Fnv1a, ShardedIndex};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"QNITSNAP";

/// Current format version. Bumped on any incompatible layout change; the
/// loader rejects every version it was not built to read (see the evolution
/// policy in `docs/INDEX_FORMAT.md`). Version 2 added the `blockmax`
/// section (tag 8) and switched compressed posting byte offsets from
/// per-term to per-block.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fixed header size in bytes: magic + version + shard_count + num_docs +
/// fingerprint.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// Section names, in the exact order sections appear within each shard; a
/// section's tag is its position here plus one.
const SECTION_NAMES: [&str; 8] = [
    "analyzer",
    "terms",
    "offsets",
    "postings",
    "term_max_tfs",
    "doc_lengths",
    "docs",
    "blockmax",
];

/// Codec byte inside the postings section.
const CODEC_FLAT: u8 = 0;
const CODEC_DELTA_VARINT: u8 = 1;

/// Why a snapshot failed to save or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is not a snapshot this build can accept: bad magic, an
    /// unknown version, truncation, a checksum mismatch, or a structurally
    /// invalid lane. The message names the first violation found.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot rejected: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

/// An injected fault dressed as the transient I/O error it simulates.
fn io_fault(f: fault::InjectedFault) -> SnapshotError {
    SnapshotError::Io(std::io::Error::other(f.to_string()))
}

/// The decoded fixed header of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version ([`SNAPSHOT_VERSION`] for files this build wrote).
    pub version: u32,
    /// Number of shard section-groups that follow the header.
    pub shard_count: u32,
    /// Total documents across all shards.
    pub num_docs: u64,
    /// [`ShardedIndex::fingerprint`] of the saved index, for cheap identity
    /// checks without loading (or recomputing over) the whole index.
    pub fingerprint: u64,
}

/// Read and validate only the fixed header of a snapshot file — magic and
/// version included — without touching the sections. O(1) regardless of
/// index size.
pub fn read_snapshot_header(path: impl AsRef<Path>) -> Result<SnapshotHeader, SnapshotError> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; HEADER_LEN];
    file.read_exact(&mut buf)
        .map_err(|_| corrupt("truncated header (shorter than 32 bytes)"))?;
    parse_header(&buf)
}

fn parse_header(buf: &[u8; HEADER_LEN]) -> Result<SnapshotHeader, SnapshotError> {
    if buf[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic (not a qunits index snapshot)"));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    Ok(SnapshotHeader {
        version,
        shard_count: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
        num_docs: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        fingerprint: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
    })
}

// --- lanes -----------------------------------------------------------------

/// An element of a numeric lane — `u32`, `u64`, or `f64` as its exact bit
/// pattern: fixed width, little-endian, for the writer and the reader alike.
trait LaneItem: Copy {
    const SIZE: usize;
    fn put(self, out: &mut Vec<u8>);
    /// `bytes` is exactly `SIZE` long.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! lane_item {
    ($($t:ty),*) => {$(
        impl LaneItem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("chunks_exact(SIZE)"))
            }
        }
    )*};
}
lane_item!(u32, u64, f64);

// --- payload writers -------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    v.put(out);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A counted list of strings.
fn put_strs<'s>(out: &mut Vec<u8>, strs: impl ExactSizeIterator<Item = &'s str>) {
    put_u64(out, strs.len() as u64);
    for s in strs {
        put_str(out, s);
    }
}

/// The elements of a lane, back to back (its count is written elsewhere).
fn put_items<T: LaneItem>(out: &mut Vec<u8>, lane: &[T]) {
    for &v in lane {
        v.put(out);
    }
}

/// A counted lane: `u64` element count, then the elements.
fn put_lane<T: LaneItem>(out: &mut Vec<u8>, lane: &[T]) {
    put_u64(out, lane.len() as u64);
    put_items(out, lane);
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    h.finish()
}

/// Payloads the verifier hashes side by side.
const LANES: usize = 4;

/// [`checksum`] of each payload, computed side by side. One payload's hash
/// is a chain of dependent multiplies, one per byte; walking several
/// payloads in lockstep keeps that many chains in flight. Each lockstep
/// pass covers the shortest payload not yet done; a payload already done
/// walks along (over a live one's bytes) and keeps the hash it had.
fn checksums(payloads: [&[u8]; LANES]) -> [u64; LANES] {
    let mut hashes = [Fnv1a::new(); LANES];
    let mut rest = payloads;
    while let Some(live) = rest.iter().copied().find(|p| !p.is_empty()) {
        let step = rest
            .iter()
            .map(|p| p.len())
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        let done = rest.map(|p| p.is_empty());
        let walked = rest.map(|p| &(if p.is_empty() { live } else { p })[..step]);
        let kept = hashes;
        for i in 0..step {
            for (hash, bytes) in hashes.iter_mut().zip(&walked) {
                hash.write_bytes(std::slice::from_ref(&bytes[i]));
            }
        }
        for lane in 0..LANES {
            if done[lane] {
                hashes[lane] = kept[lane];
            } else {
                rest[lane] = &rest[lane][step..];
            }
        }
    }
    hashes.map(|h| h.finish())
}

fn write_shard(w: &mut impl Write, shard: &Index, payload: &mut Vec<u8>) -> std::io::Result<()> {
    // Fill `payload`, then frame it: tag, length, payload, checksum.
    let mut section = |tag: u8, fill: &dyn Fn(&mut Vec<u8>)| -> std::io::Result<()> {
        payload.clear();
        fill(payload);
        w.write_all(&[tag])?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(payload)?;
        w.write_all(&checksum(payload).to_le_bytes())
    };
    // 1: analyzer — min token length + sorted stopwords (the set iterates
    // in hash order; sorting makes the bytes a pure function of content).
    section(1, &|p| {
        put_u64(p, shard.analyzer().min_token_len() as u64);
        let mut stopwords: Vec<&str> = shard.analyzer().stopwords().collect();
        stopwords.sort_unstable();
        put_strs(p, stopwords.into_iter());
    })?;
    // 2: terms, in TermId (lexicographic) order.
    section(2, &|p| put_strs(p, shard.raw_terms().iter()))?;
    // 3: CSR offsets.
    section(3, &|p| put_lane(p, shard.raw_offsets()))?;
    // 4: posting lanes, under whichever codec the index currently holds.
    section(4, &|p| match shard.raw_store() {
        PostingStore::Flat { docs, tfs } => {
            p.push(CODEC_FLAT);
            put_u64(p, docs.len() as u64);
            put_items(p, docs);
            put_items(p, tfs);
        }
        PostingStore::Compressed {
            bytes,
            byte_offsets,
        } => {
            p.push(CODEC_DELTA_VARINT);
            put_lane(p, byte_offsets);
            put_u64(p, bytes.len() as u64);
            p.extend_from_slice(bytes);
        }
    })?;
    // 5 and 6: the frozen MaxScore bound lane and the weighted document
    // lengths, as exact bit patterns.
    section(5, &|p| put_lane(p, shard.raw_term_max_tfs()))?;
    section(6, &|p| put_lane(p, shard.doc_lengths()))?;
    // 7: stored documents (external id + fields), in local-id order.
    section(7, &|p| {
        put_u64(p, shard.num_docs() as u64);
        for d in 0..shard.num_docs() as u32 {
            let doc = shard.document(d).expect("a local id below num_docs");
            put_str(p, doc.external_id());
            put_u64(p, doc.fields().len() as u64);
            for (name, text) in doc.fields() {
                put_str(p, name);
                put_str(p, text);
            }
        }
    })?;
    // 8: the frozen block-max lanes — block size, per-term block offsets,
    // and the three parallel per-block lanes (max weighted tf as exact bit
    // patterns, first and last doc ids).
    section(8, &|p| {
        let blocks = shard.raw_blocks();
        put_u64(p, blocks.block_size as u64);
        put_lane(p, &blocks.offsets);
        put_lane(p, &blocks.max_tfs);
        put_lane(p, &blocks.first_docs);
        put_lane(p, &blocks.last_docs);
    })
}

// --- payload reader --------------------------------------------------------

/// One section as framed in the file: located and bounds-checked, its
/// payload neither verified against `stored` nor decoded yet.
struct Section<'a> {
    name: &'static str,
    payload: &'a [u8],
    /// The checksum the file claims for `payload`.
    stored: u64,
}

/// Bounds-checked little-endian cursor over a loaded snapshot. Every read
/// that would run past the end is a [`SnapshotError::Corrupt`], so bogus
/// lengths can never cause wild allocations or slices.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Name of the section being parsed, for error messages.
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn at(data: &'a [u8], pos: usize, section: &'static str) -> Self {
        Reader { data, pos, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(corrupt(format!(
                "truncated {} section (wanted {n} more bytes)",
                self.section
            )));
        };
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::get(self.take(u64::SIZE)?))
    }

    /// A u64 count of items at least `itemsize` bytes each, validated
    /// against the bytes actually remaining before any allocation.
    fn count(&mut self, item_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.checked_mul(item_size)
            .is_none_or(|total| total > self.data.len() - self.pos)
        {
            return Err(corrupt(format!(
                "implausible count {n} in {} section",
                self.section
            )));
        }
        Ok(n)
    }

    /// `n` lane elements, decoded in bulk (`n` comes from [`Reader::count`]
    /// at an item size no smaller than `T`'s).
    fn items<T: LaneItem>(&mut self, n: usize) -> Result<Vec<T>, SnapshotError> {
        let bytes = self.take(n.saturating_mul(T::SIZE))?;
        Ok(bytes.chunks_exact(T::SIZE).map(T::get).collect())
    }

    /// A counted lane, as [`put_lane`] wrote it.
    fn lane<T: LaneItem>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let n = self.count(T::SIZE)?;
        self.items(n)
    }

    /// The bytes left, checked to fit a text arena's `u32` offsets: a
    /// snapshot this crate wrote never holds more than 4 GiB of text in one
    /// section, because its builder's arena could not.
    fn text_room(&self) -> Result<usize, SnapshotError> {
        let rest = self.data.len() - self.pos;
        if rest > u32::MAX as usize {
            return Err(corrupt(format!(
                "{} section holds more than 4 GiB",
                self.section
            )));
        }
        Ok(rest)
    }

    /// A string, borrowed from the file.
    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| corrupt(format!("non-UTF-8 string in {} section", self.section)))
    }

    /// A counted list of strings, as [`put_strs`] wrote it, copied into one
    /// arena: each string follows its 8-byte length, so the text is exactly
    /// what the payload holds beyond the lengths.
    fn strs(&mut self) -> Result<TextArena, SnapshotError> {
        let n = self.count(8)?;
        let bytes = self.text_room()?.saturating_sub(8 * n);
        let mut arena = TextArena::with_capacity(n, bytes);
        for _ in 0..n {
            arena.push(self.str()?);
        }
        Ok(arena)
    }

    /// The stored documents, as section 7 holds them, copied into one
    /// store in one walk. Every stored string — an external id with its
    /// field count, or a field text with its name — comes with at least 16
    /// bytes of lengths, and all their text is less than the bytes left.
    fn docs(&mut self) -> Result<DocStore, SnapshotError> {
        let n = self.count(8)?;
        let rest = self.text_room()?;
        let mut docs = DocStore::with_capacity(n, rest / 16, rest);
        for _ in 0..n {
            docs.push_external_id(self.str()?);
            for _ in 0..self.count(16)? {
                let name = self.str()?;
                docs.push_field(name, self.str()?);
            }
        }
        Ok(docs)
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.data.len() {
            return Err(corrupt(format!(
                "{} section has {} trailing bytes",
                self.section,
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Locate the next framed section of `file` and check its tag; the checksum
/// is the verifier's business ([`first_bad_checksum`]).
fn frame_section<'a>(
    file: &mut Reader<'a>,
    expect_tag: u8,
    name: &'static str,
) -> Result<Section<'a>, SnapshotError> {
    file.section = name;
    let tag = file.u8()?;
    if tag != expect_tag {
        return Err(corrupt(format!(
            "expected {name} section (tag {expect_tag}), found tag {tag}"
        )));
    }
    let len = file.count(1)?;
    Ok(Section {
        name,
        payload: file.take(len)?,
        stored: file.u64()?,
    })
}

/// Checksum verification shared by the loader's two threads. Each claims
/// the next [`LANES`] unverified sections, largest first, and hashes them
/// side by side ([`checksums`]) until none is left: the helper from the
/// start, the caller once it has decoded. Largest first puts a section
/// beside one of like size (the same section of another shard), so the
/// lockstep passes stay full. Claiming and hashing allocate nothing, so all
/// index memory stays on the calling thread's allocator arena.
struct Verifier<'s, 'a> {
    sections: &'s [Section<'a>],
    /// Section indices, largest payload first: the claim order.
    order: Vec<usize>,
    /// The next position in `order` to claim.
    next: AtomicUsize,
    /// The first section in file order found bad so far (`sections.len()`
    /// while none is).
    first_bad: AtomicUsize,
}

impl<'s, 'a> Verifier<'s, 'a> {
    fn new(sections: &'s [Section<'a>]) -> Self {
        let mut order: Vec<usize> = (0..sections.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(sections[i].payload.len()));
        Verifier {
            sections,
            order,
            next: AtomicUsize::new(0),
            first_bad: AtomicUsize::new(sections.len()),
        }
    }

    /// Verify claimed sections until every section is claimed. Relaxed
    /// throughout: the counters publish nothing but themselves, and the
    /// result is read after both threads are done.
    fn run(&self) {
        loop {
            let at = self.next.fetch_add(LANES, Ordering::Relaxed);
            let Some(claimed) = self.order.get(at..(at + LANES).min(self.order.len())) else {
                return;
            };
            let mut payloads: [&[u8]; LANES] = [&[]; LANES];
            for (payload, &i) in payloads.iter_mut().zip(claimed) {
                *payload = self.sections[i].payload;
            }
            let hashes = checksums(payloads);
            for (&i, hash) in claimed.iter().zip(hashes) {
                if hash != self.sections[i].stored {
                    self.first_bad.fetch_min(i, Ordering::Relaxed);
                }
            }
        }
    }

    /// The first section, in file order, whose payload does not hash to its
    /// stored checksum; call once every `run` has returned.
    fn first_bad(&self) -> Option<usize> {
        let bad = self.first_bad.load(Ordering::Relaxed);
        (bad < self.sections.len()).then_some(bad)
    }
}

/// Decode one whole section with `parse`, rejecting trailing bytes.
fn parse_section<'a, T>(
    section: &Section<'a>,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = Reader::at(section.payload, 0, section.name);
    let value = parse(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decode one shard from its eight framed sections, in section order, then
/// check the lanes against each other (`Index::from_raw_parts`). The bytes
/// may not have been verified yet: every read is bounds-checked, nothing
/// panics, and the caller keeps the result only if every checksum held.
fn decode_shard(sections: &[Section<'_>]) -> Result<Index, SnapshotError> {
    let [analyzer, terms, offsets, postings, term_max_tfs, doc_lengths, docs, blockmax] = sections
    else {
        unreachable!("a shard is framed as {} sections", SECTION_NAMES.len());
    };

    let analyzer = parse_section(analyzer, |r| {
        let min_token_len = r.u64()? as usize;
        Ok(Analyzer::keep_all()
            .with_stopwords(r.strs()?.iter())
            .with_min_token_len(min_token_len))
    })?;
    let terms = parse_section(terms, Reader::strs)?;
    let offsets = parse_section(offsets, Reader::lane::<u32>)?;
    let store = parse_section(postings, |r| match r.u8()? {
        CODEC_FLAT => {
            let n = r.count(u32::SIZE + f64::SIZE)?;
            Ok(PostingStore::Flat {
                docs: r.items(n)?,
                tfs: r.items(n)?,
            })
        }
        CODEC_DELTA_VARINT => {
            let byte_offsets = r.lane()?;
            let len = r.count(1)?;
            Ok(PostingStore::Compressed {
                bytes: r.take(len)?.to_vec(),
                byte_offsets,
            })
        }
        other => Err(corrupt(format!("unknown postings codec byte {other}"))),
    })?;
    let term_max_tfs = parse_section(term_max_tfs, Reader::lane::<f64>)?;
    let doc_lengths = parse_section(doc_lengths, Reader::lane::<f64>)?;
    let docs = parse_section(docs, Reader::docs)?;
    let blocks = parse_section(blockmax, |r| {
        Ok(BlockLanes {
            block_size: r.u64()? as usize,
            offsets: r.lane()?,
            max_tfs: r.lane()?,
            first_docs: r.lane()?,
            last_docs: r.lane()?,
        })
    })?;

    Index::from_raw_parts(
        analyzer,
        terms,
        offsets,
        store,
        term_max_tfs,
        blocks,
        doc_lengths,
        docs,
    )
    .map_err(corrupt)
}

/// Decode a whole snapshot file: frame every section, verify the checksums
/// on a helper thread while this thread decodes and then on both, then
/// report what a reader going through the file serially would have
/// reported.
fn decode_snapshot(data: &[u8]) -> Result<ShardedIndex, SnapshotError> {
    let header_bytes: &[u8; HEADER_LEN] = data
        .get(..HEADER_LEN)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| corrupt("truncated header (shorter than 32 bytes)"))?;
    let header = parse_header(header_bytes)?;
    if header.shard_count == 0 {
        return Err(corrupt("snapshot declares zero shards"));
    }

    // Framing reads 17 bytes per section, so it is done for the whole file
    // before anything is hashed or decoded; it stops at the first section
    // that cannot be located, and the sections before it still count.
    let per_shard = SECTION_NAMES.len();
    let mut sections = Vec::new();
    let mut file = Reader::at(data, HEADER_LEN, "header");
    let framing_error = (0..header.shard_count)
        .flat_map(|_| (1u8..).zip(SECTION_NAMES))
        .try_for_each(|(tag, name)| {
            frame_section(&mut file, tag, name).map(|section| sections.push(section))
        })
        .err();

    // Decode the fully framed shards here while the helper hashes, then
    // hash beside it. A decode error stops at its shard, as the serial order
    // would.
    let decode = || {
        let mut shards = Vec::with_capacity(sections.len() / per_shard);
        let error = sections
            .chunks_exact(per_shard)
            .try_for_each(|framed| decode_shard(framed).map(|shard| shards.push(shard)))
            .err();
        (shards, error)
    };
    let verifier = Verifier::new(&sections);
    let (shards, decode_error) = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new().spawn_scoped(scope, || verifier.run());
        let decoded = decode();
        // Whatever the helper has not claimed yet — everything, if no
        // thread was to be had.
        verifier.run();
        if let Ok(helper) = helper {
            helper.join().expect("hashing byte slices cannot panic");
        }
        decoded
    });
    let bad_checksum = verifier.first_bad();

    // A serial reader frames and verifies a shard section by section, then
    // decodes it, then moves on. So a bad checksum outranks a decode error
    // in its own or a later shard (the decode stopped in `shards.len()`) and
    // the framing error, which lies beyond every framed section; a decode
    // error outranks the framing error, which lies beyond every decoded shard.
    if let Some(bad) = bad_checksum.filter(|bad| bad / per_shard <= shards.len()) {
        let name = sections[bad].name;
        return Err(corrupt(format!("checksum mismatch in {name} section")));
    }
    if let Some(e) = decode_error.or(framing_error) {
        return Err(e);
    }
    if file.pos != data.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last shard",
            data.len() - file.pos
        )));
    }

    let loaded = ShardedIndex::from_shards(shards);
    if loaded.num_docs() as u64 != header.num_docs {
        return Err(corrupt(format!(
            "header claims {} docs, sections hold {}",
            header.num_docs,
            loaded.num_docs()
        )));
    }
    Ok(loaded)
}

impl ShardedIndex {
    /// Serialize this index to `path` (written to a `.tmp` sibling first,
    /// then renamed, so a crash mid-save never leaves a half-written file
    /// at the final path). Stores the posting lanes under their current
    /// [`crate::PostingsCodec`] and the corpus fingerprint in the header.
    ///
    /// ```
    /// use irengine::{Document, IndexBuilder, ShardedIndex};
    ///
    /// let mut b = IndexBuilder::new();
    /// b.add(Document::new("m1").field("body", "star wars"));
    /// let built = b.build_sharded(2);
    ///
    /// let path = std::env::temp_dir().join("irengine-doctest.snap");
    /// built.save_snapshot(&path).unwrap();
    /// let loaded = ShardedIndex::load_snapshot(&path).unwrap();
    /// assert_eq!(loaded.fingerprint(), built.fingerprint());
    /// std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        // `snapshot.write` failpoint: a deterministic stand-in for a full
        // disk / yanked volume, surfaced as the same `Io` a real one would.
        fault::check(site::SNAPSHOT_WRITE).map_err(io_fault)?;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);

        let mut w = BufWriter::new(File::create(&tmp)?);
        w.write_all(&SNAPSHOT_MAGIC)?;
        w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        w.write_all(&(self.num_shards() as u32).to_le_bytes())?;
        w.write_all(&(self.num_docs() as u64).to_le_bytes())?;
        w.write_all(&self.fingerprint().to_le_bytes())?;
        let mut payload = Vec::new();
        for shard in self.shards() {
            write_shard(&mut w, shard, &mut payload)?;
        }
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load a snapshot previously written by [`ShardedIndex::save_snapshot`].
    /// Validates the header, every section checksum, and the structural
    /// invariants of every lane; rebuilds all derived state. The result is
    /// indistinguishable from the originally built index — same
    /// fingerprint, same scores to the last bit, same codec.
    ///
    /// Two threads read the file, half each; the checksums are verified on
    /// a helper thread while this thread decodes, and on both threads once
    /// it has (see *Loader order* in `docs/INDEX_FORMAT.md`). Nothing is
    /// returned before every checksum held, and a damaged file is reported
    /// exactly as a serial verify-then-decode reader would.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ShardedIndex, SnapshotError> {
        // `snapshot.read` failpoint: injects a transient read error ahead
        // of the real file read, for exercising retry/quarantine paths.
        fault::check(site::SNAPSHOT_READ).map_err(io_fault)?;
        decode_snapshot(&read_file(path.as_ref())?)
    }
}

/// The whole file in one buffer, its first half read on this thread and
/// its second on a scoped helper, each faulting in its own half of the
/// buffer — on a fresh buffer that costs more than the copy. The helper
/// reads into memory this thread allocated and allocates nothing itself; if
/// no thread is to be had, this thread reads both halves.
fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut head_file = File::open(path)?;
    let mut tail_file = File::open(path)?;
    let len = usize::try_from(head_file.metadata()?.len())
        .map_err(|_| std::io::Error::other("snapshot larger than the address space"))?;
    let mut data = vec![0u8; len];
    let (head, tail) = data.split_at_mut(len / 2);
    tail_file.seek(SeekFrom::Start(head.len() as u64))?;
    let helper_read = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new().spawn_scoped(scope, || tail_file.read_exact(tail));
        head_file.read_exact(head)?;
        Ok::<_, std::io::Error>(
            helper
                .ok()
                .map(|helper| helper.join().expect("reading a file does not panic")),
        )
    })?;
    match helper_read {
        Some(read) => read?,
        None => tail_file.read_exact(tail)?,
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    //! The loader against the serial verify-then-decode reader it replaced,
    //! kept here as the oracle, over a sweep of damaged files.

    use super::*;
    use crate::alloc_probe::largest_allocation_during;
    use crate::{Document, IndexBuilder};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // --- the serial reference ----------------------------------------------

    impl Reader<'_> {
        fn u32(&mut self) -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
    }

    /// Frame one section and verify its checksum before returning it.
    fn read_section_reference<'a>(
        file: &mut Reader<'a>,
        expect_tag: u8,
        name: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let section = frame_section(file, expect_tag, name)?;
        if checksum(section.payload) != section.stored {
            return Err(corrupt(format!("checksum mismatch in {name} section")));
        }
        Ok(section.payload)
    }

    /// One shard, as the loader read it before the overlap: all eight
    /// sections framed and verified, then decoded element by element.
    fn read_shard_reference(file: &mut Reader<'_>) -> Result<Index, SnapshotError> {
        let mut payloads = [&file.data[0..0]; 8];
        for (i, (tag, name)) in (1u8..).zip(SECTION_NAMES).enumerate() {
            payloads[i] = read_section_reference(file, tag, name)?;
        }
        let reader = |i: usize| Reader::at(payloads[i], 0, SECTION_NAMES[i]);

        let mut r = reader(0);
        let min_token_len = r.u64()? as usize;
        let n = r.count(8)?;
        let mut stopwords = Vec::with_capacity(n);
        for _ in 0..n {
            stopwords.push(r.str()?);
        }
        r.finish()?;
        let analyzer = Analyzer::keep_all()
            .with_stopwords(stopwords)
            .with_min_token_len(min_token_len);

        let mut r = reader(1);
        let n = r.count(8)?;
        let mut terms = Vec::with_capacity(n);
        for _ in 0..n {
            terms.push(r.str()?);
        }
        r.finish()?;

        let mut r = reader(2);
        let n = r.count(4)?;
        let mut offsets = Vec::with_capacity(n);
        for _ in 0..n {
            offsets.push(r.u32()?);
        }
        r.finish()?;

        let mut r = reader(3);
        let store = match r.u8()? {
            CODEC_FLAT => {
                let n = r.count(12)?;
                let mut docs = Vec::with_capacity(n);
                for _ in 0..n {
                    docs.push(r.u32()?);
                }
                let mut tfs = Vec::with_capacity(n);
                for _ in 0..n {
                    tfs.push(f64::from_bits(r.u64()?));
                }
                PostingStore::Flat { docs, tfs }
            }
            CODEC_DELTA_VARINT => {
                let n = r.count(8)?;
                let mut byte_offsets = Vec::with_capacity(n);
                for _ in 0..n {
                    byte_offsets.push(r.u64()?);
                }
                let len = r.count(1)?;
                let bytes = r.take(len)?.to_vec();
                PostingStore::Compressed {
                    bytes,
                    byte_offsets,
                }
            }
            other => return Err(corrupt(format!("unknown postings codec byte {other}"))),
        };
        r.finish()?;

        let f64_lane = |i: usize| -> Result<Vec<f64>, SnapshotError> {
            let mut r = reader(i);
            let n = r.count(8)?;
            let mut lane = Vec::with_capacity(n);
            for _ in 0..n {
                lane.push(f64::from_bits(r.u64()?));
            }
            r.finish()?;
            Ok(lane)
        };
        let term_max_tfs = f64_lane(4)?;
        let doc_lengths = f64_lane(5)?;

        let mut r = reader(6);
        let n = r.count(8)?;
        let mut docs = Vec::with_capacity(n);
        for _ in 0..n {
            let external_id = r.str()?;
            let n_fields = r.count(16)?;
            let mut doc = Document::new(external_id);
            for _ in 0..n_fields {
                let name = r.str()?;
                let text = r.str()?;
                doc = doc.field(name, text);
            }
            docs.push(doc);
        }
        r.finish()?;

        let mut r = reader(7);
        let block_size = r.u64()? as usize;
        let n = r.count(4)?;
        let mut block_offsets = Vec::with_capacity(n);
        for _ in 0..n {
            block_offsets.push(r.u32()?);
        }
        let n = r.count(8)?;
        let mut max_tfs = Vec::with_capacity(n);
        for _ in 0..n {
            max_tfs.push(f64::from_bits(r.u64()?));
        }
        let n = r.count(4)?;
        let mut first_docs = Vec::with_capacity(n);
        for _ in 0..n {
            first_docs.push(r.u32()?);
        }
        let n = r.count(4)?;
        let mut last_docs = Vec::with_capacity(n);
        for _ in 0..n {
            last_docs.push(r.u32()?);
        }
        r.finish()?;
        let blocks = BlockLanes {
            block_size,
            offsets: block_offsets,
            max_tfs,
            first_docs,
            last_docs,
        };

        // Copied into the index's containers only once every section has
        // been decoded element by element.
        let mut term_arena = TextArena::default();
        for term in terms {
            term_arena.push(term);
        }
        let mut doc_store = DocStore::default();
        for doc in &docs {
            doc_store.push(
                &doc.external_id,
                doc.fields.iter().map(|(n, t)| (n.as_str(), t.as_str())),
            );
        }
        Index::from_raw_parts(
            analyzer,
            term_arena,
            offsets,
            store,
            term_max_tfs,
            blocks,
            doc_lengths,
            doc_store,
        )
        .map_err(corrupt)
    }

    /// `load_snapshot`'s body before the overlap, shard after shard. One
    /// repair: it reserved `shard_count` shards up front, which an inflated
    /// header turns into a terabyte request that aborts the process.
    fn decode_snapshot_reference(data: &[u8]) -> Result<ShardedIndex, SnapshotError> {
        let header_bytes: &[u8; HEADER_LEN] = data
            .get(..HEADER_LEN)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| corrupt("truncated header (shorter than 32 bytes)"))?;
        let header = parse_header(header_bytes)?;
        if header.shard_count == 0 {
            return Err(corrupt("snapshot declares zero shards"));
        }
        let mut file = Reader::at(data, HEADER_LEN, "header");
        let mut shards = Vec::new();
        for _ in 0..header.shard_count {
            shards.push(read_shard_reference(&mut file)?);
        }
        if file.pos != data.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after the last shard",
                data.len() - file.pos
            )));
        }
        let loaded = ShardedIndex::from_shards(shards);
        if loaded.num_docs() as u64 != header.num_docs {
            return Err(corrupt(format!(
                "header claims {} docs, sections hold {}",
                header.num_docs,
                loaded.num_docs()
            )));
        }
        Ok(loaded)
    }

    // --- a map of a valid file -----------------------------------------------

    /// Where one section sits in the file: `tag` is its first byte, the
    /// payload length the 8 bytes after it, the checksum the 8 bytes at
    /// `payload.end`.
    struct Span {
        tag: usize,
        payload: std::ops::Range<usize>,
    }

    impl Span {
        fn end(&self) -> usize {
            self.payload.end + 8
        }
    }

    /// A `u64` length or count field inside a payload (absolute offset),
    /// with the section that holds it.
    struct Field {
        at: usize,
        section: usize,
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Walk a *valid* snapshot by the format's own rules and note every
    /// section and every length / count field (plus the two scalar `u64`s,
    /// `min_token_len` and `block_size`).
    fn map_of(bytes: &[u8]) -> (Vec<Span>, Vec<Field>) {
        let shard_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let (mut spans, mut fields) = (Vec::new(), Vec::new());
        let mut pos = HEADER_LEN;
        for _ in 0..shard_count {
            for _ in SECTION_NAMES {
                let len = u64_at(bytes, pos + 1) as usize;
                spans.push(Span {
                    tag: pos,
                    payload: pos + 9..pos + 9 + len,
                });
                pos += 9 + len + 8;
            }
        }
        assert_eq!(pos, bytes.len(), "the walk covers the file");

        for (section, span) in spans.iter().enumerate() {
            let mut at = span.payload.start;
            // A field at the cursor: note it, step over it, return its value.
            let mut field = |at: &mut usize| {
                fields.push(Field { at: *at, section });
                *at += 8;
                u64_at(bytes, *at - 8) as usize
            };
            let strs = |at: &mut usize, field: &mut dyn FnMut(&mut usize) -> usize| {
                for _ in 0..field(at) {
                    *at += field(at);
                }
            };
            match section % SECTION_NAMES.len() {
                0 => {
                    field(&mut at);
                    strs(&mut at, &mut field);
                }
                1 => strs(&mut at, &mut field),
                2 => at += 4 * field(&mut at),
                3 => {
                    at += 1;
                    if bytes[at - 1] == CODEC_FLAT {
                        at += 12 * field(&mut at);
                    } else {
                        at += 8 * field(&mut at);
                        at += field(&mut at);
                    }
                }
                4 | 5 => at += 8 * field(&mut at),
                6 => {
                    for _ in 0..field(&mut at) {
                        at += field(&mut at);
                        for _ in 0..2 * field(&mut at) {
                            at += field(&mut at);
                        }
                    }
                }
                _ => {
                    field(&mut at);
                    at += 4 * field(&mut at);
                    at += 8 * field(&mut at);
                    at += 4 * field(&mut at);
                    at += 4 * field(&mut at);
                }
            }
            assert_eq!(at, span.payload.end, "section {section} walked to its end");
        }
        (spans, fields)
    }

    /// Recompute a section's checksum over its (damaged) payload, as damage
    /// by someone who knows the format would.
    fn restamp(bytes: &mut [u8], span: &Span) {
        let sum = checksum(&bytes[span.payload.clone()]);
        bytes[span.payload.end..span.end()].copy_from_slice(&sum.to_le_bytes());
    }

    // --- the sweep -------------------------------------------------------------

    /// A small two-shard index with every kind of content the sections can
    /// hold: stopwords, multi-posting rows that span blocks, fractional tfs,
    /// a field-less document, duplicate and empty external ids. The stored
    /// text is most of the file, as in a real one — so a `docs` count taken
    /// at its on-disk width would reserve several times the file.
    fn valid_snapshot(compressed: bool) -> Vec<u8> {
        let mut b = IndexBuilder::new();
        b.set_block_size(3);
        b.set_field_boost("anchor", 2.5);
        for i in 0..14 {
            b.add(
                Document::new(format!("doc{}", i % 11))
                    .field("anchor", format!("entity{} İ{}", i % 4, i % 3))
                    .field(
                        "body",
                        format!("w{} w{} common the ", i % 5, (i * 7) % 3).repeat(6),
                    ),
            );
        }
        b.add(Document::new(""));
        let mut index = b.build_sharded(2);
        if compressed {
            index.compress_postings();
        }
        static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "qunits-snapshot-sweep-{}-{}.qx",
            std::process::id(),
            UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        index.save_snapshot(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    /// What a load came to, in comparable form.
    fn verdict(result: Result<ShardedIndex, SnapshotError>) -> Result<(usize, usize), String> {
        match result {
            Ok(index) => Ok((index.num_docs(), index.num_postings())),
            Err(SnapshotError::Corrupt(why)) => Err(why),
            Err(SnapshotError::Io(e)) => panic!("decoding bytes does no io: {e}"),
        }
    }

    /// Allowance for the one allocation a file of a few bytes still causes:
    /// the message of its rejection.
    const ERROR_MESSAGE: usize = 256;

    /// The loader on `bytes`: must not panic, must not ask the allocator for
    /// more than the file's size at once, must agree with the reference.
    /// Returns the verdict.
    fn check(bytes: &[u8], what: &str) -> Result<(usize, usize), String> {
        let (outcome, largest) =
            largest_allocation_during(|| catch_unwind(AssertUnwindSafe(|| decode_snapshot(bytes))));
        let got = verdict(outcome.unwrap_or_else(|_| panic!("the loader panicked on {what}")));
        assert!(
            largest <= bytes.len().max(ERROR_MESSAGE),
            "{what}: one allocation of {largest} bytes for a {}-byte file",
            bytes.len()
        );
        assert_eq!(got, verdict(decode_snapshot_reference(bytes)), "{what}");
        got
    }

    #[test]
    fn damaged_files_are_rejected_as_the_serial_reader_rejects_them() {
        for compressed in [false, true] {
            let valid = valid_snapshot(compressed);
            let (spans, fields) = map_of(&valid);
            let codec = if compressed { "compressed" } else { "flat" };
            let (docs, _) = check(&valid, codec).expect("the undamaged file loads");
            assert_eq!(docs, 15);
            let mut rejected = 0usize;
            // Damage `valid`, check it, and count it if it was rejected.
            let mut damaged = |what: String, damage: &dyn Fn(&mut Vec<u8>)| {
                let mut bytes = valid.clone();
                damage(&mut bytes);
                let what = format!("{codec}: {what}");
                rejected += usize::from(check(&bytes, &what).is_err());
            };

            // Truncation: around every boundary of every section, and at 64
            // offsets from a fixed linear congruential sequence.
            let mut cuts: Vec<usize> = vec![0, HEADER_LEN - 1, HEADER_LEN];
            for span in &spans {
                for edge in [span.tag, span.payload.start, span.payload.end, span.end()] {
                    cuts.extend([edge - 1, edge, edge + 1]);
                }
            }
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                cuts.push((state >> 33) as usize % valid.len());
            }
            for cut in cuts {
                if cut < valid.len() {
                    damaged(format!("truncated to {cut} bytes"), &|b| b.truncate(cut));
                }
            }

            // One flipped bit per part of every section, payload flips also
            // with the checksum recomputed over the damage.
            for (i, span) in spans.iter().enumerate() {
                let middle = (span.payload.start + span.payload.end) / 2;
                for (part, at) in [
                    ("tag", span.tag),
                    ("length", span.tag + 1),
                    ("payload", span.payload.start),
                    ("payload", middle),
                    ("checksum", span.payload.end + 3),
                ] {
                    for stamped in [false, part == "payload"] {
                        damaged(
                            format!("bit flipped in the {part} of section {i} at {at}, restamped {stamped}"),
                            &|b| {
                                b[at] ^= 0x10;
                                if stamped {
                                    restamp(b, span);
                                }
                            },
                        );
                    }
                }
            }

            // Every section length, and every length and count inside a
            // payload: zeroed, off by one, doubled, absurd, and the most that
            // `rest` bytes could back at one and at eight bytes an item (the
            // largest values `Reader::count` lets through).
            let inflations = |v: u64, rest: u64| {
                let plain = [0, v + 1, v.wrapping_sub(1), 2 * v + 8, 1 << 40, u64::MAX];
                plain.into_iter().chain([rest, rest / 8])
            };
            for (i, span) in spans.iter().enumerate() {
                let rest = (valid.len() - span.payload.start) as u64;
                for v in inflations(span.payload.len() as u64, rest) {
                    damaged(format!("length of section {i} set to {v}"), &|b| {
                        b[span.tag + 1..span.tag + 9].copy_from_slice(&v.to_le_bytes())
                    });
                }
            }
            for field in &fields {
                let rest = (spans[field.section].payload.end - field.at - 8) as u64;
                for v in inflations(u64_at(&valid, field.at), rest) {
                    for stamped in [false, true] {
                        damaged(
                            format!(
                                "field at {} of section {} set to {v}, restamped {stamped}",
                                field.at, field.section
                            ),
                            &|b| {
                                b[field.at..field.at + 8].copy_from_slice(&v.to_le_bytes());
                                if stamped {
                                    restamp(b, &spans[field.section]);
                                }
                            },
                        );
                    }
                }
            }
            // Two damages in different shards, both ways round: a length or
            // count restamped in one (a decode error, mostly) and a payload
            // bit flipped under a stale checksum in the other. Both threads
            // verify, so which damage is seen first varies; the message
            // must not.
            let per_shard = SECTION_NAMES.len();
            for (k, field) in fields.iter().enumerate() {
                let shard = field.section / per_shard;
                let other = &spans[(1 - shard) * per_shard + k % per_shard];
                let flip = (other.payload.start + other.payload.end) / 2;
                for v in [0, u64_at(&valid, field.at) + 1, u64::MAX] {
                    damaged(
                        format!(
                            "field at {} of shard {shard} set to {v}, restamped, and bit \
                             flipped at {flip} in shard {}",
                            field.at,
                            1 - shard
                        ),
                        &|b| {
                            b[field.at..field.at + 8].copy_from_slice(&v.to_le_bytes());
                            restamp(b, &spans[field.section]);
                            b[flip] ^= 0x10;
                        },
                    );
                }
            }

            // The header's own counts (it carries no checksum).
            for v in [0u32, 1, 3, 1 << 20, u32::MAX] {
                damaged(format!("shard_count set to {v}"), &|b| {
                    b[12..16].copy_from_slice(&v.to_le_bytes())
                });
            }
            for v in [0u64, 14, 16, u64::MAX] {
                damaged(format!("num_docs set to {v}"), &|b| {
                    b[16..24].copy_from_slice(&v.to_le_bytes())
                });
            }

            // Two section tags swapped: neighbours, and one pair across shards.
            let pairs = (0..spans.len() - 1)
                .map(|i| (i, i + 1))
                .chain([(1, per_shard + 2)]);
            for (i, j) in pairs {
                damaged(format!("tags of sections {i} and {j} swapped"), &|b| {
                    b.swap(spans[i].tag, spans[j].tag)
                });
            }

            // Nearly all of it is damage the loader must refuse; the rest is
            // damage with a valid checksum that still describes an index
            // (a different `min_token_len`, say).
            assert!(rejected > 1000, "{codec}: only {rejected} files rejected");
        }
    }

    #[test]
    fn side_by_side_checksums_equal_one_at_a_time() {
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for lens in [
            [0, 0, 0, 0],
            [5, 0, 3, 3],
            [1000, 1, 999, 500],
            [7, 7, 7, 7],
            [0, 0, 0, 12],
        ] {
            let mut at = 0;
            let payloads = lens.map(|n| {
                at += 17;
                &bytes[at..at + n]
            });
            assert_eq!(checksums(payloads), payloads.map(checksum), "{lens:?}");
        }
    }

    /// Which error wins when a file is damaged in two places: the serial
    /// order — per shard framing and checksum section by section, then the
    /// decode — not the order the overlapped loader happens to notice them.
    #[test]
    fn the_first_error_in_file_order_wins() {
        let valid = valid_snapshot(false);
        let (spans, fields) = map_of(&valid);
        let per_shard = SECTION_NAMES.len();
        let why = |bytes: &[u8], what: &str| check(bytes, what).unwrap_err();
        // A structural violation in shard 0 (its CSR offsets count, restamped)…
        let offsets_count = fields.iter().find(|f| f.section == 2).unwrap();
        let mut bytes = valid.clone();
        bytes[offsets_count.at..offsets_count.at + 8].copy_from_slice(&0u64.to_le_bytes());
        restamp(&mut bytes, &spans[2]);
        assert!(why(&bytes, "decode error alone").contains("offsets section has"));
        // …outranks a bad checksum in shard 1…
        let mut later = bytes.clone();
        later[spans[per_shard + 4].payload.start] ^= 1;
        assert!(why(&later, "decode error, then checksum").contains("offsets section has"));
        // …but not one in its own shard, even in a later section…
        let mut same = bytes.clone();
        same[spans[6].payload.start] ^= 1;
        assert_eq!(
            why(&same, "checksum and decode error in one shard"),
            "checksum mismatch in docs section"
        );
        // …and a bad tag in shard 1 loses to both.
        let mut framed = bytes.clone();
        framed[spans[per_shard].tag] = 9;
        assert!(why(&framed, "decode error, then framing").contains("offsets section has"));
        let mut framed = valid.clone();
        framed[spans[per_shard].tag] = 9;
        framed[spans[5].payload.start] ^= 1;
        assert_eq!(
            why(&framed, "checksum, then framing"),
            "checksum mismatch in doc_lengths section"
        );
    }
}
