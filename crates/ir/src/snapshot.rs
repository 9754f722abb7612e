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
//! Neither side holds the file in memory. A save counts every section's
//! length from its lanes first, which places every frame in the file; then
//! the calling thread and one helper write the sections at their places,
//! dealt largest first as a load deals them, each thread streaming payloads
//! through one fixed buffer and hashing them back from the file four side by
//! side, as a load hashes them, while one of the threads computes the
//! fingerprint; the header, which carries it, goes last. A load frames every
//! section by seeking (17 bytes read per section), reserves every lane, text
//! arena and table on the calling thread from the frame lengths and leading
//! counts, then streams the sections on that thread and one helper, largest
//! first, through one fixed buffer each: every chunk is hashed beside the
//! chunks of up to three other sections and decoded where it landed. So
//! beyond the index, a save or a load holds two buffers whatever the file
//! size, and a loading helper allocates nothing. The `terms` and `docs`
//! sections are copied string by string into one text arena each — the
//! vocabulary; the external ids and field texts — so a load allocates per
//! section, never per string or document, and constructs no `Document`.
//! Derived state — the term dictionary and the external-id table (both
//! open-addressing tables of ids into those arenas), the average document
//! length — is *not* stored: each is a pure function of the persisted lanes
//! and is rebuilt on load (the tables by the thread that decoded their
//! arena, `Index::from_indexed_parts`), so a loaded index is identical to
//! the originally built one, fingerprint and all. The bytes are version 2's
//! either way: the arenas and the streaming are an in-memory matter, not a
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
use crate::arena::{IdTable, TextArena};
use crate::document::DocStore;
use crate::fault::{self, site};
use crate::index::{index_external_ids, index_terms, BlockLanes, Index, PostingStore};
use crate::shard::{Fnv1a, ShardedIndex};
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

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
fn io_fault(f: fault::InjectedFault) -> std::io::Error {
    std::io::Error::other(f.to_string())
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

/// An element of a numeric lane — `u8`, `u32`, `u64`, or `f64` as its exact
/// bit pattern: fixed width, little-endian, for the writer and the reader
/// alike.
trait LaneItem: Copy {
    const SIZE: usize;
    fn put(self, out: &mut Vec<u8>);
    /// `bytes` is exactly `SIZE` long.
    fn get(bytes: &[u8]) -> Self;
    /// Append the items `bytes` holds, a whole number of them.
    fn extend_from_le(lane: &mut Vec<Self>, bytes: &[u8]) {
        lane.extend(bytes.chunks_exact(Self::SIZE).map(Self::get));
    }
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

impl LaneItem for u8 {
    const SIZE: usize = 1;
    fn put(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    fn get(bytes: &[u8]) -> Self {
        bytes[0]
    }
    fn extend_from_le(lane: &mut Vec<u8>, bytes: &[u8]) {
        lane.extend_from_slice(bytes);
    }
}

/// Bytes a thread streams through at once: each saving or loading thread's
/// one buffer, split between the sections it hashes side by side.
/// Below glibc's initial 128 KiB mmap threshold, so a buffer comes from the
/// heap and freeing it cannot move the threshold (*Build phases* in
/// `docs/OPERATIONS.md`).
const STREAM_BUFFER: usize = 64 << 10;

/// Sections a thread hashes side by side, saving or loading.
const LANES: usize = 4;

/// [`Fnv1a`] over each lane's bytes, side by side: `hashes[i]` goes on over
/// `chunks[i]`. One chain is a dependent multiply per byte; walking several
/// in lockstep keeps that many in flight. Each lockstep pass covers the
/// shortest chunk not yet done; a lane already done walks along (over a live
/// one's bytes) and keeps the hash it had.
fn checksums(hashes: &mut [Fnv1a; LANES], chunks: [&[u8]; LANES]) {
    let mut lanes = *hashes;
    let mut rest = chunks;
    while let Some(live) = rest.iter().copied().find(|p| !p.is_empty()) {
        let step = rest
            .iter()
            .map(|p| p.len())
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0);
        let done = rest.map(|p| p.is_empty());
        let walked = rest.map(|p| &(if p.is_empty() { live } else { p })[..step]);
        let kept = lanes;
        for i in 0..step {
            for (hash, bytes) in lanes.iter_mut().zip(&walked) {
                hash.write_bytes(std::slice::from_ref(&bytes[i]));
            }
        }
        for lane in 0..LANES {
            if done[lane] {
                lanes[lane] = kept[lane];
            } else {
                rest[lane] = &rest[lane][step..];
            }
        }
    }
    *hashes = lanes;
}

/// Split `jobs` between the caller and one helper, a save's or a load's
/// alike: largest first, each to whichever has the less `weight` so far (the
/// caller on a tie), so both do about half and a loading thread walks
/// sections of like size side by side.
fn deal<T>(jobs: impl IntoIterator<Item = T>, weight: impl Fn(&T) -> u64) -> [Vec<T>; 2] {
    let mut order: Vec<T> = jobs.into_iter().collect();
    order.sort_by_key(|job| std::cmp::Reverse(weight(job)));
    let mut dealt = [Vec::new(), Vec::new()];
    let mut load = [0u64; 2];
    for job in order {
        let to = usize::from(load[1] < load[0]);
        load[to] += weight(&job);
        dealt[to].push(job);
    }
    dealt
}

// --- the writer ------------------------------------------------------------

/// Where a payload goes: [`Counted`] to learn its length, then a [`Writer`]
/// to write it. The same walk feeds both, so the frame's length is the
/// length of what follows it.
trait Sink {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    fn put_items<T: LaneItem>(&mut self, lane: &[T]) -> std::io::Result<()>;
}

/// A payload's length in bytes.
struct Counted(u64);

impl Sink for Counted {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0 += bytes.len() as u64;
        Ok(())
    }

    fn put_items<T: LaneItem>(&mut self, lane: &[T]) -> std::io::Result<()> {
        self.0 += (lane.len() * T::SIZE) as u64;
        Ok(())
    }
}

/// A writing thread's way into the file: a handle of its own and one fixed
/// buffer, which holds the bytes bound for the file from `pos` on.
struct Writer {
    file: File,
    pos: u64,
    buf: Vec<u8>,
}

impl Writer {
    fn new(file: File) -> Writer {
        Writer {
            file,
            pos: 0,
            buf: Vec::with_capacity(STREAM_BUFFER),
        }
    }

    fn room(&self) -> usize {
        self.buf.capacity() - self.buf.len()
    }

    /// Write out what the buffer holds.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.seek(SeekFrom::Start(self.pos))?;
            self.file.write_all(&self.buf)?;
            self.pos += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Go on at file offset `at`.
    fn seek(&mut self, at: u64) -> std::io::Result<()> {
        if at != self.pos + self.buf.len() as u64 {
            self.flush()?;
            self.pos = at;
        }
        Ok(())
    }
}

impl Sink for Writer {
    fn put(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            if self.room() == 0 {
                self.flush()?;
            }
            let (now, later) = bytes.split_at(self.room().min(bytes.len()));
            self.buf.extend_from_slice(now);
            bytes = later;
        }
        Ok(())
    }

    fn put_items<T: LaneItem>(&mut self, mut lane: &[T]) -> std::io::Result<()> {
        while !lane.is_empty() {
            if self.room() < T::SIZE {
                self.flush()?;
            }
            let (now, later) = lane.split_at((self.room() / T::SIZE).min(lane.len()));
            for &v in now {
                v.put(&mut self.buf);
            }
            lane = later;
        }
        Ok(())
    }
}

fn put_u64(out: &mut impl Sink, v: u64) -> std::io::Result<()> {
    out.put(&v.to_le_bytes())
}

fn put_str(out: &mut impl Sink, s: &str) -> std::io::Result<()> {
    put_u64(out, s.len() as u64)?;
    out.put(s.as_bytes())
}

/// A counted list of strings.
fn put_strs<'s>(
    out: &mut impl Sink,
    mut strs: impl ExactSizeIterator<Item = &'s str>,
) -> std::io::Result<()> {
    put_u64(out, strs.len() as u64)?;
    strs.try_for_each(|s| put_str(out, s))
}

/// A counted lane: `u64` element count, then the elements.
fn put_lane<T: LaneItem>(out: &mut impl Sink, lane: &[T]) -> std::io::Result<()> {
    put_u64(out, lane.len() as u64)?;
    out.put_items(lane)
}

/// The payload of section `section` (its position in [`SECTION_NAMES`]) of
/// `shard`, whose analyzer's stopwords are `stopwords`, sorted: the set
/// iterates in hash order, and sorting makes the bytes a pure function of
/// content.
fn put_payload(
    out: &mut impl Sink,
    shard: &Index,
    stopwords: &[&str],
    section: usize,
) -> std::io::Result<()> {
    match section {
        // analyzer — min token length + sorted stopwords.
        0 => {
            put_u64(out, shard.analyzer().min_token_len() as u64)?;
            put_strs(out, stopwords.iter().copied())
        }
        // terms, in TermId (lexicographic) order.
        1 => put_strs(out, shard.raw_terms().iter()),
        // CSR offsets.
        2 => put_lane(out, shard.raw_offsets()),
        // posting lanes, under whichever codec the index currently holds.
        3 => match shard.raw_store() {
            PostingStore::Flat { docs, tfs } => {
                out.put(&[CODEC_FLAT])?;
                put_u64(out, docs.len() as u64)?;
                out.put_items(docs)?;
                out.put_items(tfs)
            }
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            } => {
                out.put(&[CODEC_DELTA_VARINT])?;
                put_lane(out, byte_offsets)?;
                put_u64(out, bytes.len() as u64)?;
                out.put(bytes)
            }
        },
        // the frozen MaxScore bound lane and the weighted document lengths,
        // as exact bit patterns.
        4 => put_lane(out, shard.raw_term_max_tfs()),
        5 => put_lane(out, shard.doc_lengths()),
        // stored documents (external id + fields), in local-id order.
        6 => {
            put_u64(out, shard.num_docs() as u64)?;
            for d in 0..shard.num_docs() as u32 {
                let doc = shard.document(d).expect("a local id below num_docs");
                put_str(out, doc.external_id())?;
                put_u64(out, doc.fields().len() as u64)?;
                for (name, text) in doc.fields() {
                    put_str(out, name)?;
                    put_str(out, text)?;
                }
            }
            Ok(())
        }
        // the frozen block-max lanes — block size, per-term block offsets,
        // and the three parallel per-block lanes (max weighted tf as exact
        // bit patterns, first and last doc ids).
        _ => {
            let blocks = shard.raw_blocks();
            put_u64(out, blocks.block_size as u64)?;
            put_lane(out, &blocks.offsets)?;
            put_lane(out, &blocks.max_tfs)?;
            put_lane(out, &blocks.first_docs)?;
            put_lane(out, &blocks.last_docs)
        }
    }
}

/// A shard's stopwords, sorted.
fn sorted_stopwords(shard: &Index) -> Vec<&str> {
    let mut stopwords: Vec<&str> = shard.analyzer().stopwords().collect();
    stopwords.sort_unstable();
    stopwords
}

/// A writing thread's share of a save: the header's fingerprint, or one
/// section of `shard` (whose [`sorted_stopwords`] are `stopwords`), placed
/// by its stream's frame and hashed back from the file by that stream.
enum Job<'a> {
    Fingerprint,
    Section {
        shard: &'a Index,
        stopwords: &'a [&'a str],
        stream: Stream,
    },
}

/// The sections among `jobs`, as streams to hash.
fn sections<'s, 'a>(jobs: &'s mut [Job<'a>]) -> impl Iterator<Item = &'s mut Stream> + use<'s, 'a> {
    jobs.iter_mut().filter_map(|job| match job {
        Job::Fingerprint => None,
        Job::Section { stream, .. } => Some(stream),
    })
}

// --- the loader: framing and set-up -----------------------------------------

/// Read `buf.len()` bytes at `pos`.
fn read_at(file: &mut (impl Read + Seek), pos: u64, buf: &mut [u8]) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(pos))?;
    file.read_exact(buf)
}

/// One section as framed in the file: located and bounds-checked, its
/// payload neither hashed nor decoded yet.
#[derive(Clone, Copy)]
struct Frame {
    /// Position in [`SECTION_NAMES`].
    section: usize,
    /// File offset of the payload.
    start: u64,
    len: u64,
    /// The checksum the file claims for the payload.
    stored: u64,
}

impl Frame {
    fn name(&self) -> &'static str {
        SECTION_NAMES[self.section]
    }
}

/// Locate section `section` of a shard at `pos`, reading its tag, length
/// and stored checksum — 17 bytes — and check its tag; hashing is the
/// stream's business.
fn frame_section(
    file: &mut (impl Read + Seek),
    file_len: u64,
    pos: u64,
    section: usize,
) -> Result<Frame, SnapshotError> {
    let name = SECTION_NAMES[section];
    let rest = file_len - pos;
    let truncated = |n| Bad::Truncated(n).error(name);
    if rest < 1 {
        return Err(truncated(1));
    }
    let mut tag_len = [0u8; 9];
    let got = (rest - 1).min(8) as usize;
    read_at(file, pos, &mut tag_len[..1 + got])?;
    let (tag, expect_tag) = (tag_len[0], section as u8 + 1);
    if tag != expect_tag {
        return Err(corrupt(format!(
            "expected {name} section (tag {expect_tag}), found tag {tag}"
        )));
    }
    if got < 8 {
        return Err(truncated(8));
    }
    let len = u64::from_le_bytes(tag_len[1..].try_into().expect("8 bytes"));
    if len > rest - 9 {
        return Err(Bad::Count(len as usize).error(name));
    }
    let start = pos + 9;
    if rest - 9 - len < 8 {
        return Err(truncated(8));
    }
    let mut stored = [0u8; 8];
    read_at(file, start + len, &mut stored)?;
    Ok(Frame {
        section,
        start,
        len,
        stored: u64::from_le_bytes(stored),
    })
}

/// What makes a section undecodable, kept as data: a loading thread formats
/// no message — it allocates nothing — and the caller names the section.
#[derive(Debug, Clone, Copy)]
enum Bad {
    /// Fewer bytes left than the next field takes.
    Truncated(usize),
    /// A count of more items than the bytes left could hold.
    Count(usize),
    /// More than 4 GiB of text, which no text arena holds.
    TextRoom,
    Utf8,
    /// Bytes left after the last field.
    Trailing(usize),
    Codec(u8),
    /// A field the set-up read differs from the same field streamed: the
    /// file changed under the loader.
    Changed,
}

impl Bad {
    fn error(self, section: &str) -> SnapshotError {
        corrupt(match self {
            Bad::Truncated(n) => format!("truncated {section} section (wanted {n} more bytes)"),
            Bad::Count(n) => format!("implausible count {n} in {section} section"),
            Bad::TextRoom => format!("{section} section holds more than 4 GiB"),
            Bad::Utf8 => format!("non-UTF-8 string in {section} section"),
            Bad::Trailing(n) => format!("{section} section has {n} trailing bytes"),
            Bad::Codec(byte) => format!("unknown postings codec byte {byte}"),
            Bad::Changed => format!("{section} section changed while it was read"),
        })
    }
}

/// Why set-up could not prepare a section's walk.
enum Stop {
    Bad(Bad),
    Io(std::io::Error),
}

impl From<Bad> for Stop {
    fn from(bad: Bad) -> Self {
        Stop::Bad(bad)
    }
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        Stop::Io(e)
    }
}

/// A stretch of a section's payload, in order; set-up lists them.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// A field set-up read — a count, the codec byte, a scalar — `width`
    /// bytes that must stream in with the same value.
    Seen { value: u64, width: usize },
    /// `n` items of the destination's lane `lane`.
    Items { lane: usize, n: usize },
    /// `n` strings, each a `u64` length and its text, into the arena.
    Strs(usize),
    /// `n` stored documents.
    Docs(usize),
}

/// Where one section's payload lands, reserved by the caller before any
/// thread streams: every lane at its count, every arena at the section's
/// length, every table at its count, so decoding allocates nothing.
enum Dest {
    /// `min_token_len` and the stopwords.
    Analyzer(usize, TextArena),
    /// The vocabulary and the dictionary over it.
    Terms(TextArena, IdTable),
    Offsets(Vec<u32>),
    Flat(Vec<u32>, Vec<f64>),
    /// Per-block byte offsets and the stream.
    Compressed(Vec<u64>, Vec<u8>),
    /// `term_max_tfs` or `doc_lengths`.
    F64s(Vec<f64>),
    /// The stored documents and the external-id table over them.
    Docs(DocStore, IdTable),
    Blocks(BlockLanes),
}

/// A numeric lane being filled from the stream.
trait Lane {
    fn item_size(&self) -> usize;
    /// Append the items `bytes` holds, a whole number of them.
    fn extend_le(&mut self, bytes: &[u8]);
}

impl<T: LaneItem> Lane for Vec<T> {
    fn item_size(&self) -> usize {
        T::SIZE
    }

    fn extend_le(&mut self, bytes: &[u8]) {
        T::extend_from_le(self, bytes);
    }
}

impl Dest {
    /// Lane `i`, numbered as set-up numbered the [`Piece::Items`].
    fn lane(&mut self, i: usize) -> &mut dyn Lane {
        match (self, i) {
            (Dest::Offsets(v) | Dest::Flat(v, _), 0) => v,
            (Dest::Flat(_, v) | Dest::F64s(v), _) => v,
            (Dest::Compressed(v, _), 0) => v,
            (Dest::Compressed(_, v), _) => v,
            (Dest::Blocks(b), 0) => &mut b.offsets,
            (Dest::Blocks(b), 1) => &mut b.max_tfs,
            (Dest::Blocks(b), 2) => &mut b.first_docs,
            (Dest::Blocks(b), _) => &mut b.last_docs,
            _ => unreachable!("set-up numbers each section's lanes"),
        }
    }

    fn arena(&mut self) -> &mut TextArena {
        match self {
            Dest::Analyzer(_, arena) | Dest::Terms(arena, _) => arena,
            _ => unreachable!("only the analyzer and terms sections hold a string list"),
        }
    }

    fn docs(&mut self) -> &mut DocStore {
        match self {
            Dest::Docs(docs, _) => docs,
            _ => unreachable!("only the docs section holds documents"),
        }
    }

    /// Fill the table over a complete arena; it has room for every entry.
    fn index(&mut self) {
        match self {
            Dest::Terms(terms, table) => index_terms(table, terms),
            Dest::Docs(docs, table) => index_external_ids(table, docs),
            _ => {}
        }
    }
}

/// Field names a `docs` section's store has room for without growing, and
/// their bytes in all. A section with more is decoded again by the caller.
const NAME_ROOM: usize = 32;
const NAME_BYTES: usize = 1 << 10;

/// The caller's look at a section before it streams: the walk of its
/// fixed fields, as the serial reader walks them (the same checks, in the
/// same order, with the same errors), read at their offsets and listed as
/// [`Piece`]s.
struct Peek<'f, R> {
    file: &'f mut R,
    frame: Frame,
    /// Payload bytes walked.
    pos: usize,
    pieces: Vec<Piece>,
}

impl<R: Read + Seek> Peek<'_, R> {
    fn rest(&self) -> usize {
        self.frame.len as usize - self.pos
    }

    /// A `width`-byte little-endian field.
    fn seen(&mut self, width: usize) -> Result<u64, Stop> {
        if self.rest() < width {
            return Err(Bad::Truncated(width).into());
        }
        let mut le = [0u8; 8];
        read_at(
            self.file,
            self.frame.start + self.pos as u64,
            &mut le[..width],
        )?;
        self.pos += width;
        let value = u64::from_le_bytes(le);
        self.pieces.push(Piece::Seen { value, width });
        Ok(value)
    }

    /// A `u64` count of items at least `item_size` bytes each, checked
    /// against the bytes left before anything is reserved for them.
    fn count(&mut self, item_size: usize) -> Result<usize, Stop> {
        let n = self.seen(8)? as usize;
        if n.checked_mul(item_size)
            .is_none_or(|total| total > self.rest())
        {
            return Err(Bad::Count(n).into());
        }
        Ok(n)
    }

    /// `n` items of `size` bytes into lane `lane` (`n` from [`Peek::count`]).
    fn items(&mut self, lane: usize, n: usize, size: usize) {
        self.pos += n * size;
        self.pieces.push(Piece::Items { lane, n });
    }

    /// A counted lane, reserved at its count.
    fn lane<T: LaneItem>(&mut self, lane: usize) -> Result<Vec<T>, Stop> {
        let n = self.count(T::SIZE)?;
        self.items(lane, n, T::SIZE);
        Ok(Vec::with_capacity(n))
    }

    /// A counted list to the end of the section, of entries at least
    /// `item_size` bytes each: the count and the bytes after it, checked to
    /// fit a text arena's `u32` offsets (a snapshot this crate wrote never
    /// holds more than 4 GiB of text in one section, because its builder's
    /// arena could not). The stream walks the entries.
    fn list(
        &mut self,
        item_size: usize,
        piece: fn(usize) -> Piece,
    ) -> Result<(usize, usize), Stop> {
        let n = self.count(item_size)?;
        let rest = self.rest();
        if rest > u32::MAX as usize {
            return Err(Bad::TextRoom.into());
        }
        self.pieces.push(piece(n));
        self.pos = self.frame.len as usize;
        Ok((n, rest))
    }

    /// Strings, as `put_strs` wrote them, into one arena: each follows its
    /// 8-byte length, so the text is what the payload holds beyond the
    /// lengths.
    fn strs(&mut self) -> Result<(usize, TextArena), Stop> {
        let (n, rest) = self.list(8, Piece::Strs)?;
        Ok((n, TextArena::with_capacity(n, rest.saturating_sub(8 * n))))
    }

    /// Reserve the destination of this section, walking its fixed fields
    /// — all the way to its end, unless it ends in a list the stream walks.
    fn dest(&mut self) -> Result<Dest, Stop> {
        let dest = match self.frame.section {
            0 => {
                let min_token_len = self.seen(8)? as usize;
                Dest::Analyzer(min_token_len, self.strs()?.1)
            }
            1 => {
                let (n, terms) = self.strs()?;
                Dest::Terms(terms, IdTable::with_capacity(n))
            }
            2 => Dest::Offsets(self.lane(0)?),
            3 => match self.seen(1)? as u8 {
                CODEC_FLAT => {
                    let n = self.count(u32::SIZE + f64::SIZE)?;
                    self.items(0, n, u32::SIZE);
                    self.items(1, n, f64::SIZE);
                    Dest::Flat(Vec::with_capacity(n), Vec::with_capacity(n))
                }
                CODEC_DELTA_VARINT => Dest::Compressed(self.lane(0)?, self.lane(1)?),
                other => return Err(Bad::Codec(other).into()),
            },
            4 | 5 => Dest::F64s(self.lane(0)?),
            // Every stored string — an external id with its field count, or
            // a field text with its name — comes with at least 16 bytes of
            // lengths, and all their text is less than the bytes left; so
            // is every document's.
            6 => {
                let (n, rest) = self.list(8, Piece::Docs)?;
                let docs = DocStore::with_capacity(n, rest / 16, rest);
                Dest::Docs(
                    docs.with_name_room(NAME_ROOM, NAME_BYTES),
                    IdTable::with_capacity(n.min(rest / 16)),
                )
            }
            _ => Dest::Blocks(BlockLanes {
                block_size: self.seen(8)? as usize,
                offsets: self.lane(0)?,
                max_tfs: self.lane(1)?,
                first_docs: self.lane(2)?,
                last_docs: self.lane(3)?,
            }),
        };
        if self.rest() > 0 {
            return Err(Bad::Trailing(self.rest()).into());
        }
        Ok(dest)
    }
}

// --- the loader: streaming ------------------------------------------------

/// Why a walk stopped decoding.
enum Halt {
    Bad(Bad),
    /// A new field name did not fit the room reserved for names, on a
    /// thread that may not grow it.
    NoRoom,
}

impl From<Bad> for Halt {
    fn from(bad: Bad) -> Self {
        Halt::Bad(bad)
    }
}

/// Which string is being read, and so where its text goes.
#[derive(Debug, Clone, Copy)]
enum Text {
    /// A string of an analyzer or terms list.
    Str,
    /// A document's external id.
    Id,
    /// A field's name.
    Name,
    /// A field's text.
    Field,
}

/// What the walk of a section takes next.
#[derive(Debug, Clone, Copy)]
enum Want {
    /// The bytes of the current [`Piece::Seen`].
    Seen,
    /// Items of the current [`Piece::Items`]: [`Walk::left`] of them.
    Items,
    /// A string's `u64` length.
    Len(Text),
    /// The rest of a string's text, this many bytes.
    Text(Text, usize),
    /// A document's `u64` field count.
    Fields,
    /// Nothing: the section is complete.
    Done,
}

/// Up to three bytes of a character cut by a chunk boundary.
#[derive(Default)]
struct Utf8 {
    bytes: [u8; 4],
    have: usize,
}

impl Utf8 {
    /// Validate the next bytes of a string and hand them to `push` as text,
    /// holding back a character the chunk cuts; `push` says whether it had
    /// room.
    fn feed(&mut self, mut bytes: &[u8], mut push: impl FnMut(&str) -> bool) -> Result<(), Halt> {
        if self.have > 0 {
            let width = match self.bytes[0] {
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            };
            let take = (width - self.have).min(bytes.len());
            self.bytes[self.have..self.have + take].copy_from_slice(&bytes[..take]);
            self.have += take;
            bytes = &bytes[take..];
            if self.have < width {
                return Ok(());
            }
            self.have = 0;
            let c = std::str::from_utf8(&self.bytes[..width]).map_err(|_| Bad::Utf8)?;
            if !push(c) {
                return Err(Halt::NoRoom);
            }
        }
        let (text, cut) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, &[][..]),
            // Only a character the chunk cuts short is left over.
            Err(e) if e.error_len().is_none() => {
                let (valid, cut) = bytes.split_at(e.valid_up_to());
                (std::str::from_utf8(valid).expect("valid up to here"), cut)
            }
            Err(_) => return Err(Bad::Utf8.into()),
        };
        if !push(text) {
            return Err(Halt::NoRoom);
        }
        self.bytes[..cut.len()].copy_from_slice(cut);
        self.have = cut.len();
        Ok(())
    }
}

/// A section's payload decoded as it streams in, chunk by chunk: the push
/// form of the serial reader's walk, making the same checks in the same
/// order, so the first error is the one it would report.
struct Walk {
    pieces: Vec<Piece>,
    dest: Dest,
    /// The current piece.
    at: usize,
    len: usize,
    /// Payload bytes consumed.
    pos: usize,
    want: Want,
    /// Items, strings or documents left in the current piece.
    left: usize,
    /// Fields left in the current document.
    fields: usize,
    /// Id of the current field's name.
    name: u32,
    /// A fixed-width field or lane item cut by a chunk boundary.
    word: [u8; 8],
    have: usize,
    utf8: Utf8,
}

impl Walk {
    /// Every section starts with a field set-up read.
    fn new(pieces: Vec<Piece>, dest: Dest, len: usize) -> Walk {
        debug_assert!(matches!(pieces.first(), Some(Piece::Seen { .. })));
        Walk {
            pieces,
            dest,
            at: 0,
            len,
            pos: 0,
            want: Want::Seen,
            left: 0,
            fields: 0,
            name: 0,
            word: [0; 8],
            have: 0,
            utf8: Utf8::default(),
        }
    }

    /// Decode the next bytes of the payload. `grow` lets the store grow its
    /// field names beyond the room reserved for them.
    fn feed(&mut self, mut chunk: &[u8], grow: bool) -> Result<(), Halt> {
        while !chunk.is_empty() {
            match self.want {
                Want::Done => unreachable!("a walk ends where its payload does"),
                Want::Items => self.items(&mut chunk)?,
                // The rest of the string is in this chunk, from a character
                // boundary on: validated and stored in one step.
                Want::Text(text, left) if left <= chunk.len() && self.utf8.have == 0 => {
                    let (last, rest) = chunk.split_at(left);
                    chunk = rest;
                    self.pos += left;
                    let last = std::str::from_utf8(last).map_err(|_| Bad::Utf8)?;
                    self.end_text(text, last, grow)?;
                }
                Want::Text(text, left) => {
                    let (part, rest) = chunk.split_at(left.min(chunk.len()));
                    chunk = rest;
                    self.pos += part.len();
                    self.text_part(text, part, grow)?;
                    if part.len() == left {
                        self.end_text(text, "", grow)?;
                    } else {
                        self.want = Want::Text(text, left - part.len());
                    }
                }
                Want::Seen | Want::Len(_) | Want::Fields => {
                    let width = match (self.want, self.pieces[self.at]) {
                        (Want::Seen, Piece::Seen { width, .. }) => width,
                        _ => 8,
                    };
                    if self.fill(&mut chunk, width) {
                        let value = u64::from_le_bytes(std::mem::take(&mut self.word));
                        self.got(value, grow)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Move bytes of `chunk` into the word until it holds `width`; whether
    /// it does.
    fn fill(&mut self, chunk: &mut &[u8], width: usize) -> bool {
        let take = (width - self.have).min(chunk.len());
        self.word[self.have..self.have + take].copy_from_slice(&chunk[..take]);
        *chunk = &chunk[take..];
        self.have += take;
        self.pos += take;
        let full = self.have == width;
        if full {
            self.have = 0;
        }
        full
    }

    /// Items of the current lane: one cut by the last chunk, then every
    /// whole one in this chunk, then the start of one it cuts.
    fn items(&mut self, chunk: &mut &[u8]) -> Result<(), Halt> {
        let Piece::Items { lane, .. } = self.pieces[self.at] else {
            unreachable!("items are wanted in an items piece")
        };
        let size = self.dest.lane(lane).item_size();
        if self.have > 0 {
            if !self.fill(chunk, size) {
                return Ok(());
            }
            let word = std::mem::take(&mut self.word);
            self.dest.lane(lane).extend_le(&word[..size]);
            self.left -= 1;
        }
        let whole = self.left.min(chunk.len() / size);
        let (items, rest) = chunk.split_at(whole * size);
        self.dest.lane(lane).extend_le(items);
        self.left -= whole;
        self.pos += items.len();
        *chunk = rest;
        if self.left == 0 {
            return self.next_piece();
        }
        self.fill(chunk, size);
        Ok(())
    }

    /// A complete field of the current want.
    fn got(&mut self, value: u64, grow: bool) -> Result<(), Halt> {
        match self.want {
            Want::Seen => {
                let Piece::Seen { value: seen, .. } = self.pieces[self.at] else {
                    unreachable!("a seen field is wanted in a seen piece")
                };
                if value != seen {
                    return Err(Bad::Changed.into());
                }
                self.next_piece()
            }
            Want::Fields => {
                self.fields = self.count(value, 16)?;
                self.next_field()
            }
            Want::Len(text) => match self.count(value, 1)? {
                0 => self.end_text(text, "", grow),
                n => {
                    self.want = Want::Text(text, n);
                    Ok(())
                }
            },
            _ => unreachable!("only fixed-width fields complete here"),
        }
    }

    /// `value` as a count of items at least `item_size` bytes each,
    /// checked against the bytes left.
    fn count(&self, value: u64, item_size: usize) -> Result<usize, Bad> {
        let n = value as usize;
        if n.checked_mul(item_size)
            .is_none_or(|total| total > self.len - self.pos)
        {
            return Err(Bad::Count(n));
        }
        Ok(n)
    }

    /// Want a `u64` next, if the bytes left hold one.
    fn want_u64(&mut self, want: Want) -> Result<(), Halt> {
        if self.len - self.pos < 8 {
            return Err(Bad::Truncated(8).into());
        }
        self.want = want;
        Ok(())
    }

    fn next_piece(&mut self) -> Result<(), Halt> {
        self.at += 1;
        match self.pieces.get(self.at) {
            None => {
                if self.pos != self.len {
                    return Err(Bad::Trailing(self.len - self.pos).into());
                }
                self.want = Want::Done;
                self.dest.index();
                Ok(())
            }
            Some(Piece::Seen { .. }) => {
                self.want = Want::Seen;
                Ok(())
            }
            Some(&Piece::Items { n: 0, .. }) => self.next_piece(),
            Some(&Piece::Items { n, .. }) => {
                self.left = n;
                self.want = Want::Items;
                Ok(())
            }
            Some(&Piece::Strs(n)) => {
                self.left = n;
                self.next_str()
            }
            Some(&Piece::Docs(n)) => {
                self.left = n;
                self.next_doc()
            }
        }
    }

    fn next_str(&mut self) -> Result<(), Halt> {
        if self.left == 0 {
            return self.next_piece();
        }
        self.left -= 1;
        self.want_u64(Want::Len(Text::Str))
    }

    fn next_doc(&mut self) -> Result<(), Halt> {
        if self.left == 0 {
            return self.next_piece();
        }
        self.left -= 1;
        self.want_u64(Want::Len(Text::Id))
    }

    fn next_field(&mut self) -> Result<(), Halt> {
        if self.fields == 0 {
            return self.next_doc();
        }
        self.fields -= 1;
        self.want_u64(Want::Len(Text::Name))
    }

    /// Part of a string's text, where that string goes.
    fn text_part(&mut self, text: Text, bytes: &[u8], grow: bool) -> Result<(), Halt> {
        let dest = &mut self.dest;
        self.utf8.feed(bytes, |s| match text {
            Text::Str => {
                dest.arena().push_part(s);
                true
            }
            Text::Id | Text::Field => {
                dest.docs().text_part(s);
                true
            }
            Text::Name => dest.docs().name_part(s, grow),
        })
    }

    /// A string is complete with its `last` part, which is valid text.
    fn end_text(&mut self, text: Text, last: &str, grow: bool) -> Result<(), Halt> {
        if self.utf8.have > 0 {
            return Err(Bad::Utf8.into());
        }
        match text {
            Text::Str => {
                let arena = self.dest.arena();
                arena.push_part(last);
                arena.end_string();
                self.next_str()
            }
            Text::Id => {
                let docs = self.dest.docs();
                docs.text_part(last);
                docs.end_external_id();
                self.want_u64(Want::Fields)
            }
            Text::Name => {
                self.name = self.dest.docs().end_name(last, grow).ok_or(Halt::NoRoom)?;
                self.want_u64(Want::Len(Text::Field))
            }
            Text::Field => {
                let (docs, name) = (self.dest.docs(), self.name);
                docs.text_part(last);
                docs.end_field(name);
                self.next_field()
            }
        }
    }
}

/// One section on its way through a loading thread: hashed chunk by chunk,
/// each chunk decoded where it lands.
struct Stream {
    frame: Frame,
    /// Payload bytes read and hashed.
    read: u64,
    hash: Fnv1a,
    /// The decode, for a section of a fully framed shard whose set-up held
    /// (boxed, so the caller's list of streams stays small).
    walk: Option<Box<Walk>>,
    /// The first decode error, from set-up or the walk.
    error: Option<Bad>,
    /// Stopped for want of room for field names: the caller streams the
    /// section again, letting the store grow.
    deferred: bool,
}

impl Stream {
    /// A section to hash only.
    fn hashed(frame: Frame) -> Stream {
        Stream {
            frame,
            read: 0,
            hash: Fnv1a::new(),
            walk: None,
            error: None,
            deferred: false,
        }
    }

    /// A section to hash and decode: set-up reads its fixed fields and
    /// reserves its destination.
    fn decoded(file: &mut (impl Read + Seek), frame: Frame) -> std::io::Result<Stream> {
        let mut stream = Stream::hashed(frame);
        let mut peek = Peek {
            file,
            frame,
            pos: 0,
            pieces: Vec::new(),
        };
        match peek.dest() {
            Ok(dest) => {
                stream.walk = Some(Box::new(Walk::new(peek.pieces, dest, frame.len as usize)))
            }
            Err(Stop::Bad(bad)) => stream.error = Some(bad),
            Err(Stop::Io(e)) => return Err(e),
        }
        Ok(stream)
    }

    fn feed(&mut self, chunk: &[u8], grow: bool) {
        if self.error.is_some() {
            return;
        }
        if let Some(walk) = &mut self.walk {
            match walk.feed(chunk, grow) {
                Ok(()) => {}
                Err(Halt::Bad(bad)) => self.error = Some(bad),
                Err(Halt::NoRoom) => self.deferred = true,
            }
        }
    }

    /// The decoded destination, once the whole payload has streamed.
    fn take_dest(&mut self) -> Dest {
        let walk = self
            .walk
            .take()
            .expect("a section without an error was set up");
        debug_assert!(matches!(walk.want, Want::Done), "{:?}", walk.want);
        walk.dest
    }
}

/// Stream `streams` in order through `buffer`, up to [`LANES`] at a time:
/// read the next chunk of each, hash the chunks side by side
/// ([`checksums`]), decode each where it landed; a lane whose section ends
/// takes the next. Allocates nothing unless `grow` lets a store grow its
/// field names.
fn stream<'s, R: Read + Seek>(
    file: &mut R,
    streams: impl IntoIterator<Item = &'s mut Stream>,
    buffer: &mut [u8],
    grow: bool,
) -> std::io::Result<()> {
    let slot = buffer.len() / LANES;
    let mut queue = streams.into_iter();
    let mut lanes: [Option<&mut Stream>; LANES] = Default::default();
    loop {
        for lane in lanes.iter_mut().filter(|lane| lane.is_none()) {
            *lane = queue.next();
        }
        if lanes.iter().all(Option::is_none) {
            return Ok(());
        }
        let mut lens = [0; LANES];
        for ((lane, buf), n) in lanes.iter().zip(buffer.chunks_mut(slot)).zip(&mut lens) {
            if let Some(s) = lane {
                *n = (s.frame.len - s.read).min(slot as u64) as usize;
                read_at(file, s.frame.start + s.read, &mut buf[..*n])?;
            }
        }
        let mut chunks: [&[u8]; LANES] = [&[]; LANES];
        for ((chunk, buf), n) in chunks.iter_mut().zip(buffer.chunks(slot)).zip(lens) {
            *chunk = &buf[..n];
        }
        let mut hashes = lanes
            .each_ref()
            .map(|lane| lane.as_ref().map_or(Fnv1a::new(), |s| s.hash));
        checksums(&mut hashes, chunks);
        for ((lane, chunk), hash) in lanes.iter_mut().zip(chunks).zip(hashes) {
            if let Some(s) = lane {
                s.hash = hash;
                s.read += chunk.len() as u64;
                s.feed(chunk, grow);
                if s.deferred || s.read == s.frame.len {
                    *lane = None;
                }
            }
        }
    }
}

/// One shard from its eight streamed sections: the first section in file
/// order that did not decode, or the lanes checked against each other
/// (`Index::from_indexed_parts`).
fn assemble(group: &mut [Stream]) -> Result<Index, SnapshotError> {
    if let Some(e) = group
        .iter()
        .find_map(|s| s.error.map(|bad| bad.error(s.frame.name())))
    {
        return Err(e);
    }
    let dests: [Dest; SECTION_NAMES.len()] = std::array::from_fn(|i| group[i].take_dest());
    let [Dest::Analyzer(min_token_len, stopwords), Dest::Terms(terms, term_ids), Dest::Offsets(offsets), postings, Dest::F64s(term_max_tfs), Dest::F64s(doc_lengths), Dest::Docs(docs, external_to_doc), Dest::Blocks(blocks)] =
        dests
    else {
        unreachable!("set-up reserves each section's destination")
    };
    let store = match postings {
        Dest::Flat(docs, tfs) => PostingStore::Flat { docs, tfs },
        Dest::Compressed(byte_offsets, bytes) => PostingStore::Compressed {
            bytes,
            byte_offsets,
        },
        _ => unreachable!("set-up reserves posting lanes"),
    };
    let analyzer = Analyzer::keep_all()
        .with_stopwords(stopwords.iter())
        .with_min_token_len(min_token_len);
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
    .map_err(corrupt)
}

/// Decode a snapshot of `file_len` bytes, read through `file` by this
/// thread and through `helper_file` by one helper: frame every section,
/// reserve every destination, stream the sections on both threads, then
/// report what a reader going through the file serially would have
/// reported.
fn decode_snapshot<R: Read + Seek + Send>(
    mut file: R,
    mut helper_file: R,
    file_len: u64,
) -> Result<ShardedIndex, SnapshotError> {
    let mut header_bytes = [0u8; HEADER_LEN];
    if file_len < HEADER_LEN as u64 {
        return Err(corrupt("truncated header (shorter than 32 bytes)"));
    }
    read_at(&mut file, 0, &mut header_bytes)?;
    let header = parse_header(&header_bytes)?;
    if header.shard_count == 0 {
        return Err(corrupt("snapshot declares zero shards"));
    }

    // Framing reads 17 bytes per section, so it is done for the whole file
    // before anything is hashed or decoded; it stops at the first section
    // that cannot be located, and the sections before it still count.
    let per_shard = SECTION_NAMES.len();
    let mut frames = Vec::new();
    let mut end = HEADER_LEN as u64;
    let framing_error = (0..header.shard_count)
        .flat_map(|_| 0..per_shard)
        .try_for_each(|section| {
            let frame = frame_section(&mut file, file_len, end, section)?;
            end = frame.start + frame.len + 8;
            frames.push(frame);
            Ok(())
        })
        .err();
    let framing_error = match framing_error {
        Some(SnapshotError::Io(e)) => return Err(SnapshotError::Io(e)),
        other => other,
    };

    // Set-up: every section of a fully framed shard gets its destination
    // reserved here, on the calling thread; the rest are only hashed.
    let framed = frames.len() / per_shard * per_shard;
    let mut streams = Vec::with_capacity(frames.len());
    for (i, &frame) in frames.iter().enumerate() {
        streams.push(if i < framed {
            Stream::decoded(&mut file, frame)?
        } else {
            Stream::hashed(frame)
        });
    }

    // Both threads stream their share through a buffer allocated here; a
    // helper that cannot be spawned leaves its share to this thread.
    let slot = (STREAM_BUFFER.min(file_len as usize) / LANES).max(1);
    let mut buffer = vec![0u8; slot * LANES];
    let mut helper_buffer = vec![0u8; slot * LANES];
    let [mine, mut theirs] = deal(streams.iter_mut(), |s| s.frame.len);
    let (streamed, helped) = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new().spawn_scoped(scope, || {
            stream(
                &mut helper_file,
                theirs.iter_mut().map(|s| &mut **s),
                &mut helper_buffer,
                false,
            )
        });
        let streamed = stream(&mut file, mine, &mut buffer, true);
        let helped = helper
            .ok()
            .map(|helper| helper.join().expect("streaming a section does not panic"));
        (streamed, helped)
    });
    streamed?;
    match helped {
        Some(helped) => helped?,
        None => stream(&mut file, theirs, &mut buffer, true)?,
    }
    drop(helper_buffer);
    // Sections a helper left for want of room for field names, streamed
    // again from the start here.
    for s in streams.iter_mut().filter(|s| s.deferred) {
        *s = Stream::decoded(&mut file, s.frame)?;
        stream(&mut file, [&mut *s], &mut buffer, true)?;
    }
    drop(buffer);

    // Decode the fully framed shards in order, stopping at the first error.
    let bad_checksum = streams
        .iter()
        .position(|s| s.hash.finish() != s.frame.stored);
    let mut shards = Vec::with_capacity(framed / per_shard);
    let decode_error = streams
        .chunks_exact_mut(per_shard)
        .try_for_each(|group| assemble(group).map(|shard| shards.push(shard)))
        .err();

    // A serial reader frames and verifies a shard section by section, then
    // decodes it, then moves on. So a bad checksum outranks a decode error
    // in its own or a later shard (the decode stopped in `shards.len()`) and
    // the framing error, which lies beyond every framed section; a decode
    // error outranks the framing error, which lies beyond every decoded shard.
    if let Some(bad) = bad_checksum.filter(|bad| bad / per_shard <= shards.len()) {
        let name = streams[bad].frame.name();
        return Err(corrupt(format!("checksum mismatch in {name} section")));
    }
    if let Some(e) = decode_error.or(framing_error) {
        return Err(e);
    }
    if end != file_len {
        return Err(corrupt(format!(
            "{} trailing bytes after the last shard",
            file_len - end
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
    /// at the final path; a save that fails removes its `.tmp`). Stores the
    /// posting lanes under their current [`crate::PostingsCodec`] and the
    /// corpus fingerprint in the header.
    ///
    /// Every section's length is counted from its lanes first, which places
    /// every frame in the file. Then this thread and one helper write half
    /// the sections each at their places, each payload streamed through the
    /// thread's one fixed buffer, then hashed back from the file four
    /// sections side by side, while one of them computes the fingerprint if
    /// it is not yet known; the header goes last (see *Writer order* in
    /// `docs/INDEX_FORMAT.md`). The save holds no copy of a section,
    /// whatever its size. The `snapshot.write` failpoint is checked once
    /// per section, on the thread that writes it.
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
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let saved = self
            .write_snapshot(&tmp)
            .and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            // The partial file would hold the space a full disk lacked.
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(saved?)
    }

    fn write_snapshot(&self, tmp: &Path) -> std::io::Result<()> {
        // Every frame's place, from the lengths counted first. The sorted
        // stopwords are the one thing a payload needs allocated: sorted
        // here, before the buffers, they leave the writing threads nothing
        // to allocate, so a save's peak memory is the same on every run.
        let stopwords: Vec<Vec<&str>> = self.shards().iter().map(sorted_stopwords).collect();
        let mut end = HEADER_LEN as u64;
        let mut jobs = vec![Job::Fingerprint];
        for (shard, stopwords) in self.shards().iter().zip(&stopwords) {
            for section in 0..SECTION_NAMES.len() {
                let mut len = Counted(0);
                put_payload(&mut len, shard, stopwords, section)?;
                let frame = Frame {
                    section,
                    start: end + 9,
                    len: len.0,
                    stored: 0,
                };
                end = frame.start + frame.len + 8;
                jobs.push(Job::Section {
                    shard,
                    stopwords,
                    stream: Stream::hashed(frame),
                });
            }
        }
        // The fingerprint walks every document and posting once: weighed as
        // the whole file while it is unknown, as nothing once it is kept.
        let fingerprint = if self.fingerprint_known() { 0 } else { end };
        let [mut mine, mut theirs] = deal(jobs, |job| match job {
            Job::Fingerprint => fingerprint,
            Job::Section { stream, .. } => stream.frame.len,
        });

        // Each thread writes through a handle of its own, so neither moves
        // the other's file position, and a buffer allocated here; a helper
        // that cannot be spawned leaves its share to this thread.
        let open = File::options().read(true).write(true).clone();
        let mut writer = Writer::new(open.clone().create(true).truncate(true).open(tmp)?);
        let mut helper_writer = Writer::new(open.open(tmp)?);
        let (written, helped) = std::thread::scope(|scope| {
            let helper = std::thread::Builder::new()
                .spawn_scoped(scope, || self.write_jobs(&mut theirs, &mut helper_writer));
            let written = self.write_jobs(&mut mine, &mut writer);
            let helped = helper.ok().map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            });
            (written, helped)
        });
        written?;
        match helped {
            Some(helped) => helped?,
            None => self.write_jobs(&mut theirs, &mut writer)?,
        }

        // The header goes last: it carries the fingerprint.
        writer.seek(0)?;
        writer.put(&SNAPSHOT_MAGIC)?;
        writer.put(&SNAPSHOT_VERSION.to_le_bytes())?;
        writer.put(&(self.num_shards() as u32).to_le_bytes())?;
        put_u64(&mut writer, self.num_docs() as u64)?;
        put_u64(&mut writer, self.fingerprint())?;
        writer.flush()?;
        writer.file.sync_all()
    }

    /// One writing thread's share: every section's tag, length and payload
    /// written at its frame, then every payload hashed back from the file up
    /// to [`LANES`] side by side, as a load hashes them, and its checksum
    /// written after it.
    fn write_jobs(&self, jobs: &mut [Job], w: &mut Writer) -> std::io::Result<()> {
        for job in jobs.iter() {
            let Job::Section {
                shard,
                stopwords,
                stream: Stream { frame, .. },
            } = job
            else {
                self.fingerprint();
                continue;
            };
            // `snapshot.write` failpoint: a deterministic stand-in for a full
            // disk or a yanked volume, once per section, on the thread that
            // writes it.
            fault::check(site::SNAPSHOT_WRITE).map_err(io_fault)?;
            w.seek(frame.start - 9)?;
            w.put(&[frame.section as u8 + 1])?;
            put_u64(w, frame.len)?;
            put_payload(w, shard, stopwords, frame.section)?;
            debug_assert_eq!(w.pos + w.buf.len() as u64, frame.start + frame.len);
        }
        w.flush()?;
        w.buf.resize(STREAM_BUFFER, 0);
        stream(&mut w.file, sections(jobs), &mut w.buf, false)?;
        w.buf.clear();
        for s in sections(jobs) {
            w.seek(s.frame.start + s.frame.len)?;
            put_u64(w, s.hash.finish())?;
        }
        w.flush()
    }

    /// Load a snapshot previously written by [`ShardedIndex::save_snapshot`].
    /// Validates the header, every section checksum, and the structural
    /// invariants of every lane; rebuilds all derived state. The result is
    /// indistinguishable from the originally built index — same
    /// fingerprint, same scores to the last bit, same codec.
    ///
    /// This thread frames every section by seeking and reserves every lane,
    /// arena and table from the frame lengths and leading counts; then it
    /// and one helper stream half the sections each through fixed buffers,
    /// hashing each chunk and decoding it where it lands (see *Loader
    /// order* in `docs/INDEX_FORMAT.md`). The file is never held in memory:
    /// beyond the index, a load holds two buffers. Nothing is returned
    /// before every checksum held, and a damaged file is reported exactly
    /// as a serial verify-then-decode reader would.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ShardedIndex, SnapshotError> {
        // `snapshot.read` failpoint: injects a transient read error ahead
        // of the real file read, for exercising retry/quarantine paths.
        fault::check(site::SNAPSHOT_READ).map_err(io_fault)?;
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        decode_snapshot(file, File::open(path)?, len)
    }
}

#[cfg(test)]
mod tests {
    //! The loader against the serial verify-then-decode reader it replaced,
    //! kept here as the oracle, over a sweep of damaged files.

    use super::*;
    use crate::alloc_probe::largest_allocation_during;
    use crate::index::tests::assert_same_index;
    use crate::{Document, IndexBuilder};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // --- the serial reference ----------------------------------------------

    fn checksum(payload: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(payload);
        h.finish()
    }

    /// One section as framed in the file: located and bounds-checked, its
    /// payload neither verified against `stored` nor decoded yet.
    struct Section<'a> {
        payload: &'a [u8],
        /// The checksum the file claims for `payload`.
        stored: u64,
    }

    /// Bounds-checked little-endian cursor over a whole snapshot in memory.
    /// Every read that would run past the end is a
    /// [`SnapshotError::Corrupt`], so bogus lengths can never cause wild
    /// allocations or slices.
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

        fn u32(&mut self) -> Result<u32, SnapshotError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
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

        /// A string, borrowed from the file.
        fn str(&mut self) -> Result<&'a str, SnapshotError> {
            let len = self.count(1)?;
            let bytes = self.take(len)?;
            std::str::from_utf8(bytes)
                .map_err(|_| corrupt(format!("non-UTF-8 string in {} section", self.section)))
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

    /// Locate the next framed section of `file` and check its tag.
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
            payload: file.take(len)?,
            stored: file.u64()?,
        })
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

    // --- the serial writer ---------------------------------------------------

    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.extend_from_slice(bytes);
            Ok(())
        }

        fn put_items<T: LaneItem>(&mut self, lane: &[T]) -> std::io::Result<()> {
            for &v in lane {
                v.put(self);
            }
            Ok(())
        }
    }

    /// The save as it was before the threads, into one buffer: the header,
    /// then every shard's sections in file order, each gathered whole and
    /// framed — tag, length, payload, checksum.
    fn saved_reference(index: &ShardedIndex) -> Vec<u8> {
        let mut file = SNAPSHOT_MAGIC.to_vec();
        file.extend(SNAPSHOT_VERSION.to_le_bytes());
        file.extend((index.num_shards() as u32).to_le_bytes());
        file.extend((index.num_docs() as u64).to_le_bytes());
        file.extend(index.fingerprint().to_le_bytes());
        for shard in index.shards() {
            let stopwords = sorted_stopwords(shard);
            for (section, tag) in (0..SECTION_NAMES.len()).zip(1u8..) {
                let mut payload = Vec::new();
                put_payload(&mut payload, shard, &stopwords, section).unwrap();
                let sum = checksum(&payload);
                file.push(tag);
                file.extend((payload.len() as u64).to_le_bytes());
                file.extend(payload);
                file.extend(sum.to_le_bytes());
            }
        }
        file
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

    /// A small index of `shards` shards with every kind of content the
    /// sections can hold: stopwords, multi-posting rows that span blocks,
    /// fractional tfs, a field-less document, duplicate and empty external
    /// ids. The stored text is most of the file, as in a real one — so a
    /// `docs` count taken at its on-disk width would reserve several times
    /// the file.
    fn valid_index(compressed: bool, shards: usize) -> ShardedIndex {
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
        let mut index = b.build_sharded(shards);
        if compressed {
            index.compress_postings();
        }
        index
    }

    /// The bytes `save_snapshot` writes for [`valid_index`].
    fn valid_snapshot(compressed: bool, shards: usize) -> Vec<u8> {
        saved(&valid_index(compressed, shards))
    }

    /// A path of its own in the temporary directory.
    fn scratch_path() -> std::path::PathBuf {
        static UNIQUE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qunits-snapshot-sweep-{}-{}.qx",
            std::process::id(),
            UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ))
    }

    /// The bytes `save_snapshot` writes for `index`. The save holds the
    /// fault registry, so no test's `snapshot.write` schedule reaches it.
    fn saved(index: &ShardedIndex) -> Vec<u8> {
        let _registry = fault::registry_test_lock();
        let path = scratch_path();
        index.save_snapshot(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    /// The loader over a snapshot in memory, each thread through a cursor of
    /// its own.
    fn decode_bytes(bytes: &[u8]) -> Result<ShardedIndex, SnapshotError> {
        let cursor = || std::io::Cursor::new(bytes);
        decode_snapshot(cursor(), cursor(), bytes.len() as u64)
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
            largest_allocation_during(|| catch_unwind(AssertUnwindSafe(|| decode_bytes(bytes))));
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
        for (compressed, shards) in [(false, 2), (true, 2), (false, 1)] {
            let valid = valid_snapshot(compressed, shards);
            let (spans, fields) = map_of(&valid);
            let codec = if compressed { "compressed" } else { "flat" };
            let codec = &format!("{codec}, {shards} shard(s)");
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
            for (k, field) in fields.iter().enumerate().filter(|_| shards == 2) {
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
                .chain([(1, per_shard + 2)].into_iter().filter(|_| shards == 2));
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
            let mut whole = [Fnv1a::new(); LANES];
            checksums(&mut whole, payloads);
            assert_eq!(
                whole.map(|h| h.finish()),
                payloads.map(checksum),
                "{lens:?}"
            );
            // Resumed at a cut in each payload, as chunk after chunk.
            let mut resumed = [Fnv1a::new(); LANES];
            checksums(&mut resumed, payloads.map(|p| &p[..p.len() / 3]));
            checksums(&mut resumed, payloads.map(|p| &p[p.len() / 3..]));
            assert_eq!(
                resumed.map(|h| h.finish()),
                payloads.map(checksum),
                "{lens:?}"
            );
        }
    }

    /// Which error wins when a file is damaged in two places: the serial
    /// order — per shard framing and checksum section by section, then the
    /// decode — not the order the overlapped loader happens to notice them.
    #[test]
    fn the_first_error_in_file_order_wins() {
        let valid = valid_snapshot(false, 2);
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

    // --- strings cut by chunk boundaries ------------------------------------

    /// Characters of every UTF-8 width, the wider ones most often, so a
    /// chunk boundary that falls inside a string usually cuts a character.
    const CHARS: &[char] = &['a', ' ', 'İ', 'ß', '€', '🎬', '🎬'];

    /// A field name longer than the room a loading helper has for names.
    fn long_name() -> String {
        "ß".repeat(NAME_BYTES)
    }

    prop_compose! {
        /// Text of up to three stream buffers, or (one time in four) a few
        /// bytes, so strings both span refills and share chunks.
        fn text()(
            len in 0usize..=3 * STREAM_BUFFER,
            short in 0usize..4,
            seed in 0u64..u64::MAX,
        ) -> String {
            let len = if short == 0 { len % 40 } else { len };
            let mut state = seed;
            let mut text = String::with_capacity(len + 4);
            while text.len() < len {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                text.push(CHARS[(state >> 33) as usize % CHARS.len()]);
            }
            text
        }
    }

    prop_compose! {
        fn document()(
            id in text(),
            fields in prop::collection::vec(
                (prop::sample::select(vec!["body".to_owned(), "İ".to_owned(), long_name()]), text()),
                0..3,
            ),
        ) -> Document {
            fields
                .into_iter()
                .fold(Document::new(id), |doc, (name, text)| doc.field(name, text))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// External ids, field names and texts from empty to three stream
        /// buffers long, multi-byte characters cut by refills: what loads is
        /// what was saved, lane for lane, at 1, 2 and 3 shards and both
        /// codecs.
        #[test]
        fn strings_cut_at_chunk_boundaries_load_back_as_saved(
            docs in prop::collection::vec(document(), 1..6),
            shards in 1usize..=3,
            compressed in 0usize..2,
        ) {
            let mut b = IndexBuilder::new();
            for doc in docs {
                b.add(doc);
            }
            let mut built = b.build_sharded(shards);
            if compressed == 1 {
                built.compress_postings();
            }
            let loaded = decode_bytes(&saved(&built)).expect("a saved index loads");
            prop_assert_eq!(loaded.fingerprint(), built.fingerprint());
            for (i, (got, want)) in loaded.shards().iter().zip(built.shards()).enumerate() {
                assert_same_index(got, want, &format!("shard {i} of {shards}"));
            }
        }
    }

    /// More distinct field names than a helper has room for: the helper
    /// stops decoding the `docs` section and the caller streams it again,
    /// free to grow, so the load is still the saved index.
    #[test]
    fn a_helper_leaves_a_docs_section_with_many_field_names_to_the_caller() {
        let mut b = IndexBuilder::new();
        for i in 0..3 * NAME_ROOM {
            b.add(Document::new(format!("d{i}")).field(format!("field{i}"), "star wars"));
        }
        let built = b.build_sharded(2);
        let bytes = saved(&built);

        // On its own, a non-growing stream of shard 0's docs section defers it.
        let mut file = std::io::Cursor::new(&bytes[..]);
        let mut pos = HEADER_LEN as u64;
        let frame = (0..SECTION_NAMES.len())
            .map(|section| {
                let frame = super::frame_section(&mut file, bytes.len() as u64, pos, section);
                let frame = frame.expect("a saved section frames");
                pos = frame.start + frame.len + 8;
                frame
            })
            .find(|frame| frame.name() == "docs")
            .expect("a shard has a docs section");
        let mut stream_of_docs = Stream::decoded(&mut file, frame).unwrap();
        let mut buffer = vec![0u8; STREAM_BUFFER];
        stream(&mut file, [&mut stream_of_docs], &mut buffer, false).unwrap();
        assert!(
            stream_of_docs.deferred,
            "a helper ran out of room for names"
        );
        assert!(stream_of_docs.error.is_none());

        let loaded = decode_bytes(&bytes).expect("the caller decodes the section again");
        for (i, (got, want)) in loaded.shards().iter().zip(built.shards()).enumerate() {
            assert_same_index(got, want, &format!("shard {i}"));
        }
    }

    // --- the threaded writer --------------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The threaded save writes the serial writer's bytes: at 1 to 4
        /// shards (more shards than documents leaves some empty), under both
        /// codecs, with the fingerprint known beforehand or computed beside
        /// the sections, over payloads that span many buffer refills.
        #[test]
        fn a_threaded_save_writes_the_serial_writers_bytes(
            docs in prop::collection::vec(document(), 0..5),
            shards in 1usize..=4,
            compressed in 0usize..2,
            fingerprinted in 0usize..2,
        ) {
            let mut b = IndexBuilder::new();
            for doc in docs {
                b.add(doc);
            }
            let mut built = b.build_sharded(shards);
            if compressed == 1 {
                built.compress_postings();
            }
            if fingerprinted == 1 {
                built.fingerprint();
            }
            let threaded = saved(&built);
            prop_assert!(threaded == saved_reference(&built), "{shards} shard(s): the bytes differ");
        }
    }

    /// `snapshot.write=error@#k` for every section a save writes: each k is
    /// an `Io` error that leaves no `.tmp` beside the path and the snapshot
    /// already at the path as it was. One more section than there are never
    /// fires, and that save writes the serial writer's bytes.
    #[test]
    fn a_write_that_fails_at_any_section_leaves_the_old_snapshot() {
        let _registry = fault::registry_test_lock();
        for shards in [1, 2] {
            let index = valid_index(false, shards);
            let path = scratch_path();
            let mut tmp = path.clone().into_os_string();
            tmp.push(".tmp");
            valid_index(true, shards).save_snapshot(&path).unwrap();
            let old = std::fs::read(&path).unwrap();
            let sections = SECTION_NAMES.len() * shards;
            for k in 1..=sections + 1 {
                fault::install(&format!("snapshot.write=error@#{k}")).unwrap();
                let result = index.save_snapshot(&path);
                let (hits, fired) = fault::site_counters(site::SNAPSHOT_WRITE);
                fault::clear();
                let what = format!("{shards} shard(s), error at section #{k}");
                assert!(
                    !std::path::Path::new(&tmp).exists(),
                    "{what}: a .tmp is left"
                );
                if k <= sections {
                    assert!(
                        matches!(result, Err(SnapshotError::Io(_))),
                        "{what}: {result:?}"
                    );
                    assert_eq!(fired, 1, "{what}");
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        old,
                        "{what}: the old file moved"
                    );
                } else {
                    result.unwrap();
                    assert_eq!((hits, fired), (sections as u64, 0), "{what}");
                    assert_eq!(std::fs::read(&path).unwrap(), saved_reference(&index));
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
