//! Index snapshots: a built [`ShardedIndex`] saved to one flat file and
//! loaded back without re-tokenizing or re-freezing anything, so a restart
//! costs a file read, not a rebuild. `docs/INDEX_FORMAT.md` specifies the
//! format: a 32-byte header, then per shard eight sections, each
//! `[tag u8 | payload_len u64 | payload | checksum u64]`. A payload is a few
//! `u64` fields, then the fixed-width lanes they count, as the index holds
//! them in memory — a text arena (stopwords, vocabulary, stored strings,
//! field names) is its `u32` ends and its bytes. The checksum is FNV-1a over
//! the payload's little-endian `u64` words, the last one zero-padded.
//!
//! Neither side holds the file in memory. A save places every frame from the
//! lanes' lengths; then this thread and one helper write half the sections
//! each through a fixed buffer, hashing on the way, beside the fingerprint,
//! and the header goes last. A load frames every section and reserves every
//! lane and table on the calling thread; then both threads copy half the
//! sections each through a fixed buffer, hashing every chunk, check each
//! arena and the document lanes once and fill the tables, the helper
//! allocating nothing. Derived state is rebuilt, so a loaded index is the
//! built one, fingerprint and codec included. The checksums guard against
//! accidental damage, not adversaries, but no file makes a load panic,
//! allocate more than the file's size at once, or fail at query time.

use crate::analysis::Analyzer;
use crate::arena::{IdTable, TextArena};
use crate::document::DocStore;
use crate::fault::{self, site};
use crate::index::{index_external_ids, index_terms, BlockLanes, Index, PostingStore};
use crate::shard::{Fnv1a, ShardedIndex};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"QNITSNAP";

/// Current format version; the loader rejects every other (see the evolution
/// policy in `docs/INDEX_FORMAT.md`). Version 3 stores each section as fixed
/// fields and lanes, under a word-wise checksum.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Magic + version + shard_count + num_docs + fingerprint.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// Section names in file order; a section's tag is its position plus one.
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

/// The `u64` fields each section's payload starts with.
const FIELDS: [usize; 8] = [3, 2, 1, 3, 1, 1, 5, 3];
const MAX_LANES: usize = 6;

/// The postings section's first field.
const CODEC_FLAT: u64 = 0;
const CODEC_DELTA_VARINT: u64 = 1;

/// Section `section`'s lanes in file order, given its `fields`: each as its
/// kind and the field that counts its items.
fn lanes_of(section: usize, fields: &[u64]) -> Result<&'static [(Kind, usize)], Bad> {
    const U8: Kind = Lane::U8(());
    const U32: Kind = Lane::U32(());
    const U64: Kind = Lane::U64(());
    const F64: Kind = Lane::F64(());
    Ok(match section {
        // analyzer: min_token_len, then the stopwords' arena — its ends, then
        // its bytes; terms: the vocabulary's.
        0 => &[(U32, 1), (U8, 2)],
        1 => &[(U32, 0), (U8, 1)],
        2 => &[(U32, 0)],
        // postings: the codec, then doc ids and tfs, or per-block byte
        // offsets and the stream.
        3 if fields[0] == CODEC_FLAT => &[(U32, 1), (F64, 2)],
        3 if fields[0] == CODEC_DELTA_VARINT => &[(U64, 1), (U8, 2)],
        3 => return Err(Bad::Codec(fields[0])),
        4 | 5 => &[(F64, 0)],
        // docs: firsts, field-name ids, then the strings' and names' arenas.
        6 => &[(U32, 0), (U32, 1), (U32, 1), (U8, 2), (U32, 3), (U8, 4)],
        // blockmax: block size, then offsets, max tfs, first and last docs.
        _ => &[(U32, 1), (F64, 2), (U32, 2), (U32, 2)],
    })
}

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
    let version = u32::get(&buf[8..12]);
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (this build reads version {SNAPSHOT_VERSION})"
        )));
    }
    Ok(SnapshotHeader {
        version,
        shard_count: u32::get(&buf[12..16]),
        num_docs: u64::get(&buf[16..24]),
        fingerprint: u64::get(&buf[24..32]),
    })
}

// --- lanes and checksums ---------------------------------------------------

/// A lane's item, little-endian in the file.
trait LaneItem: Copy {
    const SIZE: usize;
    /// `bytes` is exactly `SIZE` long.
    fn get(bytes: &[u8]) -> Self;
    fn set(self, bytes: &mut [u8]);
}

macro_rules! lane_item {
    ($($t:ty),*) => {$(
        impl LaneItem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("SIZE bytes"))
            }
            fn set(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
lane_item!(u32, u64, f64);

/// Append the items `bytes` holds, a whole number of them.
fn extend_le<T: LaneItem>(lane: &mut Vec<T>, bytes: &[u8]) {
    lane.extend(bytes.chunks_exact(T::SIZE).map(T::get));
}

/// A lane of each item type: borrowed from the index by a save ([`Out`]),
/// reserved at its count and filled from the file by a load ([`Buf`]), or
/// just the type ([`Kind`]).
#[derive(Clone, Copy)]
enum Lane<A, B, C, D> {
    U8(A),
    U32(B),
    U64(C),
    F64(D),
}
type Out<'a> = Lane<&'a [u8], &'a [u32], &'a [u64], &'a [f64]>;
type Buf = Lane<Vec<u8>, Vec<u32>, Vec<u64>, Vec<f64>>;
/// A lane's item type; `F64`s are stored as their bit patterns.
type Kind = Lane<(), (), (), ()>;

impl<A, B, C, D> Lane<A, B, C, D> {
    /// Bytes per item.
    fn width(&self) -> usize {
        match self {
            Lane::U8(_) => 1,
            Lane::U32(_) => 4,
            Lane::U64(_) | Lane::F64(_) => 8,
        }
    }
}

/// Bytes each saving or loading thread streams through at once: below
/// glibc's initial 128 KiB mmap threshold, so the buffer comes from the heap
/// and freeing it cannot move the threshold (*Build phases* in
/// `docs/OPERATIONS.md`).
const STREAM_BUFFER: usize = 64 << 10;

/// A section's checksum, fed in pieces of any length: [`Fnv1a`] over the
/// payload's little-endian `u64` words, the last one zero-padded.
#[derive(Clone, Copy)]
struct Checksum {
    hash: Fnv1a,
    /// The start of a word the last piece cut, `have` bytes of it.
    tail: [u8; 8],
    have: usize,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            hash: Fnv1a::new(),
            tail: [0; 8],
            have: 0,
        }
    }

    fn write(&mut self, mut bytes: &[u8]) {
        if self.have > 0 {
            let take = (8 - self.have).min(bytes.len());
            self.tail[self.have..self.have + take].copy_from_slice(&bytes[..take]);
            (self.have, bytes) = (self.have + take, &bytes[take..]);
            if self.have < 8 {
                return;
            }
            self.hash.write_word(u64::get(&self.tail));
        }
        let mut words = bytes.chunks_exact(8);
        words
            .by_ref()
            .for_each(|word| self.hash.write_word(u64::get(word)));
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.have = rest.len();
    }

    fn finish(mut self) -> u64 {
        if self.have > 0 {
            self.tail[self.have..].fill(0);
            self.hash.write_word(u64::get(&self.tail));
        }
        self.hash.finish()
    }
}

/// Split `jobs` between the caller and one helper, a save's or a load's
/// alike: largest first, each to whichever has the less `weight` so far (the
/// caller on a tie), so both do about half.
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

/// Run `work` on `mine` here and on `theirs` on one helper thread (or here
/// too, if none can be spawned); the first error, after both are done.
fn on_two_threads<T: Send>(
    mine: &mut T,
    theirs: &mut T,
    work: impl Fn(&mut T) -> std::io::Result<()> + Sync,
) -> std::io::Result<()> {
    let (done, helped) = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new().spawn_scoped(scope, || work(theirs));
        let done = work(mine);
        (done, helper.ok().map(|helper| helper.join()))
    });
    done?;
    match helped {
        Some(helped) => helped.unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        None => work(theirs),
    }
}

// --- the writer ------------------------------------------------------------

impl Out<'_> {
    fn items(self) -> usize {
        match self {
            Lane::U8(lane) => lane.len(),
            Lane::U32(lane) => lane.len(),
            Lane::U64(lane) => lane.len(),
            Lane::F64(lane) => lane.len(),
        }
    }
}

/// Section `section` of `shard`, whose sorted stopwords (sorted so the bytes
/// are a pure function of content) are `stopwords`: its fields and its
/// lanes in [`lanes_of`]'s order, empty ones after the last.
fn contents<'a>(
    shard: &'a Index,
    stopwords: &'a TextArena,
    section: usize,
) -> ([u64; 5], [Out<'a>; MAX_LANES]) {
    let mut lanes = [Out::U8(&[]); MAX_LANES];
    let mut set = |from: &[Out<'a>]| lanes[..from.len()].copy_from_slice(from);
    let arena = |a: &'a TextArena| [Out::U32(a.ends()), Out::U8(a.text().as_bytes())];
    let store = shard.raw_store();
    match (section, store) {
        (0, _) => set(&arena(stopwords)),
        (1, _) => set(&arena(shard.raw_terms())),
        (2, _) => set(&[Out::U32(shard.raw_offsets())]),
        (3, PostingStore::Flat { docs, tfs }) => set(&[Out::U32(docs), Out::F64(tfs)]),
        (
            3,
            PostingStore::Compressed {
                bytes,
                byte_offsets,
            },
        ) => set(&[Out::U64(byte_offsets), Out::U8(bytes)]),
        (4, _) => set(&[Out::F64(shard.raw_term_max_tfs())]),
        (5, _) => set(&[Out::F64(shard.doc_lengths())]),
        (6, _) => {
            let (strings, firsts, field_of, names) = shard.raw_docs().lanes();
            let ([ends, text], [name_ends, name_text]) = (arena(strings), arena(names));
            set(&[
                Out::U32(firsts),
                Out::U32(field_of),
                ends,
                text,
                name_ends,
                name_text,
            ]);
        }
        _ => {
            let b = shard.raw_blocks();
            let (firsts, lasts) = (Out::U32(&b.first_docs), Out::U32(&b.last_docs));
            set(&[Out::U32(&b.offsets), Out::F64(&b.max_tfs), firsts, lasts]);
        }
    }
    // The first field where it is not a count.
    let first = match (section, store) {
        (0, _) => shard.analyzer().min_token_len() as u64,
        (3, PostingStore::Flat { .. }) => CODEC_FLAT,
        (3, _) => CODEC_DELTA_VARINT,
        (7, _) => shard.raw_blocks().block_size as u64,
        _ => 0,
    };
    let mut fields = [first, 0, 0, 0, 0];
    let layout = lanes_of(section, &fields).expect("the writer's own codec");
    for (lane, &(_, field)) in lanes.iter().zip(layout) {
        fields[field] = lane.items() as u64;
    }
    (fields, lanes)
}

/// A shard's stopwords, sorted, as an arena.
fn sorted_stopwords(shard: &Index) -> TextArena {
    let mut stopwords: Vec<&str> = shard.analyzer().stopwords().collect();
    stopwords.sort_unstable();
    let mut arena = TextArena::default();
    for word in stopwords {
        arena.push(word);
    }
    arena
}

/// A writing thread's way into the file: a handle and a buffer of its own,
/// and the checksum of what was put since `sum` was last reset.
struct Writer {
    out: BufWriter<File>,
    sum: Checksum,
}

impl Writer {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.sum.write(bytes);
        self.out.write_all(bytes)
    }

    /// Put `items`, little-endian, 4 KiB at a time.
    fn put_items<T: LaneItem>(&mut self, items: &[T]) -> std::io::Result<()> {
        let mut le = [0u8; 4 << 10];
        for chunk in items.chunks(le.len() / T::SIZE) {
            for (bytes, &item) in le.chunks_exact_mut(T::SIZE).zip(chunk) {
                item.set(bytes);
            }
            self.put(&le[..chunk.len() * T::SIZE])?;
        }
        Ok(())
    }

    fn put_lane(&mut self, lane: Out) -> std::io::Result<()> {
        match lane {
            Out::U8(lane) => self.put(lane),
            Out::U32(lane) => self.put_items(lane),
            Out::U64(lane) => self.put_items(lane),
            Out::F64(lane) => self.put_items(lane),
        }
    }
}

/// A writing thread's share of a save: the header's fingerprint, or one
/// section of `shard` at `frame`.
enum Job<'a> {
    Fingerprint,
    Section {
        shard: &'a Index,
        stopwords: &'a TextArena,
        frame: Frame,
    },
}

// --- the loader ------------------------------------------------------------

/// Read `buf.len()` bytes at `pos`.
fn read_at(file: &mut (impl Read + Seek), pos: u64, buf: &mut [u8]) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(pos))?;
    file.read_exact(buf)
}

/// One section as framed in the file, its payload not yet read.
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

/// Locate section `section` of a shard at `pos`: read its tag, length and
/// stored checksum — 17 bytes — and check the tag and the bounds.
fn frame_section(
    file: &mut (impl Read + Seek),
    file_len: u64,
    pos: u64,
    section: usize,
) -> Result<Frame, SnapshotError> {
    let name = SECTION_NAMES[section];
    let mut tag_len = [0u8; 9];
    let got = (file_len - pos).min(9) as usize;
    read_at(file, pos, &mut tag_len[..got])?;
    let (tag, expect_tag) = (tag_len[0], section as u8 + 1);
    if got == 0 {
        return Err(Bad::Truncated(1).error(name));
    } else if tag != expect_tag {
        let found = format!("expected {name} section (tag {expect_tag}), found tag {tag}");
        return Err(corrupt(found));
    }
    let (start, len) = (pos + 9, u64::get(&tag_len[1..]));
    if got < 9 || (len <= file_len - start && file_len - start - len < 8) {
        return Err(Bad::Truncated(8).error(name));
    } else if len > file_len - start {
        return Err(Bad::Count(len).error(name));
    }
    let mut stored = [0u8; 8];
    read_at(file, start + len, &mut stored)?;
    let stored = u64::get(&stored);
    Ok(Frame {
        section,
        start,
        len,
        stored,
    })
}

/// What makes a section undecodable, kept as data: a loading thread formats
/// no message — it allocates nothing — and the caller names the section.
#[derive(Debug, Clone, Copy)]
enum Bad {
    /// Fewer bytes left than the next field takes.
    Truncated(usize),
    /// A count of more items than the bytes left could hold.
    Count(u64),
    /// Bytes left after the last lane.
    Trailing(u64),
    Codec(u64),
    /// Lanes that do not make an index part, and why.
    Invalid(&'static str),
}

impl Bad {
    fn error(self, section: &str) -> SnapshotError {
        corrupt(match self {
            Bad::Truncated(n) => format!("truncated {section} section (wanted {n} more bytes)"),
            Bad::Count(n) => format!("implausible count {n} in {section} section"),
            Bad::Trailing(n) => format!("{section} section has {n} trailing bytes"),
            Bad::Codec(codec) => format!("unknown postings codec {codec}"),
            Bad::Invalid(why) => format!("{why} in {section} section"),
        })
    }
}

impl Buf {
    fn with_capacity(kind: Kind, n: usize) -> Buf {
        match kind {
            Lane::U8(()) => Lane::U8(Vec::with_capacity(n)),
            Lane::U32(()) => Lane::U32(Vec::with_capacity(n)),
            Lane::U64(()) => Lane::U64(Vec::with_capacity(n)),
            Lane::F64(()) => Lane::F64(Vec::with_capacity(n)),
        }
    }

    fn extend(&mut self, bytes: &[u8]) {
        match self {
            Buf::U8(lane) => lane.extend_from_slice(bytes),
            Buf::U32(lane) => extend_le(lane, bytes),
            Buf::U64(lane) => extend_le(lane, bytes),
            Buf::F64(lane) => extend_le(lane, bytes),
        }
    }
}

/// A section decoded and checked: its part of an index.
enum Part {
    /// `min_token_len` and the stopwords.
    Analyzer(usize, TextArena),
    /// The vocabulary and the dictionary.
    Terms(TextArena, IdTable),
    Offsets(Vec<u32>),
    Postings(PostingStore),
    /// `term_max_tfs` or `doc_lengths`.
    F64s(Vec<f64>),
    /// The documents and the external-id table.
    Docs(DocStore, IdTable),
    Blocks(BlockLanes),
}

/// Section `section`'s part of an index from its `fields` and its full
/// `lanes`: every arena and the document lanes checked, and the tables
/// filled into the room set-up reserved, so nothing is allocated.
fn finish(
    section: usize,
    fields: &[u64],
    lanes: [Buf; MAX_LANES],
    tables: Vec<IdTable>,
) -> Result<Part, &'static str> {
    let mut tables = tables.into_iter();
    // A reserved table, filled; or an empty one in place of a table that
    // `reserve_tables` left out, for a shard assembly refuses unread.
    let mut table = |fill: &dyn Fn(&mut IdTable)| {
        tables.next().map_or_else(
            || IdTable::with_capacity(0),
            |mut table| {
                fill(&mut table);
                table
            },
        )
    };
    Ok(match (section, lanes) {
        (0, [Buf::U32(ends), Buf::U8(text), ..]) => {
            Part::Analyzer(fields[0] as usize, TextArena::from_lanes(ends, text)?)
        }
        (1, [Buf::U32(ends), Buf::U8(text), ..]) => {
            let terms = TextArena::from_lanes(ends, text)?;
            let term_ids = table(&|term_ids| index_terms(term_ids, &terms));
            Part::Terms(terms, term_ids)
        }
        (2, [Buf::U32(offsets), ..]) => Part::Offsets(offsets),
        (3, [Buf::U32(docs), Buf::F64(tfs), ..]) => {
            Part::Postings(PostingStore::Flat { docs, tfs })
        }
        (3, [Buf::U64(byte_offsets), Buf::U8(bytes), ..]) => {
            Part::Postings(PostingStore::Compressed {
                bytes,
                byte_offsets,
            })
        }
        (4 | 5, [Buf::F64(lane), ..]) => Part::F64s(lane),
        (
            6,
            [Buf::U32(firsts), Buf::U32(field_of), Buf::U32(ends), Buf::U8(text), Buf::U32(name_ends), Buf::U8(name_text)],
        ) => {
            let strings = TextArena::from_lanes(ends, text)?;
            let names = TextArena::from_lanes(name_ends, name_text)?;
            let docs = DocStore::from_lanes(strings, firsts, field_of, names, table(&|_| {}))?;
            let external = table(&|external| index_external_ids(external, &docs));
            Part::Docs(docs, external)
        }
        (
            7,
            [Buf::U32(offsets), Buf::F64(max_tfs), Buf::U32(first_docs), Buf::U32(last_docs), ..],
        ) => {
            let block_size = fields[0] as usize;
            Part::Blocks(BlockLanes {
                block_size,
                offsets,
                max_tfs,
                first_docs,
                last_docs,
            })
        }
        _ => unreachable!("lanes_of gives each section its lanes"),
    })
}

/// How far one section got.
enum Decode {
    /// Only hashed: a section of a shard not fully framed, or one whose
    /// checksum failed.
    None,
    /// Reserved by set-up: the lanes, and the tables of terms or docs
    /// (`reserve_tables`).
    Lanes([Buf; MAX_LANES], Vec<IdTable>),
    Done(Part),
    Bad(Bad),
}

/// One section on its way through a loading thread.
struct Stream {
    frame: Frame,
    fields: [u64; 5],
    /// The checksum of the payload as read.
    sum: u64,
    /// Boxed, so the caller's list of streams stays smaller than the file;
    /// replaced in place by the loading thread.
    decode: Box<Decode>,
}

impl Stream {
    /// Set-up of a section, unless it is only to be hashed: read its fields,
    /// check that the lanes they count fill its payload exactly, and reserve
    /// the lanes (its shard's tables come after, from `reserve_tables`).
    fn set_up(file: &mut (impl Read + Seek), frame: Frame, hashed: bool) -> std::io::Result<Self> {
        let (mut fields, width) = ([0; 5], 8 * FIELDS[frame.section]);
        let decode = if hashed {
            Decode::None
        } else if frame.len < width as u64 {
            Decode::Bad(Bad::Truncated(8))
        } else {
            let mut le = [0u8; 40];
            read_at(file, frame.start, &mut le[..width])?;
            for (field, word) in fields.iter_mut().zip(le.chunks_exact(8)) {
                *field = u64::get(word);
            }
            fits(&frame, &fields).map_or_else(Decode::Bad, |layout| {
                let mut lanes = std::array::from_fn(|_| Lane::U8(Vec::new()));
                for (lane, &(kind, field)) in lanes.iter_mut().zip(layout) {
                    *lane = Buf::with_capacity(kind, fields[field] as usize);
                }
                Decode::Lanes(lanes, Vec::new())
            })
        };
        let decode = Box::new(decode);
        Ok(Stream {
            frame,
            fields,
            sum: 0,
            decode,
        })
    }

    /// Read and hash the payload through `buf`, each lane copied into its
    /// reservation; then, if the checksum held, finish the section.
    fn load(&mut self, file: &mut (impl Read + Seek), buf: &mut [u8]) -> std::io::Result<()> {
        let (mut sum, mut at, section) = (Checksum::new(), self.frame.start, self.frame.section);
        let decode = std::mem::replace(&mut *self.decode, Decode::None);
        let fields = &self.fields[..FIELDS[section]];
        if let Decode::Lanes(mut lanes, tables) = decode {
            fields.iter().for_each(|f| sum.write(&f.to_le_bytes()));
            at += 8 * fields.len() as u64;
            let layout = lanes_of(section, fields).expect("set-up checked the layout");
            for (lane, &(kind, field)) in lanes.iter_mut().zip(layout) {
                let len = fields[field] as usize * kind.width();
                copy(file, &mut at, len, kind.width(), buf, &mut sum, Some(lane))?;
            }
            self.sum = sum.finish();
            if self.sum == self.frame.stored {
                *self.decode = finish(section, fields, lanes, tables)
                    .map_or_else(|why| Decode::Bad(Bad::Invalid(why)), Decode::Done);
            }
        } else {
            copy(
                file,
                &mut at,
                self.frame.len as usize,
                1,
                buf,
                &mut sum,
                None,
            )?;
            (self.sum, *self.decode) = (sum.finish(), decode);
        }
        Ok(())
    }
}

/// Reserve the tables of a fully framed shard's sections: the field names'
/// always, the vocabulary's and the external ids' only when the counts they
/// are sized from agree with the other sections that count the same terms
/// and documents. Each count is checked only against its own section's
/// bytes, and a table takes up to 8 times the bytes of the lane it indexes
/// (a vocabulary of n empty terms is 4n bytes), so a crafted count could
/// otherwise reserve more than the file; a shard whose counts disagree is
/// refused at assembly (`Index::from_indexed_parts`) before a table is read,
/// and a table that would take more than the file's `file_len` bytes starts
/// empty instead and grows only as its distinct keys are entered.
fn reserve_tables(shard: &mut [Stream], file_len: u64) {
    let count = |section: usize, field: usize| shard[section].fields[field];
    let (terms, docs, names) = (count(1, 0), count(6, 0), count(6, 3));
    let rows = terms.checked_add(1);
    let terms_agree =
        count(4, 0) == terms && Some(count(2, 0)) == rows && Some(count(7, 1)) == rows;
    let docs_agree = count(5, 0) == docs;
    let table = |n: u64| {
        let fits = IdTable::reserved_bytes(n as usize) as u64 <= file_len;
        IdTable::with_capacity(if fits { n as usize } else { 0 })
    };
    if let Decode::Lanes(_, tables) = &mut *shard[1].decode {
        tables.extend(terms_agree.then(|| table(terms)));
    }
    if let Decode::Lanes(_, tables) = &mut *shard[6].decode {
        tables.push(table(names));
        tables.extend(docs_agree.then(|| table(docs)));
    }
}

/// The lanes of a section whose payload starts with `fields`, if they fill
/// the rest of it exactly: each lane's count checked against the bytes
/// left, in order.
fn fits(frame: &Frame, fields: &[u64]) -> Result<&'static [(Kind, usize)], Bad> {
    let layout = lanes_of(frame.section, fields)?;
    let mut rest = frame.len - 8 * FIELDS[frame.section] as u64;
    for &(kind, field) in layout {
        let n = fields[field];
        let bytes = n.checked_mul(kind.width() as u64);
        rest = bytes
            .and_then(|bytes| rest.checked_sub(bytes))
            .ok_or(Bad::Count(n))?;
    }
    match rest {
        0 => Ok(layout),
        rest => Err(Bad::Trailing(rest)),
    }
}

/// Read `len` bytes at `*at` through `buf` in chunks of whole `width`-byte
/// items, each hashed into `sum`, then copied to the end of `lane`.
fn copy(
    file: &mut (impl Read + Seek),
    at: &mut u64,
    mut len: usize,
    width: usize,
    buf: &mut [u8],
    sum: &mut Checksum,
    mut lane: Option<&mut Buf>,
) -> std::io::Result<()> {
    let most = buf.len() / width * width;
    while len > 0 {
        let chunk = &mut buf[..len.min(most)];
        read_at(file, *at, chunk)?;
        sum.write(chunk);
        if let Some(lane) = &mut lane {
            lane.extend(chunk);
        }
        *at += chunk.len() as u64;
        len -= chunk.len();
    }
    Ok(())
}

/// One shard from its eight verified sections: the first section in file
/// order that did not decode, or the parts checked against each other
/// (`Index::from_indexed_parts`).
fn assemble(group: &mut [Stream]) -> Result<Index, SnapshotError> {
    let mut parts: [Option<Part>; 8] = Default::default();
    for (part, s) in parts.iter_mut().zip(group) {
        *part = match std::mem::replace(&mut *s.decode, Decode::None) {
            Decode::Done(done) => Some(done),
            Decode::Bad(bad) => return Err(bad.error(SECTION_NAMES[s.frame.section])),
            _ => unreachable!("a section whose checksum held is decoded or refused"),
        };
    }
    let [Some(Part::Analyzer(min_token_len, stopwords)), Some(Part::Terms(terms, term_ids)), Some(Part::Offsets(offsets)), Some(Part::Postings(store)), Some(Part::F64s(term_max_tfs)), Some(Part::F64s(doc_lengths)), Some(Part::Docs(docs, external_to_doc)), Some(Part::Blocks(blocks))] =
        parts
    else {
        unreachable!("finish makes each section's part")
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
/// reserve every lane, copy the sections on both threads, then report what
/// a reader going through the file serially would have reported.
fn decode_snapshot<R: Read + Seek + Send>(
    mut file: R,
    helper_file: R,
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

    // Framing reads 17 bytes per section, for the whole file first; it stops
    // at the first section it cannot locate, and the sections before it
    // still count.
    let per_shard = SECTION_NAMES.len();
    let (mut frames, mut end) = (Vec::new(), HEADER_LEN as u64);
    let framing_error = (0..header.shard_count)
        .flat_map(|_| 0..per_shard)
        .try_for_each(|section| {
            let frame = frame_section(&mut file, file_len, end, section)?;
            end = frame.start + frame.len + 8;
            frames.push(frame);
            Ok(())
        })
        .err();
    if let Some(SnapshotError::Io(e)) = framing_error {
        return Err(SnapshotError::Io(e));
    }

    // Set-up, on this thread: the sections of every fully framed shard get
    // their lanes reserved; the rest are only hashed.
    let framed = frames.len() / per_shard * per_shard;
    let mut streams = Vec::with_capacity(frames.len());
    for (i, &frame) in frames.iter().enumerate() {
        streams.push(Stream::set_up(&mut file, frame, i >= framed)?);
    }
    streams[..framed]
        .chunks_exact_mut(per_shard)
        .for_each(|shard| reserve_tables(shard, file_len));

    // Both threads copy their share through a handle and a buffer of their
    // own, allocated here.
    let size = STREAM_BUFFER.min(file_len as usize).max(8);
    let [mine, theirs] = deal(streams.iter_mut(), |s| s.frame.len);
    let mut mine = (mine, file, vec![0u8; size]);
    on_two_threads(
        &mut mine,
        &mut (theirs, helper_file, vec![0u8; size]),
        |job| {
            let (streams, file, buf) = job;
            streams.iter_mut().try_for_each(|s| s.load(file, buf))
        },
    )?;
    drop(mine);

    // A serial reader frames and verifies a shard section by section, then
    // decodes it, then moves on. So the shards before the first bad checksum
    // decode in order, up to the first error; a bad checksum outranks a
    // decode error in its own or a later shard and the framing error, which
    // lies beyond every framed section; a decode error outranks the framing
    // error, which lies beyond every decoded shard.
    let bad_checksum = streams.iter().position(|s| s.sum != s.frame.stored);
    let verified = bad_checksum.map_or(framed, |bad| (bad / per_shard * per_shard).min(framed));
    let mut shards = Vec::with_capacity(verified / per_shard);
    let decode_error = streams[..verified]
        .chunks_exact_mut(per_shard)
        .try_for_each(|group| assemble(group).map(|shard| shards.push(shard)))
        .err();
    if let Some(bad) = bad_checksum.filter(|bad| bad / per_shard <= shards.len()) {
        let name = SECTION_NAMES[streams[bad].frame.section];
        return Err(corrupt(format!("checksum mismatch in {name} section")));
    }
    if let Some(e) = decode_error.or(framing_error) {
        return Err(e);
    }
    if end != file_len {
        let trailing = file_len - end;
        return Err(corrupt(format!(
            "{trailing} trailing bytes after the last shard"
        )));
    }
    let loaded = ShardedIndex::from_shards(shards);
    if loaded.num_docs() as u64 != header.num_docs {
        let (claimed, held) = (header.num_docs, loaded.num_docs());
        return Err(corrupt(format!(
            "header claims {claimed} docs, sections hold {held}"
        )));
    }
    Ok(loaded)
}

impl ShardedIndex {
    /// Serialize this index to `path`: written to a `.tmp` sibling, renamed
    /// over `path`, and the directory synced, so a crash never leaves a
    /// half-written file at `path` nor undoes the rename; a save that fails
    /// removes its `.tmp`. The posting lanes keep their current
    /// [`crate::PostingsCodec`]; the header carries the corpus fingerprint.
    /// This thread and one helper write half the sections each, and the
    /// `snapshot.write` failpoint is checked once per section on the thread
    /// that writes it (*Writer order* in `docs/INDEX_FORMAT.md`).
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
        saved?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    }

    fn write_snapshot(&self, tmp: &Path) -> std::io::Result<()> {
        // Every frame's place, from the lanes' lengths. The sorted stopwords
        // are the one thing a payload needs allocated: made here, before the
        // buffers, they leave the writing threads nothing to allocate, so a
        // save's peak memory is the same on every run.
        let stopwords: Vec<TextArena> = self.shards().iter().map(sorted_stopwords).collect();
        let mut end = HEADER_LEN as u64;
        let mut jobs = vec![Job::Fingerprint];
        for (shard, stopwords) in self.shards().iter().zip(&stopwords) {
            for (section, fields) in FIELDS.into_iter().enumerate() {
                let lanes = contents(shard, stopwords, section).1;
                let bytes: usize = lanes.iter().map(|lane| lane.items() * lane.width()).sum();
                let len = (8 * fields + bytes) as u64;
                let (start, stored) = (end + 9, 0);
                end = start + len + 8;
                let frame = Frame {
                    section,
                    start,
                    len,
                    stored,
                };
                jobs.push(Job::Section {
                    shard,
                    stopwords,
                    frame,
                });
            }
        }
        // The fingerprint walks every document and posting once: weighed as
        // the whole file while it is unknown, as nothing once it is kept.
        let fingerprint = if self.fingerprint_known() { 0 } else { end };
        let [mine, theirs] = deal(jobs, |job| match job {
            Job::Fingerprint => fingerprint,
            Job::Section { frame, .. } => frame.len,
        });

        // Each thread writes through a handle and a buffer of its own,
        // allocated here; the header goes last, as it carries the fingerprint.
        let open = File::options().read(true).write(true).clone();
        let writer = |file| Writer {
            out: BufWriter::with_capacity(STREAM_BUFFER, file),
            sum: Checksum::new(),
        };
        let mut mine = (
            mine,
            writer(open.clone().create(true).truncate(true).open(tmp)?),
        );
        let mut theirs = (theirs, writer(open.open(tmp)?));
        on_two_threads(&mut mine, &mut theirs, |(jobs, w)| self.write_jobs(jobs, w))?;
        drop(theirs);
        let w = &mut mine.1;
        w.out.seek(SeekFrom::Start(0))?;
        w.put(&SNAPSHOT_MAGIC)?;
        w.put_items(&[SNAPSHOT_VERSION, self.num_shards() as u32])?;
        w.put_items(&[self.num_docs() as u64, self.fingerprint()])?;
        w.out.flush()?;
        w.out.get_ref().sync_all()
    }

    /// One writing thread's share: each section's tag, length, fields, lanes
    /// and checksum at its frame, or the fingerprint computed.
    fn write_jobs(&self, jobs: &[Job], w: &mut Writer) -> std::io::Result<()> {
        for job in jobs {
            let &Job::Section {
                shard,
                stopwords,
                frame,
            } = job
            else {
                self.fingerprint();
                continue;
            };
            // `snapshot.write` failpoint: a stand-in for a full disk or a
            // yanked volume.
            fault::check(site::SNAPSHOT_WRITE).map_err(io_fault)?;
            w.out.seek(SeekFrom::Start(frame.start - 9))?;
            w.put(&[frame.section as u8 + 1])?;
            w.put_items(&[frame.len])?;
            w.sum = Checksum::new();
            let (fields, lanes) = contents(shard, stopwords, frame.section);
            w.put_items(&fields[..FIELDS[frame.section]])?;
            lanes.into_iter().try_for_each(|lane| w.put_lane(lane))?;
            let sum = w.sum.finish();
            w.put_items(&[sum])?;
        }
        w.out.flush()
    }

    /// Load a snapshot written by [`ShardedIndex::save_snapshot`]: the
    /// header, every section checksum and the structural invariants of
    /// every lane checked, all derived state rebuilt. The result is the
    /// originally built index — same fingerprint, same scores to the last
    /// bit, same codec. This thread and one helper copy half the sections
    /// each through fixed buffers (*Loader order* in `docs/INDEX_FORMAT.md`);
    /// a damaged file is reported as a serial verify-then-decode reader
    /// would report it.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ShardedIndex, SnapshotError> {
        // `snapshot.read` failpoint: a transient read error ahead of the
        // real read, for exercising retry and quarantine paths.
        fault::check(site::SNAPSHOT_READ).map_err(io_fault)?;
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        decode_snapshot(file, File::open(path)?, len)
    }
}

#[cfg(test)]
mod tests {
    //! The loader against the serial verify-then-decode reader, kept here as
    //! the oracle, over a sweep of damaged files; the threaded save against
    //! the serial writer.

    use super::*;
    use crate::alloc_probe::largest_allocation_during;
    use crate::index::tests::assert_same_index;
    use crate::{Document, IndexBuilder};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The reference reader reads byte lanes item by item too.
    lane_item!(u8);

    // --- the serial reference ----------------------------------------------

    /// The section checksum by its definition: FNV-1a over the payload's
    /// little-endian `u64` words, the last one zero-padded.
    fn checksum(payload: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        for word in payload.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            h.write_word(u64::from_le_bytes(le));
        }
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

        fn rest(&self) -> u64 {
            (self.data.len() - self.pos) as u64
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

        fn u64(&mut self) -> Result<u64, SnapshotError> {
            Ok(u64::get(self.take(u64::SIZE)?))
        }

        /// `N` fixed `u64` fields.
        fn fields<const N: usize>(&mut self) -> Result<[u64; N], SnapshotError> {
            let mut fields = [0; N];
            for field in &mut fields {
                *field = self.u64()?;
            }
            Ok(fields)
        }

        /// A lane of `n` items, read one by one once `n` is checked against
        /// the bytes actually remaining — before any allocation.
        fn lane<T: LaneItem>(&mut self, n: u64) -> Result<Vec<T>, SnapshotError> {
            let fits = n
                .checked_mul(T::SIZE as u64)
                .is_some_and(|total| total <= self.rest());
            if !fits {
                return Err(corrupt(format!(
                    "implausible count {n} in {} section",
                    self.section
                )));
            }
            (0..n).map(|_| Ok(T::get(self.take(T::SIZE)?))).collect()
        }

        /// A text arena's two lanes: `n` ends, `bytes` bytes.
        fn arena(&mut self, n: u64, bytes: u64) -> Result<(Vec<u32>, Vec<u8>), SnapshotError> {
            Ok((self.lane(n)?, self.lane(bytes)?))
        }

        fn invalid(&self, why: &str) -> SnapshotError {
            corrupt(format!("{why} in {} section", self.section))
        }

        /// The arena of two lanes read before.
        fn text(&self, (ends, text): (Vec<u32>, Vec<u8>)) -> Result<TextArena, SnapshotError> {
            TextArena::from_lanes(ends, text).map_err(|why| self.invalid(why))
        }

        fn finish(&self) -> Result<(), SnapshotError> {
            if self.rest() > 0 {
                return Err(corrupt(format!(
                    "{} section has {} trailing bytes",
                    self.section,
                    self.rest()
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
        let tag = file.take(1)?[0];
        if tag != expect_tag {
            return Err(corrupt(format!(
                "expected {name} section (tag {expect_tag}), found tag {tag}"
            )));
        }
        let len = file.u64()?;
        if len > file.rest() {
            return Err(corrupt(format!(
                "implausible count {len} in {name} section"
            )));
        }
        Ok(Section {
            payload: file.take(len as usize)?,
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

    /// One shard, serially: all eight sections framed and verified, then
    /// each decoded field by field and item by item — every lane read and
    /// the section's end reached before its arenas are checked.
    fn read_shard_reference(file: &mut Reader<'_>) -> Result<Index, SnapshotError> {
        let mut payloads = [&file.data[0..0]; 8];
        for (i, (tag, name)) in (1u8..).zip(SECTION_NAMES).enumerate() {
            payloads[i] = read_section_reference(file, tag, name)?;
        }
        let reader = |i: usize| Reader::at(payloads[i], 0, SECTION_NAMES[i]);

        let mut r = reader(0);
        let [min_token_len, n, bytes] = r.fields()?;
        let stopwords = r.arena(n, bytes)?;
        r.finish()?;
        let stopwords = r.text(stopwords)?;
        let analyzer = Analyzer::keep_all()
            .with_stopwords(stopwords.iter())
            .with_min_token_len(min_token_len as usize);

        let mut r = reader(1);
        let [n, bytes] = r.fields()?;
        let terms = r.arena(n, bytes)?;
        r.finish()?;
        let terms = r.text(terms)?;

        let mut r = reader(2);
        let [n] = r.fields()?;
        let offsets = r.lane(n)?;
        r.finish()?;

        let mut r = reader(3);
        let [codec, a, b] = r.fields()?;
        let store = match codec {
            CODEC_FLAT => PostingStore::Flat {
                docs: r.lane(a)?,
                tfs: r.lane(b)?,
            },
            CODEC_DELTA_VARINT => {
                let byte_offsets = r.lane(a)?;
                PostingStore::Compressed {
                    byte_offsets,
                    bytes: r.lane(b)?,
                }
            }
            other => return Err(corrupt(format!("unknown postings codec {other}"))),
        };
        r.finish()?;

        let f64_lane = |i: usize| -> Result<Vec<f64>, SnapshotError> {
            let mut r = reader(i);
            let [n] = r.fields()?;
            let lane = r.lane(n)?;
            r.finish()?;
            Ok(lane)
        };
        let term_max_tfs = f64_lane(4)?;
        let doc_lengths = f64_lane(5)?;

        let mut r = reader(6);
        let [docs, strings, bytes, names, name_bytes] = r.fields()?;
        let firsts = r.lane(docs)?;
        let field_of = r.lane(strings)?;
        let strings = r.arena(strings, bytes)?;
        let names = r.arena(names, name_bytes)?;
        r.finish()?;
        let (strings, names) = (r.text(strings)?, r.text(names)?);
        let docs =
            DocStore::from_lanes(strings, firsts, field_of, names, IdTable::with_capacity(0))
                .map_err(|why| r.invalid(why))?;

        let mut r = reader(7);
        let [block_size, n, blocks] = r.fields()?;
        let blocks = BlockLanes {
            block_size: block_size as usize,
            offsets: r.lane(n)?,
            max_tfs: r.lane(blocks)?,
            first_docs: r.lane(blocks)?,
            last_docs: r.lane(blocks)?,
        };
        r.finish()?;

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

    /// A load, serially, shard after shard, from the whole file in memory.
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

    /// A lane's bytes, appended to `out`.
    fn encode(lane: Out, out: &mut Vec<u8>) {
        match lane {
            Out::U8(lane) => out.extend_from_slice(lane),
            Out::U32(lane) => lane.iter().for_each(|v| out.extend(v.to_le_bytes())),
            Out::U64(lane) => lane.iter().for_each(|v| out.extend(v.to_le_bytes())),
            Out::F64(lane) => lane.iter().for_each(|v| out.extend(v.to_le_bytes())),
        }
    }

    /// The save without threads, into one buffer: the header, then every
    /// shard's sections in file order, each gathered whole and framed — tag,
    /// length, payload, checksum.
    fn saved_reference(index: &ShardedIndex) -> Vec<u8> {
        let mut file = SNAPSHOT_MAGIC.to_vec();
        file.extend(SNAPSHOT_VERSION.to_le_bytes());
        file.extend((index.num_shards() as u32).to_le_bytes());
        file.extend((index.num_docs() as u64).to_le_bytes());
        file.extend(index.fingerprint().to_le_bytes());
        for shard in index.shards() {
            let stopwords = sorted_stopwords(shard);
            for (section, tag) in (0..SECTION_NAMES.len()).zip(1u8..) {
                let (fields, lanes) = contents(shard, &stopwords, section);
                let mut payload = Vec::new();
                encode(Out::U64(&fields[..FIELDS[section]]), &mut payload);
                lanes
                    .into_iter()
                    .for_each(|lane| encode(lane, &mut payload));
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

    /// A fixed `u64` field of a payload (absolute offset), with the section
    /// that holds it.
    struct Field {
        at: usize,
        section: usize,
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn u32_at(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    fn set_u32(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Walk a *valid* snapshot and note every section and every fixed field.
    fn map_of(bytes: &[u8]) -> (Vec<Span>, Vec<Field>) {
        let shard_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let (mut spans, mut fields) = (Vec::new(), Vec::new());
        let mut pos = HEADER_LEN;
        for _ in 0..shard_count {
            for count in FIELDS {
                let len = u64_at(bytes, pos + 1) as usize;
                let payload = pos + 9..pos + 9 + len;
                for i in 0..count {
                    fields.push(Field {
                        at: payload.start + 8 * i,
                        section: spans.len(),
                    });
                }
                spans.push(Span { tag: pos, payload });
                pos += 9 + len + 8;
            }
        }
        assert_eq!(pos, bytes.len(), "the walk covers the file");
        (spans, fields)
    }

    /// The fixed fields of section `section` of a valid file.
    fn fields_at(bytes: &[u8], span: &Span, section: usize) -> Vec<u64> {
        (0..FIELDS[section])
            .map(|i| u64_at(bytes, span.payload.start + 8 * i))
            .collect()
    }

    /// The lanes of section `section` of a valid file, as byte ranges.
    fn lanes_in(bytes: &[u8], span: &Span, section: usize) -> Vec<std::ops::Range<usize>> {
        let fields = fields_at(bytes, span, section);
        let mut at = span.payload.start + 8 * fields.len();
        let lanes = lanes_of(section, &fields).unwrap().iter();
        let ranges = lanes.map(|&(kind, field)| {
            let width = kind.width();
            at += width * fields[field] as usize;
            at - width * fields[field] as usize..at
        });
        let ranges: Vec<_> = ranges.collect();
        assert_eq!(at, span.payload.end, "the lanes fill section {section}");
        ranges
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
    /// fractional tfs, multi-byte characters in terms and stored text, a
    /// field-less document, duplicate and empty external ids.
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

            // Every section length, and every field of a payload: zeroed, off
            // by one, doubled, absurd, and the most that `rest` bytes could
            // back at one and at eight bytes an item.
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
            // Two damages in different shards, both ways round: a field
            // restamped in one (a decode error, mostly) and a payload bit
            // flipped under a stale checksum in the other. Both threads
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

            // Counts of 100 000 items, each backed by its own section's
            // bytes: the vocabulary's 100 000 empty terms (zero ends are a
            // valid arena) with the other sections counting the shard's
            // terms as before; the same with all four term counts inflated
            // alike; and 100 000 empty field names. Each section is framed
            // and stamped as the writer would, the later ones spliced first.
            let n = 100_000u64;
            let zeros = |items: u64, width: u64| vec![0u8; (items * width) as usize];
            let framed = |section: usize, fields: &[u64], lanes: &[&[u8]]| {
                let mut payload: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
                lanes
                    .iter()
                    .for_each(|lane| payload.extend_from_slice(lane));
                let len = (payload.len() as u64).to_le_bytes();
                let sum = checksum(&payload).to_le_bytes();
                [&[section as u8 + 1][..], &len, &payload, &sum].concat()
            };
            let terms = framed(1, &[n, 0], &[&zeros(n, 4)]);
            let splice = |b: &mut Vec<u8>, section: usize, framed: Vec<u8>| {
                b.splice(spans[section].tag..spans[section].end(), framed);
            };
            damaged(
                "terms section of 100000 empty terms, restamped".into(),
                &|b| splice(b, 1, terms.clone()),
            );
            damaged(
                "every term count 100000, empty terms, restamped".into(),
                &|b| {
                    let blocks = lanes_in(&valid, &spans[7], 7);
                    let fields = fields_at(&valid, &spans[7], 7);
                    let lanes = blocks[1..].iter().map(|lane| &valid[lane.clone()]);
                    let offsets = zeros(n + 1, 4);
                    let lanes: Vec<&[u8]> = std::iter::once(&offsets[..]).chain(lanes).collect();
                    splice(b, 7, framed(7, &[fields[0], n + 1, fields[2]], &lanes));
                    splice(b, 4, framed(4, &[n], &[&zeros(n, 8)]));
                    splice(b, 2, framed(2, &[n + 1], &[&zeros(n + 1, 4)]));
                    splice(b, 1, terms.clone());
                },
            );
            damaged(
                "docs section of 100000 empty field names, restamped".into(),
                &|b| {
                    let docs = lanes_in(&valid, &spans[6], 6);
                    let fields = fields_at(&valid, &spans[6], 6);
                    let mut lanes: Vec<&[u8]> =
                        docs[..4].iter().map(|lane| &valid[lane.clone()]).collect();
                    let names = zeros(n, 4);
                    lanes.extend([&names[..], &[]]);
                    let fields = [fields[0], fields[1], fields[2], n, 0];
                    splice(b, 6, framed(6, &fields, &lanes));
                },
            );

            // Every item of every lane of `u32`s or `u64`s — ends, firsts,
            // field-name ids, offsets, doc ids, tf and length bits — zeroed
            // and set to all ones, and every third byte of the text and
            // posting-stream lanes set to 0xff, which no UTF-8 holds;
            // restamped.
            for (s, span) in spans.iter().enumerate() {
                let section = s % per_shard;
                let lanes = lanes_in(&valid, span, section);
                let widths = lanes_of(section, &fields_at(&valid, span, section)).unwrap();
                for (lane, &(kind, _)) in lanes.iter().zip(widths) {
                    let width = kind.width();
                    let values: &[u8] = if width == 1 { &[0xff] } else { &[0, 0xff] };
                    for at in lane.clone().step_by(width.max(3)) {
                        for &v in values {
                            damaged(
                                format!("item at {at} of section {s} set to {v:#x}s"),
                                &|b| {
                                    b[at..at + width].fill(v);
                                    restamp(b, span);
                                },
                            );
                        }
                    }
                }
            }

            // Lanes that pass their checksum but do not make an index part:
            // each must be refused with the reason named.
            let refused = |what: String, why: &str, damage: &dyn Fn(&mut Vec<u8>)| {
                let mut bytes = valid.clone();
                damage(&mut bytes);
                let what = format!("{codec}: {what}");
                let got = check(&bytes, &what).expect_err(&what);
                assert!(got.contains(why), "{what}: {got}");
            };
            // A docs section of 100 000 distinct field names, all but those
            // the strings use unused (the writer stores a name only when a
            // string uses it): refused before any name is entered.
            refused(
                "docs section of 100000 distinct field names no string uses, restamped".into(),
                "unused field name",
                &|b| {
                    let docs = lanes_in(&valid, &spans[6], 6);
                    let fields = fields_at(&valid, &spans[6], 6);
                    let mut lanes: Vec<&[u8]> =
                        docs[..4].iter().map(|lane| &valid[lane.clone()]).collect();
                    let mut text = String::new();
                    let mut ends = Vec::new();
                    for id in 0..n {
                        text.push_str(&id.to_string());
                        ends.extend((text.len() as u32).to_le_bytes());
                    }
                    lanes.extend([&ends[..], text.as_bytes()]);
                    let fields = [fields[0], fields[1], fields[2], n, text.len() as u64];
                    splice(b, 6, framed(6, &fields, &lanes));
                },
            );
            for (s, span) in spans.iter().enumerate() {
                let section = s % per_shard;
                let lanes = lanes_in(&valid, span, section);
                // Every arena: the vocabulary, the stored strings, the field
                // names (the stopwords too, where there are any).
                let arenas: &[(usize, usize)] = match section {
                    0 | 1 => &[(0, 1)],
                    6 => &[(2, 3), (4, 5)],
                    _ => &[],
                };
                for &(ends, text) in arenas {
                    let (ends, text) = (lanes[ends].clone(), lanes[text].clone());
                    let n = ends.len() / 4;
                    if n < 2 {
                        continue;
                    }
                    let end = |b: &[u8], i: usize| u32_at(b, ends.start + 4 * i);
                    let name = SECTION_NAMES[section];
                    refused(format!("{name} ends decreasing"), "out of order", &|b| {
                        let second = end(b, 1);
                        set_u32(b, ends.start, second + 1);
                        restamp(b, span);
                    });
                    refused(
                        format!("{name} ends past the text"),
                        "not at the end",
                        &|b| {
                            let last = end(b, n - 1);
                            set_u32(b, ends.start + 4 * (n - 1), last + 1);
                            restamp(b, span);
                        },
                    );
                    // A character cut between two strings: string `i` ends
                    // inside it, and string `i + 1` starts there.
                    let cut = (0..n - 1).find_map(|i| {
                        let start = if i == 0 { 0 } else { end(&valid, i - 1) };
                        let inside = (start + 1..end(&valid, i)).find(|&p| {
                            (valid[text.start + p as usize] as i8) < -0x40 // a continuation byte
                        });
                        inside.map(|p| (i, p))
                    });
                    if let Some((i, p)) = cut {
                        refused(format!("{name}: a character split"), "non-UTF-8", &|b| {
                            set_u32(b, ends.start + 4 * i, p);
                            restamp(b, span);
                        });
                    }
                }
                if section == 6 {
                    let (firsts, field_of) = (lanes[0].clone(), lanes[1].clone());
                    let (docs, strings) = (firsts.len() / 4, field_of.len() / 4);
                    let last = firsts.start + 4 * (docs - 1);
                    for (what, at, v) in [
                        ("last document past the strings", last, strings as u32),
                        ("first document not at string 0", firsts.start, 1),
                        ("documents out of order", last, u32_at(&valid, firsts.start)),
                    ] {
                        refused(what.to_owned(), "document firsts out of range", &|b| {
                            set_u32(b, at, v);
                            restamp(b, span);
                        });
                    }
                    let names = (lanes[4].len() / 4) as u32;
                    for (what, at, v) in [
                        ("a field past the names", field_of.start + 4, names),
                        ("an external id with a name", field_of.start, 0),
                        ("a field without a name", field_of.start + 4, u32::MAX),
                    ] {
                        refused(what.to_owned(), "field name ids out of range", &|b| {
                            set_u32(b, at, v);
                            restamp(b, span);
                        });
                    }
                    refused(
                        "a name used before the one numbered below it".to_owned(),
                        "field name ids out of first-use order",
                        &|b| {
                            set_u32(b, field_of.start + 4, 1);
                            restamp(b, span);
                        },
                    );
                }
                // A lane count larger than its frame, restamped.
                let at = span.payload.start + 8 * (FIELDS[section] - 1);
                refused(
                    format!("section {s}: last count + 1"),
                    "implausible count",
                    &|b| {
                        let v = u64_at(b, at) + 1;
                        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
                        restamp(b, span);
                    },
                );
            }

            // Nearly all of it is damage the loader must refuse; the rest is
            // damage with a valid checksum that still describes an index
            // (a different `min_token_len`, say).
            assert!(rejected > 1000, "{codec}: only {rejected} files rejected");
        }
    }

    #[test]
    fn a_checksum_fed_in_pieces_is_the_checksum_of_the_whole() {
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for len in [0, 1, 7, 8, 9, 100, 2999] {
            let payload = &bytes[..len];
            let mut whole = Checksum::new();
            whole.write(payload);
            assert_eq!(whole.finish(), checksum(payload), "{len}");
            // Cut anywhere, in pieces of every length up to two words.
            for piece in 1..=16 {
                let mut pieces = Checksum::new();
                payload.chunks(piece).for_each(|p| pieces.write(p));
                assert_eq!(pieces.finish(), checksum(payload), "{len} by {piece}");
            }
        }
        // Zero padding: a payload and the same one zero-extended within its
        // last word hash alike (the frame's length tells them apart), one
        // more word does not.
        assert_eq!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(
            checksum(b"abc"),
            checksum(&[b'a', b'b', b'c', 0, 0, 0, 0, 0, 0])
        );
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

    // --- arbitrary content ---------------------------------------------------

    /// Characters of every UTF-8 width, the wider ones most often, so a
    /// chunk boundary that falls inside a string usually cuts a character.
    const CHARS: &[char] = &['a', ' ', 'İ', 'ß', '€', '🎬', '🎬'];

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
                (prop::sample::select(vec!["body".to_owned(), "İ".to_owned(), "".to_owned()]), text()),
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

        /// Arbitrary content loads back as saved: external ids, field names
        /// and texts from empty to three stream buffers long, multi-byte
        /// characters at the buffer's chunk edges, more than 32 distinct
        /// field names, multi-byte stopwords, 1 to 3 shards (more shards than
        /// documents leaves some empty), both codecs. The loaded index
        /// equals the built one in its fingerprint, every document, the
        /// vocabulary, the stopwords and every lane.
        #[test]
        fn strings_cut_at_chunk_boundaries_load_back_as_saved(
            docs in prop::collection::vec(document(), 0..6),
            shards in 1usize..=3,
            compressed in 0usize..2,
            many_names in 0usize..2,
        ) {
            let analyzer = Analyzer::new().with_stopwords(["the", "ß", "ünter", ""]);
            let mut b = IndexBuilder::new().with_analyzer(analyzer);
            b.add(Document::new("").field("", ""));
            for doc in docs {
                b.add(doc);
            }
            if many_names == 1 {
                b.add((0..40).fold(Document::new("names"), |doc, i| {
                    doc.field(format!("field {i} €"), format!("text {i}"))
                }));
            }
            let mut built = b.build_sharded(shards);
            if compressed == 1 {
                built.compress_postings();
            }
            let loaded = decode_bytes(&saved(&built)).expect("a saved index loads");
            prop_assert_eq!(loaded.fingerprint(), built.fingerprint());
            for (i, (got, want)) in loaded.shards().iter().zip(built.shards()).enumerate() {
                let what = format!("shard {i} of {shards}");
                assert_same_index(got, want, &what);
                assert_eq!(sorted_stopwords(got), sorted_stopwords(want), "{what}");
                let analyzers = [got, want].map(|s| s.analyzer().min_token_len());
                assert_eq!(analyzers[0], analyzers[1], "{what}");
            }
            for d in 0..built.num_docs() as u32 {
                let (got, want) = (loaded.document(d).unwrap(), built.document(d).unwrap());
                prop_assert_eq!(got.external_id(), want.external_id());
                prop_assert!(got.fields().eq(want.fields()), "document {}", d);
            }
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
