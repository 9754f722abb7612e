//! Transient memory of a snapshot save and load: a fixed number of buffers,
//! whatever the size of the index.
//!
//! A test binary of its own, because it installs a global allocator that
//! tracks the bytes live across every thread and their high-water mark. Run
//! it alone (`RUST_TEST_THREADS=1`, as CI does) or with its single test, so
//! no other test's allocations are counted.
//!
//! * A save counts every section's length from its lanes, then writes the
//!   sections at their places on two threads, one buffer per writing
//!   thread, each payload streamed through its thread's buffer: what it
//!   holds above what was live before it is those two buffers and
//!   bookkeeping.
//! * A load copies every section through one buffer per thread into lanes
//!   and tables reserved up front: what it holds above what the
//!   loaded index holds afterwards is those two buffers and bookkeeping.
//!
//! Both peaks are measured at N and 2N documents, 1 and 2 shards; each must
//! be the same at N as at 2N and stay under [`TRANSIENT_BOUND`]. A save that
//! gathers a section's payload in memory, or a load that reads the whole
//! file into memory, grows with N and fails here.

use irengine::{Document, IndexBuilder, ShardedIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The streaming buffers — one per writing or loading thread, two either
/// way (64 KiB each) — plus room for bookkeeping: the save's section places
/// and sorted stopwords, the loader's section frames and decode states, a
/// helper thread's spawn.
const TRANSIENT_BOUND: usize = 2 * (64 << 10) + (32 << 10);

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only. `realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc` and `dealloc`.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
        PEAK.fetch_max(live, Ordering::SeqCst);
        // SAFETY: the caller's obligations for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's obligations for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Run `f`: its result, the bytes live before it, the most live during it,
/// and the bytes live after it.
fn tracked<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst);
    (out, before, peak, LIVE.load(Ordering::SeqCst))
}

/// An index of `n` documents whose vocabulary grows with `n`.
fn index_of(n: usize, shards: usize) -> ShardedIndex {
    let mut b = IndexBuilder::new();
    b.set_field_boost("anchor", 2.5);
    for i in 0..n {
        let body: Vec<String> = (0..8)
            .map(|j| format!("w{}", (i * 7 + j * 13) % (n / 4)))
            .collect();
        b.add(
            Document::new(format!("doc{i}"))
                .field("anchor", format!("entity{i} İ"))
                .field("body", body.join(" ")),
        );
    }
    b.build_sharded(shards)
}

#[test]
fn a_save_and_a_load_hold_fixed_buffers_whatever_the_index_size() {
    for shards in [1, 2] {
        let mut peaks = Vec::new();
        for n in [2_000, 4_000] {
            let index = index_of(n, shards);
            let path = std::env::temp_dir().join(format!(
                "qunits-snapshot-memory-{}-{shards}-{n}.qx",
                std::process::id()
            ));
            // The header's fingerprint is computed once and kept; its merge
            // buffers are the index's business, not the save's.
            index.fingerprint();
            let (saved, before, peak, _) = tracked(|| index.save_snapshot(&path));
            saved.expect("save");
            let save = peak - before;
            drop(index);

            let (loaded, _, peak, after) = tracked(|| ShardedIndex::load_snapshot(&path));
            let loaded = loaded.expect("load");
            assert_eq!(loaded.num_docs(), n);
            let load = peak - after;
            let file = std::fs::metadata(&path).expect("saved").len();
            std::fs::remove_file(&path).unwrap();
            println!(
                "{shards} shard(s), {n} docs, a {file}-byte file: save holds {save} bytes \
                 beyond what was live, load {load} beyond the index"
            );
            assert!(save <= TRANSIENT_BOUND, "save transient {save} at {n} docs");
            assert!(load <= TRANSIENT_BOUND, "load transient {load} at {n} docs");
            peaks.push((save, load));
        }
        assert_eq!(
            peaks[0], peaks[1],
            "{shards} shard(s): transients grew with the index"
        );
    }
}
