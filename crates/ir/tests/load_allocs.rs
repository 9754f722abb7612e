//! Allocation count of a snapshot load: per shard and per section, never per
//! document, term or stored string.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. While a load is measured every thread is counted, the calling
//! thread apart from the rest, so the helper the loader spawns is seen too:
//! it copies half the sections — reads each chunk, hashes it, copies it into
//! the lanes the calling thread reserved — then checks them and fills the
//! term, field-name and external-id tables of the sections it copied, and
//! must allocate nothing (*Loader order* in `docs/INDEX_FORMAT.md`). Run it
//! alone (`RUST_TEST_THREADS=1`, as CI does) or with its single test, so no
//! other test's allocations are counted.
//!
//! The loader copies every text arena as its two lanes and rebuilds the
//! tables as open-addressing slot arrays, so a load allocates per shard —
//! each lane and table once, each section's boxed decode state, plus the
//! analyzer's stopword set, one `String` per stopword — and the same number
//! of times at N and at 2N documents. Measured with this allocator, 2 shards:
//!
//! | allocations of one load, beyond the helpers' spawns | 2 000 docs, 1 501 terms per shard | 4 000 docs, 3 001 terms per shard |
//! |---|---|---|
//! | a `String` per stored string, `HashMap`s keyed by cloned `String`s | 20 085 | 40 085 |
//! | text arenas, id tables, the whole file in one buffer | 92 | 92 |
//! | sections streamed, each set up with a boxed walk | 134 | 134 |
//! | now: lanes copied, each section's decode state boxed ([`LOAD_ALLOCS`]) | 116 | 116 |

use irengine::{Document, IndexBuilder, ShardedIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations of one 2-shard load on the calling thread, beyond those of
/// spawning its helper, which depend on the test harness (capturing output
/// installs a spawn hook).
const LOAD_ALLOCS: u64 = 116;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLER: AtomicU64 = AtomicU64::new(0);
static OTHERS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is the one measuring. Const-initialised and
    /// without a destructor, so reading it never allocates.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only. `realloc` is
// the default alloc + copy + dealloc, so it counts as an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let caller = IS_CALLER.try_with(Cell::get).unwrap_or(false);
            let counter = if caller { &CALLER } else { &OTHERS };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations during `f`: `(calling thread, every other thread)`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (
        CALLER.load(Ordering::Relaxed),
        OTHERS.load(Ordering::Relaxed),
    );
    IS_CALLER.set(true);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    IS_CALLER.set(false);
    let caller = CALLER.load(Ordering::Relaxed) - before.0;
    let others = OTHERS.load(Ordering::Relaxed) - before.1;
    (out, caller, others)
}

/// A 2-shard snapshot of `n` documents whose vocabulary grows with `n`,
/// saved to a fresh temp file.
fn snapshot_of(n: usize) -> std::path::PathBuf {
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
    let path =
        std::env::temp_dir().join(format!("qunits-load-allocs-{}-{n}.qx", std::process::id()));
    b.build_sharded(2).save_snapshot(&path).expect("save");
    path
}

#[test]
fn a_load_allocates_per_section_not_per_document() {
    let (small, large) = (snapshot_of(2_000), snapshot_of(4_000));
    // Warm-up: whatever this thread sets up on its first load.
    drop(ShardedIndex::load_snapshot(&small).expect("load"));

    // What spawning a helper costs, the way the loader spawns it.
    let ((), spawn, _) = measured(|| {
        std::thread::scope(|scope| {
            let helper = std::thread::Builder::new().spawn_scoped(scope, || ());
            helper.expect("spawn").join().expect("join");
        })
    });

    let mut counts = Vec::new();
    for (path, docs) in [(&small, 2_000), (&large, 4_000)] {
        let (index, caller, others) = measured(|| ShardedIndex::load_snapshot(path));
        let index = index.expect("load");
        assert_eq!(index.num_docs(), docs);
        println!(
            "{docs} docs, {} terms in shard 0: {caller} allocations on the caller \
             ({spawn} per helper spawned), {others} elsewhere",
            index.shards()[0].num_terms()
        );
        assert_eq!(others, 0, "a helper allocated at {docs} docs");
        counts.push(caller - spawn);
    }
    std::fs::remove_file(&small).unwrap();
    std::fs::remove_file(&large).unwrap();
    assert_eq!(counts[0], counts[1], "allocations grew with the corpus");
    assert_eq!(counts[0], LOAD_ALLOCS);
}
