//! What a restarted engine holds: its index, its row ids and fixed tables —
//! not one page.
//!
//! A test binary of its own, because it installs a global allocator that
//! tracks the bytes live across every thread. Run it alone
//! (`RUST_TEST_THREADS=1`, as CI does) or with its single test, so no other
//! test's allocations are counted.
//!
//! Two synthetic IMDbs differ only in page length: the second repeats every
//! trivia text eight times. The joins, the row ids and every table the
//! engine derives from them are the same for both; only the pages, and the
//! index built from their text, grow. An engine restarted from its snapshot
//! is measured against the index that snapshot loads on its own: what the
//! engine holds beyond the index must be the same bytes for both databases.
//! An engine that kept its rendered pages would hold their growth twice
//! over (markup and text) and fails here.
//!
//! Serving, the engine keeps the pages of its few largest instances once
//! rendered, and nothing else it renders: after every page has been asked
//! for, what it holds beyond a fresh engine is those pages and no more.

use datagen::imdb::{imdb_schema, ImdbConfig, ImdbData};
use irengine::ShardedIndex;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine};
use relstore::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes the engine may hold beyond its index differently for the two
/// databases: room for allocator bookkeeping of the executor's threads.
const SLACK: usize = 4 << 10;

/// Bytes a kept page may hold besides its markup and text: the `Arc`, the
/// key, definition name, anchor and field list.
const PAGE_OVERHEAD: usize = 1 << 10;

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only. `realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc` and `dealloc`.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::SeqCst);
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

/// Run `f`: its result, and the bytes it left live.
fn kept<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let out = f();
    (out, LIVE.load(Ordering::SeqCst) - before)
}

/// `db` with every trivia text repeated `times` times: the same tables, row
/// ids and joins, longer pages.
fn with_longer_trivia(db: &Database, times: usize) -> Database {
    let mut long = imdb_schema();
    long.set_enforce_fk(false);
    for tid in 0..db.catalog().len() {
        let table = db.table(tid).expect("same schema");
        let trivia = table.schema().name == "trivia";
        for (_, row) in table.scan() {
            let mut values = row.values().to_vec();
            if trivia {
                let text = values[2].as_text().expect("trivia text");
                values[2] = Value::from(vec![text; times].join(" "));
            }
            long.insert_into(tid, values).expect("copy a row");
        }
    }
    long.set_enforce_fk(true);
    long
}

/// Bytes a restarted engine over `db` holds beyond the index its snapshot
/// loads, and that index's bytes.
fn beyond_the_index(db: &Arc<Database>, name: &str) -> (usize, usize) {
    let path = std::env::temp_dir().join(format!(
        "qunits-engine-memory-{name}-{}.qx",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = || EngineConfig {
        snapshot_path: Some(path.clone()),
        search_shards: 2,
        executor_threads: 2,
        ..EngineConfig::default()
    };
    let build = || QunitSearchEngine::build(db, expert_imdb_qunits(db).expect("catalog"), config());
    drop(build().expect("cold build"));
    let (engine, engine_bytes) = kept(|| build().expect("restart"));
    assert!(engine.build_timings().from_snapshot, "{name}");
    let (index, index_bytes) = kept(|| ShardedIndex::load_snapshot(&path).expect("load"));
    assert_eq!(index.fingerprint(), engine.index_fingerprint(), "{name}");
    std::fs::remove_file(&path).expect("saved");
    (engine_bytes - index_bytes, index_bytes)
}

#[test]
fn an_engine_holds_no_page_bytes() {
    let data = ImdbData::generate(ImdbConfig::default());
    let short = Arc::clone(&data.db);
    let long = Arc::new(with_longer_trivia(&data.db, 8));
    let (short_beyond, short_index) = beyond_the_index(&short, "short");
    let (long_beyond, long_index) = beyond_the_index(&long, "long");
    println!(
        "beyond the index: {short_beyond} bytes with short pages, {long_beyond} with long; \
         the index: {short_index} and {long_index}"
    );
    assert!(
        long_index > short_index + (64 << 10),
        "the fixture lengthens pages"
    );
    assert!(
        long_beyond.abs_diff(short_beyond) <= SLACK,
        "the engine's own bytes grew with its pages: {short_beyond} → {long_beyond}"
    );
    // In this test, not one of its own: a test running beside it would be
    // counted.
    serving_keeps_only_the_pages_of_the_largest_instances(&data);
}

/// Serving: every page asked for once, over the short-page database.
fn serving_keeps_only_the_pages_of_the_largest_instances(data: &ImdbData) {
    let catalog = expert_imdb_qunits(&data.db).expect("catalog");
    let engine =
        QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).expect("engine");
    // A page the engine keeps comes back with a second owner.
    let ((pages, kept_pages, kept_bytes), held) = kept(|| {
        let mut counts = (0, 0, 0);
        for page in engine.instances() {
            counts.0 += 1;
            if Arc::strong_count(&page) > 1 {
                counts.1 += 1;
                counts.2 += page.rendered.len() + page.text.len();
            }
        }
        counts
    });
    println!("{kept_pages} of {pages} pages kept: {kept_bytes} bytes of text, {held} held");
    assert!(
        kept_pages > 0,
        "the fixture has instances large enough to keep"
    );
    assert!(
        kept_pages * 100 < pages,
        "only the largest instances keep a page"
    );
    assert!(
        (kept_bytes..=kept_bytes + kept_pages * PAGE_OVERHEAD).contains(&held),
        "serving holds {held} bytes beyond the kept pages' {kept_bytes}"
    );
}
