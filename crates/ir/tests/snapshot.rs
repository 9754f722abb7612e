//! Integration tests for the on-disk index snapshot (`docs/INDEX_FORMAT.md`):
//! full round-trips at both codecs, the O(1) header probe, and — because the
//! loader is the trust boundary for a file the process didn't just write —
//! rejection of every corruption class the format can detect: bad magic,
//! unknown versions, truncation, flipped payload bytes (checksums), and
//! trailing garbage.

use irengine::{
    read_snapshot_header, Analyzer, Document, IndexBuilder, KernelTier, ScoringFunction,
    SearchContext, ShardedIndex, ShardedSearcher, SnapshotError, SNAPSHOT_VERSION,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh temp path per call so parallel tests never collide.
fn temp_path() -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qunits-snapshot-test-{}-{}.qx",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deterministic mixed corpus: entity-ish anchors plus Zipf-ish bodies,
/// boosted fields so tf values are non-integral, several hundred docs so
/// every section (terms, offsets, postings, bounds, lengths, docs) is
/// exercised with multi-posting rows.
fn build(shards: usize) -> ShardedIndex {
    let mut b = IndexBuilder::new().with_analyzer(Analyzer::new());
    // fractional boost → non-integral weighted tfs, so the tf lane's raw
    // f64 escape path is exercised alongside the inline-integer one
    b.set_field_boost("anchor", 2.5);
    for i in 0..400 {
        let anchor = format!("entity{} surname{}", i % 40, i % 7);
        let mut body = String::new();
        for j in 0..12 {
            body.push_str(&format!("w{} ", (i * 31 + j * j * 7 + i * j) % 97));
        }
        b.add(
            Document::new(format!("doc{i}"))
                .field("anchor", anchor)
                .field("body", body),
        );
    }
    b.build_sharded(shards)
}

fn queries() -> Vec<Vec<String>> {
    ["entity3 surname2", "w1 w5", "entity7", "w0 w2 w90", "zzz"]
        .iter()
        .map(|q| q.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// Save → header probe → load must reproduce fingerprint, codec, store
/// bytes, and every ranked list (pruned and exhaustive kernels) to the
/// bit — at both codecs.
#[test]
fn round_trip_is_bit_identical_at_both_codecs() {
    for compressed in [false, true] {
        let mut original = build(3);
        if compressed {
            original.compress_postings();
        }
        let path = temp_path();
        original.save_snapshot(&path).unwrap();

        // O(1) header probe: identity without loading the sections
        let header = read_snapshot_header(&path).unwrap();
        assert_eq!(header.version, SNAPSHOT_VERSION);
        assert_eq!(header.shard_count, 3);
        assert_eq!(header.num_docs, original.num_docs() as u64);
        assert_eq!(header.fingerprint, original.fingerprint());

        let loaded = ShardedIndex::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.fingerprint(), original.fingerprint());
        assert_eq!(loaded.postings_codec(), original.postings_codec());
        assert_eq!(loaded.posting_store_bytes(), original.posting_store_bytes());
        assert_eq!(loaded.num_docs(), original.num_docs());
        assert_eq!(loaded.num_postings(), original.num_postings());

        let before = ShardedSearcher::new(&original, ScoringFunction::default());
        let after = ShardedSearcher::new(&loaded, ScoringFunction::default());
        for terms in queries() {
            for k in [1usize, 10, 500] {
                // block-max exercises the loaded block lanes, MaxScore
                // the rebuilt term-bound lanes, exhaustive the raw
                // postings
                for tier in [
                    KernelTier::BlockMax,
                    KernelTier::MaxScore,
                    KernelTier::Exhaustive,
                ] {
                    let ctx = SearchContext {
                        tier,
                        ..SearchContext::default()
                    };
                    let want = before
                        .try_search_terms_where_ctx(&terms, k, None, &ctx)
                        .unwrap()
                        .hits;
                    let got = after
                        .try_search_terms_where_ctx(&terms, k, None, &ctx)
                        .unwrap()
                        .hits;
                    assert_eq!(want.len(), got.len(), "{terms:?} k={k}");
                    for (w, g) in want.iter().zip(&got) {
                        assert_eq!(w.doc, g.doc);
                        assert_eq!(w.matched_terms, g.matched_terms);
                        assert_eq!(
                            w.score.to_bits(),
                            g.score.to_bits(),
                            "score drift on {terms:?} k={k} tier={tier:?}"
                        );
                    }
                }
            }
        }
    }
}

/// External ids and stored fields survive the trip — the `docs` section is
/// not just for show.
#[test]
fn round_trip_preserves_documents() {
    let original = build(2);
    let path = temp_path();
    original.save_snapshot(&path).unwrap();
    let loaded = ShardedIndex::load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let before = ShardedSearcher::new(&original, ScoringFunction::default());
    let after = ShardedSearcher::new(&loaded, ScoringFunction::default());
    let terms: Vec<String> = vec!["entity3".into(), "surname2".into()];
    let ctx = SearchContext::default();
    let want = before.try_search_terms_where_ctx(&terms, 20, None, &ctx);
    let got = after.try_search_terms_where_ctx(&terms, 20, None, &ctx);
    for (w, g) in want.unwrap().hits.iter().zip(&got.unwrap().hits) {
        assert_eq!(w.doc, g.doc);
    }
}

fn expect_corrupt(result: Result<ShardedIndex, SnapshotError>, needle: &str) {
    match result {
        Err(SnapshotError::Corrupt(why)) => {
            assert!(why.contains(needle), "expected {needle:?} in {why:?}")
        }
        Err(other) => panic!("expected Corrupt({needle:?}), got {other}"),
        Ok(_) => panic!("expected Corrupt({needle:?}), got a loaded index"),
    }
}

/// Write a valid snapshot, hand the bytes to `mangle`, and return the
/// loader's verdict on the result.
fn load_mangled(mangle: impl FnOnce(&mut Vec<u8>)) -> Result<ShardedIndex, SnapshotError> {
    let path = temp_path();
    build(2).save_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    mangle(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let result = ShardedIndex::load_snapshot(&path);
    std::fs::remove_file(&path).unwrap();
    result
}

#[test]
fn rejects_bad_magic() {
    expect_corrupt(load_mangled(|b| b[0] ^= 0xff), "bad magic");
}

#[test]
fn rejects_unknown_version() {
    // version is the little-endian u32 at offset 8
    expect_corrupt(
        load_mangled(|b| b[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes())),
        "unsupported version",
    );
}

/// Version 1 files (pre block-max lanes, per-term compressed offsets) are
/// explicitly rejected, not silently misparsed — the evolution policy is
/// reject-and-rebuild, never best-effort.
#[test]
fn rejects_previous_version() {
    const { assert!(SNAPSHOT_VERSION >= 2, "v1 must be in the past") };
    expect_corrupt(
        load_mangled(|b| b[8..12].copy_from_slice(&1u32.to_le_bytes())),
        "unsupported version",
    );
}

#[test]
fn rejects_truncated_file() {
    expect_corrupt(
        load_mangled(|b| {
            let keep = b.len() - 7;
            b.truncate(keep);
        }),
        "truncated",
    );
}

#[test]
fn rejects_header_only_file() {
    expect_corrupt(load_mangled(|b| b.truncate(32)), "truncated");
}

#[test]
fn rejects_empty_file() {
    expect_corrupt(load_mangled(|b| b.clear()), "truncated header");
}

#[test]
fn rejects_flipped_payload_byte() {
    // offset 45 sits inside the first shard's analyzer-section payload
    // (header 32 B, then tag 1 B + length 8 B), past the framing — the
    // only guard there is the section checksum
    expect_corrupt(load_mangled(|b| b[45] ^= 0x01), "checksum mismatch");
}

#[test]
fn rejects_trailing_garbage() {
    expect_corrupt(load_mangled(|b| b.extend_from_slice(&[0u8; 9])), "trailing");
}

/// The header probe applies the same magic/version gate as the full loader.
#[test]
fn header_probe_rejects_bad_magic() {
    let path = temp_path();
    build(2).save_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[3] ^= 0x55;
    std::fs::write(&path, &bytes).unwrap();
    let err = read_snapshot_header(&path).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    assert!(err.to_string().contains("bad magic"), "{err}");
}

/// A missing file surfaces as `Io`, not `Corrupt` — callers (the engine's
/// build path) treat the two differently in diagnostics.
#[test]
fn missing_file_is_io_error() {
    match ShardedIndex::load_snapshot(temp_path()) {
        Err(SnapshotError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

/// A save that fails after creating its temp file removes it: the partial
/// file would keep the space a full disk lacked. Saving onto a directory
/// writes the whole temp file and then fails to rename it.
#[test]
fn a_failed_save_leaves_no_temp_file() {
    let dir = temp_path();
    std::fs::create_dir(&dir).unwrap();
    let saved = build(1).save_snapshot(&dir);
    let mut tmp = dir.clone().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let left = tmp.exists();
    std::fs::remove_dir(&dir).unwrap();
    let _ = std::fs::remove_file(&tmp);
    assert!(
        matches!(saved, Err(SnapshotError::Io(_))),
        "saving onto a directory fails: {saved:?}"
    );
    assert!(!left, "the failed save left {}", tmp.display());
}
