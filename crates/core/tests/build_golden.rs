//! Build output pinned across commits.
//!
//! The CI determinism diffs and the benchmark's reference engine compare
//! engines built by the *same* binary, so a renderer that drops a space or
//! a merge that reorders two definitions passes both. These two constants
//! were computed on the commit before the build path was made parallel by
//! work claiming and the renderer allocation-lean; whatever
//! `QunitSearchEngine::build` does from then on, for the default synthetic
//! IMDb and the expert catalog it must produce these bytes — at every
//! worker count, built cold or restarted from a snapshot.
//!
//! The saved snapshot **files** are pinned too: `SNAPSHOT_FNV1A` hashes the
//! bytes `save_snapshot` writes for that engine under both codecs at one and
//! two shards — "no format change" as a test. They were last recomputed
//! when the default block size went from 128 to 32 postings (the same
//! version-4 format, with four times the blockmax section's blocks), which
//! moved no other constant here: the header's index fingerprint is the
//! same.
//!
//! If a change moves them *on purpose* (a new definition, a different
//! rendering, a format bump), recompute with `BUILD_GOLDEN_PRINT=1 cargo test
//! -p qunit-core --test build_golden -- --nocapture` and say why in the commit.

mod fnv;

use datagen::imdb::{ImdbConfig, ImdbData};
use fnv::Fnv1a;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{materialize_all, EngineConfig, QunitSearchEngine};

/// `index_fingerprint()` of the engine.
const INDEX_FINGERPRINT: u64 = 0x4867_9115_273b_88c8;
/// FNV-1a over every instance's `(key, definition, rendered, text, fields,
/// tuple_count)` in catalog × materialisation order.
const INSTANCES_FNV1A: u64 = 0x84c1_d584_026a_c721;

/// FNV-1a of the snapshot file saved by a cold build, by
/// `(search_shards, compress_postings)`.
const SNAPSHOT_FNV1A: [(usize, bool, u64); 4] = [
    (1, false, 0xc066_d191_f1b1_e064),
    (1, true, 0x33ed_fce9_1105_0c71),
    (2, false, 0x4239_76dc_c0c8_206f),
    (2, true, 0xe7f3_2f52_307d_2a0e),
];

/// Hash the engine's instances in the order `keys` lists them.
fn instances_hash(engine: &QunitSearchEngine, keys: &[String]) -> u64 {
    let mut h = Fnv1a::new();
    for key in keys {
        let inst = engine
            .instance(key)
            .unwrap_or_else(|| panic!("engine lacks instance {key}"));
        h.str(&inst.key);
        h.str(&inst.definition);
        h.str(&inst.rendered);
        h.str(&inst.text);
        h.u64(inst.fields.len() as u64);
        for f in &inst.fields {
            h.str(f);
        }
        h.u64(inst.tuple_count as u64);
    }
    h.0
}

#[test]
fn build_output_matches_the_pinned_constants() {
    let data = ImdbData::generate(ImdbConfig::default());
    let catalog = || expert_imdb_qunits(&data.db).expect("catalog");
    // Catalog × materialisation order, taken from the serial bulk path.
    let keys: Vec<String> = catalog()
        .iter()
        .flat_map(|def| materialize_all(&data.db, def).expect("materialize"))
        .map(|inst| inst.key)
        .collect();

    let print = std::env::var_os("BUILD_GOLDEN_PRINT").is_some();
    for build_threads in [1, 2, 3, 8, 0] {
        let path = std::env::temp_dir().join(format!(
            "qunits-build-golden-{}-{build_threads}.qx",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        for restarted in [false, true] {
            assert_eq!(path.exists(), restarted, "cold build saves the snapshot");
            let engine = QunitSearchEngine::build(
                &data.db,
                catalog(),
                EngineConfig {
                    build_threads,
                    snapshot_path: Some(path.clone()),
                    ..EngineConfig::default()
                },
            )
            .expect("engine");
            let what = format!("build_threads {build_threads}, restarted {restarted}");
            assert_eq!(engine.num_instances(), keys.len(), "{what}");
            let (fingerprint, instances) =
                (engine.index_fingerprint(), instances_hash(&engine, &keys));
            if print {
                println!("{what}: INDEX_FINGERPRINT {fingerprint:#018x} INSTANCES_FNV1A {instances:#018x}");
                continue;
            }
            assert_eq!(fingerprint, INDEX_FINGERPRINT, "index, {what}");
            assert_eq!(instances, INSTANCES_FNV1A, "instances, {what}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn saved_snapshot_bytes_match_the_pinned_constants() {
    let data = ImdbData::generate(ImdbConfig::default());
    let print = std::env::var_os("BUILD_GOLDEN_PRINT").is_some();
    for (search_shards, compress_postings, want) in SNAPSHOT_FNV1A {
        let path = std::env::temp_dir().join(format!(
            "qunits-build-golden-bytes-{}-{search_shards}-{compress_postings}.qx",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        QunitSearchEngine::build(
            &data.db,
            expert_imdb_qunits(&data.db).expect("catalog"),
            EngineConfig {
                search_shards,
                compress_postings,
                snapshot_path: Some(path.clone()),
                ..EngineConfig::default()
            },
        )
        .expect("engine");
        let mut h = Fnv1a::new();
        h.bytes(&std::fs::read(&path).expect("cold build saves the snapshot"));
        let _ = std::fs::remove_file(&path);
        let what = format!("search_shards {search_shards}, compress_postings {compress_postings}");
        if print {
            println!("{what}: SNAPSHOT_FNV1A {:#018x}", h.0);
            continue;
        }
        assert_eq!(h.0, want, "snapshot bytes, {what}");
    }
}
