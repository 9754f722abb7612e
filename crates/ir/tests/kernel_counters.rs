//! The scoring kernel's exact work counters, pinned. Every kernel tier must
//! return the same ranked list (the proptests hold that); this file holds
//! the *work* each tier does to get there, which no bit-identity gate can
//! see: a bound gone slack, a MaxScore threshold that never arms, or block
//! lanes that are never consulted all leave results unchanged and only show
//! up here, as a walked-postings count that moved.
//!
//! The counters are exact and deterministic (no clock), so they are pinned
//! to constants, not bounded. A change that moves one on purpose re-pins
//! it and says why.
//!
//! This is its own test binary, holding a single test, because the
//! failpoint registry is process-global: the armed pass must not share a
//! process with the library's own failpoint unit tests.

use irengine::{
    fault, Document, Index, IndexBuilder, KernelTier, ScoreScratch, ScoringFunction, Searcher,
};

/// Documents in both corpora.
const DOCS: usize = 20_000;

/// A never-firing schedule on every failpoint site: armed, so every site
/// takes its slow path and counts hits, but no trigger is ever reached.
const NEVER_FIRING: &str = "exec.task=panic@#1000000;postings.decode=error@#1000000;\
    snapshot.read=error@#1000000;snapshot.write=error@#1000000";

/// The pruning-friendly metering corpus. A dozen short spike-saturated
/// documents up front put ten full-score hits in the heap at once, so the
/// block-max threshold beats every later tf-1 block bound and whole blocks
/// are skipped unloaded. `spike`'s other matches are tf-1 postings spread
/// across long filler documents: the tail MaxScore must walk in full and
/// block-max skips. `hot` matches everything: a heavy term both pruned
/// tiers probe candidate-driven and the exhaustive reference walks end to
/// end.
fn spike_corpus() -> Index {
    let mut b = IndexBuilder::new();
    for i in 0..DOCS {
        let text = if i < 12 {
            format!("{}hot", "spike ".repeat(8))
        } else {
            let mut t = String::from("hot ");
            if i % 20 == 0 {
                t.push_str("spike ");
            }
            for j in 0..18 {
                t.push_str(&format!("f{} ", (i * 13 + j * 5) % 50));
            }
            t
        };
        b.add(Document::new(format!("m{i}")).field("body", text));
    }
    b.build()
}

/// A mixed corpus for the codec: token `j` of document `i` is a pure
/// function of `(i, j)`; quadratic mixing spreads document frequencies
/// across an 800-word vocabulary and the modulo skew makes low word ids
/// common, giving a few heavy terms and a long tail.
fn mixed_corpus() -> Index {
    let mut b = IndexBuilder::new();
    for i in 0..DOCS {
        let mut text = String::new();
        for j in 0..16 {
            let w = (i * 31 + j * j * 7 + i * j) % ((j % 7 + 1) * (800 / 7) + 1);
            text.push_str(&format!("w{w} "));
        }
        b.add(Document::new(format!("d{i}")).field("body", text));
    }
    b.build()
}

fn terms(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// Everything the kernel counts, for one pass over both corpora.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    block_max_postings: u64,
    blocks_skipped: u64,
    blocks_scored: u64,
    max_score_postings: u64,
    exhaustive_postings: u64,
    mixed_terms: usize,
    mixed_postings: usize,
    flat_store_bytes: usize,
    compressed_store_bytes: usize,
}

/// Meter the top-10 `spike hot` query under each tier on a fresh scratch,
/// holding the three ranked lists equal, then re-encode the mixed corpus's
/// posting lanes and hold its ranked list equal across the codecs.
fn measure() -> Counters {
    let scoring = ScoringFunction::default();
    let spike = spike_corpus();
    let query = terms(&["spike", "hot"]);
    let run = |tier: KernelTier| {
        let mut scratch = ScoreScratch::new();
        let hits = Searcher::new(&spike, scoring)
            .with_tier(tier)
            .search_terms_with(&query, 10, &mut scratch);
        (hits, scratch)
    };
    let (block_max_hits, block_max) = run(KernelTier::BlockMax);
    let (max_score_hits, max_score) = run(KernelTier::MaxScore);
    let (exhaustive_hits, exhaustive) = run(KernelTier::Exhaustive);
    assert_eq!(block_max_hits.len(), 10);
    assert_eq!(max_score_hits, block_max_hits, "MaxScore changed the list");
    assert_eq!(
        exhaustive_hits, block_max_hits,
        "exhaustive changed the list"
    );

    let mut mixed = mixed_corpus();
    let query = terms(&["w1", "w3", "w40", "w151", "w700", "zzz"]);
    let mut scratch = ScoreScratch::new();
    let flat_hits = Searcher::new(&mixed, scoring).search_terms_with(&query, 10, &mut scratch);
    let flat_store_bytes = mixed.posting_store_bytes();
    mixed.compress_postings();
    assert_eq!(
        Searcher::new(&mixed, scoring).search_terms_with(&query, 10, &mut scratch),
        flat_hits,
        "compressed lanes changed the ranked list"
    );

    Counters {
        block_max_postings: block_max.postings_visited(),
        blocks_skipped: block_max.blocks_skipped(),
        blocks_scored: block_max.blocks_scored(),
        max_score_postings: max_score.postings_visited(),
        exhaustive_postings: exhaustive.postings_visited(),
        mixed_terms: mixed.num_terms(),
        mixed_postings: mixed.num_postings(),
        flat_store_bytes,
        compressed_store_bytes: mixed.posting_store_bytes(),
    }
}

#[test]
fn every_tier_walks_its_pinned_number_of_postings_armed_or_not() {
    let c = measure();
    assert_eq!(
        c,
        Counters {
            block_max_postings: 271,
            blocks_skipped: 7,
            blocks_scored: 20,
            max_score_postings: 2_022,
            exhaustive_postings: 21_011,
            mixed_terms: 799,
            mixed_postings: 314_185,
            flat_store_bytes: 3_770_220,
            compressed_store_bytes: 681_513,
        }
    );
    // The pinned values already order the tiers; say so in words too, so a
    // re-pin cannot quietly give up pruning.
    assert!(c.block_max_postings < c.max_score_postings);
    assert!(c.max_score_postings < c.exhaustive_postings);
    assert!(c.blocks_skipped > 0 && c.blocks_scored > 0);
    assert!(c.compressed_store_bytes < c.flat_store_bytes);

    // An armed but never-firing schedule on all four sites changes nothing.
    fault::install(NEVER_FIRING).expect("valid schedule");
    let armed = measure();
    let decode = fault::site_counters(fault::site::POSTINGS_DECODE);
    fault::clear();
    assert_eq!(armed, c);
    // The compressed search reached an armed site, and nothing fired.
    assert!(decode.0 > 0, "the schedule was never reached: {decode:?}");
    assert_eq!(decode.1, 0);
}
