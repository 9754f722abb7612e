//! Scoring functions: BM25 and classic TF-IDF (with cosine-style length
//! normalization).
//!
//! Both use the "plus-one" smoothed IDF so that scores stay non-negative
//! even for terms appearing in more than half the collection — important
//! here because qunit collections can be small and entity terms common.

use crate::document::DocId;
use crate::index::Index;

/// Corpus-level statistics for one query term, decoupled from any
/// particular [`Index`].
///
/// The sharded search path scores each shard's postings locally but must
/// produce scores identical to an unsharded search, so document frequency,
/// corpus size, and average document length are supplied explicitly —
/// computed across **all** shards — instead of being read off the
/// (shard-local) index. [`ScoringFunction::score_term`] is the convenience
/// wrapper that fills this in from a single unsharded index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermStats {
    /// Total number of documents in the corpus.
    pub num_docs: usize,
    /// Number of corpus documents containing the term.
    pub doc_freq: usize,
    /// Mean boost-weighted document length across the corpus.
    pub avg_doc_length: f64,
}

impl TermStats {
    /// Statistics of `term` in a single (unsharded) index.
    pub fn of(index: &Index, term: &str) -> Self {
        TermStats {
            num_docs: index.num_docs(),
            doc_freq: index.doc_freq(term),
            avg_doc_length: index.avg_doc_length(),
        }
    }
}

/// A scoring function with one term's corpus statistics folded in: the IDF
/// (an `ln()`) and the average document length are computed once here, then
/// [`TermScorer::score`] runs per posting with no transcendental math and no
/// statistics lookups.
///
/// Construct via [`ScoringFunction::scorer`]. The per-posting arithmetic is
/// **exactly** the tail of [`ScoringFunction::score_term_stats`] — that
/// method is implemented on top of this type — so hoisting the IDF out of a
/// postings loop cannot change a single score bit. Only work that yields the
/// same bits at any hoist point (pure functions of per-term inputs) may move
/// in here; anything involving `doc_length` or `weighted_tf` must stay in
/// [`TermScorer::score`] unreassociated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermScorer {
    function: ScoringFunction,
    idf: f64,
    avg_doc_length: f64,
}

/// Safety margin applied by [`TermScorer::max_score`]: the analytic peak is
/// inflated by one part in 10^7 so that the *floating-point* evaluation of
/// [`TermScorer::score`] can never exceed the *floating-point* bound, even
/// though both expressions round each operation independently (per-op
/// relative error is ~1e-16; 1e-7 drowns it with room for the summation
/// error of adding a handful of per-term bounds).
const BOUND_MARGIN: f64 = 1.0 + 1e-7;

impl TermScorer {
    /// Score one posting: the document's boost-weighted length and the
    /// term's boost-weighted frequency in it.
    #[inline]
    pub fn score(&self, doc_length: f64, weighted_tf: f64) -> f64 {
        match self.function {
            ScoringFunction::Bm25 { k1, b } => {
                let avg = self.avg_doc_length.max(f64::MIN_POSITIVE);
                let norm = k1 * (1.0 - b + b * doc_length / avg);
                self.idf * weighted_tf * (k1 + 1.0) / (weighted_tf + norm)
            }
            ScoringFunction::TfIdf => {
                let dl = doc_length.max(1.0);
                self.idf * weighted_tf / dl.sqrt()
            }
        }
    }

    /// Upper bound on [`TermScorer::score`] over every posting this term
    /// can have, given the largest weighted tf of any of its postings
    /// ([`crate::Index::max_weighted_tf_of`], maxed across shards for a
    /// sharded corpus). This is the per-term bound the MaxScore pruned
    /// kernel sorts and sums; it must hold for the floating-point
    /// evaluation, so the analytic peak is inflated by `BOUND_MARGIN`.
    ///
    /// - BM25: `score` increases in `weighted_tf` and decreases in
    ///   `doc_length` (for `b` in `[0, 1]`), so the peak is at
    ///   `weighted_tf = max_weighted_tf`, `doc_length = 0`:
    ///   `idf · mwtf · (k1+1) / (mwtf + k1·(1−b))`.
    /// - TF-IDF: `doc_length >= weighted_tf` for any built index (a doc's
    ///   length is the sum of its weighted tfs, and boosts are
    ///   non-negative), so `score <= idf · wtf / sqrt(max(wtf, 1))`, which
    ///   increases in `wtf` — peak at `mwtf`.
    ///
    /// A term with no postings (`max_weighted_tf <= 0`) bounds at `0.0`.
    /// Outside the range [`ScoringFunction::check`] admits the bound is
    /// `+∞`, so no kernel prunes on it.
    pub fn max_score(&self, max_weighted_tf: f64) -> f64 {
        if max_weighted_tf <= 0.0 {
            return 0.0;
        }
        if self.function.check().is_err() {
            return f64::INFINITY;
        }
        let peak = match self.function {
            ScoringFunction::Bm25 { k1, b } => {
                let min_norm = (k1 * (1.0 - b)).max(0.0);
                self.idf * max_weighted_tf * (k1 + 1.0) / (max_weighted_tf + min_norm)
            }
            ScoringFunction::TfIdf => self.idf * max_weighted_tf / max_weighted_tf.max(1.0).sqrt(),
        };
        peak * BOUND_MARGIN
    }

    /// Upper bound on [`TermScorer::score`] over one block of postings,
    /// given the block's largest weighted tf and its shortest document
    /// length: the scorer at (`min_doc_length`, `max_weighted_tf`), inflated
    /// by `BOUND_MARGIN`, and never above [`TermScorer::max_score`] (which
    /// keeps TF-IDF's `doc_length >= weighted_tf` bound). Valid because
    /// both functions, in the range [`ScoringFunction::check`] admits,
    /// never decrease as `weighted_tf` grows and never increase as
    /// `doc_length` grows; outside it the bound is `+∞`.
    pub fn block_bound(&self, max_weighted_tf: f64, min_doc_length: f64) -> f64 {
        let cap = self.max_score(max_weighted_tf);
        if cap == f64::INFINITY {
            return cap;
        }
        (self.score(min_doc_length, max_weighted_tf) * BOUND_MARGIN).min(cap)
    }
}

/// Which ranking model to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoringFunction {
    /// Okapi BM25 with the standard `k1` (tf saturation) and `b` (length
    /// normalization) parameters.
    Bm25 {
        /// Term-frequency saturation; typical 1.2–2.0.
        k1: f64,
        /// Length-normalization strength in `[0, 1]`.
        b: f64,
    },
    /// `tf · idf / sqrt(doc_length)` — the simplest length-normalized TF-IDF.
    TfIdf,
}

impl Default for ScoringFunction {
    fn default() -> Self {
        ScoringFunction::Bm25 { k1: 1.2, b: 0.75 }
    }
}

impl ScoringFunction {
    /// The parameter range every score bound assumes: BM25's `k1` finite
    /// and `>= 0`, its `b` in `[0, 1]`. Outside it BM25 can grow with
    /// document length or shrink with tf, so the bounds would not hold;
    /// the error names the parameter and its value.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            ScoringFunction::Bm25 { k1, .. } if !(k1.is_finite() && k1 >= 0.0) => {
                Err(format!("BM25 k1 = {k1} is not a finite value >= 0"))
            }
            ScoringFunction::Bm25 { b, .. } if !(0.0..=1.0).contains(&b) => {
                Err(format!("BM25 b = {b} is outside [0, 1]"))
            }
            _ => Ok(()),
        }
    }

    /// Smoothed inverse document frequency from explicit corpus counts.
    pub fn idf_from(num_docs: usize, doc_freq: usize) -> f64 {
        let n = num_docs as f64;
        let df = doc_freq as f64;
        // BM25+-style floor: ln(1 + (N - df + 0.5)/(df + 0.5)) ≥ 0.
        (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
    }

    /// Fold `stats` into a per-term [`TermScorer`], paying the IDF `ln()`
    /// once up front. The hot scoring loops resolve each query term to a
    /// scorer before walking its postings.
    pub fn scorer(&self, stats: TermStats) -> TermScorer {
        TermScorer {
            function: *self,
            idf: Self::idf_from(stats.num_docs, stats.doc_freq),
            avg_doc_length: stats.avg_doc_length,
        }
    }

    /// Score one (term, document) pair from explicit statistics: the term's
    /// corpus-level [`TermStats`], the document's boost-weighted length, and
    /// the term's boost-weighted frequency in the document.
    ///
    /// This is the primitive both search paths share (implemented as
    /// [`ScoringFunction::scorer`] + [`TermScorer::score`], so batched and
    /// one-shot scoring use literally the same arithmetic). It is a pure
    /// function of its inputs, so feeding corpus-global stats with a
    /// shard-local `doc_length` yields a score bit-identical to scoring the
    /// same document in one big index (the sharded-search determinism
    /// contract relies on exactly this).
    pub fn score_term_stats(&self, stats: TermStats, doc_length: f64, weighted_tf: f64) -> f64 {
        self.scorer(stats).score(doc_length, weighted_tf)
    }

    /// Score one (term, document) pair given the term's weighted tf, reading
    /// all statistics from a single unsharded `index`.
    pub fn score_term(&self, index: &Index, term: &str, doc: DocId, weighted_tf: f64) -> f64 {
        self.score_term_stats(
            TermStats::of(index, term),
            index.doc_length(doc),
            weighted_tf,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use crate::index::{IndexBuilder, PostingsBuf};

    /// Smoothed inverse document frequency of a term in `ix`.
    fn idf(ix: &Index, term: &str) -> f64 {
        ScoringFunction::idf_from(ix.num_docs(), ix.doc_freq(term))
    }

    fn index_with(texts: &[&str]) -> Index {
        let mut b = IndexBuilder::new();
        for (i, t) in texts.iter().enumerate() {
            b.add(Document::new(format!("d{i}")).field("body", *t));
        }
        b.build()
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let ix = index_with(&["star wars", "star trek", "ocean"]);
        let idf_star = idf(&ix, "star");
        let idf_ocean = idf(&ix, "ocean");
        assert!(idf_ocean > idf_star);
    }

    #[test]
    fn idf_nonnegative_even_for_ubiquitous_terms() {
        let ix = index_with(&["movie", "movie", "movie"]);
        assert!(idf(&ix, "movie") >= 0.0);
    }

    #[test]
    fn unknown_term_has_max_idf() {
        let ix = index_with(&["a b", "c d"]);
        let unknown = idf(&ix, "zzz");
        let known = idf(&ix, "b");
        assert!(unknown > known);
    }

    #[test]
    fn bm25_tf_saturates() {
        let ix = index_with(&["war", "war war war war", "peace"]);
        let f = ScoringFunction::default();
        let s1 = f.score_term(&ix, "war", 0, 1.0);
        let s4 = f.score_term(&ix, "war", 1, 4.0);
        assert!(s4 > s1);
        // but saturation: 4 occurrences score less than 4x one occurrence
        assert!(s4 < 4.0 * s1);
    }

    #[test]
    fn bm25_penalizes_long_documents() {
        let ix = index_with(&["war short", "war with many many many extra words here"]);
        let f = ScoringFunction::default();
        let short = f.score_term(&ix, "war", 0, 1.0);
        let long = f.score_term(&ix, "war", 1, 1.0);
        assert!(short > long);
    }

    #[test]
    fn b_zero_disables_length_normalization() {
        let ix = index_with(&["war short", "war many many many more words again"]);
        let f = ScoringFunction::Bm25 { k1: 1.2, b: 0.0 };
        let short = f.score_term(&ix, "war", 0, 1.0);
        let long = f.score_term(&ix, "war", 1, 1.0);
        assert!((short - long).abs() < 1e-12);
    }

    #[test]
    fn score_term_stats_matches_index_backed_path_exactly() {
        let ix = index_with(&["star wars cast", "star trek", "ocean drama"]);
        for f in [ScoringFunction::default(), ScoringFunction::TfIdf] {
            for term in ["star", "ocean", "drama"] {
                for p in ix.postings_with(term, &mut PostingsBuf::new()) {
                    let via_index = f.score_term(&ix, term, p.doc, p.weighted_tf);
                    let via_stats = f.score_term_stats(
                        TermStats::of(&ix, term),
                        ix.doc_length(p.doc),
                        p.weighted_tf,
                    );
                    // bit-identical, not just approximately equal
                    assert_eq!(via_index.to_bits(), via_stats.to_bits());
                }
            }
        }
    }

    #[test]
    fn hoisted_scorer_matches_one_shot_path_exactly() {
        // A scorer built once per term must reproduce score_term_stats to
        // the bit for every posting it is later applied to — this is the
        // contract that lets the kernel hoist the IDF out of the loop.
        let ix = index_with(&[
            "star wars cast",
            "star trek",
            "ocean drama",
            "star star star",
        ]);
        for f in [
            ScoringFunction::default(),
            ScoringFunction::Bm25 { k1: 0.4, b: 0.1 },
            ScoringFunction::TfIdf,
        ] {
            for term in ["star", "ocean", "drama", "zzz"] {
                let stats = TermStats::of(&ix, term);
                let scorer = f.scorer(stats);
                assert_eq!(scorer.idf.to_bits(), idf(&ix, term).to_bits());
                for doc in 0..ix.num_docs() as DocId {
                    for tf in [1.0, 2.0, 7.5] {
                        let hoisted = scorer.score(ix.doc_length(doc), tf);
                        let one_shot = f.score_term_stats(stats, ix.doc_length(doc), tf);
                        assert_eq!(hoisted.to_bits(), one_shot.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn max_score_bounds_every_posting() {
        let ix = index_with(&[
            "star wars cast",
            "star trek",
            "ocean drama",
            "star star star star star",
            "war war war war",
            "a lot of padding words to stretch document lengths out further",
        ]);
        for f in [
            ScoringFunction::default(),
            ScoringFunction::Bm25 { k1: 0.4, b: 0.1 },
            ScoringFunction::Bm25 { k1: 2.0, b: 1.0 },
            ScoringFunction::Bm25 { k1: 1.2, b: 0.0 },
            ScoringFunction::TfIdf,
        ] {
            for term in ix.terms().map(str::to_owned).collect::<Vec<_>>() {
                let scorer = f.scorer(TermStats::of(&ix, &term));
                let mut buf = PostingsBuf::new();
                let postings = ix.postings_with(&term, &mut buf);
                let mwtf = postings.weighted_tfs.iter().fold(0.0f64, |a, &b| a.max(b));
                let bound = scorer.max_score(mwtf);
                assert!(bound.is_finite());
                for p in postings {
                    let s = scorer.score(ix.doc_length(p.doc), p.weighted_tf);
                    assert!(s <= bound, "{f:?} {term}: score {s} exceeds bound {bound}");
                }
            }
        }
    }

    #[test]
    fn bounds_are_infinite_outside_the_range_they_assume() {
        let ix = index_with(&["star wars", "star trek ocean", "star"]);
        for f in [
            ScoringFunction::Bm25 { k1: 1.2, b: 1.5 },
            ScoringFunction::Bm25 { k1: 1.2, b: -0.5 },
            ScoringFunction::Bm25 { k1: -0.5, b: 0.75 },
            ScoringFunction::Bm25 {
                k1: f64::NAN,
                b: 0.75,
            },
            ScoringFunction::Bm25 {
                k1: f64::INFINITY,
                b: 0.75,
            },
            ScoringFunction::Bm25 {
                k1: 1.2,
                b: f64::NAN,
            },
        ] {
            let why = f.check().unwrap_err();
            assert!(why.contains("k1") || why.contains(" b "), "{why}");
            let scorer = f.scorer(TermStats::of(&ix, "star"));
            assert_eq!(scorer.max_score(1.0), f64::INFINITY, "{f:?}");
            assert_eq!(scorer.block_bound(1.0, 2.0), f64::INFINITY, "{f:?}");
        }
        for f in [
            ScoringFunction::default(),
            ScoringFunction::Bm25 { k1: 0.0, b: 0.0 },
            ScoringFunction::Bm25 { k1: 3.0, b: 1.0 },
            ScoringFunction::TfIdf,
        ] {
            assert_eq!(f.check(), Ok(()), "{f:?}");
            let scorer = f.scorer(TermStats::of(&ix, "star"));
            assert!(scorer.block_bound(1.0, 2.0) <= scorer.max_score(1.0));
        }
    }

    #[test]
    fn max_score_of_empty_term_is_zero() {
        let ix = index_with(&["star wars"]);
        for f in [ScoringFunction::default(), ScoringFunction::TfIdf] {
            let scorer = f.scorer(TermStats::of(&ix, "zzz"));
            assert_eq!(scorer.max_score(0.0), 0.0);
            assert_eq!(scorer.max_score(-1.0), 0.0);
        }
    }

    #[test]
    fn tfidf_scores_positive_and_length_normalized() {
        let ix = index_with(&["war", "war plus padding words everywhere around"]);
        let f = ScoringFunction::TfIdf;
        let short = f.score_term(&ix, "war", 0, 1.0);
        let long = f.score_term(&ix, "war", 1, 1.0);
        assert!(short > long);
        assert!(long > 0.0);
    }
}
