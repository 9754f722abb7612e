//! Relevance feedback — the extension the paper's architecture is built to
//! admit (§3: the ranking side is plain IR, so it is "easier to extend and
//! enhance with additional IR methods for ranking, such as relevance
//! feedback").
//!
//! The model is deliberately simple and classical: every recorded click is
//! evidence that a *definition* answers queries shaped like this one. The
//! store keeps per-`(template signature, definition)` counts and yields a
//! multiplicative boost that the engine folds into its type score. Counts
//! use additive smoothing so early clicks move rankings without letting a
//! single click dominate.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Clicks recorded under one template signature.
#[derive(Debug, Default)]
struct SignatureClicks {
    /// Sum of `by_definition`.
    total: u64,
    /// `definition → clicks`.
    by_definition: HashMap<String, u64>,
}

impl SignatureClicks {
    /// The smoothed share of this signature's clicks that landed on
    /// `definition` (see [`FeedbackStore::boost`]).
    fn boost(&self, definition: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let clicks = self.by_definition.get(definition).copied().unwrap_or(0);
        // additive smoothing: one pseudo-count spread over the signature
        clicks as f64 / (self.total as f64 + 1.0)
    }
}

/// The value under `key`, defaulted on first use. Probes by `&str`, so only a
/// key's first use allocates it.
fn slot<'a, V: Default>(map: &'a mut HashMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

/// Accumulated click feedback. Thread-safe; shared by reference with the
/// engine (reads during search, writes on click).
#[derive(Debug, Default)]
pub struct FeedbackStore {
    /// `template signature → clicks`. One lock over both levels: a reader
    /// sees a click and the total it belongs to together or not at all.
    signatures: RwLock<HashMap<String, SignatureClicks>>,
    /// Bumped on every write; consumers that memoize anything derived from
    /// feedback (the engine's query cache) stamp their entries with this and
    /// treat a mismatch as stale.
    generation: AtomicU64,
}

impl FeedbackStore {
    /// Empty store.
    pub fn new() -> Self {
        FeedbackStore::default()
    }

    /// Record that a user clicked an instance of `definition` after issuing
    /// a query with `signature`.
    pub fn record(&self, signature: &str, definition: &str) {
        {
            let mut signatures = self.signatures.write();
            let clicks = slot(&mut signatures, signature);
            clicks.total += 1;
            *slot(&mut clicks.by_definition, definition) += 1;
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Monotonic write counter: changes iff any click was recorded since the
    /// value was last observed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// `(clicks on definition, total clicks)` of a signature, read together.
    fn counts(&self, signature: &str, definition: &str) -> (u64, u64) {
        self.signatures.read().get(signature).map_or((0, 0), |s| {
            let clicks = s.by_definition.get(definition).copied().unwrap_or(0);
            (clicks, s.total)
        })
    }

    /// Number of clicks recorded for `(signature, definition)`.
    pub fn clicks(&self, signature: &str, definition: &str) -> u64 {
        self.counts(signature, definition).0
    }

    /// Total clicks for a signature.
    pub fn total(&self, signature: &str) -> u64 {
        self.signatures.read().get(signature).map_or(0, |s| s.total)
    }

    /// Click-through boost in `[0, 1]`: the smoothed share of this
    /// signature's clicks that landed on `definition`. With no evidence the
    /// boost is 0 — feedback only ever *adds* signal.
    pub fn boost(&self, signature: &str, definition: &str) -> f64 {
        let signatures = self.signatures.read();
        signatures
            .get(signature)
            .map_or(0.0, |s| s.boost(definition))
    }

    /// [`FeedbackStore::boost`] of each of `definitions` under `signature`,
    /// in order, into `out` (cleared first). One lock and one signature
    /// probe for the lot: what a query reads of the store, it reads from one
    /// state of it.
    pub(crate) fn boosts_into<'a>(
        &self,
        signature: &str,
        definitions: impl IntoIterator<Item = &'a str>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let signatures = self.signatures.read();
        let clicks = signatures.get(signature);
        out.extend(
            definitions
                .into_iter()
                .map(|d| clicks.map_or(0.0, |s| s.boost(d))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_boosts_nothing() {
        let s = FeedbackStore::new();
        assert_eq!(s.boost("[movie.title] cast", "movie_cast"), 0.0);
        assert_eq!(s.total("[movie.title] cast"), 0);
        assert!(s.signatures.read().is_empty());
    }

    #[test]
    fn generation_advances_on_every_record() {
        let s = FeedbackStore::new();
        let g0 = s.generation();
        s.record("[movie.title]", "movie_page");
        let g1 = s.generation();
        assert!(g1 > g0);
        s.record("[movie.title]", "movie_page");
        assert!(s.generation() > g1);
    }

    #[test]
    fn clicks_accumulate_per_signature_and_definition() {
        let s = FeedbackStore::new();
        s.record("[movie.title]", "movie_page");
        s.record("[movie.title]", "movie_page");
        s.record("[movie.title]", "movie_cast");
        assert_eq!(s.clicks("[movie.title]", "movie_page"), 2);
        assert_eq!(s.clicks("[movie.title]", "movie_cast"), 1);
        assert_eq!(s.total("[movie.title]"), 3);
        assert_eq!(s.signatures.read().len(), 1);
    }

    #[test]
    fn boost_is_smoothed_share() {
        let s = FeedbackStore::new();
        for _ in 0..3 {
            s.record("[person.name]", "person_page");
        }
        s.record("[person.name]", "person_awards");
        // person_page: 3/(4+1) = 0.6; person_awards: 1/5 = 0.2
        assert!((s.boost("[person.name]", "person_page") - 0.6).abs() < 1e-12);
        assert!((s.boost("[person.name]", "person_awards") - 0.2).abs() < 1e-12);
        // unrelated signature untouched
        assert_eq!(s.boost("[movie.title]", "person_page"), 0.0);
    }

    #[test]
    fn the_vector_of_boosts_is_the_boost_of_each() {
        let s = FeedbackStore::new();
        let definitions = ["person_page", "never_clicked", "person_awards"];
        let mut out = vec![9.0; 5];
        s.boosts_into("[person.name]", definitions, &mut out);
        assert_eq!(out, [0.0; 3], "no evidence, and the stale content is gone");
        for _ in 0..3 {
            s.record("[person.name]", "person_page");
        }
        s.record("[person.name]", "person_awards");
        s.record("[movie.title]", "never_clicked");
        for signature in ["[person.name]", "[movie.title]", "[unseen]"] {
            s.boosts_into(signature, definitions, &mut out);
            let each: Vec<f64> = definitions.iter().map(|d| s.boost(signature, d)).collect();
            assert_eq!(out, each, "{signature}");
        }
    }

    #[test]
    fn boost_bounded_below_one() {
        let s = FeedbackStore::new();
        for _ in 0..1000 {
            s.record("q", "d");
        }
        let b = s.boost("q", "d");
        assert!(b > 0.99 && b < 1.0);
    }

    #[test]
    fn a_racing_reader_never_sees_a_click_without_its_total() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let s = FeedbackStore::new();
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..20_000 {
                    s.record("sig", "def");
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            while !done.load(Ordering::Acquire) {
                let (clicks, total) = s.counts("sig", "def");
                assert!(clicks <= total, "{clicks} clicks of {total}");
                // one definition takes every click: n / (n + 1)
                assert!(s.boost("sig", "def") < 1.0);
            }
        });
        assert_eq!(s.counts("sig", "def"), (20_000, 20_000));
    }

    #[test]
    fn concurrent_records_are_safe() {
        use std::sync::Arc;
        let s = Arc::new(FeedbackStore::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.record("sig", "def");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.total("sig"), 400);
    }
}
