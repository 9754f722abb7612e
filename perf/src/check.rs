//! Output checks: answer fingerprints and their comparison with a reference.

use crate::load::{Kind, Sample};
use irengine::Hit;
use qunit_core::QunitResult;
use std::collections::{BTreeSet, HashMap};

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Result keys and score bits, in rank order.
pub fn of_results(results: &[QunitResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.bytes(r.key.as_bytes());
        h.bytes(&r.score.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Doc ids and score bits, in rank order.
pub fn of_hits(hits: &[Hit]) -> u64 {
    let mut h = Fnv::new();
    for hit in hits {
        h.bytes(&hit.doc.to_le_bytes());
        h.bytes(&hit.score.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Up to `n` of the distinct queries the samples ran, spread evenly over
/// the query table so the check is not biased to one client's slice.
pub fn pick_queries(samples: &[Sample], n: usize) -> Vec<u32> {
    let distinct: BTreeSet<u32> = samples
        .iter()
        .filter(|s| s.kind == Kind::Query)
        .map(|s| s.query)
        .collect();
    let step = distinct.len().div_ceil(n.max(1)).max(1);
    distinct.into_iter().step_by(step).collect()
}

/// Query samples whose fingerprint differs from the reference answer for
/// the same query. Samples of queries without a reference are not judged.
pub fn mismatches(samples: &[Sample], reference: &HashMap<u32, u64>) -> u64 {
    samples
        .iter()
        .filter(|s| s.kind == Kind::Query)
        .filter(|s| {
            reference
                .get(&s.query)
                .is_some_and(|&want| want != s.fingerprint)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(query: u32, fingerprint: u64) -> Sample {
        Sample {
            query,
            latency_ns: 1,
            done_ns: 0,
            fingerprint,
            ok: true,
            kind: Kind::Query,
        }
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hit_fingerprint_sees_order_and_score_bits() {
        let hit = |doc, score| Hit {
            doc,
            score,
            matched_terms: 1,
        };
        let a = of_hits(&[hit(1, 2.0), hit(2, 1.0)]);
        assert_ne!(a, of_hits(&[hit(2, 1.0), hit(1, 2.0)]));
        assert_ne!(a, of_hits(&[hit(1, 2.0 + f64::EPSILON * 2.0), hit(2, 1.0)]));
        assert_eq!(a, of_hits(&[hit(1, 2.0), hit(2, 1.0)]));
    }

    #[test]
    fn picks_spread_queries_and_judges_only_referenced_ones() {
        let samples: Vec<Sample> = (0..100)
            .map(|q| sample(q % 50, u64::from(q % 50)))
            .collect();
        let picked = pick_queries(&samples, 10);
        assert_eq!(picked, vec![0, 5, 10, 15, 20, 25, 30, 35, 40, 45]);
        let mut reference: HashMap<u32, u64> = picked.iter().map(|&q| (q, u64::from(q))).collect();
        assert_eq!(mismatches(&samples, &reference), 0);
        reference.insert(5, 999);
        assert_eq!(mismatches(&samples, &reference), 2); // query 5 ran twice
    }
}
