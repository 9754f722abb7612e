//! The simulated relevance-judgment panel (substitution for the paper's 20
//! Mechanical Turk raters, §5.3).
//!
//! The deterministic core measures two things against the query's *gold*
//! information need:
//!
//! * **entity fidelity** — the answer text must actually mention the
//!   entities the query named (an answer about a different movie is simply
//!   incorrect);
//! * **attribute coverage and precision** — the need's
//!   [`InformationNeed::required_fields`] against the fields the answer
//!   demarcates: missing fields ⇒ incomplete, drowning them in unrelated
//!   fields ⇒ excessive.
//!
//! The continuous quality score is bucketed into the Table-2 [`Rating`];
//! each of the `n_judges` seeded judges perturbs quality before bucketing,
//! so we can report inter-judge agreement the way §5.3 does ("a third of
//! the questions had an 80% or higher majority").

use crate::rubric::Rating;
use crate::systems::SystemAnswer;
use datagen::imdb::EntityRef;
use datagen::needs::InformationNeed;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Gold labels for one workload query.
#[derive(Debug, Clone)]
pub struct GoldStandard {
    /// The information need that generated the query.
    pub need: InformationNeed,
    /// The entities the query names.
    pub entities: Vec<EntityRef>,
}

/// Ratings from the whole panel for one (query, answer) pair.
#[derive(Debug, Clone)]
pub struct PanelRating {
    /// Per-judge ratings.
    pub ratings: Vec<Rating>,
    /// Mean score (the Figure-3 quantity).
    pub mean: f64,
    /// Fraction of judges agreeing with the modal rating.
    pub majority: f64,
}

/// The judge panel.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Panel size (paper: 20).
    pub n_judges: usize,
    /// Judge noise amplitude on the quality scale (0 = deterministic).
    pub noise: f64,
    /// Base seed; judgments are deterministic per (seed, query, system).
    pub seed: u64,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            n_judges: 20,
            noise: 0.12,
            seed: 2009,
        }
    }
}

impl Oracle {
    /// Deterministic continuous quality of an answer in `[0, 1]`.
    pub fn quality(gold: &GoldStandard, answer: Option<&SystemAnswer>) -> f64 {
        let answer = match answer {
            Some(a) if !a.covered_fields.is_empty() || !a.text.is_empty() => a,
            _ => return 0.0,
        };
        let text = answer.text.to_lowercase();

        // Entity fidelity: every gold entity must be mentioned.
        let mut entity_factor = 1.0;
        for e in &gold.entities {
            if !text.contains(&e.text.to_lowercase()) {
                entity_factor *= 0.15;
            }
        }

        let required = gold.need.required_fields();
        let covered: Vec<&String> = answer
            .covered_fields
            .iter()
            .filter(|f| required.contains(&f.as_str()))
            .collect();
        let coverage = covered.len() as f64 / required.len() as f64;
        let precision = if answer.covered_fields.is_empty() {
            0.0
        } else {
            covered.len() as f64 / answer.covered_fields.len() as f64
        };
        // Coverage dominates; precision tempers excessive demarcation.
        let q = (0.65 * coverage + 0.35 * precision) * entity_factor;
        q.clamp(0.0, 1.0)
    }

    /// Bucket a quality value into the Table-2 rubric. The two 0.5 options
    /// are distinguished by *why* quality is mid: low precision ⇒ excessive,
    /// low coverage ⇒ incomplete.
    pub fn bucket(q: f64, coverage_low: bool) -> Rating {
        if q >= 0.85 {
            Rating::Correct
        } else if q >= 0.35 {
            if coverage_low {
                Rating::Incomplete
            } else {
                Rating::Excessive
            }
        } else if q > 0.05 {
            Rating::Incorrect
        } else {
            Rating::NoInfo
        }
    }

    /// Rate one answer with the full panel.
    pub fn rate(
        &self,
        query: &str,
        system: &str,
        gold: &GoldStandard,
        answer: Option<&SystemAnswer>,
    ) -> PanelRating {
        let q = Self::quality(gold, answer);
        let coverage_low = match answer {
            Some(a) => {
                let required = gold.need.required_fields();
                let covered = a
                    .covered_fields
                    .iter()
                    .filter(|f| required.contains(&f.as_str()))
                    .count();
                covered < required.len()
            }
            None => true,
        };

        let mut ratings = Vec::with_capacity(self.n_judges);
        for j in 0..self.n_judges {
            let mut h = DefaultHasher::new();
            (self.seed, query, system, j as u64).hash(&mut h);
            // uniform in [-noise, +noise] from the hash
            let u = (h.finish() % 10_000) as f64 / 10_000.0;
            let perturbed = q + (u * 2.0 - 1.0) * self.noise;
            ratings.push(Self::bucket(perturbed.clamp(0.0, 1.0), coverage_low));
        }
        let mean = ratings.iter().map(Rating::score).sum::<f64>() / ratings.len().max(1) as f64;

        // modal agreement
        let mut counts = std::collections::HashMap::new();
        for r in &ratings {
            *counts.entry(*r).or_insert(0usize) += 1;
        }
        let majority =
            counts.values().copied().max().unwrap_or(0) as f64 / ratings.len().max(1) as f64;
        PanelRating {
            ratings,
            mean,
            majority,
        }
    }

    /// The panel's score for a *perfect* answer — the "theoretical maximum
    /// performance" data point of Figure 3 (slightly below 1.0 once judge
    /// noise exists, exactly as with human raters).
    pub fn theoretical_max(&self, query: &str) -> f64 {
        let gold = GoldStandard {
            need: InformationNeed::MovieSummary,
            entities: vec![],
        };
        let perfect = SystemAnswer {
            text: "perfect".into(),
            covered_fields: InformationNeed::MovieSummary
                .required_fields()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        self.rate(query, "theoretical-max", &gold, Some(&perfect))
            .mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold(need: InformationNeed, entity_texts: &[&str]) -> GoldStandard {
        GoldStandard {
            need,
            entities: entity_texts
                .iter()
                .map(|t| EntityRef {
                    table: "movie".into(),
                    column: "title".into(),
                    id: 1,
                    text: t.to_string(),
                })
                .collect(),
        }
    }

    fn answer(text: &str, fields: &[&str]) -> SystemAnswer {
        SystemAnswer {
            text: text.into(),
            covered_fields: fields.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn perfect_answer_scores_one() {
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let a = answer(
            "star wars harrison ford actor",
            &["movie.title", "person.name", "cast.role"],
        );
        assert!((Oracle::quality(&g, Some(&a)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_answer_scores_zero() {
        let g = gold(InformationNeed::Cast, &["star wars"]);
        assert_eq!(Oracle::quality(&g, None), 0.0);
    }

    #[test]
    fn wrong_entity_tanks_quality() {
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let a = answer(
            "solaris george clooney actor",
            &["movie.title", "person.name", "cast.role"],
        );
        assert!(Oracle::quality(&g, Some(&a)) < 0.2);
    }

    #[test]
    fn incomplete_coverage_scores_mid() {
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let a = answer("star wars", &["movie.title"]);
        let q = Oracle::quality(&g, Some(&a));
        assert!((0.3..0.7).contains(&q), "{q}");
    }

    #[test]
    fn excessive_fields_reduce_precision() {
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let exact = answer(
            "star wars harrison ford actor",
            &["movie.title", "person.name", "cast.role"],
        );
        let bloated = answer(
            "star wars harrison ford actor 1977 8.5 london plot plot",
            &[
                "movie.title",
                "person.name",
                "cast.role",
                "movie.id",
                "movie.releasedate",
                "movie.rating",
                "locations.place",
                "info.text",
                "movie.genre_id",
            ],
        );
        assert!(Oracle::quality(&g, Some(&exact)) > Oracle::quality(&g, Some(&bloated)));
    }

    #[test]
    fn buckets_follow_rubric() {
        assert_eq!(Oracle::bucket(0.95, false), Rating::Correct);
        assert_eq!(Oracle::bucket(0.5, true), Rating::Incomplete);
        assert_eq!(Oracle::bucket(0.5, false), Rating::Excessive);
        assert_eq!(Oracle::bucket(0.2, true), Rating::Incorrect);
        assert_eq!(Oracle::bucket(0.0, true), Rating::NoInfo);
    }

    #[test]
    fn panel_is_deterministic_and_bounded() {
        let o = Oracle::default();
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let a = answer("star wars harrison ford", &["movie.title", "person.name"]);
        let r1 = o.rate("star wars cast", "sysA", &g, Some(&a));
        let r2 = o.rate("star wars cast", "sysA", &g, Some(&a));
        assert_eq!(r1.ratings, r2.ratings);
        assert!((0.0..=1.0).contains(&r1.mean));
        assert!(r1.majority > 0.0 && r1.majority <= 1.0);
        assert_eq!(r1.ratings.len(), 20);
    }

    #[test]
    fn different_systems_get_independent_noise() {
        let o = Oracle::default();
        let g = gold(InformationNeed::Cast, &["star wars"]);
        let a = answer("star wars harrison ford", &["movie.title", "person.name"]);
        let ra = o.rate("q", "sysA", &g, Some(&a));
        let rb = o.rate("q", "sysB", &g, Some(&a));
        // same ideal quality, independent draws (almost surely different)
        assert_eq!(ra.ratings.len(), rb.ratings.len());
    }

    #[test]
    fn theoretical_max_is_near_one() {
        let o = Oracle::default();
        let m = o.theoretical_max("any query");
        assert!(m > 0.9, "{m}");
        assert!(m <= 1.0);
        // and zero-noise panel gives exactly 1.0
        let o0 = Oracle {
            noise: 0.0,
            ..Oracle::default()
        };
        assert!((o0.theoretical_max("q") - 1.0).abs() < 1e-12);
    }
}
