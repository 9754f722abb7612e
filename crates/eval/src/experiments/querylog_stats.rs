//! §5.2 — measured statistics of the movie query-log benchmark.
//!
//! Everything here is *measured* by the same pipeline the paper describes
//! (largest-overlap entity typing via the segmenter), not read off the
//! generator's gold labels — so the numbers validate the whole typing
//! stack, and the generator merely has to produce a log with the right
//! underlying mixture.
//!
//! One scale caveat: the paper reports fractions over *distinct* queries
//! of a 20M-query real log, whose entity vocabulary dwarfs any synthetic
//! database's. At synthetic scale,
//! deduplication distorts the mixture (a thousand repetitions of "star
//! wars" collapse to one string while title×freetext combinations don't),
//! so the shape fractions here are frequency-weighted — i.e. measured over
//! query instances. Unique-level counts are still reported.

use datagen::querylog::QueryLog;
use qunit_core::segment::{QueryShape, Segmenter};

/// Measured log statistics.
#[derive(Debug, Clone)]
pub struct QueryLogStats {
    /// Total records (with repetition).
    pub total_queries: usize,
    /// Distinct query strings.
    pub unique_queries: usize,
    /// Frequency-weighted fraction of queries with ≥1 recognized
    /// movie-domain term (entity or attribute), the paper's "93%
    /// movie-related".
    pub movie_related_fraction: f64,
    /// Frequency-weighted fraction of single-entity queries (paper: ≥36%).
    pub single_entity_fraction: f64,
    /// Fraction that are entity + attribute (paper: ~20%).
    pub entity_attribute_fraction: f64,
    /// Fraction naming ≥2 entities (paper: ~2%).
    pub multi_entity_fraction: f64,
    /// Fraction with aggregate/complex structure (paper: <2%).
    pub complex_fraction: f64,
    /// Top templates by log frequency.
    pub top_templates: Vec<(String, usize)>,
}

/// Words signalling aggregate intent (the paper's example: "highest box
/// office revenue").
const SUPERLATIVES: &[&str] = &["highest", "best", "most", "longest", "top", "greatest"];

/// Measure a log.
pub fn measure(log: &QueryLog, segmenter: &Segmenter, n_templates: usize) -> QueryLogStats {
    let unique = log.unique_queries();
    let total = log.records.len().max(1);

    let mut movie_related = 0usize;
    let mut single = 0usize;
    let mut entity_attr = 0usize;
    let mut multi = 0usize;
    let mut complex = 0usize;
    let mut template_freq: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();

    for (raw, freq) in &unique {
        let seg = segmenter.segment(raw);
        let shape = seg.shape();
        let has_domain_term = !seg.entities().is_empty() || !seg.attribute_terms().is_empty();
        if has_domain_term {
            movie_related += freq;
        }
        match shape {
            QueryShape::SingleEntity => single += freq,
            QueryShape::EntityAttribute => entity_attr += freq,
            QueryShape::MultiEntity => multi += freq,
            _ => {}
        }
        let is_complex = matches!(shape, QueryShape::NoEntity)
            && relstore::index::tokenize(raw)
                .iter()
                .any(|t| SUPERLATIVES.contains(&t.as_str()));
        if is_complex {
            complex += freq;
        }
        let sig = seg.template_signature();
        if !sig.is_empty() {
            *template_freq.entry(sig).or_insert(0) += freq;
        }
    }

    let mut top: Vec<(String, usize)> = template_freq.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(n_templates);

    QueryLogStats {
        total_queries: log.records.len(),
        unique_queries: unique.len(),
        movie_related_fraction: movie_related as f64 / total as f64,
        single_entity_fraction: single as f64 / total as f64,
        entity_attribute_fraction: entity_attr as f64 / total as f64,
        multi_entity_fraction: multi as f64 / total as f64,
        complex_fraction: complex as f64 / total as f64,
        top_templates: top,
    }
}

impl QueryLogStats {
    /// Render the §5.2 narrative numbers as a table.
    pub fn render(&self) -> String {
        let rows = vec![
            vec!["total queries".to_string(), self.total_queries.to_string()],
            vec![
                "unique queries".to_string(),
                self.unique_queries.to_string(),
            ],
            vec![
                "movie-related (unique)".to_string(),
                format!("{:.1}%", self.movie_related_fraction * 100.0),
            ],
            vec![
                "single-entity".to_string(),
                format!("{:.1}%", self.single_entity_fraction * 100.0),
            ],
            vec![
                "entity-attribute".to_string(),
                format!("{:.1}%", self.entity_attribute_fraction * 100.0),
            ],
            vec![
                "multi-entity".to_string(),
                format!("{:.1}%", self.multi_entity_fraction * 100.0),
            ],
            vec![
                "complex/aggregate".to_string(),
                format!("{:.1}%", self.complex_fraction * 100.0),
            ],
        ];
        crate::report::table(&["statistic", "measured"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::imdb::{ImdbConfig, ImdbData};
    use datagen::querylog::QueryLogConfig;
    use qunit_core::EntityDictionary;

    fn measured() -> QueryLogStats {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let log = QueryLog::generate(
            &data,
            QueryLogConfig {
                n_queries: 8000,
                ..QueryLogConfig::tiny()
            },
        );
        let seg = Segmenter::new(EntityDictionary::from_database(
            &data.db,
            EntityDictionary::imdb_specs(),
        ));
        measure(&log, &seg, 14)
    }

    #[test]
    fn shape_fractions_in_paper_bands() {
        let s = measured();
        assert!(
            (0.28..0.50).contains(&s.single_entity_fraction),
            "single-entity {:.3}",
            s.single_entity_fraction
        );
        assert!(
            (0.12..0.30).contains(&s.entity_attribute_fraction),
            "entity-attribute {:.3}",
            s.entity_attribute_fraction
        );
        assert!(
            s.multi_entity_fraction < 0.08,
            "multi-entity {:.3}",
            s.multi_entity_fraction
        );
        assert!(
            s.complex_fraction < 0.02,
            "complex {:.3}",
            s.complex_fraction
        );
    }

    #[test]
    fn movie_related_dominates() {
        let s = measured();
        assert!(
            s.movie_related_fraction > 0.80,
            "movie-related {:.3}",
            s.movie_related_fraction
        );
    }

    #[test]
    fn top_templates_nonempty_and_sorted() {
        let s = measured();
        assert!(!s.top_templates.is_empty());
        assert!(s.top_templates.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(s.top_templates.len() <= 14);
    }

    #[test]
    fn render_mentions_all_statistics() {
        let s = measured();
        let r = s.render();
        assert!(r.contains("single-entity"));
        assert!(r.contains("complex/aggregate"));
        assert!(r.contains('%'));
    }
}
