//! §4.2 — derivation from query logs via *rollup*.
//!
//! "Keyword queries are inherently underspecified, and hence the qunit
//! definition for an under-specified query is an aggregation of the qunit
//! definitions of its specializations."
//!
//! The pipeline mirrors the paper: sample entities from the database, find
//! them in the log, map each recognized query onto the schema (entity type →
//! schema element via attribute terms or co-occurring entities), and count
//! the resulting *annotated schema links*. For each anchor type, the rollup
//! qunit joins the link targets whose support clears `min_support`, ordered
//! by frequency; popular (anchor, target) pairs additionally get dedicated
//! attribute qunits ("\[title\] cast" → a cast qunit).

use crate::catalog::QunitCatalog;
use crate::derive::common::{
    base_expression, display_columns, label_column_with_stats, through_link_table,
};
use crate::presentation::ConversionExpr;
use crate::qunit::{AnchorSpec, DerivationSource, QunitDefinition};
use crate::segment::{Segment, Segmenter};
use relstore::{Database, DatabaseStats, Result, View};
use std::collections::HashMap;

/// Derivation parameters.
#[derive(Debug, Clone)]
pub struct QueryLogDeriveConfig {
    /// Minimum link count for a target to enter a rollup qunit.
    pub min_support: usize,
    /// Maximum targets joined into one rollup qunit.
    pub max_targets: usize,
    /// Minimum count for a dedicated (anchor, target) attribute qunit,
    /// as a fraction of the anchor's total link count.
    pub attribute_share: f64,
}

impl Default for QueryLogDeriveConfig {
    fn default() -> Self {
        QueryLogDeriveConfig {
            min_support: 3,
            max_targets: 4,
            attribute_share: 0.05,
        }
    }
}

/// The annotated schema-link counts mined from a log (exposed for tests).
#[derive(Debug, Clone, Default)]
pub struct SchemaLinks {
    /// `(anchor entity type, target schema element) → count`.
    /// Anchor is `table.column`; target is a table name or `table.column`.
    pub links: HashMap<(String, String), usize>,
    /// Per-anchor totals.
    pub anchor_totals: HashMap<String, usize>,
    /// Attribute words observed per (anchor, target) — become intent terms.
    pub terms: HashMap<(String, String), Vec<String>>,
}

/// Mine schema links from raw query strings. Only the query text is used —
/// no gold labels — exactly as a real deployment would.
pub fn mine_links(segmenter: &Segmenter, queries: &[String]) -> SchemaLinks {
    let mut out = SchemaLinks::default();
    for q in queries {
        let seg = segmenter.segment(q);
        let entities: Vec<(String, String)> = seg
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Entity { table, column, .. } => {
                    Some((format!("{table}.{column}"), String::new()))
                }
                _ => None,
            })
            .map(|(t, _)| (t, String::new()))
            .collect();
        if entities.is_empty() {
            continue;
        }
        let attributes: Vec<(String, String)> = seg
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Attribute { term, target } => Some((term.clone(), target.clone())),
                _ => None,
            })
            .collect();

        for (anchor, _) in &entities {
            *out.anchor_totals.entry(anchor.clone()).or_insert(0) += 1;
            // entity → attribute-term links
            for (term, target) in &attributes {
                let key = (anchor.clone(), target.clone());
                *out.links.entry(key.clone()).or_insert(0) += 1;
                let terms = out.terms.entry(key).or_default();
                if !terms.contains(term) {
                    terms.push(term.clone());
                }
            }
            // entity → co-occurring entity-type links
            for (other, _) in &entities {
                if other != anchor {
                    let target_table = other.split('.').next().unwrap_or(other).to_string();
                    *out.links.entry((anchor.clone(), target_table)).or_insert(0) += 1;
                }
            }
        }
    }
    out
}

/// Derive a catalog from raw log queries.
pub fn derive(
    db: &Database,
    segmenter: &Segmenter,
    queries: &[String],
    config: &QueryLogDeriveConfig,
) -> Result<QunitCatalog> {
    let links = mine_links(segmenter, queries);
    derive_from_links(db, &links, config)
}

/// Derive from pre-mined links (lets a sweep vary configs cheaply).
pub fn derive_from_links(
    db: &Database,
    links: &SchemaLinks,
    config: &QueryLogDeriveConfig,
) -> Result<QunitCatalog> {
    let stats = DatabaseStats::collect(db);
    let mut cat = QunitCatalog::new();
    let max_total = links
        .anchor_totals
        .values()
        .copied()
        .max()
        .unwrap_or(1)
        .max(1) as f64;

    let mut anchors: Vec<(&String, &usize)> = links.anchor_totals.iter().collect();
    anchors.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));

    for (anchor, &total) in anchors {
        let (atable, acolumn) = match anchor.split_once('.') {
            Some((t, c)) => (t.to_string(), c.to_string()),
            None => continue,
        };
        if db.catalog().table_by_name(&atable).is_none() {
            continue;
        }

        // Rank this anchor's targets by count.
        let mut targets: Vec<(&(String, String), &usize)> = links
            .links
            .iter()
            .filter(|((a, _), _)| a == anchor)
            .collect();
        targets.sort_by(|a, b| b.1.cmp(a.1).then(a.0 .1.cmp(&b.0 .1)));

        // Dedicated attribute qunits for dominant pairs.
        for (key, &count) in &targets {
            let share = count as f64 / total.max(1) as f64;
            if count >= config.min_support && share >= config.attribute_share {
                if let Some(def) = attribute_qunit(
                    db,
                    &stats,
                    &atable,
                    &acolumn,
                    &key.1,
                    count as f64 / max_total, // utility on the same scale as rollups
                    &links.terms,
                    key,
                )? {
                    cat.add(def);
                }
            }
        }

        // The rollup qunit: top targets aggregated. Link tables (cast) are
        // crossed to the entity tables they connect (person).
        let direct_targets: Vec<String> = targets
            .iter()
            .filter(|(_, &c)| c >= config.min_support)
            .map(|(k, _)| target_table(&k.1))
            .filter(|t| db.catalog().table_by_name(t).is_some() && *t != atable)
            .take(config.max_targets)
            .collect();
        if direct_targets.is_empty() {
            continue;
        }
        let mut rollup_targets = direct_targets.clone();
        for t in &direct_targets {
            for extra in through_link_table(db, &atable, t) {
                if !rollup_targets.contains(&extra) && extra != atable {
                    rollup_targets.push(extra);
                }
            }
        }
        let refs: Vec<&str> = rollup_targets.iter().map(String::as_str).collect();
        let (query, from_tables) = base_expression(db, &atable, &acolumn, "x", &refs)?;

        let header = display_columns(db, &atable);
        let mut foreach = Vec::new();
        for t in &from_tables {
            if *t == atable {
                continue;
            }
            if let Some(l) = label_column_with_stats(db, &stats, t) {
                foreach.push(l);
            }
        }
        let mut covered = header.clone();
        covered.extend(foreach.clone());
        covered.sort();
        covered.dedup();

        let mut intent: Vec<String> = Vec::new();
        for (key, _) in &targets {
            if let Some(terms) = links.terms.get(*key) {
                intent.extend(terms.iter().cloned());
            }
        }
        intent.sort();
        intent.dedup();

        let name = format!("ql_{}_rollup", atable);
        cat.add(QunitDefinition {
            name: name.clone(),
            base: View::new(name, query),
            conversion: ConversionExpr::nested(format!("{atable}_rollup"), header, foreach),
            anchor: Some(AnchorSpec {
                table: atable,
                column: acolumn,
                param: "x".into(),
            }),
            intent_terms: intent,
            covered_fields: covered,
            utility: total as f64 / max_total,
            provenance: DerivationSource::QueryLog,
        });
    }
    Ok(cat)
}

/// Resolve a link target (`table` or `table.column`) to its table.
fn target_table(target: &str) -> String {
    target.split('.').next().unwrap_or(target).to_string()
}

#[allow(clippy::too_many_arguments)]
fn attribute_qunit(
    db: &Database,
    stats: &DatabaseStats,
    atable: &str,
    acolumn: &str,
    target: &str,
    utility: f64,
    terms: &HashMap<(String, String), Vec<String>>,
    key: &(String, String),
) -> Result<Option<QunitDefinition>> {
    let ttable = target_table(target);
    if db.catalog().table_by_name(&ttable).is_none() || ttable == atable {
        return Ok(None);
    }
    // Cross link tables to the entities they connect (cast → person).
    let mut include: Vec<String> = vec![ttable.clone()];
    for extra in through_link_table(db, atable, &ttable) {
        if !include.contains(&extra) && extra != atable {
            include.push(extra);
        }
    }
    let refs: Vec<&str> = include.iter().map(String::as_str).collect();
    let (query, _) = base_expression(db, atable, acolumn, "x", &refs)?;
    let anchor_label = format!("{atable}.{acolumn}");
    // If the target names a column, surface that column; else the label
    // columns of every included table.
    let mut foreach: Vec<String> = Vec::new();
    if target.contains('.') {
        foreach.push(target.to_string());
    } else if let Some(l) = label_column_with_stats(db, stats, &ttable) {
        foreach.push(l);
    }
    for extra in include.iter().skip(1) {
        if let Some(l) = label_column_with_stats(db, stats, extra) {
            if !foreach.contains(&l) {
                foreach.push(l);
            }
        }
    }
    if foreach.is_empty() {
        return Ok(None);
    }
    let intent = terms.get(key).cloned().unwrap_or_default();
    let name = format!("ql_{}_{}", atable, ttable);
    let mut covered = vec![anchor_label.clone()];
    covered.extend(foreach.clone());
    Ok(Some(QunitDefinition {
        name: name.clone(),
        base: View::new(name, query),
        conversion: ConversionExpr::nested(
            format!("{atable}_{ttable}"),
            vec![anchor_label],
            foreach,
        ),
        anchor: Some(AnchorSpec {
            table: atable.to_string(),
            column: acolumn.to_string(),
            param: "x".into(),
        }),
        intent_terms: intent,
        covered_fields: covered,
        utility,
        provenance: DerivationSource::QueryLog,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::EntityDictionary;
    use datagen::imdb::{ImdbConfig, ImdbData};

    fn setup() -> (ImdbData, Segmenter) {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let dict = EntityDictionary::from_database(&data.db, EntityDictionary::imdb_specs());
        (data, Segmenter::new(dict))
    }

    #[test]
    fn paper_example_annotated_links() {
        // §4.2: "george clooney actor", "george clooney batman",
        // "tom hanks castaway" — person.name links to cast.role once and to
        // movie(.title) twice.
        let (data, seg) = setup();
        let p1 = &data.people[0].name;
        let p2 = &data.people[1].name;
        let m1 = &data.movies[0].title;
        let m2 = &data.movies[1].title;
        let queries = vec![
            format!("{p1} actor"),
            format!("{p1} {m1}"),
            format!("{p2} {m2}"),
        ];
        let links = mine_links(&seg, &queries);
        assert_eq!(
            links.links.get(&("person.name".into(), "movie".into())),
            Some(&2)
        );
        // "actor" is a cast.role entity in our dictionary, so it counts as a
        // co-occurring entity of table `cast`.
        assert_eq!(
            links.links.get(&("person.name".into(), "cast".into())),
            Some(&1)
        );
        assert_eq!(links.anchor_totals.get("person.name"), Some(&3));
    }

    #[test]
    fn attribute_terms_produce_links_and_intents() {
        let (data, seg) = setup();
        let m = &data.movies[0].title;
        let queries: Vec<String> = (0..5).map(|_| format!("{m} cast")).collect();
        let links = mine_links(&seg, &queries);
        assert_eq!(
            links.links.get(&("movie.title".into(), "cast".into())),
            Some(&5)
        );
        let terms = links
            .terms
            .get(&("movie.title".into(), "cast".into()))
            .unwrap();
        assert_eq!(terms, &vec!["cast".to_string()]);
    }

    #[test]
    fn rollup_aggregates_popular_specializations() {
        let (data, seg) = setup();
        let m = &data.movies[0].title;
        let p = &data.people[0].name;
        let mut queries = Vec::new();
        for _ in 0..6 {
            queries.push(format!("{m} cast"));
        }
        for _ in 0..4 {
            queries.push(format!("{m} box office"));
        }
        for _ in 0..5 {
            queries.push(format!("{p} movies"));
        }
        let cat = derive(&data.db, &seg, &queries, &QueryLogDeriveConfig::default()).unwrap();
        // rollup qunits for both anchors
        let movie_rollup = cat.get("ql_movie_rollup").expect("movie rollup");
        assert!(movie_rollup.intent_terms.contains(&"cast".to_string()));
        assert!(movie_rollup
            .intent_terms
            .contains(&"box office".to_string()));
        assert!(cat.get("ql_person_rollup").is_some());
        // dedicated attribute qunits for dominant pairs
        assert!(cat.get("ql_movie_cast").is_some());
        assert!(cat.get("ql_movie_boxoffice").is_some());
        assert!(cat.get("ql_person_movie").is_some());
        for d in cat.iter() {
            assert!(d.base.query.validate(&data.db).is_ok(), "{}", d.name);
            assert_eq!(d.provenance, DerivationSource::QueryLog);
        }
    }

    #[test]
    fn min_support_filters_noise() {
        let (data, seg) = setup();
        let m = &data.movies[0].title;
        let queries = vec![format!("{m} trivia")]; // single occurrence
        let cat = derive(
            &data.db,
            &seg,
            &queries,
            &QueryLogDeriveConfig {
                min_support: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cat.is_empty());
    }

    #[test]
    fn unrecognized_queries_contribute_nothing() {
        let (data, seg) = setup();
        let queries = vec!["cheap flights".to_string(), "weather tomorrow".to_string()];
        let links = mine_links(&seg, &queries);
        assert!(links.links.is_empty());
        let cat = derive(&data.db, &seg, &queries, &QueryLogDeriveConfig::default()).unwrap();
        assert!(cat.is_empty());
    }

    #[test]
    fn utility_reflects_anchor_popularity() {
        let (data, seg) = setup();
        let m = &data.movies[0].title;
        let p = &data.people[0].name;
        let mut queries = Vec::new();
        for _ in 0..10 {
            queries.push(format!("{m} cast"));
        }
        for _ in 0..3 {
            queries.push(format!("{p} movies"));
        }
        let cat = derive(&data.db, &seg, &queries, &QueryLogDeriveConfig::default()).unwrap();
        let movie_u = cat.get("ql_movie_rollup").unwrap().utility;
        let person_u = cat.get("ql_person_rollup").unwrap().utility;
        assert!(movie_u > person_u);
        assert!((movie_u - 1.0).abs() < 1e-9);
    }
}
