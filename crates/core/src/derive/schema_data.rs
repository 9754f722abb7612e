//! §4.1 — derivation from schema and data via *queriability*.
//!
//! Queriability (after Jayapandian & Jagadish, cited by the paper) estimates
//! how likely a schema element is to be queried, from data cardinalities.
//! Our scoring for a table `T`:
//!
//! ```text
//! Q(T) = ln(1 + rows(T)) · (1 + fk_degree(T)) · label_score(T)
//! ```
//!
//! where `label_score` is the best text column's `distinctness ×
//! min(avg_tokens, 4)` (essay-length text penalized ×0.2). Entity tables
//! (movie, person) dominate; link tables (cast) and normalization tables
//! (genre) score low — matching the paper's intuition.
//!
//! Derivation takes the top-`k1` tables as anchors and expands each with its
//! top-`k2` *semantic* neighbors (BFS ≤ 2 hops, so link tables are crossed
//! transparently). The paper notes this method's blind spot — it cannot tell
//! that `locations` is less interesting than `genre` when both are
//! referenced the same way — and the A1 ablation quantifies exactly that.

use crate::catalog::QunitCatalog;
use crate::derive::common::{base_expression, display_columns, label_column_with_stats};
use crate::presentation::ConversionExpr;
use crate::qunit::{AnchorSpec, DerivationSource, QunitDefinition};
use irengine::NormalForm;
use relstore::{DataType, Database, DatabaseStats, Result, View};
use std::collections::HashMap;

/// Derivation parameters (the paper's tunable k1, k2).
#[derive(Debug, Clone)]
pub struct SchemaDataConfig {
    /// Number of anchor tables.
    pub k1: usize,
    /// Number of neighbor tables joined into each anchor's qunit.
    pub k2: usize,
}

impl Default for SchemaDataConfig {
    fn default() -> Self {
        SchemaDataConfig { k1: 3, k2: 3 }
    }
}

/// Per-table queriability breakdown (exposed for tests).
#[derive(Debug, Clone)]
pub struct Queriability {
    /// Table name.
    pub table: String,
    /// Total score.
    pub score: f64,
    /// The chosen label column, if any.
    pub label: Option<String>,
}

/// Compute queriability for every table, descending.
pub fn queriability(db: &Database) -> Vec<Queriability> {
    queriability_with(db, &DatabaseStats::collect(db))
}

/// [`queriability`] from statistics already collected over `db`.
fn queriability_with(db: &Database, stats: &DatabaseStats) -> Vec<Queriability> {
    let mut out: Vec<Queriability> = db
        .catalog()
        .iter()
        .map(|(_, schema)| {
            let t = stats.table_by_name(&schema.name).expect("stats cover all");
            let label = label_column_with_stats(db, stats, &schema.name);
            let label_score = best_text_score(&schema.name, stats);
            let score = (1.0 + t.rows as f64).ln() * (1.0 + t.fk_degree as f64) * label_score;
            Queriability {
                table: schema.name.clone(),
                score,
                label,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.table.cmp(&b.table))
    });
    out
}

fn best_text_score(table: &str, stats: &DatabaseStats) -> f64 {
    let t = match stats.table_by_name(table) {
        Some(t) => t,
        None => return 0.0,
    };
    t.columns
        .iter()
        .filter(|c| c.dtype == DataType::Text && c.name != "id" && !c.name.ends_with("_id"))
        .map(|c| {
            let mut s = c.distinctness() * c.avg_tokens.min(4.0);
            if c.avg_tokens > 8.0 {
                s *= 0.2;
            }
            s
        })
        .fold(0.0, f64::max)
}

/// Derive a catalog with the given `k1 × k2` expansion.
pub fn derive(db: &Database, config: &SchemaDataConfig) -> Result<QunitCatalog> {
    let stats = DatabaseStats::collect(db);
    let scores = queriability_with(db, &stats);
    let score_of: HashMap<&str, f64> = scores.iter().map(|q| (q.table.as_str(), q.score)).collect();
    let anchors: Vec<&Queriability> = scores
        .iter()
        .filter(|q| q.score > 0.0 && q.label.is_some())
        .take(config.k1)
        .collect();

    let mut cat = QunitCatalog::new();
    let max_score = anchors
        .first()
        .map(|a| a.score)
        .unwrap_or(1.0)
        .max(f64::MIN_POSITIVE);
    for anchor in anchors {
        let label = anchor.label.as_deref().expect("filtered");
        let (atable, acolumn) = split(label);

        // Semantic neighbors: BFS up to 2 hops; score = Q(neighbor)/depth.
        let anchor_id = db.catalog().table_id(&anchor.table).expect("valid");
        let mut candidates: Vec<(String, f64)> = Vec::new();
        let mut seen: Vec<relstore::TableId> = vec![anchor_id];
        let mut frontier = vec![(anchor_id, 0u32)];
        while let Some((t, d)) = frontier.pop() {
            if d >= 2 {
                continue;
            }
            for (nbr, _) in db.catalog().neighbors(t) {
                if seen.contains(&nbr) {
                    continue;
                }
                seen.push(nbr);
                frontier.push((nbr, d + 1));
                let name = db.catalog().table(nbr).expect("valid").name.clone();
                let q = score_of.get(name.as_str()).copied().unwrap_or(0.0);
                if q > 0.0 {
                    candidates.push((name, q / (d + 1) as f64));
                }
            }
        }
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let neighbors: Vec<String> = candidates
            .into_iter()
            .take(config.k2)
            .map(|(n, _)| n)
            .collect();
        let neighbor_refs: Vec<&str> = neighbors.iter().map(String::as_str).collect();

        let (query, from_tables) = base_expression(db, &atable, &acolumn, "x", &neighbor_refs)?;

        // Conversion: anchor display columns once; neighbor labels per tuple.
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

        // Intent: the names of the joined tables and their label columns.
        let mut intent: Vec<String> = Vec::new();
        for t in &from_tables {
            intent.extend(NormalForm::of(t).tokens().map(str::to_string));
        }
        for f in &foreach {
            if let Some((_, col)) = f.split_once('.') {
                intent.extend(NormalForm::of(col).tokens().map(str::to_string));
            }
        }
        intent.sort();
        intent.dedup();

        let name = format!("sd_{}", anchor.table);
        cat.add(QunitDefinition {
            name: name.clone(),
            base: View::new(name, query),
            conversion: ConversionExpr::nested(
                format!("{}_profile", anchor.table),
                header,
                foreach,
            ),
            anchor: Some(AnchorSpec {
                table: atable,
                column: acolumn,
                param: "x".into(),
            }),
            intent_terms: intent,
            covered_fields: covered,
            utility: anchor.score / max_score,
            provenance: DerivationSource::SchemaData,
        });
    }
    Ok(cat)
}

fn split(qualified: &str) -> (String, String) {
    match qualified.split_once('.') {
        Some((t, c)) => (t.to_string(), c.to_string()),
        None => (qualified.to_string(), String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::imdb::{ImdbConfig, ImdbData};

    fn data() -> ImdbData {
        ImdbData::generate(ImdbConfig::tiny())
    }

    #[test]
    fn entity_tables_outscore_link_and_lookup_tables() {
        let d = data();
        let q = queriability(&d.db);
        let rank: Vec<&str> = q.iter().map(|x| x.table.as_str()).collect();
        let pos = |t: &str| rank.iter().position(|x| *x == t).unwrap();
        assert!(pos("movie") < pos("genre"), "{rank:?}");
        assert!(pos("person") < pos("genre"), "{rank:?}");
        // cast has only the low-distinctness `role` text column
        assert!(pos("movie") < pos("cast"), "{rank:?}");
    }

    #[test]
    fn derive_produces_k1_anchored_definitions() {
        let d = data();
        let cat = derive(&d.db, &SchemaDataConfig { k1: 2, k2: 2 }).unwrap();
        assert_eq!(cat.len(), 2);
        for def in cat.iter() {
            assert!(def.is_anchored());
            assert_eq!(def.provenance, DerivationSource::SchemaData);
            assert!(def.base.query.validate(&d.db).is_ok(), "{}", def.name);
            assert!(def.utility > 0.0 && def.utility <= 1.0);
        }
    }

    #[test]
    fn movie_qunit_reaches_person_through_cast() {
        let d = data();
        let cat = derive(&d.db, &SchemaDataConfig { k1: 1, k2: 3 }).unwrap();
        let def = cat.iter().next().unwrap();
        assert_eq!(def.anchor.as_ref().unwrap().qualified(), "movie.title");
        // person is two hops away but high-queriability: should be joined in
        let sql = relstore::render_sql(&d.db, &def.base.query);
        assert!(sql.contains("person"), "{sql}");
        assert!(sql.contains("cast"), "{sql}");
    }

    #[test]
    fn k2_zero_gives_single_table_qunits() {
        let d = data();
        let cat = derive(&d.db, &SchemaDataConfig { k1: 2, k2: 0 }).unwrap();
        for def in cat.iter() {
            assert_eq!(def.base.query.tables.len(), 1, "{}", def.name);
        }
    }

    #[test]
    fn utilities_normalized_to_top_anchor() {
        let d = data();
        let cat = derive(&d.db, &SchemaDataConfig { k1: 3, k2: 1 }).unwrap();
        let top = cat.iter().map(|d| d.utility).fold(f64::MIN, f64::max);
        assert!((top - 1.0).abs() < 1e-9);
    }

    #[test]
    fn derivation_is_deterministic() {
        let d = data();
        let a = derive(&d.db, &SchemaDataConfig::default()).unwrap();
        let b = derive(&d.db, &SchemaDataConfig::default()).unwrap();
        let names_a: Vec<&str> = a.iter().map(|d| d.name.as_str()).collect();
        let names_b: Vec<&str> = b.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names_a, names_b);
    }
}
