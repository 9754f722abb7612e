//! The qunit model: definitions (base expression + conversion expression)
//! and materialized instances.

use crate::presentation::ConversionExpr;
use relstore::{Value, View};
use serde::{Deserialize, Serialize};

/// Where a definition came from — the four derivation sources of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DerivationSource {
    /// Hand-written by a subject-matter expert (§4, "manual expert
    /// identification … is likely to be superior").
    Manual,
    /// Schema + data queriability (§4.1).
    SchemaData,
    /// Query-log rollup (§4.2).
    QueryLog,
    /// External-evidence type signatures (§4.3).
    Evidence,
}

impl std::fmt::Display for DerivationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DerivationSource::Manual => "manual",
            DerivationSource::SchemaData => "schema-data",
            DerivationSource::QueryLog => "query-log",
            DerivationSource::Evidence => "evidence",
        };
        f.write_str(s)
    }
}

/// The anchor of a parameterized qunit: which entity type instantiates it.
/// The paper's cast example is anchored on `movie.title` via parameter `x`
/// (`movie.title = "$x"`), yielding one qunit instance per movie.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnchorSpec {
    /// Anchor table name.
    pub table: String,
    /// Anchor column name (the entity's surface string).
    pub column: String,
    /// Parameter name used in the base expression.
    pub param: String,
}

impl AnchorSpec {
    /// Qualified `table.column` of the anchor.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.table, self.column)
    }
}

/// A qunit definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QunitDefinition {
    /// Unique name within a catalog, e.g. `movie_cast`.
    pub name: String,
    /// The base expression: a (possibly parameterized) view. By convention
    /// the anchored table occupies FROM position 0.
    pub base: View,
    /// The conversion expression: how instances are presented.
    pub conversion: ConversionExpr,
    /// Anchor, if parameterized; `None` for singleton qunits (e.g. charts).
    pub anchor: Option<AnchorSpec>,
    /// Intent vocabulary: non-entity query words that signal this qunit
    /// ("cast", "movies", "soundtrack", …).
    pub intent_terms: Vec<String>,
    /// Qualified attributes (`table.column`) an instance surfaces. This is
    /// what the evaluation oracle measures coverage against.
    pub covered_fields: Vec<String>,
    /// Derivation-assigned utility (higher = more salient). Comparable only
    /// within one catalog.
    pub utility: f64,
    /// Which derivation produced this definition.
    pub provenance: DerivationSource,
}

impl QunitDefinition {
    /// True iff this definition is parameterized by an anchor entity.
    pub fn is_anchored(&self) -> bool {
        self.anchor.is_some()
    }

    /// Intent-term overlap with a set of query terms, normalized by the
    /// number of query terms provided (0.0 ..= 1.0).
    pub fn intent_overlap<'a>(&self, terms: impl Iterator<Item = &'a str>) -> f64 {
        let (mut len, mut hits) = (0usize, 0usize);
        for t in terms {
            len += 1;
            hits += usize::from(self.intent_terms.iter().any(|i| i == t));
        }
        if len == 0 {
            return 0.0;
        }
        hits as f64 / len as f64
    }
}

/// A materialized qunit instance — an independent "document" for IR.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QunitInstance {
    /// Stable key: `definition::anchor-display` (or `definition::*` for
    /// singletons).
    pub key: String,
    /// Owning definition name.
    pub definition: String,
    /// The anchor value this instance was bound to, if anchored.
    pub anchor_value: Option<Value>,
    /// Rendered presentation (conversion expression applied).
    pub rendered: String,
    /// Plain text for indexing and display.
    pub text: String,
    /// Qualified attributes present (copied from the definition).
    pub fields: Vec<String>,
    /// Number of base-expression tuples aggregated into this instance.
    pub tuple_count: usize,
}

impl QunitInstance {
    /// The anchor's display string, if any.
    pub fn anchor_text(&self) -> Option<String> {
        self.anchor_value.as_ref().map(Value::display_plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::{Predicate, Query};

    fn def(intent: &[&str]) -> QunitDefinition {
        QunitDefinition {
            name: "t".into(),
            base: View::new(
                "t",
                Query {
                    tables: vec![0],
                    joins: vec![],
                    predicate: Predicate::True,
                    projection: None,
                    limit: None,
                },
            ),
            conversion: ConversionExpr::flat("t"),
            anchor: Some(AnchorSpec {
                table: "movie".into(),
                column: "title".into(),
                param: "x".into(),
            }),
            intent_terms: intent.iter().map(|s| s.to_string()).collect(),
            covered_fields: vec!["movie.title".into()],
            utility: 1.0,
            provenance: DerivationSource::Manual,
        }
    }

    #[test]
    fn anchor_qualified_name() {
        let d = def(&["cast"]);
        assert_eq!(d.anchor.as_ref().unwrap().qualified(), "movie.title");
        assert!(d.is_anchored());
    }

    #[test]
    fn intent_overlap_normalizes() {
        let d = def(&["cast", "crew"]);
        assert_eq!(d.intent_overlap(["cast", "photos"].into_iter()), 0.5);
        assert_eq!(d.intent_overlap(std::iter::empty()), 0.0);
        assert_eq!(d.intent_overlap(["cast", "crew"].into_iter()), 1.0);
        assert_eq!(
            d.intent_overlap(["crew", "crew", "x"].into_iter()),
            2.0 / 3.0
        );
    }

    #[test]
    fn provenance_displays() {
        assert_eq!(DerivationSource::SchemaData.to_string(), "schema-data");
        assert_eq!(DerivationSource::Evidence.to_string(), "evidence");
    }

    #[test]
    fn instance_anchor_text() {
        let inst = QunitInstance {
            key: "cast::star wars".into(),
            definition: "cast".into(),
            anchor_value: Some("star wars".into()),
            rendered: String::new(),
            text: String::new(),
            fields: vec![],
            tuple_count: 3,
        };
        assert_eq!(inst.anchor_text().as_deref(), Some("star wars"));
    }
}
