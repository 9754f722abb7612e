//! §4.3 — derivation from external evidence via *type signatures*.
//!
//! Each external page (a report, a Wikipedia-style article) is treated as a
//! candidate qunit instance: database entities are recognized in its DOM
//! elements, and the page is summarized as a type signature such as
//! `((movie.title:1)(person.name:many))` — one movie, many people ⇒ a
//! cast-page-shaped qunit anchored on the movie title. Signatures are
//! aggregated across the corpus; those with enough support become qunit
//! definitions, with the singleton type as the label/anchor field and the
//! plural types as the foreach body.

use crate::catalog::QunitCatalog;
use crate::derive::common::{base_expression, label_column_with_stats};
use crate::presentation::ConversionExpr;
use crate::qunit::{AnchorSpec, DerivationSource, QunitDefinition};
use crate::segment::EntityDictionary;
use irengine::NormalForm;
use relstore::{Database, DatabaseStats, Result, View};
use std::collections::HashMap;

/// A minimal, engine-agnostic view of an external page: `(tag, text)`
/// elements in document order. (The evaluation harness adapts richer page
/// types down to this.)
#[derive(Debug, Clone)]
pub struct EvidencePage {
    /// DOM elements as `(tag, text)` in document order.
    pub elements: Vec<(String, String)>,
}

/// Derivation parameters.
#[derive(Debug, Clone)]
pub struct EvidenceDeriveConfig {
    /// Minimum number of pages sharing a signature.
    pub min_pages: usize,
}

impl Default for EvidenceDeriveConfig {
    fn default() -> Self {
        EvidenceDeriveConfig { min_pages: 3 }
    }
}

/// A page's type signature: entity types with `1` or `many` cardinality,
/// plus which type led the page (first/heading occurrence → label field).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeSignature {
    /// `(entity type, is_many)` sorted by type name.
    pub entries: Vec<(String, bool)>,
    /// The entity type of the first recognized element (the label field).
    pub leading: String,
}

/// Compute the signature of one page; `None` if fewer than two entity
/// *mentions* are recognized (no relational evidence).
pub fn page_signature(dict: &EntityDictionary, page: &EvidencePage) -> Option<TypeSignature> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut leading: Option<String> = None;
    let mut mentions = 0usize;
    for (_, text) in &page.elements {
        if let Some((table, column)) = dict.lookup_entity(NormalForm::of(text).as_str()) {
            let ty = format!("{table}.{column}");
            *counts.entry(ty.clone()).or_insert(0) += 1;
            mentions += 1;
            if leading.is_none() {
                leading = Some(ty);
            }
        }
    }
    let leading = leading?;
    if mentions < 2 || counts.len() < 2 {
        return None;
    }
    let mut entries: Vec<(String, bool)> = counts.into_iter().map(|(ty, c)| (ty, c >= 2)).collect();
    entries.sort();
    Some(TypeSignature { entries, leading })
}

/// Aggregate signatures over a corpus: `signature → page count`.
pub fn aggregate_signatures(
    dict: &EntityDictionary,
    pages: &[EvidencePage],
) -> HashMap<TypeSignature, usize> {
    let mut out: HashMap<TypeSignature, usize> = HashMap::new();
    for p in pages {
        if let Some(sig) = page_signature(dict, p) {
            *out.entry(sig).or_insert(0) += 1;
        }
    }
    out
}

/// Derive a catalog from an evidence corpus.
pub fn derive(
    db: &Database,
    dict: &EntityDictionary,
    pages: &[EvidencePage],
    config: &EvidenceDeriveConfig,
) -> Result<QunitCatalog> {
    let sigs = aggregate_signatures(dict, pages);
    let stats = DatabaseStats::collect(db);
    let mut cat = QunitCatalog::new();
    let max_support = sigs.values().copied().max().unwrap_or(1).max(1) as f64;

    let mut ordered: Vec<(&TypeSignature, &usize)> = sigs.iter().collect();
    ordered.sort_by(|a, b| b.1.cmp(a.1).then(a.0.entries.cmp(&b.0.entries)));

    for (sig, &support) in ordered {
        if support < config.min_pages {
            continue;
        }
        // Anchor: the leading singleton type; if the leading type is plural,
        // fall back to any singleton.
        let anchor_ty = if sig
            .entries
            .iter()
            .any(|(t, many)| t == &sig.leading && !many)
        {
            sig.leading.clone()
        } else {
            match sig.entries.iter().find(|(_, many)| !many) {
                Some((t, _)) => t.clone(),
                None => continue, // all-plural pages carry no anchor
            }
        };
        let (atable, acolumn) = match anchor_ty.split_once('.') {
            Some((t, c)) => (t.to_string(), c.to_string()),
            None => continue,
        };
        if db.catalog().table_by_name(&atable).is_none() {
            continue;
        }

        // Header: other singleton types; foreach: plural types.
        let mut header = vec![anchor_ty.clone()];
        let mut foreach = Vec::new();
        let mut include: Vec<String> = Vec::new();
        for (ty, many) in &sig.entries {
            if *ty == anchor_ty {
                continue;
            }
            let table = ty.split('.').next().unwrap_or(ty).to_string();
            if db.catalog().table_by_name(&table).is_none() {
                continue;
            }
            include.push(table.clone());
            let field = if ty.contains('.') {
                ty.clone()
            } else {
                match label_column_with_stats(db, &stats, &table) {
                    Some(l) => l,
                    None => continue,
                }
            };
            if *many {
                foreach.push(field);
            } else {
                header.push(field);
            }
        }
        if include.is_empty() {
            continue;
        }
        let refs: Vec<&str> = include.iter().map(String::as_str).collect();
        let (query, _) = match base_expression(db, &atable, &acolumn, "x", &refs) {
            Ok(x) => x,
            Err(_) => continue, // disconnected evidence combination
        };

        let mut covered = header.clone();
        covered.extend(foreach.clone());
        covered.sort();
        covered.dedup();

        let mut intent: Vec<String> = Vec::new();
        for t in &include {
            intent.extend(NormalForm::of(t).tokens().map(str::to_string));
        }
        intent.sort();
        intent.dedup();

        let name = format!("ev_{}_{}", atable, include.join("_"));
        cat.add(QunitDefinition {
            name: name.clone(),
            base: View::new(name, query),
            conversion: ConversionExpr::nested(format!("{atable}_evidence"), header, foreach),
            anchor: Some(AnchorSpec {
                table: atable,
                column: acolumn,
                param: "x".into(),
            }),
            intent_terms: intent,
            covered_fields: covered,
            utility: support as f64 / max_support,
            provenance: DerivationSource::Evidence,
        });
    }
    Ok(cat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
    use datagen::imdb::{ImdbConfig, ImdbData};

    fn setup() -> (ImdbData, EntityDictionary) {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let dict = EntityDictionary::from_database(&data.db, EntityDictionary::imdb_specs());
        (data, dict)
    }

    fn page(elements: &[(&str, &str)]) -> EvidencePage {
        EvidencePage {
            elements: elements
                .iter()
                .map(|(t, x)| (t.to_string(), x.to_string()))
                .collect(),
        }
    }

    #[test]
    fn cast_page_signature_matches_paper_example() {
        let (data, dict) = setup();
        let m = &data.movies[0].title;
        let p1 = &data.people[0].name;
        let p2 = &data.people[1].name;
        let pg = page(&[("h1", m.as_str()), ("li", p1.as_str()), ("li", p2.as_str())]);
        let sig = page_signature(&dict, &pg).unwrap();
        assert_eq!(sig.leading, "movie.title");
        assert_eq!(
            sig.entries,
            vec![
                ("movie.title".to_string(), false),
                ("person.name".to_string(), true)
            ]
        );
    }

    #[test]
    fn noise_pages_have_no_signature() {
        let (_, dict) = setup();
        let pg = page(&[("h1", "miscellaneous"), ("p", "nothing entity like here")]);
        assert!(page_signature(&dict, &pg).is_none());
        // single-mention pages carry no relational evidence either
        let (data, dict) = setup();
        let pg = page(&[("h1", data.movies[0].title.as_str())]);
        assert!(page_signature(&dict, &pg).is_none());
    }

    #[test]
    fn derive_from_synthetic_corpus_finds_cast_and_filmography_shapes() {
        let (data, dict) = setup();
        let corpus = EvidenceCorpus::generate(
            &data,
            EvidenceGenConfig {
                n_pages: 200,
                ..EvidenceGenConfig::tiny()
            },
        );
        let pages: Vec<EvidencePage> = corpus
            .pages
            .iter()
            .map(|p| EvidencePage {
                elements: p
                    .elements
                    .iter()
                    .map(|e| (e.tag.clone(), e.text.clone()))
                    .collect(),
            })
            .collect();
        let cat = derive(
            &data.db,
            &dict,
            &pages,
            &EvidenceDeriveConfig { min_pages: 3 },
        )
        .unwrap();
        assert!(!cat.is_empty());
        // cast-page shape: movie anchor with person foreach
        let movie_anchored = cat
            .iter()
            .filter(|d| {
                d.anchor
                    .as_ref()
                    .map(|a| a.table == "movie")
                    .unwrap_or(false)
            })
            .count();
        let person_anchored = cat
            .iter()
            .filter(|d| {
                d.anchor
                    .as_ref()
                    .map(|a| a.table == "person")
                    .unwrap_or(false)
            })
            .count();
        assert!(movie_anchored >= 1, "cast/summary-shaped qunits expected");
        assert!(person_anchored >= 1, "filmography-shaped qunits expected");
        for d in cat.iter() {
            assert!(d.base.query.validate(&data.db).is_ok(), "{}", d.name);
            assert_eq!(d.provenance, DerivationSource::Evidence);
            assert!(d.utility > 0.0 && d.utility <= 1.0);
        }
    }

    #[test]
    fn min_pages_threshold_prunes_rare_signatures() {
        let (data, dict) = setup();
        let m = &data.movies[0].title;
        let p = &data.people[0].name;
        let single = vec![EvidencePage {
            elements: vec![
                ("h1".into(), m.clone()),
                ("li".into(), p.clone()),
                ("li".into(), data.people[1].name.clone()),
            ],
        }];
        let strict = derive(
            &data.db,
            &dict,
            &single,
            &EvidenceDeriveConfig { min_pages: 2 },
        )
        .unwrap();
        assert!(strict.is_empty());
        let lax = derive(
            &data.db,
            &dict,
            &single,
            &EvidenceDeriveConfig { min_pages: 1 },
        )
        .unwrap();
        assert_eq!(lax.len(), 1);
    }

    #[test]
    fn aggregation_counts_identical_signatures() {
        let (data, dict) = setup();
        let m1 = &data.movies[0].title;
        let m2 = &data.movies[1].title;
        let p1 = &data.people[0].name;
        let p2 = &data.people[1].name;
        // two different cast pages, same *shape*
        let pages = vec![
            page(&[
                ("h1", m1.as_str()),
                ("li", p1.as_str()),
                ("li", p2.as_str()),
            ]),
            page(&[
                ("h1", m2.as_str()),
                ("li", p2.as_str()),
                ("li", p1.as_str()),
            ]),
        ];
        let sigs = aggregate_signatures(&dict, &pages);
        assert_eq!(sigs.len(), 1);
        assert_eq!(*sigs.values().next().unwrap(), 2);
    }
}
