//! The common interface every comparator implements, plus adapters for
//! BANKS, DISCOVER, XML LCA/MLCA, and qunit engines.
//!
//! A system's [`SystemAnswer`] exposes exactly what the oracle needs: the
//! answer *text* (for entity fidelity) and the qualified attributes the
//! answer *demarcates* (for coverage/precision). Demarcation is the paper's
//! whole point: BANKS hands back spanning-tree tuples with raw id columns;
//! LCA hands back whatever subtree happens to connect the matches; qunit
//! systems hand back the curated fields of a qunit definition.

use datagraph::{BanksConfig, BanksEngine, DataGraph, DiscoverConfig, DiscoverEngine};
use qunit_core::QunitSearchEngine;
use relstore::{Database, Value};
use xmltree::{database_to_tree, LcaEngine, MlcaEngine, XmlTree};

/// What a system returns for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemAnswer {
    /// Flattened answer text.
    pub text: String,
    /// Qualified `table.column` attributes the answer presents.
    pub covered_fields: Vec<String>,
}

/// A keyword-search system under evaluation.
pub trait SearchSystem {
    /// Display name (used in reports and the oracle's noise seed).
    fn name(&self) -> &str;
    /// Answer a keyword query, or `None` if the system has nothing.
    fn answer(&self, query: &str) -> Option<SystemAnswer>;
    /// Answer a whole workload slice, index-aligned with `queries`. The
    /// default is the sequential loop; systems with a concurrent query path
    /// (the qunit engine) override it to fan out across threads. Must
    /// return exactly what per-query [`SearchSystem::answer`] would.
    fn answer_batch(&self, queries: &[&str]) -> Vec<Option<SystemAnswer>> {
        queries.iter().map(|q| self.answer(q)).collect()
    }
}

// ---------------------------------------------------------------------------
// BANKS
// ---------------------------------------------------------------------------

/// BANKS over the tuple graph.
pub struct BanksSystem {
    db: Database,
    graph: DataGraph,
    config: BanksConfig,
}

impl BanksSystem {
    /// Build the tuple graph for `db`.
    pub fn new(db: &Database) -> Self {
        BanksSystem {
            db: db.clone(),
            graph: DataGraph::build(db),
            config: BanksConfig::default(),
        }
    }
}

impl SearchSystem for BanksSystem {
    fn name(&self) -> &str {
        "banks"
    }

    fn answer(&self, query: &str) -> Option<SystemAnswer> {
        let engine = BanksEngine::new(&self.graph, self.config.clone());
        let top = engine.search(query).into_iter().next()?;
        let mut text = String::new();
        let mut fields = Vec::new();
        for &node in &top.nodes {
            let info = self.graph.info(node);
            let schema = self.db.catalog().table(info.table)?;
            let row = self.db.table(info.table)?.row(info.row)?;
            for (ci, v) in row.values().iter().enumerate() {
                if v.is_null() {
                    continue;
                }
                // BANKS presents the raw tuples: every column, ids included,
                // and *without* resolving id references to their referents.
                fields.push(format!("{}.{}", schema.name, schema.columns[ci].name));
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&v.display_plain());
            }
        }
        fields.sort();
        fields.dedup();
        Some(SystemAnswer {
            text,
            covered_fields: fields,
        })
    }
}

// ---------------------------------------------------------------------------
// DISCOVER
// ---------------------------------------------------------------------------

/// DISCOVER-style candidate-network search.
pub struct DiscoverSystem {
    db: Database,
    config: DiscoverConfig,
}

impl DiscoverSystem {
    /// Build (text indexes are created so network enumeration is fast).
    pub fn new(db: &Database) -> Self {
        let mut db = db.clone();
        db.build_all_text_indexes();
        DiscoverSystem {
            db,
            config: DiscoverConfig::default(),
        }
    }
}

impl SearchSystem for DiscoverSystem {
    fn name(&self) -> &str {
        "discover"
    }

    fn answer(&self, query: &str) -> Option<SystemAnswer> {
        let engine = DiscoverEngine::new(&self.db, self.config.clone());
        let top = engine.search(query).into_iter().next()?;
        let mut fields: Vec<String> = top
            .columns
            .iter()
            .zip(&top.row)
            .filter(|(_, v)| !v.is_null())
            .map(|(c, _)| c.clone())
            .collect();
        fields.sort();
        fields.dedup();
        let text = top
            .row
            .iter()
            .filter(|v| !v.is_null())
            .map(Value::display_plain)
            .collect::<Vec<_>>()
            .join(" ");
        Some(SystemAnswer {
            text,
            covered_fields: fields,
        })
    }
}

// ---------------------------------------------------------------------------
// XML LCA / MLCA
// ---------------------------------------------------------------------------

/// SLCA keyword search over the XML view.
pub struct LcaSystem {
    tree: XmlTree,
}

impl LcaSystem {
    /// Convert `db` to its XML view.
    pub fn new(db: &Database) -> Self {
        LcaSystem {
            tree: database_to_tree(db),
        }
    }
}

impl SearchSystem for LcaSystem {
    fn name(&self) -> &str {
        "lca"
    }

    fn answer(&self, query: &str) -> Option<SystemAnswer> {
        let engine = LcaEngine::new(&self.tree, 1);
        let top = engine.search(query).into_iter().next()?;
        Some(SystemAnswer {
            text: self.tree.subtree_text(top.root),
            covered_fields: self.tree.subtree_sources(top.root),
        })
    }
}

/// Meaningful-LCA keyword search over the XML view.
pub struct MlcaSystem {
    tree: XmlTree,
}

impl MlcaSystem {
    /// Convert `db` to its XML view.
    pub fn new(db: &Database) -> Self {
        MlcaSystem {
            tree: database_to_tree(db),
        }
    }
}

impl SearchSystem for MlcaSystem {
    fn name(&self) -> &str {
        "mlca"
    }

    fn answer(&self, query: &str) -> Option<SystemAnswer> {
        let engine = MlcaEngine::new(&self.tree, 1);
        let top = engine.search(query).into_iter().next()?;
        Some(SystemAnswer {
            text: self.tree.subtree_text(top.root),
            covered_fields: self.tree.subtree_sources(top.root),
        })
    }
}

// ---------------------------------------------------------------------------
// Qunits
// ---------------------------------------------------------------------------

/// A qunit engine under a display name (one per derivation catalog).
pub struct QunitSystem {
    name: String,
    engine: QunitSearchEngine,
}

impl QunitSystem {
    /// Wrap a built engine.
    pub fn new(name: impl Into<String>, engine: QunitSearchEngine) -> Self {
        QunitSystem {
            name: name.into(),
            engine,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &QunitSearchEngine {
        &self.engine
    }
}

impl SearchSystem for QunitSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn answer(&self, query: &str) -> Option<SystemAnswer> {
        let top = self.engine.top(query)?;
        Some(SystemAnswer {
            text: top.text.clone(),
            covered_fields: top.fields.clone(),
        })
    }

    fn answer_batch(&self, queries: &[&str]) -> Vec<Option<SystemAnswer>> {
        self.engine
            .search_batch(queries, 1)
            .into_iter()
            .map(|results| {
                results.first().map(|top| SystemAnswer {
                    text: top.text.clone(),
                    covered_fields: top.fields.clone(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::imdb::{ImdbConfig, ImdbData};
    use qunit_core::derive::manual::expert_imdb_qunits;
    use qunit_core::EngineConfig;

    fn data() -> ImdbData {
        ImdbData::generate(ImdbConfig::tiny())
    }

    #[test]
    fn banks_answers_contain_id_columns() {
        let d = data();
        let sys = BanksSystem::new(&d.db);
        let a = sys.answer(&d.movies[0].title).expect("answer");
        assert!(
            a.covered_fields
                .iter()
                .any(|f| f == "movie.id" || f.ends_with("_id")),
            "BANKS should expose raw ids: {:?}",
            a.covered_fields
        );
        assert!(a.text.contains(&d.movies[0].title));
    }

    #[test]
    fn discover_answers_single_table_query() {
        let d = data();
        let sys = DiscoverSystem::new(&d.db);
        let a = sys.answer(&d.movies[0].title).expect("answer");
        assert!(a.covered_fields.contains(&"movie.title".to_string()));
    }

    #[test]
    fn lca_answer_covers_sources() {
        let d = data();
        let sys = LcaSystem::new(&d.db);
        let a = sys.answer(&d.movies[0].title).expect("answer");
        assert!(a.text.contains(&d.movies[0].title));
        assert!(!a.covered_fields.is_empty());
    }

    #[test]
    fn mlca_no_worse_than_lca_in_specificity() {
        let d = data();
        let lca = LcaSystem::new(&d.db);
        let mlca = MlcaSystem::new(&d.db);
        let q = format!("{} cast", d.movies[0].title);
        if let (Some(a), Some(b)) = (lca.answer(&q), mlca.answer(&q)) {
            assert!(b.covered_fields.len() <= a.covered_fields.len() + 5);
        }
    }

    #[test]
    fn qunit_system_returns_curated_fields() {
        let d = data();
        let cat = expert_imdb_qunits(&d.db).unwrap();
        let engine = QunitSearchEngine::build(&d.db, cat, EngineConfig::default()).unwrap();
        let sys = QunitSystem::new("qunits-human", engine);
        let q = format!("{} cast", d.movies[0].title);
        let a = sys.answer(&q).expect("answer");
        assert!(a.covered_fields.contains(&"person.name".to_string()));
        assert!(!a.covered_fields.iter().any(|f| f.ends_with(".id")));
        assert_eq!(sys.name(), "qunits-human");
    }

    #[test]
    fn qunit_batch_answers_match_sequential() {
        let d = data();
        let cat = expert_imdb_qunits(&d.db).unwrap();
        let engine = QunitSearchEngine::build(&d.db, cat, EngineConfig::default()).unwrap();
        let sys = QunitSystem::new("qunits", engine);
        let queries: Vec<String> = d
            .movies
            .iter()
            .take(6)
            .map(|m| format!("{} cast", m.title))
            .chain(["zzzz qqqq".to_string()])
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let batched = sys.answer_batch(&refs);
        assert_eq!(batched.len(), refs.len());
        for (q, b) in refs.iter().zip(&batched) {
            assert_eq!(b, &sys.answer(q), "batch diverged on {q}");
        }
    }

    #[test]
    fn qunit_answers_invariant_under_shard_count() {
        // Evaluation must measure the *model*, not the execution plan: a
        // QunitSystem wired with any `search_shards` produces the same
        // SystemAnswers, so figures are reproducible on any core count.
        let d = data();
        let build = |search_shards| {
            QunitSystem::new(
                "qunits",
                QunitSearchEngine::build(
                    &d.db,
                    expert_imdb_qunits(&d.db).unwrap(),
                    EngineConfig {
                        search_shards,
                        ..EngineConfig::default()
                    },
                )
                .unwrap(),
            )
        };
        let one = build(1);
        let queries: Vec<String> = d
            .movies
            .iter()
            .take(5)
            .map(|m| format!("{} cast", m.title))
            .chain([d.people[0].name.clone(), "zzzz qqqq".to_string()])
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let expected = one.answer_batch(&refs);
        for shards in [2usize, 8] {
            let sys = build(shards);
            assert_eq!(sys.engine().num_shards(), shards);
            assert_eq!(sys.answer_batch(&refs), expected, "{shards} shards");
        }
    }

    #[test]
    fn all_systems_return_none_on_nonsense() {
        let d = data();
        let cat = expert_imdb_qunits(&d.db).unwrap();
        let engine = QunitSearchEngine::build(&d.db, cat, EngineConfig::default()).unwrap();
        let systems: Vec<Box<dyn SearchSystem>> = vec![
            Box::new(BanksSystem::new(&d.db)),
            Box::new(DiscoverSystem::new(&d.db)),
            Box::new(LcaSystem::new(&d.db)),
            Box::new(MlcaSystem::new(&d.db)),
            Box::new(QunitSystem::new("qunits", engine)),
        ];
        for s in &systems {
            assert!(s.answer("zzzz qqqq").is_none(), "{}", s.name());
        }
    }
}
