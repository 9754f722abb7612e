//! Cross-crate integration tests: the full derive → materialize → index →
//! search → judge pipeline for every derivation strategy, plus the facade's
//! public API surface.

use qunits::core::derive::evidence::{self as ev_derive, EvidenceDeriveConfig, EvidencePage};
use qunits::core::derive::manual::expert_imdb_qunits;
use qunits::core::derive::querylog::{self as ql_derive, QueryLogDeriveConfig};
use qunits::core::derive::schema_data::{self as sd_derive, SchemaDataConfig};
use qunits::core::{EngineConfig, EntityDictionary, QunitSearchEngine, Segmenter};
use qunits::datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
use qunits::datagen::imdb::{ImdbConfig, ImdbData};
use qunits::datagen::querylog::{QueryLog, QueryLogConfig};
use qunits::eval::oracle::Oracle;
use qunits::eval::systems::{QunitSystem, SearchSystem};
use qunits::eval::workload::Workload;

fn data() -> ImdbData {
    ImdbData::generate(ImdbConfig::tiny())
}

#[test]
fn manual_pipeline_end_to_end() {
    let data = data();
    let engine = QunitSearchEngine::build(
        &data.db,
        expert_imdb_qunits(&data.db).unwrap(),
        EngineConfig::default(),
    )
    .unwrap();
    // every movie with cast must be findable through its cast qunit
    let movie = &data.movies[0];
    let r = engine.top(&format!("{} cast", movie.title)).unwrap();
    assert_eq!(r.definition, "movie_cast");
    assert!(r.text.contains(&movie.title));
}

#[test]
fn schema_data_pipeline_end_to_end() {
    let data = data();
    let cat = sd_derive::derive(&data.db, &SchemaDataConfig::default()).unwrap();
    assert!(!cat.is_empty());
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();
    let r = engine.top(&data.movies[0].title).unwrap();
    assert_eq!(
        r.anchor_text().as_deref(),
        Some(data.movies[0].title.as_str())
    );
}

#[test]
fn querylog_pipeline_end_to_end() {
    let data = data();
    let log = QueryLog::generate(
        &data,
        QueryLogConfig {
            n_queries: 3000,
            ..QueryLogConfig::tiny()
        },
    );
    let segmenter = Segmenter::new(EntityDictionary::from_database(
        &data.db,
        EntityDictionary::imdb_specs(),
    ));
    let raw: Vec<String> = log.records.iter().map(|r| r.raw.clone()).collect();
    let cat =
        ql_derive::derive(&data.db, &segmenter, &raw, &QueryLogDeriveConfig::default()).unwrap();
    assert!(!cat.is_empty(), "log-derived catalog should not be empty");
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();
    let r = engine.top(&format!("{} cast", data.movies[0].title));
    assert!(r.is_some());
}

#[test]
fn evidence_pipeline_end_to_end() {
    let data = data();
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
    let dict = EntityDictionary::from_database(&data.db, EntityDictionary::imdb_specs());
    let cat = ev_derive::derive(&data.db, &dict, &pages, &EvidenceDeriveConfig::default()).unwrap();
    assert!(
        !cat.is_empty(),
        "evidence-derived catalog should not be empty"
    );
    let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default()).unwrap();
    assert!(engine.num_instances() > 0);
}

#[test]
fn workload_judging_end_to_end() {
    let data = data();
    let log = QueryLog::generate(
        &data,
        QueryLogConfig {
            n_queries: 3000,
            ..QueryLogConfig::tiny()
        },
    );
    let segmenter = Segmenter::new(EntityDictionary::from_database(
        &data.db,
        EntityDictionary::imdb_specs(),
    ));
    let workload = Workload::paper_defaults(&log, &segmenter);
    assert_eq!(workload.queries.len(), 28);

    let engine = QunitSearchEngine::build(
        &data.db,
        expert_imdb_qunits(&data.db).unwrap(),
        EngineConfig::default(),
    )
    .unwrap();
    let system = QunitSystem::new("qunits-human", engine);
    let oracle = Oracle::default();
    let mut total = 0.0;
    for q in workload.take(25) {
        let a = system.answer(&q.raw);
        let r = oracle.rate(&q.raw, system.name(), &q.gold, a.as_ref());
        assert!((0.0..=1.0).contains(&r.mean));
        total += r.mean;
    }
    // the human catalog must do clearly better than chance on its own workload
    assert!(
        total / 25.0 > 0.35,
        "human qunits scored only {:.3}",
        total / 25.0
    );
}

#[test]
fn facade_reexports_compile_and_work() {
    // touch every facade module so a re-export regression fails to compile
    let mut db = qunits::relstore::Database::new("t");
    db.create_table(
        qunits::relstore::TableSchema::new("movie")
            .column(
                qunits::relstore::ColumnDef::new("id", qunits::relstore::DataType::Int).not_null(),
            )
            .column(qunits::relstore::ColumnDef::new(
                "title",
                qunits::relstore::DataType::Text,
            ))
            .primary_key("id"),
    )
    .unwrap();
    db.insert("movie", vec![1.into(), "solaris".into()])
        .unwrap();

    let mut b = qunits::ir::IndexBuilder::new();
    b.add(qunits::ir::Document::new("d").field("body", "solaris"));
    let ix = b.build();
    assert_eq!(ix.num_docs(), 1);

    let g = qunits::datagraph::DataGraph::build(&db);
    assert_eq!(g.num_nodes(), 1);

    let t = qunits::xmltree::database_to_tree(&db);
    assert!(!t.nodes_matching("solaris").is_empty());

    assert_eq!(qunits::eval::Rating::Correct.score(), 1.0);
    assert_eq!(qunits::datagen::needs::ALL_NEEDS.len(), 13);
}
