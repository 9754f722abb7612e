//! The full pipeline on the synthetic IMDb: generate the database, a query
//! log, and an evidence corpus; run all four derivations (§4.1 schema-data,
//! §4.2 query-log rollup, §4.3 evidence signatures, manual/expert); then
//! search each resulting engine with the same queries to see how catalogs
//! differ.
//!
//! ```sh
//! cargo run --release --example imdb_search
//! ```

use qunits::core::derive::evidence::{self as ev_derive, EvidenceDeriveConfig, EvidencePage};
use qunits::core::derive::manual::expert_imdb_qunits;
use qunits::core::derive::querylog::{self as ql_derive, QueryLogDeriveConfig};
use qunits::core::derive::schema_data::{self as sd_derive, queriability, SchemaDataConfig};
use qunits::core::{EngineConfig, EntityDictionary, QunitSearchEngine, Segmenter};
use qunits::datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
use qunits::datagen::imdb::{ImdbConfig, ImdbData};
use qunits::datagen::querylog::{QueryLog, QueryLogConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = ImdbData::generate(ImdbConfig {
        n_movies: 300,
        n_people: 600,
        ..Default::default()
    });
    println!(
        "synthetic IMDb: {} tables, {} rows ({} movies, {} people)\n",
        data.db.catalog().len(),
        data.db.total_rows(),
        data.movies.len(),
        data.people.len()
    );

    // §4.1 — queriability scores drive the schema-data derivation.
    println!("queriability ranking (top 6):");
    for q in queriability(&data.db).into_iter().take(6) {
        println!(
            "  {:12} score {:8.2}  label {:?}",
            q.table, q.score, q.label
        );
    }
    let sd = sd_derive::derive(&data.db, &SchemaDataConfig::default())?;

    // §4.2 — rollup over a generated query log.
    let log = QueryLog::generate(
        &data,
        QueryLogConfig {
            n_queries: 8000,
            ..Default::default()
        },
    );
    let segmenter = Segmenter::new(EntityDictionary::from_database(
        &data.db,
        EntityDictionary::imdb_specs(),
    ));
    let raw: Vec<String> = log.records.iter().map(|r| r.raw.clone()).collect();
    let ql = ql_derive::derive(&data.db, &segmenter, &raw, &QueryLogDeriveConfig::default())?;

    // §4.3 — type signatures over an evidence corpus.
    let corpus = EvidenceCorpus::generate(
        &data,
        EvidenceGenConfig {
            n_pages: 300,
            ..Default::default()
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
    let ev = ev_derive::derive(&data.db, &dict, &pages, &EvidenceDeriveConfig::default())?;

    // Manual / expert.
    let manual = expert_imdb_qunits(&data.db)?;

    println!("\nderived catalogs:");
    for (name, cat) in [
        ("schema-data", &sd),
        ("query-log", &ql),
        ("evidence", &ev),
        ("manual", &manual),
    ] {
        let defs: Vec<String> = cat.iter().map(|d| d.name.clone()).collect();
        println!(
            "  {:11} {:2} definitions: {}",
            name,
            cat.len(),
            defs.join(", ")
        );
    }

    // Search every engine with the same queries.
    let queries = vec![
        format!("{} cast", data.movies[0].title),
        data.people[0].name.clone(),
        format!("{} movies", data.people[1].name),
        format!("{} box office", data.movies[1].title),
    ];
    for (name, cat) in [
        ("schema-data", sd),
        ("query-log", ql),
        ("evidence", ev),
        ("manual", manual),
    ] {
        let engine = QunitSearchEngine::build(&data.db, cat, EngineConfig::default())?;
        println!(
            "\n=== {} engine ({} instances) ===",
            name,
            engine.num_instances()
        );
        for q in &queries {
            match engine.top(q) {
                Some(r) => println!("  {:40} -> {} ({:?})", q, r.definition, r.anchor_text()),
                None => println!("  {:40} -> (no result)", q),
            }
        }
    }
    Ok(())
}
