//! Smoke test for the quickstart path: the contract promised by the
//! crate-level doctest in `src/lib.rs` and walked through in
//! `examples/quickstart.rs`, enforced here so it is exercised by plain
//! `cargo test` even when doctests or examples are skipped.

use qunits::core::derive::manual::expert_imdb_qunits;
use qunits::core::{EngineConfig, QunitSearchEngine};
use qunits::datagen::imdb::{ImdbConfig, ImdbData};

/// Tiny synthetic IMDb → expert catalog → `engine.top()` lands on the
/// paper's §2 running example: a `<movie> cast` query answers with the
/// `movie_cast` qunit.
#[test]
fn tiny_imdb_cast_query_answers_with_movie_cast_qunit() {
    let data = ImdbData::generate(ImdbConfig::tiny());
    let catalog = expert_imdb_qunits(&data.db).expect("expert catalog derives");
    let engine = QunitSearchEngine::build(&data.db, catalog, EngineConfig::default())
        .expect("engine builds");
    assert!(engine.num_instances() > 0, "no qunit instances indexed");

    let query = format!("{} cast", data.movies[0].title);
    let top = engine.top(&query).expect("cast query returns a result");
    assert_eq!(top.definition, "movie_cast");
    assert!(
        top.score.is_finite() && top.score > 0.0,
        "score should be positive and finite, got {}",
        top.score
    );
    assert!(!top.rendered.is_empty(), "result renders to a page");
}

/// Same contract on the example's handmade Figure-2 database, pinned to the
/// literal `star wars cast` query so the doc-comment walkthrough cannot rot.
#[test]
fn handmade_db_star_wars_cast_matches_example_walkthrough() {
    let mut db = qunits::datagen::imdb::imdb_schema();
    db.insert("genre", vec![1.into(), "scifi".into()]).unwrap();
    db.insert("locations", vec![1.into(), "london".into(), 1.into()])
        .unwrap();
    db.insert(
        "info",
        vec![
            1.into(),
            "a young hero discovers a secret plan".into(),
            "plot outline".into(),
        ],
    )
    .unwrap();
    db.insert(
        "person",
        vec![1.into(), "harrison ford".into(), 1942.into(), "m".into()],
    )
    .unwrap();
    db.insert(
        "movie",
        vec![
            1.into(),
            "star wars".into(),
            1977.into(),
            8.6.into(),
            1.into(),
            1.into(),
            1.into(),
        ],
    )
    .unwrap();
    db.insert("cast", vec![1.into(), 1.into(), 1.into(), "actor".into()])
        .unwrap();

    let catalog = expert_imdb_qunits(&db).expect("expert catalog derives");
    assert!(
        catalog.get("movie_cast").is_some(),
        "expert catalog must define the paper's cast qunit"
    );
    let db = std::sync::Arc::new(db);
    let engine =
        QunitSearchEngine::build(&db, catalog, EngineConfig::default()).expect("engine builds");
    let top = engine
        .top("star wars cast")
        .expect("query returns a result");
    assert_eq!(top.definition, "movie_cast");
}
