//! Quickstart: build a small movie database by hand, write the paper's cast
//! qunit exactly as §2 does (base expression + conversion expression), and
//! run the paper's running example query — `star wars cast`.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use qunits::core::derive::manual::expert_imdb_qunits;
use qunits::core::{EngineConfig, QunitSearchEngine};
use qunits::datagen::imdb::imdb_schema;
use qunits::relstore::render_sql;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The Figure-2 schema, filled with a handful of rows.
    let mut db = imdb_schema();
    db.insert("genre", vec![1.into(), "scifi".into()])?;
    db.insert("locations", vec![1.into(), "london".into(), 1.into()])?;
    db.insert(
        "info",
        vec![
            1.into(),
            "a young hero discovers a secret plan".into(),
            "plot outline".into(),
        ],
    )?;
    db.insert(
        "info",
        vec![
            2.into(),
            "a detective hunts an elusive criminal".into(),
            "plot outline".into(),
        ],
    )?;
    db.insert(
        "person",
        vec![1.into(), "harrison ford".into(), 1942.into(), "m".into()],
    )?;
    db.insert(
        "person",
        vec![2.into(), "carrie fisher".into(), 1956.into(), "f".into()],
    )?;
    db.insert(
        "person",
        vec![3.into(), "mark hamill".into(), 1951.into(), "m".into()],
    )?;
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
    )?;
    db.insert(
        "movie",
        vec![
            2.into(),
            "blade runner".into(),
            1982.into(),
            8.1.into(),
            1.into(),
            1.into(),
            2.into(),
        ],
    )?;
    db.insert("cast", vec![1.into(), 1.into(), 1.into(), "actor".into()])?;
    db.insert("cast", vec![2.into(), 2.into(), 1.into(), "actress".into()])?;
    db.insert("cast", vec![3.into(), 3.into(), 1.into(), "actor".into()])?;
    db.insert("cast", vec![4.into(), 1.into(), 2.into(), "actor".into()])?;
    println!(
        "database: {} tables, {} rows\n",
        db.catalog().len(),
        db.total_rows()
    );

    // 2. A qunit catalog — the expert page-type catalog of §5.3. Its cast
    //    definition is literally the paper's §2 example; print it to show.
    let catalog = expert_imdb_qunits(&db)?;
    let cast_def = catalog.get("movie_cast").expect("cast qunit");
    println!("the paper's cast qunit definition:");
    println!(
        "  base expression      : {}",
        render_sql(&db, &cast_def.base.query)
    );
    println!(
        "  conversion expression: <{}> header={:?} foreach={:?}\n",
        cast_def.conversion.root_label, cast_def.conversion.header, cast_def.conversion.foreach
    );

    // 3. Build the engine: qunit instances are materialized, rendered, and
    //    indexed as independent documents. The engine shares the database,
    //    and renders a result's page again when a query returns it.
    let db = std::sync::Arc::new(db);
    let engine = QunitSearchEngine::build(&db, catalog, EngineConfig::default())?;
    println!(
        "engine ready: {} qunit instances indexed\n",
        engine.num_instances()
    );

    // 4. The running example: "star wars cast".
    for query in [
        "star wars cast",
        "star wars",
        "harrison ford movies",
        "blade runner plot",
    ] {
        println!("query: {query}");
        match engine.top(query) {
            Some(r) => {
                println!(
                    "  -> qunit {} (anchor {:?}, score {:.3})",
                    r.definition,
                    r.anchor_text(),
                    r.score
                );
                println!("     {}", r.rendered);
            }
            None => println!("  -> no result"),
        }
        println!();
    }
    Ok(())
}
