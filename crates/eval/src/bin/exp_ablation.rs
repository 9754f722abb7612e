//! Regenerates the three derivation ablations: A1, the schema-data k1 × k2
//! grid (§4.1: "k1 and k2 are tunable parameters"); A2, query-log rollup
//! quality vs log volume; A3, evidence-signature quality vs corpus size.
//! Each cell is the average panel quality of a qunit engine over the
//! derived catalog on the first 25 benchmark queries.

use datagen::evidence::EvidenceGenConfig;
use datagen::imdb::ImdbConfig;
use datagen::querylog::QueryLogConfig;
use qunit_eval::experiments::{ablation, fig3};
use qunit_eval::{report, Oracle};

fn main() {
    // Half exp_fig3's scale: every cell derives a catalog and builds an
    // engine, and A1 alone has twelve cells.
    let ctx = fig3::context(
        ImdbConfig {
            n_movies: 200,
            n_people: 400,
            ..ImdbConfig::default()
        },
        QueryLogConfig {
            n_queries: 6000,
            ..QueryLogConfig::default()
        },
        EvidenceGenConfig {
            n_pages: 250,
            ..EvidenceGenConfig::default()
        },
        Oracle::default(),
    );

    let rows: Vec<Vec<String>> = ablation::sweep_k1k2(&ctx, &[1, 2, 3], &[0, 1, 2, 3], 25)
        .iter()
        .map(|(k1, k2, s)| vec![k1.to_string(), k2.to_string(), format!("{s:.3}")])
        .collect();
    println!(
        "=== A1: schema-data k1 x k2 ===\n{}",
        report::table(&["k1", "k2", "avg quality"], &rows)
    );

    let sweeps = [
        (
            "A2: log volume vs quality",
            "log queries",
            ablation::sweep_log_size(&ctx, &[10, 100, 500, 2000, 6000], 25),
        ),
        (
            "A3: evidence pages vs quality",
            "evidence pages",
            ablation::sweep_evidence_pages(&ctx, &[10, 50, 100, 250], 25),
        ),
    ];
    for (title, column, sweep) in sweeps {
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .map(|(n, s)| vec![n.to_string(), format!("{s:.3}")])
            .collect();
        println!(
            "=== {title} ===\n{}",
            report::table(&[column, "avg quality"], &rows)
        );
    }
}
