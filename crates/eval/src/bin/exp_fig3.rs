//! Regenerates Figure 3 (§5.3): average result quality per algorithm on the
//! 25-query benchmark, judged by the 20-judge simulated panel.

use datagen::evidence::EvidenceGenConfig;
use datagen::imdb::ImdbConfig;
use datagen::querylog::QueryLogConfig;
use qunit_eval::experiments::fig3;
use qunit_eval::Oracle;

fn main() {
    // Moderate scale so the run finishes in seconds in release builds;
    // scale up via the config fields for bigger studies.
    let ctx = fig3::context(
        ImdbConfig {
            n_people: 800,
            n_movies: 400,
            ..ImdbConfig::default()
        },
        QueryLogConfig {
            n_queries: 10_000,
            ..QueryLogConfig::default()
        },
        EvidenceGenConfig {
            n_pages: 400,
            ..EvidenceGenConfig::default()
        },
        Oracle::default(),
    );
    let result = fig3::run(&ctx, 25, true);
    println!("{}", result.render());
    let labels: Vec<&str> = fig3::PAPER_ORDER.iter().map(|&(_, label)| label).collect();
    println!("paper reference shape: {}", labels.join(" < "));
    println!("measured in this run:  {}", result.measured_order());
}
