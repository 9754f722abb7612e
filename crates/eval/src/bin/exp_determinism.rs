//! Determinism probe for the CI gate.
//!
//! Builds the qunit engine over the deterministic synthetic IMDb with a
//! caller-chosen build worker count and index shard count, then prints a
//! canonical transcript: the logical index fingerprint plus the full
//! result list (keys and exact score bit patterns) of a fixed query
//! workload. CI runs this twice — `--build-threads 1 --search-shards 1`
//! versus `--build-threads 8 --search-shards 8` — and `diff`s the output;
//! any byte of difference fails the build, turning the "1 worker ≡ N
//! workers" and "1 shard ≡ N shards" identities into a standing gate
//! instead of a claim in a doc comment.
//!
//! `--fault-schedule SPEC` installs a failpoint schedule
//! (`irengine::fault` syntax) before the build; an invalid spec panics.
//! With triggers no run reaches, the transcript must not move.
//!
//! ```sh
//! cargo run --release -p qunit-eval --bin exp_determinism -- \
//!     --build-threads 8 --search-shards 8
//! ```

use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{EngineConfig, QunitSearchEngine};

fn value_after<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"));
    Some(v)
}

fn arg_after(args: &[String], flag: &str, default: usize) -> usize {
    value_after(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("bad value for {flag}: {v}"))
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let build_threads = arg_after(&args, "--build-threads", 1);
    let search_shards = arg_after(&args, "--search-shards", 1);
    if let Some(spec) = value_after(&args, "--fault-schedule") {
        irengine::fault::install(spec)
            .unwrap_or_else(|e| panic!("invalid fault schedule {spec:?}: {e}"));
    }

    let data = ImdbData::generate(ImdbConfig {
        n_movies: 120,
        n_people: 240,
        ..ImdbConfig::default()
    });
    let engine = QunitSearchEngine::build(
        &data.db,
        expert_imdb_qunits(&data.db).expect("catalog"),
        EngineConfig {
            build_threads,
            search_shards,
            ..EngineConfig::default()
        },
    )
    .expect("engine");

    // The knobs under test are deliberately NOT printed: the whole point is
    // that the transcript below is a function of the data alone.
    println!("instances {}", engine.num_instances());
    println!("fingerprint {:016x}", engine.index_fingerprint());

    // Fixed workload covering every query shape the engine routes:
    // entity+attribute, bare entity (underspecified), singleton, nonsense.
    let mut queries: Vec<String> = Vec::new();
    for m in data.movies.iter().take(20) {
        queries.push(format!("{} cast", m.title));
        queries.push(format!("{} box office", m.title));
        queries.push(m.title.clone());
    }
    for p in data.people.iter().take(20) {
        queries.push(format!("{} movies", p.name));
    }
    queries.push("best rated charts".into());
    queries.push("zzzz qqqq".into());

    for q in &queries {
        println!("query {q}");
        for (rank, r) in engine.search_uncached(q, 10).iter().enumerate() {
            // exact bit pattern: "identical to the ulp" is diffable text
            println!("  {rank} {:016x} {}", r.score.to_bits(), r.key);
        }
    }
}
