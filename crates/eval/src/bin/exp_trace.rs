fn main() {
    use datagen::evidence::EvidenceGenConfig;
    use datagen::imdb::ImdbConfig;
    use datagen::querylog::QueryLogConfig;
    use qunit_core::{EngineConfig, QunitSearchEngine};
    use qunit_eval::experiments::fig3;
    use qunit_eval::systems::{QunitSystem, SearchSystem};
    use qunit_eval::Oracle;
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
    let (_, ql, _, _) = fig3::automatic_catalogs(&ctx);
    println!("query-log catalog:");
    for d in ql.iter() {
        println!(
            "  {:24} util={:.2} anchor={:?} intent={:?} covered={:?}",
            d.name,
            d.utility,
            d.anchor.as_ref().map(|a| a.qualified()),
            d.intent_terms,
            d.covered_fields
        );
    }
    let engine = QunitSearchEngine::build(&ctx.data.db, ql, EngineConfig::default()).unwrap();
    // Run twice with QUNITS_SNAPSHOT_PATH set to see a restart's phases.
    let t = engine.build_timings();
    println!(
        "build phases (index {}): dictionary {:.1?} · materialize {:.1?} · index {:.1?} · \
         snapshot save {:.1?} · doc_def {:.1?}",
        if t.from_snapshot {
            "loaded from snapshot"
        } else {
            "built cold"
        },
        t.dictionary,
        t.materialize,
        t.index,
        t.snapshot_save,
        t.doc_def,
    );
    let sys = QunitSystem::new("qunits-query-log", engine);
    let queries = ctx.workload.take(12);
    let raws: Vec<&str> = queries.iter().map(|q| q.raw.as_str()).collect();
    // answer the trace slice in one concurrent batch, then judge per query
    let answers = sys.answer_batch(&raws);
    for (q, a) in queries.iter().zip(&answers) {
        let r = ctx.oracle.rate(&q.raw, sys.name(), &q.gold, a.as_ref());
        let top = sys.engine().top(&q.raw);
        println!(
            "{:40} need={:16} mean={:.2} -> {:?}",
            q.raw,
            q.gold.need.to_string(),
            r.mean,
            top.map(|t| (t.definition.clone(), t.anchor_text()))
        );
    }
}
