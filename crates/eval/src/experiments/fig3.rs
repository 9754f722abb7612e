//! Figure 3 (§5.3) — result quality of every system on the movie query-log
//! benchmark, as judged by the panel.
//!
//! Systems compared, as in the paper: BANKS, XML LCA, XML MLCA, qunits from
//! each automatic derivation (§4.1 schema-data, §4.2 query-log, §4.3
//! evidence, plus their union), human/expert qunits, and the theoretical
//! maximum. DISCOVER is included as an extra graph baseline.
//!
//! The target is the *shape* of the paper's figure: BANKS < LCA < MLCA <
//! automatic qunits < human qunits < theoretical max.

use crate::oracle::{Oracle, PanelRating};
use crate::systems::{
    BanksSystem, DiscoverSystem, LcaSystem, MlcaSystem, QunitSystem, SearchSystem,
};
use crate::workload::{Workload, WorkloadQuery};
use datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
use datagen::imdb::{ImdbConfig, ImdbData};
use datagen::querylog::{QueryLog, QueryLogConfig};
use qunit_core::derive::evidence::{self as ev_derive, EvidenceDeriveConfig, EvidencePage};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::derive::querylog::{self as ql_derive, QueryLogDeriveConfig};
use qunit_core::derive::schema_data::{self as sd_derive, SchemaDataConfig};
use qunit_core::{EngineConfig, EntityDictionary, QunitCatalog, QunitSearchEngine, Segmenter};

/// Everything the experiments share: data, log, workload, judge panel.
pub struct EvalContext {
    /// The synthetic database.
    pub data: ImdbData,
    /// The synthetic query log.
    pub log: QueryLog,
    /// Shared segmenter (entity dictionary over the database).
    pub segmenter: Segmenter,
    /// The §5.2 benchmark workload.
    pub workload: Workload,
    /// External-evidence pages (converted to the derivation input type).
    pub pages: Vec<EvidencePage>,
    /// The judge panel.
    pub oracle: Oracle,
}

/// Build a context from generator configs.
pub fn context(
    imdb: ImdbConfig,
    logcfg: QueryLogConfig,
    evcfg: EvidenceGenConfig,
    oracle: Oracle,
) -> EvalContext {
    let data = ImdbData::generate(imdb);
    let log = QueryLog::generate(&data, logcfg);
    let segmenter = Segmenter::new(EntityDictionary::from_database(
        &data.db,
        EntityDictionary::imdb_specs(),
    ));
    let workload = Workload::paper_defaults(&log, &segmenter);
    let corpus = EvidenceCorpus::generate(&data, evcfg);
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
    EvalContext {
        data,
        log,
        segmenter,
        workload,
        pages,
        oracle,
    }
}

/// A tiny context for unit tests (seconds, not minutes, in debug builds).
pub fn tiny_context() -> EvalContext {
    context(
        ImdbConfig::tiny(),
        QueryLogConfig {
            n_queries: 3000,
            ..QueryLogConfig::tiny()
        },
        EvidenceGenConfig {
            n_pages: 150,
            ..EvidenceGenConfig::tiny()
        },
        Oracle::default(),
    )
}

/// One system's aggregate result.
#[derive(Debug, Clone)]
pub struct SystemScore {
    /// System name.
    pub system: String,
    /// Mean panel score over the workload (the Figure-3 bar).
    pub mean: f64,
    /// Per-query panel means, workload order.
    pub per_query: Vec<f64>,
}

/// The full Figure-3 artifact.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Scores, ascending by mean (paper ordering).
    pub scores: Vec<SystemScore>,
    /// The theoretical-maximum data point.
    pub theoretical_max: f64,
    /// Fraction of (system, query) panels with ≥80% modal agreement
    /// (the paper reports "a third of the questions").
    pub agreement_80: f64,
    /// Number of workload queries judged.
    pub n_queries: usize,
}

/// Rate one system over a workload slice: answer the whole slice in one
/// batch (systems with a concurrent query path fan it across threads), then
/// run the judge panel once per query.
pub fn rate_system(
    system: &dyn SearchSystem,
    queries: &[&WorkloadQuery],
    oracle: &Oracle,
) -> Vec<PanelRating> {
    let raws: Vec<&str> = queries.iter().map(|q| q.raw.as_str()).collect();
    let answers = system.answer_batch(&raws);
    queries
        .iter()
        .zip(&answers)
        .map(|(q, answer)| oracle.rate(&q.raw, system.name(), &q.gold, answer.as_ref()))
        .collect()
}

/// Aggregate panel ratings into a [`SystemScore`] (the Figure-3 bar).
pub fn score_from_ratings(system: &str, ratings: &[PanelRating]) -> SystemScore {
    let per_query: Vec<f64> = ratings.iter().map(|r| r.mean).collect();
    let mean = per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
    SystemScore {
        system: system.to_string(),
        mean,
        per_query,
    }
}

/// Score one system over a workload slice.
pub fn score_system(
    system: &dyn SearchSystem,
    queries: &[&WorkloadQuery],
    oracle: &Oracle,
) -> SystemScore {
    score_from_ratings(system.name(), &rate_system(system, queries, oracle))
}

/// Derive the three automatic catalogs plus their union from a context.
pub fn automatic_catalogs(
    ctx: &EvalContext,
) -> (QunitCatalog, QunitCatalog, QunitCatalog, QunitCatalog) {
    let sd = sd_derive::derive(&ctx.data.db, &SchemaDataConfig::default())
        .expect("schema-data derivation");
    let raw_queries: Vec<String> = ctx.log.records.iter().map(|r| r.raw.clone()).collect();
    let ql = ql_derive::derive(
        &ctx.data.db,
        &ctx.segmenter,
        &raw_queries,
        &QueryLogDeriveConfig::default(),
    )
    .expect("query-log derivation");
    let dict = EntityDictionary::from_database(&ctx.data.db, EntityDictionary::imdb_specs());
    let evd = ev_derive::derive(
        &ctx.data.db,
        &dict,
        &ctx.pages,
        &EvidenceDeriveConfig::default(),
    )
    .expect("evidence derivation");
    let mut combined = QunitCatalog::new();
    combined.merge(sd.clone());
    combined.merge(evd.clone());
    combined.merge(ql.clone()); // log evidence wins name clashes: most direct
    (sd, ql, evd, combined)
}

/// Run the full Figure-3 experiment on `n_queries` workload queries.
pub fn run(ctx: &EvalContext, n_queries: usize, include_discover: bool) -> Fig3Result {
    let queries = ctx.workload.take(n_queries);
    let (sd, ql, evd, combined) = automatic_catalogs(ctx);

    let build = |name: &str, cat: QunitCatalog| -> QunitSystem {
        QunitSystem::new(
            name,
            QunitSearchEngine::build(&ctx.data.db, cat, EngineConfig::default())
                .expect("engine build"),
        )
    };

    let mut systems: Vec<Box<dyn SearchSystem>> = vec![
        Box::new(BanksSystem::new(&ctx.data.db)),
        Box::new(LcaSystem::new(&ctx.data.db)),
        Box::new(MlcaSystem::new(&ctx.data.db)),
        Box::new(build("qunits-schema-data", sd)),
        Box::new(build("qunits-query-log", ql)),
        Box::new(build("qunits-evidence", evd)),
        Box::new(build("qunits-auto", combined)),
        Box::new(build(
            "qunits-human",
            expert_imdb_qunits(&ctx.data.db).expect("expert catalog"),
        )),
    ];
    if include_discover {
        systems.insert(1, Box::new(DiscoverSystem::new(&ctx.data.db)));
    }

    let mut scores: Vec<SystemScore> = Vec::with_capacity(systems.len());
    let mut agreements: Vec<f64> = Vec::new();
    for sys in &systems {
        // One batched answering pass yields both the Figure-3 mean and the
        // agreement statistic (the old code answered every query twice).
        let ratings = rate_system(sys.as_ref(), &queries, &ctx.oracle);
        agreements.extend(ratings.iter().map(|r| r.majority));
        scores.push(score_from_ratings(sys.name(), &ratings));
    }
    scores.sort_by(|a, b| {
        a.mean
            .partial_cmp(&b.mean)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let theoretical_max = queries
        .iter()
        .map(|q| ctx.oracle.theoretical_max(&q.raw))
        .sum::<f64>()
        / queries.len().max(1) as f64;
    let agreement_80 =
        agreements.iter().filter(|&&a| a >= 0.8).count() as f64 / agreements.len().max(1) as f64;

    Fig3Result {
        scores,
        theoretical_max,
        agreement_80,
        n_queries: queries.len(),
    }
}

/// The systems the paper's reference shape orders, worst first, each as
/// `(system name, the paper's label)`.
pub const PAPER_ORDER: &[(&str, &str)] = &[
    ("banks", "BANKS"),
    ("lca", "LCA"),
    ("mlca", "MLCA"),
    ("qunits-auto", "qunits(auto)"),
    ("qunits-human", "qunits(human)"),
    ("theoretical-max", "max"),
];

/// `(label, score)` pairs as a chain in the given order, each adjacent pair
/// joined by `<` where the score rises and by `≥` where it does not.
pub fn order_chain(items: &[(&str, f64)]) -> String {
    let mut out = items
        .first()
        .map_or(String::new(), |(label, _)| label.to_string());
    for pair in items.windows(2) {
        let rel = if pair[0].1 < pair[1].1 { '<' } else { '≥' };
        out.push_str(&format!(" {rel} {}", pair[1].0));
    }
    out
}

impl Fig3Result {
    /// The systems of [`PAPER_ORDER`] this run scored, in that order, as
    /// [`order_chain`] joins them by their measured scores.
    pub fn measured_order(&self) -> String {
        let scored: Vec<(&str, f64)> = PAPER_ORDER
            .iter()
            .filter_map(|&(system, label)| match system {
                "theoretical-max" => Some((label, self.theoretical_max)),
                _ => Some((label, self.score_of(system)?)),
            })
            .collect();
        order_chain(&scored)
    }

    /// Score of a system by name.
    pub fn score_of(&self, system: &str) -> Option<f64> {
        self.scores
            .iter()
            .find(|s| s.system == system)
            .map(|s| s.mean)
    }

    /// Render the Figure-3-style chart and table.
    pub fn render(&self) -> String {
        let mut items: Vec<(String, f64)> = self
            .scores
            .iter()
            .map(|s| (s.system.clone(), s.mean))
            .collect();
        items.push(("theoretical-max".into(), self.theoretical_max));
        let mut out = String::from("Figure 3 — average result quality per algorithm\n\n");
        out.push_str(&crate::report::bar_chart(&items, 40));
        out.push_str(&format!(
            "\n{} queries judged; {:.0}% of panels had >=80% judge agreement\n",
            self.n_queries,
            self.agreement_80 * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Building every system is the expensive part, so the paper-shape
    // assertions share one run.
    #[test]
    fn figure3_shape_reproduced() {
        let ctx = tiny_context();
        let result = run(&ctx, 25, false);

        let banks = result.score_of("banks").expect("banks scored");
        let lca = result.score_of("lca").expect("lca scored");
        let mlca = result.score_of("mlca").expect("mlca scored");
        let auto = result.score_of("qunits-auto").expect("auto scored");
        let human = result.score_of("qunits-human").expect("human scored");

        // The paper's headline ordering. Allow ties at equality boundaries
        // but require the big separations strictly.
        assert!(mlca >= lca, "mlca {mlca:.3} < lca {lca:.3}");
        assert!(auto > banks, "auto {auto:.3} <= banks {banks:.3}");
        assert!(auto > lca, "auto {auto:.3} <= lca {lca:.3}");
        assert!(auto > mlca, "auto {auto:.3} <= mlca {mlca:.3}");
        assert!(human >= auto, "human {human:.3} < auto {auto:.3}");
        assert!(
            result.theoretical_max > human,
            "max {:.3} <= human {human:.3}",
            result.theoretical_max
        );
        assert!(result.theoretical_max > 0.9);

        // "still quite far away from reaching the theoretical maximum"
        assert!(human < result.theoretical_max - 0.05);

        // qunits beat the best baseline by a visible factor (paper: ~1.5×+)
        let best_baseline = banks.max(lca).max(mlca);
        assert!(
            human > best_baseline * 1.2,
            "human {human:.3} vs best baseline {best_baseline:.3}"
        );

        // agreement statistic is populated and plausible
        assert!(result.agreement_80 > 0.0 && result.agreement_80 <= 1.0);

        let measured = result.measured_order();
        assert!(measured.starts_with("BANKS ") && measured.ends_with(" < max"));

        // render sanity
        let r = result.render();
        assert!(r.contains("qunits-human"));
        assert!(r.contains("theoretical-max"));
    }

    #[test]
    fn the_chain_marks_each_rise_and_each_fall_or_tie() {
        assert_eq!(order_chain(&[]), "");
        assert_eq!(order_chain(&[("A", 0.5)]), "A");
        assert_eq!(
            order_chain(&[("A", 0.1), ("B", 0.2), ("C", 0.15), ("D", 0.15), ("E", 1.0)]),
            "A < B ≥ C ≥ D < E"
        );
    }

    #[test]
    fn per_query_scores_bounded() {
        let ctx = tiny_context();
        let queries = ctx.workload.take(10);
        let sys = BanksSystem::new(&ctx.data.db);
        let s = score_system(&sys, &queries, &ctx.oracle);
        assert_eq!(s.per_query.len(), 10);
        for v in &s.per_query {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
