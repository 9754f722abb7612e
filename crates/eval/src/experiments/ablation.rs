//! Derivation ablations, printed by `exp_ablation`: the sensitivity of each
//! automatic derivation to its tunables.
//!
//! * **A1** — schema/data derivation: the k1 × k2 expansion grid (§4.1 says
//!   "k1 and k2 are tunable parameters").
//! * **A2** — query-log derivation vs. log volume (how much log does rollup
//!   need before it finds the right schema links?).
//! * **A3** — evidence derivation vs. corpus size and the min-support
//!   threshold.

use crate::experiments::fig3::{score_system, EvalContext};
use crate::systems::QunitSystem;
use qunit_core::derive::evidence::{self as ev_derive, EvidenceDeriveConfig};
use qunit_core::derive::querylog::{self as ql_derive, QueryLogDeriveConfig};
use qunit_core::derive::schema_data::{self as sd_derive, SchemaDataConfig};
use qunit_core::{EngineConfig, EntityDictionary, QunitCatalog};

fn score_catalog(ctx: &EvalContext, name: &str, cat: QunitCatalog, n_queries: usize) -> f64 {
    let engine = qunit_core::QunitSearchEngine::build(&ctx.data.db, cat, EngineConfig::default())
        .expect("engine build");
    let sys = QunitSystem::new(name, engine);
    let queries = ctx.workload.take(n_queries);
    score_system(&sys, &queries, &ctx.oracle).mean
}

/// A1: quality for each (k1, k2) of the schema-data derivation.
pub fn sweep_k1k2(
    ctx: &EvalContext,
    k1s: &[usize],
    k2s: &[usize],
    n_queries: usize,
) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::with_capacity(k1s.len() * k2s.len());
    for &k1 in k1s {
        for &k2 in k2s {
            let cat =
                sd_derive::derive(&ctx.data.db, &SchemaDataConfig { k1, k2 }).expect("derivation");
            let score = score_catalog(ctx, &format!("sd-k1{k1}-k2{k2}"), cat, n_queries);
            out.push((k1, k2, score));
        }
    }
    out
}

/// A2: quality of the query-log derivation as the log prefix grows.
pub fn sweep_log_size(ctx: &EvalContext, sizes: &[usize], n_queries: usize) -> Vec<(usize, f64)> {
    let raw: Vec<String> = ctx.log.records.iter().map(|r| r.raw.clone()).collect();
    let mut out = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let prefix = &raw[..n.min(raw.len())];
        let cat = ql_derive::derive(
            &ctx.data.db,
            &ctx.segmenter,
            prefix,
            &QueryLogDeriveConfig::default(),
        )
        .expect("derivation");
        let score = score_catalog(ctx, &format!("ql-n{n}"), cat, n_queries);
        out.push((n.min(raw.len()), score));
    }
    out
}

/// A3: quality of the evidence derivation as the page corpus grows.
pub fn sweep_evidence_pages(
    ctx: &EvalContext,
    sizes: &[usize],
    n_queries: usize,
) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(sizes.len());
    let dict = EntityDictionary::from_database(&ctx.data.db, EntityDictionary::imdb_specs());
    for &n in sizes {
        let pages = &ctx.pages[..n.min(ctx.pages.len())];
        let cat = ev_derive::derive(&ctx.data.db, &dict, pages, &EvidenceDeriveConfig::default())
            .expect("derivation");
        let score = score_catalog(ctx, &format!("ev-n{n}"), cat, n_queries);
        out.push((n.min(ctx.pages.len()), score));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig3::tiny_context;

    #[test]
    fn k2_expansion_helps_then_saturates() {
        let ctx = tiny_context();
        let grid = sweep_k1k2(&ctx, &[2], &[0, 2, 4], 15);
        assert_eq!(grid.len(), 3);
        let s0 = grid[0].2;
        let s2 = grid[1].2;
        // joining in neighbors must help versus bare single-table qunits
        assert!(s2 > s0, "k2=2 ({s2:.3}) should beat k2=0 ({s0:.3})");
        for (_, _, s) in &grid {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn log_volume_must_clear_min_support_before_derivation_works() {
        // A handful of log lines cannot clear min_support: the catalog is
        // empty and quality ~0. A real log volume produces a usable catalog.
        // (Beyond saturation quality is NOT monotone — specific attribute
        // qunits start winning underspecified queries whose gold need was a
        // summary; `exp_ablation`'s A2 table shows this curve.)
        let ctx = tiny_context();
        let sweep = sweep_log_size(&ctx, &[5, 3000], 15);
        assert_eq!(sweep.len(), 2);
        let (small_n, small_s) = sweep[0];
        let (big_n, big_s) = sweep[1];
        assert!(big_n > small_n);
        assert!(
            small_s < 0.2,
            "tiny log should derive ~nothing: {small_s:.3}"
        );
        assert!(
            big_s > small_s + 0.2,
            "full log should beat tiny log clearly: {small_s:.3} → {big_s:.3}"
        );
    }

    #[test]
    fn more_evidence_is_no_worse() {
        let ctx = tiny_context();
        let sweep = sweep_evidence_pages(&ctx, &[10, 150], 15);
        let (_, small_s) = sweep[0];
        let (_, big_s) = sweep[1];
        assert!(
            big_s >= small_s - 0.05,
            "quality degraded with more evidence: {small_s:.3} → {big_s:.3}"
        );
    }
}
