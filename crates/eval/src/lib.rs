//! # qunit-eval
//!
//! The evaluation harness reproducing §5 of the paper:
//!
//! * [`rubric`] — Table 2's five survey options and their scores.
//! * [`oracle`] — the simulated judge panel replacing the paper's 20
//!   Mechanical Turk raters: a deterministic gold-standard quality measure
//!   (entity presence + attribute coverage/precision against the query's
//!   generating information need) bucketed into the Table-2 rubric, plus
//!   seeded per-judge noise so inter-judge agreement can be reported like
//!   the paper does.
//! * [`systems`] — a common [`systems::SearchSystem`] interface wrapping
//!   every comparator: BANKS, DISCOVER, XML LCA, XML MLCA, and qunit
//!   engines over each derivation catalog (schema-data, query-log,
//!   evidence, combined, human/expert).
//! * [`workload`] — the §5.2 movie query-log benchmark builder (top-14
//!   templates × 2 → 28 queries, 25 used for judging).
//! * [`experiments`] — drivers for Table 1, the §5.2 log statistics,
//!   Figure 3, and the derivation ablations (`exp_ablation`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod oracle;
pub mod report;
pub mod rubric;
pub mod systems;
pub mod workload;

pub use oracle::{GoldStandard, Oracle, PanelRating};
pub use rubric::Rating;
pub use systems::{SearchSystem, SystemAnswer};
pub use workload::{Workload, WorkloadQuery};
