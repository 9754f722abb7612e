//! Experiment drivers — one module per paper artifact, each printed by an
//! `exp_*` binary: Table 1 (`exp_table1`), the §5.2 log statistics
//! (`exp_querylog`), Figure 3 (`exp_fig3`) and the derivation ablations
//! (`exp_ablation`).

pub mod ablation;
pub mod fig3;
pub mod querylog_stats;
pub mod table1;
