//! # qunit-datagraph
//!
//! The tuple data graph and graph-based keyword-search baselines the paper
//! compares against (Figure 3):
//!
//! * [`graph`] — tuples as nodes, foreign-key references as edges, with a
//!   keyword → node index.
//! * [`banks`] — a reimplementation of BANKS (Bhalotia et al., ICDE 2002):
//!   backward expansion from keyword node sets toward a connecting root,
//!   answers are rooted spanning trees scored by node prestige and tree
//!   compactness.
//! * [`discover`] — a DISCOVER-flavored baseline (Hristidis &
//!   Papakonstantinou, VLDB 2002): candidate join networks enumerated on the
//!   schema graph and instantiated through the relational executor.
//!
//! These baselines exist to reproduce the paper's central observation: a
//! spanning tree of matched tuples *demarcates* a result poorly — too much
//! via id-chains, too little via missing satellite attributes.

#![forbid(unsafe_code)]

pub mod banks;
pub mod discover;
pub mod graph;

pub use banks::{AnswerTree, BanksConfig, BanksEngine};
pub use discover::{CandidateNetwork, DiscoverConfig, DiscoverEngine, JoinedTupleTree};
pub use graph::{DataGraph, NodeId, NodeInfo};
