//! # qunit-xmltree
//!
//! An XML-tree view of a relational database and the two XML keyword-search
//! baselines the paper compares against in Figure 3:
//!
//! * [`lca`] — smallest lowest-common-ancestor (SLCA) keyword search in the
//!   style of XRank / XSearch: the answer is the smallest subtree containing
//!   at least one match of every keyword.
//! * [`mlca`] — the *Meaningful* LCA operator of Schema-Free XQuery (Li, Yu
//!   & Jagadish, VLDB 2004), which additionally requires each keyword to
//!   bind unambiguously under the answer root, discarding accidental
//!   connections through near-root ancestors.
//!
//! The tree is built by [`build::database_to_tree`], which mirrors how a
//! site crawl of an IMDb-like database looks: a `movies` section with nested
//! cast, and a `people` section with nested filmographies.

#![forbid(unsafe_code)]

pub mod build;
pub mod lca;
pub mod mlca;
pub mod tree;

pub use build::database_to_tree;
pub use lca::{LcaEngine, SubtreeAnswer};
pub use mlca::MlcaEngine;
pub use tree::{NodeId, XmlNode, XmlTree};
