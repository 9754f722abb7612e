//! Qunit derivation — the four sources of §4.
//!
//! * [`manual`] — expert-written catalogs (the paper's "human" qunits,
//!   modeled on the page types an IMDb-like site exposes).
//! * [`schema_data`] — §4.1: *queriability* scoring over schema + data
//!   statistics, expanding top-k1 entities with their top-k2 neighbors.
//! * [`querylog`] — §4.2: query *rollup* — an underspecified query's qunit
//!   is the aggregation of its popular specializations, mined from entity ↔
//!   schema-term co-occurrence in a keyword log.
//! * [`evidence`] — §4.3: *type signatures* of external pages (one person,
//!   forty movie titles ⇒ a filmography-shaped qunit).
//!
//! All derivations emit [`crate::QunitCatalog`]s of [`crate::QunitDefinition`]s
//! whose base expressions put the anchored table at FROM position 0 (the
//! executor seeds its join from there).

pub mod common;
pub mod evidence;
pub mod manual;
pub mod querylog;
pub mod schema_data;
