//! # qunit-relstore
//!
//! A from-scratch, in-memory relational storage and execution engine. This is
//! the "structured database" substrate that the qunits paper (CIDR 2009)
//! assumes: typed tables, primary/foreign keys, secondary and full-text
//! indexes, and an executor for select-project-join queries with parameter
//! bindings (the *base expressions* of qunit definitions are views over this
//! engine).
//!
//! The engine is deliberately small but complete: everything the paper's
//! algorithms observe — schema topology, foreign-key structure, value
//! strings, cardinality statistics — is first-class here.
//!
//! ## Quick tour
//!
//! ```
//! use relstore::{Database, TableSchema, ColumnDef, DataType, Value, QueryBuilder};
//!
//! let mut db = Database::new("demo");
//! let movie = db.create_table(
//!     TableSchema::new("movie")
//!         .column(ColumnDef::new("id", DataType::Int).not_null())
//!         .column(ColumnDef::new("title", DataType::Text))
//!         .primary_key("id"),
//! ).unwrap();
//! db.insert("movie", vec![Value::from(1), Value::from("Star Wars")]).unwrap();
//!
//! let q = QueryBuilder::new(&db).table("movie").unwrap().build();
//! let rs = db.execute(&q).unwrap();
//! assert_eq!(rs.len(), 1);
//! assert_eq!(db.table(movie).unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod database;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod query;
pub mod schema;
pub mod sqlgen;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod types;
pub mod view;

pub use database::Database;
pub use error::{Error, Result};
pub use exec::{execute, execute_nested_loop, ResultSet};
pub use expr::{ColRef, Predicate};
pub use index::{HashIndex, TextIndex};
pub use query::{Binding, JoinEdge, Query, QueryBuilder};
pub use schema::{Catalog, ColumnDef, ForeignKey, SchemaEdge, TableId, TableSchema};
pub use sqlgen::render_sql;
pub use stats::{ColumnStats, DatabaseStats, TableStats};
pub use table::Table;
pub use tuple::{Row, RowId};
pub use types::{DataType, Value};
pub use view::{View, ViewCatalog};
