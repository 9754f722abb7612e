//! The database: a catalog plus one [`Table`] per schema, with insert-time
//! foreign-key enforcement and convenience execution entry points.

use crate::error::{Error, Result};
use crate::exec::{self, ResultSet};
use crate::query::{Binding, Query};
use crate::schema::{Catalog, TableId, TableSchema};
use crate::table::Table;
use crate::tuple::RowId;
use crate::types::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// An in-memory relational database.
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    catalog: Catalog,
    tables: Vec<Table>,
    enforce_fk: bool,
    /// Unique in the process, renewed by every change that may add, move or
    /// remove a row: row ids kept from a join are read back only from the
    /// rows they came from.
    version: u64,
}

/// A version no database has had before.
fn next_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Database {
    /// Empty database with foreign keys enforced.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            catalog: Catalog::new(),
            tables: Vec::new(),
            enforce_fk: true,
            version: next_version(),
        }
    }

    /// This database's version: equal only for a database and its clones
    /// while none of them has changed since.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Toggle foreign-key enforcement (bulk loaders may switch it off and
    /// [`Database::check_integrity`] afterwards).
    pub fn set_enforce_fk(&mut self, on: bool) {
        self.enforce_fk = on;
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Create a table, returning its id.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableId> {
        let id = self.catalog.add_table(schema.clone())?;
        self.tables.push(Table::new(schema));
        self.version = next_version();
        Ok(id)
    }

    /// Access table storage by id.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id)
    }

    /// Access table storage by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.catalog
            .table_id(name)
            .and_then(|id| self.tables.get(id))
    }

    /// Mutable access to table storage by id (for index creation). Renews
    /// [`Database::version`]: the caller may change rows through it.
    pub fn table_mut(&mut self, id: TableId) -> Option<&mut Table> {
        self.version = next_version();
        self.tables.get_mut(id)
    }

    /// Insert a row into `table` (by name), enforcing FKs when enabled.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<RowId> {
        let id = self
            .catalog
            .table_id(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        self.insert_into(id, values)
    }

    /// Insert a row into a table by id.
    pub fn insert_into(&mut self, table: TableId, values: Vec<Value>) -> Result<RowId> {
        if self.enforce_fk {
            self.check_row_fks(table, &values)?;
        }
        let t = self
            .tables
            .get_mut(table)
            .ok_or(Error::UnknownTable(format!("#{table}")))?;
        self.version = next_version();
        t.insert(values)
    }

    fn check_row_fks(&self, table: TableId, values: &[Value]) -> Result<()> {
        let schema = self
            .catalog
            .table(table)
            .ok_or(Error::UnknownTable(format!("#{table}")))?;
        for fk in &schema.foreign_keys {
            let v = match values.get(fk.column) {
                Some(v) if !v.is_null() => v,
                _ => continue, // NULL FKs are permitted
            };
            let target_id = self
                .catalog
                .table_id(&fk.ref_table)
                .ok_or_else(|| Error::InvalidSchema(format!("FK to unknown `{}`", fk.ref_table)))?;
            let target = &self.tables[target_id];
            let ref_col = target
                .schema()
                .column_index(&fk.ref_column)
                .ok_or_else(|| {
                    Error::InvalidSchema(format!(
                        "FK to unknown `{}.{}`",
                        fk.ref_table, fk.ref_column
                    ))
                })?;
            let found = if target.schema().primary_key == Some(ref_col) {
                target.lookup_pk(v).is_some()
            } else {
                !target.find_equal(ref_col, v).is_empty()
            };
            if !found {
                return Err(Error::ForeignKeyViolation {
                    table: schema.name.clone(),
                    column: schema.columns[fk.column].name.clone(),
                    value: v.display_plain(),
                });
            }
        }
        Ok(())
    }

    /// Verify referential integrity of the whole database (used after bulk
    /// loads with enforcement off). Returns the first violation found.
    pub fn check_integrity(&self) -> Result<()> {
        for (tid, _) in self.catalog.iter() {
            let table = &self.tables[tid];
            for (_, row) in table.scan() {
                self.check_row_fks(tid, row.values())?;
            }
        }
        Ok(())
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Execute a query with no parameter bindings.
    pub fn execute(&self, query: &Query) -> Result<ResultSet> {
        exec::execute(self, query, &Binding::empty())
    }

    /// Execute a parameterized query.
    pub fn execute_bound(&self, query: &Query, binding: &Binding) -> Result<ResultSet> {
        exec::execute(self, query, binding)
    }

    /// Build a text index on every TEXT column of every table. This is the
    /// storage hook that keyword-search baselines use.
    pub fn build_all_text_indexes(&mut self) {
        for t in &mut self.tables {
            let text_cols: Vec<usize> = t
                .schema()
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.dtype == crate::types::DataType::Text)
                .map(|(i, _)| i)
                .collect();
            for c in text_cols {
                t.create_text_index(c).expect("column checked to be TEXT");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::types::DataType;

    fn movie_db() -> Database {
        let mut db = Database::new("imdb");
        db.create_table(
            TableSchema::new("person")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("name", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("movie")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("title", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("cast")
                .column(ColumnDef::new("person_id", DataType::Int).not_null())
                .column(ColumnDef::new("movie_id", DataType::Int).not_null())
                .foreign_key("person_id", "person", "id")
                .foreign_key("movie_id", "movie", "id"),
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_and_count() {
        let mut db = movie_db();
        db.insert("person", vec![1.into(), "George Clooney".into()])
            .unwrap();
        db.insert("movie", vec![10.into(), "Ocean's Eleven".into()])
            .unwrap();
        db.insert("cast", vec![1.into(), 10.into()]).unwrap();
        assert_eq!(db.total_rows(), 3);
        assert_eq!(db.table_by_name("cast").unwrap().len(), 1);
    }

    #[test]
    fn fk_violation_rejected() {
        let mut db = movie_db();
        db.insert("person", vec![1.into(), "a".into()]).unwrap();
        let err = db.insert("cast", vec![1.into(), 99.into()]).unwrap_err();
        assert!(matches!(err, Error::ForeignKeyViolation { .. }));
    }

    #[test]
    fn fk_enforcement_can_be_deferred() {
        let mut db = movie_db();
        db.set_enforce_fk(false);
        db.insert("cast", vec![1.into(), 99.into()]).unwrap();
        assert!(db.check_integrity().is_err());
        db.insert("person", vec![1.into(), "a".into()]).unwrap();
        db.insert("movie", vec![99.into(), "m".into()]).unwrap();
        assert!(db.check_integrity().is_ok());
    }

    #[test]
    fn unknown_table_insert() {
        let mut db = movie_db();
        assert!(matches!(
            db.insert("ghost", vec![]),
            Err(Error::UnknownTable(_))
        ));
    }

    #[test]
    fn text_indexes_built_everywhere() {
        let mut db = movie_db();
        db.insert("movie", vec![1.into(), "Star Wars".into()])
            .unwrap();
        db.build_all_text_indexes();
        let movie = db.table_by_name("movie").unwrap();
        let title_col = movie.schema().column_index("title").unwrap();
        assert_eq!(movie.text_index(title_col).unwrap().get("wars").len(), 1);
    }

    #[test]
    fn null_fk_is_allowed() {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("a")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("b")
                .column(ColumnDef::new("a_id", DataType::Int))
                .foreign_key("a_id", "a", "id"),
        )
        .unwrap();
        db.insert("b", vec![Value::Null]).unwrap();
        assert!(db.check_integrity().is_ok());
    }
}
