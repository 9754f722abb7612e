//! Query execution.
//!
//! * [`join`] — the production core: picks index-backed access for the
//!   first table when the predicate pins a column, folds the remaining FROM
//!   positions in with hash joins over the connecting join edges, then
//!   filters and limits. It copies no cell: its [`Joined`] holds one tuple
//!   of row ids per output row, and every cell is read where it lives.
//! * [`execute`] — [`join`], then a projection into an owned [`ResultSet`].
//! * [`execute_nested_loop`] — an intentionally naive reference
//!   implementation (full cartesian enumeration) used by property tests to
//!   validate the production path.
//!
//! **Order.** Output rows come in probe order × build insertion order: the
//! seed position's rows in index or scan order, and at each join step every
//! partial row, in order, followed by its matches in the order the new
//! table's rows were read. Bulk materialisation's first-seen order, and
//! with it document ids and the index bytes, hangs off this.

use crate::database::Database;
use crate::error::{Error, Result};
use crate::expr::{ColRef, Predicate};
use crate::query::{Binding, JoinEdge, Query};
use crate::schema::TableId;
use crate::tuple::{Row, RowId};
use crate::types::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// What a missing cell reads as.
static NULL: Value = Value::Null;

/// The output of a query: named columns and materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Qualified output column names, e.g. `movie.title`.
    pub columns: Vec<String>,
    /// Which `(FROM position, column)` each output column came from.
    pub sources: Vec<ColRef>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of an output column by its qualified name.
    pub fn column_index(&self, qualified: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == qualified)
    }

    /// Iterate values of one output column.
    pub fn column_values(&self, idx: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().filter_map(move |r| r.get(idx))
    }

    /// Render as an aligned text table (for examples and debugging).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::display_plain).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Sort rows lexicographically — handy for order-insensitive comparisons
    /// in tests.
    pub fn sorted(mut self) -> Self {
        self.rows.sort();
        self
    }
}

/// The rows a query selects, as row ids into the database's tables.
pub struct Joined<'db> {
    db: &'db Database,
    rows: RowIds,
}

impl<'db> Joined<'db> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of an output column by its qualified name.
    pub fn column_index(&self, qualified: &str) -> Option<usize> {
        self.rows.column_index(qualified)
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> JoinedRow<'_, 'db> {
        self.rows.row(self.db, i)
    }

    /// Every row, in output order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = JoinedRow<'_, 'db>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The row ids, without the borrow of the database.
    pub fn into_row_ids(self) -> RowIds {
        self.rows
    }
}

/// A [`Joined`] without its borrow of the database: what a caller keeps to
/// read the same rows again later, through [`RowIds::row`], from the
/// database they were joined over (or a clone of it), unchanged since.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIds {
    /// The [`Database::version`] the ids were joined over.
    version: u64,
    /// Qualified output column names, e.g. `movie.title`.
    pub columns: Vec<String>,
    /// Which `(FROM position, column)` each output column comes from.
    pub sources: Vec<ColRef>,
    /// The table at each FROM position.
    tables: Vec<TableId>,
    /// FROM position → its slot in a tuple: tuples hold row ids in the order
    /// positions were joined.
    slot_of: Vec<usize>,
    /// One tuple of `tables.len()` row ids per output row, in output order.
    ids: Vec<RowId>,
}

impl RowIds {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len().checked_div(self.tables.len()).unwrap_or(0)
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Index of an output column by its qualified name.
    pub fn column_index(&self, qualified: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == qualified)
    }

    /// Row `i`, read from `db`.
    ///
    /// # Panics
    ///
    /// If `db` is not the database the ids were joined over, or has changed
    /// since.
    pub fn row<'j, 'db>(&'j self, db: &'db Database, i: usize) -> JoinedRow<'j, 'db> {
        assert_eq!(
            db.version(),
            self.version,
            "row ids read from a database they were not joined over"
        );
        let width = self.tables.len();
        JoinedRow {
            db,
            rows: self,
            ids: &self.ids[i * width..(i + 1) * width],
        }
    }
}

/// One row of a [`Joined`] or [`RowIds`]: a row id per FROM position.
#[derive(Clone, Copy)]
pub struct JoinedRow<'j, 'db> {
    db: &'db Database,
    rows: &'j RowIds,
    ids: &'j [RowId],
}

impl<'db> JoinedRow<'_, 'db> {
    /// Output column `i`'s cell.
    pub fn get(&self, i: usize) -> &'db Value {
        self.cell(self.rows.sources[i])
    }

    /// The cell at `col`, whether or not it is an output column.
    fn cell(&self, col: ColRef) -> &'db Value {
        self.at(col.table).get(col.column).unwrap_or(&NULL)
    }

    /// The stored row at FROM position `pos`.
    fn at(&self, pos: usize) -> &'db Row {
        let rows = self.rows;
        self.db
            .table(rows.tables[pos])
            .and_then(|table| table.row(self.ids[rows.slot_of[pos]]))
            .expect("live row")
    }
}

/// Execute `query` against `db` with `binding`.
pub fn execute(db: &Database, query: &Query, binding: &Binding) -> Result<ResultSet> {
    let joined = join(db, query, binding)?;
    let rows = joined
        .rows()
        .map(|row| {
            (0..joined.rows.sources.len())
                .map(|i| row.get(i).clone())
                .collect()
        })
        .collect();
    let ids = joined.into_row_ids();
    Ok(ResultSet {
        columns: ids.columns,
        sources: ids.sources,
        rows,
    })
}

/// Run `query`'s joins, residual predicate and limit against `db`, keeping
/// row ids instead of copying cells.
pub fn join<'db>(db: &'db Database, query: &Query, binding: &Binding) -> Result<Joined<'db>> {
    query.validate(db)?;
    for p in query.parameters() {
        if binding.get(&p).is_none() {
            return Err(Error::UnboundParameter(p));
        }
    }
    let sources = output_columns(db, query);
    let mut joined = Joined {
        db,
        rows: RowIds {
            version: db.version(),
            columns: column_names(db, query, &sources),
            sources,
            tables: query.tables.clone(),
            slot_of: vec![0; query.tables.len()],
            ids: Vec::new(),
        },
    };
    if query.tables.is_empty() {
        return Ok(joined);
    }

    let eq_constraints = query.predicate.conjunctive_eq_constraints(binding);

    // Seed with the first FROM position, using an index if a constraint pins it.
    let mut ids = seed_rows(db, query, 0, &eq_constraints);
    let mut is_joined = vec![false; query.tables.len()];
    is_joined[0] = true;
    let mut width = 1;

    // Fold in remaining positions. Pick, at each step, a not-yet-joined
    // position connected by at least one edge to the joined set.
    let mut remaining: Vec<usize> = (1..query.tables.len()).collect();
    while !remaining.is_empty() {
        let (pick_idx, edges) = remaining
            .iter()
            .enumerate()
            .find_map(|(i, &pos)| {
                let edges: Vec<_> = query
                    .joins
                    .iter()
                    .filter(|j| {
                        (j.left == pos && is_joined[j.right])
                            || (j.right == pos && is_joined[j.left])
                    })
                    .collect();
                if edges.is_empty() {
                    None
                } else {
                    Some((i, edges))
                }
            })
            .ok_or_else(|| {
                let pos = remaining[0];
                Error::DisconnectedJoin {
                    table: db
                        .catalog()
                        .table(query.tables[pos])
                        .map(|t| t.name.clone())
                        .unwrap_or_default(),
                }
            })?;
        let pos = remaining.remove(pick_idx);
        let candidates = seed_rows(db, query, pos, &eq_constraints);
        ids = hash_join(&joined, &ids, width, pos, &edges, candidates);
        joined.rows.slot_of[pos] = width;
        is_joined[pos] = true;
        width += 1;
    }
    joined.rows.ids = ids;
    filter_and_limit(&mut joined, query, binding)?;
    Ok(joined)
}

/// Row ids for the seed position, narrowed by any equality constraint on it.
fn seed_rows(
    db: &Database,
    query: &Query,
    pos: usize,
    eq_constraints: &[(ColRef, Value)],
) -> Vec<u64> {
    let table = db.table(query.tables[pos]).expect("validated");
    if let Some((col, v)) = eq_constraints.iter().find(|(c, _)| c.table == pos) {
        return table.find_equal(col.column, v);
    }
    table.scan().map(|(id, _)| id).collect()
}

/// Hash-join `pos` into the tuples `ids` (`width` row ids each, slotted as
/// `joined.slot_of` says) along the given edges, returning tuples one wider.
/// The build side is `candidates`, the new table's rows narrowed by point
/// constraints, keyed by borrowed cells; the probe side is the existing
/// tuples, in order.
fn hash_join(
    joined: &Joined,
    ids: &[RowId],
    width: usize,
    pos: usize,
    edges: &[&JoinEdge],
    candidates: Vec<RowId>,
) -> Vec<RowId> {
    let table = joined.db.table(joined.rows.tables[pos]).expect("validated");

    // Key extraction: for each edge, which column on the new table and which
    // (position, column) on the existing side.
    let mut new_cols = Vec::with_capacity(edges.len());
    let mut old_refs = Vec::with_capacity(edges.len());
    for e in edges {
        if e.left == pos {
            new_cols.push(e.left_col);
            old_refs.push(ColRef::new(e.right, e.right_col));
        } else {
            new_cols.push(e.right_col);
            old_refs.push(ColRef::new(e.left, e.left_col));
        }
    }
    let key_len = new_cols.len();

    // Build: each candidate's key cells, back to back; NULL never joins.
    let mut keys: Vec<&Value> = Vec::with_capacity(candidates.len() * key_len);
    let mut rids = Vec::with_capacity(candidates.len());
    for rid in candidates {
        let row = table.row(rid).expect("live row");
        let at = keys.len();
        keys.extend(new_cols.iter().map(|&c| row.get(c).unwrap_or(&NULL)));
        if keys[at..].iter().any(|v| v.is_null()) {
            keys.truncate(at);
        } else {
            rids.push(rid);
        }
    }
    // Each distinct key → its first and last candidate; `next` chains the
    // rest in insertion order.
    let mut build: HashMap<&[&Value], (usize, usize)> = HashMap::with_capacity(rids.len());
    let mut next = vec![usize::MAX; rids.len()];
    for (i, key) in keys.chunks_exact(key_len).enumerate() {
        match build.entry(key) {
            Entry::Occupied(mut e) => {
                let tail = &mut e.get_mut().1;
                next[*tail] = i;
                *tail = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }

    // Probe: existing tuples, in order.
    let mut out = Vec::with_capacity(ids.len() + ids.len() / width);
    let mut key: Vec<&Value> = Vec::with_capacity(key_len);
    'probe: for tuple in ids.chunks_exact(width) {
        key.clear();
        let row = JoinedRow {
            db: joined.db,
            rows: &joined.rows,
            ids: tuple,
        };
        for &col in &old_refs {
            let v = row.cell(col);
            if v.is_null() {
                continue 'probe;
            }
            key.push(v);
        }
        if let Some(&(first, last)) = build.get(key.as_slice()) {
            let mut i = first;
            loop {
                out.extend_from_slice(tuple);
                out.push(rids[i]);
                if i == last {
                    break;
                }
                i = next[i];
            }
        }
    }
    out
}

/// Keep the tuples the residual predicate accepts, up to the limit, in
/// place. A `True` residual is not evaluated.
fn filter_and_limit(joined: &mut Joined, query: &Query, binding: &Binding) -> Result<()> {
    let width = joined.rows.tables.len();
    let limit = query.limit.unwrap_or(usize::MAX);
    if matches!(query.predicate, Predicate::True) {
        joined.rows.ids.truncate(limit.saturating_mul(width));
        return Ok(());
    }
    let mut kept = 0;
    let mut ctx: Vec<&Row> = Vec::with_capacity(width);
    for i in 0..joined.len() {
        if kept >= limit {
            break;
        }
        // The row context ordered by FROM position.
        let row = joined.row(i);
        ctx.clear();
        ctx.extend((0..width).map(|pos| row.at(pos)));
        if query.predicate.eval(&ctx, binding)? {
            joined
                .rows
                .ids
                .copy_within(i * width..(i + 1) * width, kept * width);
            kept += 1;
        }
    }
    joined.rows.ids.truncate(kept * width);
    Ok(())
}

/// The columns a query outputs: its projection, or every column of every
/// FROM position in order (`SELECT *`).
fn output_columns(db: &Database, query: &Query) -> Vec<ColRef> {
    match &query.projection {
        Some(p) => p.clone(),
        None => query
            .positions()
            .flat_map(|(pos, tid)| {
                let arity = db.catalog().table(tid).expect("validated").arity();
                (0..arity).map(move |c| ColRef::new(pos, c))
            })
            .collect(),
    }
}

/// Qualified names of `sources`, e.g. `movie.title`.
fn column_names(db: &Database, query: &Query, sources: &[ColRef]) -> Vec<String> {
    sources
        .iter()
        .map(|c| db.catalog().qualified(query.tables[c.table], c.column))
        .collect()
}

/// Reference executor: full cartesian enumeration with join edges folded into
/// the predicate. Exponential; only for tests on tiny inputs.
pub fn execute_nested_loop(db: &Database, query: &Query, binding: &Binding) -> Result<ResultSet> {
    query.validate(db)?;
    for p in query.parameters() {
        if binding.get(&p).is_none() {
            return Err(Error::UnboundParameter(p));
        }
    }

    // Join edges as predicates.
    let mut pred = query.predicate.clone();
    for j in &query.joins {
        pred = pred.and(Predicate::ColEq(
            ColRef::new(j.left, j.left_col),
            ColRef::new(j.right, j.right_col),
        ));
    }

    let projection = output_columns(db, query);
    let columns = column_names(db, query, &projection);

    let per_table: Vec<Vec<&Row>> = query
        .tables
        .iter()
        .map(|&tid| {
            db.table(tid)
                .expect("validated")
                .scan()
                .map(|(_, r)| r)
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    let mut ctx: Vec<&Row> = Vec::with_capacity(per_table.len());
    enumerate(&per_table, 0, &mut ctx, &mut |ctx| -> Result<bool> {
        if let Some(limit) = query.limit {
            if rows.len() >= limit {
                return Ok(false); // stop enumeration
            }
        }
        if pred.eval(ctx, binding)? {
            let row: Vec<Value> = projection
                .iter()
                .map(|c| ctx[c.table].get(c.column).cloned().unwrap_or(Value::Null))
                .collect();
            rows.push(row);
        }
        Ok(true)
    })?;

    Ok(ResultSet {
        columns,
        sources: projection,
        rows,
    })
}

fn enumerate<'a>(
    per_table: &'a [Vec<&'a Row>],
    depth: usize,
    ctx: &mut Vec<&'a Row>,
    visit: &mut impl FnMut(&[&Row]) -> Result<bool>,
) -> Result<bool> {
    if depth == per_table.len() {
        return visit(ctx);
    }
    for row in &per_table[depth] {
        ctx.push(row);
        let keep_going = enumerate(per_table, depth + 1, ctx, visit)?;
        ctx.pop();
        if !keep_going {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod reference {
    use super::seed_rows;
    use crate::database::Database;
    use crate::error::{Error, Result};
    use crate::exec::ResultSet;
    use crate::expr::ColRef;
    use crate::query::{Binding, Query};
    use crate::tuple::Row;
    use crate::types::Value;
    use std::collections::HashMap;

    /// Intermediate: a bag of partial row contexts, each holding the row ids of
    /// the FROM positions joined so far.
    struct Partial {
        /// Which FROM positions are bound, in order of joining.
        positions: Vec<usize>,
        /// One entry per result row: row ids parallel to `positions`.
        rows: Vec<Vec<u64>>,
    }

    /// [`super::execute`] as it was before [`super::join`]: a `Vec` per
    /// partial row per join step, an owned key per build and probe row, and
    /// every projected cell cloned. Kept verbatim as the oracle the new
    /// executor is held to, rows and their order.
    pub(crate) fn execute_reference(
        db: &Database,
        query: &Query,
        binding: &Binding,
    ) -> Result<ResultSet> {
        query.validate(db)?;
        for p in query.parameters() {
            if binding.get(&p).is_none() {
                return Err(Error::UnboundParameter(p));
            }
        }
        if query.tables.is_empty() {
            return Ok(ResultSet {
                columns: vec![],
                sources: vec![],
                rows: vec![],
            });
        }

        let eq_constraints = query.predicate.conjunctive_eq_constraints(binding);

        // Seed with the first FROM position, using an index if a constraint pins it.
        let seed_rows = seed_rows(db, query, 0, &eq_constraints);
        let mut partial = Partial {
            positions: vec![0],
            rows: seed_rows.into_iter().map(|r| vec![r]).collect(),
        };

        // Fold in remaining positions. Pick, at each step, a not-yet-joined
        // position connected by at least one edge to the joined set.
        let mut remaining: Vec<usize> = (1..query.tables.len()).collect();
        while !remaining.is_empty() {
            let (pick_idx, edges) = remaining
                .iter()
                .enumerate()
                .find_map(|(i, &pos)| {
                    let edges: Vec<_> = query
                        .joins
                        .iter()
                        .filter(|j| {
                            (j.left == pos && partial.positions.contains(&j.right))
                                || (j.right == pos && partial.positions.contains(&j.left))
                        })
                        .collect();
                    if edges.is_empty() {
                        None
                    } else {
                        Some((i, edges))
                    }
                })
                .ok_or_else(|| {
                    let pos = remaining[0];
                    Error::DisconnectedJoin {
                        table: db
                            .catalog()
                            .table(query.tables[pos])
                            .map(|t| t.name.clone())
                            .unwrap_or_default(),
                    }
                })?;
            let pos = remaining.remove(pick_idx);
            partial = hash_join(db, query, partial, pos, &edges, &eq_constraints)?;
        }

        finish(db, query, binding, partial)
    }

    /// Hash-join `pos` into the partial result along the given edges. The build
    /// side is the new table (narrowed by point constraints); the probe side is
    /// the existing partial.
    fn hash_join(
        db: &Database,
        query: &Query,
        partial: Partial,
        pos: usize,
        edges: &[&crate::query::JoinEdge],
        eq_constraints: &[(ColRef, Value)],
    ) -> Result<Partial> {
        let table = db.table(query.tables[pos]).expect("validated");

        // Key extraction: for each edge, which column on the new table and which
        // (position, column) on the existing side.
        let mut new_cols = Vec::with_capacity(edges.len());
        let mut old_refs = Vec::with_capacity(edges.len());
        for e in edges {
            if e.left == pos {
                new_cols.push(e.left_col);
                old_refs.push((e.right, e.right_col));
            } else {
                new_cols.push(e.right_col);
                old_refs.push((e.left, e.left_col));
            }
        }

        // Build: new table rows keyed by their join-column values.
        let candidates: Vec<u64> = seed_rows(db, query, pos, eq_constraints);
        let mut build: HashMap<Vec<Value>, Vec<u64>> = HashMap::with_capacity(candidates.len());
        'cand: for rid in candidates {
            let row = table.row(rid).expect("live row");
            let mut key = Vec::with_capacity(new_cols.len());
            for &c in &new_cols {
                let v = row.get(c).cloned().unwrap_or(Value::Null);
                if v.is_null() {
                    continue 'cand; // NULL never joins
                }
                key.push(v);
            }
            build.entry(key).or_default().push(rid);
        }

        // Probe: existing partial rows.
        let pos_of: HashMap<usize, usize> = partial
            .positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();
        let mut out_rows = Vec::new();
        'probe: for ctx in &partial.rows {
            let mut key = Vec::with_capacity(old_refs.len());
            for &(opos, ocol) in &old_refs {
                let slot = pos_of[&opos];
                let otable = db.table(query.tables[opos]).expect("validated");
                let row = otable.row(ctx[slot]).expect("live row");
                let v = row.get(ocol).cloned().unwrap_or(Value::Null);
                if v.is_null() {
                    continue 'probe;
                }
                key.push(v);
            }
            if let Some(matches) = build.get(&key) {
                for &rid in matches {
                    let mut next = ctx.clone();
                    next.push(rid);
                    out_rows.push(next);
                }
            }
        }

        let mut positions = partial.positions;
        positions.push(pos);
        Ok(Partial {
            positions,
            rows: out_rows,
        })
    }

    /// Apply the filter predicate, projection, and limit to assembled contexts.
    fn finish(
        db: &Database,
        query: &Query,
        binding: &Binding,
        partial: Partial,
    ) -> Result<ResultSet> {
        let slot_of: HashMap<usize, usize> = partial
            .positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();

        let projection: Vec<ColRef> = match &query.projection {
            Some(p) => p.clone(),
            None => query
                .positions()
                .flat_map(|(pos, tid)| {
                    let arity = db.catalog().table(tid).expect("validated").arity();
                    (0..arity).map(move |c| ColRef::new(pos, c))
                })
                .collect(),
        };
        let columns: Vec<String> = projection
            .iter()
            .map(|c| db.catalog().qualified(query.tables[c.table], c.column))
            .collect();

        let mut rows = Vec::new();
        for ctx_ids in &partial.rows {
            if let Some(limit) = query.limit {
                if rows.len() >= limit {
                    break;
                }
            }
            // Assemble the row context ordered by FROM position.
            let ctx: Vec<&Row> = (0..query.tables.len())
                .map(|pos| {
                    let slot = slot_of[&pos];
                    db.table(query.tables[pos])
                        .expect("validated")
                        .row(ctx_ids[slot])
                        .expect("live row")
                })
                .collect();
            if !query.predicate.eval(&ctx, binding)? {
                continue;
            }
            let row: Vec<Value> = projection
                .iter()
                .map(|c| ctx[c.table].get(c.column).cloned().unwrap_or(Value::Null))
                .collect();
            rows.push(row);
        }

        Ok(ResultSet {
            columns,
            sources: projection,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::types::DataType;
    use proptest::prelude::*;
    use proptest::sample::select;
    use proptest::strategy::from_fn;
    use proptest::test_runner::TestRng;

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
                .column(ColumnDef::new("role", DataType::Text))
                .foreign_key("person_id", "person", "id")
                .foreign_key("movie_id", "movie", "id"),
        )
        .unwrap();
        for (id, name) in [
            (1, "George Clooney"),
            (2, "Brad Pitt"),
            (3, "Julia Roberts"),
        ] {
            db.insert("person", vec![id.into(), name.into()]).unwrap();
        }
        for (id, title) in [
            (10, "Ocean's Eleven"),
            (11, "Up in the Air"),
            (12, "Solaris"),
        ] {
            db.insert("movie", vec![id.into(), title.into()]).unwrap();
        }
        for (p, m, r) in [
            (1, 10, "actor"),
            (2, 10, "actor"),
            (3, 10, "actor"),
            (1, 11, "actor"),
            (1, 12, "actor"),
        ] {
            db.insert("cast", vec![p.into(), m.into(), r.into()])
                .unwrap();
        }
        db
    }

    #[test]
    fn single_table_scan() {
        let db = movie_db();
        let q = Query::scan(db.catalog().table_id("person").unwrap());
        let rs = db.execute(&q).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.columns, vec!["person.id", "person.name"]);
    }

    #[test]
    fn filtered_scan() {
        let db = movie_db();
        let b = QueryBuilder::new(&db).table("person").unwrap();
        let name = b.col(0, "name").unwrap();
        let q = b.filter(Predicate::eq(name, "Brad Pitt")).build();
        let rs = db.execute(&q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from(2));
    }

    #[test]
    fn two_way_join() {
        let db = movie_db();
        let b = QueryBuilder::new(&db)
            .table("person")
            .unwrap()
            .table("cast")
            .unwrap()
            .join(0, "id", 1, "person_id")
            .unwrap();
        let q = b.build();
        let rs = db.execute(&q).unwrap();
        assert_eq!(rs.len(), 5); // one per cast entry
    }

    #[test]
    fn three_way_join_star_wars_cast_shape() {
        // The paper's canonical base expression:
        // SELECT * FROM person, cast, movie WHERE cast joins AND movie.title = $x
        let db = movie_db();
        let b = QueryBuilder::new(&db)
            .table("person")
            .unwrap()
            .table("cast")
            .unwrap()
            .table("movie")
            .unwrap()
            .join(0, "id", 1, "person_id")
            .unwrap()
            .join(1, "movie_id", 2, "id")
            .unwrap();
        let title = b.col(2, "title").unwrap();
        let q = b.filter(Predicate::eq_param(title, "x")).build();
        let binding = Binding::empty().with("x", "Ocean's Eleven");
        let rs = db.execute_bound(&q, &binding).unwrap();
        assert_eq!(rs.len(), 3); // three actors in Ocean's Eleven
        let names: Vec<&str> = rs
            .rows
            .iter()
            .map(|r| {
                r[rs.column_index("person.name").unwrap()]
                    .as_text()
                    .unwrap()
            })
            .collect();
        assert!(names.contains(&"George Clooney"));
    }

    #[test]
    fn unbound_parameter_is_rejected_up_front() {
        let db = movie_db();
        let b = QueryBuilder::new(&db).table("movie").unwrap();
        let title = b.col(0, "title").unwrap();
        let q = b.filter(Predicate::eq_param(title, "x")).build();
        assert!(matches!(db.execute(&q), Err(Error::UnboundParameter(_))));
    }

    #[test]
    fn projection_selects_columns() {
        let db = movie_db();
        let b = QueryBuilder::new(&db)
            .table("person")
            .unwrap()
            .table("cast")
            .unwrap()
            .join(0, "id", 1, "person_id")
            .unwrap();
        let name = b.col(0, "name").unwrap();
        let q = b.project(vec![name]).build();
        let rs = db.execute(&q).unwrap();
        assert_eq!(rs.columns, vec!["person.name"]);
        assert_eq!(rs.rows[0].len(), 1);
    }

    #[test]
    fn limit_truncates() {
        let db = movie_db();
        let b = QueryBuilder::new(&db)
            .table("person")
            .unwrap()
            .table("cast")
            .unwrap()
            .join(0, "id", 1, "person_id")
            .unwrap();
        let q = b.limit(2).build();
        assert_eq!(db.execute(&q).unwrap().len(), 2);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let db = movie_db();
        let b = QueryBuilder::new(&db)
            .table("person")
            .unwrap()
            .table("cast")
            .unwrap()
            .table("movie")
            .unwrap()
            .join(0, "id", 1, "person_id")
            .unwrap()
            .join(1, "movie_id", 2, "id")
            .unwrap();
        let q = b.build();
        let fast = db.execute(&q).unwrap().sorted();
        let slow = execute_nested_loop(&db, &q, &Binding::empty())
            .unwrap()
            .sorted();
        assert_eq!(fast.rows, slow.rows);
        assert_eq!(fast.columns, slow.columns);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("a")
                .column(ColumnDef::new("k", DataType::Int))
                .column(ColumnDef::new("v", DataType::Text)),
        )
        .unwrap();
        db.create_table(TableSchema::new("b").column(ColumnDef::new("k", DataType::Int)))
            .unwrap();
        db.insert("a", vec![Value::Null, "null-key".into()])
            .unwrap();
        db.insert("a", vec![1.into(), "one".into()]).unwrap();
        db.insert("b", vec![Value::Null]).unwrap();
        db.insert("b", vec![1.into()]).unwrap();
        let q = QueryBuilder::new(&db)
            .table("a")
            .unwrap()
            .table("b")
            .unwrap()
            .join(0, "k", 1, "k")
            .unwrap()
            .build();
        let rs = db.execute(&q).unwrap();
        assert_eq!(rs.len(), 1); // only the non-null pair
    }

    #[test]
    fn result_set_rendering() {
        let db = movie_db();
        let q = Query::scan(db.catalog().table_id("movie").unwrap());
        let rs = db.execute(&q).unwrap();
        let s = rs.to_table_string();
        assert!(s.contains("movie.title"));
        assert!(s.contains("Solaris"));
    }

    #[test]
    fn empty_from_list_yields_empty() {
        let db = movie_db();
        let q = Query {
            tables: vec![],
            joins: vec![],
            predicate: Predicate::True,
            projection: None,
            limit: None,
        };
        let rs = db.execute(&q).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn index_accelerated_seed_same_answer() {
        let mut db = movie_db();
        let cast_id = db.catalog().table_id("cast").unwrap();
        let pid_col = db
            .catalog()
            .table(cast_id)
            .unwrap()
            .column_index("person_id")
            .unwrap();
        db.table_mut(cast_id)
            .unwrap()
            .create_index(pid_col)
            .unwrap();
        let b = QueryBuilder::new(&db).table("cast").unwrap();
        let pid = b.col(0, "person_id").unwrap();
        let q = b.filter(Predicate::eq(pid, 1)).build();
        assert_eq!(db.execute(&q).unwrap().len(), 3);
    }

    #[test]
    fn row_ids_read_back_only_from_the_rows_they_were_joined_over() {
        let mut db = movie_db();
        let b = QueryBuilder::new(&db).table("person").unwrap();
        let name = b.col(0, "name").unwrap();
        let q = b.filter(Predicate::eq(name, "Brad Pitt")).build();
        let ids = join(&db, &q, &Binding::empty()).unwrap().into_row_ids();
        let read = |db: &Database| ids.row(db, 0).get(1).clone();
        let clone = db.clone();
        assert_eq!(read(&db), Value::from("Brad Pitt"));
        assert_eq!(read(&clone), Value::from("Brad Pitt"));
        let refused = |db: &Database| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(db))).is_err()
        };
        // another database with the same tables, or this one changed
        assert!(refused(&movie_db()));
        db.insert("person", vec![4.into(), "Tilda Swinton".into()])
            .unwrap();
        assert!(refused(&db));
        assert_eq!(read(&clone), Value::from("Brad Pitt"));
    }

    /// One draw from `strategy`.
    fn draw<S: Strategy>(rng: &mut TestRng, strategy: S) -> S::Value {
        strategy.new_value(rng)
    }

    /// Tables `a` and `b`, both `(k INT, j INT, t TEXT)` without keys, with
    /// up to seven rows each over tiny domains, NULLs included; sometimes
    /// an index on `a.k`, so seeds and build sides go through it.
    fn arb_db() -> impl Strategy<Value = Database> {
        from_fn(|rng| {
            let mut db = Database::new("prop");
            for name in ["a", "b"] {
                db.create_table(
                    TableSchema::new(name)
                        .column(ColumnDef::new("k", DataType::Int))
                        .column(ColumnDef::new("j", DataType::Int))
                        .column(ColumnDef::new("t", DataType::Text)),
                )
                .unwrap();
                for _ in 0..draw(rng, 0usize..8) {
                    let int = |rng: &mut TestRng| match draw(rng, 0i64..4) {
                        3 => Value::Null,
                        v => v.into(),
                    };
                    let row = vec![
                        int(rng),
                        int(rng),
                        draw(
                            rng,
                            select(vec![Value::Null, "x".into(), "y".into(), "xy".into()]),
                        ),
                    ];
                    db.insert(name, row).unwrap();
                }
            }
            if draw(rng, 0..2) == 1 {
                let a = db.catalog().table_id("a").unwrap();
                db.table_mut(a).unwrap().create_index(0).unwrap();
            }
            db
        })
    }

    /// A predicate over `width` FROM positions: comparisons with literals
    /// and with `$x`, containment, NULL tests and column equality, under
    /// AND / OR / NOT.
    fn arb_predicate(rng: &mut TestRng, width: usize, depth: u32) -> Predicate {
        let col = |rng: &mut TestRng| ColRef::new(draw(rng, 0..width), draw(rng, 0usize..3));
        let op = |rng: &mut TestRng| {
            use crate::expr::CmpOp::*;
            draw(rng, select(vec![Eq, Eq, Ne, Lt, Ge]))
        };
        let leaves = if depth == 0 { 6 } else { 9 };
        match draw(rng, 0..leaves) {
            0 => Predicate::True,
            1 => Predicate::Cmp(col(rng), op(rng), draw(rng, 0i64..3).into()),
            2 => Predicate::CmpParam(col(rng), op(rng), "x".into()),
            3 => Predicate::Contains(col(rng), "x".into()),
            4 => Predicate::IsNull(col(rng)),
            5 => Predicate::ColEq(col(rng), col(rng)),
            6 => Predicate::Not(Box::new(arb_predicate(rng, width, depth - 1))),
            7 => Predicate::Or(
                Box::new(arb_predicate(rng, width, depth - 1)),
                Box::new(arb_predicate(rng, width, depth - 1)),
            ),
            // a conjunction, so point constraints narrow seeds and builds
            _ => arb_predicate(rng, width, depth - 1).and(arb_predicate(rng, width, depth - 1)),
        }
    }

    /// Queries of one to four positions over `a` and `b` (a table may
    /// repeat: self-joins), joined along a random spanning tree whose
    /// positions are shuffled so the join order can differ from FROM order,
    /// with second edges between the same pair (multi-edge joins), a random
    /// residual, and sometimes a limit and an explicit projection.
    fn arb_query() -> impl Strategy<Value = Query> {
        from_fn(|rng| {
            let width = draw(rng, 1usize..5);
            let tables = (0..width).map(|_| draw(rng, 0usize..2)).collect();
            // node i of the tree sits at FROM position `at[i]`; node 0 is the seed
            let mut at: Vec<usize> = (0..width).collect();
            for i in (2..width).rev() {
                at.swap(i, draw(rng, 1..=i));
            }
            let mut joins = Vec::new();
            for node in 1..width {
                let (new, old) = (at[node], at[draw(rng, 0..node)]);
                for _ in 0..draw(rng, select(vec![1, 1, 2])) {
                    let (new_col, old_col) = (draw(rng, 0usize..2), draw(rng, 0usize..2));
                    joins.push(if draw(rng, 0..2) == 0 {
                        JoinEdge::new(new, new_col, old, old_col)
                    } else {
                        JoinEdge::new(old, old_col, new, new_col)
                    });
                }
            }
            let projection = (draw(rng, 0..3) == 0).then(|| {
                (0..draw(rng, 1usize..4))
                    .map(|_| ColRef::new(draw(rng, 0..width), draw(rng, 0usize..3)))
                    .collect()
            });
            Query {
                tables,
                joins,
                predicate: arb_predicate(rng, width, 2),
                projection,
                limit: (draw(rng, 0..3) == 0).then(|| draw(rng, 0usize..6)),
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn execute_matches_the_reference_row_for_row(
            db in arb_db(),
            query in arb_query(),
            x in 0i64..4,
        ) {
            // `$x` bound, or left unbound: both executors must refuse alike
            let binding = match x {
                3 => Binding::empty(),
                x => Binding::empty().with("x", x),
            };
            prop_assert_eq!(
                execute(&db, &query, &binding),
                reference::execute_reference(&db, &query, &binding)
            );
        }
    }
}
