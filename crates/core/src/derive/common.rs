//! Shared derivation helpers: join-path discovery on the schema graph, base
//! expression assembly, and label-column selection.

use relstore::{
    ColRef, DataType, Database, Error, JoinEdge, Predicate, Query, Result, SchemaEdge, TableId,
};
use std::collections::{HashMap, VecDeque};

/// Shortest join path between two tables on the schema graph (BFS over FK
/// edges, either direction). Returns the edge list, or `None` if
/// disconnected. A path to self is the empty list.
pub fn join_path(db: &Database, from: TableId, to: TableId) -> Option<Vec<SchemaEdge>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: HashMap<TableId, (TableId, SchemaEdge)> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    while let Some(t) = queue.pop_front() {
        for (nbr, edge) in db.catalog().neighbors(t) {
            if nbr != from && !prev.contains_key(&nbr) {
                prev.insert(nbr, (t, edge));
                if nbr == to {
                    // reconstruct
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, e) = prev[&cur];
                        path.push(e);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(nbr);
            }
        }
    }
    None
}

/// Assemble a parameterized base expression: FROM starts at `anchor_table`
/// (position 0), every table in `include` is connected via its shortest join
/// path (intermediate link tables are pulled in automatically), and the
/// anchor column is constrained by parameter `param`.
///
/// Returns the query plus the FROM-ordered table names (useful for building
/// conversion expressions).
pub fn base_expression(
    db: &Database,
    anchor_table: &str,
    anchor_column: &str,
    param: &str,
    include: &[&str],
) -> Result<(Query, Vec<String>)> {
    let catalog = db.catalog();
    let anchor_id = catalog
        .table_id(anchor_table)
        .ok_or_else(|| Error::UnknownTable(anchor_table.to_string()))?;
    let anchor_col = catalog
        .table(anchor_id)
        .expect("id valid")
        .column_index(anchor_column)
        .ok_or_else(|| Error::UnknownColumn {
            table: anchor_table.to_string(),
            column: anchor_column.to_string(),
        })?;

    let mut tables: Vec<TableId> = vec![anchor_id];
    let mut pos_of: HashMap<TableId, usize> = HashMap::from([(anchor_id, 0)]);
    let mut joins: Vec<JoinEdge> = Vec::new();

    for name in include {
        let target = catalog
            .table_id(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        if pos_of.contains_key(&target) {
            continue;
        }
        let path = join_path(db, anchor_id, target).ok_or(Error::DisconnectedJoin {
            table: name.to_string(),
        })?;
        // walk the path, adding tables/edges not yet present
        for edge in path {
            for tid in [edge.from_table, edge.to_table] {
                if let std::collections::hash_map::Entry::Vacant(e) = pos_of.entry(tid) {
                    e.insert(tables.len());
                    tables.push(tid);
                }
            }
            let je = JoinEdge::new(
                pos_of[&edge.from_table],
                edge.from_column,
                pos_of[&edge.to_table],
                edge.to_column,
            );
            if !joins.contains(&je) {
                joins.push(je);
            }
        }
    }

    let query = Query {
        tables: tables.clone(),
        joins,
        predicate: Predicate::eq_param(ColRef::new(0, anchor_col), param),
        projection: None,
        limit: None,
    };
    let names = tables
        .iter()
        .map(|&t| catalog.table(t).expect("valid").name.clone())
        .collect();
    Ok((query, names))
}

/// Pick the *label column* of a table — the human-facing attribute that
/// identifies a row — from the database's precomputed statistics.
/// Preference order:
///
/// 1. TEXT columns, scored by `distinctness × min(avg_tokens, 4)` with a
///    penalty for essay-length content (plot outlines make bad labels);
/// 2. otherwise the first non-key numeric column (e.g. `boxoffice.gross`);
/// 3. `None` for pure link tables.
pub fn label_column_with_stats(
    db: &Database,
    stats: &relstore::DatabaseStats,
    table: &str,
) -> Option<String> {
    let schema = db.catalog().table_by_name(table)?;
    let tstats = stats.table_by_name(table)?;
    let is_key_like = |name: &str| name == "id" || name.ends_with("_id");

    let mut best_text: Option<(f64, &str)> = None;
    for (i, col) in schema.columns.iter().enumerate() {
        if is_key_like(&col.name) || col.dtype != DataType::Text {
            continue;
        }
        let cs = &tstats.columns[i];
        let mut score = cs.distinctness() * cs.avg_tokens.min(4.0);
        if cs.avg_tokens > 8.0 {
            score *= 0.2; // essay-length text is content, not a label
        }
        if best_text.map(|(s, _)| score > s).unwrap_or(score > 0.0) {
            best_text = Some((score, &col.name));
        }
    }
    if let Some((_, name)) = best_text {
        return Some(format!("{table}.{name}"));
    }
    schema
        .columns
        .iter()
        .find(|c| !is_key_like(&c.name))
        .map(|c| format!("{table}.{}", c.name))
}

/// When a derivation pulls in `table` as a join target, a *link* table
/// (two or more foreign keys, e.g. `cast`) should be crossed to the entity
/// tables it connects — a user asking for a movie's "cast" wants the
/// *people*, not the join rows. Returns the extra tables to include: the
/// link table's FK referents other than `anchor_table`.
pub fn through_link_table(db: &Database, anchor_table: &str, table: &str) -> Vec<String> {
    let schema = match db.catalog().table_by_name(table) {
        Some(s) => s,
        None => return Vec::new(),
    };
    if schema.foreign_keys.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for fk in &schema.foreign_keys {
        if fk.ref_table != anchor_table && !out.contains(&fk.ref_table) {
            out.push(fk.ref_table.clone());
        }
    }
    out
}

/// Display columns of a table: every non-key column, qualified. Used for
/// header fields of entity-page qunits.
pub fn display_columns(db: &Database, table: &str) -> Vec<String> {
    let schema = match db.catalog().table_by_name(table) {
        Some(s) => s,
        None => return Vec::new(),
    };
    schema
        .columns
        .iter()
        .filter(|c| c.name != "id" && !c.name.ends_with("_id"))
        .map(|c| format!("{table}.{}", c.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::imdb::{imdb_schema, ImdbConfig, ImdbData};

    #[test]
    fn join_path_direct_and_two_hop() {
        let db = imdb_schema();
        let cat = db.catalog();
        let movie = cat.table_id("movie").unwrap();
        let genre = cat.table_id("genre").unwrap();
        let person = cat.table_id("person").unwrap();
        let p = join_path(&db, movie, genre).unwrap();
        assert_eq!(p.len(), 1);
        let p = join_path(&db, movie, person).unwrap();
        assert_eq!(p.len(), 2); // via cast
        assert_eq!(join_path(&db, movie, movie).unwrap().len(), 0);
    }

    #[test]
    fn base_expression_pulls_in_link_tables() {
        let db = imdb_schema();
        let (q, names) = base_expression(&db, "movie", "title", "x", &["person"]).unwrap();
        assert_eq!(names, vec!["movie", "cast", "person"]);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.parameters(), vec!["x".to_string()]);
        assert!(q.validate(&db).is_ok());
    }

    #[test]
    fn base_expression_multiple_targets_share_paths() {
        let db = imdb_schema();
        let (q, names) = base_expression(&db, "movie", "title", "x", &["person", "genre"]).unwrap();
        assert_eq!(names, vec!["movie", "cast", "person", "genre"]);
        assert_eq!(q.joins.len(), 3);
        assert!(q.validate(&db).is_ok());
    }

    #[test]
    fn base_expression_unknown_table_errors() {
        let db = imdb_schema();
        assert!(base_expression(&db, "movie", "title", "x", &["ghost"]).is_err());
        assert!(base_expression(&db, "ghost", "title", "x", &[]).is_err());
    }

    #[test]
    fn label_columns_prefer_names_over_plots() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let stats = relstore::DatabaseStats::collect(&data.db);
        let label_column = |db, table| label_column_with_stats(db, &stats, table);
        assert_eq!(
            label_column(&data.db, "movie").as_deref(),
            Some("movie.title")
        );
        assert_eq!(
            label_column(&data.db, "person").as_deref(),
            Some("person.name")
        );
        assert_eq!(
            label_column(&data.db, "genre").as_deref(),
            Some("genre.type")
        );
        // info.text is essay-length but still the only candidate
        assert_eq!(label_column(&data.db, "info").as_deref(), Some("info.text"));
        // boxoffice has no text: falls back to the numeric gross
        assert_eq!(
            label_column(&data.db, "boxoffice").as_deref(),
            Some("boxoffice.gross")
        );
    }

    #[test]
    fn display_columns_skip_keys() {
        let db = imdb_schema();
        let cols = display_columns(&db, "movie");
        assert!(cols.contains(&"movie.title".to_string()));
        assert!(cols.contains(&"movie.rating".to_string()));
        assert!(!cols.iter().any(|c| c.ends_with(".id")));
        assert!(!cols.iter().any(|c| c.ends_with("_id")));
    }
}
