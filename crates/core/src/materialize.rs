//! On-demand qunit materialization.
//!
//! The paper stresses that qunits need not be materialized ("we expect that
//! most qunits will not be materialized in most implementations"); what the
//! search engine needs is the *document rendering* of each instance. Two
//! paths are provided:
//!
//! * [`materialize_all`] — bulk path for indexing: star-decompose the base
//!   expression at the anchor, run each branch *unbound* once (anchor
//!   predicate stripped) and group rows by the anchor column, yielding one
//!   instance per anchor value at a fraction of the per-instance query cost.
//! * [`materialize_one`] — the on-demand path for serving one result: the
//!   same branches with the anchor parameter bound, through the same
//!   grouping and rendering, so it yields exactly the instance
//!   [`materialize_all`] yields for that anchor value.
//!
//! Both read every cell where it lives: a branch's rows are row ids from
//! [`relstore::exec::join`], grouped by borrowed anchor values, and each
//! instance renders into buffers reused from the previous one and is copied
//! out at its exact size. An instance's own strings are the only copies.
//!
//! **Order contract.** [`materialize_all`] yields instances in first-seen
//! order over its branches' rows, branch after branch, each branch's rows
//! in `relstore::exec::join`'s output order (probe order × build insertion
//! order) — a pure function of the database, never of thread timing or map
//! iteration. The whole determinism chain hangs off this: the engine's
//! build merge replays catalog × materialization order into document
//! insertion order, and the round-robin index sharding partitions by that
//! insertion order, so "1 worker ≡ 8 workers" and "1 shard ≡ N shards"
//! (both CI-gated) are only as good as this function staying
//! deterministic. Don't introduce `HashMap`-ordered iteration here.

use crate::presentation::{Cells, ConversionExpr, RenderBuf, RowRenderer};
use crate::qunit::{AnchorSpec, QunitDefinition, QunitInstance};
use relstore::exec::join;
use relstore::{Binding, Database, Error, Predicate, Query, Result, Value};
use std::collections::HashMap;
use std::fmt::Write;

/// Materialize the instance for one anchor value: the one
/// [`materialize_all`] yields for it, or, if no row carries that value, an
/// instance with no tuples and an empty rendering.
pub fn materialize_one(
    db: &Database,
    def: &QunitDefinition,
    anchor_value: &Value,
) -> Result<QunitInstance> {
    let anchor = def
        .anchor
        .as_ref()
        .ok_or_else(|| Error::UnboundParameter("<no anchor>".into()))?;
    let binding = Binding::empty().with(anchor.param.clone(), anchor_value.clone());
    let branches = star_branches(&def.base.query, &def.base.query.predicate);
    let found = materialize_anchored(db, def, anchor, &branches, &binding, Some(anchor_value))?;
    Ok(found.into_iter().next().unwrap_or_else(|| {
        instance(
            def,
            Some(anchor_value.clone()),
            &mut RenderBuf::default(),
            0,
        )
    }))
}

/// Materialize every instance of a definition.
///
/// For anchored definitions the base expression's join tree is first
/// **star-decomposed** at the anchor: each connected component of non-anchor
/// tables becomes its own branch query (anchor + component). Branches run
/// unbound (anchor predicate stripped), rows are grouped by anchor value,
/// and per-anchor branch results are merged into one instance.
///
/// This gives outer-join semantics across satellites: a movie with cast but
/// no soundtrack still gets an instance (its soundtrack branch is simply
/// empty), and two one-to-many satellites never cross-product each other —
/// exactly how an entity page composes independent sections.
pub fn materialize_all(db: &Database, def: &QunitDefinition) -> Result<Vec<QunitInstance>> {
    let Some(anchor) = &def.anchor else {
        let rows = join(db, &def.base.query, &Binding::empty())?;
        let template = def.conversion.resolve(&rows.columns);
        let mut buf = RenderBuf::default();
        let branch = (&template, rows.rows());
        return Ok(vec![instance_from_branches(def, None, [branch], &mut buf)]);
    };
    let residual = strip_param(&def.base.query.predicate, &anchor.param);
    let branches = star_branches(&def.base.query, &residual);
    materialize_anchored(db, def, anchor, &branches, &Binding::empty(), None)
}

/// The instances of an anchored definition from its star `branches` run
/// under `binding`: rows grouped by anchor value (only `only`'s, if given)
/// in first-seen order, and each group rendered branch by branch.
fn materialize_anchored(
    db: &Database,
    def: &QunitDefinition,
    anchor: &AnchorSpec,
    branches: &[Query],
    binding: &Binding,
    only: Option<&Value>,
) -> Result<Vec<QunitInstance>> {
    let anchor_column = anchor.qualified();
    // Group ids in first-seen order, by borrowed anchor value, and every
    // row's group, branch after branch (`None`: a NULL or another value).
    let mut group_of: HashMap<&Value, usize> = HashMap::new();
    let mut anchors: Vec<&Value> = Vec::new();
    let mut row_groups: Vec<Option<usize>> = Vec::new();
    let mut joined = Vec::with_capacity(branches.len());
    for branch in branches {
        let rows = join(db, branch, binding)?;
        let anchor_col = rows
            .column_index(&anchor_column)
            .ok_or_else(|| Error::UnknownColumn {
                table: anchor.table.clone(),
                column: anchor.column.clone(),
            })?;
        row_groups.extend(rows.rows().map(|row| {
            let value = row.get(anchor_col);
            if value.is_null() || only.is_some_and(|only| only != value) {
                return None;
            }
            Some(*group_of.entry(value).or_insert_with(|| {
                anchors.push(value);
                anchors.len() - 1
            }))
        }));
        joined.push(rows);
    }

    // Each group's rows as `(branch, row)`, contiguous and in the order
    // they were seen: a counting sort of `row_groups`.
    let mut start = vec![0; anchors.len() + 1];
    for &g in row_groups.iter().flatten() {
        start[g + 1] += 1;
    }
    for g in 0..anchors.len() {
        start[g + 1] += start[g];
    }
    let mut fill = start.clone();
    let mut members = vec![(0, 0); start[anchors.len()]];
    let every_row = joined
        .iter()
        .enumerate()
        .flat_map(|(b, rows)| (0..rows.len()).map(move |r| (b, r)));
    for (g, at) in row_groups.into_iter().zip(every_row) {
        if let Some(g) = g {
            members[fill[g]] = at;
            fill[g] += 1;
        }
    }

    // The first branch an instance has renders in full, later ones
    // header-less so header fields aren't repeated.
    let headerless = ConversionExpr {
        header: Vec::new(),
        ..def.conversion.clone()
    };
    let templates: Vec<[RowRenderer; 2]> = joined
        .iter()
        .map(|rows| {
            [
                def.conversion.resolve(&rows.columns),
                headerless.resolve(&rows.columns),
            ]
        })
        .collect();
    let mut buf = RenderBuf::default();
    Ok(anchors
        .iter()
        .enumerate()
        .map(|(g, &value)| {
            let runs = members[start[g]..start[g + 1]].chunk_by(|x, y| x.0 == y.0);
            let branches = runs.enumerate().map(|(nth, run)| {
                let rows = &joined[run[0].0];
                let template = &templates[run[0].0][usize::from(nth > 0)];
                (template, run.iter().map(move |&(_, r)| rows.row(r)))
            });
            instance_from_branches(def, Some(value.clone()), branches, &mut buf)
        })
        .collect())
}

/// Decompose an anchored query into star branches: the anchor table
/// (position 0) plus each connected component of the remaining join graph.
/// Each branch filters by `residual` — the base predicate with the anchor
/// comparison stripped (bulk path) or kept, to be bound (one instance) —
/// but only if the branch contains every position it touches; otherwise it
/// runs unfiltered, and grouping by anchor value still keeps it exact.
fn star_branches(query: &Query, residual: &Predicate) -> Vec<Query> {
    let n = query.tables.len();
    if n <= 1 {
        let mut q = query.clone();
        q.predicate = residual.clone();
        return vec![q];
    }
    // connected components over positions 1..n (anchor removed)
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut Vec<usize>, x: usize) -> usize {
        if comp[x] != x {
            let r = find(comp, comp[x]);
            comp[x] = r;
        }
        comp[x]
    }
    for j in &query.joins {
        if j.left == 0 || j.right == 0 {
            continue;
        }
        let (a, b) = (find(&mut comp, j.left), find(&mut comp, j.right));
        if a != b {
            comp[a] = b;
        }
    }
    let mut roots: Vec<usize> = Vec::new();
    for p in 1..n {
        let r = find(&mut comp, p);
        if !roots.contains(&r) {
            roots.push(r);
        }
    }

    let mut out = Vec::with_capacity(roots.len().max(1));
    for root in roots {
        let members: Vec<usize> = (1..n).filter(|&p| find(&mut comp, p) == root).collect();
        // old position → new position (anchor keeps position 0)
        let mut remap: HashMap<usize, usize> = HashMap::from([(0usize, 0usize)]);
        let mut tables = vec![query.tables[0]];
        for &m in &members {
            remap.insert(m, tables.len());
            tables.push(query.tables[m]);
        }
        let joins = query
            .joins
            .iter()
            .filter(|j| remap.contains_key(&j.left) && remap.contains_key(&j.right))
            .map(|j| {
                relstore::JoinEdge::new(remap[&j.left], j.left_col, remap[&j.right], j.right_col)
            })
            .collect();
        // keep the residual predicate only when the branch covers it fully
        let predicate = if predicate_positions(residual)
            .iter()
            .all(|p| remap.contains_key(p))
        {
            remap_predicate(residual, &remap)
        } else {
            Predicate::True
        };
        out.push(Query {
            tables,
            joins,
            predicate,
            projection: None,
            limit: query.limit,
        });
    }
    if out.is_empty() {
        let mut q = query.clone();
        q.predicate = residual.clone();
        out.push(q);
    }
    out
}

fn predicate_positions(p: &Predicate) -> Vec<usize> {
    let mut out = Vec::new();
    collect_positions(p, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn collect_positions(p: &Predicate, out: &mut Vec<usize>) {
    match p {
        Predicate::Cmp(c, _, _)
        | Predicate::CmpParam(c, _, _)
        | Predicate::Contains(c, _)
        | Predicate::IsNull(c) => out.push(c.table),
        Predicate::ColEq(a, b) => {
            out.push(a.table);
            out.push(b.table);
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            collect_positions(a, out);
            collect_positions(b, out);
        }
        Predicate::Not(inner) => collect_positions(inner, out),
        Predicate::True => {}
    }
}

fn remap_predicate(p: &Predicate, remap: &HashMap<usize, usize>) -> Predicate {
    use relstore::ColRef;
    let rc = |c: &ColRef| ColRef::new(remap[&c.table], c.column);
    match p {
        Predicate::True => Predicate::True,
        Predicate::Cmp(c, op, v) => Predicate::Cmp(rc(c), *op, v.clone()),
        Predicate::CmpParam(c, op, n) => Predicate::CmpParam(rc(c), *op, n.clone()),
        Predicate::Contains(c, s) => Predicate::Contains(rc(c), s.clone()),
        Predicate::IsNull(c) => Predicate::IsNull(rc(c)),
        Predicate::ColEq(a, b) => Predicate::ColEq(rc(a), rc(b)),
        Predicate::And(a, b) => Predicate::And(
            Box::new(remap_predicate(a, remap)),
            Box::new(remap_predicate(b, remap)),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(remap_predicate(a, remap)),
            Box::new(remap_predicate(b, remap)),
        ),
        Predicate::Not(i) => Predicate::Not(Box::new(remap_predicate(i, remap))),
    }
}

/// Remove every comparison against parameter `param` (replaced by TRUE).
fn strip_param(p: &Predicate, param: &str) -> Predicate {
    match p {
        Predicate::CmpParam(_, _, name) if name == param => Predicate::True,
        Predicate::And(a, b) => strip_param(a, param).and(strip_param(b, param)),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(strip_param(a, param)),
            Box::new(strip_param(b, param)),
        ),
        Predicate::Not(inner) => Predicate::Not(Box::new(strip_param(inner, param))),
        other => other.clone(),
    }
}

/// Assemble one instance from the non-empty ones of `branches`, each
/// rendered by the template it comes with, in `buf`.
fn instance_from_branches<'t, R: Cells, Rows: ExactSizeIterator<Item = R>>(
    def: &QunitDefinition,
    anchor_value: Option<Value>,
    branches: impl IntoIterator<Item = (&'t RowRenderer<'t>, Rows)>,
    buf: &mut RenderBuf,
) -> QunitInstance {
    buf.markup.clear();
    buf.text.clear();
    let mut tuple_count = 0;
    for (template, rows) in branches {
        if rows.len() == 0 {
            continue;
        }
        tuple_count += rows.len();
        // Branch texts are space-joined; a branch that adds no text adds no
        // separator either.
        let joined_at = buf.text.len();
        if joined_at > 0 {
            buf.text.push(' ');
        }
        let branch_text_at = buf.text.len();
        template.render_rows(rows, buf);
        if buf.text.len() == branch_text_at {
            buf.text.truncate(joined_at);
        }
    }
    instance(def, anchor_value, buf, tuple_count)
}

/// The instance whose rendering `buf` holds, copied out at its exact size.
fn instance(
    def: &QunitDefinition,
    anchor_value: Option<Value>,
    buf: &mut RenderBuf,
    tuple_count: usize,
) -> QunitInstance {
    let rendered = buf.markup.as_str().into();
    let text = buf.text.as_str().into();
    // The key is written where the page was, and copied out the same way.
    buf.markup.clear();
    match &anchor_value {
        Some(v) => write!(buf.markup, "{}::{v}", def.name),
        None => write!(buf.markup, "{}::*", def.name),
    }
    .expect("writing to a String cannot fail");
    QunitInstance {
        key: buf.markup.as_str().into(),
        definition: def.name.clone(),
        anchor_value,
        rendered,
        text,
        fields: def.covered_fields.clone(),
        tuple_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::QunitCatalog;
    use crate::derive::evidence::{self, EvidenceDeriveConfig, EvidencePage};
    use crate::derive::manual::expert_imdb_qunits;
    use crate::derive::querylog::{self, QueryLogDeriveConfig};
    use crate::derive::schema_data::{self, SchemaDataConfig};
    use crate::presentation::ConversionExpr;
    use crate::qunit::{AnchorSpec, DerivationSource};
    use crate::segment::{EntityDictionary, Segmenter};
    use datagen::evidence::{EvidenceCorpus, EvidenceGenConfig};
    use datagen::imdb::{ImdbConfig, ImdbData};
    use datagen::querylog::{QueryLog, QueryLogConfig};
    use relstore::exec::ResultSet;
    use relstore::{ColumnDef, DataType, Predicate as P, QueryBuilder, TableSchema, View};

    /// One branch's rows for one anchor value: `(branch, rows)`, never empty.
    type BranchRows = (usize, Vec<Vec<Value>>);

    /// [`materialize_all`] as it was before it read cells in place: every
    /// branch executed into an owned `ResultSet`, its rows moved into
    /// per-anchor groups, each group rendered from those rows. Kept as the
    /// oracle the in-place path is held to, instance for instance.
    fn materialize_all_reference(
        db: &Database,
        def: &QunitDefinition,
    ) -> Result<Vec<QunitInstance>> {
        let anchor = match &def.anchor {
            None => {
                let rs = def.base.materialize(db, &Binding::empty())?;
                return Ok(vec![instance_from(def, None, &rs)]);
            }
            Some(a) => a,
        };

        let residual = strip_param(&def.base.query.predicate, &anchor.param);
        let branches = star_branches(&def.base.query, &residual);
        let mut slot_of: HashMap<Value, usize> = HashMap::new();
        let mut groups: Vec<(Value, Vec<BranchRows>)> = Vec::new();
        let mut headers: Vec<Vec<String>> = Vec::with_capacity(branches.len());
        for (b, branch) in branches.iter().enumerate() {
            let rs = db.execute(branch)?;
            let anchor_col =
                rs.column_index(&anchor.qualified())
                    .ok_or_else(|| Error::UnknownColumn {
                        table: anchor.table.clone(),
                        column: anchor.column.clone(),
                    })?;
            for row in rs.rows {
                let key = &row[anchor_col];
                if key.is_null() {
                    continue;
                }
                let slot = match slot_of.get(key) {
                    Some(&slot) => slot,
                    None => {
                        slot_of.insert(key.clone(), groups.len());
                        groups.push((key.clone(), Vec::new()));
                        groups.len() - 1
                    }
                };
                match groups[slot].1.last_mut() {
                    Some((branch_of, rows)) if *branch_of == b => rows.push(row),
                    _ => groups[slot].1.push((b, vec![row])),
                }
            }
            headers.push(rs.columns);
        }

        let headerless = ConversionExpr {
            header: Vec::new(),
            ..def.conversion.clone()
        };
        let templates: Vec<[RowRenderer; 2]> = headers
            .iter()
            .map(|columns| [def.conversion.resolve(columns), headerless.resolve(columns)])
            .collect();
        Ok(groups
            .into_iter()
            .map(|(key, per_branch)| instance_from_group(def, key, &templates, &per_branch))
            .collect())
    }

    /// One anchor value's instance from its rows per branch. `templates[branch]`
    /// is the conversion resolved for that branch, in full and header-less: the
    /// first branch an instance has renders in full, later ones header-less so
    /// header fields aren't repeated.
    fn instance_from_group(
        def: &QunitDefinition,
        key: Value,
        templates: &[[RowRenderer; 2]],
        per_branch: &[BranchRows],
    ) -> QunitInstance {
        let rendered = per_branch
            .iter()
            .enumerate()
            .map(|(nth, (b, rows))| (&templates[*b][usize::from(nth > 0)], rows.iter()));
        instance_from_branches(def, Some(key), rendered, &mut RenderBuf::default())
    }

    fn instance_from(
        def: &QunitDefinition,
        anchor_value: Option<Value>,
        rs: &ResultSet,
    ) -> QunitInstance {
        let template = def.conversion.resolve(&rs.columns);
        let branch = (&template, rs.rows.iter());
        instance_from_branches(def, anchor_value, [branch], &mut RenderBuf::default())
    }

    fn movie_db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("movie")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("title", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("person")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("name", DataType::Text))
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("cast")
                .column(ColumnDef::new("person_id", DataType::Int))
                .column(ColumnDef::new("movie_id", DataType::Int))
                .foreign_key("person_id", "person", "id")
                .foreign_key("movie_id", "movie", "id"),
        )
        .unwrap();
        db.insert("movie", vec![1.into(), "star wars".into()])
            .unwrap();
        db.insert("movie", vec![2.into(), "solaris".into()])
            .unwrap();
        db.insert("movie", vec![3.into(), "uncast movie".into()])
            .unwrap();
        db.insert("person", vec![1.into(), "harrison ford".into()])
            .unwrap();
        db.insert("person", vec![2.into(), "carrie fisher".into()])
            .unwrap();
        db.insert("cast", vec![1.into(), 1.into()]).unwrap();
        db.insert("cast", vec![2.into(), 1.into()]).unwrap();
        db.insert("cast", vec![1.into(), 2.into()]).unwrap();
        db
    }

    /// The paper's cast qunit: movie ⋈ cast ⋈ person, anchored on title.
    fn cast_def(db: &Database) -> QunitDefinition {
        let b = QueryBuilder::new(db)
            .table("movie")
            .unwrap()
            .table("cast")
            .unwrap()
            .table("person")
            .unwrap()
            .join(0, "id", 1, "movie_id")
            .unwrap()
            .join(1, "person_id", 2, "id")
            .unwrap();
        let title = b.col(0, "title").unwrap();
        let q = b.filter(P::eq_param(title, "x")).build();
        QunitDefinition {
            name: "movie_cast".into(),
            base: View::new("movie_cast", q),
            conversion: ConversionExpr::nested(
                "cast",
                vec!["movie.title".into()],
                vec!["person.name".into()],
            ),
            anchor: Some(AnchorSpec {
                table: "movie".into(),
                column: "title".into(),
                param: "x".into(),
            }),
            intent_terms: vec!["cast".into()],
            covered_fields: vec!["movie.title".into(), "person.name".into()],
            utility: 1.0,
            provenance: DerivationSource::Manual,
        }
    }

    /// A small IMDb and all four catalogs over it: expert, schema-data,
    /// query-log and evidence.
    fn imdb_catalogs() -> (ImdbData, Vec<QunitCatalog>) {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let dictionary =
            || EntityDictionary::from_database(&data.db, EntityDictionary::imdb_specs());
        let log = QueryLog::generate(
            &data,
            QueryLogConfig {
                n_queries: 3000,
                ..QueryLogConfig::tiny()
            },
        );
        let raw: Vec<String> = log.records.iter().map(|r| r.raw.clone()).collect();
        let corpus = EvidenceCorpus::generate(
            &data,
            EvidenceGenConfig {
                n_pages: 200,
                ..EvidenceGenConfig::tiny()
            },
        );
        let pages: Vec<EvidencePage> = corpus
            .pages
            .iter()
            .map(|p| EvidencePage {
                elements: p
                    .elements
                    .iter()
                    .map(|e| (e.tag.clone(), e.text.clone()))
                    .collect(),
            })
            .collect();
        let catalogs = vec![
            expert_imdb_qunits(&data.db).unwrap(),
            schema_data::derive(&data.db, &SchemaDataConfig::default()).unwrap(),
            querylog::derive(
                &data.db,
                &Segmenter::new(dictionary()),
                &raw,
                &QueryLogDeriveConfig::default(),
            )
            .unwrap(),
            evidence::derive(
                &data.db,
                &dictionary(),
                &pages,
                &EvidenceDeriveConfig { min_pages: 3 },
            )
            .unwrap(),
        ];
        for catalog in &catalogs {
            assert!(catalog.iter().any(QunitDefinition::is_anchored));
        }
        (data, catalogs)
    }

    #[test]
    fn materialize_one_binds_anchor() {
        let db = movie_db();
        let def = cast_def(&db);
        let inst = materialize_one(&db, &def, &"star wars".into()).unwrap();
        assert_eq!(inst.key, "movie_cast::star wars");
        assert_eq!(inst.tuple_count, 2);
        assert!(inst.text.contains("harrison ford"));
        assert!(inst.text.contains("carrie fisher"));
        assert!(!inst.text.contains("solaris"));
        // a value no row carries: an instance with nothing in it
        let none = materialize_one(&db, &def, &"uncast movie".into()).unwrap();
        assert_eq!(none.key, "movie_cast::uncast movie");
        assert_eq!((none.tuple_count, none.rendered.as_str()), (0, ""));
    }

    #[test]
    fn materialize_all_groups_by_anchor() {
        let db = movie_db();
        let def = cast_def(&db);
        let all = materialize_all(&db, &def).unwrap();
        // star wars and solaris have cast; "uncast movie" has none
        assert_eq!(all.len(), 2);
        let keys: Vec<&str> = all.iter().map(|i| i.key.as_str()).collect();
        assert!(keys.contains(&"movie_cast::star wars"));
        assert!(keys.contains(&"movie_cast::solaris"));
        let sw = all.iter().find(|i| i.key.ends_with("star wars")).unwrap();
        assert_eq!(sw.tuple_count, 2);
    }

    /// The on-demand path yields exactly the bulk path's instance, for every
    /// instance of every anchored definition of all four catalogs —
    /// multi-branch pages, and titles several movies share, included.
    #[test]
    fn bulk_and_one_agree() {
        let db = movie_db();
        let def = cast_def(&db);
        for inst in materialize_all(&db, &def).unwrap() {
            let single = materialize_one(&db, &def, inst.anchor_value.as_ref().unwrap()).unwrap();
            assert_eq!(single, inst);
        }

        let (data, catalogs) = imdb_catalogs();
        let mut multi_branch = 0;
        for def in catalogs.iter().flat_map(QunitCatalog::iter) {
            if !def.is_anchored() {
                continue;
            }
            let anchor = def.anchor.as_ref().unwrap();
            let residual = strip_param(&def.base.query.predicate, &anchor.param);
            if star_branches(&def.base.query, &residual).len() > 1 {
                multi_branch += 1;
            }
            let all = materialize_all(&data.db, def).unwrap();
            assert!(!all.is_empty(), "{}", def.name);
            for inst in all {
                let value = inst.anchor_value.as_ref().unwrap();
                let single = materialize_one(&data.db, def, value).unwrap();
                assert_eq!(single, inst, "{}", def.name);
            }
        }
        assert!(multi_branch > 0, "no multi-branch definition covered");
    }

    /// The in-place path against the owned one it replaced, instance for
    /// instance and in order, for every definition of all four catalogs.
    #[test]
    fn materialize_all_matches_the_reference() {
        let (data, catalogs) = imdb_catalogs();
        let expert = &catalogs[0];
        for name in ["top_charts", "movie_page"] {
            assert!(expert.get(name).is_some(), "{name}");
        }
        assert!(!expert.get("top_charts").unwrap().is_anchored());
        let mut instances = 0;
        for def in catalogs.iter().flat_map(QunitCatalog::iter) {
            let now = materialize_all(&data.db, def).unwrap();
            assert_eq!(
                now,
                materialize_all_reference(&data.db, def).unwrap(),
                "{}",
                def.name
            );
            instances += now.len();
        }
        assert!(instances > 500, "{instances} instances");
    }

    #[test]
    fn singleton_definition_materializes_once() {
        let db = movie_db();
        let q = QueryBuilder::new(&db).table("movie").unwrap().build();
        let def = QunitDefinition {
            name: "all_movies".into(),
            base: View::new("all_movies", q),
            conversion: ConversionExpr::flat("movies"),
            anchor: None,
            intent_terms: vec!["charts".into()],
            covered_fields: vec!["movie.title".into()],
            utility: 0.5,
            provenance: DerivationSource::Manual,
        };
        let all = materialize_all(&db, &def).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].key, "all_movies::*");
        assert!(all[0].text.contains("solaris"));
        assert!(all[0].text.contains("uncast movie"));
        // materialize_one on an un-anchored def is an error
        assert!(materialize_one(&db, &def, &1.into()).is_err());
    }

    /// `instance_from_branches` as it was when each branch was its own
    /// `ResultSet` rendered to fresh strings: later branches go through a
    /// header-less copy of the template.
    fn instance_from_branches_reference(
        def: &QunitDefinition,
        branches: &[ResultSet],
    ) -> (String, String, usize) {
        let mut rendered = String::new();
        let mut text = String::new();
        let mut tuple_count = 0;
        let mut header_done = false;
        for rs in branches {
            if rs.rows.is_empty() {
                continue;
            }
            tuple_count += rs.len();
            let (r, t) = if header_done {
                let headerless = ConversionExpr {
                    root_label: def.conversion.root_label.clone(),
                    header: Vec::new(),
                    foreach: def.conversion.foreach.clone(),
                };
                headerless.render_reference(rs)
            } else {
                header_done = true;
                def.conversion.render_reference(rs)
            };
            rendered.push_str(&r);
            if !t.is_empty() {
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t);
            }
        }
        (rendered, text, tuple_count)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn branch_assembly_matches_the_reference_byte_for_byte(
            template in crate::presentation::tests::arb_template(),
            branches in proptest::collection::vec(crate::presentation::tests::arb_result_set(), 0..4),
        ) {
            let def = QunitDefinition {
                conversion: template,
                ..cast_def(&movie_db())
            };
            let headerless = ConversionExpr {
                header: Vec::new(),
                ..def.conversion.clone()
            };
            let templates: Vec<[RowRenderer; 2]> = branches
                .iter()
                .map(|rs| [def.conversion.resolve(&rs.columns), headerless.resolve(&rs.columns)])
                .collect();
            // as the grouping leaves them: only the branches that have rows
            let per_branch: Vec<BranchRows> = branches
                .iter()
                .enumerate()
                .filter(|(_, rs)| !rs.rows.is_empty())
                .map(|(b, rs)| (b, rs.rows.clone()))
                .collect();
            let inst = instance_from_group(&def, "star wars".into(), &templates, &per_branch);
            proptest::prop_assert_eq!(
                (inst.rendered, inst.text, inst.tuple_count),
                instance_from_branches_reference(&def, &branches)
            );
            proptest::prop_assert_eq!(inst.key, "movie_cast::star wars");
        }
    }

    #[test]
    fn strip_param_only_removes_target() {
        let p = P::eq_param(relstore::ColRef::new(0, 1), "x")
            .and(P::eq(relstore::ColRef::new(0, 0), 3));
        let stripped = strip_param(&p, "x");
        assert_eq!(stripped, P::eq(relstore::ColRef::new(0, 0), 3));
        let kept = strip_param(&p, "other");
        assert_eq!(kept, p);
    }
}
