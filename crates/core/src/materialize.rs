//! Qunit materialization, from row ids.
//!
//! The paper stresses that qunits need not be materialized ("we expect that
//! most qunits will not be materialized in most implementations"); what the
//! search engine needs is the *document rendering* of an instance, and only
//! of the instances it is about to index or to return. So the one thing
//! kept per definition is `DefRows`: its joins run once, and for every
//! instance the joined rows it is made of — row ids, never cells or pages.
//! There is one rendering path, `DefRows::render`: it reads an instance's
//! cells where they live in the tables and writes its page into buffers
//! reused from the previous render. The engine renders a page when it
//! indexes it and when a query returns it (`DefRows::page`, which keeps
//! the page of the few instances of more than `KEEP_ABOVE` rows once
//! rendered); [`materialize_all`] renders every instance of a definition in
//! one pass.
//!
//! **Order contract.** A definition's instances come in first-seen order
//! over its branches' rows, branch after branch, each branch's rows in
//! `relstore::exec::join`'s output order (probe order × build insertion
//! order) — a pure function of the database, never of thread timing or map
//! iteration. The whole determinism chain hangs off this: the engine's
//! build merge replays catalog × materialization order into document
//! insertion order, and the round-robin index sharding partitions by that
//! insertion order, so "1 worker ≡ 8 workers" and "1 shard ≡ N shards"
//! (both CI-gated) are only as good as this staying deterministic. Don't
//! introduce `HashMap`-ordered iteration here.

use crate::presentation::{Cells, ConversionExpr, RenderBuf, RowRenderer};
use crate::qunit::{QunitDefinition, QunitInstance};
use relstore::exec::{join, RowIds};
use relstore::{Binding, Database, Error, Predicate, Query, Result, Value};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

/// Materialize every instance of a definition: `DefRows::join`, then
/// every instance rendered in order.
pub fn materialize_all(db: &Database, def: &QunitDefinition) -> Result<Vec<QunitInstance>> {
    let rows = DefRows::join(db, def)?;
    let mut buf = RenderBuf::default();
    Ok((0..rows.len())
        .map(|i| rows.instance(db, def, i, &mut buf))
        .collect())
}

/// Every instance of one definition, as the joined rows it is made of.
///
/// For anchored definitions the base expression's join tree is first
/// **star-decomposed** at the anchor: each connected component of non-anchor
/// tables becomes its own branch query (anchor + component). Branches run
/// unbound (anchor predicate stripped), rows are grouped by anchor value,
/// and an instance is its anchor value's rows across the branches.
///
/// This gives outer-join semantics across satellites: a movie with cast but
/// no soundtrack still gets an instance (its soundtrack branch is simply
/// empty), and two one-to-many satellites never cross-product each other —
/// exactly how an entity page composes independent sections.
#[derive(Debug)]
pub(crate) struct DefRows {
    branches: Vec<Branch>,
    /// Instance `i`'s rows are `members[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    /// Every instance's rows as `(branch, row)`, contiguous and in the
    /// order they were joined.
    members: Vec<(u32, u32)>,
    /// The instances of more than `KEEP_ABOVE` rows, ascending, and each
    /// one's page once it is first rendered.
    kept: Vec<(u32, OnceLock<Arc<QunitInstance>>)>,
}

/// Instances of more rows than this keep their page once it is rendered. A
/// catalog has a handful — the charts, the filmographies of the most-cast
/// people — and one of them costs a query more to render than all its other
/// results together.
///
/// Chosen by sweep on the benchmark's `imdb_uncached` (IMDb ×4 seed 42,
/// 27 098 instances, 2 cores, 15 s runs, thresholds alternated in rounds;
/// `query_p99_us` as the median ratio to 64 over 6 rounds): 64 keeps 83
/// pages (2.1 MB of markup and text once all are asked for); 256 keeps 23
/// (1.6 MB), p99 ×0.97; 1024 keeps 5 (0.9 MB), p99 ×1.13; never keeping,
/// ×1.15. Keeping every page read p99 ×0.78 but `peak_rss_mb` ×1.29 in an
/// earlier 5-round sweep. `query_p50_us` and `peak_rss_mb` stayed within
/// the runs' spread from 32 to 1024. 256 is the largest threshold tried
/// that keeps 64's tail.
const KEEP_ABOVE: usize = 256;

/// One star branch's joined rows, and how they render.
#[derive(Debug)]
struct Branch {
    rows: RowIds,
    /// The anchor's output column; `None` for a singleton definition.
    anchor: Option<usize>,
    /// The conversion resolved against the rows' columns: in full for an
    /// instance's first branch, header-less for later ones so header fields
    /// aren't repeated.
    templates: [RowRenderer; 2],
}

impl Branch {
    fn new(def: &QunitDefinition, rows: RowIds, anchor: Option<usize>) -> Self {
        let headerless = ConversionExpr {
            header: Vec::new(),
            ..def.conversion.clone()
        };
        let templates = [
            def.conversion.resolve(&rows.columns),
            headerless.resolve(&rows.columns),
        ];
        Branch {
            rows,
            anchor,
            templates,
        }
    }
}

/// A count or position as stored in `DefRows`.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("row counts fit u32")
}

impl DefRows {
    /// Run `def`'s joins against `db` and group their rows into instances.
    pub(crate) fn join(db: &Database, def: &QunitDefinition) -> Result<Self> {
        let Some(anchor) = &def.anchor else {
            // One instance of every row.
            let rows = join(db, &def.base.query, &Binding::empty())?.into_row_ids();
            let n = narrow(rows.len());
            return Ok(DefRows::new(
                vec![Branch::new(def, rows, None)],
                vec![0, n],
                (0..n).map(|r| (0, r)).collect(),
            ));
        };
        let residual = strip_param(&def.base.query.predicate, &anchor.param);
        let anchor_column = anchor.qualified();
        // Group ids in first-seen order, by borrowed anchor value, and every
        // row's group, branch after branch (`None`: a NULL).
        let mut group_of: HashMap<&Value, u32> = HashMap::new();
        let mut row_groups: Vec<Option<u32>> = Vec::new();
        let mut joined = Vec::new();
        for branch in star_branches(&def.base.query, &residual) {
            let rows = join(db, &branch, &Binding::empty())?;
            let anchor_col =
                rows.column_index(&anchor_column)
                    .ok_or_else(|| Error::UnknownColumn {
                        table: anchor.table.clone(),
                        column: anchor.column.clone(),
                    })?;
            row_groups.extend(rows.rows().map(|row| {
                let value = row.get(anchor_col);
                if value.is_null() {
                    return None;
                }
                let next = narrow(group_of.len());
                Some(*group_of.entry(value).or_insert(next))
            }));
            joined.push((rows.into_row_ids(), anchor_col));
        }
        let groups = group_of.len();

        // Each group's rows as `(branch, row)`, contiguous and in the order
        // they were seen: a counting sort of `row_groups`.
        let mut start = vec![0u32; groups + 1];
        for &g in row_groups.iter().flatten() {
            start[g as usize + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut fill = start.clone();
        let mut members = vec![(0, 0); start[groups] as usize];
        let every_row = joined
            .iter()
            .enumerate()
            .flat_map(|(b, (rows, _))| (0..rows.len()).map(move |r| (narrow(b), narrow(r))));
        for (g, at) in row_groups.into_iter().zip(every_row) {
            if let Some(g) = g {
                let slot = &mut fill[g as usize];
                members[*slot as usize] = at;
                *slot += 1;
            }
        }
        let branches = joined
            .into_iter()
            .map(|(rows, anchor_col)| Branch::new(def, rows, Some(anchor_col)))
            .collect();
        Ok(DefRows::new(branches, start, members))
    }

    fn new(branches: Vec<Branch>, start: Vec<u32>, members: Vec<(u32, u32)>) -> Self {
        let kept = (0..start.len() - 1)
            .filter(|&i| (start[i + 1] - start[i]) as usize > KEEP_ABOVE)
            .map(|i| (narrow(i), OnceLock::new()))
            .collect();
        DefRows {
            branches,
            start,
            members,
            kept,
        }
    }

    /// Number of instances.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Instance `i`'s rows, as `(branch, row)`.
    fn members(&self, i: usize) -> &[(u32, u32)] {
        &self.members[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Instance `i`'s anchor value, read from `db`; `None` for a singleton.
    pub(crate) fn anchor<'db>(&self, db: &'db Database, i: usize) -> Option<&'db Value> {
        let &(b, r) = self.members(i).first()?;
        let branch = &self.branches[b as usize];
        Some(branch.rows.row(db, r as usize).get(branch.anchor?))
    }

    /// Instance `i`'s key, `definition::anchor` (`definition::*` for a
    /// singleton), written over `out`.
    pub(crate) fn write_key(
        &self,
        db: &Database,
        def: &QunitDefinition,
        i: usize,
        out: &mut String,
    ) {
        write_key(def, self.anchor(db, i), out);
    }

    /// Render instance `i`'s page and text over `buf.markup` and
    /// `buf.text`, branch by branch; returns its number of tuples.
    pub(crate) fn render(&self, db: &Database, i: usize, buf: &mut RenderBuf) -> usize {
        let runs = self.members(i).chunk_by(|x, y| x.0 == y.0);
        let branches = runs.enumerate().map(|(nth, run)| {
            let branch = &self.branches[run[0].0 as usize];
            let rows = run
                .iter()
                .map(move |&(_, r)| branch.rows.row(db, r as usize));
            (&branch.templates[usize::from(nth > 0)], rows)
        });
        render_branches(branches, buf)
    }

    /// Instance `i`'s page: rendered in `buf` and copied out, or, for an
    /// instance of more than `KEEP_ABOVE` rows, the page kept from its
    /// first render.
    pub(crate) fn page(
        &self,
        db: &Database,
        def: &QunitDefinition,
        i: usize,
        buf: &mut RenderBuf,
    ) -> Arc<QunitInstance> {
        let mut render = || Arc::new(self.instance(db, def, i, buf));
        match self.kept.binary_search_by_key(&narrow(i), |(at, _)| *at) {
            Ok(k) => Arc::clone(self.kept[k].1.get_or_init(render)),
            Err(_) => render(),
        }
    }

    /// Instance `i`, rendered in `buf` and copied out.
    pub(crate) fn instance(
        &self,
        db: &Database,
        def: &QunitDefinition,
        i: usize,
        buf: &mut RenderBuf,
    ) -> QunitInstance {
        let tuple_count = self.render(db, i, buf);
        instance(def, self.anchor(db, i).cloned(), buf, tuple_count)
    }
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

/// Render the non-empty ones of `branches` over `buf`, each by the template
/// it comes with; returns the number of rows rendered.
fn render_branches<'t, R: Cells, Rows: ExactSizeIterator<Item = R>>(
    branches: impl IntoIterator<Item = (&'t RowRenderer, Rows)>,
    buf: &mut RenderBuf,
) -> usize {
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
    tuple_count
}

/// The key of `def`'s instance of `anchor`, `definition::anchor`
/// (`definition::*` for a singleton), written over `out`.
fn write_key(def: &QunitDefinition, anchor: Option<&Value>, out: &mut String) {
    out.clear();
    match anchor {
        Some(v) => write!(out, "{}::{v}", def.name),
        None => write!(out, "{}::*", def.name),
    }
    .expect("writing to a String cannot fail");
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
    write_key(def, anchor_value.as_ref(), &mut buf.markup);
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
    use crate::engine::{EngineConfig, QunitSearchEngine};
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
        let mut buf = RenderBuf::default();
        let tuple_count = render_branches(rendered, &mut buf);
        instance(def, Some(key), &mut buf, tuple_count)
    }

    fn instance_from(
        def: &QunitDefinition,
        anchor_value: Option<Value>,
        rs: &ResultSet,
    ) -> QunitInstance {
        let template = def.conversion.resolve(&rs.columns);
        let mut buf = RenderBuf::default();
        let tuple_count = render_branches([(&template, rs.rows.iter())], &mut buf);
        instance(def, anchor_value, &mut buf, tuple_count)
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

    /// The one-definition catalog of [`cast_def`] over [`movie_db`], as an
    /// engine.
    fn cast_engine() -> QunitSearchEngine {
        let db = Arc::new(movie_db());
        let mut catalog = QunitCatalog::new();
        catalog.add(cast_def(&db));
        let config = EngineConfig {
            entity_specs: Some(vec![("movie".into(), "title".into())]),
            ..EngineConfig::default()
        };
        QunitSearchEngine::build(&db, catalog, config).unwrap()
    }

    #[test]
    fn an_instance_renders_on_demand_bound_to_its_anchor() {
        let engine = cast_engine();
        let inst = engine.instance("movie_cast::star wars").unwrap();
        assert_eq!(inst.key, "movie_cast::star wars");
        assert_eq!(inst.tuple_count, 2);
        assert!(inst.text.contains("harrison ford"));
        assert!(inst.text.contains("carrie fisher"));
        assert!(!inst.text.contains("solaris"));
        // a value no row carries has no instance, so nothing to render
        assert!(engine.instance("movie_cast::uncast movie").is_none());
    }

    /// Asked for twice, the page of an instance of more than `KEEP_ABOVE`
    /// rows is the very same handle, and every other page a fresh render.
    #[test]
    fn only_the_largest_instances_keep_their_page() {
        let data = ImdbData::generate(ImdbConfig::default());
        let catalog = expert_imdb_qunits(&data.db).unwrap();
        let engine = QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).unwrap();
        let mut kept = 0;
        for (first, again) in engine.instances().zip(engine.instances()) {
            let large = first.tuple_count > KEEP_ABOVE;
            assert_eq!(Arc::ptr_eq(&first, &again), large, "{}", first.key);
            kept += usize::from(large);
        }
        assert!(kept > 0, "no instance large enough to keep");
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

    /// The engine's on-demand render yields exactly the bulk path's
    /// instances, for every instance of every definition of all four
    /// catalogs — in document order, and by key — multi-branch pages, and
    /// titles several movies share, included.
    #[test]
    fn on_demand_renders_equal_materialize_all() {
        let db = movie_db();
        let rendered: Vec<QunitInstance> = cast_engine()
            .instances()
            .map(Arc::unwrap_or_clone)
            .collect();
        assert_eq!(rendered, materialize_all(&db, &cast_def(&db)).unwrap());

        let (data, catalogs) = imdb_catalogs();
        let mut multi_branch = 0;
        for catalog in catalogs {
            for def in catalog.iter().filter(|def| def.is_anchored()) {
                let anchor = def.anchor.as_ref().unwrap();
                let residual = strip_param(&def.base.query.predicate, &anchor.param);
                if star_branches(&def.base.query, &residual).len() > 1 {
                    multi_branch += 1;
                }
            }
            let mut bulk: Vec<QunitInstance> = Vec::new();
            for def in catalog.iter() {
                let all = materialize_all(&data.db, def).unwrap();
                // no anchored definition may pass vacuously
                assert!(!def.is_anchored() || !all.is_empty(), "{}", def.name);
                bulk.extend(all);
            }
            let engine =
                QunitSearchEngine::build(&data.db, catalog, EngineConfig::default()).unwrap();
            let mut first_of_key = HashMap::new();
            for (on_demand, inst) in engine.instances().zip(&bulk) {
                assert_eq!(*on_demand, *inst);
                first_of_key.entry(inst.key.as_str()).or_insert(inst);
            }
            assert_eq!(engine.num_instances(), bulk.len());
            for (key, inst) in first_of_key {
                assert_eq!(*engine.instance(key).unwrap(), *inst, "{key}");
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
