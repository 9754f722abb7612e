//! Conversion expressions — the presentation half of a qunit definition.
//!
//! The paper's example renders a cast as nested markup:
//!
//! ```text
//! <cast movie="$x">
//!   <foreach:tuple> <person>$person.name</person> </foreach:tuple>
//! </cast>
//! ```
//!
//! [`ConversionExpr`] captures that shape: a root label, *header* fields
//! shown once (drawn from the first tuple — e.g. the movie title), and
//! *foreach* fields repeated per tuple (e.g. each cast member's name).
//! Rendering produces both markup (for display) and flat text (for the IR
//! index).

use relstore::exec::{JoinedRow, ResultSet};
use relstore::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A presentation template over a base expression's result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversionExpr {
    /// Root element label, e.g. `cast`.
    pub root_label: String,
    /// Qualified columns rendered once, from the first tuple.
    pub header: Vec<String>,
    /// Qualified columns rendered per tuple, nested under `foreach`.
    pub foreach: Vec<String>,
}

impl ConversionExpr {
    /// A template that renders *every* column of every tuple (used as a
    /// fallback when derivation has no better idea).
    pub fn flat(root_label: impl Into<String>) -> Self {
        ConversionExpr {
            root_label: root_label.into(),
            header: Vec::new(),
            foreach: Vec::new(),
        }
    }

    /// A nested template: `header` once, `foreach` per tuple.
    pub fn nested(
        root_label: impl Into<String>,
        header: Vec<String>,
        foreach: Vec<String>,
    ) -> Self {
        ConversionExpr {
            root_label: root_label.into(),
            header,
            foreach,
        }
    }

    /// Render a result set to `(markup, plain_text)`.
    ///
    /// Missing columns are skipped silently — a conversion expression may
    /// name attributes that a particular base expression doesn't project
    /// (derivations are heuristic); rendering stays total.
    pub fn render(&self, rs: &ResultSet) -> (String, String) {
        let mut buf = RenderBuf::default();
        self.resolve(&rs.columns).render_rows(&rs.rows, &mut buf);
        (buf.markup, buf.text)
    }

    /// Look this template's columns up in `columns` once, so that rendering
    /// any number of row groups of that result set is index reads and
    /// appends.
    pub(crate) fn resolve(&self, columns: &[String]) -> RowRenderer {
        let cells = |names: &[String]| -> Vec<Cell> {
            let cell = |n: &String| Some((short(n).into(), columns.iter().position(|c| c == n)?));
            names.iter().filter_map(cell).collect()
        };
        // A flat template (no header, no foreach) renders every column of
        // every row.
        let flat = self.header.is_empty() && self.foreach.is_empty();
        RowRenderer {
            root_label: self.root_label.clone(),
            header: cells(&self.header),
            foreach: cells(if flat { columns } else { &self.foreach }),
        }
    }
}

fn short(qualified: &str) -> &str {
    qualified.rsplit('.').next().unwrap_or(qualified)
}

/// One rendered field: its tag and the column it reads.
type Cell = (Box<str>, usize);

/// A row's cells by result column: an owned row, or a joined row read in
/// place from the tables.
pub(crate) trait Cells {
    fn cell(&self, column: usize) -> &Value;
}

impl Cells for Vec<Value> {
    fn cell(&self, column: usize) -> &Value {
        &self[column]
    }
}

impl Cells for JoinedRow<'_, '_> {
    fn cell(&self, column: usize) -> &Value {
        self.get(column)
    }
}

impl<C: Cells + ?Sized> Cells for &C {
    fn cell(&self, column: usize) -> &Value {
        (**self).cell(column)
    }
}

/// Where rendering writes, reused from one instance to the next: the
/// markup and text, and the blocks already written.
#[derive(Debug, Default)]
pub(crate) struct RenderBuf {
    pub(crate) markup: String,
    pub(crate) text: String,
    seen: SeenBlocks,
}

/// The `<tuple>` blocks one [`RowRenderer::render_rows`] call has kept, as
/// byte ranges of the markup they were written to: a repeat is found by
/// hash and confirmed by content, and nothing is copied.
#[derive(Debug, Default)]
struct SeenBlocks {
    /// Content hash → the latest kept block with that hash.
    latest: HashMap<u64, usize>,
    /// Each kept block's range, and the previous kept block with the same
    /// hash, if any.
    blocks: Vec<(Range<usize>, Option<usize>)>,
}

impl SeenBlocks {
    fn clear(&mut self) {
        self.latest.clear();
        self.blocks.clear();
    }

    /// Keep `markup[block]` unless an equal block is kept already; returns
    /// whether it was kept.
    fn keep(&mut self, markup: &str, block: Range<usize>) -> bool {
        let content = &markup[block.clone()];
        let mut hasher = DefaultHasher::new();
        content.hash(&mut hasher);
        let hash = hasher.finish();
        let mut at = self.latest.get(&hash).copied();
        while let Some(i) = at {
            let (kept, previous) = &self.blocks[i];
            if markup[kept.clone()] == *content {
                return false;
            }
            at = *previous;
        }
        let previous = self.latest.insert(hash, self.blocks.len());
        self.blocks.push((block, previous));
        true
    }
}

/// A [`ConversionExpr`] resolved against one result set's columns: the
/// columns it reads and the tags it writes, owned, so it is kept beside the
/// rows it renders.
#[derive(Debug)]
pub(crate) struct RowRenderer {
    root_label: String,
    /// Rendered once, from the first row.
    header: Vec<Cell>,
    /// Rendered per row, as one `<tuple>` block.
    foreach: Vec<Cell>,
}

impl RowRenderer {
    /// Append the rendering of `rows` to `buf.markup` and its plain text,
    /// space-separated, to `buf.text`.
    pub(crate) fn render_rows<R: Cells>(
        &self,
        rows: impl IntoIterator<Item = R>,
        buf: &mut RenderBuf,
    ) {
        let RenderBuf { markup, text, seen } = buf;
        seen.clear();
        let text_start = text.len();
        push_tag(markup, "<", &self.root_label);
        for (i, row) in rows.into_iter().enumerate() {
            if i == 0 {
                for cell in &self.header {
                    push_cell(markup, text, text_start, cell, &row);
                }
            }
            // Joins fan out, so a block may repeat: only the first is kept.
            // Blocks are written in place and cut back off when empty or seen.
            let (tuple_at, text_at) = (markup.len(), text.len());
            markup.push_str("<tuple>");
            let block_at = markup.len();
            if text_at > text_start {
                text.push(' ');
            }
            let block_text_start = text.len();
            for cell in &self.foreach {
                push_cell(markup, text, block_text_start, cell, &row);
            }
            if markup.len() == block_at || !seen.keep(markup, block_at..markup.len()) {
                markup.truncate(tuple_at);
                text.truncate(text_at);
            } else {
                markup.push_str("</tuple>");
            }
        }
        push_tag(markup, "</", &self.root_label);
    }
}

/// `<tag>value</tag>` onto `markup`; the value onto `text`, after a space
/// unless it is the first thing past `text_start`.
fn push_cell(
    markup: &mut String,
    text: &mut String,
    text_start: usize,
    (tag, column): &Cell,
    row: &impl Cells,
) {
    push_tag(markup, "<", tag);
    let value_at = markup.len();
    match row.cell(*column) {
        Value::Text(s) => markup.push_str(s),
        other => write!(markup, "{other}").expect("writing to a String cannot fail"),
    }
    if text.len() > text_start {
        text.push(' ');
    }
    text.push_str(&markup[value_at..]);
    push_tag(markup, "</", tag);
}

fn push_tag(markup: &mut String, open: &str, tag: &str) {
    markup.push_str(open);
    markup.push_str(tag);
    markup.push('>');
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use relstore::expr::ColRef;
    use std::collections::HashSet;

    /// The renderer as it was before [`RowRenderer`] — a `format!` and a column
    /// lookup per cell, a block `String` per row — kept verbatim as the oracle
    /// the property tests hold the new one to, byte for byte.
    impl ConversionExpr {
        pub(crate) fn render_reference(&self, rs: &ResultSet) -> (String, String) {
            fn push_text(buf: &mut String, v: &str) {
                if !buf.is_empty() {
                    buf.push(' ');
                }
                buf.push_str(v);
            }

            let mut markup = String::new();
            let mut text = String::new();

            let col = |name: &str| rs.column_index(name);

            markup.push_str(&format!("<{}>", self.root_label));
            // Header: first tuple's values for the header columns.
            if let Some(first) = rs.rows.first() {
                let header_cols: Vec<&String> = if self.header.is_empty() && self.foreach.is_empty()
                {
                    Vec::new()
                } else {
                    self.header.iter().collect()
                };
                for h in header_cols {
                    if let Some(ci) = col(h) {
                        let v = first[ci].display_plain();
                        markup.push_str(&format!("<{}>{}</{}>", short(h), v, short(h)));
                        push_text(&mut text, &v);
                    }
                }
            }
            // Foreach: per-tuple nested block. A flat template (no header, no
            // foreach) renders every column of every row.
            let foreach_cols: Vec<String> = if self.header.is_empty() && self.foreach.is_empty() {
                rs.columns.clone()
            } else {
                self.foreach.clone()
            };
            let mut seen_blocks: HashSet<String> = HashSet::new();
            for row in &rs.rows {
                let mut block = String::new();
                let mut block_text = String::new();
                for fcol in &foreach_cols {
                    if let Some(ci) = col(fcol) {
                        let v = row[ci].display_plain();
                        block.push_str(&format!("<{}>{}</{}>", short(fcol), v, short(fcol)));
                        push_text(&mut block_text, &v);
                    }
                }
                if block.is_empty() || !seen_blocks.insert(block.clone()) {
                    continue; // skip empty and duplicate tuples (joins fan out)
                }
                markup.push_str(&format!("<tuple>{block}</tuple>"));
                push_text(&mut text, &block_text);
            }
            markup.push_str(&format!("</{}>", self.root_label));
            (markup, text)
        }
    }

    const COLUMN_POOL: [&str; 5] = [
        "movie.title",
        "person.name",
        "cast.role",
        "movie.year",
        "unqualified",
    ];

    /// Result sets over a small pool of column names (repeats allowed) and
    /// of cells (every `Value` variant, empty text; small, so rows repeat),
    /// zero rows included.
    pub(crate) fn arb_result_set() -> impl Strategy<Value = ResultSet> {
        let cell = prop::sample::select(vec![
            Value::Null,
            Value::Int(0),
            Value::Int(-12),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Bool(false),
            Value::from(""),
            Value::from("a"),
            Value::from("star wars"),
        ]);
        (
            prop::collection::vec(prop::sample::select(COLUMN_POOL.to_vec()), 0..5),
            prop::collection::vec(prop::collection::vec(cell, 4), 0..6),
        )
            .prop_map(|(columns, mut rows)| {
                rows.iter_mut().for_each(|row| row.truncate(columns.len()));
                ResultSet {
                    sources: (0..columns.len()).map(|c| ColRef::new(0, c)).collect(),
                    columns: columns.into_iter().map(String::from).collect(),
                    rows,
                }
            })
    }

    /// Templates over the same pool plus a column no result set has: flat
    /// (both lists empty), header-only, foreach-only and nested all occur.
    pub(crate) fn arb_template() -> impl Strategy<Value = ConversionExpr> {
        let mut names = COLUMN_POOL.to_vec();
        names.push("ghost.col");
        let list = || prop::collection::vec(prop::sample::select(names.clone()), 0..3);
        (list(), list()).prop_map(|(header, foreach)| {
            let owned = |names: Vec<&str>| names.into_iter().map(String::from).collect();
            ConversionExpr::nested("root", owned(header), owned(foreach))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn render_matches_the_reference_byte_for_byte(
            template in arb_template(),
            rs in arb_result_set(),
        ) {
            prop_assert_eq!(template.render(&rs), template.render_reference(&rs));
        }
    }

    fn cast_result() -> ResultSet {
        ResultSet {
            columns: vec![
                "movie.title".into(),
                "person.name".into(),
                "cast.role".into(),
            ],
            sources: vec![ColRef::new(0, 0), ColRef::new(1, 0), ColRef::new(2, 0)],
            rows: vec![
                vec![
                    Value::from("star wars"),
                    Value::from("harrison ford"),
                    Value::from("actor"),
                ],
                vec![
                    Value::from("star wars"),
                    Value::from("carrie fisher"),
                    Value::from("actress"),
                ],
            ],
        }
    }

    #[test]
    fn nested_render_matches_paper_shape() {
        let conv = ConversionExpr::nested(
            "cast",
            vec!["movie.title".into()],
            vec!["person.name".into()],
        );
        let (markup, text) = conv.render(&cast_result());
        assert_eq!(
            markup,
            "<cast><title>star wars</title>\
             <tuple><name>harrison ford</name></tuple>\
             <tuple><name>carrie fisher</name></tuple></cast>"
        );
        assert_eq!(text, "star wars harrison ford carrie fisher");
    }

    #[test]
    fn flat_render_covers_all_columns() {
        let conv = ConversionExpr::flat("result");
        let (markup, text) = conv.render(&cast_result());
        assert!(markup.contains("<role>actor</role>"));
        assert!(text.contains("carrie fisher"));
        assert!(text.contains("actress"));
    }

    #[test]
    fn duplicate_foreach_blocks_deduplicated() {
        // A join that fans out repeats the same person twice; presentation
        // dedups (the paper: "rather than have the name of the movie
        // repeated with each tuple").
        let mut rs = cast_result();
        rs.rows.push(rs.rows[0].clone());
        let conv = ConversionExpr::nested(
            "cast",
            vec!["movie.title".into()],
            vec!["person.name".into()],
        );
        let (markup, _) = conv.render(&rs);
        assert_eq!(markup.matches("harrison ford").count(), 1);
    }

    #[test]
    fn missing_columns_skipped() {
        let conv = ConversionExpr::nested(
            "x",
            vec!["ghost.col".into()],
            vec!["person.name".into(), "ghost.other".into()],
        );
        let (markup, text) = conv.render(&cast_result());
        assert!(markup.contains("harrison ford"));
        assert!(!markup.contains("ghost"));
        assert!(!text.is_empty());
    }

    #[test]
    fn empty_result_renders_empty_root() {
        let conv = ConversionExpr::nested("cast", vec!["movie.title".into()], vec![]);
        let rs = ResultSet {
            columns: vec!["movie.title".into()],
            sources: vec![ColRef::new(0, 0)],
            rows: vec![],
        };
        let (markup, text) = conv.render(&rs);
        assert_eq!(markup, "<cast></cast>");
        assert!(text.is_empty());
    }
}
