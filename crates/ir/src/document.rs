//! Documents: external-id'd bags of named text fields.
//!
//! [`Document`] is what a caller hands [`crate::IndexBuilder::add`]; an index
//! keeps no `Document`s. It copies each one into its `DocStore` — every
//! external id and field text of the index in one text arena — and hands
//! stored documents back as [`DocView`]s borrowed from it.

use crate::arena::{IdTable, TextArena};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Internal document id: position in the index. Dense, assigned at add time.
pub type DocId = u32;

/// A document to be indexed: an external identifier (e.g. a qunit-instance
/// key) plus named text fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// External identifier, returned with search hits.
    pub external_id: String,
    /// `(field name, text)` pairs, in insertion order.
    pub fields: Vec<(String, String)>,
}

impl Document {
    /// New empty document.
    pub fn new(external_id: impl Into<String>) -> Self {
        Document {
            external_id: external_id.into(),
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style).
    pub fn field(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.fields.push((name.into(), text.into()));
        self
    }

    /// Concatenated text of all fields (used for snippets and debugging).
    pub fn full_text(&self) -> String {
        join_texts(self.fields.iter().map(|(_, text)| text.as_str()))
    }

    /// Text of a named field, if present (first occurrence).
    pub fn get_field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

/// The stored documents of one index, as one text arena.
///
/// Document `d`'s external id is string `firsts[d]` of `strings`, and its
/// fields are the strings after it, up to the next document's external id.
/// Field names are interned: `field_of` holds, per string, the id of the
/// field name in `names` whose text it is ([`NO_FIELD`] for an external id).
/// Building or loading a store allocates per lane, never per document.
#[derive(Debug, Clone)]
pub(crate) struct DocStore {
    strings: TextArena,
    firsts: Vec<u32>,
    field_of: Vec<u32>,
    names: TextArena,
    /// Field name → its id in `names`.
    name_ids: IdTable,
}

/// [`DocStore`]'s `field_of` entry of an external id.
const NO_FIELD: u32 = u32::MAX;

impl Default for DocStore {
    fn default() -> Self {
        DocStore::with_capacity(0, 0, 0)
    }
}

impl DocStore {
    /// An empty store with room for `docs` documents holding `strings`
    /// strings (external ids and field texts) of `bytes` bytes in all.
    pub(crate) fn with_capacity(docs: usize, strings: usize, bytes: usize) -> DocStore {
        DocStore {
            strings: TextArena::with_capacity(strings, bytes),
            firsts: Vec::with_capacity(docs),
            field_of: Vec::with_capacity(strings),
            names: TextArena::default(),
            name_ids: IdTable::with_capacity(4),
        }
    }

    /// Number of documents.
    pub(crate) fn len(&self) -> usize {
        self.firsts.len()
    }

    /// Start a new document.
    fn push_external_id(&mut self, external_id: &str) {
        self.firsts.push(self.strings.push(external_id));
        self.field_of.push(NO_FIELD);
    }

    /// Append a field to the last document, its name interned on first
    /// sight.
    fn push_field(&mut self, name: &str, text: &str) {
        debug_assert!(!self.firsts.is_empty(), "a field follows an external id");
        let names = &self.names;
        let id = match self.name_ids.get(name, |id| names.get(id as usize)) {
            Some(id) => id,
            None => {
                let id = self.names.push(name);
                let names = &self.names;
                self.name_ids
                    .insert_first(name, id, |id| names.get(id as usize))
            }
        };
        self.strings.push(text);
        self.field_of.push(id);
    }

    /// The store a snapshot holds as lanes — the strings, each document's
    /// first string, each string's field-name id, the field names — checked
    /// to describe documents: the external ids start at string 0 and climb,
    /// exactly the strings they name have [`NO_FIELD`], every other string
    /// names a field that exists, and the names are distinct. `name_ids` is
    /// empty, with room for every name, so nothing is allocated here. The
    /// error names the first violation.
    pub(crate) fn from_lanes(
        strings: TextArena,
        firsts: Vec<u32>,
        field_of: Vec<u32>,
        names: TextArena,
        mut name_ids: IdTable,
    ) -> Result<DocStore, &'static str> {
        let first_string = firsts.first().map_or(strings.len(), |&f| f as usize);
        let past = firsts.last().is_some_and(|&f| f as usize >= strings.len());
        if first_string != 0 || past || firsts.windows(2).any(|w| w[0] >= w[1]) {
            return Err("document firsts out of range");
        }
        if field_of.len() != strings.len() {
            return Err("field name ids out of range");
        }
        // The firsts climb within the strings: each is met once, in order.
        let mut next = firsts.iter().peekable();
        for (s, &name) in field_of.iter().enumerate() {
            let first = next.next_if_eq(&&(s as u32)).is_some();
            if first != (name == NO_FIELD) || (!first && name as usize >= names.len()) {
                return Err("field name ids out of range");
            }
        }
        for (id, name) in names.iter().enumerate() {
            if name_ids.insert_first(name, id as u32, |id| names.get(id as usize)) != id as u32 {
                return Err("duplicate field name");
            }
        }
        Ok(DocStore {
            strings,
            firsts,
            field_of,
            names,
            name_ids,
        })
    }

    /// The lanes [`DocStore::from_lanes`] takes: strings, firsts,
    /// field-name ids, names.
    pub(crate) fn lanes(&self) -> (&TextArena, &[u32], &[u32], &TextArena) {
        (&self.strings, &self.firsts, &self.field_of, &self.names)
    }

    /// Append a whole document.
    pub(crate) fn push<'s>(
        &mut self,
        external_id: &str,
        fields: impl IntoIterator<Item = (&'s str, &'s str)>,
    ) {
        self.push_external_id(external_id);
        for (name, text) in fields {
            self.push_field(name, text);
        }
    }

    /// Strings of document `d`: its external id, then its fields' texts.
    fn span(&self, d: usize) -> std::ops::Range<usize> {
        let end = self
            .firsts
            .get(d + 1)
            .map_or(self.strings.len(), |&f| f as usize);
        self.firsts[d] as usize..end
    }

    /// Document `d`, or `None` when out of range.
    pub(crate) fn doc(&self, d: usize) -> Option<DocView<'_>> {
        (d < self.len()).then(|| {
            let span = self.span(d);
            DocView {
                store: self,
                first: span.start,
                end: span.end,
            }
        })
    }

    /// External id of document `d` (in range).
    pub(crate) fn external_id(&self, d: usize) -> &str {
        self.strings.get(self.firsts[d] as usize)
    }

    /// Interned field names, in id order.
    pub(crate) fn field_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.names.iter()
    }

    /// Deal the documents round-robin into `n` stores — document `i` to store
    /// `i % n` — each sized exactly before the copy, and this one freed after
    /// it. One store is this one.
    pub(crate) fn deal(self, n: usize) -> Vec<DocStore> {
        if n <= 1 {
            return vec![self];
        }
        let mut sizes = vec![(0usize, 0usize, 0usize); n];
        for d in 0..self.len() {
            let span = self.span(d);
            let size = &mut sizes[d % n];
            size.0 += 1;
            size.1 += span.len();
            size.2 += span.map(|s| self.strings.get(s).len()).sum::<usize>();
        }
        let mut parts: Vec<DocStore> = sizes
            .into_iter()
            .map(|(docs, strings, bytes)| DocStore::with_capacity(docs, strings, bytes))
            .collect();
        for d in 0..self.len() {
            let doc = self.doc(d).expect("in range");
            parts[d % n].push(doc.external_id(), doc.fields());
        }
        parts
    }

    /// Document `d`'s fields as `(name id, text)`, name ids indexing
    /// [`DocStore::field_names`].
    pub(crate) fn field_ids(&self, d: usize) -> impl Iterator<Item = (u32, &str)> + '_ {
        let span = self.span(d);
        (span.start + 1..span.end).map(|s| (self.field_of[s], self.strings.get(s)))
    }
}

/// Equal stores hold the same documents with the same field-name ids.
impl PartialEq for DocStore {
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
            && self.firsts == other.firsts
            && self.field_of == other.field_of
            && self.names == other.names
    }
}

/// A stored document, borrowed from its index: the view
/// [`crate::Index::document`] and [`crate::ShardedIndex::document`] return.
/// It is `Copy`, and every string it hands out borrows the index, not the
/// view.
#[derive(Clone, Copy)]
pub struct DocView<'a> {
    store: &'a DocStore,
    /// Position of the external id in the store's strings.
    first: usize,
    /// Position one past the document's last field text.
    end: usize,
}

impl<'a> DocView<'a> {
    /// External identifier, returned with search hits.
    pub fn external_id(&self) -> &'a str {
        self.store.strings.get(self.first)
    }

    /// `(field name, text)` pairs, in insertion order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> + 'a {
        let store = self.store;
        (self.first + 1..self.end).map(move |s| {
            let name = store.names.get(store.field_of[s] as usize);
            (name, store.strings.get(s))
        })
    }

    /// Text of a named field, if present (first occurrence).
    pub fn get_field(&self, name: &str) -> Option<&'a str> {
        let store = self.store;
        let id = store
            .name_ids
            .get(name, |id| store.names.get(id as usize))?;
        (self.first + 1..self.end)
            .find(|&s| store.field_of[s] == id)
            .map(|s| store.strings.get(s))
    }

    /// Concatenated text of all fields, as [`Document::full_text`].
    pub fn full_text(&self) -> String {
        join_texts(self.fields().map(|(_, text)| text))
    }
}

/// Field texts joined by single spaces, skipping the separator while the
/// text so far is empty.
fn join_texts<'s>(texts: impl Iterator<Item = &'s str>) -> String {
    let mut out = String::new();
    for text in texts {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(text);
    }
    out
}

impl fmt::Debug for DocView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DocView")
            .field("external_id", &self.external_id())
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let d = Document::new("q1")
            .field("title", "Star Wars")
            .field("body", "cast list");
        assert_eq!(d.external_id, "q1");
        assert_eq!(d.get_field("title"), Some("Star Wars"));
        assert_eq!(d.get_field("missing"), None);
        assert_eq!(d.full_text(), "Star Wars cast list");
    }

    #[test]
    fn duplicate_fields_keep_first_on_get() {
        let d = Document::new("x").field("f", "one").field("f", "two");
        assert_eq!(d.get_field("f"), Some("one"));
        assert_eq!(d.full_text(), "one two");
    }

    #[test]
    fn a_stored_document_reads_back_as_added() {
        let docs = [
            Document::new("q1")
                .field("title", "Star Wars")
                .field("body", "cast list")
                .field("title", "again"),
            Document::new(""),
            Document::new("İ").field("", "").field("body", "ß"),
        ];
        let mut store = DocStore::default();
        for d in &docs {
            store.push(
                &d.external_id,
                d.fields.iter().map(|(n, t)| (n.as_str(), t.as_str())),
            );
        }
        assert_eq!(store.len(), 3);
        for (i, d) in docs.iter().enumerate() {
            let view = store.doc(i).unwrap();
            assert_eq!(view.external_id(), d.external_id);
            let fields: Vec<(&str, &str)> = view.fields().collect();
            let want: Vec<(&str, &str)> = d
                .fields
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            assert_eq!(fields, want);
            assert_eq!(view.full_text(), d.full_text());
            assert_eq!(store.external_id(i), d.external_id);
            for name in ["title", "body", "", "missing"] {
                assert_eq!(view.get_field(name), d.get_field(name), "{name}");
            }
        }
        assert!(store.doc(3).is_none());
        assert_eq!(
            store.field_names().collect::<Vec<_>>(),
            ["title", "body", ""]
        );
    }

    #[test]
    fn lanes_that_do_not_describe_documents_are_refused() {
        let mut store = DocStore::default();
        store.push("q1", [("title", "Star Wars"), ("body", "cast")]);
        store.push("q2", [("body", "crew")]);
        let (strings, firsts, field_of, names) = store.lanes();
        let lanes = |firsts: &[u32], field_of: &[u32], names: &TextArena| {
            let table = IdTable::with_capacity(names.len());
            let (firsts, field_of) = (firsts.to_vec(), field_of.to_vec());
            DocStore::from_lanes(strings.clone(), firsts, field_of, names.clone(), table)
        };
        assert_eq!(lanes(firsts, field_of, names), Ok(store.clone()));
        let refused = [
            (&[1, 3][..], field_of, "document firsts out of range"),
            (&[0, 5], field_of, "document firsts out of range"),
            (&[3, 3], field_of, "document firsts out of range"),
            (
                firsts,
                &[NO_FIELD, 0, 2, NO_FIELD, 1],
                "field name ids out of range",
            ),
            (
                firsts,
                &[NO_FIELD, 0, 1, 1, 1],
                "field name ids out of range",
            ),
            (
                firsts,
                &[0, 0, 1, NO_FIELD, 1],
                "field name ids out of range",
            ),
        ];
        for (firsts, field_of, why) in refused {
            let got = lanes(firsts, field_of, names).map(|_| ());
            assert_eq!(got, Err(why), "{firsts:?} {field_of:?}");
        }
        let mut twice = TextArena::default();
        twice.push("body");
        twice.push("body");
        assert_eq!(
            lanes(firsts, field_of, &twice).map(|_| ()),
            Err("duplicate field name")
        );
    }
}
