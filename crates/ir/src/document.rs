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

    /// This store, with room for `names` distinct field names of `bytes`
    /// bytes in all: as many as [`DocStore::end_name`] takes without growing.
    pub(crate) fn with_name_room(mut self, names: usize, bytes: usize) -> DocStore {
        self.names = TextArena::with_capacity(names, bytes);
        self.name_ids = IdTable::with_capacity(names);
        self
    }

    /// Number of documents.
    pub(crate) fn len(&self) -> usize {
        self.firsts.len()
    }

    /// Start a new document.
    pub(crate) fn push_external_id(&mut self, external_id: &str) {
        self.text_part(external_id);
        self.end_external_id();
    }

    /// Append a field to the last document.
    pub(crate) fn push_field(&mut self, name: &str, text: &str) {
        let name = self.end_name(name, true).expect("a growing store has room");
        self.text_part(text);
        self.end_field(name);
    }

    // A document can also arrive in pieces, as a snapshot streams in: the
    // text of its external id, then for each field the text of its name and
    // of the field, each string in as many parts as it takes.

    /// Append to the external id or field text being assembled.
    pub(crate) fn text_part(&mut self, s: &str) {
        self.strings.push_part(s);
    }

    /// The text assembled is the next document's external id.
    pub(crate) fn end_external_id(&mut self) {
        self.firsts.push(self.strings.end_string());
        self.field_of.push(NO_FIELD);
    }

    /// Append to the field name being assembled; `false`, and nothing
    /// appended, if it does not fit the room reserved for names and the
    /// store may not `grow`.
    pub(crate) fn name_part(&mut self, s: &str, grow: bool) -> bool {
        if !grow && !self.names.has_room(s.len()) {
            return false;
        }
        self.names.push_part(s);
        true
    }

    /// The name assembled ends with `last`: its id, interned on first sight
    /// — `None` if it is new and does not fit the room reserved for names
    /// and the store may not `grow`.
    pub(crate) fn end_name(&mut self, last: &str, grow: bool) -> Option<u32> {
        let names = &self.names;
        if names.pending().is_empty() {
            if let Some(id) = self.name_ids.get(last, |id| names.get(id as usize)) {
                return Some(id);
            }
        }
        if !self.name_part(last, grow) {
            return None;
        }
        let names = &self.names;
        if let Some(id) = self
            .name_ids
            .get(names.pending(), |id| names.get(id as usize))
        {
            self.names.drop_pending();
            return Some(id);
        }
        let room = self.names.has_room(0) && self.name_ids.has_room();
        if !(grow || room) {
            return None;
        }
        let id = self.names.end_string();
        let names = &self.names;
        self.name_ids
            .insert_first(names.get(id as usize), id, |id| names.get(id as usize));
        Some(id)
    }

    /// The text assembled is a field of the last document, named `name`.
    pub(crate) fn end_field(&mut self, name: u32) {
        debug_assert!(!self.firsts.is_empty(), "a field follows an external id");
        self.strings.end_string();
        self.field_of.push(name);
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
}
