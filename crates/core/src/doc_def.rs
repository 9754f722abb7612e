//! Typed definition ids and the doc-id lanes the query path reads instead
//! of strings: the dense `doc → definition` lane behind the engine's
//! typed-IR restriction (§3: "standard IR … against qunit instances *of the
//! identified type*") and the `anchor → documents` table behind exact-anchor
//! injection and the anchor bonus.
//!
//! A definition's id is its catalog position, so every per-definition fact
//! on the query path (type scores, the routed set, the per-document owner)
//! is an array indexed by [`DefId`] instead of a map keyed by name. The
//! scoring kernel asks "does the query's route admit this document?" once
//! per candidate; the lane answers with one or two array reads.

use irengine::{DocId, NormalForm};
use relstore::Value;
use std::collections::HashMap;
use std::fmt::Write;

/// A definition's typed id: its position in catalog order
/// ([`crate::QunitCatalog::def_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefId(u16);

/// Lane slot of a document that belongs to no catalog definition.
const NO_DEF: u16 = u16::MAX;

impl DefId {
    /// Largest catalog the id type can address: one value is reserved for
    /// documents of no definition.
    pub const MAX_DEFINITIONS: usize = NO_DEF as usize;

    /// Id of the definition at catalog `position`; `None` past
    /// [`DefId::MAX_DEFINITIONS`] — callers fail loudly rather than
    /// truncate.
    pub fn new(position: usize) -> Option<Self> {
        (position < Self::MAX_DEFINITIONS).then_some(DefId(position as u16))
    }

    /// The catalog position, for indexing per-definition arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One [`DefId`] per global document id, frozen at engine build: 2 bytes
/// per document. A pure function of catalog order and the document order
/// it induces, so it is the same lane for any worker count, shard count or
/// codec, cold-built or restarted from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocDefLane(Vec<u16>);

impl DocDefLane {
    /// The lane of documents owned, in doc-id order, by `owners`; a
    /// document of `None` is accepted by no restriction.
    pub fn build(owners: impl IntoIterator<Item = Option<DefId>>) -> Self {
        let lane: Vec<u16> = owners
            .into_iter()
            .map(|owner| owner.map_or(NO_DEF, |d| d.0))
            .collect();
        DocId::try_from(lane.len()).expect("document ids fit DocId");
        DocDefLane(lane)
    }

    /// Documents covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the lane covers no document.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The definition owning `doc`; `None` for an out-of-range id or a
    /// document of no catalog definition.
    pub fn def_of(&self, doc: DocId) -> Option<DefId> {
        self.0
            .get(doc as usize)
            .filter(|&&d| d != NO_DEF)
            .map(|&d| DefId(d))
    }

    /// The typed route's admission test: is `doc` of a definition whose
    /// [`DefId::index`] slot in `allowed` is set? Out-of-range documents
    /// and definitions read `false`; `allowed` is sized by the catalog,
    /// which [`DefId::MAX_DEFINITIONS`] keeps short of the slot that marks
    /// a document of no definition.
    #[inline]
    pub fn accepts(&self, allowed: &[bool], doc: DocId) -> bool {
        debug_assert!(allowed.len() <= DefId::MAX_DEFINITIONS);
        self.0
            .get(doc as usize)
            .and_then(|&def| allowed.get(def as usize))
            .copied()
            .unwrap_or(false)
    }
}

/// Chain end in [`AnchorDocs::next`].
const NO_DOC: DocId = DocId::MAX;

/// Which documents carry a given anchor, frozen at engine build: the one
/// definition of the documents a segmented entity anchors. One string probe
/// per entity finds every instance it anchors, of whatever definition —
/// where composing `definition::anchor` keys costs a string and a probe per
/// entity × definition.
///
/// Anchors are keyed by the [`NormalForm`] of their display string
/// ([`Value`]'s `Display`, the text instance keys end in), so `"Star Wars"`,
/// `"STAR  WARS"` and `"star-wars"` all anchor the entity `star wars`.
#[derive(Debug)]
pub(crate) struct AnchorDocs {
    /// Anchor normal form → the lowest document id carrying it.
    first: HashMap<Box<str>, DocId>,
    /// Per document: the next higher id carrying the same anchor, or
    /// [`NO_DOC`] (also the slot of an unanchored document).
    next: Vec<DocId>,
}

impl AnchorDocs {
    /// Index `anchors`, the anchor value of every document in doc-id order
    /// (`None` for a singleton instance).
    pub(crate) fn build<'a>(
        anchors: impl DoubleEndedIterator<Item = Option<&'a Value>> + ExactSizeIterator,
    ) -> Self {
        DocId::try_from(anchors.len()).expect("document ids fit DocId");
        let mut first: HashMap<Box<str>, DocId> = HashMap::new();
        let mut next = vec![NO_DOC; anchors.len()];
        let (mut shown, mut key) = (String::new(), NormalForm::default());
        // Highest id first: each document goes on the front of its chain,
        // so the chains come out ascending.
        for (doc, anchor) in anchors.enumerate().rev() {
            let Some(anchor) = anchor else { continue };
            shown.clear();
            write!(shown, "{anchor}").expect("writing to a String");
            key.fill(&shown);
            match first.get_mut(key.as_str()) {
                Some(head) => next[doc] = std::mem::replace(head, doc as DocId),
                None => {
                    first.insert(key.as_str().into(), doc as DocId);
                }
            }
        }
        AnchorDocs { first, next }
    }

    /// The documents `entity` anchors — those whose anchor's normal form is
    /// `entity`, a segmenter entity text — in doc-id (insertion) order.
    pub(crate) fn docs_of(&self, entity: &str) -> impl Iterator<Item = DocId> + '_ {
        let first = self.first.get(entity).copied();
        std::iter::successors(first, |&doc| {
            Some(self.next[doc as usize]).filter(|&next| next != NO_DOC)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stop_short_of_the_sentinel() {
        assert_eq!(DefId::new(0).map(DefId::index), Some(0));
        assert_eq!(
            DefId::new(DefId::MAX_DEFINITIONS - 1).map(DefId::index),
            Some(DefId::MAX_DEFINITIONS - 1)
        );
        assert_eq!(DefId::new(DefId::MAX_DEFINITIONS), None);
        assert_eq!(DefId::new(usize::MAX), None);
    }

    #[test]
    fn unplaced_and_out_of_range_documents_are_rejected() {
        let lane = DocDefLane::build([DefId::new(1), None, DefId::new(0)]);
        assert_eq!(lane.len(), 3);
        assert_eq!(lane.def_of(0), DefId::new(1));
        assert_eq!(lane.def_of(1), None);
        assert_eq!(lane.def_of(3), None);
        let everything = [true, true];
        assert!(lane.accepts(&everything, 0));
        assert!(!lane.accepts(&everything, 1), "document of no definition");
        assert!(lane.accepts(&everything, 2));
        assert!(!lane.accepts(&everything, 3), "past the last document");
        assert!(!lane.accepts(&[true], 0), "definition past the set");
        assert!(!lane.accepts(&[], 2));
    }

    #[test]
    fn an_anchor_finds_its_documents_in_insertion_order() {
        let anchors = [
            Some(Value::from("solaris")),
            None,
            Some(Value::from("star wars")),
            Some(Value::Int(1977)),
            Some(Value::from("solaris")),
            Some(Value::from("Solaris")),
            Some(Value::from("solaris")),
        ];
        let table = AnchorDocs::build(anchors.iter().map(Option::as_ref));
        let docs = |anchor: &str| table.docs_of(anchor).collect::<Vec<_>>();
        assert_eq!(docs("solaris"), [0, 4, 5, 6]);
        assert_eq!(docs("star wars"), [2]);
        assert_eq!(docs("1977"), [3], "a non-text anchor by its display");
        assert_eq!(docs("*"), [], "a singleton has no anchor");
        assert_eq!(docs("alien"), []);
        assert_eq!(
            AnchorDocs::build(std::iter::empty()).docs_of("x").count(),
            0
        );
    }

    #[test]
    fn an_entity_finds_every_anchor_with_its_normal_form() {
        let anchors = [
            Some(Value::from("Star Wars")),
            Some(Value::from("STAR  WARS")),
            Some(Value::from("star-wars")),
            Some(Value::from("star wars 2")),
            Some(Value::from("starwars")),
            Some(Value::Int(1977)),
            Some(Value::from("Amélie")),
        ];
        let table = AnchorDocs::build(anchors.iter().map(Option::as_ref));
        let docs = |entity: &str| table.docs_of(entity).collect::<Vec<_>>();
        // what the segmenter hands over for each of them
        assert_eq!(docs("star wars"), [0, 1, 2]);
        assert_eq!(docs("star wars 2"), [3]);
        assert_eq!(docs("starwars"), [4]);
        assert_eq!(docs("1977"), [5]);
        assert_eq!(docs("amélie"), [6]);
        assert_eq!(docs("Star Wars"), [], "probed by the normal form only");
    }
}
