//! Typed definition ids and the dense `doc → definition` lane behind the
//! engine's typed-IR restriction (§3: "standard IR … against qunit
//! instances *of the identified type*").
//!
//! A definition's id is its catalog position, so every per-definition fact
//! on the query path (type scores, the preferred set, the per-document
//! owner) is an array indexed by [`DefId`] instead of a map keyed by name.
//! The scoring kernel asks "is this document of a preferred definition?"
//! once per candidate; [`DocDefLane::accepts`] answers with two array reads.

use irengine::DocId;

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
    /// Resolve every document in `0..num_docs` once through `def_of`;
    /// documents it cannot place are accepted by no restriction.
    pub fn build(num_docs: usize, mut def_of: impl FnMut(DocId) -> Option<DefId>) -> Self {
        let last = DocId::try_from(num_docs).expect("document ids fit DocId");
        DocDefLane(
            (0..last)
                .map(|doc| def_of(doc).map_or(NO_DEF, |d| d.0))
                .collect(),
        )
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

    /// The kernel's definition filter: is `doc` of a definition whose
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
        let lane = DocDefLane::build(3, |doc| [DefId::new(1), None, DefId::new(0)][doc as usize]);
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
}
