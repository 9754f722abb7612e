//! Meaningful LCA (Schema-Free XQuery; Li, Yu & Jagadish, VLDB 2004).
//!
//! The MLCA operator strengthens plain LCA: an answer root must relate each
//! keyword to its *nearest* structurally-relevant match — "the LCA derived
//! is unique to the combination of queried nodes that connect to it"
//! (paper, §5.3). We implement the operational core of that property:
//!
//! 1. the root must be an SLCA (no smaller candidate below it), and
//! 2. under the root, every keyword must bind *unambiguously*: all its
//!    matches within the subtree carry the same element label, and at least
//!    one keyword must bind to exactly one node (the anchor), so answers
//!    formed by accidental co-occurrence of same-typed siblings are
//!    discarded.
//!
//! This keeps MLCA strictly more selective than LCA — the behaviour that
//! gives it a relevance edge in the paper's Figure 3 — while remaining a
//! faithful approximation of the full pairwise definition (a deliberate
//! simplification of the VLDB 2004 operator).

use crate::lca::{LcaEngine, SubtreeAnswer};
use crate::tree::{NodeId, XmlTree};
use std::collections::HashSet;

/// MLCA keyword-search engine.
#[derive(Debug)]
pub struct MlcaEngine<'a> {
    inner: LcaEngine<'a>,
    top_k: usize,
}

impl<'a> MlcaEngine<'a> {
    /// New engine returning up to `top_k` answers.
    pub fn new(tree: &'a XmlTree, top_k: usize) -> Self {
        MlcaEngine {
            inner: LcaEngine::new(tree, usize::MAX),
            top_k,
        }
    }

    /// The tree under search.
    pub fn tree(&self) -> &XmlTree {
        self.inner.tree()
    }

    /// Run a query: SLCA answers filtered by the meaningfulness test,
    /// ranked by subtree size ascending.
    pub fn search(&self, query: &str) -> Vec<SubtreeAnswer> {
        let sets = match self.inner.match_sets(query) {
            Some(s) => s,
            None => return Vec::new(),
        };
        let candidates = self.inner.candidates(&sets);
        let slca: Vec<NodeId> = candidates
            .iter()
            .filter(|&&v| {
                !candidates
                    .iter()
                    .any(|&c| c != v && self.inner.tree().is_ancestor_or_self(v, c))
            })
            .copied()
            .collect();

        let tree = self.inner.tree();
        let mut answers: Vec<SubtreeAnswer> = slca
            .iter()
            .copied()
            .filter(|&v| is_meaningful(tree, v, &sets))
            .map(|v| SubtreeAnswer {
                root: v,
                size: tree.subtree_size(v),
            })
            .collect();
        // When no binding is meaningful, fall back to the plain SLCA
        // answers: the operator *prefers* meaningful results but still
        // answers (Schema-Free XQuery degrades to keyword search).
        if answers.is_empty() {
            answers = slca
                .into_iter()
                .map(|v| SubtreeAnswer {
                    root: v,
                    size: tree.subtree_size(v),
                })
                .collect();
        }
        answers.sort_by(|a, b| a.size.cmp(&b.size).then(a.root.cmp(&b.root)));
        answers.truncate(self.top_k);
        answers
    }
}

/// The meaningfulness test described in the module docs.
fn is_meaningful(tree: &XmlTree, root: NodeId, sets: &[Vec<NodeId>]) -> bool {
    let mut some_unique = false;
    for set in sets {
        let in_subtree: Vec<NodeId> = set
            .iter()
            .copied()
            .filter(|&m| tree.is_ancestor_or_self(root, m))
            .collect();
        debug_assert!(!in_subtree.is_empty(), "root must cover every keyword");
        let labels: HashSet<&str> = in_subtree
            .iter()
            .map(|&m| tree.node(m).label.as_str())
            .collect();
        if labels.len() > 1 {
            return false; // ambiguous binding: keyword matches mixed types
        }
        if in_subtree.len() == 1 {
            some_unique = true;
        }
    }
    some_unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::XmlTree;

    /// `movies` section with two movies; one shared location string.
    fn fixture() -> XmlTree {
        let mut b = XmlTree::builder();
        let root = b.root("db");
        let movies = b.element(root, "movies");
        let m1 = b.element(movies, "movie");
        b.field(m1, "title", "star wars", "movie.title");
        b.field(m1, "location", "london", "locations.place");
        let c1 = b.element(m1, "cast");
        let p1 = b.element(c1, "person");
        b.field(p1, "name", "harrison ford", "person.name");
        let m2 = b.element(movies, "movie");
        b.field(m2, "title", "star trek", "movie.title");
        b.field(m2, "location", "london", "locations.place");
        b.build()
    }

    #[test]
    fn meaningful_answer_passes() {
        let t = fixture();
        let e = MlcaEngine::new(&t, 10);
        let ans = e.search("wars ford");
        assert_eq!(ans.len(), 1);
        assert_eq!(t.node(ans[0].root).label, "movie");
    }

    #[test]
    fn accidental_sibling_cooccurrence_is_rejected() {
        let t = fixture();
        // "star london": under `movies`, "star" matches two title nodes and
        // "london" two location nodes — no unique binding anywhere, so the
        // sprawling `movies` answer LCA would return is rejected by MLCA,
        // while the per-movie answers (one title + one location each)
        // survive as meaningful.
        let lca = LcaEngine::new(&t, 10);
        let lca_ans = lca.search("star london");
        let mlca = MlcaEngine::new(&t, 10);
        let mlca_ans = mlca.search("star london");
        assert!(!mlca_ans.is_empty());
        for a in &mlca_ans {
            assert_eq!(t.node(a.root).label, "movie");
        }
        // MLCA is a subset of (or equal to) LCA answers per root set
        let lca_roots: std::collections::HashSet<_> = lca_ans.iter().map(|a| a.root).collect();
        for a in &mlca_ans {
            assert!(lca_roots.contains(&a.root));
        }
    }

    #[test]
    fn mlca_never_returns_more_than_lca() {
        let t = fixture();
        for q in ["star", "london", "wars ford", "star london", "ford"] {
            let l = LcaEngine::new(&t, 100).search(q).len();
            let m = MlcaEngine::new(&t, 100).search(q).len();
            assert!(m <= l, "query {q}: mlca {m} > lca {l}");
        }
    }

    #[test]
    fn unmatched_keywords_empty() {
        let t = fixture();
        let e = MlcaEngine::new(&t, 10);
        assert!(e.search("zzz").is_empty());
    }

    #[test]
    fn single_keyword_unique_match_is_meaningful() {
        let t = fixture();
        let e = MlcaEngine::new(&t, 10);
        let ans = e.search("wars");
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn mixed_label_binding_rejected() {
        // keyword matching both a `title` text and a `location` text under
        // the same root is ambiguous → rejected
        let mut b = XmlTree::builder();
        let root = b.root("db");
        let m = b.element(root, "movie");
        b.field(m, "title", "paris", "movie.title");
        b.field(m, "location", "paris", "locations.place");
        let t = b.build();
        let e = MlcaEngine::new(&t, 10);
        // "paris" alone: SLCAs are the two leaves (unique, meaningful)
        let ans = e.search("paris");
        assert_eq!(ans.len(), 2);
        // but "paris paris" still resolves to leaves, not the movie node
        for a in &ans {
            assert_ne!(t.node(a.root).label, "movie");
        }
    }
}
