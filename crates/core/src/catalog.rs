//! A named collection of qunit definitions — the "flat collection of
//! independent qunits" the database is modeled as (§2).

use crate::doc_def::DefId;
use crate::qunit::QunitDefinition;
use std::collections::HashMap;

/// A qunit catalog. Definitions are unique by name; re-adding replaces.
#[derive(Debug, Clone, Default)]
pub struct QunitCatalog {
    defs: Vec<QunitDefinition>,
    by_name: HashMap<String, usize>,
}

impl QunitCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        QunitCatalog::default()
    }

    /// Add (or replace) a definition.
    pub fn add(&mut self, def: QunitDefinition) {
        if let Some(&i) = self.by_name.get(&def.name) {
            self.defs[i] = def;
        } else {
            self.by_name.insert(def.name.clone(), self.defs.len());
            self.defs.push(def);
        }
    }

    /// Merge another catalog into this one (other wins on name clashes).
    pub fn merge(&mut self, other: QunitCatalog) {
        for d in other.defs {
            self.add(d);
        }
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<&QunitDefinition> {
        self.by_name.get(name).map(|&i| &self.defs[i])
    }

    /// Typed id of a definition: its position in [`QunitCatalog::iter`]
    /// order. `None` for an unknown name, or a position past
    /// [`DefId::MAX_DEFINITIONS`].
    pub fn def_id(&self, name: &str) -> Option<DefId> {
        self.by_name.get(name).and_then(|&i| DefId::new(i))
    }

    /// The definition at catalog `position` (a [`DefId::index`]).
    pub(crate) fn at(&self, position: usize) -> &QunitDefinition {
        &self.defs[position]
    }

    /// All definitions.
    pub fn iter(&self) -> impl Iterator<Item = &QunitDefinition> {
        self.defs.iter()
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::ConversionExpr;
    use crate::qunit::DerivationSource;
    use relstore::{Predicate, Query, View};

    fn def(name: &str, utility: f64, source: DerivationSource) -> QunitDefinition {
        QunitDefinition {
            name: name.into(),
            base: View::new(
                name,
                Query {
                    tables: vec![0],
                    joins: vec![],
                    predicate: Predicate::True,
                    projection: None,
                    limit: None,
                },
            ),
            conversion: ConversionExpr::flat(name),
            anchor: None,
            intent_terms: vec![],
            covered_fields: vec![],
            utility,
            provenance: source,
        }
    }

    #[test]
    fn add_get_replace() {
        let mut cat = QunitCatalog::new();
        cat.add(def("a", 1.0, DerivationSource::Manual));
        cat.add(def("b", 2.0, DerivationSource::SchemaData));
        assert_eq!(cat.len(), 2);
        assert!(cat.get("a").is_some());
        cat.add(def("a", 5.0, DerivationSource::Manual));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.get("a").unwrap().utility, 5.0);
        // replacing keeps the position, so ids follow iteration order
        for (i, d) in cat.iter().enumerate() {
            assert_eq!(cat.def_id(&d.name).map(DefId::index), Some(i));
        }
        assert_eq!(cat.def_id("missing"), None);
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = QunitCatalog::new();
        a.add(def("x", 1.0, DerivationSource::Manual));
        let mut b = QunitCatalog::new();
        b.add(def("x", 9.0, DerivationSource::Evidence));
        b.add(def("y", 2.0, DerivationSource::Evidence));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("x").unwrap().utility, 9.0);
    }
}
