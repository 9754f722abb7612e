//! Secondary index structures: hash indexes on values and full-text token
//! indexes on text columns.
//!
//! The text index is the storage-side hook that keyword-search baselines
//! (BANKS, LCA) and qunit entity recognition all build on: it maps a
//! lower-cased token to the rows whose indexed column contains it.

use crate::tuple::RowId;
use crate::types::Value;
use std::collections::HashMap;

/// Equality index: value → row ids holding that value.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<RowId>>,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        HashIndex::default()
    }

    /// Register `row` under `key`. NULLs are not indexed.
    pub fn insert(&mut self, key: Value, row: RowId) {
        if key.is_null() {
            return;
        }
        self.map.entry(key).or_default().push(row);
    }

    /// Remove one registration of `row` under `key` (used by deletes).
    pub fn remove(&mut self, key: &Value, row: RowId) {
        if let Some(rows) = self.map.get_mut(key) {
            if let Some(pos) = rows.iter().position(|r| *r == row) {
                rows.swap_remove(pos);
            }
            if rows.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Rows holding exactly `key`.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Iterate over `(key, rows)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Vec<RowId>)> {
        self.map.iter()
    }
}

/// Split text into lower-cased alphanumeric tokens: the storage layer's
/// tokenizer, behind [`TextIndex`] and the keyword-search baselines. The
/// qunit engine tokenizes with `irengine`'s loop instead; `qunit-core`'s
/// `normal_form_matches_both_tokenizers` proptest pins the two to the same
/// tokens over arbitrary Unicode.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                cur.push(lc);
            }
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Full-text index: token → row ids whose indexed column contains the token.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    map: HashMap<String, Vec<RowId>>,
}

impl TextIndex {
    /// Empty index.
    pub fn new() -> Self {
        TextIndex::default()
    }

    /// Index every token of `text` for `row`. A row is registered at most
    /// once per distinct token.
    pub fn insert(&mut self, text: &str, row: RowId) {
        let mut toks = tokenize(text);
        toks.sort_unstable();
        toks.dedup();
        for t in toks {
            self.map.entry(t).or_default().push(row);
        }
    }

    /// Remove `row` from every posting of `text`'s tokens.
    pub fn remove(&mut self, text: &str, row: RowId) {
        for t in tokenize(text) {
            if let Some(rows) = self.map.get_mut(&t) {
                if let Some(pos) = rows.iter().position(|r| *r == row) {
                    rows.swap_remove(pos);
                }
                if rows.is_empty() {
                    self.map.remove(&t);
                }
            }
        }
    }

    /// Rows containing `token` (token is lower-cased before lookup).
    pub fn get(&self, token: &str) -> &[RowId] {
        let lc = token.to_lowercase();
        self.map.get(&lc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct tokens.
    pub fn vocabulary_size(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_basic() {
        let mut ix = HashIndex::new();
        ix.insert(Value::from(1), 10);
        ix.insert(Value::from(1), 11);
        ix.insert(Value::from(2), 12);
        assert_eq!(ix.get(&Value::from(1)), &[10, 11]);
        assert_eq!(ix.get(&Value::from(2)), &[12]);
        assert_eq!(ix.get(&Value::from(3)), &[] as &[RowId]);
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn hash_index_ignores_null() {
        let mut ix = HashIndex::new();
        ix.insert(Value::Null, 1);
        assert_eq!(ix.distinct_keys(), 0);
    }

    #[test]
    fn hash_index_remove() {
        let mut ix = HashIndex::new();
        ix.insert(Value::from(1), 10);
        ix.insert(Value::from(1), 11);
        ix.remove(&Value::from(1), 10);
        assert_eq!(ix.get(&Value::from(1)), &[11]);
        ix.remove(&Value::from(1), 11);
        assert_eq!(ix.distinct_keys(), 0);
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize("Star Wars: Episode IV"),
            vec!["star", "wars", "episode", "iv"]
        );
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("o'brien-smith"), vec!["o", "brien", "smith"]);
    }

    #[test]
    fn tokenizer_handles_unicode() {
        assert_eq!(tokenize("Amélie à Paris"), vec!["amélie", "à", "paris"]);
    }

    #[test]
    fn text_index_insert_and_get() {
        let mut ix = TextIndex::new();
        ix.insert("Star Wars", 1);
        ix.insert("Star Trek", 2);
        assert_eq!(ix.get("star"), &[1, 2]);
        assert_eq!(ix.get("STAR"), &[1, 2]);
        assert_eq!(ix.get("wars"), &[1]);
        assert_eq!(ix.get("galaxy"), &[] as &[RowId]);
        assert_eq!(ix.vocabulary_size(), 3);
    }

    #[test]
    fn text_index_dedups_repeated_tokens() {
        let mut ix = TextIndex::new();
        ix.insert("war of the war", 7);
        assert_eq!(ix.get("war"), &[7]);
    }

    #[test]
    fn text_index_remove() {
        let mut ix = TextIndex::new();
        ix.insert("star wars", 1);
        ix.insert("star trek", 2);
        ix.remove("star wars", 1);
        assert_eq!(ix.get("star"), &[2]);
        assert_eq!(ix.get("wars"), &[] as &[RowId]);
    }
}
