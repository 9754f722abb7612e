//! Strings stored back to back, and a hash table that finds them again.
//!
//! An index holds three kinds of string: its vocabulary, its documents'
//! external ids and field texts, and the documents' field names. Each kind
//! lives in one [`TextArena`] — one `String` plus one `u32` end-offset lane —
//! rather than one heap allocation per string, so building or loading an
//! index allocates per lane, not per string. An [`IdTable`] maps a string
//! back to its index in an arena without storing the string a second time.

use std::hash::{BuildHasher, Hasher};

/// Strings back to back in one buffer, addressed by insertion position.
///
/// String `i` is `text[ends[i - 1] .. ends[i]]` (from 0 for the first). The
/// `u32` ends bound one arena at 4 GiB of text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TextArena {
    text: String,
    ends: Vec<u32>,
}

impl TextArena {
    /// An empty arena with room for `strings` strings of `bytes` bytes in all.
    pub(crate) fn with_capacity(strings: usize, bytes: usize) -> TextArena {
        TextArena {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings),
        }
    }

    /// Number of strings.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Append `s`; returns its position.
    ///
    /// # Panics
    ///
    /// If the arena would pass 4 GiB of text.
    pub(crate) fn push(&mut self, s: &str) -> u32 {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("a text arena holds at most 4 GiB");
        self.ends.push(end);
        (self.ends.len() - 1) as u32
    }

    /// The arena whose strings end at `ends` in `text`, as a snapshot stores
    /// it: checked, without copying, that the ends climb to the end of the
    /// text and that every string is UTF-8 on its own. The error names the
    /// first violation.
    pub(crate) fn from_lanes(ends: Vec<u32>, text: Vec<u8>) -> Result<TextArena, &'static str> {
        if ends.windows(2).any(|w| w[0] > w[1]) {
            return Err("string ends out of order");
        }
        if ends.last().map_or(0, |&e| e as usize) != text.len() {
            return Err("string ends not at the end of the text");
        }
        let text = String::from_utf8(text).map_err(|_| "non-UTF-8 string")?;
        if !ends.iter().all(|&e| text.is_char_boundary(e as usize)) {
            return Err("non-UTF-8 string");
        }
        Ok(TextArena { text, ends })
    }

    /// Every string's end offset, in position order.
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The strings back to back.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// String `i`. Panics when out of range; positions come from the arena.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// String `i`, or `None` when out of range.
    pub(crate) fn try_get(&self, i: usize) -> Option<&str> {
        (i < self.len()).then(|| self.get(i))
    }

    /// Every string, in position order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Open-addressing table from strings to the position of their **first**
/// occurrence, for strings held elsewhere (an arena, a document store).
///
/// A slot holds a position and 32 bits of its string's hash; the string
/// itself is read back through the `key_of` function each call passes, so
/// nothing is stored twice. Linear probing over a power-of-two slot array
/// kept at most half full, hashed by [`StrHashState`].
#[derive(Debug, Clone)]
pub(crate) struct IdTable {
    slots: Vec<Slot>,
    len: usize,
    hasher: StrHashState,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Low 32 bits of the key's hash; the probe start and a cheap filter.
    hash: u32,
    /// Position of the key, or [`EMPTY`].
    id: u32,
}

/// [`Slot::id`] of an unused slot. Positions are document and term ids,
/// which stay below `u32::MAX` (`IndexBuilder::build` asserts it).
const EMPTY: u32 = u32::MAX;

impl IdTable {
    /// An empty table that takes `n` keys without growing.
    pub(crate) fn with_capacity(n: usize) -> IdTable {
        IdTable {
            slots: vec![Slot { hash: 0, id: EMPTY }; Self::slots_for(n)],
            len: 0,
            hasher: StrHashState::default(),
        }
    }

    /// The bytes [`IdTable::with_capacity`]`(n)` allocates.
    pub(crate) fn reserved_bytes(n: usize) -> usize {
        Self::slots_for(n) * std::mem::size_of::<Slot>()
    }

    fn slots_for(n: usize) -> usize {
        (2 * n).max(8).next_power_of_two()
    }

    fn hash(&self, key: &str) -> u32 {
        let mut h = self.hasher.build_hasher();
        h.write(key.as_bytes());
        h.finish() as u32
    }

    /// Position of `key`, if present.
    pub(crate) fn get<'k>(&self, key: &str, key_of: impl Fn(u32) -> &'k str) -> Option<u32> {
        let hash = self.hash(key);
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY {
                return None;
            }
            if slot.hash == hash && key_of(slot.id) == key {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Record `key` at position `id` unless it is already present; returns
    /// the position the table holds for it afterwards (the first one).
    pub(crate) fn insert_first<'k>(
        &mut self,
        key: &str,
        id: u32,
        key_of: impl Fn(u32) -> &'k str,
    ) -> u32 {
        debug_assert_ne!(id, EMPTY);
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hash(key);
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY {
                self.slots[at] = Slot { hash, id };
                self.len += 1;
                return id;
            }
            if slot.hash == hash && key_of(slot.id) == key {
                return slot.id;
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the slots, re-placing each entry by its stored hash.
    fn grow(&mut self) {
        let doubled = vec![Slot { hash: 0, id: EMPTY }; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut at = slot.hash as usize & mask;
            while self.slots[at].id != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

/// Hasher of every [`IdTable`] — the freeze-time intern table among them:
/// one multiply-rotate round per eight bytes, where SipHash costs more than
/// the rest of a lookup (a freeze probes once per token, a load inserts
/// every external id and term). The keys come from the indexed content, and
/// each table is keyed per process from `RandomState`, so colliding keys
/// cannot be prepared in advance; a query only probes, never inserts.
#[derive(Debug, Clone, Copy)]
struct StrHashState(u64);

impl Default for StrHashState {
    fn default() -> Self {
        StrHashState(std::collections::hash_map::RandomState::new().hash_one(0u8))
    }
}

impl BuildHasher for StrHashState {
    type Hasher = StrHasher;
    fn build_hasher(&self) -> StrHasher {
        StrHasher(self.0)
    }
}

struct StrHasher(u64);

impl StrHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StrHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        // The last multiply leaves the low bits — the tables' bucket index —
        // a function of the input's low bits only; fold the high half in.
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_strings_come_back_in_order() {
        let mut arena = TextArena::default();
        for s in ["", "star", "", "İstanbul", "wars"] {
            arena.push(s);
        }
        assert_eq!(arena.len(), 5);
        assert_eq!(
            arena.iter().collect::<Vec<_>>(),
            ["", "star", "", "İstanbul", "wars"]
        );
        assert_eq!(arena.try_get(4), Some("wars"));
        assert_eq!(arena.try_get(5), None);
        let lanes = TextArena::from_lanes(arena.ends().to_vec(), arena.text().as_bytes().to_vec());
        assert_eq!(lanes, Ok(arena));
    }

    #[test]
    fn lanes_that_do_not_make_an_arena_are_refused() {
        let lanes = |ends: &[u32], text: &[u8]| TextArena::from_lanes(ends.to_vec(), text.to_vec());
        assert_eq!(lanes(&[], b""), Ok(TextArena::default()));
        assert_eq!(lanes(&[2, 1, 3], b"abc"), Err("string ends out of order"));
        assert_eq!(
            lanes(&[1, 4], b"abc"),
            Err("string ends not at the end of the text")
        );
        assert_eq!(
            lanes(&[1, 2], b"abc"),
            Err("string ends not at the end of the text")
        );
        assert_eq!(
            lanes(&[], b"a"),
            Err("string ends not at the end of the text")
        );
        assert_eq!(lanes(&[1], b"\xff"), Err("non-UTF-8 string"));
        // "İ" is two bytes: an end between them splits it across two strings.
        assert_eq!(lanes(&[1, 2], "İ".as_bytes()), Err("non-UTF-8 string"));
        assert!(lanes(&[0, 2, 2], "İ".as_bytes()).is_ok());
    }

    #[test]
    fn the_table_keeps_the_first_position_and_survives_growth() {
        let mut arena = TextArena::default();
        let mut table = IdTable::with_capacity(0);
        for i in 0..1000u32 {
            let id = arena.push(&format!("k{}", i % 300));
            let first = table.insert_first(arena.get(id as usize), id, |p| arena.get(p as usize));
            assert_eq!(first, i % 300, "{i}");
        }
        for k in 0..300u32 {
            let found = table.get(&format!("k{k}"), |p| arena.get(p as usize));
            assert_eq!(found, Some(k));
        }
        assert_eq!(table.get("k300", |p| arena.get(p as usize)), None);
        assert_eq!(table.get("", |p| arena.get(p as usize)), None);
    }
}
