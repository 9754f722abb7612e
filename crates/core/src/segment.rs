//! Query segmentation and typing (§3: "queries are first processed to
//! identify entities using standard query segmentation techniques").
//!
//! The [`EntityDictionary`] maps surface strings from chosen entity columns
//! (movie titles, person names, genres, roles, awards) to their schema type.
//! The [`Segmenter`] greedily consumes the longest dictionary match at each
//! position, classifies leftover words as *attribute terms* (words that name
//! schema elements — "cast", "movies", "ost") or *freetext*, and emits the
//! typed template signature used throughout §5.2 ("`[title] cast`" etc.).

use irengine::NormalForm;
use relstore::{DataType, Database, Value};
use std::collections::HashMap;

/// One typed piece of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// A recognized entity, e.g. `star wars` → `movie.title`.
    Entity {
        /// Entity table.
        table: String,
        /// Entity column.
        column: String,
        /// Matched surface text (lower-cased, token-joined).
        text: String,
    },
    /// A schema-term word, e.g. `cast` → table `cast`.
    Attribute {
        /// The word as typed.
        term: String,
        /// The schema element it names (`table` or `table.column`).
        target: String,
    },
    /// Anything else.
    Freetext {
        /// The word as typed.
        term: String,
    },
}

impl Segment {
    /// Whether this is an entity segment whose qualified entity type
    /// (`table.column`) is `qualified`, compared without building it.
    pub(crate) fn is_entity_of(&self, qualified: &str) -> bool {
        match self {
            Segment::Entity { table, column, .. } => qualified
                .strip_prefix(table.as_str())
                .and_then(|rest| rest.strip_prefix('.'))
                .is_some_and(|rest| rest == column),
            _ => false,
        }
    }
}

/// A fully segmented query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedQuery {
    /// Segments in order.
    pub segments: Vec<Segment>,
}

impl SegmentedQuery {
    /// All entity segments.
    pub fn entities(&self) -> Vec<&Segment> {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Entity { .. }))
            .collect()
    }

    /// The matched surface text of every entity segment, in order.
    pub(crate) fn entity_texts(&self) -> impl Iterator<Item = &str> + Clone {
        self.segments.iter().filter_map(|s| match s {
            Segment::Entity { text, .. } => Some(text.as_str()),
            _ => None,
        })
    }

    /// All non-entity terms (attribute + freetext), for intent matching.
    pub fn residual(&self) -> impl Iterator<Item = &str> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Attribute { term, .. } | Segment::Freetext { term } => Some(term.as_str()),
            Segment::Entity { .. } => None,
        })
    }

    /// All attribute terms (the words, lower-cased).
    pub fn attribute_terms(&self) -> Vec<String> {
        self.segments
            .iter()
            .filter_map(|s| match s {
                Segment::Attribute { term, .. } => Some(term.clone()),
                _ => None,
            })
            .collect()
    }

    /// All freetext terms.
    pub fn freetext_terms(&self) -> Vec<String> {
        self.segments
            .iter()
            .filter_map(|s| match s {
                Segment::Freetext { term } => Some(term.clone()),
                _ => None,
            })
            .collect()
    }

    /// The abstract template signature, §5.2-style: entities become
    /// `[table.column]`, attribute terms stay literal, consecutive freetext
    /// collapses to `[freetext]`.
    pub fn template_signature(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for s in &self.segments {
            let piece = match s {
                Segment::Entity { table, column, .. } => format!("[{table}.{column}]"),
                Segment::Attribute { term, .. } => term.clone(),
                Segment::Freetext { .. } => "[freetext]".to_string(),
            };
            if piece == "[freetext]" && parts.last().map(String::as_str) == Some("[freetext]") {
                continue;
            }
            parts.push(piece);
        }
        parts.join(" ")
    }

    /// Shape classification mirroring §5.2's categories.
    pub fn shape(&self) -> QueryShape {
        let entities = self.entities().len();
        let attrs = self.attribute_terms().len();
        let free = self.freetext_terms().len();
        match (entities, attrs, free) {
            (0, _, _) if attrs + free == 0 => QueryShape::Empty,
            (1, 0, 0) => QueryShape::SingleEntity,
            (1, a, 0) if a > 0 => QueryShape::EntityAttribute,
            (e, _, _) if e >= 2 => QueryShape::MultiEntity,
            (1, _, _) => QueryShape::EntityFreetext,
            _ => QueryShape::NoEntity,
        }
    }
}

/// §5.2 query-shape categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryShape {
    /// No tokens at all.
    Empty,
    /// Exactly one entity, nothing else ("star wars").
    SingleEntity,
    /// One entity plus attribute terms ("terminator cast").
    EntityAttribute,
    /// Two or more entities ("angelina jolie tombraider").
    MultiEntity,
    /// One entity plus freeform words ("star wars wallpaper").
    EntityFreetext,
    /// No recognizable entity ("highest box office revenue").
    NoEntity,
}

/// The entity dictionary: surface strings → schema types, plus the
/// attribute-term vocabulary derived from schema names and synonyms.
#[derive(Debug, Clone, Default)]
pub struct EntityDictionary {
    entities: HashMap<String, (String, String)>,
    max_entity_tokens: usize,
    attributes: HashMap<String, String>,
    max_attr_tokens: usize,
}

/// Built-in synonyms mapping common query words to schema elements of the
/// IMDb catalog. Extend via [`EntityDictionary::add_attribute_term`].
const ATTRIBUTE_SYNONYMS: &[(&str, &str)] = &[
    ("cast", "cast"),
    ("crew", "cast"),
    ("movies", "movie"),
    ("movie", "movie"),
    ("films", "movie"),
    ("filmography", "cast"),
    ("ost", "soundtrack"),
    ("soundtrack", "soundtrack"),
    ("soundtracks", "soundtrack"),
    ("song", "soundtrack"),
    ("songs", "soundtrack"),
    ("plot", "info.text"),
    ("synopsis", "info.text"),
    ("poster", "poster"),
    ("posters", "poster"),
    ("trivia", "trivia"),
    ("box office", "boxoffice"),
    ("gross", "boxoffice"),
    ("year", "movie.releasedate"),
    ("release", "movie.releasedate"),
    ("rating", "movie.rating"),
    ("awards", "award"),
    ("award", "award"),
    ("genre", "genre"),
    ("location", "locations"),
    ("locations", "locations"),
];

impl EntityDictionary {
    /// Build from a database: `specs` lists `(table, column)` pairs whose
    /// distinct TEXT values become entities. Attribute terms are seeded with
    /// schema table names plus the built-in synonym list.
    pub fn from_database(db: &Database, specs: &[(&str, &str)]) -> Self {
        let mut dict = EntityDictionary::default();
        for (table, column) in specs {
            let t = match db.table_by_name(table) {
                Some(t) => t,
                None => continue,
            };
            let ci = match t.schema().column_index(column) {
                Some(c) if t.schema().columns[c].dtype == DataType::Text => c,
                _ => continue,
            };
            for (_, row) in t.scan() {
                if let Some(s) = row.get(ci).and_then(Value::as_text) {
                    dict.add_entity(s, table, column);
                }
            }
        }
        for (tid, schema) in db.catalog().iter() {
            let _ = tid;
            dict.add_attribute_term(&schema.name, &schema.name);
        }
        for (term, target) in ATTRIBUTE_SYNONYMS {
            dict.add_attribute_term(term, target);
        }
        dict
    }

    /// The default IMDb entity specs used across the reproduction.
    pub fn imdb_specs() -> &'static [(&'static str, &'static str)] {
        &[
            ("movie", "title"),
            ("person", "name"),
            ("genre", "type"),
            ("cast", "role"),
            ("award", "name"),
        ]
    }

    /// Register one entity string.
    pub fn add_entity(&mut self, text: &str, table: &str, column: &str) {
        let norm = NormalForm::of(text);
        if norm.is_empty() {
            return;
        }
        self.max_entity_tokens = self.max_entity_tokens.max(norm.len());
        self.entities.insert(
            norm.as_str().into(),
            (table.to_string(), column.to_string()),
        );
    }

    /// Register one attribute term (word or two-word phrase).
    pub fn add_attribute_term(&mut self, term: &str, target: &str) {
        let norm = NormalForm::of(term);
        if norm.is_empty() {
            return;
        }
        self.max_attr_tokens = self.max_attr_tokens.max(norm.len());
        self.attributes
            .insert(norm.as_str().into(), target.to_string());
    }

    /// Exact entity lookup on a token-joined string.
    pub fn lookup_entity(&self, joined: &str) -> Option<&(String, String)> {
        self.entities.get(joined)
    }

    /// Exact attribute lookup.
    pub fn lookup_attribute(&self, joined: &str) -> Option<&String> {
        self.attributes.get(joined)
    }
}

/// Greedy longest-match segmenter over an [`EntityDictionary`].
#[derive(Debug, Clone)]
pub struct Segmenter {
    dict: EntityDictionary,
}

impl Segmenter {
    /// New segmenter owning its dictionary.
    pub fn new(dict: EntityDictionary) -> Self {
        Segmenter { dict }
    }

    /// The dictionary.
    pub fn dictionary(&self) -> &EntityDictionary {
        &self.dict
    }

    /// Segment a raw query.
    pub fn segment(&self, raw: &str) -> SegmentedQuery {
        self.segment_normal(&NormalForm::of(raw))
    }

    /// [`Segmenter::segment`], given the query's normal form: each window
    /// probed against the dictionaries is a slice of `norm`, so only the
    /// segments own strings.
    pub(crate) fn segment_normal(&self, norm: &NormalForm) -> SegmentedQuery {
        let mut segments = Vec::new();
        let mut i = 0;
        while i < norm.len() {
            let longest = |max: usize| (1..=max.min(norm.len() - i)).rev();
            // longest entity match first
            let entity = longest(self.dict.max_entity_tokens).find_map(|len| {
                let text = norm.window(i, len);
                let (table, column) = self.dict.lookup_entity(text)?;
                let entity = Segment::Entity {
                    table: table.clone(),
                    column: column.clone(),
                    text: text.to_string(),
                };
                Some((len, entity))
            });
            // then attribute terms (may be 2-word, e.g. "box office")
            let found = entity.or_else(|| {
                longest(self.dict.max_attr_tokens).find_map(|len| {
                    let term = norm.window(i, len);
                    let target = self.dict.lookup_attribute(term)?.clone();
                    let term = term.to_string();
                    Some((len, Segment::Attribute { term, target }))
                })
            });
            let (len, segment) = found.unwrap_or_else(|| {
                let term = norm.window(i, 1).to_string();
                (1, Segment::Freetext { term })
            });
            segments.push(segment);
            i += len;
        }
        SegmentedQuery { segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irengine::Analyzer;
    use proptest::prelude::*;
    use relstore::{ColumnDef, TableSchema};

    /// Qualified entity type of an entity segment: the reference
    /// [`Segment::is_entity_of`] is held to.
    fn entity_type(seg: &Segment) -> Option<String> {
        match seg {
            Segment::Entity { table, column, .. } => Some(format!("{table}.{column}")),
            _ => None,
        }
    }

    /// Characters that stress both tokenizer loops: ASCII of each class
    /// (`_` included), lower-casings that expand (`İ` → `i` + U+0307, `ẞ`)
    /// or leave ASCII behind (Kelvin `K` → `k`), titlecase `ǅ`, final sigma,
    /// combining marks, digits of other scripts, emoji, and separators wider
    /// than one byte, in runs.
    const STRESS: &[char] = &[
        'a', 'Z', '0', '9', '_', ' ', ' ', '\t', '-', '.', 'İ', 'ẞ', 'ß', 'K', 'ǅ', 'ǆ', 'Σ', 'ς',
        'É', '\u{301}', '\u{307}', '٣', '²', 'Ⅻ', '𝟙', '中', '🎬', '😀', '—', '\u{3000}',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The normal form is what the storage layer's tokenizer and the
        /// IR analyzer's would each give: the one is its tokens joined and
        /// split again, the other its tokens the analyzer keeps.
        #[test]
        fn normal_form_matches_both_tokenizers(
            picks in prop::collection::vec(
                (0u8..3, 0u32..0x11_0000, prop::sample::select(STRESS.to_vec())),
                0..40,
            ),
        ) {
            // a third each: the stress set, the BMP, any code point
            let text: String = picks
                .into_iter()
                .map(|(class, code, stress)| match class {
                    0 => stress,
                    1 => char::from_u32(code % 0x1_0000).unwrap_or(' '),
                    _ => char::from_u32(code).unwrap_or(' '),
                })
                .collect();
            let mut norm = NormalForm::of("stale text");
            norm.fill(&text);
            let tokens = relstore::index::tokenize(&text);
            prop_assert_eq!(norm.as_str(), tokens.join(" "));
            prop_assert_eq!(norm.tokens().collect::<Vec<_>>(), tokens);
            for analyzer in [Analyzer::new(), Analyzer::keep_all()] {
                let admitted: Vec<&str> = norm.tokens().filter(|t| analyzer.keeps(t)).collect();
                prop_assert_eq!(admitted, analyzer.tokenize(&text));
            }
        }
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
                .column(ColumnDef::new("role", DataType::Text)),
        )
        .unwrap();
        db.insert("movie", vec![1.into(), "star wars".into()])
            .unwrap();
        db.insert("movie", vec![2.into(), "ocean eleven".into()])
            .unwrap();
        db.insert("person", vec![1.into(), "george clooney".into()])
            .unwrap();
        db.insert("cast", vec![1.into(), 2.into(), "actor".into()])
            .unwrap();
        db
    }

    fn segmenter() -> Segmenter {
        let db = movie_db();
        Segmenter::new(EntityDictionary::from_database(
            &db,
            &[("movie", "title"), ("person", "name"), ("cast", "role")],
        ))
    }

    #[test]
    fn paper_example_star_wars_cast() {
        let s = segmenter();
        let q = s.segment("star wars cast");
        assert_eq!(q.segments.len(), 2);
        assert!(q.segments[0].is_entity_of("movie.title"));
        assert!(matches!(&q.segments[1], Segment::Attribute { term, target }
            if term == "cast" && target == "cast"));
        assert_eq!(q.template_signature(), "[movie.title] cast");
        assert_eq!(q.shape(), QueryShape::EntityAttribute);
    }

    #[test]
    fn borrowed_views_agree_with_the_owned_ones() {
        let s = segmenter();
        let q = s.segment("george clooney star wars cast wallpaper");
        assert_eq!(
            q.entity_texts().collect::<Vec<_>>(),
            ["george clooney", "star wars"]
        );
        assert_eq!(q.residual().collect::<Vec<_>>(), ["cast", "wallpaper"]);
        for seg in &q.segments {
            for qualified in [
                "movie.title",
                "person.name",
                "movie.",
                ".title",
                "movietitle",
                "movie.title.x",
                "",
            ] {
                assert_eq!(
                    seg.is_entity_of(qualified),
                    entity_type(seg).as_deref() == Some(qualified),
                    "{seg:?} of {qualified:?}"
                );
            }
        }
    }

    #[test]
    fn longest_match_wins() {
        let s = segmenter();
        // "star wars" must match as one entity, not two freetext words
        let q = s.segment("star wars");
        assert_eq!(q.entities().len(), 1);
        assert_eq!(q.shape(), QueryShape::SingleEntity);
    }

    #[test]
    fn person_entity_and_attribute() {
        let s = segmenter();
        let q = s.segment("george clooney movies");
        assert_eq!(q.template_signature(), "[person.name] movies");
        assert_eq!(q.attribute_terms(), vec!["movies".to_string()]);
        assert_eq!(q.shape(), QueryShape::EntityAttribute);
    }

    #[test]
    fn multi_entity_query() {
        let s = segmenter();
        let q = s.segment("george clooney ocean eleven");
        assert_eq!(q.entities().len(), 2);
        assert_eq!(q.shape(), QueryShape::MultiEntity);
        assert_eq!(q.template_signature(), "[person.name] [movie.title]");
    }

    #[test]
    fn freetext_collapses_in_signature() {
        let s = segmenter();
        let q = s.segment("star wars space transponders");
        assert_eq!(q.template_signature(), "[movie.title] [freetext]");
        assert_eq!(q.shape(), QueryShape::EntityFreetext);
        assert_eq!(
            q.freetext_terms(),
            vec!["space".to_string(), "transponders".to_string()]
        );
    }

    #[test]
    fn two_word_attribute_box_office() {
        let s = segmenter();
        let q = s.segment("star wars box office");
        assert_eq!(q.template_signature(), "[movie.title] box office");
        assert_eq!(q.attribute_terms(), vec!["box office".to_string()]);
    }

    #[test]
    fn role_entity_recognized() {
        let s = segmenter();
        let q = s.segment("actor");
        assert!(q.segments[0].is_entity_of("cast.role"));
    }

    #[test]
    fn no_entity_query() {
        let s = segmenter();
        let q = s.segment("highest revenue ever");
        assert_eq!(q.shape(), QueryShape::NoEntity);
        assert_eq!(q.entities().len(), 0);
    }

    #[test]
    fn empty_query() {
        let s = segmenter();
        let q = s.segment("  ");
        assert_eq!(q.shape(), QueryShape::Empty);
        assert_eq!(q.template_signature(), "");
    }

    #[test]
    fn residual_terms_union() {
        let s = segmenter();
        let q = s.segment("star wars cast wallpaper");
        assert_eq!(q.residual().collect::<Vec<_>>(), ["cast", "wallpaper"]);
    }

    #[test]
    fn dictionary_counts() {
        let s = segmenter();
        assert_eq!(s.dictionary().entities.len(), 4); // 2 movies, 1 person, 1 role
        assert!(s.dictionary().lookup_attribute("box office").is_some());
    }

    #[test]
    fn case_insensitive_matching() {
        let s = segmenter();
        let q = s.segment("STAR WARS Cast");
        assert_eq!(q.template_signature(), "[movie.title] cast");
    }

    #[test]
    fn reused_scratch_matches_fresh_segmentation() {
        let s = segmenter();
        let mut norm = NormalForm::of("stale tokens");
        // one normal form across many queries: stale tokens never leak
        for q in [
            "star wars cast",
            "george clooney ocean eleven",
            "star wars box office",
            "",
            "highest revenue ever",
            "STAR WARS Cast",
        ] {
            norm.fill(q);
            assert_eq!(s.segment_normal(&norm), s.segment(q), "{q}");
        }
    }
}
