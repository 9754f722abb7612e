//! # qunit-datagen
//!
//! Deterministic, seeded generators for every data asset the paper used but
//! which is unavailable to a reproduction:
//!
//! * [`imdb`] — a synthetic movie database on the paper's Figure-2 schema
//!   (person, movie, cast, genre, locations, info, plus the satellite tables
//!   an IMDb-like site exposes: awards, soundtracks, trivia, box office).
//! * [`querylog`] — an AOL-style keyword query log whose template mix is
//!   generated to match the distribution reported in §5.2.
//! * [`evidence`] — Wikipedia-like external pages with DOM-ish structure,
//!   the input to the paper's §4.3 derivation method.
//! * [`needs`] — the information-need model behind the §5.1 user study
//!   (Table 1).
//! * [`corpus`] — parameterized flat corpora (up to millions of documents,
//!   Zipf term skew) for index-scale and compression benches.
//!
//! Every generator takes an explicit seed; the same seed always reproduces
//! the same bytes, which keeps experiments and benches comparable.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod evidence;
pub mod imdb;
pub mod names;
pub mod needs;
pub mod querylog;
pub mod zipf;

pub use corpus::{CorpusConfig, CorpusDoc, SyntheticCorpus};
pub use evidence::{EvidenceCorpus, EvidenceGenConfig, Page, PageElement};
pub use imdb::{EntityRef, ImdbConfig, ImdbData};
pub use needs::{InformationNeed, QueryTemplate, ALL_NEEDS, ALL_TEMPLATES};
pub use querylog::{QueryLog, QueryLogConfig, QueryRecord};
pub use zipf::Zipf;
