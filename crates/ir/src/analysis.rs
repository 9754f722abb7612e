//! Text analysis: tokenization, lower-casing, and optional stopword removal.
//!
//! One [`Analyzer`] instance is shared between index-time and query-time so
//! both sides always agree on token boundaries.

use std::cell::RefCell;
use std::collections::HashSet;
use std::ops::Range;

/// Default English stopword list — small on purpose: entity-heavy movie
/// queries ("it", "up") punish aggressive lists, and the paper's workloads
/// are short keyword queries.
pub const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "of", "on", "or",
    "that", "the", "to", "with",
];

/// Configurable tokenizer.
#[derive(Debug, Clone)]
pub struct Analyzer {
    stopwords: HashSet<String>,
    min_token_len: usize,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// Analyzer with the default stopword list.
    pub fn new() -> Self {
        Analyzer {
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| s.to_string()).collect(),
            min_token_len: 1,
        }
    }

    /// Analyzer that keeps every token (no stopwords). Used where query
    /// terms are matched against entity names verbatim.
    pub fn keep_all() -> Self {
        Analyzer {
            stopwords: HashSet::new(),
            min_token_len: 1,
        }
    }

    /// Replace the stopword list.
    pub fn with_stopwords<I: IntoIterator<Item = S>, S: Into<String>>(mut self, words: I) -> Self {
        self.stopwords = words.into_iter().map(Into::into).collect();
        self
    }

    /// Drop tokens shorter than `n` characters.
    pub fn with_min_token_len(mut self, n: usize) -> Self {
        self.min_token_len = n;
        self
    }

    /// The stopword set, in unspecified order (sort before hashing or
    /// serializing — the index snapshot does).
    pub fn stopwords(&self) -> impl Iterator<Item = &str> {
        self.stopwords.iter().map(String::as_str)
    }

    /// Minimum token length kept by [`Analyzer::tokenize`].
    pub fn min_token_len(&self) -> usize {
        self.min_token_len
    }

    /// Tokenize: split on non-alphanumerics, lower-case, filter stopwords
    /// and short tokens.
    ///
    /// Convenience wrapper over [`Analyzer::tokenize_into`] that allocates a
    /// fresh `Vec` per call; batch and hot-path callers (index builds, query
    /// loops) should hold a buffer and use `tokenize_into` instead.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(text, &mut out);
        out
    }

    /// [`Analyzer::tokenize`] into a caller-owned buffer: `out` ends up
    /// holding exactly the tokens of `text`. The `Vec` and the `String`s
    /// already in it are reused — the `i`-th kept token overwrites the
    /// `i`-th string, and the strings past the last token are dropped — so
    /// a loop tokenizing many texts allocates only where a text keeps more
    /// tokens, or longer ones, than the call before. Raw tokens are
    /// assembled in one buffer per thread, so a warm call with the same
    /// text allocates nothing.
    pub fn tokenize_into(&self, text: &str, out: &mut Vec<String>) {
        thread_local! {
            static RAW_TOKEN: RefCell<String> = const { RefCell::new(String::new()) };
        }
        let mut kept = 0;
        RAW_TOKEN.with_borrow_mut(|buf| {
            for_each_raw_token(text, buf, |tok| {
                if self.keeps(tok) {
                    match out.get_mut(kept) {
                        Some(slot) => {
                            slot.clear();
                            slot.push_str(tok);
                        }
                        None => out.push(tok.to_owned()),
                    }
                    kept += 1;
                }
            })
        });
        out.truncate(kept);
    }

    /// The stopword / minimum-length verdict on one lower-cased raw token.
    /// A pure function of the token, so a caller that interns tokens (the
    /// index builder) asks once per distinct token, not once per occurrence.
    /// A query's IR terms are the tokens of its [`NormalForm`] it admits.
    pub fn keeps(&self, tok: &str) -> bool {
        tok.chars().count() >= self.min_token_len && !self.stopwords.contains(tok)
    }
}

/// The one tokenizer loop: maximal runs of alphanumeric characters,
/// lower-cased, before any stopword or length filter. ASCII — nearly all
/// indexed text — is classified and folded with two byte-range checks; other
/// characters take the Unicode tables, and a lower-casing that expands
/// (`İ` → `i̇`) pushes every resulting character.
///
/// Each token's characters are appended to `out`; once a token is complete,
/// `end` gets `out` and the byte offset where the token starts.
fn raw_token_loop(text: &str, out: &mut String, mut end: impl FnMut(&mut String, usize)) {
    let mut start = out.len();
    for ch in text.chars() {
        if ch.is_ascii() {
            if ch.is_ascii_alphanumeric() {
                out.push(ch.to_ascii_lowercase());
                continue;
            }
        } else if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
            continue;
        }
        if out.len() > start {
            end(out, start);
            start = out.len();
        }
    }
    if out.len() > start {
        end(out, start);
    }
}

/// Visit the raw tokens of `text` ([`raw_token_loop`]), each assembled in
/// `buf` (cleared first; keep one across calls) and lent to `f`.
pub(crate) fn for_each_raw_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    raw_token_loop(text, buf, |buf, _| {
        f(buf);
        buf.clear();
    });
}

/// A text's normal form: its raw tokens (maximal alphanumeric runs,
/// lower-cased, by the one tokenizer loop) joined by single spaces, with
/// each token's byte range in that string. A run of tokens is one slice of
/// it, and the tokens an [`Analyzer`] indexes are those [`Analyzer::keeps`]
/// admits. [`NormalForm::fill`] reuses the buffers of the text before.
#[derive(Debug, Clone, Default)]
pub struct NormalForm {
    text: String,
    spans: Vec<Range<usize>>,
}

impl NormalForm {
    /// The normal form of `text`, in fresh buffers.
    pub fn of(text: &str) -> Self {
        let mut norm = NormalForm::default();
        norm.fill(text);
        norm
    }

    /// Replace the contents with the normal form of `text`.
    pub fn fill(&mut self, text: &str) {
        self.text.clear();
        self.spans.clear();
        raw_token_loop(text, &mut self.text, |norm, start| {
            self.spans.push(start..norm.len());
            norm.push(' ');
        });
        // the separator after the last token
        self.text.pop();
    }

    /// The tokens joined by single spaces.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there are no tokens.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `len` tokens from the `i`-th, joined by single spaces.
    pub fn window(&self, i: usize, len: usize) -> &str {
        &self.text[self.spans[i].start..self.spans[i + len - 1].end]
    }

    /// The tokens, in order.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|span| &self.text[span.clone()])
    }
}

#[cfg(test)]
impl Analyzer {
    /// The tokenizer as it stood before the one raw-token loop: one
    /// `String` per token, the filter hashed per occurrence. Kept as the
    /// oracle for the equivalence proptests here and in `crate::index`.
    pub(crate) fn tokenize_reference(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut emit = |tok: String| {
            if tok.chars().count() >= self.min_token_len && !self.stopwords.contains(&tok) {
                out.push(tok);
            }
        };
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lc in ch.to_lowercase() {
                    cur.push(lc);
                }
            } else if !cur.is_empty() {
                emit(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            emit(cur);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters that stress every branch of the tokenizer loop: ASCII of
    /// each class, lower-casings that expand (`İ` → `i` + U+0307, itself not
    /// alphanumeric) or change byte length, case-less alphanumerics (`ß`,
    /// digits of other scripts), and separators wider than one byte.
    const ALPHABET: &[char] = &[
        'a', 'b', 'T', 'H', 'E', 'o', 'f', 'z', 'Z', '0', '7', ' ', ' ', '-', '.', '_', '\n', 'İ',
        'ß', 'É', 'é', 'ǅ', 'Σ', 'ς', '²', '٣', 'Ⅻ', '\u{307}', '—', '\u{3000}', '中', '🎬',
    ];

    /// One analyzer per filter shape, for this module's and
    /// `crate::index`'s equivalence proptests.
    pub(crate) fn analyzers() -> Vec<Analyzer> {
        vec![
            Analyzer::new(),
            Analyzer::keep_all(),
            Analyzer::keep_all().with_min_token_len(2),
            Analyzer::new().with_min_token_len(3),
            Analyzer::new().with_stopwords([
                "the",
                "star",
                "ab",
                "ß",
                "i\u{307}",
                "i\u{307}stanbul",
            ]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn for_each_token_matches_the_reference_tokenizer(
            chars in prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..40),
        ) {
            let text: String = chars.into_iter().collect();
            let mut got = vec!["stale".to_string()];
            for a in analyzers() {
                let want = a.tokenize_reference(&text);
                a.tokenize_into(&text, &mut got);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(a.tokenize(&text), want);
            }
        }
    }

    #[test]
    fn lowercases_and_splits() {
        let a = Analyzer::keep_all();
        assert_eq!(
            a.tokenize("Star Wars: Episode IV"),
            vec!["star", "wars", "episode", "iv"]
        );
    }

    #[test]
    fn default_removes_stopwords() {
        let a = Analyzer::new();
        assert_eq!(a.tokenize("the cast of the movie"), vec!["cast", "movie"]);
    }

    #[test]
    fn keep_all_keeps_stopwords() {
        let a = Analyzer::keep_all();
        assert_eq!(a.tokenize("of the"), vec!["of", "the"]);
    }

    #[test]
    fn custom_stopwords() {
        let a = Analyzer::new().with_stopwords(["movie"]);
        assert_eq!(a.tokenize("the movie cast"), vec!["the", "cast"]);
    }

    #[test]
    fn min_token_len_filters() {
        let a = Analyzer::keep_all().with_min_token_len(3);
        assert_eq!(a.tokenize("up in the air"), vec!["the", "air"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        let a = Analyzer::new();
        assert!(a.tokenize("").is_empty());
        assert!(a.tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn tokenize_into_clears_and_matches_tokenize() {
        let a = Analyzer::new();
        let mut buf = vec!["stale".to_string(), "junk".to_string()];
        a.tokenize_into("the cast of the movie", &mut buf);
        assert_eq!(buf, a.tokenize("the cast of the movie"));
        // reuse across texts: previous contents never leak through
        a.tokenize_into("star wars", &mut buf);
        assert_eq!(buf, vec!["star", "wars"]);
        a.tokenize_into("", &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        let a = Analyzer::keep_all();
        assert_eq!(a.tokenize("AMÉLIE"), vec!["amélie"]);
    }
}
