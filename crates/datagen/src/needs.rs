//! The information-need model behind the §5.1 user study (Table 1).
//!
//! Table 1's rows are *information needs*; its columns are abstract *query
//! templates* ("query structures") users chose to express them. The paper's
//! headline observations, which this model is parameterized to reproduce:
//!
//! * the need ↔ template mapping is **many-to-many**;
//! * ~10 of 25 elicited queries are **single-entity**, and 8 of those are
//!   **underspecified** (the query alone cannot disambiguate the need);
//! * a bare `[title]` query may stand for at least four different needs.
//!
//! The exact per-cell user letters of Table 1 are not recoverable from the
//! published scan; the per-need template affinities below are reconstructed
//! to be consistent with every aggregate the paper states; `exp_table1`
//! prints those aggregates beside the paper's.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The thirteen information needs elicited in the user study (Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InformationNeed {
    /// The summary page of a movie.
    MovieSummary,
    /// The cast of a movie.
    Cast,
    /// All movies of a person.
    Filmography,
    /// Who has acted with whom.
    Coactorship,
    /// Movie posters.
    Posters,
    /// Movies related to a given movie.
    RelatedMovies,
    /// Awards won by a movie or person.
    Awards,
    /// Movies from a time period.
    MoviesOfPeriod,
    /// Top charts and lists.
    ChartsLists,
    /// Personalized recommendations.
    Recommendations,
    /// A movie's soundtrack.
    Soundtracks,
    /// Movie trivia.
    Trivia,
    /// Box-office numbers.
    BoxOffice,
}

/// All needs, in Table-1 row order.
pub const ALL_NEEDS: &[InformationNeed] = &[
    InformationNeed::MovieSummary,
    InformationNeed::Cast,
    InformationNeed::Filmography,
    InformationNeed::Coactorship,
    InformationNeed::Posters,
    InformationNeed::RelatedMovies,
    InformationNeed::Awards,
    InformationNeed::MoviesOfPeriod,
    InformationNeed::ChartsLists,
    InformationNeed::Recommendations,
    InformationNeed::Soundtracks,
    InformationNeed::Trivia,
    InformationNeed::BoxOffice,
];

impl fmt::Display for InformationNeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InformationNeed::MovieSummary => "movie summary",
            InformationNeed::Cast => "cast",
            InformationNeed::Filmography => "filmography",
            InformationNeed::Coactorship => "coactorship",
            InformationNeed::Posters => "posters",
            InformationNeed::RelatedMovies => "related movies",
            InformationNeed::Awards => "awards",
            InformationNeed::MoviesOfPeriod => "movies of period",
            InformationNeed::ChartsLists => "charts / lists",
            InformationNeed::Recommendations => "recommendations",
            InformationNeed::Soundtracks => "soundtracks",
            InformationNeed::Trivia => "trivia",
            InformationNeed::BoxOffice => "box office",
        };
        f.write_str(s)
    }
}

impl InformationNeed {
    /// The qualified attributes an *ideal* answer for this need covers. This
    /// is the gold standard the relevance oracle scores against (Table 2's
    /// "correct" = covers these; "incomplete"/"excessive" = under/over).
    pub fn required_fields(&self) -> &'static [&'static str] {
        match self {
            InformationNeed::MovieSummary => &[
                "movie.title",
                "movie.releasedate",
                "movie.rating",
                "genre.type",
                "person.name",
            ],
            InformationNeed::Cast => &["movie.title", "person.name", "cast.role"],
            InformationNeed::Filmography => &["person.name", "movie.title"],
            InformationNeed::Coactorship => &["person.name", "movie.title"],
            InformationNeed::Posters => &["movie.title", "poster.url"],
            InformationNeed::RelatedMovies => &["movie.title", "genre.type"],
            InformationNeed::Awards => &["award.name", "movie_award.year"],
            InformationNeed::MoviesOfPeriod => &["movie.title", "movie.releasedate"],
            InformationNeed::ChartsLists => &["movie.title", "movie.rating"],
            InformationNeed::Recommendations => &["movie.title", "genre.type", "movie.rating"],
            InformationNeed::Soundtracks => &["movie.title", "soundtrack.title"],
            InformationNeed::Trivia => &["movie.title", "trivia.text"],
            InformationNeed::BoxOffice => &["movie.title", "boxoffice.gross"],
        }
    }

    /// Template affinity: `(template, weight)` pairs describing how users
    /// express this need. Weights need not sum to 1 — callers normalize.
    /// The many-to-many structure of Table 1 lives here.
    pub fn template_affinity(&self) -> &'static [(QueryTemplate, f64)] {
        use InformationNeed as N;
        use QueryTemplate as T;
        // Weights calibrated so a 5-user × 5-need study lands on the
        // paper's aggregates (≈10/25 single-entity queries, 8 of them
        // underspecified); see the table1 experiment.
        match self {
            N::MovieSummary => &[
                (T::Title, 6.0),
                (T::TitleFreetext, 0.5),
                (T::MovieFreetext, 0.5),
                (T::TitleYear, 0.5),
                (T::TitlePlot, 0.5),
            ],
            N::Cast => &[(T::TitleCast, 2.0), (T::Title, 1.0)],
            N::Filmography => &[(T::Actor, 2.5), (T::ActorMovies, 1.0)],
            N::Coactorship => &[(T::Actor, 2.0), (T::ActorActor, 0.5), (T::Title, 0.5)],
            N::Posters => &[(T::TitlePosters, 2.0)],
            N::RelatedMovies => &[(T::Title, 1.5), (T::DontKnow, 0.5)],
            N::Awards => &[(T::ActorAward, 2.0), (T::Title, 0.5)],
            N::MoviesOfPeriod => &[(T::YearActor, 1.5), (T::DontKnow, 0.5)],
            N::ChartsLists => &[(T::MovieFreetext, 1.0), (T::DontKnow, 1.0)],
            N::Recommendations => &[(T::ActorGenre, 1.5), (T::DontKnow, 1.0)],
            N::Soundtracks => &[(T::TitleOst, 2.0)],
            N::Trivia => &[(T::TitleFreetext, 1.0), (T::Title, 1.0)],
            N::BoxOffice => &[(T::TitleBoxOffice, 2.0), (T::MovieFreetext, 0.5)],
        }
    }
}

/// Abstract query structures (Table 1 columns, plus the multi-entity and
/// aggregate shapes §5.2 observes in the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryTemplate {
    /// `[title]` — bare movie title.
    Title,
    /// `[title] box office`
    TitleBoxOffice,
    /// `[actor] [award]`
    ActorAward,
    /// `[year] [actor]`
    YearActor,
    /// `[actor]` — bare person name.
    Actor,
    /// `[actor] [genre]`
    ActorGenre,
    /// `[title] ost` — soundtrack.
    TitleOst,
    /// `[title] cast`
    TitleCast,
    /// `[title] [freetext]`
    TitleFreetext,
    /// `movie [freetext]`
    MovieFreetext,
    /// `[title] year`
    TitleYear,
    /// `[title] posters`
    TitlePosters,
    /// `[title] plot`
    TitlePlot,
    /// User could not formulate a query.
    DontKnow,
    /// `[actor] movies` — filmography attribute query (§5.2).
    ActorMovies,
    /// `[actor] [actor]` — two-entity query (§5.2, ~2%).
    ActorActor,
    /// `[actor] [title]` — two-entity query, e.g. "angelina jolie tombraider".
    ActorTitle,
    /// Aggregate-style query, e.g. "highest box office revenue" (<2%).
    Complex,
}

/// All templates: Table-1 columns first (14), then the extended log shapes.
pub const ALL_TEMPLATES: &[QueryTemplate] = &[
    QueryTemplate::Title,
    QueryTemplate::TitleBoxOffice,
    QueryTemplate::ActorAward,
    QueryTemplate::YearActor,
    QueryTemplate::Actor,
    QueryTemplate::ActorGenre,
    QueryTemplate::TitleOst,
    QueryTemplate::TitleCast,
    QueryTemplate::TitleFreetext,
    QueryTemplate::MovieFreetext,
    QueryTemplate::TitleYear,
    QueryTemplate::TitlePosters,
    QueryTemplate::TitlePlot,
    QueryTemplate::DontKnow,
    QueryTemplate::ActorMovies,
    QueryTemplate::ActorActor,
    QueryTemplate::ActorTitle,
    QueryTemplate::Complex,
];

impl fmt::Display for QueryTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl QueryTemplate {
    /// Table-1 column label.
    pub fn label(&self) -> &'static str {
        match self {
            QueryTemplate::Title => "[title]",
            QueryTemplate::TitleBoxOffice => "[title] box office",
            QueryTemplate::ActorAward => "[actor] [award]",
            QueryTemplate::YearActor => "[year] [actor]",
            QueryTemplate::Actor => "[actor]",
            QueryTemplate::ActorGenre => "[actor] [genre]",
            QueryTemplate::TitleOst => "[title] ost",
            QueryTemplate::TitleCast => "[title] cast",
            QueryTemplate::TitleFreetext => "[title] [freetext]",
            QueryTemplate::MovieFreetext => "movie [freetext]",
            QueryTemplate::TitleYear => "[title] year",
            QueryTemplate::TitlePosters => "[title] posters",
            QueryTemplate::TitlePlot => "[title] plot",
            QueryTemplate::DontKnow => "don't know",
            QueryTemplate::ActorMovies => "[actor] movies",
            QueryTemplate::ActorActor => "[actor] [actor]",
            QueryTemplate::ActorTitle => "[actor] [title]",
            QueryTemplate::Complex => "[aggregate]",
        }
    }

    /// A query of this shape names exactly one entity and nothing else.
    pub fn is_single_entity(&self) -> bool {
        matches!(self, QueryTemplate::Title | QueryTemplate::Actor)
    }

    /// `entity + attribute keyword` shape ("terminator cast").
    pub fn is_entity_attribute(&self) -> bool {
        matches!(
            self,
            QueryTemplate::TitleBoxOffice
                | QueryTemplate::TitleOst
                | QueryTemplate::TitleCast
                | QueryTemplate::TitleYear
                | QueryTemplate::TitlePosters
                | QueryTemplate::TitlePlot
                | QueryTemplate::ActorMovies
        )
    }

    /// Names two (or more) entities.
    pub fn is_multi_entity(&self) -> bool {
        matches!(
            self,
            QueryTemplate::ActorActor
                | QueryTemplate::ActorTitle
                | QueryTemplate::ActorAward
                | QueryTemplate::ActorGenre
                | QueryTemplate::YearActor
        )
    }

    /// Aggregate / complex structure.
    pub fn is_complex(&self) -> bool {
        matches!(self, QueryTemplate::Complex)
    }

    /// The needs that could have produced a query of this shape, with the
    /// same weights as the forward mapping (Bayes numerators; uniform prior
    /// over needs). This is the "conversely…" direction of Table 1.
    pub fn candidate_needs(&self) -> Vec<(InformationNeed, f64)> {
        let mut out = Vec::new();
        for &need in ALL_NEEDS {
            for &(t, w) in need.template_affinity() {
                if t == *self {
                    out.push((need, w));
                }
            }
        }
        out
    }

    /// Underspecified = more than one need maps to this template (the query
    /// text alone cannot identify the user's intent).
    pub fn is_underspecified(&self) -> bool {
        self.candidate_needs().len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_needs_eighteen_templates() {
        assert_eq!(ALL_NEEDS.len(), 13);
        assert_eq!(ALL_TEMPLATES.len(), 18);
    }

    #[test]
    fn title_template_is_heavily_underspecified() {
        // The paper: a bare [title] query may be issued for ≥4 needs.
        let needs = QueryTemplate::Title.candidate_needs();
        assert!(needs.len() >= 4, "got {}", needs.len());
        assert!(QueryTemplate::Title.is_underspecified());
    }

    #[test]
    fn actor_template_maps_to_two_needs() {
        // Paper: actor name → filmography or co-actors.
        let needs: Vec<InformationNeed> = QueryTemplate::Actor
            .candidate_needs()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(needs.contains(&InformationNeed::Filmography));
        assert!(needs.contains(&InformationNeed::Coactorship));
    }

    #[test]
    fn specific_templates_are_not_underspecified() {
        assert!(!QueryTemplate::TitlePosters.is_underspecified());
        assert!(!QueryTemplate::TitleOst.is_underspecified());
    }

    #[test]
    fn every_need_has_a_template() {
        for need in ALL_NEEDS {
            assert!(!need.template_affinity().is_empty(), "{need}");
        }
    }

    #[test]
    fn shape_classifiers_partition_sensibly() {
        assert!(QueryTemplate::Title.is_single_entity());
        assert!(!QueryTemplate::TitleCast.is_single_entity());
        assert!(QueryTemplate::TitleCast.is_entity_attribute());
        assert!(QueryTemplate::ActorActor.is_multi_entity());
        assert!(QueryTemplate::Complex.is_complex());
        // no template is both single-entity and multi-entity
        for t in ALL_TEMPLATES {
            assert!(!(t.is_single_entity() && t.is_multi_entity()), "{t}");
        }
    }

    #[test]
    fn required_fields_nonempty_and_qualified() {
        for need in ALL_NEEDS {
            let fields = need.required_fields();
            assert!(!fields.is_empty());
            for f in fields {
                assert!(f.contains('.'), "{f} must be table.column");
            }
        }
    }

    #[test]
    fn many_to_many_mapping_holds() {
        // at least one need with multiple templates
        assert!(InformationNeed::MovieSummary.template_affinity().len() > 1);
        // at least one template with multiple needs
        assert!(QueryTemplate::Title.candidate_needs().len() > 1);
    }

    #[test]
    fn labels_render() {
        assert_eq!(QueryTemplate::TitleCast.to_string(), "[title] cast");
        assert_eq!(InformationNeed::BoxOffice.to_string(), "box office");
    }
}
