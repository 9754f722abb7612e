//! Synthetic IMDb generator on the paper's Figure-2 schema.
//!
//! The schema follows the paper's description literally: the `movie` table is
//! normalized and carries *id pointers* to `genre`, `locations`, and `info`
//! — the exact structure whose undifferentiated id-chasing the paper uses to
//! motivate qunits ("there is nothing in terms of database structure to
//! distinguish between these three references"). Satellite tables (awards,
//! soundtracks, trivia, box office) cover the information needs of the §5.1
//! user study.
//!
//! Popularity is Zipf-skewed: person index 0 is the most-cast "george
//! clooney"-grade star; the query-log generator samples entities with the
//! same skew so log-based derivation sees realistic co-occurrence counts.

use crate::names;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{ColumnDef, DataType, Database, TableSchema, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// RNG seed; same seed ⇒ identical database.
    pub seed: u64,
    /// Number of people.
    pub n_people: usize,
    /// Number of movies.
    pub n_movies: usize,
    /// Mean cast entries per movie.
    pub avg_cast: usize,
    /// Fraction of movies that are remakes (reuse an earlier title).
    pub remake_fraction: f64,
    /// Zipf exponent for person popularity (0 = uniform).
    pub popularity_skew: f64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            seed: 42,
            n_people: 2000,
            n_movies: 1000,
            avg_cast: 6,
            remake_fraction: 0.04,
            popularity_skew: 1.1,
        }
    }
}

impl ImdbConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        ImdbConfig {
            seed: 7,
            n_people: 60,
            n_movies: 40,
            avg_cast: 4,
            ..Default::default()
        }
    }
}

/// A lightweight, typed pointer to an entity row, used by the query-log and
/// evidence generators and by the evaluation oracle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntityRef {
    /// Table name (e.g. `movie`).
    pub table: String,
    /// Column holding the surface string (e.g. `title`).
    pub column: String,
    /// Primary key of the row.
    pub id: i64,
    /// The surface string itself (e.g. `star wars`).
    pub text: String,
}

/// Convenience copy of a movie row.
#[derive(Debug, Clone)]
pub struct MovieRow {
    /// Primary key.
    pub id: i64,
    /// Title (lowercase words).
    pub title: String,
    /// Release year.
    pub year: i64,
    /// Rating in [1, 10].
    pub rating: f64,
    /// Genre string.
    pub genre: String,
}

/// Convenience copy of a person row.
#[derive(Debug, Clone)]
pub struct PersonRow {
    /// Primary key.
    pub id: i64,
    /// Full name (lowercase words).
    pub name: String,
    /// Birth year.
    pub birth_year: i64,
    /// `"m"` or `"f"`.
    pub gender: String,
}

/// The generated database plus entity directories used downstream.
#[derive(Debug, Clone)]
pub struct ImdbData {
    /// The relational database (12 tables), shared with the engines built
    /// over it.
    pub db: Arc<Database>,
    /// Movies in id order.
    pub movies: Vec<MovieRow>,
    /// People in popularity order: index 0 is the most-cast person.
    pub people: Vec<PersonRow>,
    /// The configuration that produced this data.
    pub config: ImdbConfig,
}

/// Build the Figure-2 (extended) catalog on an empty database.
pub fn imdb_schema() -> Database {
    let mut db = Database::new("imdb");
    db.create_table(
        TableSchema::new("genre")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("type", DataType::Text).not_null())
            .primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("locations")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("place", DataType::Text).not_null())
            .column(ColumnDef::new("level", DataType::Int))
            .primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("info")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("text", DataType::Text))
            .column(ColumnDef::new("type", DataType::Text))
            .primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("person")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("name", DataType::Text).not_null())
            .column(ColumnDef::new("birthdate", DataType::Int))
            .column(ColumnDef::new("gender", DataType::Text))
            .primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("movie")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("title", DataType::Text).not_null())
            .column(ColumnDef::new("releasedate", DataType::Int))
            .column(ColumnDef::new("rating", DataType::Float))
            .column(ColumnDef::new("genre_id", DataType::Int))
            .column(ColumnDef::new("location_id", DataType::Int))
            .column(ColumnDef::new("info_id", DataType::Int))
            .primary_key("id")
            .foreign_key("genre_id", "genre", "id")
            .foreign_key("location_id", "locations", "id")
            .foreign_key("info_id", "info", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("cast")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("person_id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("role", DataType::Text))
            .primary_key("id")
            .foreign_key("person_id", "person", "id")
            .foreign_key("movie_id", "movie", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("award")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("name", DataType::Text).not_null())
            .primary_key("id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("movie_award")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("award_id", DataType::Int).not_null())
            .column(ColumnDef::new("year", DataType::Int))
            .primary_key("id")
            .foreign_key("movie_id", "movie", "id")
            .foreign_key("award_id", "award", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("person_award")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("person_id", DataType::Int).not_null())
            .column(ColumnDef::new("award_id", DataType::Int).not_null())
            .column(ColumnDef::new("year", DataType::Int))
            .primary_key("id")
            .foreign_key("person_id", "person", "id")
            .foreign_key("award_id", "award", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("soundtrack")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("title", DataType::Text))
            .primary_key("id")
            .foreign_key("movie_id", "movie", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("trivia")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("text", DataType::Text))
            .primary_key("id")
            .foreign_key("movie_id", "movie", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("boxoffice")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("gross", DataType::Int))
            .primary_key("id")
            .foreign_key("movie_id", "movie", "id"),
    )
    .unwrap();
    db.create_table(
        TableSchema::new("poster")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("movie_id", DataType::Int).not_null())
            .column(ColumnDef::new("url", DataType::Text))
            .primary_key("id")
            .foreign_key("movie_id", "movie", "id"),
    )
    .unwrap();
    db.catalog().validate().expect("imdb schema is well-formed");
    db
}

impl ImdbData {
    /// Generate a database from `config`.
    pub fn generate(config: ImdbConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut db = imdb_schema();
        db.set_enforce_fk(false); // bulk load; integrity asserted in tests

        // genre / locations / award reference tables
        for (i, g) in names::GENRES.iter().enumerate() {
            db.insert("genre", vec![(i as i64 + 1).into(), (*g).into()])
                .unwrap();
        }
        for (i, l) in names::LOCATIONS.iter().enumerate() {
            db.insert(
                "locations",
                vec![
                    (i as i64 + 1).into(),
                    (*l).into(),
                    ((i % 3) as i64 + 1).into(),
                ],
            )
            .unwrap();
        }
        for (i, a) in names::AWARDS.iter().enumerate() {
            db.insert("award", vec![(i as i64 + 1).into(), (*a).into()])
                .unwrap();
        }

        // people
        let mut people = Vec::with_capacity(config.n_people);
        for i in 0..config.n_people {
            let id = i as i64 + 1;
            let name = names::person_name(i);
            let birth_year = rng.gen_range(1920..=1990) as i64;
            let gender = if rng.gen_bool(0.5) { "m" } else { "f" }.to_string();
            db.insert(
                "person",
                vec![
                    id.into(),
                    name.clone().into(),
                    birth_year.into(),
                    gender.clone().into(),
                ],
            )
            .unwrap();
            people.push(PersonRow {
                id,
                name,
                birth_year,
                gender,
            });
        }

        // movies (+ one info row each)
        let mut movies: Vec<MovieRow> = Vec::with_capacity(config.n_movies);
        for i in 0..config.n_movies {
            let id = i as i64 + 1;
            let title = if i > 0 && rng.gen_bool(config.remake_fraction) {
                movies[rng.gen_range(0..movies.len())].title.clone()
            } else {
                names::movie_title(i)
            };
            let year = rng.gen_range(1930..=2008) as i64;
            let rating = (rng.gen_range(10..=100) as f64) / 10.0;
            let genre_ix = rng.gen_range(0..names::GENRES.len());
            let location_id = rng.gen_range(1..=names::LOCATIONS.len() as i64);
            let plot = plot_text(&mut rng, 12, 24);
            db.insert("info", vec![id.into(), plot.into(), "plot outline".into()])
                .unwrap();
            db.insert(
                "movie",
                vec![
                    id.into(),
                    title.clone().into(),
                    year.into(),
                    rating.into(),
                    (genre_ix as i64 + 1).into(),
                    location_id.into(),
                    id.into(),
                ],
            )
            .unwrap();
            movies.push(MovieRow {
                id,
                title,
                year,
                rating,
                genre: names::GENRES[genre_ix].to_string(),
            });
        }

        // cast: Zipf-popular people across movies
        let zipf = Zipf::new(config.n_people, config.popularity_skew);
        let mut cast_id = 0i64;
        for movie in &movies {
            let k = rng.gen_range(2..=config.avg_cast * 2 - 2).max(2);
            let mut seen: HashSet<i64> = HashSet::with_capacity(k);
            for slot in 0..k {
                let p = &people[zipf.sample(&mut rng)];
                if !seen.insert(p.id) {
                    continue;
                }
                let role = if slot == 0 && rng.gen_bool(0.3) {
                    "director".to_string()
                } else if rng.gen_bool(0.05) {
                    names::ROLES[rng.gen_range(2..names::ROLES.len())].to_string()
                } else if p.gender == "f" {
                    "actress".to_string()
                } else {
                    "actor".to_string()
                };
                cast_id += 1;
                db.insert(
                    "cast",
                    vec![cast_id.into(), p.id.into(), movie.id.into(), role.into()],
                )
                .unwrap();
            }
        }

        // awards: highly rated movies and popular people
        let mut ma_id = 0i64;
        for movie in movies.iter().filter(|m| m.rating >= 8.5) {
            ma_id += 1;
            let award = rng.gen_range(1..=names::AWARDS.len() as i64);
            db.insert(
                "movie_award",
                vec![
                    ma_id.into(),
                    movie.id.into(),
                    award.into(),
                    (movie.year + 1).into(),
                ],
            )
            .unwrap();
        }
        let mut pa_id = 0i64;
        for p in people.iter().take((config.n_people / 20).max(1)) {
            pa_id += 1;
            let award = rng.gen_range(1..=names::AWARDS.len() as i64);
            let year = rng.gen_range(1960..=2008) as i64;
            db.insert(
                "person_award",
                vec![pa_id.into(), p.id.into(), award.into(), year.into()],
            )
            .unwrap();
        }

        // soundtracks, trivia, boxoffice, posters
        let mut st_id = 0i64;
        let mut tr_id = 0i64;
        let mut bo_id = 0i64;
        let mut po_id = 0i64;
        for movie in &movies {
            if rng.gen_bool(0.5) {
                po_id += 1;
                let url = format!("img://poster/{}/{}", movie.id, po_id);
                db.insert("poster", vec![po_id.into(), movie.id.into(), url.into()])
                    .unwrap();
            }
            if rng.gen_bool(0.3) {
                for _ in 0..rng.gen_range(1..=3) {
                    st_id += 1;
                    let w = names::TITLE_WORDS[rng.gen_range(0..names::TITLE_WORDS.len())];
                    db.insert(
                        "soundtrack",
                        vec![st_id.into(), movie.id.into(), format!("{w} theme").into()],
                    )
                    .unwrap();
                }
            }
            if rng.gen_bool(0.4) {
                tr_id += 1;
                db.insert(
                    "trivia",
                    vec![
                        tr_id.into(),
                        movie.id.into(),
                        plot_text(&mut rng, 6, 14).into(),
                    ],
                )
                .unwrap();
            }
            if rng.gen_bool(0.7) {
                bo_id += 1;
                let gross = (movie.rating * 1.0e7) as i64 + rng.gen_range(0..50_000_000);
                db.insert(
                    "boxoffice",
                    vec![bo_id.into(), movie.id.into(), gross.into()],
                )
                .unwrap();
            }
        }

        db.set_enforce_fk(true);
        ImdbData {
            db: Arc::new(db),
            movies,
            people,
            config,
        }
    }

    /// All movie-title entities.
    pub fn movie_entities(&self) -> Vec<EntityRef> {
        self.movies
            .iter()
            .map(|m| EntityRef {
                table: "movie".into(),
                column: "title".into(),
                id: m.id,
                text: m.title.clone(),
            })
            .collect()
    }

    /// All person-name entities.
    pub fn person_entities(&self) -> Vec<EntityRef> {
        self.people
            .iter()
            .map(|p| EntityRef {
                table: "person".into(),
                column: "name".into(),
                id: p.id,
                text: p.name.clone(),
            })
            .collect()
    }

    /// Genre-type entities.
    pub fn genre_entities(&self) -> Vec<EntityRef> {
        names::GENRES
            .iter()
            .enumerate()
            .map(|(i, g)| EntityRef {
                table: "genre".into(),
                column: "type".into(),
                id: i as i64 + 1,
                text: g.to_string(),
            })
            .collect()
    }

    /// The full entity dictionary (movies, people, genres, roles, awards) —
    /// the lookup table for query segmentation and log typing.
    pub fn all_entities(&self) -> Vec<EntityRef> {
        let mut out = self.movie_entities();
        out.extend(self.person_entities());
        out.extend(self.genre_entities());
        out.extend(names::ROLES.iter().enumerate().map(|(i, r)| EntityRef {
            table: "cast".into(),
            column: "role".into(),
            id: i as i64 + 1,
            text: r.to_string(),
        }));
        out.extend(names::AWARDS.iter().enumerate().map(|(i, a)| EntityRef {
            table: "award".into(),
            column: "name".into(),
            id: i as i64 + 1,
            text: a.to_string(),
        }));
        out
    }

    /// Movie ids a person appears in (via the convenience copies, not SQL).
    pub fn filmography(&self, person_id: i64) -> Vec<i64> {
        let cast = self.db.table_by_name("cast").expect("cast table");
        let pid_col = cast.schema().column_index("person_id").expect("person_id");
        let mid_col = cast.schema().column_index("movie_id").expect("movie_id");
        cast.scan()
            .filter(|(_, r)| r.get(pid_col).and_then(Value::as_int) == Some(person_id))
            .filter_map(|(_, r)| r.get(mid_col).and_then(Value::as_int))
            .collect()
    }
}

fn plot_text(rng: &mut StdRng, min: usize, max: usize) -> String {
    let n = rng.gen_range(min..=max);
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(names::PLOT_WORDS[rng.gen_range(0..names::PLOT_WORDS.len())]);
    }
    words.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_thirteen_tables() {
        let db = imdb_schema();
        assert_eq!(db.catalog().len(), 13);
        // Figure-2 edges: movie → genre/locations/info; cast → person/movie.
        let edges = db.catalog().edges();
        assert!(edges.len() >= 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ImdbData::generate(ImdbConfig::tiny());
        let b = ImdbData::generate(ImdbConfig::tiny());
        assert_eq!(a.db.total_rows(), b.db.total_rows());
        assert_eq!(a.movies.len(), b.movies.len());
        assert_eq!(a.movies[5].title, b.movies[5].title);
        assert_eq!(a.people[7].name, b.people[7].name);
    }

    #[test]
    fn seed_changes_output() {
        let a = ImdbData::generate(ImdbConfig::tiny());
        let b = ImdbData::generate(ImdbConfig {
            seed: 8,
            ..ImdbConfig::tiny()
        });
        // Titles are deterministic by index; ratings/years should differ.
        assert_ne!(
            a.movies.iter().map(|m| m.year).collect::<Vec<_>>(),
            b.movies.iter().map(|m| m.year).collect::<Vec<_>>()
        );
    }

    #[test]
    fn referential_integrity_holds() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        assert!(data.db.check_integrity().is_ok());
    }

    #[test]
    fn row_counts_match_config() {
        let cfg = ImdbConfig::tiny();
        let data = ImdbData::generate(cfg.clone());
        assert_eq!(data.db.table_by_name("person").unwrap().len(), cfg.n_people);
        assert_eq!(data.db.table_by_name("movie").unwrap().len(), cfg.n_movies);
        assert_eq!(data.db.table_by_name("info").unwrap().len(), cfg.n_movies);
        assert!(data.db.table_by_name("cast").unwrap().len() >= cfg.n_movies * 2);
    }

    #[test]
    fn popularity_skew_concentrates_cast() {
        let data = ImdbData::generate(ImdbConfig {
            n_people: 200,
            n_movies: 150,
            popularity_skew: 1.3,
            ..ImdbConfig::tiny()
        });
        let top = data.filmography(data.people[0].id).len();
        let bottom = data.filmography(data.people[150].id).len();
        assert!(top > bottom, "top star {top} vs tail {bottom}");
        assert!(top >= 5);
    }

    #[test]
    fn remakes_duplicate_titles() {
        let data = ImdbData::generate(ImdbConfig {
            n_movies: 300,
            remake_fraction: 0.2,
            ..ImdbConfig::tiny()
        });
        let mut titles = std::collections::HashMap::new();
        for m in &data.movies {
            *titles.entry(m.title.clone()).or_insert(0) += 1;
        }
        assert!(
            titles.values().any(|&c| c > 1),
            "expected at least one remake"
        );
    }

    #[test]
    fn entity_directory_covers_all_types() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        let ents = data.all_entities();
        let tables: std::collections::HashSet<&str> =
            ents.iter().map(|e| e.table.as_str()).collect();
        assert!(tables.contains("movie"));
        assert!(tables.contains("person"));
        assert!(tables.contains("genre"));
        assert!(tables.contains("cast"));
        assert!(tables.contains("award"));
    }

    #[test]
    fn satellite_tables_populated() {
        let data = ImdbData::generate(ImdbConfig::tiny());
        for t in [
            "soundtrack",
            "trivia",
            "boxoffice",
            "person_award",
            "poster",
        ] {
            assert!(
                !data.db.table_by_name(t).unwrap().is_empty(),
                "table {t} should have rows at tiny scale"
            );
        }
    }
}
