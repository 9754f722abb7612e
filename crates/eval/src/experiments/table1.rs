//! Table 1 (§5.1) — the simulated user study: five users, five information
//! needs each, each formulated as a keyword query via the need→template
//! affinity model. The reproduction targets the paper's aggregate claims:
//!
//! * the need ↔ template mapping is many-to-many,
//! * ~10 of the 25 queries are single-entity, ~8 of those underspecified,
//! * a bare `[title]` stands for several different needs.

use datagen::needs::{InformationNeed, QueryTemplate, ALL_NEEDS, ALL_TEMPLATES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One elicited (user, need, template) triple.
#[derive(Debug, Clone)]
pub struct Elicitation {
    /// User letter, `a`–`e`.
    pub user: char,
    /// The information need.
    pub need: InformationNeed,
    /// The query structure chosen.
    pub template: QueryTemplate,
}

/// The full study result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All elicitations (25 for the paper's 5 × 5 design).
    pub entries: Vec<Elicitation>,
}

/// Run the study with `n_users` users and `needs_per_user` needs each.
pub fn run(seed: u64, n_users: usize, needs_per_user: usize) -> Table1 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(n_users * needs_per_user);
    for u in 0..n_users {
        let user = (b'a' + (u % 26) as u8) as char;
        // sample needs without replacement
        let mut pool: Vec<InformationNeed> = ALL_NEEDS.to_vec();
        for _ in 0..needs_per_user.min(pool.len()) {
            let i = rng.gen_range(0..pool.len());
            let need = pool.swap_remove(i);
            let template = sample_template(&mut rng, need);
            entries.push(Elicitation {
                user,
                need,
                template,
            });
        }
    }
    Table1 { entries }
}

/// The single-entity count and the underspecified single-entity count of
/// the study at every seed in `seeds`, each as `(mean, min, max)`. One draw
/// of 25 queries is noisy; the paper's 10 and 8 are compared with these.
pub fn sweep(seeds: Range<u64>, n_users: usize, needs_per_user: usize) -> [(f64, usize, usize); 2] {
    let studies: Vec<Table1> = seeds
        .map(|seed| run(seed, n_users, needs_per_user))
        .collect();
    let counts: [fn(&Table1) -> usize; 2] = [
        Table1::single_entity_count,
        Table1::underspecified_single_entity_count,
    ];
    counts.map(|count| {
        let counts = studies.iter().map(count);
        let mean = counts.clone().sum::<usize>() as f64 / studies.len() as f64;
        (
            mean,
            counts.clone().min().unwrap_or(0),
            counts.max().unwrap_or(0),
        )
    })
}

fn sample_template(rng: &mut StdRng, need: InformationNeed) -> QueryTemplate {
    let affinity = need.template_affinity();
    let total: f64 = affinity.iter().map(|(_, w)| w).sum();
    let mut u = rng.gen::<f64>() * total;
    for (t, w) in affinity {
        if u < *w {
            return *t;
        }
        u -= w;
    }
    affinity[0].0
}

impl Table1 {
    /// The matrix cells: `(need, template) → user letters`.
    pub fn matrix(&self) -> BTreeMap<(String, String), BTreeSet<char>> {
        let mut m: BTreeMap<(String, String), BTreeSet<char>> = BTreeMap::new();
        for e in &self.entries {
            m.entry((e.need.to_string(), e.template.label().to_string()))
                .or_default()
                .insert(e.user);
        }
        m
    }

    /// Count of single-entity queries.
    pub fn single_entity_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.template.is_single_entity())
            .count()
    }

    /// Count of single-entity queries whose template is underspecified.
    pub fn underspecified_single_entity_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.template.is_single_entity() && e.template.is_underspecified())
            .count()
    }

    /// True iff some need was expressed through ≥2 templates AND some
    /// template expresses ≥2 needs (the many-to-many property).
    pub fn is_many_to_many(&self) -> bool {
        let mut per_need: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut per_template: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for e in &self.entries {
            per_need
                .entry(e.need.to_string())
                .or_default()
                .insert(e.template.label().to_string());
            per_template
                .entry(e.template.label().to_string())
                .or_default()
                .insert(e.need.to_string());
        }
        per_need.values().any(|s| s.len() >= 2) && per_template.values().any(|s| s.len() >= 2)
    }

    /// Render the Table-1-style matrix.
    pub fn render(&self) -> String {
        let matrix = self.matrix();
        let used_templates: Vec<&QueryTemplate> = ALL_TEMPLATES
            .iter()
            .filter(|t| matrix.keys().any(|(_, tl)| tl == t.label()))
            .collect();
        let mut header: Vec<&str> = vec!["info. need"];
        for t in &used_templates {
            header.push(t.label());
        }
        let mut rows = Vec::new();
        for need in ALL_NEEDS {
            let mut row = vec![need.to_string()];
            let mut any = false;
            for t in &used_templates {
                let cell = matrix
                    .get(&(need.to_string(), t.label().to_string()))
                    .map(|users| {
                        users
                            .iter()
                            .map(char::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .unwrap_or_default();
                if !cell.is_empty() {
                    any = true;
                }
                row.push(cell);
            }
            if any {
                rows.push(row);
            }
        }
        crate::report::table(&header, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_by_five_yields_25_queries() {
        let t = run(11, 5, 5);
        assert_eq!(t.entries.len(), 25);
        let users: BTreeSet<char> = t.entries.iter().map(|e| e.user).collect();
        assert_eq!(users.len(), 5);
    }

    #[test]
    fn needs_unique_per_user() {
        let t = run(11, 5, 5);
        for u in ['a', 'b', 'c', 'd', 'e'] {
            let needs: Vec<_> = t
                .entries
                .iter()
                .filter(|e| e.user == u)
                .map(|e| e.need)
                .collect();
            let set: BTreeSet<_> = needs.iter().map(|n| n.to_string()).collect();
            assert_eq!(needs.len(), set.len(), "user {u} repeated a need");
        }
    }

    #[test]
    fn reproduces_paper_aggregates_across_seeds() {
        // The paper: 10/25 single-entity, 8 underspecified. Exact counts
        // vary per seed; the model should land in the neighborhood for
        // most seeds.
        let mut in_range = 0;
        for seed in 0..20 {
            let t = run(seed, 5, 5);
            let single = t.single_entity_count();
            if (6..=14).contains(&single) {
                in_range += 1;
            }
            // every single-entity query in our model is underspecified
            // ([title] and [actor] both map to multiple needs)
            assert_eq!(t.underspecified_single_entity_count(), single);
        }
        assert!(in_range >= 15, "only {in_range}/20 seeds near paper counts");
    }

    #[test]
    fn the_sweep_mean_is_near_the_papers_ten() {
        let [single, under] = sweep(0..20, 5, 5);
        let (mean, min, max) = single;
        assert!((8.0..=12.0).contains(&mean), "{single:?}");
        assert!(min as f64 <= mean && mean <= max as f64, "{single:?}");
        assert_eq!(under, single, "every single-entity query is underspecified");
    }

    #[test]
    fn many_to_many_property_holds() {
        // with 25 draws this is essentially certain for any seed
        let t = run(42, 5, 5);
        assert!(t.is_many_to_many());
    }

    #[test]
    fn render_is_nonempty_and_mentions_users() {
        let t = run(7, 5, 5);
        let s = t.render();
        assert!(s.contains("info. need"));
        assert!(s.contains('a'));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(3, 5, 5);
        let b = run(3, 5, 5);
        assert_eq!(a.render(), b.render());
    }
}
