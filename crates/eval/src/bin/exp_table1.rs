//! Regenerates Table 1 (§5.1): information needs × keyword queries from the
//! simulated five-user study, plus the paper's aggregate observations.

use qunit_eval::experiments::table1;

fn main() {
    let study = table1::run(2009, 5, 5);
    println!("Table 1 — Information Needs vs Keyword Queries (5 simulated users)\n");
    println!("{}", study.render());
    let single = study.single_entity_count();
    println!("total queries elicited : {}", study.entries.len());
    println!("single-entity queries  : {single} (paper: 10 of 25)");
    println!(
        "  of which underspecified: {} (paper: 8)",
        study.underspecified_single_entity_count()
    );
    let seeds = 0..20;
    println!("over seeds {}–{}:", seeds.start, seeds.end - 1);
    let [single, under] = table1::sweep(seeds, 5, 5);
    let spread =
        |(mean, min, max): (f64, usize, usize)| format!("mean {mean:.2}, range {min}–{max}");
    println!("  single-entity queries  : {} (paper: 10)", spread(single));
    println!("  of which underspecified: {} (paper: 8)", spread(under));
    println!(
        "need<->query mapping is many-to-many: {}",
        if study.is_many_to_many() { "yes" } else { "no" }
    );
}
