//! Allocation counts of bulk materialisation: `materialize_all` allocates
//! per instance it returns, not per joined row or per cell it reads.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`counting_alloc`, as `hit_path_allocs.rs` does); only the
//! thread inside [`measured`] is counted.
//!
//! Every cell is read where it lives in the tables: a branch's rows are
//! row-id tuples, grouped by borrowed anchor values, and each instance is
//! rendered into buffers reused from the previous one, then copied out at
//! its exact size. What is left is what each instance owns (key, definition,
//! anchor, page, text, field list) plus a few buffers per definition.
//! Measured with this allocator over the expert catalog on a 100-movie
//! synthetic IMDb (694 instances, 2 473 joined rows):
//!
//! | | allocations | per instance | bytes allocated |
//! |---|---|---|---|
//! | before (an owned `Vec<Value>` per joined row, a cloned `Value` per cell, a `String` per distinct tuple block, growing page buffers) | 50 315 | 72.5 | 3 648 540 |
//! | rows read in place | 7 524 | 10.8 | 1 218 169 |
//! | now (row ids detached from the join; each resolved template owns its tags) | 7 567 | 10.9 | 1 167 409 |

mod counting_alloc;

use counting_alloc::{measured, Counting};
use datagen::imdb::{ImdbConfig, ImdbData};
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{materialize_all, QunitInstance};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations an instance may cost on average: its own strings (key,
/// definition, anchor, page, text, and a field list of up to five names)
/// are eleven, and the per-definition buffers share out to well under one.
const PER_INSTANCE: u64 = 13;

/// Heap blocks an instance owns.
fn owned_blocks(inst: &QunitInstance) -> u64 {
    let strings = [&inst.key, &inst.definition, &inst.rendered, &inst.text];
    let anchor = inst.anchor_value.as_ref().and_then(|v| v.as_text());
    let fields = inst.fields.iter().filter(|f| !f.is_empty()).count() as u64;
    strings.iter().filter(|s| !s.is_empty()).count() as u64
        + u64::from(anchor.is_some_and(|a| !a.is_empty()))
        + u64::from(!inst.fields.is_empty())
        + fields
}

#[test]
fn materialize_all_allocates_by_instance_not_by_row_or_cell() {
    let data = ImdbData::generate(ImdbConfig {
        n_people: 150,
        n_movies: 100,
        ..ImdbConfig::default()
    });
    let catalog = expert_imdb_qunits(&data.db).expect("catalog");
    let (batches, cost) = measured(|| {
        catalog
            .iter()
            .map(|def| materialize_all(&data.db, def).expect("materialize"))
            .collect::<Vec<_>>()
    });
    let instances: Vec<&QunitInstance> = batches.iter().flatten().collect();
    let n = instances.len() as u64;
    let rows: u64 = instances.iter().map(|i| i.tuple_count as u64).sum();
    let owned: u64 = instances.iter().map(|i| owned_blocks(i)).sum();
    println!(
        "materialize_all over {} definitions: {n} instances, {rows} joined rows; \
         {} allocations ({} B), {:.2} per instance, of which {owned} the instances' own",
        catalog.len(),
        cost.allocs,
        cost.allocated_bytes,
        cost.allocs as f64 / n as f64,
    );
    assert!(rows > 3 * n, "fixture: {rows} rows for {n} instances");
    assert!(
        cost.allocs <= PER_INSTANCE * n,
        "{} allocations for {n} instances ({rows} rows): {cost:?}",
        cost.allocs
    );
    // Beyond what the instances own, only a bounded set of buffers per
    // definition, each grown a logarithmic number of times.
    let beyond = cost.allocs - owned;
    assert!(
        beyond <= 150 * catalog.len() as u64,
        "{beyond} allocations beyond the instances' own {owned}"
    );
}
