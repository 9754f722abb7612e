//! Spans around the IR crate's public calls, shared by the traced passes of
//! the IMDb workloads (where they replay beside the engine call, on a replica
//! of the engine's index) and of `corpus_scale` (where the first two *are*
//! the served operation).

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{durations_us, self_times, Span, Tracer};
use irengine::{
    ExecutorStats, KernelTier, ScoreScratch, ScoringFunction, SearchContext, SearchFailure,
    SearchOutcome, Searcher, ShardedIndex, ShardedSearcher,
};
use std::collections::HashMap;
use std::hint::black_box;

/// The four kernel replays; each query runs one of them (`op % 4`).
const KERNELS: [(&str, KernelTier); 4] = [
    ("ir.search.blockmax", KernelTier::BlockMax),
    ("ir.search.maxscore", KernelTier::MaxScore),
    ("ir.search.exhaustive", KernelTier::Exhaustive),
    ("ir.search.compressed", KernelTier::BlockMax),
];

pub struct IrLayers<'a> {
    flat: &'a ShardedIndex,
    /// The same content under the delta+varint codec.
    compressed: &'a ShardedIndex,
    scoring: ScoringFunction,
    /// The analysed terms of the current operation.
    pub terms: Vec<String>,
    scratch: ScoreScratch,
    /// Postings visited and queries run, per entry of `KERNELS`.
    visited: [u64; 4],
    queries: [u64; 4],
    blocks_skipped: u64,
    blocks_scored: u64,
}

impl<'a> IrLayers<'a> {
    pub fn new(flat: &'a ShardedIndex, compressed: &'a ShardedIndex) -> Self {
        IrLayers {
            flat,
            compressed,
            scoring: ScoringFunction::default(),
            terms: Vec::new(),
            scratch: ScoreScratch::new(),
            visited: [0; 4],
            queries: [0; 4],
            blocks_skipped: 0,
            blocks_scored: 0,
        }
    }

    /// `Analyzer::tokenize_into`; leaves the terms for the calls below.
    pub fn analysis(&mut self, t: &mut Tracer, op: u32, parent: u32, query: &str) {
        let (flat, terms) = (self.flat, &mut self.terms);
        t.leaf("ir.analysis", op, parent, || {
            flat.analyzer().tokenize_into(query, terms)
        });
    }

    /// `ShardedIndex::term_stats` for every term, as the sharded search does
    /// before it scores.
    pub fn term_stats(&mut self, t: &mut Tracer, op: u32, parent: u32) {
        t.leaf("ir.shard.term_stats", op, parent, || {
            for term in &self.terms {
                black_box(self.flat.term_stats(term));
            }
        });
    }

    /// `ShardedSearcher::try_search_terms_where_ctx`, unfiltered.
    pub fn shard(
        &mut self,
        t: &mut Tracer,
        op: u32,
        parent: u32,
        k: usize,
        ctx: &SearchContext,
    ) -> Result<SearchOutcome, SearchFailure> {
        let searcher = ShardedSearcher::new(self.flat, self.scoring);
        t.leaf("ir.shard", op, parent, || {
            searcher.try_search_terms_where_ctx(&self.terms, k, None, ctx)
        })
    }

    /// One kernel tier over every shard in turn, on the calling thread, with
    /// the scratch counters read before and after.
    pub fn kernel(&mut self, t: &mut Tracer, op: u32, parent: u32, k: usize) {
        let which = op as usize % KERNELS.len();
        let (name, tier) = KERNELS[which];
        let index = if which == 3 {
            self.compressed
        } else {
            self.flat
        };
        let before = (
            self.scratch.postings_visited(),
            self.scratch.blocks_skipped(),
            self.scratch.blocks_scored(),
        );
        t.leaf(name, op, parent, || {
            for shard in index.shards() {
                let searcher = Searcher::new(shard, self.scoring).with_tier(tier);
                black_box(searcher.search_terms_with(&self.terms, k, &mut self.scratch));
            }
        });
        self.visited[which] += self.scratch.postings_visited() - before.0;
        self.queries[which] += 1;
        if which == 0 {
            self.blocks_skipped += self.scratch.blocks_skipped() - before.1;
            self.blocks_scored += self.scratch.blocks_scored() - before.2;
        }
    }

    /// Per-layer metrics of everything recorded through this struct.
    pub fn report(&self, spans: &[Span], out: &mut Outcome) {
        report_spans(
            spans,
            &["ir.analysis", "ir.shard", "ir.shard.term_stats"],
            out,
        );
        report_spans(spans, &KERNELS.map(|(name, _)| name), out);
        let per_query =
            |which: usize| self.visited[which] as f64 / self.queries[which].max(1) as f64;
        out.set("ir.search.postings_visited.blockmax", per_query(0));
        out.set("ir.search.postings_visited.maxscore", per_query(1));
        out.set("ir.search.postings_visited.exhaustive", per_query(2));
        let blockmax_queries = self.queries[0].max(1) as f64;
        out.set(
            "ir.search.blocks_skipped",
            self.blocks_skipped as f64 / blockmax_queries,
        );
        out.set(
            "ir.search.blocks_scored",
            self.blocks_scored as f64 / blockmax_queries,
        );
        let blocks = (self.blocks_skipped + self.blocks_scored).max(1) as f64;
        out.set(
            "ir.search.block_skip_ratio",
            self.blocks_skipped as f64 / blocks,
        );
    }
}

/// Executor, dispatch and shard-balance metrics of a traced stretch, from
/// counter readings taken before and after it.
pub struct ExecReading {
    pub exec: ExecutorStats,
    /// `(inline, dispatched)` decisions.
    pub decisions: (u64, u64),
    pub shard_nanos: Vec<u64>,
}

pub fn report_exec(before: &ExecReading, after: &ExecReading, out: &mut Outcome) {
    let dequeued = after.exec.dequeued - before.exec.dequeued;
    let wait_ns = after.exec.queue_wait_nanos - before.exec.queue_wait_nanos;
    out.set(
        "ir.exec.tasks_enqueued",
        (after.exec.enqueued - before.exec.enqueued) as f64,
    );
    out.set(
        "ir.exec.tasks_overflowed",
        (after.exec.overflowed - before.exec.overflowed) as f64,
    );
    out.set(
        "ir.exec.queue_wait_mean_us",
        wait_ns as f64 / 1e3 / dequeued.max(1) as f64,
    );
    out.set("ir.exec.max_queue_depth", after.exec.max_queue_depth as f64);
    let inline = after.decisions.0 - before.decisions.0;
    let dispatched = after.decisions.1 - before.decisions.1;
    out.set(
        "ir.exec.inline_frac",
        inline as f64 / (inline + dispatched).max(1) as f64,
    );
    // Largest over mean of the per-shard scoring times: 1.0 is perfectly even.
    let nanos: Vec<f64> = after
        .shard_nanos
        .iter()
        .zip(&before.shard_nanos)
        .map(|(after, before)| (after - before) as f64)
        .collect();
    let mean = nanos.iter().sum::<f64>() / nanos.len().max(1) as f64;
    if mean > 0.0 {
        out.set(
            "ir.shard.scoring_imbalance",
            nanos.iter().copied().fold(0.0, f64::max) / mean,
        );
    }
}

/// The traced pass's own metrics. `served` are the spans of the operation a
/// caller sees (compared with the untraced median for the tracing overhead);
/// `parts` are replays of steps that happen inside the `whole` spans, so per
/// operation they should not add up to more than those.
pub fn report_driver(
    spans: &[Span],
    served: &[&str],
    whole: &[&str],
    parts: &[&str],
    untraced_p50_us: f64,
    out: &mut Outcome,
) {
    #[derive(Default, Clone, Copy)]
    struct PerOp {
        served: u64,
        whole: u64,
        parts: u64,
    }
    let mut per_op: HashMap<u32, PerOp> = HashMap::new();
    for s in spans {
        let entry = per_op.entry(s.op).or_default();
        for (names, sum) in [
            (served, &mut entry.served),
            (whole, &mut entry.whole),
            (parts, &mut entry.parts),
        ] {
            if names.contains(&s.name) {
                *sum += s.nanos();
            }
        }
    }
    // Operations without an engine call (clicks) are not judged.
    let queries: Vec<PerOp> = per_op.into_values().filter(|o| o.served > 0).collect();
    let within = queries.iter().filter(|o| o.parts <= o.whole).count();
    out.set(
        "driver.replay_within_engine_frac",
        within as f64 / queries.len().max(1) as f64,
    );
    let mut served_us: Vec<f64> = queries.iter().map(|o| o.served as f64 / 1e3).collect();
    if !served_us.is_empty() && untraced_p50_us > 0.0 {
        out.set(
            "driver.trace_overhead_frac",
            median(&mut served_us) / untraced_p50_us - 1.0,
        );
    }
    out.set("driver.op.us", median_us(spans, "driver.op"));
    let own = self_times(spans);
    let mut root_self_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "driver.op")
        .map(|s| own[&s.id] as f64 / 1e3)
        .collect();
    if !root_self_us.is_empty() {
        out.set("driver.op.self_us", median(&mut root_self_us));
    }
}

/// Median duration of the spans called `name`, 0 if there are none.
pub fn median_us(spans: &[Span], name: &str) -> f64 {
    let mut us = durations_us(spans, name);
    if us.is_empty() {
        0.0
    } else {
        median(&mut us)
    }
}

/// Report each named span's median duration under its `<span>.us` metric.
pub fn report_spans(spans: &[Span], names: &[&'static str], out: &mut Outcome) {
    for span in names {
        let metric = crate::report::PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_suffix(".us") == Some(span))
            .unwrap_or_else(|| panic!("no per-layer metric for span {span}"));
        out.set(metric, median_us(spans, span));
    }
}
