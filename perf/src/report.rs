//! Metric names and units (the same lists as `BENCHMARK.json`), and how a
//! run's outcome is printed and written.

use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;

pub const WORKLOADS: &[&str] = &[
    "imdb_uncached",
    "imdb_zipf_serve",
    "imdb_click_mix",
    "corpus_scale",
];

/// What a user of the system sees. Every workload reports every one, from
/// the untraced pass.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("throughput_qps", "1/s"),
    ("build_s", "s"),
    ("restart_s", "s"),
    ("index_bytes_per_posting", "B"),
    ("snapshot_bytes_per_doc", "B"),
    ("peak_rss_mb", "MB"),
    ("result_quality", "score"),
];

/// Single layers, from the traced pass. A layer a workload does not exercise
/// reports 0 (no `core.*` work happens on `corpus_scale`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.segment.us", "us"),
    ("core.engine.type_scores.us", "us"),
    ("core.engine.uncached.us", "us"),
    ("core.engine.rest.us", "us"),
    ("core.cache.get.us", "us"),
    ("core.cache.insert.us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.entries", "count"),
    ("core.feedback.record_click.us", "us"),
    ("core.feedback.generation", "count"),
    ("core.materialize.s", "s"),
    ("core.materialize.instances", "count"),
    ("core.derive.schema_data_s", "s"),
    ("core.derive.querylog_s", "s"),
    ("core.derive.evidence_s", "s"),
    ("ir.analysis.us", "us"),
    ("ir.shard.us", "us"),
    ("ir.shard.term_stats.us", "us"),
    ("ir.shard.scoring_imbalance", "ratio"),
    ("ir.search.blockmax.us", "us"),
    ("ir.search.maxscore.us", "us"),
    ("ir.search.exhaustive.us", "us"),
    ("ir.search.compressed.us", "us"),
    ("ir.search.postings_visited.blockmax", "count"),
    ("ir.search.postings_visited.maxscore", "count"),
    ("ir.search.postings_visited.exhaustive", "count"),
    ("ir.search.blocks_skipped", "count"),
    ("ir.search.blocks_scored", "count"),
    ("ir.search.block_skip_ratio", "ratio"),
    ("ir.exec.inline_frac", "ratio"),
    ("ir.exec.tasks_enqueued", "count"),
    ("ir.exec.tasks_overflowed", "count"),
    ("ir.exec.queue_wait_mean_us", "us"),
    ("ir.exec.max_queue_depth", "count"),
    ("ir.index.add_s", "s"),
    ("ir.index.freeze_s", "s"),
    ("ir.index.compress_s", "s"),
    ("ir.snapshot.save_s", "s"),
    ("ir.snapshot.load_s", "s"),
    ("ir.snapshot.bytes", "B"),
    ("datagen.imdb_s", "s"),
    ("datagen.querylog_s", "s"),
    ("datagen.corpus_s", "s"),
    ("driver.op.us", "us"),
    ("driver.op.self_us", "us"),
    ("driver.replay_within_engine_frac", "ratio"),
    ("driver.trace_overhead_frac", "ratio"),
];

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Diagnostics for the result file and the log, outside the contract's
    /// metric lists (sample counts, open-loop lateness, hit ratio, ...).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.extra.insert(name, value);
    }

    pub fn check(&mut self, name: &'static str, held: bool) {
        self.checks.push((name, held));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|&(_, held)| held)
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric_objects(values: &BTreeMap<&'static str, f64>, list: &[(&str, &str)]) -> String {
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with every metric of the pass's list.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    if !traced {
        for (name, _) in list {
            assert!(
                outcome.metrics.get(name).is_some_and(|v| *v > 0.0),
                "end-to-end metric {name} missing or zero"
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metric_objects(&outcome.metrics, list)
    )
}

/// One line per metric, name first, for a human reading the log.
pub fn print_metrics(outcome: &Outcome, traced: bool) {
    let list = if traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in list {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for (name, value) in &outcome.extra {
        println!("  ({name:<37} {value:>16.4})");
    }
    for (name, held) in &outcome.checks {
        println!("check {name:<34} {}", if *held { "ok" } else { "FAILED" });
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `result-<workload>.json` / `layers-<workload>.json`: the result line's
/// content plus where and how it was measured.
pub fn write_result_file(path: &Path, args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let (workload, seed, seconds, traced) =
        (&args.workload, args.seed, args.limit.seconds, args.traced);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, held)| format!("\"{name}\": {held}"))
        .collect();
    let extra: Vec<String> = outcome
        .extra
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let list = if traced { PER_LAYER } else { END_TO_END };
    let body = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"traced\": {traced},\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"available_parallelism\": {threads},\n  \"rustc\": \"{}\",\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"checks\": {{{}}},\n  \
         \"extra\": {{{}}},\n  \"metrics\": {}\n}}\n",
        rustc_version(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        checks.join(", "),
        extra.join(", "),
        metric_objects(&outcome.metrics, list),
    );
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these lists are what the
    /// program prints. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let named = |name: &str| manifest.contains(&format!("\"name\": \"{name}\""));
        for w in WORKLOADS {
            assert!(named(w), "workload {w} missing from BENCHMARK.json");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "metric {name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let count = manifest.matches("\"name\": ").count();
        assert_eq!(count, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = result_line(&o, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.check("fingerprints", false);
        assert!(result_line(&o, true).starts_with("{\"correct\": false"));
    }
}
