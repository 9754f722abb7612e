//! `qunit-perf`: the repo benchmark. One process runs one workload, either
//! untraced (end-to-end metrics) or traced (per-layer metrics), and prints
//! the result as the last line of its standard output. See `README.md`.

mod check;
mod corpus;
mod imdb;
mod layers;
mod load;
mod report;
mod stats;
mod trace;

use load::Limit;
use std::path::{Path, PathBuf};

/// Sizes of one run. `--smoke` shrinks everything so the harness itself can
/// be exercised in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// IMDb size as a multiple of `ImdbConfig::default()` (1000 movies).
    pub imdb_factor: usize,
    /// `CorpusConfig::at_scale` factor (20 000 documents each).
    pub corpus_factor: usize,
    /// Records in the IMDb query log of the closed-loop workloads.
    pub log_queries: usize,
    /// Untimed operations before the timed section.
    pub warmup_ops: usize,
    /// Distinct queries re-answered by the reference after the run.
    pub check_queries: usize,
    /// Set-ups per run on the IMDb workloads and on the corpus: `setup_s` is
    /// their median, `build_s` and `restart_s` the fastest among them.
    pub imdb_setups: usize,
    pub corpus_setups: usize,
}

const FULL: Scale = Scale {
    imdb_factor: 4,
    corpus_factor: 10,
    log_queries: 80_000,
    warmup_ops: 2_000,
    check_queries: 500,
    imdb_setups: 5,
    corpus_setups: 3,
};

const SMOKE: Scale = Scale {
    imdb_factor: 1,
    corpus_factor: 1,
    log_queries: 8_000,
    warmup_ops: 200,
    check_queries: 100,
    imdb_setups: 1,
    corpus_setups: 1,
};

/// Operations per section under `--smoke` unless `--ops` says otherwise.
const SMOKE_OPS: usize = 1_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub limit: Limit,
    pub traced: bool,
    pub scale: Scale,
    pub out: PathBuf,
}

impl Args {
    /// An independent seed for each generator and client, all derived from
    /// `--seed`: the program under test only ever sees generated inputs.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        // SplitMix64 finalizer over (seed, stream).
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const USAGE: &str = "usage: qunit-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--ops N] [--smoke] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut ops, mut smoke) =
        (42u64, 15.0f64, false, None, false);
    let mut out = PathBuf::from("perf/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--ops" => ops = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--out" => out = PathBuf::from(value),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            report::WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    if ops == Some(0) {
        return Err("--ops must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        limit: Limit {
            seconds,
            ops: ops.or(smoke.then_some(SMOKE_OPS)),
        },
        traced,
        scale: if smoke { SMOKE } else { FULL },
        out,
    })
}

/// Scratch files (snapshots) of this process; removed when the run ends.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create(out: &Path, workload: &str) -> std::io::Result<TmpDir> {
        let dir = out.join(format!("tmp-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("qunit-perf: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let tmp = TmpDir::create(&args.out, &args.workload).expect("create the output directory");
    let (outcome, spans) = match args.workload.as_str() {
        "corpus_scale" => corpus::run(&args, &tmp.0),
        name => imdb::run(imdb::Kind::from_name(name), &args, &tmp.0),
    };
    drop(tmp);

    let (w, kind) = (
        &args.workload,
        if args.traced { "layers" } else { "result" },
    );
    report::print_metrics(&outcome, args.traced);
    report::write_result_file(&args.out.join(format!("{kind}-{w}.json")), &args, &outcome)
        .expect("write the result file");
    if let Some(spans) = spans {
        std::fs::write(
            args.out.join(format!("trace-{w}.json")),
            trace::to_json(&spans),
        )
        .expect("write the trace file");
    }
    println!("{}", report::result_line(&outcome, args.traced));
}
