//! Order statistics over latency samples.

use std::time::Instant;

/// Linear-interpolation quantile of ascending `sorted` (the definition the
/// older `crates/bench` harnesses use, so numbers stay comparable).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort in place, ascending. Latencies are finite by construction.
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of an unsorted sample (sorts it).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile(values, 0.5)
}

/// Smallest of a sample. For one deterministic piece of work repeated a few
/// times (a build, a snapshot load) interference only ever adds time, so the
/// fastest repeat is the steadiest estimate of what the work costs.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Time `f` and push the seconds onto `sink`.
pub fn timed<R>(sink: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    sink.push(start.elapsed().as_secs_f64());
    out
}

/// How many equal stretches of time a timed section is cut into.
const SLICES: usize = 5;

/// Cut (completion time in ns since the section began, value) points into
/// `SLICES` equal stretches of time; also returns a stretch's length in seconds.
fn stretches<T>(points: impl Iterator<Item = (u64, T)>) -> (Vec<Vec<T>>, f64) {
    let points: Vec<(u64, T)> = points.collect();
    let end = points.iter().map(|p| p.0).max().unwrap_or(0) + 1;
    let mut cut: Vec<Vec<T>> = (0..SLICES).map(|_| Vec::new()).collect();
    for (done, value) in points {
        cut[(done as u128 * SLICES as u128 / end as u128) as usize].push(value);
    }
    (cut, end as f64 / 1e9 / SLICES as f64)
}

/// Operations per second in the busiest stretch of a timed section, from the
/// operations' completion times. The counterpart of `Latency::quietest`.
pub fn busiest_rate(done_ns: impl Iterator<Item = u64>) -> f64 {
    let (cut, stretch_s) = stretches(done_ns.map(|done| (done, ())));
    cut.iter().map(Vec::len).max().unwrap_or(0) as f64 / stretch_s
}

/// p50 / p99 of a latency sample in microseconds, with the sample count
/// behind them so a reader can tell how many samples lie beyond the p99.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

impl Latency {
    pub fn from_nanos(nanos: impl Iterator<Item = u64>) -> Latency {
        let mut us: Vec<f64> = nanos.map(|n| n as f64 / 1e3).collect();
        sort(&mut us);
        Latency {
            p50_us: quantile(&us, 0.50),
            p99_us: quantile(&us, 0.99),
            samples: us.len(),
        }
    }

    /// The lowest p50 and the lowest p99 among the stretches of a timed
    /// section. The machine this runs on is shared: for seconds at a time
    /// something else takes a third of the processor, and now and then it
    /// stalls for tens of milliseconds, which in an open loop delays every
    /// arrival queued behind the stall. Interference only ever adds latency,
    /// so the quietest stretch is the steadiest estimate of what the program
    /// costs. It would hide stalls the program itself caused periodically
    /// (background work); today it has none. `points` are (completion time
    /// since the section began, latency), both in nanoseconds.
    pub fn quietest(points: impl Iterator<Item = (u64, u64)>) -> Latency {
        let each: Vec<Latency> = stretches(points)
            .0
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| Latency::from_nanos(s.into_iter()))
            .collect();
        Latency {
            p50_us: fastest(&each.iter().map(|l| l.p50_us).collect::<Vec<_>>()),
            p99_us: fastest(&each.iter().map(|l| l.p99_us).collect::<Vec<_>>()),
            samples: each.iter().map(|l| l.samples).sum(),
        }
    }

    /// Samples beyond the p99 position of one stretch.
    pub fn beyond_p99(&self) -> usize {
        self.samples / SLICES / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        // 0.9 * 4 = 3.6 → 40 + 0.6 * (50 - 40)
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_converts_nanos_and_counts_the_tail() {
        let l = Latency::from_nanos((1..=1000u64).map(|i| i * 1000));
        assert!((l.p50_us - 500.5).abs() < 1e-9);
        assert!((l.p99_us - 990.01).abs() < 1e-9);
        assert_eq!((l.samples, l.beyond_p99()), (1000, 2));
    }

    #[test]
    fn busiest_rate_ignores_a_stall() {
        // 1 op per ms for 1 s, except nothing completes from 400 to 600 ms.
        let done = (0..1000u64)
            .filter(|i| !(400..600).contains(i))
            .map(|i| i * 1_000_000);
        let rate = busiest_rate(done);
        assert!((rate - 1000.0).abs() < 2.0, "{rate}");
    }

    #[test]
    fn quietest_stretch_ignores_stalls_elsewhere() {
        // 1000 operations, one per microsecond: 100 us each, but 5 ms in the
        // first two stretches and 50 ms for a hundred in the middle of the third.
        let latency = |i: u64| match i {
            0..=399 => 5_000_000,
            450..=549 => 50_000_000,
            _ => 100_000,
        };
        let points = (0..1000u64).map(|i| (i * 1_000, latency(i)));
        let l = Latency::quietest(points.clone());
        assert_eq!((l.p50_us, l.p99_us, l.samples), (100.0, 100.0, 1000));
        assert_eq!(Latency::from_nanos(points.map(|p| p.1)).p99_us, 50_000.0);
    }
}
