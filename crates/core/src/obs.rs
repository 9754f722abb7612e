//! Per-query observability: cheap counters, latency histograms, and an
//! engine-wide snapshot.
//!
//! The service-hardening contract for this module is *near-zero hot-path
//! cost*: every primitive is a relaxed atomic `fetch_add` — no allocation,
//! no locks, no formatting. The
//! engine threads one [`EngineObs`] through its query paths and exposes an
//! [`ObsSnapshot`] on demand; snapshotting is the only place values are
//! gathered, and it is allowed to allocate (one `Vec` for per-shard nanos).
//!
//! Counters are monotonic totals since engine build. Rates ("hits per
//! second") are the caller's job: snapshot twice and subtract — the engine
//! deliberately stores no timestamps or windows, because any windowing
//! policy baked in here would be wrong for somebody's dashboard.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// Thin wrapper over a relaxed [`AtomicU64`]: increments from any number of
/// query threads never contend beyond the cache-line, and reads are
/// tear-free single loads. Relaxed ordering is sufficient because counters
/// carry no cross-thread control flow — a snapshot is a statistical view,
/// not a synchronization point.
///
/// ```
/// use qunit_core::obs::Counter;
///
/// let served = Counter::new();
/// served.incr();
/// served.add(2);
/// assert_eq!(served.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in [`LatencyHistogram`]: bucket `i` counts samples
/// whose latency is in `[2^i, 2^(i+1))` nanoseconds, so 40 buckets span
/// sub-nanosecond to ~18 minutes — every query latency this engine can
/// plausibly produce.
pub const LATENCY_BUCKET_COUNT: usize = 40;

/// Fixed-bucket log₂ latency histogram with the same hot-path budget as
/// [`Counter`]: recording a sample is one relaxed `fetch_add` into a
/// bucket picked by bit arithmetic — no allocation, no locks, no floats.
///
/// Power-of-two buckets trade resolution for zero configuration: any
/// percentile read off the histogram is exact to within a factor of two,
/// which is the right fidelity for an in-engine signal (is p99 tens of
/// microseconds or tens of milliseconds?) — exact sample-level tails
/// remain the bench harness's job.
///
/// ```
/// use qunit_core::obs::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// h.record(900);      // bucket 9: [512, 1024) ns
/// h.record(1_000_000);
/// assert_eq!(h.snapshot().count(), 2);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKET_COUNT],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// New histogram with every bucket at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one sample of `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        // log₂ bucket: 0 ns lands in bucket 0, everything past the last
        // bucket clamps into it rather than being dropped.
        let idx = (63 - nanos.max(1).leading_zeros() as usize).min(LATENCY_BUCKET_COUNT - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Tear-free-enough copy of the buckets as plain data (each bucket is
    /// a single relaxed load; the histogram keeps counting concurrently).
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data view of a [`LatencyHistogram`], carried inside
/// [`ObsSnapshot`]. Quantiles are read as conservative upper bounds: the
/// reported value is the inclusive upper edge of the bucket containing the
/// requested rank, so `p99()` never understates the tail.
///
/// ```
/// use qunit_core::obs::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for _ in 0..99 {
///     h.record(700); // bucket [512, 1024)
/// }
/// h.record(3_000_000); // one slow outlier in [2^21, 2^22)
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 100);
/// assert_eq!(snap.p50(), 1023);
/// assert_eq!(snap.p99(), 1023);
/// assert!(snap.quantile(1.0) >= 3_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    /// Sample counts per log₂-nanosecond bucket (length
    /// [`LATENCY_BUCKET_COUNT`]; empty only for a default-constructed
    /// snapshot that never saw a histogram).
    pub buckets: Vec<u64>,
}

impl LatencySnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (inclusive, in nanoseconds) of the bucket holding the
    /// sample at rank `ceil(q × count)`; `0` when no samples were
    /// recorded. `q` is clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << (i + 1)) - 1;
            }
        }
        u64::MAX
    }

    /// Median latency upper bound in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency upper bound in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Point-in-time view of every observability signal the engine tracks.
///
/// Produced by `QunitSearchEngine::obs_snapshot`; all fields are
/// monotonic totals since build (snapshot twice and subtract for rates).
/// The struct is plain data — no atomics — so it can be compared, cloned,
/// and serialized by the caller however it likes.
///
/// ```
/// use qunit_core::obs::ObsSnapshot;
///
/// let mut s = ObsSnapshot::default();
/// s.queries = 4;
/// s.cache_hits = 3;
/// s.cache_misses = 1;
/// assert_eq!(s.cache_hit_rate(), 0.75);
/// assert_eq!(ObsSnapshot::default().cache_hit_rate(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Queries served through the cached search entry points (hit or miss,
    /// batch or single).
    pub queries: u64,
    /// Query-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Query-cache lookups that fell through to a full search.
    pub cache_misses: u64,
    /// Multi-shard queries scored inline on the calling thread.
    pub inline_queries: u64,
    /// Multi-shard queries fanned across the shard executor.
    pub dispatched_queries: u64,
    /// Queries that returned `SearchError::Internal` — a shard task
    /// panicked and the engine contained it at the query boundary instead
    /// of unwinding the caller.
    pub internal_errors: u64,
    /// Panics caught and contained without unwinding any caller or
    /// worker, for injected faults and organic panics alike: each shard
    /// whose scoring panicked counts one (a dispatched query that lost
    /// three shards counts three; the inline sweep stops at its first), a
    /// panic elsewhere in a query's pipeline counts one, and each
    /// `search_batch` chunk task lost to a panic counts one.
    pub panics_contained: u64,
    /// Errors the *infallible* entry points (`search`, `search_uncached`,
    /// `search_batch`) swallowed into an empty result list. Nonzero here
    /// with quiet error counters means callers are losing errors to the
    /// infallible API — switch them to `try_search`.
    pub degraded_to_empty: u64,
    /// Uncached queries whose typing was confident enough to restrict
    /// ranking to the identified definitions (the paper's "instances of
    /// the identified type"); the rest ranked every instance.
    pub typed_queries: u64,
    /// Typed queries whose restricted pass matched no instance and were
    /// ranked again over every definition — each one paid two fan-outs.
    pub typed_fallbacks: u64,
    /// Cumulative scoring nanoseconds per index shard (length =
    /// `num_shards`), from the dispatch path's [`irengine::ShardTimings`].
    pub per_shard_scoring_nanos: Vec<u64>,
    /// Shard tasks accepted into the executor's queues.
    pub tasks_enqueued: u64,
    /// Shard tasks a refused enqueue (the `exec.enqueue` failpoint) sent
    /// back to the submitting thread, which ran them itself.
    pub tasks_overflowed: u64,
    /// Shard tasks dequeued by pool workers or work-helping callers.
    pub tasks_dequeued: u64,
    /// Total nanoseconds admitted tasks spent waiting in the executor
    /// queue before a worker picked them up.
    pub queue_wait_nanos: u64,
    /// High-water mark of the executor queue depth (urgent + bulk).
    pub max_queue_depth: u64,
    /// Log₂-bucket histogram of full-pipeline latencies for every query
    /// counted in `queries` (cache hits, misses, and uncached runs alike),
    /// so p50/p99 are visible from inside the engine without an external
    /// harness.
    pub latency: LatencySnapshot,
}

impl ObsSnapshot {
    /// Fraction of cache lookups served from the cache, `0.0` when no
    /// lookups have happened yet.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The engine's live counter block: everything [`ObsSnapshot`] reports
/// that is not already owned by another subsystem (the query cache keeps
/// its own hit/miss atomics, the executor its queue stats, the sharded
/// searcher its per-shard nanos — the snapshot merges all four).
#[derive(Debug, Default)]
pub struct EngineObs {
    /// Queries served through the cached entry points.
    pub queries: Counter,
    /// Queries failed with `SearchError::Internal` (contained panics).
    pub internal_errors: Counter,
    /// Panics contained at the query boundary: one per panicked shard,
    /// pipeline or batch chunk.
    pub panics_contained: Counter,
    /// Errors swallowed into empty lists by the infallible entry points.
    pub degraded_to_empty: Counter,
    /// Uncached queries ranked under a definition restriction.
    pub typed_queries: Counter,
    /// Restricted passes that came back empty and reran unrestricted.
    pub typed_fallbacks: Counter,
    /// Full-pipeline latency per served query.
    pub latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn snapshot_rates_handle_zero_denominators() {
        let s = ObsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.latency.count(), 0);
        assert_eq!(s.latency.p50(), 0);
        assert_eq!(s.latency.p99(), 0);
    }

    #[test]
    fn histogram_buckets_by_log2_and_clamps_extremes() {
        let h = LatencyHistogram::new();
        h.record(0); // 0 ns clamps into bucket 0
        h.record(1);
        h.record((1 << 10) - 1); // top of bucket 9
        h.record(1 << 10); // bottom of bucket 10
        h.record(u64::MAX); // clamps into the last bucket
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[LATENCY_BUCKET_COUNT - 1], 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 13: [8192, 16384)
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 127);
        assert_eq!(s.quantile(0.90), 127);
        assert_eq!(s.p99(), 16_383);
        assert_eq!(s.quantile(0.0), 127, "q=0 still names the first sample");
    }

    #[test]
    fn histogram_accumulates_across_threads() {
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 8000);
    }
}
