//! Load generation: closed loops (each client sends its next operation when
//! the previous one completes) and one open loop (operations fire on a
//! timetable whether or not earlier ones have finished).

use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the query in the workload's query table.
    pub query: u32,
    pub latency_ns: u64,
    /// When the operation completed, since the timed section began (filled
    /// in by the loops).
    pub done_ns: u64,
    /// Fingerprint of the answer (0 for operations without one).
    pub fingerprint: u64,
    /// The call returned a full, non-degraded answer.
    pub ok: bool,
    pub kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Click,
}

/// When a timed section ends: after `seconds`, or after `ops` operations in
/// total if that comes first. A fixed `ops` makes every count repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub seconds: f64,
    pub ops: Option<usize>,
}

impl Limit {
    /// The same limit scaled down, for a shorter section of the same run.
    pub fn fraction(&self, f: f64) -> Limit {
        Limit {
            seconds: self.seconds * f,
            ops: self.ops.map(|n| ((n as f64 * f) as usize).max(1)),
        }
    }
}

pub struct Timed {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

/// Closed loop: `clients` threads, each running the operation closure that
/// `make_client(client)` builds (so a client can own mutable state). The
/// closure gets the client's operation counter and times its own call, so
/// choosing the query and fingerprinting the answer stay outside the latency.
pub fn closed_loop<M, C>(clients: usize, limit: Limit, make_client: M) -> Timed
where
    M: Fn(usize) -> C + Sync,
    C: FnMut(usize) -> Sample,
{
    let per_client = limit.ops.map_or(usize::MAX, |n| n.div_ceil(clients));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(limit.seconds);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let make_client = &make_client;
                scope.spawn(move || {
                    let mut op = make_client(client);
                    let mut mine = Vec::new();
                    for i in 0..per_client {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let mut sample = op(i);
                        sample.done_ns = start.elapsed().as_nanos() as u64;
                        mine.push(sample);
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            samples.extend(h.join().expect("client thread panicked"));
        }
    });
    Timed {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The traced pass's loop: one client on the calling thread, each operation
/// handed the tracer and its operation number. Returns the operations run.
pub fn traced_loop(limit: Limit, tracer: &mut Tracer, mut op: impl FnMut(&mut Tracer, u32)) -> u64 {
    let deadline = Instant::now() + Duration::from_secs_f64(limit.seconds);
    let max_ops = limit.ops.unwrap_or(usize::MAX) as u64;
    let mut done = 0u64;
    while done < max_ops && Instant::now() < deadline {
        op(tracer, done as u32);
        done += 1;
    }
    done
}

/// One operation of the open loop: the sample (latency counted from the due
/// time) and when the operation actually started.
pub struct Fired {
    pub sample: Sample,
    pub started: Duration,
}

/// Below this gap a firing thread spins for the due time instead of
/// sleeping, which at the rates used here is nearly always. A thread woken
/// from sleep starts tens of microseconds late on a cold core, and that
/// wake-up cost, not the engine, would then be most of a cache hit's measured
/// latency and most of its run-to-run variation.
const SPIN_BELOW: Duration = Duration::from_millis(2);

/// Open loop: `threads` firing threads share the timetable through one
/// cursor. A thread that finds its arrival already due fires at once, and
/// the wait shows in that arrival's latency. `op(i)` returns (fingerprint, ok).
pub fn open_loop<F>(due: &[Duration], threads: usize, op: F) -> (Vec<Fired>, f64)
where
    F: Fn(usize) -> (u64, bool) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut fired = Vec::with_capacity(due.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&due_at) = due.get(i) else { break };
                        loop {
                            let now = start.elapsed();
                            if now >= due_at {
                                break;
                            }
                            let gap = due_at - now;
                            if gap > SPIN_BELOW {
                                std::thread::sleep(gap - SPIN_BELOW);
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let started = start.elapsed();
                        let (fingerprint, ok) = op(i);
                        let done = start.elapsed();
                        mine.push(Fired {
                            sample: Sample {
                                query: i as u32,
                                latency_ns: since_due(due_at, done),
                                done_ns: done.as_nanos() as u64,
                                fingerprint,
                                ok,
                                kind: Kind::Query,
                            },
                            started,
                        });
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            fired.extend(h.join().expect("firing thread panicked"));
        }
    });
    (fired, start.elapsed().as_secs_f64())
}

/// Nanoseconds from an arrival's due time to `now` (0 if `now` is earlier:
/// an operation cannot start before it is due).
pub fn since_due(due: Duration, now: Duration) -> u64 {
    now.saturating_sub(due).as_nanos() as u64
}

/// Arrivals that started more than `limit` after they were due. A short wait
/// for a free firing thread is ordinary queueing and is already part of the
/// arrival's latency; a wait this long means the system fell behind the
/// timetable, and the arrival counts as failed.
pub fn overdue(fired: &[Fired], due: &[Duration], limit: Duration) -> usize {
    fired
        .iter()
        .filter(|f| f.started.saturating_sub(due[f.sample.query as usize]) > limit)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn fired(i: u32, started: Duration) -> Fired {
        Fired {
            sample: Sample {
                query: i,
                latency_ns: 0,
                done_ns: 0,
                fingerprint: 0,
                ok: true,
                kind: Kind::Query,
            },
            started,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_start() {
        // Due at 10 ms, started late at 14 ms, done at 15 ms: the 4 ms the
        // arrival waited for a free thread is part of what its user saw.
        assert_eq!(since_due(10 * MS, 15 * MS), 5_000_000);
        assert_eq!(since_due(10 * MS, 14 * MS), 4_000_000);
        assert_eq!(since_due(10 * MS, 9 * MS), 0);
    }

    #[test]
    fn overdue_counts_arrivals_that_waited_past_the_limit() {
        let due = [MS, 2 * MS, 3 * MS, 4 * MS];
        let fired = [
            fired(0, MS),
            fired(1, 5 * MS),
            fired(2, 9 * MS),
            fired(3, 4 * MS),
        ];
        // Waits of 0, 3, 6 and 0 ms.
        assert_eq!(overdue(&fired, &due, 2 * MS), 2);
        assert_eq!(overdue(&fired, &due, 3 * MS), 1);
        assert_eq!(overdue(&fired, &due, 6 * MS), 0);
    }

    #[test]
    fn closed_loop_stops_at_the_op_limit_and_keeps_client_state() {
        let limit = Limit {
            seconds: 60.0,
            ops: Some(10),
        };
        let timed = closed_loop(2, limit, |client| {
            let mut seen = 0u64;
            move |i| {
                seen += 1;
                Sample {
                    query: (client * 100 + i) as u32,
                    latency_ns: seen,
                    done_ns: 0,
                    fingerprint: 0,
                    ok: true,
                    kind: Kind::Query,
                }
            }
        });
        assert_eq!(timed.samples.len(), 10);
        let last = timed.samples.iter().map(|s| s.latency_ns).max();
        assert_eq!(last, Some(5));
        assert_eq!(limit.fraction(0.25).ops, Some(2));
    }

    #[test]
    fn open_loop_fires_every_arrival_once_and_never_early() {
        let due: Vec<Duration> = (1..=20).map(|i| i * MS / 4).collect();
        let (fired, _) = open_loop(&due, 2, |i| (i as u64, true));
        let mut seen: Vec<u32> = fired.iter().map(|f| f.sample.query).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u32>>());
        assert!(fired
            .iter()
            .all(|f| f.started >= due[f.sample.query as usize]));
    }
}
