//! Deterministic failpoint registry: named injection sites threaded into
//! the hot paths that can fail in production, each able to inject an
//! **error** or a **panic** on a reproducible schedule.
//!
//! Production code never fails on purpose — which means the containment
//! machinery around it (panic isolation in [`crate::ShardExecutor`], the
//! engine's `SearchError::Internal` path, snapshot quarantine) is exactly the code
//! that ships least tested. Failpoints make faults a *first-class, seeded
//! input*: a chaos test installs a schedule, runs real queries, and the
//! same schedule provokes the same faults at the same site hit ordinals
//! every run.
//!
//! # Zero cost when disarmed
//!
//! Every site compiles to one relaxed [`AtomicBool`] load and a predictable
//! not-taken branch when no schedule is installed — no lock, no allocation,
//! no counter traffic. The registry only exists behind that branch, so the
//! scoring kernel, the executor, and the snapshot codec pay nothing in
//! normal operation (`tests/kernel_counters.rs` holds the kernel's work
//! counters under a never-firing schedule equal to the disarmed run).
//!
//! # Schedule syntax
//!
//! A schedule is `;`-separated clauses, each `site=action@trigger`:
//!
//! - **site** — one of the [`site`] constants (e.g. `exec.task`).
//! - **action** — `error` (the site returns [`InjectedFault`], mapped to
//!   its native error type) or `panic` (the site panics with a payload
//!   naming the site).
//! - **trigger** — `#<n>` fires on the n-th hit of the site only
//!   (1-based), `%<p>` fires on every p-th hit, `*` (or omitted) fires on
//!   every hit.
//!
//! Example: `exec.task=panic@#3;snapshot.read=error@%2` panics the third
//! executor task and fails every second snapshot read.
//!
//! Hit counters are per-site and process-global, so a schedule is
//! deterministic in terms of site-hit ordinals: a single-threaded workload
//! replays exactly; a concurrent one provokes the same *set* of faults at
//! the same ordinals even though which query observes them may vary.
//!
//! The registry is process-global (sites are reached from deep kernel code
//! with no context parameter to spare on the hot path). [`install`]
//! replaces the whole schedule atomically; [`clear`] disarms every site.
//! Tests that install schedules must serialize with each other.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The named injection sites. Each constant is referenced by the schedule
/// syntax and embedded in injected panic payloads / error messages.
pub mod site {
    /// Snapshot file read ([`crate::ShardedIndex::load_snapshot`]): fires
    /// before the header is parsed; `error` surfaces as a transient
    /// `SnapshotError::Io`.
    pub const SNAPSHOT_READ: &str = "snapshot.read";
    /// Snapshot file write ([`crate::ShardedIndex::save_snapshot`]):
    /// checked once per section, on the thread that writes it, after the
    /// `.tmp` file is created and before the rename; `error` surfaces as
    /// `SnapshotError::Io` and removes the `.tmp`.
    pub const SNAPSHOT_WRITE: &str = "snapshot.write";
    /// Posting-block decode (compressed codec block expansion). The
    /// decode path is infallible, so `error` escalates to a panic.
    pub const POSTINGS_DECODE: &str = "postings.decode";
    /// Executor task body, evaluated on the executing worker/helper just
    /// before the job runs. `error` escalates to a panic (a task has no
    /// error channel); the panic is caught by the task's `catch_unwind`.
    pub const EXEC_TASK: &str = "exec.task";

    /// Every site name, for validation and docs.
    pub const ALL: &[&str] = &[SNAPSHOT_READ, SNAPSHOT_WRITE, POSTINGS_DECODE, EXEC_TASK];
}

/// An `error`-action failpoint fired. Sites map this into their native
/// error type (`SnapshotError::Io`, …); sites with no
/// error channel escalate it to a panic via [`check_infallible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Error,
    Panic,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Fire on the n-th hit only (1-based).
    Nth(u64),
    /// Fire on every p-th hit (hit % p == 0).
    Every(u64),
    /// Fire on every hit.
    Always,
}

impl Trigger {
    fn fires(self, hit: u64) -> bool {
        match self {
            Trigger::Nth(n) => hit == n,
            Trigger::Every(p) => hit.is_multiple_of(p),
            Trigger::Always => true,
        }
    }
}

#[derive(Debug)]
struct Clause {
    action: Action,
    trigger: Trigger,
}

#[derive(Debug)]
struct SiteState {
    site: &'static str,
    /// Total evaluations of this site while the schedule was armed.
    hits: AtomicU64,
    /// Total clause firings at this site.
    fired: AtomicU64,
    clauses: Vec<Clause>,
}

#[derive(Debug, Default)]
struct Schedule {
    sites: Vec<SiteState>,
}

/// One relaxed load on every site evaluation — the entire disarmed cost.
static ARMED: AtomicBool = AtomicBool::new(false);
static SCHEDULE: Mutex<Option<std::sync::Arc<Schedule>>> = Mutex::new(None);

fn canonical_site(name: &str) -> Option<&'static str> {
    site::ALL.iter().copied().find(|s| *s == name)
}

fn parse(spec: &str) -> Result<Schedule, String> {
    let mut schedule = Schedule::default();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (site_name, rest) = clause.split_once('=').ok_or_else(|| {
            format!("fault clause {clause:?} is missing '=' (site=action@trigger)")
        })?;
        let site = canonical_site(site_name.trim()).ok_or_else(|| {
            format!(
                "unknown fault site {:?} (known: {:?})",
                site_name.trim(),
                site::ALL
            )
        })?;
        let (action_str, trigger_str) = match rest.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rest.trim(), None),
        };
        let action = if action_str == "error" {
            Action::Error
        } else if action_str == "panic" {
            Action::Panic
        } else {
            return Err(format!(
                "unknown fault action {action_str:?} (want error | panic)"
            ));
        };
        let trigger = match trigger_str {
            None | Some("*") => Trigger::Always,
            Some(t) => {
                if let Some(n) = t.strip_prefix('#') {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("fault trigger {t:?}: #<n> needs an integer"))?;
                    if n == 0 {
                        return Err("fault trigger #0 never fires (hits are 1-based)".into());
                    }
                    Trigger::Nth(n)
                } else if let Some(p) = t.strip_prefix('%') {
                    let p: u64 = p
                        .parse()
                        .map_err(|_| format!("fault trigger {t:?}: %<p> needs an integer"))?;
                    if p == 0 {
                        return Err("fault trigger %0 would divide by zero".into());
                    }
                    Trigger::Every(p)
                } else {
                    return Err(format!(
                        "unknown fault trigger {t:?} (want #<n> | %<p> | *)"
                    ));
                }
            }
        };
        let clause = Clause { action, trigger };
        match schedule.sites.iter_mut().find(|s| s.site == site) {
            Some(state) => state.clauses.push(clause),
            None => schedule.sites.push(SiteState {
                site,
                hits: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                clauses: vec![clause],
            }),
        }
    }
    Ok(schedule)
}

/// Install a fault schedule (see the [module docs](self) for the syntax),
/// replacing any previous one and resetting all hit counters. An empty
/// spec disarms every site, exactly like [`clear`]. Returns a description
/// of the first malformed clause on parse failure (the previous schedule
/// stays installed).
pub fn install(spec: &str) -> Result<(), String> {
    let schedule = parse(spec)?;
    let armed = !schedule.sites.is_empty();
    let mut guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = armed.then(|| std::sync::Arc::new(schedule));
    ARMED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarm every failpoint and drop the schedule. Safe to call when nothing
/// is installed.
pub fn clear() {
    let mut guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
    ARMED.store(false, Ordering::Relaxed);
}

/// True iff a schedule is installed. The disarmed fast path of every site.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// `(hits, fired)` counters for a site under the current schedule, or
/// `(0, 0)` when the site has no clauses. Test/diagnostic API.
pub fn site_counters(site_name: &str) -> (u64, u64) {
    let guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
    match guard
        .as_ref()
        .and_then(|s| s.sites.iter().find(|st| st.site == site_name))
    {
        Some(st) => (
            st.hits.load(Ordering::Relaxed),
            st.fired.load(Ordering::Relaxed),
        ),
        None => (0, 0),
    }
}

/// Evaluate the failpoint at `site_name`. The disarmed path is one relaxed
/// atomic load. When armed: a matching `panic` clause panics with a
/// payload naming the site, and a matching `error` clause returns
/// `Err(InjectedFault)` for the caller to map into its native error type.
#[inline(always)]
pub fn check(site_name: &'static str) -> Result<(), InjectedFault> {
    if !armed() {
        return Ok(());
    }
    check_slow(site_name)
}

/// [`check`] for sites with no error channel: an `error` clause escalates
/// to the same site-tagged panic a `panic` clause raises, so every action
/// stays expressible at every site.
#[inline(always)]
pub fn check_infallible(site_name: &'static str) {
    if let Err(f) = check(site_name) {
        panic!("{f}");
    }
}

#[cold]
fn check_slow(site_name: &'static str) -> Result<(), InjectedFault> {
    let schedule = {
        let guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(s) => std::sync::Arc::clone(s),
            None => return Ok(()),
        }
    };
    let Some(state) = schedule.sites.iter().find(|s| s.site == site_name) else {
        return Ok(());
    };
    let hit = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
    for clause in &state.clauses {
        if !clause.trigger.fires(hit) {
            continue;
        }
        state.fired.fetch_add(1, Ordering::Relaxed);
        match clause.action {
            Action::Panic => panic!("{}", InjectedFault { site: site_name }),
            Action::Error => return Err(InjectedFault { site: site_name }),
        }
    }
    Ok(())
}

/// The registry is process-global; any in-crate test that installs a
/// schedule takes this lock so tests cannot interleave.
#[cfg(test)]
pub(crate) fn registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    fn exclusive() -> MutexGuard<'static, ()> {
        registry_test_lock()
    }

    #[test]
    fn disarmed_checks_are_free_and_ok() {
        let _g = exclusive();
        clear();
        assert!(!armed());
        assert_eq!(check(site::EXEC_TASK), Ok(()));
        check_infallible(site::POSTINGS_DECODE);
        assert_eq!(site_counters(site::EXEC_TASK), (0, 0));
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = exclusive();
        install("snapshot.read=error@#3").unwrap();
        assert_eq!(check(site::SNAPSHOT_READ), Ok(()));
        assert_eq!(check(site::SNAPSHOT_READ), Ok(()));
        assert_eq!(
            check(site::SNAPSHOT_READ),
            Err(InjectedFault {
                site: site::SNAPSHOT_READ
            })
        );
        assert_eq!(check(site::SNAPSHOT_READ), Ok(()));
        assert_eq!(site_counters(site::SNAPSHOT_READ), (4, 1));
        clear();
    }

    #[test]
    fn every_trigger_fires_periodically() {
        let _g = exclusive();
        install("snapshot.read=error@%2").unwrap();
        let fired: Vec<bool> = (0..6)
            .map(|_| check(site::SNAPSHOT_READ).is_err())
            .collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
        clear();
    }

    #[test]
    fn panic_action_carries_the_site_name() {
        let _g = exclusive();
        install("snapshot.read=panic@#1").unwrap();
        let payload = std::panic::catch_unwind(|| check(site::SNAPSHOT_READ)).unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("snapshot.read"), "{msg}");
        clear();
    }

    #[test]
    fn infallible_sites_escalate_error_to_panic() {
        let _g = exclusive();
        install("snapshot.write=error").unwrap();
        let payload =
            std::panic::catch_unwind(|| check_infallible(site::SNAPSHOT_WRITE)).unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("snapshot.write"), "{msg}");
        clear();
    }

    #[test]
    fn install_replaces_and_resets_counters() {
        let _g = exclusive();
        install("snapshot.read=error").unwrap();
        let _ = check(site::SNAPSHOT_READ);
        install("snapshot.read=error@#100").unwrap();
        assert_eq!(site_counters(site::SNAPSHOT_READ), (0, 0));
        assert_eq!(check(site::SNAPSHOT_READ), Ok(()));
        clear();
    }

    #[test]
    fn empty_spec_disarms() {
        let _g = exclusive();
        install("snapshot.read=error").unwrap();
        assert!(armed());
        install("").unwrap();
        assert!(!armed());
    }

    #[test]
    fn malformed_specs_are_rejected_verbosely() {
        let _g = exclusive();
        clear();
        for bad in [
            "exec.task",
            "nonsense.site=error",
            "exec.task=explode",
            "exec.task=delay:soon",
            "exec.task=error@!7",
            "exec.task=error@#0",
            "exec.task=error@%0",
        ] {
            let err = install(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
            assert!(!armed(), "failed install must not arm ({bad})");
        }
    }

    #[test]
    fn multiple_clauses_per_site_and_multiple_sites() {
        let _g = exclusive();
        install("snapshot.read=error@#1; snapshot.read=error@#3 ;snapshot.write=error@*").unwrap();
        assert!(check(site::SNAPSHOT_READ).is_err());
        assert!(check(site::SNAPSHOT_READ).is_ok());
        assert!(check(site::SNAPSHOT_READ).is_err());
        assert!(check(site::SNAPSHOT_WRITE).is_err());
        assert!(check(site::SNAPSHOT_WRITE).is_err());
        clear();
    }
}
