//! Fault injection for the serve stack: a [`FaultInjector`] shim the
//! store and worker layers consult before touching the real filesystem.
//!
//! Chaos testing a daemon is only useful when the faults are the ones
//! production actually sees: a disk that fills mid-journal (`ENOSPC`),
//! a commit rename that fails, a spec sidecar write that dies, a disk
//! read that crawls. The injector models each as a **bounded budget** —
//! "the next N journal appends fail" — so a test (or the `ci.sh` chaos
//! smoke, via `MLC_SERVE_CHAOS`) can arrange a transient outage and
//! then assert the system *heals*: typed, retryable errors while the
//! fault is armed, byte-identical results once it clears.
//!
//! The injector is shared (`Arc`) between the server, the store, and
//! the test driving them, so a live test can re-arm or clear faults
//! without restarting anything. A default-constructed injector is
//! inert: every check is one relaxed atomic load of zero.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared fault-injection plan with bounded fault budgets. See the
/// module docs.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Remaining journal row appends that fail with `ENOSPC`.
    journal_enospc: AtomicU64,
    /// Remaining job-spec sidecar writes that fail with `ENOSPC`.
    spec_enospc: AtomicU64,
    /// Remaining cache-commit renames that fail (a torn rename: the
    /// journal stays in the spool, resumable).
    commit_fail: AtomicU64,
    /// Milliseconds every disk-tier load is delayed (slow disk).
    load_delay_ms: AtomicU64,
    /// Total faults fired so far, for assertions and stats.
    injected: AtomicU64,
}

impl FaultInjector {
    /// An inert injector (every budget zero).
    pub fn none() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// Parses a comma-separated fault spec, e.g.
    /// `journal-enospc=4,commit-fail=1,spec-enospc=2,load-delay-ms=50`
    /// (the `MLC_SERVE_CHAOS` format). An empty spec is inert.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<FaultInjector, String> {
        let injector = FaultInjector::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("chaos clause '{clause}' is not NAME=N"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("chaos clause '{clause}': '{value}' is not an integer"))?;
            match name.trim() {
                "journal-enospc" => injector.journal_enospc.store(n, Ordering::SeqCst),
                "spec-enospc" => injector.spec_enospc.store(n, Ordering::SeqCst),
                "commit-fail" => injector.commit_fail.store(n, Ordering::SeqCst),
                "load-delay-ms" => injector.load_delay_ms.store(n, Ordering::SeqCst),
                other => {
                    return Err(format!(
                        "unknown chaos fault '{other}' (choices: journal-enospc, \
                         spec-enospc, commit-fail, load-delay-ms)"
                    ))
                }
            }
        }
        Ok(injector)
    }

    /// Arms (or clears, with `n = 0`) the journal-append `ENOSPC` budget.
    pub fn arm_journal_enospc(&self, n: u64) {
        self.journal_enospc.store(n, Ordering::SeqCst);
    }

    /// Arms (or clears) the spec-write `ENOSPC` budget.
    pub fn arm_spec_enospc(&self, n: u64) {
        self.spec_enospc.store(n, Ordering::SeqCst);
    }

    /// Arms (or clears) the commit-rename failure budget.
    pub fn arm_commit_fail(&self, n: u64) {
        self.commit_fail.store(n, Ordering::SeqCst);
    }

    /// Total faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Whether any fault budget or delay is currently armed.
    pub fn is_armed(&self) -> bool {
        self.journal_enospc.load(Ordering::SeqCst) > 0
            || self.spec_enospc.load(Ordering::SeqCst) > 0
            || self.commit_fail.load(Ordering::SeqCst) > 0
            || self.load_delay_ms.load(Ordering::SeqCst) > 0
    }

    /// Decrements `counter` if positive; reports whether a fault fired.
    fn take(&self, counter: &AtomicU64) -> bool {
        let fired = counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if fired {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// The fault (if armed) for the next journal row append.
    pub fn journal_append_fault(&self) -> Option<io::Error> {
        self.take(&self.journal_enospc).then(|| {
            io::Error::new(
                io::ErrorKind::StorageFull,
                "injected fault: no space left on device (journal append)",
            )
        })
    }

    /// The fault (if armed) for the next job-spec sidecar write.
    pub fn spec_write_fault(&self) -> Option<io::Error> {
        self.take(&self.spec_enospc).then(|| {
            io::Error::new(
                io::ErrorKind::StorageFull,
                "injected fault: no space left on device (job spec)",
            )
        })
    }

    /// The fault (if armed) for the next cache-commit rename.
    pub fn commit_fault(&self) -> Option<io::Error> {
        self.take(&self.commit_fail)
            .then(|| io::Error::other("injected fault: torn rename (commit interrupted)"))
    }

    /// Sleeps for the armed load delay, if any.
    pub fn load_delay(&self) {
        let ms = self.load_delay_ms.load(Ordering::SeqCst);
        if ms > 0 {
            self.injected.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_injector_is_inert() {
        let chaos = FaultInjector::default();
        assert!(!chaos.is_armed());
        assert!(chaos.journal_append_fault().is_none());
        assert!(chaos.spec_write_fault().is_none());
        assert!(chaos.commit_fault().is_none());
        assert_eq!(chaos.injected(), 0);
    }

    #[test]
    fn budgets_are_bounded_and_counted() {
        let chaos = FaultInjector::default();
        chaos.arm_journal_enospc(2);
        assert!(chaos.is_armed());
        let first = chaos.journal_append_fault().expect("armed fault fires");
        assert_eq!(first.kind(), io::ErrorKind::StorageFull);
        assert!(chaos.journal_append_fault().is_some());
        assert!(
            chaos.journal_append_fault().is_none(),
            "budget of 2 must fire exactly twice"
        );
        assert_eq!(chaos.injected(), 2);
        assert!(!chaos.is_armed());
    }

    #[test]
    fn parse_round_trips_every_fault() {
        let chaos = FaultInjector::parse("journal-enospc=1, spec-enospc=1,commit-fail=1").unwrap();
        assert!(chaos.journal_append_fault().is_some());
        assert!(chaos.spec_write_fault().is_some());
        assert!(chaos.commit_fault().is_some());
        assert!(FaultInjector::parse("").unwrap().injected() == 0);
        assert!(FaultInjector::parse("warp=1").is_err());
        assert!(FaultInjector::parse("journal-enospc").is_err());
        assert!(FaultInjector::parse("journal-enospc=x").is_err());
    }
}
