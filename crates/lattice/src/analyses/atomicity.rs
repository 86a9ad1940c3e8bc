//! Conflict-atomicity checking of lock-delimited transaction blocks.
//!
//! A *transaction* is the span between a thread's outermost lock acquire
//! (a write of `1` to a synchronization variable) and the matching
//! release (a write of `0`), per the Section 3.1 lock encoding. A
//! transaction is **non-atomic** when a remote access is *sandwiched*
//! between two of its own accesses to the same variable such that both
//! pairs conflict (at least one side writes) and the remote access is
//! causally concurrent with the transaction under the
//! synchronization-only happens-before — the single-variable core of the
//! vector-clock serializability check of Mathur & Viswanathan
//! (arXiv 2001.04961). Such a sandwich witnesses a cycle in the
//! transaction conflict graph, so no serial schedule reproduces the
//! observed outcome.
//!
//! Like the race detector, this runs over the crate's sync-only
//! happens-before (`SyncClocks`) rather
//! than Algorithm A's data-causality clocks, which would order exactly
//! the interleavings the checker must flag.

use std::collections::{BTreeMap, BTreeSet};

use jmpax_core::{AnalysisKind, Event, EventKind, ThreadId, VarId, VectorClock};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::Registry;

use super::{Analysis, AnalysisReport, SyncClocks};
use crate::reassemble::Exactness;

/// Default bound on retained [`AtomicityFinding`]s (total violations are
/// always counted).
pub const DEFAULT_MAX_FINDINGS: usize = 32;

/// One detected atomicity violation: a remote access sandwiched inside a
/// transaction's accesses to `var`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AtomicityFinding {
    /// The variable whose transactional accesses were interleaved.
    pub var: VarId,
    /// The thread whose transaction was broken.
    pub thread: ThreadId,
    /// The interleaving remote thread.
    pub other: ThreadId,
    /// Global delivered index of the transaction's first conflicting
    /// access to `var`.
    pub first: u64,
    /// Global delivered index of the sandwiched remote access.
    pub interleaved: u64,
    /// Global delivered index of the transaction access that exposed the
    /// sandwich.
    pub second: u64,
}

/// The atomicity checker's report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtomicityReport {
    /// Retained findings, in discovery order, deduplicated by
    /// `(variable, transaction thread, remote thread)` and bounded by the
    /// checker's finding budget.
    pub findings: Vec<AtomicityFinding>,
    /// Total deduplicated violations (may exceed `findings.len()` when
    /// the budget truncated the list).
    pub violations_found: u64,
    /// Transactions (outermost lock-delimited blocks) observed.
    pub transactions: u64,
    /// Shared-variable accesses checked.
    pub accesses_checked: u64,
    /// Whether the verdict covers the full stream or a degraded one.
    pub exactness: Exactness,
}

impl AtomicityReport {
    /// No atomicity violation was found.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.violations_found == 0
    }

    /// Publishes the `analysis.atomicity.*` metric family.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("analysis.atomicity.violations")
            .add(self.violations_found);
        registry
            .counter("analysis.atomicity.transactions")
            .add(self.transactions);
        registry
            .counter("analysis.atomicity.accesses_checked")
            .add(self.accesses_checked);
        registry
            .counter("analysis.atomicity.gaps_skipped")
            .add(self.exactness.losses().1);
    }
}

/// First accesses of one variable within an open transaction, by global
/// delivered index.
#[derive(Clone, Copy, Debug, Default)]
struct FirstAccess {
    read: Option<u64>,
    write: Option<u64>,
}

/// One thread's lock nesting and open transaction.
#[derive(Clone, Debug, Default)]
struct ThreadTxn {
    depth: u64,
    vars: BTreeMap<VarId, FirstAccess>,
}

/// Per-variable last access of each thread, by kind.
#[derive(Clone, Debug, Default)]
struct Accesses {
    reads: BTreeMap<ThreadId, (u64, VectorClock)>,
    writes: BTreeMap<ThreadId, (u64, VectorClock)>,
}

/// The pluggable conflict-atomicity checker.
#[derive(Debug)]
pub struct AtomicityAnalysis {
    hb: SyncClocks,
    threads: Vec<ThreadTxn>,
    vars: BTreeMap<VarId, Accesses>,
    /// Global delivered-event index (1-based).
    index: u64,
    findings: Vec<AtomicityFinding>,
    seen: BTreeSet<(VarId, ThreadId, ThreadId)>,
    violations_found: u64,
    transactions: u64,
    accesses_checked: u64,
    max_findings: usize,
    /// Trace lane `analysis.atomicity`: one [`TraceKind::Finding`] instant
    /// per finding. [`crate::SuiteBuilder::build`] opens it from the
    /// suite's registry; disabled otherwise.
    pub(crate) ring: TraceRing,
}

impl AtomicityAnalysis {
    /// Builds a checker for a `threads`-thread stream. Writes of
    /// `sync_vars` delimit transactions (nonzero = acquire, zero =
    /// release) and carry happens-before.
    #[must_use]
    pub fn new(threads: usize, sync_vars: BTreeSet<VarId>) -> Self {
        Self {
            hb: SyncClocks::new(threads, sync_vars),
            threads: vec![ThreadTxn::default(); threads.max(1)],
            vars: BTreeMap::new(),
            index: 0,
            findings: Vec::new(),
            seen: BTreeSet::new(),
            violations_found: 0,
            transactions: 0,
            accesses_checked: 0,
            max_findings: DEFAULT_MAX_FINDINGS,
            ring: TraceRing::disabled(),
        }
    }

    /// Bounds the retained findings list (`0` keeps none, only counts).
    #[must_use]
    pub fn with_max_findings(mut self, max: usize) -> Self {
        self.max_findings = max;
        self
    }

    /// Currently open transactions, for live telemetry.
    fn open_transactions(&self) -> u64 {
        self.threads.iter().filter(|t| t.depth > 0).count() as u64
    }

    fn txn_slot(&mut self, t: ThreadId) -> &mut ThreadTxn {
        if self.threads.len() <= t.index() {
            self.threads.resize(t.index() + 1, ThreadTxn::default());
        }
        &mut self.threads[t.index()]
    }

    /// Applies a lock acquire/release (a write to a sync variable).
    fn on_lock(&mut self, t: ThreadId, acquire: bool) {
        let slot = self.txn_slot(t);
        if acquire {
            slot.depth += 1;
            if slot.depth == 1 {
                slot.vars.clear();
                self.transactions += 1;
            }
        } else if slot.depth > 0 {
            slot.depth -= 1;
            if slot.depth == 0 {
                slot.vars.clear();
            }
        }
    }

    fn report(&mut self, finding: AtomicityFinding) {
        let key = (finding.var, finding.thread, finding.other);
        if !self.seen.insert(key) {
            return;
        }
        self.violations_found += 1;
        self.ring.record(TraceKind::Finding {
            analysis: "atomicity",
            var: Some(finding.var.0),
        });
        if self.findings.len() < self.max_findings {
            self.findings.push(finding);
        }
    }

    /// Looks for a remote access sandwiched between the transaction's
    /// first conflicting access to `var` and the current one.
    fn check_sandwich(&mut self, t: ThreadId, var: VarId, is_write: bool, me: &VectorClock) {
        let Some(first) = self
            .threads
            .get(t.index())
            .filter(|s| s.depth > 0)
            .and_then(|s| s.vars.get(&var).copied())
        else {
            return;
        };
        let second = self.index;
        let Some(state) = self.vars.get(&var) else {
            return;
        };
        let mut found: Vec<AtomicityFinding> = Vec::new();
        // A remote write conflicts with any transactional access…
        let fi_write = match (first.read, first.write) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        };
        if let Some(fi) = fi_write {
            for (&u, &(uidx, ref uclock)) in &state.writes {
                if u != t && fi < uidx && !uclock.le(me) {
                    found.push(AtomicityFinding {
                        var,
                        thread: t,
                        other: u,
                        first: fi,
                        interleaved: uidx,
                        second,
                    });
                }
            }
        }
        // …a remote read only with transactional writes, and only when
        // the current access writes too.
        if is_write {
            if let Some(fi) = first.write {
                for (&u, &(uidx, ref uclock)) in &state.reads {
                    if u != t && fi < uidx && !uclock.le(me) {
                        found.push(AtomicityFinding {
                            var,
                            thread: t,
                            other: u,
                            first: fi,
                            interleaved: uidx,
                            second,
                        });
                    }
                }
            }
        }
        for f in found {
            self.report(f);
        }
    }
}

impl Analysis for AtomicityAnalysis {
    fn kind(&self) -> AnalysisKind {
        AnalysisKind::Atomicity
    }

    fn on_event(&mut self, event: &Event, _clock: &VectorClock) {
        let t = event.thread;
        let me = self.hb.observe(event);
        self.index += 1;
        let index = self.index;
        let (var, is_write) = match event.kind {
            EventKind::Read { var } => (var, false),
            EventKind::Write { var, ref value } => {
                if self.hb.is_sync(var) {
                    self.on_lock(t, value.as_int() != 0);
                    return;
                }
                (var, true)
            }
            EventKind::Internal => return,
        };
        self.accesses_checked += 1;
        self.check_sandwich(t, var, is_write, &me);
        // Record the access: into the open transaction's first-access
        // table, and into the global last-access table for other
        // threads' sandwich checks.
        let slot = self.txn_slot(t);
        if slot.depth > 0 {
            let first = slot.vars.entry(var).or_default();
            let target = if is_write {
                &mut first.write
            } else {
                &mut first.read
            };
            if target.is_none() {
                *target = Some(index);
            }
        }
        let state = self.vars.entry(var).or_default();
        let table = if is_write {
            &mut state.writes
        } else {
            &mut state.reads
        };
        table.insert(t, (index, me));
    }

    fn record(&self, registry: &Registry) {
        registry
            .gauge("analysis.atomicity.open_transactions")
            .set(self.open_transactions());
    }

    fn finish(self: Box<Self>, transport: Exactness) -> AnalysisReport {
        AnalysisReport::Atomicity(AtomicityReport {
            findings: self.findings,
            violations_found: self.violations_found,
            transactions: self.transactions,
            accesses_checked: self.accesses_checked,
            exactness: transport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const M: VarId = VarId(1);

    fn run(events: &[Event]) -> AtomicityReport {
        let mut a = Box::new(AtomicityAnalysis::new(2, [M].into_iter().collect()));
        let clock = VectorClock::with_threads(2);
        for e in events {
            a.on_event(e, &clock);
        }
        match a.finish(Exactness::Exact) {
            AnalysisReport::Atomicity(r) => r,
            other => panic!("unexpected report {other:?}"),
        }
    }

    #[test]
    fn interleaved_remote_write_breaks_the_transaction() {
        // T0: lock; read x … write x; unlock — with T1's unsynchronized
        // write of x delivered in between.
        let r = run(&[
            Event::write(T0, M, 1),
            Event::read(T0, X),
            Event::write(T1, X, 5),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
        ]);
        assert_eq!(r.violations_found, 1, "{:?}", r.findings);
        let f = r.findings[0];
        assert_eq!((f.var, f.thread, f.other), (X, T0, T1));
        assert!(f.first < f.interleaved && f.interleaved < f.second);
        assert_eq!(r.transactions, 1);
    }

    #[test]
    fn properly_locked_blocks_stay_atomic() {
        let r = run(&[
            Event::write(T0, M, 1),
            Event::read(T0, X),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
            Event::write(T1, M, 1),
            Event::read(T1, X),
            Event::write(T1, X, 2),
            Event::write(T1, M, 0),
        ]);
        assert!(r.satisfied(), "{:?}", r.findings);
        assert_eq!(r.transactions, 2);
        assert_eq!(r.accesses_checked, 4);
    }

    #[test]
    fn no_transaction_means_no_findings() {
        // Racy, but nothing is lock-delimited — a race, not an
        // atomicity violation.
        let r = run(&[
            Event::read(T0, X),
            Event::write(T1, X, 5),
            Event::write(T0, X, 1),
        ]);
        assert!(r.satisfied());
        assert_eq!(r.transactions, 0);
    }

    #[test]
    fn remote_reads_only_conflict_with_transactional_writes() {
        // write x … (remote read) … read x: the remote read does not
        // conflict with the final read, and it follows no transactional
        // write-before-it pair both ways — serializable.
        let r = run(&[
            Event::write(T0, M, 1),
            Event::read(T0, X),
            Event::read(T1, X),
            Event::read(T0, X),
            Event::write(T0, M, 0),
        ]);
        assert!(r.satisfied(), "{:?}", r.findings);
        // write-sandwich-write via a remote *read* does violate.
        let r = run(&[
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::read(T1, X),
            Event::write(T0, X, 2),
            Event::write(T0, M, 0),
        ]);
        assert_eq!(r.violations_found, 1);
    }

    #[test]
    fn repeat_sandwiches_dedup_by_thread_pair() {
        let r = run(&[
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::write(T1, X, 5),
            Event::write(T0, X, 2),
            Event::write(T1, X, 6),
            Event::write(T0, X, 3),
            Event::write(T0, M, 0),
        ]);
        assert_eq!(r.violations_found, 1, "{:?}", r.findings);
    }

    #[test]
    fn nested_locks_form_one_transaction() {
        let r = run(&[
            Event::write(T0, M, 1),
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
            Event::write(T1, X, 5),
            Event::write(T0, X, 2),
            Event::write(T0, M, 0),
        ]);
        // Outer block still open when T1 interleaves: one transaction,
        // one violation.
        assert_eq!(r.transactions, 1);
        assert_eq!(r.violations_found, 1, "{:?}", r.findings);
    }
}
