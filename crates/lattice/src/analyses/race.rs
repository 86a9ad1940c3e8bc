//! Happens-before data-race detection over the instrumentation stream.
//!
//! A data race is two conflicting accesses (same variable, at least one a
//! write, different threads) unordered by the *synchronization-only*
//! happens-before: program order plus lock acquire/release transfer on
//! the Section 3.1 lock pseudo-variables. The detector keeps per-variable
//! read/write clock sets and applies the classic `leq` predicate — an
//! access races with an earlier remote access iff the earlier access's
//! clock is not `≤` the current thread's clock (Djit⁺ / FastTrack
//! lineage).
//!
//! Deliberately **not** built on Algorithm A's `V_i` clocks: those encode
//! data causality (a read is ordered after the write it observed), which
//! orders exactly the conflicting access pairs a race detector must
//! consider unordered. The sync-only `SyncClocks` order here drops every
//! data edge and keeps only program order and lock transfer.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use jmpax_core::{AnalysisKind, Event, EventKind, ThreadId, VarId, VectorClock};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::Registry;

use super::{Analysis, AnalysisReport, SyncClocks};
use crate::reassemble::Exactness;

/// Default bound on retained [`RaceFinding`]s (total races are always
/// counted).
pub const DEFAULT_MAX_FINDINGS: usize = 32;

/// One access participating in a race.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceAccess {
    /// The accessing thread.
    pub thread: ThreadId,
    /// 1-based index of the access among the thread's delivered events.
    pub index: u64,
    /// Whether the access was a write.
    pub is_write: bool,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T{} {} #{}",
            self.thread.0,
            if self.is_write { "write" } else { "read" },
            self.index
        )
    }
}

/// A detected data race: two unordered conflicting accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RaceFinding {
    /// The raced variable.
    pub var: VarId,
    /// The earlier (delivered-first) access.
    pub first: RaceAccess,
    /// The later access, concurrent with `first`.
    pub second: RaceAccess,
}

/// The race detector's report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// Retained findings, in discovery order, deduplicated by
    /// `(variable, thread pair, access-kind pair)` and bounded by the
    /// detector's finding budget.
    pub findings: Vec<RaceFinding>,
    /// Total deduplicated races found (may exceed `findings.len()` when
    /// the budget truncated the list).
    pub races_found: u64,
    /// Shared-variable accesses checked.
    pub accesses_checked: u64,
    /// Lock acquire/release clock transfers observed.
    pub sync_transfers: u64,
    /// Whether the verdict covers the full stream or a degraded one.
    pub exactness: Exactness,
}

impl RaceReport {
    /// No race was found.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.races_found == 0
    }

    /// Publishes the `analysis.race.*` metric family.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("analysis.race.races")
            .add(self.races_found);
        registry
            .counter("analysis.race.accesses_checked")
            .add(self.accesses_checked);
        registry
            .counter("analysis.race.sync_transfers")
            .add(self.sync_transfers);
        registry
            .counter("analysis.race.gaps_skipped")
            .add(self.exactness.losses().1);
    }
}

/// Per-variable clock sets: the last access of each thread, by kind.
#[derive(Clone, Debug, Default)]
struct VarState {
    reads: BTreeMap<ThreadId, (RaceAccess, VectorClock)>,
    writes: BTreeMap<ThreadId, (RaceAccess, VectorClock)>,
}

/// The pluggable happens-before race detector.
#[derive(Debug)]
pub struct RaceAnalysis {
    hb: SyncClocks,
    vars: BTreeMap<VarId, VarState>,
    /// 1-based per-thread delivered-access counters.
    indices: Vec<u64>,
    findings: Vec<RaceFinding>,
    seen: BTreeSet<(VarId, ThreadId, bool, ThreadId, bool)>,
    races_found: u64,
    accesses_checked: u64,
    max_findings: usize,
    /// Trace lane `analysis.race`: one [`TraceKind::Finding`] instant
    /// per finding. [`crate::SuiteBuilder::build`] opens it from the
    /// suite's registry; disabled otherwise.
    pub(crate) ring: TraceRing,
}

impl RaceAnalysis {
    /// Builds a detector for a `threads`-thread stream. Writes of
    /// `sync_vars` carry happens-before (lock transfer) instead of being
    /// checked for races.
    #[must_use]
    pub fn new(threads: usize, sync_vars: BTreeSet<VarId>) -> Self {
        Self {
            hb: SyncClocks::new(threads, sync_vars),
            vars: BTreeMap::new(),
            indices: vec![0; threads.max(1)],
            findings: Vec::new(),
            seen: BTreeSet::new(),
            races_found: 0,
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

    fn bump_index(&mut self, t: ThreadId) -> u64 {
        if self.indices.len() <= t.index() {
            self.indices.resize(t.index() + 1, 0);
        }
        self.indices[t.index()] += 1;
        self.indices[t.index()]
    }

    fn report(&mut self, var: VarId, first: RaceAccess, second: RaceAccess) {
        let key = (
            var,
            first.thread,
            first.is_write,
            second.thread,
            second.is_write,
        );
        if !self.seen.insert(key) {
            return;
        }
        self.races_found += 1;
        self.ring.record(TraceKind::Finding {
            analysis: "race",
            var: Some(var.0),
        });
        if self.findings.len() < self.max_findings {
            self.findings.push(RaceFinding { var, first, second });
        }
    }
}

impl Analysis for RaceAnalysis {
    fn kind(&self) -> AnalysisKind {
        AnalysisKind::Race
    }

    fn on_event(&mut self, event: &Event, _clock: &VectorClock) {
        let t = event.thread;
        let me = self.hb.observe(event);
        let (var, is_write) = match event.kind {
            EventKind::Read { var } => (var, false),
            EventKind::Write { var, .. } => (var, true),
            EventKind::Internal => return,
        };
        if self.hb.is_sync(var) {
            return;
        }
        let index = self.bump_index(t);
        self.accesses_checked += 1;
        let access = RaceAccess {
            thread: t,
            index,
            is_write,
        };
        let state = self.vars.entry(var).or_default();
        let mut races: Vec<(RaceAccess, RaceAccess)> = Vec::new();
        for (&u, (prev, prev_clock)) in &state.writes {
            if u != t && !prev_clock.le(&me) {
                races.push((*prev, access));
            }
        }
        if is_write {
            for (&u, (prev, prev_clock)) in &state.reads {
                if u != t && !prev_clock.le(&me) {
                    races.push((*prev, access));
                }
            }
        }
        let slot = if is_write {
            &mut state.writes
        } else {
            &mut state.reads
        };
        slot.insert(t, (access, me));
        for (first, second) in races {
            self.report(var, first, second);
        }
    }

    fn record(&self, registry: &Registry) {
        registry
            .gauge("analysis.race.vars_tracked")
            .set(self.vars.len() as u64);
    }

    fn finish(self: Box<Self>, transport: Exactness) -> AnalysisReport {
        AnalysisReport::Race(RaceReport {
            findings: self.findings,
            races_found: self.races_found,
            accesses_checked: self.accesses_checked,
            sync_transfers: self.hb.transfers(),
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

    fn run(events: &[Event], sync: &[VarId]) -> RaceReport {
        let mut a = Box::new(RaceAnalysis::new(2, sync.iter().copied().collect()));
        let clock = VectorClock::with_threads(2);
        for e in events {
            a.on_event(e, &clock);
        }
        match a.finish(Exactness::Exact) {
            AnalysisReport::Race(r) => r,
            other => panic!("unexpected report {other:?}"),
        }
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let r = run(&[Event::write(T0, X, 1), Event::write(T1, X, 2)], &[]);
        assert_eq!(r.races_found, 1);
        let f = r.findings[0];
        assert_eq!(f.var, X);
        assert!(f.first.is_write && f.second.is_write);
    }

    #[test]
    fn read_write_pair_races_but_read_read_does_not() {
        let r = run(&[Event::read(T0, X), Event::write(T1, X, 2)], &[]);
        assert_eq!(r.races_found, 1);
        let r = run(&[Event::read(T0, X), Event::read(T1, X)], &[]);
        assert_eq!(r.races_found, 0);
        assert!(r.satisfied());
    }

    #[test]
    fn lock_transfer_orders_the_critical_sections() {
        // T0: acquire, write x, release; T1: acquire, write x, release.
        let events = [
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
            Event::write(T1, M, 1),
            Event::write(T1, X, 2),
            Event::write(T1, M, 0),
        ];
        let r = run(&events, &[M]);
        assert_eq!(r.races_found, 0, "{:?}", r.findings);
        assert_eq!(r.sync_transfers, 4);
        // Without declaring the lock, the same stream races — on `x`,
        // and on the now-plain-data variable `m` itself.
        let r = run(&events, &[]);
        assert_eq!(r.races_found, 2, "{:?}", r.findings);
    }

    #[test]
    fn dedup_is_by_var_and_access_shape() {
        // Two write/write races on the same (var, thread, kind) shape
        // count once; the budget bounds the retained list separately.
        let r = run(
            &[
                Event::write(T0, X, 1),
                Event::write(T1, X, 2),
                Event::write(T0, X, 3),
                Event::write(T1, X, 4),
            ],
            &[],
        );
        assert_eq!(r.races_found, 2, "{:?}", r.findings);
    }

    #[test]
    fn read_write_and_write_read_race() {
        let r = run(&[Event::read(T0, X), Event::write(T1, X, 1)], &[]);
        assert_eq!(r.races_found, 1);
        assert!(!r.findings[0].first.is_write && r.findings[0].second.is_write);
        let r = run(&[Event::write(T0, X, 1), Event::read(T1, X)], &[]);
        assert_eq!(r.races_found, 1);
        assert!(r.findings[0].first.is_write && !r.findings[0].second.is_write);
    }

    #[test]
    fn same_thread_never_races() {
        let r = run(
            &[
                Event::write(T0, X, 1),
                Event::read(T0, X),
                Event::write(T0, X, 2),
            ],
            &[],
        );
        assert!(r.satisfied(), "{:?}", r.findings);
    }

    #[test]
    fn partial_locking_still_races() {
        // T0 holds the lock, T1 does not.
        let events = [
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
            Event::write(T1, X, 2),
        ];
        assert_eq!(run(&events, &[M]).races_found, 1);
    }

    #[test]
    fn race_is_predicted_even_when_far_apart_in_the_trace() {
        // The racing accesses are separated by lots of unrelated activity —
        // a single-trace "overlap" detector would see nothing suspicious.
        let y = VarId(2);
        let mut events = vec![Event::write(T0, X, 1)];
        for i in 0..50 {
            events.push(Event::write(T0, y, i));
            events.push(Event::read(T1, y));
        }
        events.push(Event::write(T1, X, 2));
        let r = run(&events, &[]);
        assert!(r.findings.iter().any(|f| f.var == X), "{:?}", r.findings);
    }

    /// Runs the detector the way the suite does: over the causal delivery
    /// of instrumented messages, in whatever order they arrive.
    fn over_the_wire(
        events: &[Event],
        relevance: jmpax_core::Relevance,
        sync: &[VarId],
    ) -> RaceReport {
        use crate::analyses::AnalysisSuite;
        use jmpax_core::MvcInstrumentor;

        let mut instr = MvcInstrumentor::with_relevance(relevance);
        let mut msgs: Vec<_> = events.iter().filter_map(|e| instr.process(e)).collect();
        msgs.reverse();
        let a = RaceAnalysis::new(2, sync.iter().copied().collect());
        let mut suite = AnalysisSuite::new(vec![Box::new(a)]);
        suite.push_all(msgs);
        match suite.finish(Exactness::Exact).reports.pop() {
            Some(AnalysisReport::Race(r)) => r,
            other => panic!("unexpected report {other:?}"),
        }
    }

    #[test]
    fn races_detected_over_the_wire_in_any_delivery_order() {
        let events = [
            Event::write(T0, X, 1),
            Event::read(T0, X),
            Event::read(T1, X),
            Event::write(T1, X, 2),
        ];
        let r = over_the_wire(&events, jmpax_core::Relevance::accesses_of([X]), &[]);
        assert!(!r.satisfied());
        assert!(r.findings.iter().all(|f| f.var == X));
    }

    #[test]
    fn locked_accesses_over_the_wire_are_clean() {
        // acquire/release pseudo-writes interleave with data accesses.
        let events = [
            Event::write(T0, M, 1),
            Event::write(T0, X, 1),
            Event::write(T0, M, 0),
            Event::write(T1, M, 1),
            Event::write(T1, X, 2),
            Event::write(T1, M, 0),
        ];
        let r = over_the_wire(&events, jmpax_core::Relevance::AllWrites, &[M]);
        assert!(r.satisfied(), "{:?}", r.findings);
    }

    #[test]
    fn findings_budget_truncates_but_counts() {
        let mut a = Box::new(RaceAnalysis::new(2, BTreeSet::new()).with_max_findings(0));
        let clock = VectorClock::with_threads(2);
        a.on_event(&Event::write(T0, X, 1), &clock);
        a.on_event(&Event::write(T1, X, 2), &clock);
        let AnalysisReport::Race(r) = a.finish(Exactness::Exact) else {
            panic!()
        };
        assert_eq!(r.races_found, 1);
        assert!(r.findings.is_empty());
    }
}
