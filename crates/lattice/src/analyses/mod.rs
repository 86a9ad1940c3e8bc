//! Pluggable online analyses over one instrumentation stream.
//!
//! The paper's Section 4 observer is analysis-agnostic: Algorithm A emits
//! `⟨e, i, V⟩` messages, and *any* consumer that understands vector clocks
//! can run over them. This module turns that claim into an API:
//!
//! * [`Analysis`] — the trait every online analysis implements. The driver
//!   feeds each causally delivered event exactly once via
//!   [`Analysis::on_event`]; [`Analysis::finish`] closes the analysis and
//!   folds in the transport's [`Exactness`].
//! * [`AnalysisSuite`] — the driver: one [`Reassembler`] delivery pass
//!   fanning every delivered event out to an ordered set of analyses, so
//!   N analyses cost one decode→reassemble→deliver pass, not N. It is the
//!   only way in: [`SuiteBuilder`] constructs and configures every
//!   analysis.
//! * [`StreamingAnalyzer`] — the paper's predictive ptLTL lattice checker.
//! * [`RaceAnalysis`] — happens-before data-race detection over the
//!   synchronization-only causal order (see [`race`]).
//! * [`AtomicityAnalysis`] — conflict-atomicity checking of lock-delimited
//!   transaction blocks (see [`atomicity`]).
//!
//! ## Determinism
//!
//! Every analysis consumes the *causal delivery order* produced by the
//! suite's [`Reassembler`]: among causally ready messages, the earliest
//! arrival goes first. That order never depends on the eval-cache
//! setting, but it does depend on arrival order: concurrent
//! messages are delivered in the order they arrive. What holds:
//!
//! * The ptLTL report depends only on the message set. The lattice of a
//!   computation is the same for every linearization of it, and the
//!   analyzer orders violations and counterexamples by cut, not by
//!   delivery.
//! * Race and atomicity reports depend on the delivered order: which
//!   access pairs and which delivery positions a finding names can differ
//!   between two arrival orders of the same messages.
//! * For a given arrival order, running `[ltl, race, atomicity]` together
//!   is bit-identical, per analysis, to running each alone.
//!
//! Both the first and the last are property-tested in
//! `tests/multi_analysis_equiv.rs`.
//!
//! ## Exactness
//!
//! [`Analysis::finish`] receives the transport/delivery losses: the gaps
//! the reassembler committed plus upstream losses it never saw (see
//! [`ReassemblyReport::exactness_after`]). Each analysis combines them
//! with its own internal losses (e.g. frontier-cap pruning) so every
//! report carries one uniform [`Exactness`] verdict.

pub mod atomicity;
pub mod race;

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use jmpax_core::{AnalysisKind, Event, EventKind, Message, VarId, VectorClock};
use jmpax_spec::{Monitor, ProgramState};
use jmpax_telemetry::Registry;

use crate::builder::{StreamReport, StreamingAnalyzer};
use crate::config::AnalysisConfig;
use crate::reassemble::{Exactness, Reassembler, ReassemblyReport};

pub use atomicity::{AtomicityAnalysis, AtomicityFinding, AtomicityReport};
pub use race::{RaceAccess, RaceAnalysis, RaceFinding, RaceReport};

/// One online analysis consuming the causally delivered `⟨e, i, V⟩`
/// stream.
///
/// Implementations must be deterministic in the delivered event sequence:
/// two runs over the same sequence must produce identical reports. The
/// driver delivers one causal order, so this contract is what makes
/// suite reports reproducible (DESIGN.md §16).
pub trait Analysis: Send {
    /// Which analysis this is (names the report section and the
    /// `analysis.<kind>.*` telemetry prefix).
    fn kind(&self) -> AnalysisKind;

    /// Consumes one causally delivered event and the emitting thread's
    /// vector clock after that event (the message's `V_i`).
    fn on_event(&mut self, event: &Event, clock: &VectorClock);

    /// Publishes the analysis's live counters gathered so far.
    fn record(&self, registry: &Registry);

    /// Closes the analysis. `transport` carries the delivery losses the
    /// driver observed (reassembly gaps, upstream losses); the report's
    /// exactness combines it with the analysis's own losses.
    fn finish(self: Box<Self>, transport: Exactness) -> AnalysisReport;
}

/// The report of one completed analysis — the common enum behind every
/// [`Analysis::finish`].
#[derive(Clone, Debug)]
pub enum AnalysisReport {
    /// The ptLTL lattice checker's report.
    Ltl(StreamReport),
    /// The data-race detector's report.
    Race(RaceReport),
    /// The atomicity checker's report.
    Atomicity(AtomicityReport),
}

impl AnalysisReport {
    /// Which analysis produced this report.
    #[must_use]
    pub fn kind(&self) -> AnalysisKind {
        match self {
            AnalysisReport::Ltl(_) => AnalysisKind::Ltl,
            AnalysisReport::Race(_) => AnalysisKind::Race,
            AnalysisReport::Atomicity(_) => AnalysisKind::Atomicity,
        }
    }

    /// True when the analysis found nothing wrong.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        match self {
            AnalysisReport::Ltl(r) => r.satisfied(),
            AnalysisReport::Race(r) => r.satisfied(),
            AnalysisReport::Atomicity(r) => r.satisfied(),
        }
    }

    /// Total findings (property violations, races, atomicity violations).
    #[must_use]
    pub fn findings(&self) -> u64 {
        match self {
            AnalysisReport::Ltl(r) => r.violations.len() as u64,
            AnalysisReport::Race(r) => r.races_found,
            AnalysisReport::Atomicity(r) => r.violations_found,
        }
    }

    /// The report's exactness verdict.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        match self {
            AnalysisReport::Ltl(r) => r.exactness,
            AnalysisReport::Race(r) => r.exactness,
            AnalysisReport::Atomicity(r) => r.exactness,
        }
    }

    /// The ptLTL report, when this is one.
    #[must_use]
    pub fn as_ltl(&self) -> Option<&StreamReport> {
        match self {
            AnalysisReport::Ltl(r) => Some(r),
            _ => None,
        }
    }

    /// The race report, when this is one.
    #[must_use]
    pub fn as_race(&self) -> Option<&RaceReport> {
        match self {
            AnalysisReport::Race(r) => Some(r),
            _ => None,
        }
    }

    /// The atomicity report, when this is one.
    #[must_use]
    pub fn as_atomicity(&self) -> Option<&AtomicityReport> {
        match self {
            AnalysisReport::Atomicity(r) => Some(r),
            _ => None,
        }
    }

    /// Publishes the report's statistics under both the legacy `lattice.*`
    /// names (ptLTL only) and the uniform `analysis.<kind>.*` family.
    pub fn record(&self, registry: &Registry) {
        match self {
            AnalysisReport::Ltl(r) => r.record(registry),
            AnalysisReport::Race(r) => r.record(registry),
            AnalysisReport::Atomicity(r) => r.record(registry),
        }
    }

    /// Publishes only the uniform `analysis.<kind>.*` family. The suite
    /// driver uses this at finish: a telemetered ptLTL analyzer has
    /// already published its legacy `lattice.*` counters live, so
    /// re-recording them here would double-count.
    pub fn record_analysis(&self, registry: &Registry) {
        match self {
            AnalysisReport::Ltl(r) => r.record_analysis(registry),
            AnalysisReport::Race(r) => r.record(registry),
            AnalysisReport::Atomicity(r) => r.record(registry),
        }
    }
}

/// Reports of a whole suite run, in the suite's analysis order.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// One report per analysis, in configuration order.
    pub reports: Vec<AnalysisReport>,
    /// What the suite's reassembler did to the stream: reordering,
    /// duplicates, committed gaps. Its losses are already folded into
    /// every report's exactness.
    pub reassembly: ReassemblyReport,
}

impl SuiteReport {
    /// The report of the given analysis kind, if it ran.
    #[must_use]
    pub fn get(&self, kind: AnalysisKind) -> Option<&AnalysisReport> {
        self.reports.iter().find(|r| r.kind() == kind)
    }

    /// True when every analysis found nothing wrong.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.reports.iter().all(AnalysisReport::satisfied)
    }

    /// The combined exactness across every report.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        self.reports
            .iter()
            .fold(Exactness::Exact, |acc, r| acc.combine(r.exactness()))
    }

    /// Total findings across every report.
    #[must_use]
    pub fn findings(&self) -> u64 {
        self.reports.iter().map(AnalysisReport::findings).sum()
    }

    /// The ptLTL report, consuming the suite report: for callers that ran
    /// an LTL suite and want a bare [`StreamReport`].
    ///
    /// # Panics
    ///
    /// Panics when the suite ran no LTL analysis.
    #[must_use]
    pub fn into_ltl(self) -> StreamReport {
        self.reports
            .into_iter()
            .find_map(|r| match r {
                AnalysisReport::Ltl(report) => Some(report),
                _ => None,
            })
            .expect("the suite ran an LTL analysis")
    }

    /// Publishes every report's statistics.
    pub fn record(&self, registry: &Registry) {
        for r in &self.reports {
            r.record(registry);
        }
    }
}

/// Drives an ordered set of [`Analysis`] implementations over one causal
/// delivery pass.
///
/// Messages may arrive in any order, duplicated or with holes. The suite's
/// [`Reassembler`] is the one causal-delivery stage: it releases each
/// message once its causal predecessors are released or committed as lost,
/// earliest ready arrival first, and every released event is fanned out to
/// every analysis, in configuration order. Its stall budget is off unless
/// set ([`AnalysisSuite::with_stall_budget`]), so a lossless stream loses
/// nothing however it is ordered; at [`AnalysisSuite::finish`] the
/// reassembler commits every hole still open as a gap and releases the
/// survivors with remapped clocks (see [`Reassembler::finish`]).
pub struct AnalysisSuite {
    analyses: Vec<Box<dyn Analysis>>,
    reassembler: Reassembler,
    /// The reassembler's accounting, once the stream has ended.
    reassembly: Option<ReassemblyReport>,
    registry: Registry,
}

impl std::fmt::Debug for AnalysisSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSuite")
            .field(
                "analyses",
                &self.analyses.iter().map(|a| a.kind()).collect::<Vec<_>>(),
            )
            .field("ended", &self.reassembly.is_some())
            .finish()
    }
}

impl AnalysisSuite {
    /// Builds a suite over the given analyses, in order.
    #[must_use]
    pub fn new(analyses: Vec<Box<dyn Analysis>>) -> Self {
        Self {
            analyses,
            reassembler: Reassembler::with_stall_budget(u64::MAX),
            reassembly: None,
            registry: Registry::disabled(),
        }
    }

    /// Commits a sequence gap as lost once `stall_budget` arrivals fail to
    /// fill it (see [`Reassembler::with_stall_budget`]), for streams from a
    /// lossy transport. Without it, gaps wait for the end of the stream.
    /// Set it before the first push.
    #[must_use]
    pub fn with_stall_budget(mut self, stall_budget: u64) -> Self {
        self.reassembler.stall_budget = stall_budget;
        self
    }

    /// Attaches a telemetry registry: per-analysis counters are published
    /// when the suite finishes, and a traced registry gets the
    /// reassembler's `resilience` lane.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.reassembler.trace_ring = registry.tracer().ring("resilience");
        self.registry = registry.clone();
        self
    }

    /// The analyses in this suite, in order.
    #[must_use]
    pub fn kinds(&self) -> Vec<AnalysisKind> {
        self.analyses.iter().map(|a| a.kind()).collect()
    }

    /// Offers messages in arrival order (any order, duplicates included);
    /// every message that becomes causally ready is dispatched to every
    /// analysis and returned, moved, in delivery order.
    pub fn push_all(&mut self, messages: impl IntoIterator<Item = Message>) -> Vec<Message> {
        let messages = messages.into_iter();
        let mut released = Vec::with_capacity(messages.size_hint().0);
        for m in messages {
            // An in-order message is dispatched as it arrives.
            if let Some(m) = self.reassembler.offer(m) {
                self.dispatch(&m);
                released.push(m);
            }
        }
        // Messages held behind a gap are released once it fills.
        let rest = self.reassembler.drain_ready();
        rest.iter().for_each(|m| self.dispatch(m));
        if released.is_empty() {
            return rest;
        }
        released.extend(rest);
        released
    }

    fn dispatch(&mut self, message: &Message) {
        for a in &mut self.analyses {
            a.on_event(&message.event, &message.clock);
        }
    }

    /// Ends the stream: the reassembler commits every gap still open and
    /// releases what it held (see [`Reassembler::finish`]); those messages
    /// are dispatched and returned. Later calls return nothing;
    /// [`AnalysisSuite::finish`] ends the stream itself when the caller
    /// has not.
    pub fn end_stream(&mut self) -> Vec<Message> {
        if self.reassembly.is_some() {
            return Vec::new();
        }
        let (tail, report) = std::mem::take(&mut self.reassembler).finish();
        tail.iter().for_each(|m| self.dispatch(m));
        self.reassembly = Some(report);
        tail
    }

    /// Ends the stream and closes every analysis. `transport` carries
    /// upstream losses (decoder losses, one skipped gap per lost frame;
    /// frontier cuts); [`ReassemblyReport::exactness_after`] folds them
    /// with the reassembler's gaps, counting each loss once, into every
    /// report. Reports come back in configuration order, with the
    /// reassembler's accounting.
    #[must_use]
    pub fn finish(mut self, transport: Exactness) -> SuiteReport {
        self.end_stream();
        let reassembly = self.reassembly.take().unwrap_or_default();
        let exact = reassembly.exactness_after(transport);
        let mut reports = Vec::with_capacity(self.analyses.len());
        for a in self.analyses {
            a.record(&self.registry);
            let report = a.finish(exact);
            report.record_analysis(&self.registry);
            reports.push(report);
        }
        SuiteReport {
            reports,
            reassembly,
        }
    }
}

/// Everything needed to *construct* analyses for a suite run: the ptLTL
/// monitor and initial state (when LTL is requested), thread count, the
/// synchronization variables race/atomicity analyses build their
/// happens-before from, and the shared tuning/observability plumbing.
#[derive(Debug)]
pub struct SuiteBuilder {
    kinds: Vec<AnalysisKind>,
    threads: usize,
    sync_vars: BTreeSet<VarId>,
    config: AnalysisConfig,
    registry: Registry,
}

impl SuiteBuilder {
    /// Starts a builder for the given analyses over `threads` threads.
    /// An empty `kinds` list defaults to `[ltl]`.
    #[must_use]
    pub fn new(kinds: &[AnalysisKind], threads: usize) -> Self {
        let kinds = if kinds.is_empty() {
            vec![AnalysisKind::Ltl]
        } else {
            kinds.to_vec()
        };
        Self {
            kinds,
            threads,
            sync_vars: BTreeSet::new(),
            config: AnalysisConfig::default(),
            registry: Registry::disabled(),
        }
    }

    /// Declares the synchronization (lock) variables whose writes carry
    /// happens-before for the race and atomicity analyses.
    #[must_use]
    pub fn sync_vars(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.sync_vars = vars.into_iter().collect();
        self
    }

    /// Applies the shared analysis tuning knobs.
    #[must_use]
    pub fn config(mut self, config: &AnalysisConfig) -> Self {
        self.config = *config;
        self
    }

    /// Attaches telemetry. A traced registry also gets each analysis's
    /// trace lane (`lattice`, `analysis.race`,
    /// `analysis.atomicity`, and `resilience` for committed gaps).
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }

    /// Builds the suite. `ltl` supplies the monitor and initial program
    /// state; it is required iff [`AnalysisKind::Ltl`] is requested.
    ///
    /// # Panics
    ///
    /// Panics when LTL is requested without a monitor — the caller
    /// validates analysis selections before building.
    #[must_use]
    pub fn build(self, ltl: Option<(Monitor, &ProgramState)>) -> AnalysisSuite {
        let mut ltl = ltl;
        let mut analyses: Vec<Box<dyn Analysis>> = Vec::with_capacity(self.kinds.len());
        for kind in &self.kinds {
            match kind {
                AnalysisKind::Ltl => {
                    let (monitor, initial) = ltl
                        .take()
                        .expect("LTL analysis requested without a monitor");
                    analyses.push(Box::new(StreamingAnalyzer::new(
                        monitor,
                        initial,
                        self.threads,
                        &self.config,
                        &self.registry,
                    )));
                }
                AnalysisKind::Race => {
                    let mut a = RaceAnalysis::new(self.threads, self.sync_vars.clone());
                    a.ring = self.registry.tracer().ring("analysis.race");
                    analyses.push(Box::new(a));
                }
                AnalysisKind::Atomicity => {
                    let mut a = AtomicityAnalysis::new(self.threads, self.sync_vars.clone());
                    a.ring = self.registry.tracer().ring("analysis.atomicity");
                    analyses.push(Box::new(a));
                }
            }
        }
        AnalysisSuite::new(analyses).with_telemetry(&self.registry)
    }
}

/// Synchronization-only happens-before clocks, shared by the race and
/// atomicity analyses.
///
/// Program order plus lock transfer: every event ticks its thread's
/// component; a write to a *synchronization variable* (the Section 3.1
/// lock pseudo-variables, or any variable the caller declares) joins the
/// thread's clock with the variable's clock and publishes the result back
/// — the mutex acquire/release edge. Crucially these clocks carry **no
/// data-causality edges**: Algorithm A's own `V_i` clocks order a read
/// after the write it observed, which would hide exactly the races and
/// serializability violations these analyses exist to find.
#[derive(Clone, Debug)]
pub(crate) struct SyncClocks {
    sync: BTreeSet<VarId>,
    clocks: Vec<VectorClock>,
    vars: BTreeMap<VarId, VectorClock>,
    transfers: u64,
}

impl SyncClocks {
    pub(crate) fn new(threads: usize, sync: BTreeSet<VarId>) -> Self {
        Self {
            sync,
            clocks: vec![VectorClock::with_threads(threads); threads.max(1)],
            vars: BTreeMap::new(),
            transfers: 0,
        }
    }

    pub(crate) fn is_sync(&self, var: VarId) -> bool {
        self.sync.contains(&var)
    }

    /// Lock-transfer joins performed so far.
    pub(crate) fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Advances the clocks past `event` and returns the thread's clock
    /// after it.
    pub(crate) fn observe(&mut self, event: &Event) -> VectorClock {
        let t = event.thread;
        if self.clocks.len() <= t.index() {
            self.clocks
                .resize(t.index() + 1, VectorClock::with_threads(self.clocks.len()));
        }
        self.clocks[t.index()].tick(t);
        if let EventKind::Write { var, .. } = event.kind {
            if self.sync.contains(&var) {
                let slot = self.vars.entry(var).or_default();
                self.clocks[t.index()].join(slot);
                *slot = self.clocks[t.index()].clone();
                self.transfers += 1;
            }
        }
        self.clocks[t.index()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::ThreadId;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const M: VarId = VarId(1);

    #[test]
    fn sync_clocks_order_lock_transfer() {
        let mut hb = SyncClocks::new(2, [M].into_iter().collect());
        let release = hb.observe(&Event::write(T0, M, 0));
        let acquire = hb.observe(&Event::write(T1, M, 1));
        assert!(release.le(&acquire), "{release} vs {acquire}");
        assert_eq!(hb.transfers(), 2);
    }

    #[test]
    fn sync_clocks_keep_data_accesses_concurrent() {
        let mut hb = SyncClocks::new(2, BTreeSet::new());
        let a = hb.observe(&Event::write(T0, X, 1));
        let b = hb.observe(&Event::write(T1, X, 2));
        assert!(a.concurrent(&b));
    }

    #[test]
    fn suite_reports_come_back_in_configuration_order() {
        let kinds = [AnalysisKind::Race, AnalysisKind::Atomicity];
        let suite = SuiteBuilder::new(&kinds, 2).build(None);
        assert_eq!(suite.kinds(), kinds.to_vec());
        let report = suite.finish(Exactness::Exact);
        let got: Vec<AnalysisKind> = report.reports.iter().map(AnalysisReport::kind).collect();
        assert_eq!(got, kinds.to_vec());
        assert!(report.satisfied());
        assert!(report.exactness().is_exact());
    }

    #[test]
    fn stranded_messages_degrade_every_report() {
        let kinds = [AnalysisKind::Race];
        let mut suite = SuiteBuilder::new(&kinds, 2).build(None);
        // Seq 2 from T0 without seq 1: held until the stream ends.
        let held = suite.push_all([Message {
            event: Event::write(T0, X, 1),
            clock: VectorClock::from_components(vec![2, 0]),
        }]);
        assert!(held.is_empty());
        let report = suite.finish(Exactness::Exact);
        // The missing seq 1 is committed as a gap, and the survivor is
        // released, renumbered past it, and analysed.
        assert_eq!(
            report.reassembly.gaps,
            vec![crate::GapRecord {
                thread: T0,
                from: 1,
                to: 1
            }]
        );
        let race = report.reports[0].as_race().expect("race report");
        assert_eq!(race.accesses_checked, 1);
        let (_, gaps) = report.reports[0].exactness().losses();
        assert_eq!(gaps, 1);
        assert!(!report.exactness().is_exact());
    }

    #[test]
    fn duplicates_are_dropped_not_counted_as_gaps() {
        let mut instr = jmpax_core::MvcInstrumentor::new(2, jmpax_core::Relevance::AllWrites);
        let msgs: Vec<Message> = (0..6)
            .filter_map(|i| instr.process(&Event::write(ThreadId(i % 2), X, i64::from(i))))
            .collect();
        let mut suite = SuiteBuilder::new(&[AnalysisKind::Race], 2).build(None);
        suite.push_all(msgs.iter().cloned());
        suite.push_all([msgs[2].clone()]);
        let report = suite.finish(Exactness::Exact);
        assert_eq!(report.reassembly.duplicates, 1);
        assert_eq!(report.reassembly.delivered, 6);
        assert_eq!(report.exactness(), Exactness::Exact);
    }

    #[test]
    fn empty_kind_list_defaults_to_ltl() {
        let b = SuiteBuilder::new(&[], 2);
        assert_eq!(b.kinds, vec![AnalysisKind::Ltl]);
    }
}
