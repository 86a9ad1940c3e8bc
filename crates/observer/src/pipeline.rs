//! One-call end-to-end analyses (the whole Fig. 4 architecture).
//!
//! The instrumentation module "parses the user specification, extracts the
//! set of shared variables it refers to, i.e., the relevant variables, and
//! then instruments the multithreaded program" — [`Pipeline::check_execution`]
//! does exactly this for a recorded execution under any selection of
//! analyses: parse the property, derive the relevance policy, run
//! Algorithm A, ship the messages to the observer, and return every
//! analysis's verdict together with the JPaX-style observed-run verdict.
//! [`Pipeline::check_messages`] is the observer half alone, for messages
//! received over a transport, in any order. Every analysis runs in one
//! [`AnalysisSuite`], whose reassembler is the one causal-delivery stage
//! and whose [`ReassemblyReport::exactness_after`] is the one loss rule;
//! [`transport_exactness`] applies that rule to a decoder's and a
//! reassembler's accounting. Every ptLTL verdict comes from one engine,
//! the streaming analyzer behind [`Pipeline::suite`].
//!
//! [`Pipeline::new`]`(`[`PipelineConfig`]`)` is the single entrypoint; the
//! config carries the optional telemetry [`Registry`] (traced or not), the
//! [`AnalysisConfig`] knobs (frontier cap, counterexample budget and
//! history, step cache) and the lock variables of the race and atomicity
//! analyses.

use std::collections::BTreeSet;
use std::fmt;

use jmpax_core::{AnalysisKind, Execution, Message, Relevance, SymbolTable, VarId};
use jmpax_instrument::ResilientDecode;
use jmpax_lattice::{
    AnalysisConfig, AnalysisReport, AnalysisSuite, Exactness, ReassemblyReport, StreamReport,
    SuiteBuilder, SuiteReport,
};
use jmpax_spec::{parse, Monitor, ParseError, ProgramState};
use jmpax_telemetry::trace::TraceKind;
use jmpax_telemetry::{Histogram, Registry, Stage};

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The ltl analysis was selected without a specification.
    MissingSpec,
    /// The specification did not parse.
    Spec(ParseError),
    /// The monitor could not be synthesized (too many temporal operators).
    Monitor(jmpax_spec::monitor::MonitorError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingSpec => write!(f, "the ltl analysis needs a specification"),
            PipelineError::Spec(e) => write!(f, "specification error: {e}"),
            PipelineError::Monitor(e) => write!(f, "monitor synthesis error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Spec(e)
    }
}
impl From<jmpax_spec::monitor::MonitorError> for PipelineError {
    fn from(e: jmpax_spec::monitor::MonitorError) -> Self {
        PipelineError::Monitor(e)
    }
}

/// The end-to-end result.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Every selected analysis's report, in selection order, and what the
    /// observer's reassembler did to the stream (reordering, duplicates,
    /// committed gaps).
    pub suite: SuiteReport,
    /// Index of the first violating state on the *observed* run (what a
    /// JPaX-style single-trace monitor reports), if ltl ran and the run
    /// violated.
    pub observed_violation: Option<usize>,
    /// The analysed messages, in the order the observer delivered them.
    pub messages: Vec<Message>,
    /// The relevance policy the execution was instrumented under.
    pub relevance: Relevance,
}

impl PipelineReport {
    /// Predictive analysis found something: a violating run, a race or an
    /// atomicity violation. With ltl alone, a violation the observed run
    /// did not exhibit is a *prediction* (`predicted() && !observed()`),
    /// the paper's headline capability.
    #[must_use]
    pub fn predicted(&self) -> bool {
        !self.suite.satisfied()
    }

    /// The observed run itself violated the property.
    #[must_use]
    pub fn observed(&self) -> bool {
        self.observed_violation.is_some()
    }

    /// The ptLTL report (counts, violations, counterexamples), if ltl ran.
    #[must_use]
    pub fn ltl(&self) -> Option<&StreamReport> {
        self.suite.reports.iter().find_map(|r| match r {
            AnalysisReport::Ltl(report) => Some(report),
            _ => None,
        })
    }
}

/// Configuration for [`Pipeline`]: observability sinks plus every analysis
/// knob, in one place. The default is the plain, untelemetered pipeline.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    telemetry: Registry,
    analysis: AnalysisConfig,
    sync_vars: BTreeSet<VarId>,
}

impl PipelineConfig {
    /// Starts from the defaults (disabled telemetry, exact analysis).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports pipeline telemetry into `registry`: per-stage wall-clock
    /// histograms (`observer.stage.*_ns`), verdict counters
    /// (`observer.verdict.*`), and every metric the instrumentor, monitor
    /// and lattice analysis publish. A disabled registry is free.
    ///
    /// A traced registry ([`Registry::traced`]) also records structured
    /// traces: pipeline stages as [`TraceKind::Stage`] spans on the
    /// `observer` lane, Algorithm A on the `core` lane, the analysis's
    /// level-by-level pass on the `lattice` lane, race and atomicity
    /// findings on `analysis.race` / `analysis.atomicity`, and committed
    /// gaps on `resilience`.
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Replaces the full [`AnalysisConfig`] (counterexample budget,
    /// frontier cap, counterexample history, step cache) at once.
    #[must_use]
    pub fn analysis(mut self, config: AnalysisConfig) -> Self {
        self.analysis = config;
        self
    }

    /// Declares the synchronization (lock) variables whose writes carry
    /// happens-before for the race and atomicity analyses (the
    /// Section 3.1 lock pseudo-variables, or any variable used as a
    /// flag/mutex).
    #[must_use]
    pub fn sync_vars(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.sync_vars = vars.into_iter().collect();
        self
    }
}

/// The one full-pipeline entrypoint: spec → relevance → Algorithm A →
/// observer → verdict, configured once via [`PipelineConfig`].
#[derive(Clone, Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    /// The `observer.stage.{instrument,analysis,jpax}_ns` histograms,
    /// resolved once from the configured registry.
    instrument_ns: Histogram,
    analysis_ns: Histogram,
    jpax_ns: Histogram,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new(PipelineConfig::default())
    }
}

impl Pipeline {
    /// Creates a pipeline with `config`.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let registry = &config.telemetry;
        Self {
            instrument_ns: registry.histogram("observer.stage.instrument_ns"),
            analysis_ns: registry.histogram("observer.stage.analysis_ns"),
            jpax_ns: registry.histogram("observer.stage.jpax_ns"),
            config,
        }
    }

    /// Runs the full pipeline over a recorded multithreaded execution:
    /// the analyses `kinds`, in order, over one causal delivery pass.
    /// An empty `kinds` is ltl alone, as for [`SuiteBuilder::new`].
    ///
    /// `spec_src` is the ptLTL property, required iff `kinds` includes
    /// [`AnalysisKind::Ltl`]. A given spec is parsed on every selection,
    /// so a malformed one is an error even without ltl; its monitor is
    /// built only when ltl runs. It is parsed against `symbols`, which
    /// must already map the execution's variable names (e.g. the table
    /// used to build the program). Relevance is chosen here, once: ltl
    /// alone instruments the writes of the formula's variables (the
    /// paper's policy); race and atomicity need every access, so any
    /// other selection instruments everything. Every lattice level is
    /// kept, so counterexamples reach the initial state, unless the
    /// configured [`AnalysisConfig::history`] says otherwise.
    /// When ltl ran, the run as observed is also checked, JPaX-style.
    ///
    /// # Errors
    ///
    /// [`PipelineError::MissingSpec`] when ltl is selected without a
    /// specification; [`PipelineError::Spec`] for a given spec that does
    /// not parse, on any selection; [`PipelineError::Monitor`] when ltl
    /// runs and monitor synthesis fails.
    pub fn check_execution(
        &self,
        execution: &Execution,
        kinds: &[AnalysisKind],
        spec_src: Option<&str>,
        symbols: &mut SymbolTable,
    ) -> Result<PipelineReport, PipelineError> {
        let registry = &self.config.telemetry;
        let mut ring = registry.tracer().ring("observer");

        let kinds = if kinds.is_empty() {
            &[AnalysisKind::Ltl][..]
        } else {
            kinds
        };
        let mut relevance = Relevance::Everything;
        let spec = Stage::lane(&ring);
        // A given spec is parsed on every selection, so a malformed one is
        // reported even when ltl does not run.
        let formula = spec_src.map(|src| parse(src, symbols)).transpose()?;
        let monitor = if kinds.contains(&AnalysisKind::Ltl) {
            let formula = formula.ok_or(PipelineError::MissingSpec)?;
            let monitor = formula.monitor()?.with_telemetry(registry);
            if kinds == [AnalysisKind::Ltl] {
                relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
            }
            Some(monitor)
        } else {
            None
        };
        if spec_src.is_some() {
            spec.end(&mut ring, TraceKind::Stage { name: "spec" });
        }

        let instrument = Stage::start(&self.instrument_ns, &ring);
        let messages = execution.instrument_with_telemetry(relevance.clone(), registry);
        instrument.end(&mut ring, TraceKind::Stage { name: "instrument" });

        let initial = ProgramState::from_map(execution.initial.clone());
        let report = self.observe(
            kinds,
            monitor,
            &initial,
            Exactness::Exact,
            u64::MAX,
            messages,
        );
        Ok(PipelineReport {
            relevance,
            ..report
        })
    }

    /// The observer half of [`Pipeline::check_execution`] with ltl alone,
    /// for messages that already exist — e.g. decoded from a transport, in
    /// any order, duplicates included: the LTL-only suite, the JPaX-style
    /// check of the run in the suite's delivery order, and the verdict
    /// counters. The suite's reassembler commits a gap as lost once
    /// `stall_budget` arrivals fail to fill it; a lossless transport passes
    /// `u64::MAX`, so only the end of the stream commits a gap and nothing
    /// that arrived is lost. `transport` is what the transport lost
    /// ([`Exactness::Exact`] when nothing was, else e.g. the decoder's
    /// [`jmpax_instrument::ResilientDecode::frames_lost`]), folded into the
    /// verdict's exactness by the one loss rule together with every gap
    /// the reassembler commits. Every lattice level is kept unless the
    /// configured [`AnalysisConfig::history`] says otherwise. The report's
    /// relevance is [`Relevance::AllWrites`]: the observer analyzes
    /// whatever arrived.
    #[must_use]
    pub fn check_messages(
        &self,
        monitor: Monitor,
        initial: &ProgramState,
        transport: Exactness,
        stall_budget: u64,
        messages: Vec<Message>,
    ) -> PipelineReport {
        self.observe(
            &[AnalysisKind::Ltl],
            Some(monitor),
            initial,
            transport,
            stall_budget,
            messages,
        )
    }

    /// The observer half shared by [`Pipeline::check_execution`] and
    /// [`Pipeline::check_messages`]: one suite keeping every level unless
    /// a history is configured, then the JPaX check when ltl ran.
    fn observe(
        &self,
        kinds: &[AnalysisKind],
        monitor: Option<Monitor>,
        initial: &ProgramState,
        transport: Exactness,
        stall_budget: u64,
        messages: Vec<Message>,
    ) -> PipelineReport {
        let registry = &self.config.telemetry;
        let mut ring = registry.tracer().ring("observer");

        let analysis = Stage::start(&self.analysis_ns, &ring);
        let threads = messages
            .iter()
            .map(|m| m.thread().index() + 1)
            .max()
            .unwrap_or(1);
        let config = AnalysisConfig {
            history: Some(self.config.analysis.history.unwrap_or(usize::MAX)),
            ..self.config.analysis
        };
        let mut suite = self
            .build_suite(
                kinds,
                monitor.clone().map(|m| (m, initial)),
                threads,
                &config,
            )
            .with_stall_budget(stall_budget);
        let mut delivered = Vec::with_capacity(messages.len());
        for m in messages {
            delivered.extend(suite.push(m));
        }
        delivered.extend(suite.end_stream());
        let suite = self.finish_suite(suite, transport);
        analysis.end(&mut ring, TraceKind::Stage { name: "analysis" });

        let observed_violation = monitor.and_then(|monitor| {
            let jpax = Stage::start(&self.jpax_ns, &ring);
            let observed = crate::jpax::observed_violation(&monitor, initial, &delivered);
            jpax.end(&mut ring, TraceKind::Stage { name: "jpax" });
            observed
        });
        if observed_violation.is_some() {
            registry.counter("observer.verdict.observed").inc();
        }
        PipelineReport {
            suite,
            observed_violation,
            messages: delivered,
            relevance: Relevance::AllWrites,
        }
    }

    /// Runs an ordered *suite* of analyses — ptLTL, race detection,
    /// atomicity checking — over one shared causal delivery pass of an
    /// already-decoded message stream, e.g. a `jmpax serve` tenant session:
    /// N analyses cost one decode→reassemble→deliver pass, not N. The
    /// configured [`AnalysisConfig`] and telemetry registry apply; an unset
    /// history keeps the paper's two levels.
    ///
    /// `kinds` selects and orders the analyses. `ltl` supplies the monitor
    /// and initial state, required iff the selection includes
    /// [`AnalysisKind::Ltl`]. Messages may arrive in any order; the
    /// suite's reassembler delivers them causally and commits what never
    /// arrived as gaps at the end of the stream. `transport` carries
    /// upstream losses to fold into every report's exactness
    /// ([`AnalysisSuite::finish`]).
    ///
    /// # Panics
    ///
    /// Panics when the selection includes LTL but `ltl` is `None` —
    /// validate selections (e.g. with [`AnalysisKind::parse_list`])
    /// before calling.
    pub fn check_stream_suite(
        &self,
        kinds: &[AnalysisKind],
        ltl: Option<(Monitor, &ProgramState)>,
        threads: usize,
        transport: jmpax_lattice::Exactness,
        messages: impl IntoIterator<Item = Message>,
    ) -> SuiteReport {
        let mut suite = self.suite(kinds, ltl, threads);
        suite.push_all(messages);
        self.finish_suite(suite, transport)
    }

    /// Builds the analysis suite [`Pipeline::check_stream_suite`] runs,
    /// without feeding it: callers that receive a stream incrementally (a
    /// `jmpax serve` session) set the reassembler's stall budget
    /// ([`AnalysisSuite::with_stall_budget`]), push messages as they
    /// arrive and close it with [`Pipeline::finish_suite`]. Arguments and
    /// panics are those of [`Pipeline::check_stream_suite`].
    #[must_use]
    pub fn suite(
        &self,
        kinds: &[AnalysisKind],
        ltl: Option<(Monitor, &ProgramState)>,
        threads: usize,
    ) -> AnalysisSuite {
        self.build_suite(kinds, ltl, threads, &self.config.analysis)
    }

    /// [`Pipeline::suite`] under an explicit analysis configuration.
    fn build_suite(
        &self,
        kinds: &[AnalysisKind],
        ltl: Option<(Monitor, &ProgramState)>,
        threads: usize,
        config: &AnalysisConfig,
    ) -> AnalysisSuite {
        SuiteBuilder::new(kinds, threads.max(1))
            .sync_vars(self.config.sync_vars.iter().copied())
            .config(config)
            .telemetry(&self.config.telemetry)
            .build(ltl)
    }

    /// Closes a suite built by [`Pipeline::suite`], folding `transport`
    /// losses into every report, and counts the verdict.
    #[must_use]
    pub fn finish_suite(
        &self,
        suite: AnalysisSuite,
        transport: jmpax_lattice::Exactness,
    ) -> SuiteReport {
        let registry = &self.config.telemetry;
        let report = suite.finish(transport);
        if report.satisfied() {
            registry.counter("observer.verdict.satisfied").inc();
        } else {
            registry.counter("observer.verdict.predicted").inc();
        }
        report
    }
}

/// The one transport-loss rule applied to a decoded and reassembled
/// stream: the reassembler's skipped gaps, plus each lost frame it could
/// not notice — a corrupted frame at the end of a thread's stream leaves no
/// later message to reveal the gap — so a damaged stream can never yield
/// an Exact verdict. [`AnalysisSuite::finish`] applies the same rule
/// ([`ReassemblyReport::exactness_after`]).
#[must_use]
pub fn transport_exactness(decoded: &ResilientDecode, reassembly: &ReassemblyReport) -> Exactness {
    reassembly.exactness_after(Exactness::degraded(0, decoded.frames_lost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::ThreadId;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    /// Example 2's property.
    const SPEC: &str = "(x > 0) -> [y = 0, y > z)";

    /// Example 2 of the paper as a recorded execution.
    fn example2(symbols: &mut SymbolTable) -> Execution {
        let x = symbols.intern("x");
        let y = symbols.intern("y");
        let z = symbols.intern("z");
        let mut ex = Execution::new()
            .with_initial(x, -1)
            .with_initial(y, 0)
            .with_initial(z, 0);
        // Observed interleaving: x++ (T1); z=x+1 (T2); y=x+1 (T1); x++ (T2).
        ex.read(T1, x);
        ex.write(T1, x, 0);
        ex.read(T2, x);
        ex.write(T2, z, 1);
        ex.read(T1, x);
        ex.write(T1, y, 1);
        ex.read(T2, x);
        ex.write(T2, x, 1);
        ex
    }

    #[test]
    fn full_pipeline_on_example2() {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, &[AnalysisKind::Ltl], Some(SPEC), &mut syms)
            .unwrap();
        assert!(report.predicted());
        assert!(!report.observed(), "observed run is successful");
        assert_eq!(report.ltl().unwrap().total_runs, 3);
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        assert_eq!(report.messages.len(), 4);
        // The counterexample is the whole violating run.
        let ce = report.ltl().unwrap().violations[0]
            .counterexample
            .as_ref()
            .unwrap();
        assert!(ce.is_complete());
        assert_eq!(ce.event_count(), 4);
        // Relevance was derived from the formula: writes of x, y, z.
        assert!(matches!(report.relevance, Relevance::WritesOf(ref s) if s.len() == 3));
    }

    #[test]
    fn any_selection_runs_through_check_execution() {
        // ltl next to race instruments every access: the same verdict over
        // the 8 reads and writes, plus the race findings, in one pass.
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let kinds = [AnalysisKind::Ltl, AnalysisKind::Race];
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, &kinds, Some(SPEC), &mut syms)
            .unwrap();
        assert_eq!(report.relevance, Relevance::Everything);
        assert_eq!(report.messages.len(), 8);
        assert!(report.predicted());
        assert!(!report.observed(), "observed run is successful");
        assert!(!report.ltl().unwrap().satisfied());
        assert!(report.suite.get(AnalysisKind::Race).unwrap().findings() > 0);

        // race alone needs no spec, checks no observed run and has no
        // ltl report.
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, &[AnalysisKind::Race], None, &mut syms)
            .unwrap();
        assert!(report.predicted());
        assert!(!report.observed());
        assert!(report.ltl().is_none());

        // An empty selection is ltl alone.
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, &[], Some(SPEC), &mut syms)
            .unwrap();
        assert!(matches!(report.relevance, Relevance::WritesOf(ref s) if s.len() == 3));
        assert_eq!(report.suite.reports.len(), 1);
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
    }

    #[test]
    fn observability_pipeline_records_all_lanes() {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let registry = Registry::enabled().traced();
        let report = Pipeline::new(PipelineConfig::new().telemetry(&registry))
            .check_execution(&ex, &[AnalysisKind::Ltl], Some(SPEC), &mut syms)
            .unwrap();
        assert!(report.predicted());
        assert!(report.ltl().unwrap().completed);
        assert_eq!(report.ltl().unwrap().violations.len(), 1);
        // The one traced pass publishes each lattice counter once.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lattice.states_explored"), Some(7));
        assert_eq!(snap.counter("analysis.ltl.states_explored"), Some(7));
        assert_eq!(snap.counter("lattice.total_runs"), Some(3));
        assert_eq!(snap.counter("lattice.violating_runs"), Some(1));

        let data = registry.tracer().collect();
        let lanes: Vec<&str> = data.lanes.iter().map(|l| l.lane.as_str()).collect();
        for lane in ["observer", "core", "lattice"] {
            assert!(lanes.contains(&lane), "missing lane {lane}: {lanes:?}");
        }
        let stages: Vec<&str> = data
            .lanes
            .iter()
            .filter(|l| l.lane == "observer")
            .flat_map(|l| &l.events)
            .filter_map(|r| match r.kind {
                TraceKind::Stage { name } => Some(name),
                _ => None,
            })
            .collect();
        for stage in ["spec", "instrument", "jpax", "analysis"] {
            assert!(stages.contains(&stage), "missing stage {stage}: {stages:?}");
        }
        // The lattice lane must carry sealed levels: one per write message.
        let sealed = data
            .lanes
            .iter()
            .filter(|l| l.lane == "lattice")
            .flat_map(|l| &l.events)
            .filter(|r| matches!(r.kind, TraceKind::LevelSealed { .. }))
            .count();
        assert_eq!(sealed, 4);
        // And the causal DAG over traced messages obeys Theorem 3.
        let msgs = data.causal_messages();
        for e in jmpax_telemetry::trace::causal_edges(&msgs) {
            let from = msgs
                .iter()
                .find(|m| (m.thread, m.seq) == (e.from.0, e.from.1))
                .unwrap();
            let to = msgs
                .iter()
                .find(|m| (m.thread, m.seq) == (e.to.0, e.to.1))
                .unwrap();
            assert!(from.causally_precedes(to));
        }
    }

    #[test]
    fn spec_errors_are_reported() {
        let mut syms = SymbolTable::new();
        let ex = Execution::new();
        assert!(matches!(
            Pipeline::new(PipelineConfig::new()).check_execution(
                &ex,
                &[AnalysisKind::Ltl],
                Some("x >"),
                &mut syms
            ),
            Err(PipelineError::Spec(_))
        ));
        assert!(matches!(
            Pipeline::new(PipelineConfig::new()).check_execution(
                &ex,
                &[AnalysisKind::Race, AnalysisKind::Ltl],
                None,
                &mut syms
            ),
            Err(PipelineError::MissingSpec)
        ));
    }

    /// Example 2's messages for the spec over x, y, z, with its monitor
    /// and initial state.
    fn example2_messages() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let monitor = parse(SPEC, &mut syms).unwrap().monitor().unwrap();
        let vars: Vec<_> = ["x", "y", "z"]
            .iter()
            .map(|n| syms.lookup(n).unwrap())
            .collect();
        let messages = ex.instrument(Relevance::writes_of(vars));
        (messages, monitor, ProgramState::from_map(ex.initial))
    }

    /// Decodes a whole received buffer: one push, then the accounting.
    fn decode(bytes: &[u8]) -> (Vec<Message>, ResilientDecode) {
        let mut decoder = jmpax_instrument::ResilientFrameDecoder::new();
        let messages = decoder.push(bytes);
        (messages, decoder.finish())
    }

    /// What `jmpax chaos` does with received bytes: decode, then check
    /// the decoded messages with `stall_budget` and the decoder's losses.
    fn check_bytes(
        bytes: &[u8],
        monitor: Monitor,
        initial: &ProgramState,
        stall_budget: u64,
    ) -> (PipelineReport, ResilientDecode) {
        let (messages, decoded) = decode(bytes);
        let report = Pipeline::new(PipelineConfig::new()).check_messages(
            monitor,
            initial,
            Exactness::degraded(0, decoded.frames_lost()),
            stall_budget,
            messages,
        );
        (report, decoded)
    }

    fn encode(messages: &[Message]) -> bytes::BytesMut {
        let mut buf = bytes::BytesMut::new();
        for m in messages {
            jmpax_instrument::encode_frame_v2(m, &mut buf);
        }
        buf
    }

    #[test]
    fn frames_pipeline_round_trip() {
        use jmpax_instrument::{EventSink, FrameSink};

        let (messages, monitor, initial) = example2_messages();
        let sink = FrameSink::new();
        let mut w = sink.clone();
        for m in &messages {
            w.emit(m);
        }
        let (decoded_msgs, decoded) = decode(&sink.take_bytes());
        assert!(decoded.is_clean());
        let report = Pipeline::new(PipelineConfig::new()).check_messages(
            monitor,
            &initial,
            Exactness::Exact,
            u64::MAX,
            decoded_msgs,
        );
        assert!(report.predicted());
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        assert_eq!(report.messages, messages);
    }

    #[test]
    fn resilient_on_clean_v2_stream_is_exact_and_matches_check_frames() {
        // Decode + reassembly + the transport rule over a clean stream give
        // exactly the verdict of the plain observer over the same messages.
        let (messages, monitor, initial) = example2_messages();
        let plain = Pipeline::new(PipelineConfig::new()).check_messages(
            monitor.clone(),
            &initial,
            Exactness::Exact,
            u64::MAX,
            messages.clone(),
        );
        let (report, decoded) = check_bytes(&encode(&messages), monitor, &initial, 8);
        assert!(decoded.is_clean());
        assert!(transport_exactness(&decoded, &report.suite.reassembly).is_exact());
        assert!(report.suite.exactness().is_exact());
        assert!(report.predicted());
        assert_eq!(report.ltl().unwrap().total_runs, 3);
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        assert_eq!(
            report.ltl().unwrap().states_explored,
            plain.ltl().unwrap().states_explored
        );
        assert_eq!(report.observed_violation, plain.observed_violation);
        assert_eq!(report.messages, messages);
    }

    #[test]
    fn resilient_survives_a_corrupt_frame_and_reports_degraded() {
        let (messages, monitor, initial) = example2_messages();
        let mut buf = bytes::BytesMut::new();
        let mut offsets = Vec::new();
        for m in &messages {
            offsets.push(buf.len());
            jmpax_instrument::encode_frame_v2(m, &mut buf);
        }
        // Flip a payload bit in the second frame: its CRC fails, the frame
        // is dropped, and the reassembler must skip the resulting gap.
        buf[offsets[1] + 12] ^= 0x01;
        let (report, decoded) = check_bytes(&buf, monitor, &initial, 2);
        assert_eq!(decoded.frames_corrupt, 1);
        assert_eq!(decoded.frames_ok as usize, messages.len() - 1);
        assert_eq!(report.suite.reassembly.skipped_gaps(), 1);
        assert!(!report.suite.exactness().is_exact());
        assert_eq!(report.messages.len(), messages.len() - 1);
    }

    #[test]
    fn transport_losses_the_reassembler_cannot_see_still_degrade() {
        // Corrupt the *last* frame: no later message reveals the gap to the
        // reassembler, so only the transport rule keeps the verdict honest.
        let (messages, monitor, initial) = example2_messages();
        let mut buf = encode(&messages);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let (report, decoded) = check_bytes(&buf, monitor, &initial, 8);
        assert_eq!(decoded.frames_corrupt, 1);
        assert_eq!(report.suite.reassembly.messages_lost(), 0);
        assert_eq!(
            transport_exactness(&decoded, &report.suite.reassembly),
            Exactness::degraded(0, 1)
        );
        assert_eq!(report.suite.exactness(), Exactness::degraded(0, 1));
    }

    #[test]
    fn bad_frames_are_rejected() {
        // A CRC-valid frame whose payload is not a message is counted
        // corrupt, never analyzed, and degrades the verdict.
        use jmpax_instrument::codec::{crc32, MAGIC, VERSION};

        let payload = [0u8, 0, 0, 0, 9, 0, 0];
        let mut frame = vec![MAGIC, VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut syms = SymbolTable::new();
        let monitor = parse("true", &mut syms).unwrap().monitor().unwrap();
        let (report, decoded) = check_bytes(&frame, monitor, &ProgramState::new(), 8);
        assert_eq!((decoded.frames_ok, decoded.frames_corrupt), (0, 1));
        assert!(report.messages.is_empty());
        assert!(!report.suite.exactness().is_exact());
    }
}
