//! Online, level-by-level predictive analysis with two-level storage.
//!
//! Section 4: "since events are received incrementally from the instrumented
//! program, one can buffer them at the observer's side and then build the
//! lattice on a level-by-level basis in a top-down manner, as the events
//! become available … only one cut in the computation lattice is needed at
//! any time, in particular one level, which significantly reduces the space
//! required by the proposed predictive analysis algorithm."
//!
//! [`StreamingAnalyzer`] is the ptLTL [`Analysis`] of the suite: the
//! [`AnalysisSuite`](crate::AnalysisSuite) buffers out-of-order messages
//! once and hands the analyzer each one in causal order. The analyzer
//! advances the lattice frontier one level at a time whenever every
//! frontier cut has all the messages it needs, and retains only the
//! current frontier plus the delivered per-thread prefixes. Each frontier
//! node carries its alive monitor memories with run-prefix counts, so the
//! report's total and violating run counts are exact sums over levels.
//! Violations are reported with the cut, state and monitor memory, plus a
//! counterexample that reaches the initial state whenever the retained
//! history ([`AnalysisConfig::history`]) covers the whole run.

use std::collections::VecDeque;

use jmpax_core::{AnalysisKind, Event, Message, ThreadId, Value, VarId, VectorClock};
use jmpax_spec::{Monitor, MonitorState, ProgramState, StepCache};
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::{Counter, Gauge, Histogram, Registry, Stage};

use crate::analyses::{Analysis, AnalysisReport};
use crate::config::AnalysisConfig;
use crate::cut::Cut;
use crate::merge::{self, Heads, LevelKeys, MergeInput};
use crate::reassemble::Exactness;

/// One step of a (counter-example) run: the thread that moved, the message
/// consumed, and the global state reached. The initial state of a complete
/// run has no thread/message.
#[derive(Clone, Debug)]
pub struct RunStep {
    /// The advancing thread (`None` for the initial state).
    pub thread: Option<ThreadId>,
    /// The relevant message consumed (`None` for the initial state).
    pub message: Option<Message>,
    /// The global state after the step.
    pub state: ProgramState,
}

/// A violating run, oldest step first, ending at the violating state. It
/// starts at the initial state when the retained history covers the whole
/// run; otherwise it holds the run's most recent steps.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The steps, oldest first.
    pub steps: Vec<RunStep>,
}

impl Counterexample {
    /// The state sequence of the run.
    #[must_use]
    pub fn states(&self) -> Vec<ProgramState> {
        self.steps.iter().map(|s| s.state.clone()).collect()
    }

    /// Length in events (steps minus the initial state, when present).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.steps.iter().filter(|s| s.thread.is_some()).count()
    }

    /// True when the run starts at the initial state (the bottom cut).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.steps.first().is_some_and(|s| s.thread.is_none())
    }
}

/// A predicted violation: the property evaluated to false at `cut`.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The cut at which the property failed.
    pub cut: Cut,
    /// The global state at that cut.
    pub state: ProgramState,
    /// The monitor memory *after* the failing step (identifies the history
    /// class of the runs that fail here).
    pub memory: MonitorState,
    /// A violating run ending here, for the first
    /// [`AnalysisConfig::max_counterexamples`] violations.
    pub counterexample: Option<Counterexample>,
}

/// Summary statistics of a completed streaming analysis.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// All violations found, in discovery order.
    pub violations: Vec<Violation>,
    /// Total lattice nodes explored (states analyzed).
    pub states_explored: u64,
    /// Number of frontier advances performed (lattice levels built).
    pub levels_built: u32,
    /// Peak width of the frontier — the paper's "only two consecutive
    /// levels" memory bound in action.
    pub peak_frontier: usize,
    /// True when the analysis consumed every message (the frontier reached
    /// the top cut).
    pub completed: bool,
    /// Whether the verdict covers every consistent run, or a frontier cap
    /// pruned some cuts ([`AnalysisConfig::frontier_cap`]).
    pub exactness: Exactness,
    /// Relevant non-write messages encountered during expansion (exotic
    /// relevance policies); each was treated as a stutter step instead of
    /// aborting the analysis.
    pub non_writes_skipped: u64,
    /// Multithreaded runs (bottom→top paths) consistent with the
    /// computation, or with its explored part under a frontier cap.
    /// Saturates at `u128::MAX` ([`StreamReport::SATURATED`]).
    pub total_runs: u128,
    /// Runs that violate the property at some state. Saturating, like
    /// `total_runs`.
    pub violating_runs: u128,
}

impl StreamReport {
    /// The value a run count saturates at: counts are combinatorial and a
    /// count that reaches this value means "at least this many".
    pub const SATURATED: u128 = u128::MAX;

    /// No violation was found on any run.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.violations.is_empty()
    }

    /// Lattice levels reached, bottom cut included (`levels_built + 1`).
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.levels_built + 1
    }

    /// Publishes this report's statistics into `registry` under the same
    /// metric names a suite built with
    /// [`SuiteBuilder::telemetry`](crate::SuiteBuilder::telemetry) uses.
    /// Use this when the analysis ran *without* an attached registry; a
    /// telemetered analyzer has already reported these incrementally.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("lattice.states_explored")
            .add(self.states_explored);
        registry
            .counter("lattice.levels_built")
            .add(u64::from(self.levels_built));
        registry
            .gauge("lattice.peak_frontier")
            .set(self.peak_frontier as u64);
        registry
            .counter("lattice.violations")
            .add(self.violations.len() as u64);
        registry
            .counter("lattice.frontier_pruned")
            .add(self.exactness.losses().0);
        registry
            .counter("lattice.non_writes_skipped")
            .add(self.non_writes_skipped);
        registry
            .counter("lattice.total_runs")
            .add(saturating_u64(self.total_runs));
        registry
            .counter("lattice.violating_runs")
            .add(saturating_u64(self.violating_runs));
        self.record_analysis(registry);
    }

    /// Publishes the uniform `analysis.ltl.*` metric family every
    /// pluggable analysis exposes (`crate::analyses`). The legacy
    /// `lattice.*` names above stay for dashboards; these are the
    /// cross-analysis view.
    pub fn record_analysis(&self, registry: &Registry) {
        registry
            .counter("analysis.ltl.violations")
            .add(self.violations.len() as u64);
        registry
            .counter("analysis.ltl.states_explored")
            .add(self.states_explored);
        registry
            .counter("analysis.ltl.levels_built")
            .add(u64::from(self.levels_built));
        let (pruned, gaps) = self.exactness.losses();
        registry.counter("analysis.ltl.frontier_pruned").add(pruned);
        registry.counter("analysis.ltl.gaps_skipped").add(gaps);
    }
}

/// Run counts are `u128`; counters are `u64`. Both saturate.
fn saturating_u64(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A sealed lattice level: its cuts in ascending order, each with its
/// node. Parent links and the merge's runs index into this order.
pub(crate) type Level = Vec<(Cut, FrontierNode)>;

/// The edge that first produced an alive memory: how a counterexample
/// walks back through the retained history.
#[derive(Clone, Copy, Debug)]
struct Parent {
    /// The source node's index in its (sorted) level.
    src: u32,
    /// The thread whose message the edge consumed.
    thread: u32,
    /// The source memory the edge stepped.
    mem: MonitorState,
}

/// One alive monitor memory at a frontier cut.
#[derive(Clone, Debug)]
struct Alive {
    /// Run prefixes (bottom→cut paths) reaching the cut in this memory.
    runs: u128,
    /// The edge that first produced this memory; `None` at the bottom cut.
    parent: Option<Parent>,
}

/// A node's alive memories in ascending order. Most nodes hold one, which
/// lives inline; only a second memory allocates.
#[derive(Clone, Debug, Default)]
enum Mems {
    #[default]
    Empty,
    One((MonitorState, Alive)),
    Many(Vec<(MonitorState, Alive)>),
}

impl Mems {
    fn as_slice(&self) -> &[(MonitorState, Alive)] {
        match self {
            Mems::Empty => &[],
            Mems::One(mem) => std::slice::from_ref(mem),
            Mems::Many(mems) => mems,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(MonitorState, Alive)] {
        match self {
            Mems::Empty => &mut [],
            Mems::One(mem) => std::slice::from_mut(mem),
            Mems::Many(mems) => mems,
        }
    }

    /// Inserts `mem` at `i`, keeping the order.
    fn insert(&mut self, i: usize, mem: (MonitorState, Alive)) {
        *self = match std::mem::take(self) {
            Mems::Empty => Mems::One(mem),
            Mems::One(first) => {
                let mut mems = vec![first];
                mems.insert(i, mem);
                Mems::Many(mems)
            }
            Mems::Many(mut mems) => {
                mems.insert(i, mem);
                Mems::Many(mems)
            }
        };
    }
}

/// One lattice node: its state, packed once, and the run prefixes that
/// reach it, grouped by monitor memory.
#[derive(Clone, Debug, Default)]
pub(crate) struct FrontierNode {
    state: ProgramState,
    /// `state`'s atoms packed by [`Monitor::valuation`] when the node is
    /// created; every in-edge steps with it. `None` past 64 atoms.
    valuation: Option<u64>,
    /// Alive memories in ascending order, the order expansion steps them
    /// in.
    mems: Mems,
    /// Run prefixes reaching this cut that already violated the property.
    violated: u128,
    /// Dead memories in ascending order (violation dedup).
    dead: Vec<MonitorState>,
}

impl FrontierNode {
    fn new(state: ProgramState, valuation: Option<u64>) -> Self {
        Self {
            state,
            valuation,
            ..Self::default()
        }
    }

    fn alive(&self, mem: MonitorState) -> Option<&Alive> {
        let mems = self.mems.as_slice();
        let i = mems.binary_search_by_key(&mem, |&(m, _)| m).ok()?;
        Some(&mems[i].1)
    }

    /// Folds the edge `src --thread-->` into this successor: the source's
    /// violated prefixes stay violated, and every alive memory is stepped
    /// on this node's valuation. Returns the memories that died here for
    /// the first time, each with the edge whose step failed. Run counts
    /// are sums, so they do not depend on the order edges are applied in;
    /// parents and deaths do, which is why the merge applies edges in
    /// ascending (source cut, thread) order.
    fn absorb(
        &mut self,
        src: u32,
        thread: u32,
        src_node: &FrontierNode,
        stepper: &mut Stepper<'_>,
    ) -> Vec<(MonitorState, Parent)> {
        let mut died = Vec::new();
        self.violated = self.violated.saturating_add(src_node.violated);
        for &(mem, ref alive) in src_node.mems.as_slice() {
            let (next, ok) = stepper.step(mem, self.valuation, &self.state);
            let parent = Parent { src, thread, mem };
            if ok {
                match self
                    .mems
                    .as_slice()
                    .binary_search_by_key(&next, |&(m, _)| m)
                {
                    Ok(i) => {
                        let runs = &mut self.mems.as_mut_slice()[i].1.runs;
                        *runs = runs.saturating_add(alive.runs);
                    }
                    Err(i) => self.mems.insert(
                        i,
                        (
                            next,
                            Alive {
                                runs: alive.runs,
                                parent: Some(parent),
                            },
                        ),
                    ),
                }
            } else {
                self.violated = self.violated.saturating_add(alive.runs);
                if let Err(i) = self.dead.binary_search(&next) {
                    self.dead.insert(i, next);
                    died.push((next, parent));
                }
            }
        }
        died
    }
}

/// Steps monitor memories along lattice edges: on the successor's packed
/// valuation, through the step cache when enabled, with one
/// [`TraceKind::PropertyEvaluated`] instant per step.
pub(crate) struct Stepper<'a> {
    monitor: &'a Monitor,
    cache: Option<&'a mut StepCache>,
    ring: &'a mut TraceRing,
    /// Level index being sealed, for trace records.
    level: u64,
}

impl Stepper<'_> {
    fn step(
        &mut self,
        mem: MonitorState,
        valuation: Option<u64>,
        state: &ProgramState,
    ) -> (MonitorState, bool) {
        let (next, ok) = match valuation {
            Some(v) => self.monitor.step_valued(mem, v, self.cache.as_deref_mut()),
            None => self.monitor.step(mem, state),
        };
        if self.ring.is_enabled() {
            self.ring.record(TraceKind::PropertyEvaluated {
                level: self.level,
                violated: !ok,
            });
        }
        (next, ok)
    }
}

/// A violation discovered during level expansion, before its
/// counterexample is reconstructed. Expansion reports seeds; the analyzer
/// sorts them and walks the retained history once the level is built.
#[derive(Debug)]
struct ViolationSeed {
    cut: Cut,
    state: ProgramState,
    memory: MonitorState,
    /// The edge whose step failed.
    pred: Parent,
}

/// The outcome of expanding one sealed level.
#[derive(Debug, Default)]
pub(crate) struct LevelExpansion {
    /// The next level in ascending cut order, as the merge creates it.
    next: Level,
    seeds: Vec<ViolationSeed>,
    new_states: u64,
    deduped: u64,
    /// Monitor steps performed (logical count: step-cache hits included,
    /// so traces and reports stay bit-identical across cache settings).
    evals: u64,
    /// Relevant non-write messages stepped over as stutters.
    non_writes: u64,
}

impl LevelExpansion {
    /// An empty expansion that builds its level into `buffer`'s allocation.
    fn into_buffer(mut buffer: Level) -> Self {
        buffer.clear();
        Self {
            next: buffer,
            ..Self::default()
        }
    }

    /// Applies the edge from `src` (the source's index in its level) on
    /// thread `thread`. `new` says the merge reached a successor no
    /// earlier edge produced, which creates its node, computing its state
    /// and valuation once; otherwise the edge folds into the node created
    /// last. `update` is the write the edge applies, `None` for a relevant
    /// non-write (exotic relevance policies), which steps over as a
    /// stutter.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn edge(
        &mut self,
        stepper: &mut Stepper<'_>,
        new: bool,
        src: u32,
        src_cut: &Cut,
        src_node: &FrontierNode,
        thread: u32,
        update: Option<(VarId, Value)>,
    ) {
        if update.is_none() {
            self.non_writes += 1;
        }
        if new {
            self.new_states += 1;
            // States are uniquely determined by the cut, so the first
            // visiting edge computes the node's state and valuation once
            // and later edges reuse them. A stutter repeats the source's
            // state, and with it the source's valuation.
            let node = match update {
                Some((var, value)) => {
                    let state = src_node.state.updated(var, value);
                    let valuation = stepper.monitor.revalued(src_node.valuation, &state, var);
                    FrontierNode::new(state, valuation)
                }
                None => FrontierNode::new(src_node.state.clone(), src_node.valuation),
            };
            self.next.push((src_cut.advanced(ThreadId(thread)), node));
        } else {
            self.deduped += 1;
        }
        let (cut, node) = self
            .next
            .last_mut()
            .expect("the merge creates a successor before folding into it");
        self.evals += src_node.mems.as_slice().len() as u64;
        for (memory, pred) in node.absorb(src, thread, src_node, stepper) {
            self.seeds.push(ViolationSeed {
                cut: cut.clone(),
                state: node.state.clone(),
                memory,
                pred,
            });
        }
    }
}

/// Online predictive analyzer with two-level storage: the suite's ptLTL
/// [`Analysis`]. [`SuiteBuilder::build`](crate::SuiteBuilder::build)
/// constructs it from an [`AnalysisConfig`]; the suite feeds it.
///
/// ```
/// use jmpax_core::{AnalysisKind, Event, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
/// use jmpax_lattice::{Exactness, SuiteBuilder};
/// use jmpax_spec::{parse, ProgramState};
///
/// // Property: x never decreases below zero.
/// let mut syms = SymbolTable::new();
/// let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
///
/// let mut instr = MvcInstrumentor::new(1, Relevance::AllWrites);
/// let initial = ProgramState::new();
/// let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], 1).build(Some((monitor, &initial)));
/// for value in [1i64, 2, -1] {
///     let msg = instr.process(&Event::write(ThreadId(0), VarId(0), value)).unwrap();
///     suite.push_all([msg]);
/// }
/// let report = suite.finish(Exactness::Exact).into_ltl();
/// assert_eq!(report.violations.len(), 1); // the write of -1
/// ```
#[derive(Debug)]
pub struct StreamingAnalyzer {
    monitor: Monitor,
    threads: usize,
    /// Causally delivered messages per thread (contiguous prefixes).
    delivered: Vec<Vec<Message>>,
    /// Every thread's stream is complete (set by the suite's finish).
    ended: bool,
    /// The sealed level the next expansion starts from.
    frontier: Level,
    /// Per-thread maximum of the frontier's counts, computed when a level
    /// seals: the frontier is expandable exactly when each thread has
    /// delivered past its maximum or ended, an O(threads) check per push.
    frontier_max: Vec<u32>,
    /// Retired levels, newest last, bounded by `history`.
    past: VecDeque<Level>,
    /// How many retired levels to keep for counterexamples.
    history: usize,
    /// Reconstruct counterexamples for at most this many violations.
    max_counterexamples: usize,
    violations: Vec<Violation>,
    states_explored: u64,
    levels_built: u32,
    peak_frontier: usize,
    /// Beam width limit for the frontier; `None` explores exhaustively.
    frontier_cap: Option<usize>,
    /// Cuts pruned by the cap (runs the verdict no longer covers).
    dropped_cuts: u64,
    /// Relevant non-writes stepped over instead of panicking.
    non_writes_skipped: u64,
    /// Memoize monitor steps within each level.
    eval_cache: bool,
    /// The per-level step memo, cleared at every seal; its hits count
    /// into `spec.eval_cache_hits`.
    step_cache: StepCache,
    /// The packed frontier keys and merge heads, and a retired level's
    /// allocation for the next one, reused level after level.
    keys: LevelKeys,
    heads: Heads,
    spare: Level,
    /// `lattice.*` metrics; no-ops under a disabled registry.
    tel_states: Counter,
    tel_deduped: Counter,
    tel_levels: Counter,
    tel_violations: Counter,
    tel_width: Histogram,
    tel_peak: Gauge,
    tel_pruned: Counter,
    tel_non_writes: Counter,
    tel_total_runs: Counter,
    tel_violating_runs: Counter,
    /// Per-level stage latencies: frontier expansion
    /// (`lattice.stage.expand_ns`) and the post-expansion seal —
    /// counterexamples, pruning, retiring the level
    /// (`lattice.stage.seal_ns`).
    tel_expand: Histogram,
    tel_seal: Histogram,
    /// Trace lane `lattice` for ingested messages, level seals, prunes
    /// and property evaluations; disabled (free) unless the registry is
    /// traced.
    trace_ring: TraceRing,
}

impl StreamingAnalyzer {
    /// Creates an analyzer for `threads` threads starting from `initial`,
    /// tuned by `config` and reporting live metrics into `registry`:
    /// `lattice.states_explored` (lattice nodes created, including the
    /// initial cut), `lattice.cuts_deduped` (successor cuts merged into an
    /// already-created node of the next level), `lattice.levels_built`,
    /// `lattice.violations`, `lattice.frontier_width` (histogram, one
    /// sample per completed level), `lattice.peak_frontier` (gauge),
    /// per-level stage latency histograms `lattice.stage.expand_ns` /
    /// `lattice.stage.seal_ns`, and at finish the run counts
    /// `lattice.total_runs` / `lattice.violating_runs`. A traced registry
    /// also gets lane `lattice`: one [`TraceKind::Ingested`] instant per
    /// causally delivered message, one [`TraceKind::LevelSealed`] span per
    /// frontier advance, plus [`TraceKind::CutPruned`] /
    /// [`TraceKind::PropertyEvaluated`] instants.
    ///
    /// From `config`: history (unset means two-level), counterexample
    /// budget, frontier cap, and the step cache.
    pub(crate) fn new(
        monitor: Monitor,
        initial: &ProgramState,
        threads: usize,
        config: &AnalysisConfig,
        registry: &Registry,
    ) -> Self {
        let (mem0, ok0) = monitor.initial(initial);
        let bottom = Cut::bottom(threads);
        let mut violations = Vec::new();
        let mut node = FrontierNode::new(initial.clone(), monitor.valuation(initial));
        if ok0 {
            node.mems = Mems::One((
                mem0,
                Alive {
                    runs: 1,
                    parent: None,
                },
            ));
        } else {
            node.violated = 1;
            node.dead.push(mem0);
            let initial_step = RunStep {
                thread: None,
                message: None,
                state: initial.clone(),
            };
            violations.push(Violation {
                cut: bottom.clone(),
                state: initial.clone(),
                memory: mem0,
                counterexample: Some(Counterexample {
                    steps: vec![initial_step],
                }),
            });
        }
        let frontier = vec![(bottom, node)];
        let tel_states = registry.counter("lattice.states_explored");
        tel_states.inc(); // the initial cut is a lattice node
        let tel_peak = registry.gauge("lattice.peak_frontier");
        tel_peak.set(1);
        let tel_violations = registry.counter("lattice.violations");
        tel_violations.add(violations.len() as u64);
        Self {
            monitor,
            threads,
            delivered: vec![Vec::new(); threads],
            ended: false,
            frontier,
            frontier_max: vec![0; threads],
            past: VecDeque::new(),
            history: config.history.unwrap_or(0),
            max_counterexamples: config.max_counterexamples,
            violations,
            states_explored: 1,
            levels_built: 0,
            peak_frontier: 1,
            frontier_cap: (config.frontier_cap > 0).then_some(config.frontier_cap),
            dropped_cuts: 0,
            non_writes_skipped: 0,
            eval_cache: config.eval_cache,
            step_cache: StepCache::with_counter(registry.counter("spec.eval_cache_hits")),
            keys: LevelKeys::default(),
            heads: Heads::default(),
            spare: Level::new(),
            tel_states,
            tel_deduped: registry.counter("lattice.cuts_deduped"),
            tel_levels: registry.counter("lattice.levels_built"),
            tel_violations,
            tel_width: registry.histogram("lattice.frontier_width"),
            tel_peak,
            tel_pruned: registry.counter("lattice.frontier_pruned"),
            tel_non_writes: registry.counter("lattice.non_writes_skipped"),
            tel_total_runs: registry.counter("lattice.total_runs"),
            tel_violating_runs: registry.counter("lattice.violating_runs"),
            tel_expand: registry.histogram("lattice.stage.expand_ns"),
            tel_seal: registry.histogram("lattice.stage.seal_ns"),
            trace_ring: registry.tracer().ring("lattice"),
        }
    }

    /// Reconstructs the violating run ending at `seed`: parent links
    /// lead back through the sealed level `current` and the retained
    /// history. Every step names its thread and message; the run starts
    /// at the initial state when the history reaches the bottom cut.
    fn counterexample(&self, current: &Level, seed: &ViolationSeed) -> Counterexample {
        // Newest step first: a cut, its state, and the thread whose
        // message reached it (`None` at the bottom cut).
        let mut rev = vec![(&seed.cut, &seed.state, Some(seed.pred.thread))];
        let mut link = Some(seed.pred);
        for level in std::iter::once(current).chain(self.past.iter().rev()) {
            let Some(parent) = link else {
                break;
            };
            let (cut, node) = &level[parent.src as usize];
            link = node.alive(parent.mem).and_then(|a| a.parent);
            rev.push((cut, &node.state, link.map(|p| p.thread)));
        }
        let steps = rev
            .into_iter()
            .rev()
            .map(|(cut, state, thread)| {
                let thread = thread.map(ThreadId);
                let message =
                    thread.map(|t| self.delivered[t.index()][cut.get(t) as usize - 1].clone());
                RunStep {
                    thread,
                    message,
                    state: state.clone(),
                }
            })
            .collect();
        Counterexample { steps }
    }

    /// Marks every stream complete, drains the analysis, and reports.
    fn into_report(mut self) -> StreamReport {
        self.ended = true;
        self.advance();
        let completed = matches!(self.frontier.as_slice(), [(cut, _)] if self.is_top(cut));
        // Every run prefix reaching the final frontier either violated on
        // the way or is alive in some memory.
        let (mut total_runs, mut violating_runs) = (0u128, 0u128);
        for (_, node) in &self.frontier {
            violating_runs = violating_runs.saturating_add(node.violated);
            total_runs = node
                .mems
                .as_slice()
                .iter()
                .fold(total_runs.saturating_add(node.violated), |acc, (_, a)| {
                    acc.saturating_add(a.runs)
                });
        }
        self.tel_total_runs.add(saturating_u64(total_runs));
        self.tel_violating_runs.add(saturating_u64(violating_runs));
        StreamReport {
            violations: self.violations,
            states_explored: self.states_explored,
            levels_built: self.levels_built,
            peak_frontier: self.peak_frontier,
            completed,
            exactness: Exactness::degraded(self.dropped_cuts, 0),
            non_writes_skipped: self.non_writes_skipped,
            total_runs,
            violating_runs,
        }
    }

    fn is_top(&self, cut: &Cut) -> bool {
        self.ended
            && (0..self.threads)
                .all(|t| cut.get(ThreadId(t as u32)) as usize == self.delivered[t].len())
    }

    /// True when every frontier cut can be fully expanded with the
    /// messages currently delivered: for each cut and thread either the
    /// next message is available or the thread has ended. The cut with the
    /// largest count of a thread is the last to get its next message, so
    /// the check reads only the per-thread maxima.
    fn frontier_expandable(&self) -> bool {
        (0..self.threads).all(|t| {
            let consumed = self.frontier_max.get(t).copied().unwrap_or(0) as usize;
            consumed < self.delivered[t].len() || self.ended
        })
    }

    /// Installs `level` as the frontier and records its per-thread count
    /// maxima for [`StreamingAnalyzer::frontier_expandable`].
    fn seal_frontier(&mut self, level: Level) {
        self.frontier_max.clear();
        self.frontier_max.resize(self.threads, 0);
        for (cut, _) in &level {
            for (max, &count) in self.frontier_max.iter_mut().zip(cut.as_slice()) {
                *max = (*max).max(count);
            }
        }
        self.frontier = level;
    }

    /// The message enabled from `cut` on thread `t`, if consistent: the
    /// same check the merge runs when it collects its runs.
    fn enabled(&self, cut: &Cut, t: usize) -> Option<&Message> {
        merge::enabled(&self.delivered, cut, t)
    }

    /// Expands one sealed level on the calling thread: one merge of the
    /// per-thread successor runs builds the next level in ascending cut
    /// order, with its parent links and violation seeds.
    fn expand_sequential(&mut self, current: &Level, level_index: u64) -> LevelExpansion {
        let Self {
            monitor,
            threads,
            delivered,
            frontier_max,
            eval_cache,
            step_cache,
            keys,
            heads,
            spare,
            trace_ring,
            ..
        } = self;
        let mut stepper = Stepper {
            monitor,
            cache: eval_cache.then_some(step_cache),
            ring: trace_ring,
            level: level_index,
        };
        keys.index(current, frontier_max, *threads);
        let mut out = LevelExpansion::into_buffer(std::mem::take(spare));
        let input = MergeInput {
            level: current,
            keys,
            delivered,
        };
        merge::merge(input, heads, &mut stepper, &mut out);
        out
    }

    /// Advances the frontier level by level while every frontier cut is
    /// expandable.
    fn advance(&mut self) {
        // Each level's stages borrow these histograms across `&mut self`
        // calls, so they leave `self` while the frontier advances.
        let expand_ns = std::mem::take(&mut self.tel_expand);
        let seal_ns = std::mem::take(&mut self.tel_seal);
        loop {
            if self.frontier.is_empty() {
                break;
            }
            // The frontier only advances when it can advance *completely*:
            // expanding a partial level would lose cuts whose successors
            // depend on undelivered messages, so a level is always sealed —
            // every cut expandable — before the merge reads it.
            if !self.frontier_expandable() {
                break;
            }
            // Terminal frontier: single top cut with nothing enabled.
            let any_successor = self
                .frontier
                .iter()
                .any(|(cut, _)| (0..self.threads).any(|t| self.enabled(cut, t).is_some()));
            if !any_successor {
                break;
            }

            let level = Stage::lane(&self.trace_ring);
            let level_index = u64::from(self.levels_built) + 1;
            let mut level_pruned = 0u64;
            let current = std::mem::take(&mut self.frontier);
            let expand = Stage::timed(&expand_ns);
            let mut exp = self.expand_sequential(&current, level_index);
            drop(expand);
            // The memo is level-scoped: transitions rarely recur across
            // seals, so clearing keeps the table at working-set size.
            self.step_cache.clear();
            let seal = Stage::timed(&seal_ns);
            self.states_explored += exp.new_states;
            self.tel_states.add(exp.new_states);
            self.tel_deduped.add(exp.deduped);
            self.non_writes_skipped += exp.non_writes;
            self.tel_non_writes.add(exp.non_writes);
            // Violations surface in (cut, memory) order. The merge already
            // yields them by cut; within a cut they follow the edge order,
            // so the memory order is imposed here.
            exp.seeds
                .sort_by(|a, b| a.cut.cmp(&b.cut).then_with(|| a.memory.cmp(&b.memory)));
            let level_violations = exp.seeds.len() as u64;
            self.tel_violations.add(level_violations);
            for seed in exp.seeds {
                let counterexample = (self.violations.len() < self.max_counterexamples)
                    .then(|| self.counterexample(&current, &seed));
                self.violations.push(Violation {
                    cut: seed.cut,
                    state: seed.state,
                    memory: seed.memory,
                    counterexample,
                });
            }
            let mut next = exp.next;
            debug_assert!(
                next.windows(2).all(|w| w[0].0 < w[1].0),
                "the merge yields the level sorted and deduplicated"
            );
            let level_evals = exp.evals;
            let level_states = exp.new_states;
            // Cuts that had no successor (only possible mid-stream for the
            // top-so-far cut when some threads ended) are retained if they
            // are the overall top; otherwise they are dead ends that cannot
            // occur for validated complete inputs.
            if next.is_empty() {
                self.frontier = current;
                self.spare = next;
                break;
            }
            // Degrade instead of OOM: prune the level to a deterministic
            // beam (the cap smallest cuts in lexicographic order) and
            // account every dropped cut toward the report's exactness.
            if let Some(cap) = self.frontier_cap {
                if next.len() > cap {
                    let excess = (next.len() - cap) as u64;
                    next.truncate(cap);
                    self.dropped_cuts += excess;
                    self.tel_pruned.add(excess);
                    level_pruned = excess;
                    if self.trace_ring.is_enabled() {
                        self.trace_ring.record(TraceKind::CutPruned {
                            level: level_index,
                            count: excess,
                        });
                    }
                }
            }
            // Retire the expanded level into the bounded history; the level
            // that leaves it lends its allocation to the next expansion.
            self.past.push_back(current);
            if self.past.len() > self.history {
                self.spare = self.past.pop_front().unwrap_or_default();
            }
            self.seal_frontier(next);
            self.levels_built += 1;
            self.peak_frontier = self.peak_frontier.max(self.frontier.len());
            self.tel_levels.inc();
            self.tel_width.record(self.frontier.len() as u64);
            self.tel_peak.set(self.frontier.len() as u64);
            level.end(
                &mut self.trace_ring,
                TraceKind::LevelSealed {
                    level: level_index,
                    width: self.frontier.len() as u64,
                    states: level_states,
                    pruned: level_pruned,
                    evals: level_evals,
                    violations: level_violations,
                },
            );
            drop(seal);
        }
        self.tel_expand = expand_ns;
        self.tel_seal = seal_ns;
    }
}

impl Analysis for StreamingAnalyzer {
    fn kind(&self) -> AnalysisKind {
        AnalysisKind::Ltl
    }

    /// Appends the delivered message to its thread's prefix and advances
    /// the frontier as far as the delivered prefixes allow.
    fn on_event(&mut self, event: &Event, clock: &VectorClock) {
        let message = Message {
            event: *event,
            clock: clock.clone(),
        };
        let t = event.thread.index();
        if self.delivered.len() <= t {
            // A thread beyond the declared count: grow conservatively.
            self.delivered.resize_with(t + 1, Vec::new);
            self.threads = t + 1;
        }
        if self.trace_ring.is_enabled() {
            self.trace_ring
                .record(TraceKind::Ingested(message.trace_ref()));
        }
        self.delivered[t].push(message);
        self.advance();
    }

    fn record(&self, _registry: &Registry) {
        // Live `lattice.*` metrics are wired at construction; the final
        // counters are published by `AnalysisReport::record` after finish.
    }

    fn finish(self: Box<Self>, transport: Exactness) -> AnalysisReport {
        let mut report = (*self).into_report();
        report.exactness = report.exactness.combine(transport);
        AnalysisReport::Ltl(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyses::SuiteBuilder;
    use jmpax_core::{MvcInstrumentor, Relevance, SymbolTable};
    use jmpax_spec::parse;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    fn fig6_setup() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.lookup("y").unwrap();
        let z = syms.lookup("z").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut msgs = Vec::new();
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, x, 0)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, y, 1)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, x, 1)));
        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        (msgs, monitor, init)
    }

    /// A default-configured analyzer without telemetry.
    fn analyzer(monitor: Monitor, init: &ProgramState, threads: usize) -> StreamingAnalyzer {
        analyzer_with(monitor, init, threads, &AnalysisConfig::default())
    }

    fn analyzer_with(
        monitor: Monitor,
        init: &ProgramState,
        threads: usize,
        config: &AnalysisConfig,
    ) -> StreamingAnalyzer {
        StreamingAnalyzer::new(monitor, init, threads, config, &Registry::disabled())
    }

    /// Feeds messages that are already in causal order, as the suite does.
    fn feed(s: &mut StreamingAnalyzer, msgs: impl IntoIterator<Item = Message>) {
        for m in msgs {
            s.on_event(&m.event, &m.clock);
        }
    }

    /// Feeds causally ordered messages and finishes.
    fn run(mut s: StreamingAnalyzer, msgs: impl IntoIterator<Item = Message>) -> StreamReport {
        feed(&mut s, msgs);
        s.into_report()
    }

    #[test]
    fn streaming_fig6_finds_the_violation() {
        let (msgs, monitor, init) = fig6_setup();
        let report = run(analyzer(monitor, &init, 2), msgs);
        assert!(!report.satisfied());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.states_explored, 7);
        assert_eq!(report.levels_built, 4);
        assert_eq!((report.total_runs, report.violating_runs), (3, 1));
        assert!(report.completed);
        assert!(report.peak_frontier <= 2);
    }

    #[test]
    fn streaming_handles_reversed_delivery() {
        let (mut msgs, monitor, init) = fig6_setup();
        msgs.reverse();
        let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], 2).build(Some((monitor, &init)));
        suite.push_all(msgs);
        let report = suite.finish(Exactness::Exact).into_ltl();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.states_explored, 7);
        assert!(report.completed);
    }

    #[test]
    fn violations_surface_once_streams_end() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = analyzer(monitor, &init, 2);
        feed(&mut s, msgs);
        // With all messages delivered but streams still open, the frontier
        // must stall *before* the top: a future message could still create
        // successors, so expanding early would be unsound.
        assert!(s.violations.is_empty());
        s.ended = true;
        s.advance();
        // Now the violation at the top is visible without finishing.
        assert_eq!(s.violations.len(), 1);
    }

    #[test]
    fn frontier_waits_for_missing_messages() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = analyzer(monitor, &init, 2);
        // Deliver only T1's first message. Expanding S0,0 would need to
        // know whether T2 contributes a successor, but T2 has delivered
        // nothing and has not ended — the cut is not expandable, so the
        // frontier must hold at S0,0 instead of sealing level 1 early.
        feed(&mut s, [msgs[0].clone()]);
        assert_eq!(s.frontier.len(), 1);
        // After ending the streams with T2's still empty, the frontier can
        // advance using only T1's messages: e3 is T1's second message.
        let report = run(s, [msgs[2].clone()]);
        // Only the single run S00 → S10 → S20 exists; y=1,z=0 never sees
        // x>0 so the property holds on that prefix.
        assert!(report.satisfied());
        assert_eq!(report.states_explored, 3);
    }

    #[test]
    fn history_trails_reconstruct_violating_suffix() {
        let (msgs, monitor, init) = fig6_setup();
        // Retain enough history for the whole run.
        let config = AnalysisConfig::default().with_history(8);
        let report = run(analyzer_with(monitor, &init, 2, &config), msgs.clone());
        assert_eq!(report.violations.len(), 1);
        let ce = report.violations[0].counterexample.as_ref().unwrap();
        // The whole violating run S0,0 S1,0 S2,0 S2,1 S2,2: T1 twice (the
        // y=1-while-z=0 state S2,0), then T2 twice.
        assert!(ce.is_complete(), "{ce:?}");
        let threads: Vec<_> = ce.steps.iter().map(|s| s.thread).collect();
        assert_eq!(threads, [None, Some(T1), Some(T1), Some(T2), Some(T2)]);
        // Each step consumes its thread's next delivered message.
        let consumed: Vec<_> = ce.steps[1..]
            .iter()
            .map(|s| s.message.clone().unwrap())
            .collect();
        assert_eq!(
            consumed,
            [
                msgs[0].clone(),
                msgs[2].clone(),
                msgs[1].clone(),
                msgs[3].clone()
            ]
        );
        assert_eq!(ce.states().last(), Some(&report.violations[0].state));

        // Without history the counterexample is the step into the
        // violation's predecessor plus the violating step.
        let (msgs2, monitor2, init2) = fig6_setup();
        let report = run(analyzer(monitor2, &init2, 2), msgs2);
        let ce = report.violations[0].counterexample.as_ref().unwrap();
        assert_eq!(ce.steps.len(), 2, "{ce:?}");
        assert!(!ce.is_complete());
        assert_eq!(ce.steps[1].thread, Some(T2));
    }

    #[test]
    fn bounded_history_truncates_trails() {
        let (msgs, monitor, init) = fig6_setup();
        let config = AnalysisConfig::default().with_history(1);
        let report = run(analyzer_with(monitor, &init, 2, &config), msgs);
        let ce = report.violations[0].counterexample.as_ref().unwrap();
        // violating state + predecessor + one retired level = 3.
        assert_eq!(ce.steps.len(), 3, "{ce:?}");
        assert_eq!(ce.event_count(), 3, "every step names its thread");
    }

    #[test]
    fn counterexample_names_a_thread_that_joined_mid_stream() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x <= 1", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::AllWrites);
        let mut msgs = Vec::new();
        msgs.extend(a.process(&Event::write(T1, x, 1)));
        msgs.extend(a.process(&Event::write(T2, x, 2)));
        // One declared thread: T2's message grows the analyzer, so the
        // violating cut has one more count than its predecessor.
        let config = AnalysisConfig::default().with_history(usize::MAX);
        let s = analyzer_with(monitor, &ProgramState::new(), 1, &config);
        let report = run(s, msgs.clone());
        assert_eq!(report.violations.len(), 1);
        let ce = report.violations[0].counterexample.as_ref().unwrap();
        let threads: Vec<_> = ce.steps.iter().map(|s| s.thread).collect();
        assert_eq!(threads, [None, Some(T1), Some(T2)]);
        assert_eq!(ce.steps[2].message.as_ref(), Some(&msgs[1]));
    }

    #[test]
    fn initial_state_violation_detected() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x > 0", &mut syms).unwrap().monitor().unwrap();
        let report = run(analyzer(monitor, &ProgramState::new(), 1), []);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].cut, Cut::bottom(1));
        assert_eq!((report.total_runs, report.violating_runs), (1, 1));
        let ce = report.violations[0].counterexample.as_ref().unwrap();
        assert!(ce.is_complete());
        assert_eq!(ce.event_count(), 0);
    }

    #[test]
    fn uncapped_report_is_exact() {
        let (msgs, monitor, init) = fig6_setup();
        let report = run(analyzer(monitor, &init, 2), msgs);
        assert!(report.exactness.is_exact());
        assert_eq!(report.non_writes_skipped, 0);
    }

    #[test]
    fn frontier_cap_degrades_instead_of_exploring_everything() {
        use jmpax_core::gen::{random_execution, RandomExecutionConfig};

        let mut syms = SymbolTable::new();
        let monitor = parse("v0 <= v1 \\/ v2 < 3", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 3,
            events: 40,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed: 5,
        });
        let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
        let init = ProgramState::new();

        let full = run(analyzer(monitor.clone(), &init, 4), msgs.clone());
        assert!(full.peak_frontier > 2, "need a wide lattice for this test");

        let config = AnalysisConfig::default().with_frontier_cap(2);
        let beam = run(analyzer_with(monitor, &init, 4, &config), msgs);
        assert!(beam.completed, "the beam still reaches the top cut");
        assert!(beam.peak_frontier <= 2);
        assert!(beam.states_explored < full.states_explored);
        let (dropped, gaps) = beam.exactness.losses();
        assert!(dropped > 0, "pruning must be visible in the report");
        assert_eq!(gaps, 0);
        assert!(!beam.exactness.is_exact());
    }

    #[test]
    fn non_write_messages_stutter_instead_of_panicking() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        // An exotic relevance policy: *accesses* of x are relevant, so the
        // observer also receives read messages, which cannot update state.
        let mut a = MvcInstrumentor::new(1, Relevance::accesses_of([x]));
        let mut msgs = Vec::new();
        msgs.extend(a.process(&Event::write(T1, x, 1)));
        msgs.extend(a.process(&Event::read(T1, x)));
        msgs.extend(a.process(&Event::write(T1, x, 2)));
        assert_eq!(msgs.len(), 3);
        let report = run(analyzer(monitor, &ProgramState::new(), 1), msgs);
        assert!(report.completed);
        assert!(report.satisfied());
        assert_eq!(report.non_writes_skipped, 1);
        assert!(report.exactness.is_exact(), "stutters do not degrade");
    }

    #[test]
    fn agrees_with_full_analysis_on_random_computations() {
        use crate::analysis::analyze;
        use crate::input::LatticeInput;
        use jmpax_core::gen::{random_execution, RandomExecutionConfig};

        let mut syms = SymbolTable::new();
        // A property over the generator's dense var ids.
        let monitor = parse("v0 <= v1 \\/ v2 < 3", &mut syms).unwrap();
        // Re-map: parser interned v0,v1,v2 as fresh names; instead build a
        // formula directly over VarId(0..3) by reusing the interned ids in
        // order (v0→0, v1→1, v2→2 because the table was empty).
        let monitor = monitor.monitor().unwrap();

        for seed in 0..20 {
            let ex = random_execution(RandomExecutionConfig {
                threads: 3,
                vars: 3,
                events: 14,
                write_ratio: 0.7,
                internal_ratio: 0.0,
                seed,
            });
            let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
            let init = ProgramState::new();
            let input = LatticeInput::from_messages(msgs.clone(), init.clone()).unwrap();
            let full = analyze(input, &monitor);

            let report = run(analyzer(monitor.clone(), &init, 3), msgs);
            assert!(report.completed, "seed {seed}: streaming did not finish");
            assert_eq!(
                report.states_explored as usize, full.states,
                "seed {seed}: state count mismatch"
            );
            assert_eq!(
                report.satisfied(),
                full.satisfied(),
                "seed {seed}: verdict mismatch"
            );
            assert_eq!(
                (report.total_runs, report.violating_runs),
                (full.total_runs, full.violating_runs),
                "seed {seed}: run counts"
            );
        }
    }
}
