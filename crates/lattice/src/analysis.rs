//! The test oracle: predictive analysis over the fully materialized
//! lattice.
//!
//! Section 4 of the paper: "the idea is to store the state of the FSM or of
//! the synthesized monitor together with each global state in the
//! computation lattice … in any global state, all the information needed
//! about the past can be stored via a set of states in the FSM". This module
//! does exactly that over a retained [`Lattice`]: each node carries the set
//! of reachable monitor memories; an edge steps every memory; a step that
//! outputs *false* is a predicted violation of the safety property on every
//! run realizing that path. Violating runs are counted by dynamic
//! programming over the nodes: each node counts the run prefixes reaching
//! it that already violated, fed by its predecessors' counts and by every
//! alive memory whose step fails on the edge, all with saturating adds —
//! the rule the streaming analyzer follows, so both saturate alike.
//!
//! Production analyses run on [`crate::StreamingAnalyzer`]; this module is
//! the independent implementation the equivalence tests hold it to.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use jmpax_spec::{Monitor, MonitorState};

use crate::builder::{Counterexample, RunStep, Violation};
use crate::config::AnalysisConfig;
use crate::explore::{Lattice, NodeId};
use crate::input::LatticeInput;

/// Result of the oracle's full-lattice analysis.
#[derive(Clone, Debug)]
pub struct LatticeAnalysis {
    /// Number of distinct global states (lattice nodes).
    pub states: usize,
    /// Number of lattice levels.
    pub levels: usize,
    /// Widest level (peak per-level memory).
    pub max_level_width: usize,
    /// Total multithreaded runs consistent with the computation
    /// (saturating at `u128::MAX`).
    pub total_runs: u128,
    /// Runs that violate the property at some state.
    pub violating_runs: u128,
    /// Distinct `(cut, memory)` violation points, with counterexamples.
    pub violations: Vec<Violation>,
}

impl LatticeAnalysis {
    /// True when no run violates the property.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.violating_runs == 0 && self.violations.is_empty()
    }
}

/// Convenience: build the lattice from `input` and analyze it with the
/// default configuration.
#[must_use]
pub fn analyze(input: LatticeInput, monitor: &Monitor) -> LatticeAnalysis {
    analyze_lattice(&Lattice::build(input), monitor, AnalysisConfig::default())
}

/// Checks `monitor` against every run of the materialized lattice.
#[must_use]
pub fn analyze_lattice(
    lattice: &Lattice,
    monitor: &Monitor,
    options: AnalysisConfig,
) -> LatticeAnalysis {
    let n = lattice.node_count();
    // Alive memories per node, with run-prefix counts (for exact violating
    // run counting) and one predecessor `(node, memory)` for reconstruction.
    let mut alive: Vec<HashMap<MonitorState, u128>> = vec![HashMap::new(); n];
    let mut parent: Vec<HashMap<MonitorState, (NodeId, MonitorState)>> = vec![HashMap::new(); n];
    // Dead (violating) memories per node — for deduplication.
    let mut dead: Vec<HashSet<MonitorState>> = vec![HashSet::new(); n];
    // Run prefixes per node that already violated.
    let mut violated: Vec<u128> = vec![0; n];
    let mut violations = Vec::new();

    let bottom = lattice.bottom();
    let (mem0, ok0) = monitor.initial(&lattice.nodes()[bottom].state);
    if ok0 {
        alive[bottom].insert(mem0, 1);
    } else {
        violated[bottom] = 1;
        dead[bottom].insert(mem0);
        violations.push((bottom, mem0, None::<(NodeId, MonitorState)>));
    }

    // One memo table for the whole pass: the retained lattice steps the
    // same `(memory, valuation)` pairs once per in-edge, and unlike the
    // streaming analyzer there is no level seal to scope the table to, so
    // it lives for the analysis. Disabled via `options.eval_cache`.
    let mut cache = options.eval_cache.then(|| monitor.step_cache());
    for k in 0..lattice.level_count() {
        for &nid in lattice.level(k) {
            // Iterate a snapshot: successor updates never touch this level.
            let mems: Vec<(MonitorState, u128)> =
                alive[nid].iter().map(|(&m, &c)| (m, c)).collect();
            let prefix_violated = violated[nid];
            for &(succ, thread) in &lattice.nodes()[nid].succs {
                let succ_state = &lattice.nodes()[succ].state;
                violated[succ] = violated[succ].saturating_add(prefix_violated);
                for &(mem, count) in &mems {
                    let (next_mem, ok) = match cache.as_mut() {
                        Some(cache) => monitor.step_cached(mem, succ_state, cache),
                        None => monitor.step(mem, succ_state),
                    };
                    if ok {
                        match alive[succ].entry(next_mem) {
                            Entry::Occupied(mut e) => {
                                let runs = e.get_mut();
                                *runs = runs.saturating_add(count);
                            }
                            Entry::Vacant(e) => {
                                e.insert(count);
                                parent[succ].insert(next_mem, (nid, mem));
                            }
                        }
                    } else {
                        violated[succ] = violated[succ].saturating_add(count);
                        if dead[succ].insert(next_mem) {
                            violations.push((succ, next_mem, Some((nid, mem))));
                        }
                    }
                }
                let _ = thread;
            }
        }
    }

    let total_runs = lattice.count_runs();
    let violating_runs = violated[lattice.top()];

    // Reconstruct counterexamples.
    let mut out = Vec::new();
    for (i, (nid, mem, pred)) in violations.into_iter().enumerate() {
        let counterexample = if i < options.max_counterexamples {
            Some(reconstruct(lattice, &parent, nid, pred))
        } else {
            None
        };
        out.push(Violation {
            cut: lattice.nodes()[nid].cut.clone(),
            state: lattice.nodes()[nid].state.clone(),
            memory: mem,
            counterexample,
        });
    }

    LatticeAnalysis {
        states: lattice.node_count(),
        levels: lattice.level_count(),
        max_level_width: lattice.max_level_width(),
        total_runs,
        violating_runs,
        violations: out,
    }
}

/// Walks parent pointers from the violating `(node, memory)` back to the
/// bottom, emitting the run.
fn reconstruct(
    lattice: &Lattice,
    parent: &[HashMap<MonitorState, (NodeId, MonitorState)>],
    violating_node: NodeId,
    violating_pred: Option<(NodeId, MonitorState)>,
) -> Counterexample {
    // Collect (node) path backwards.
    let mut rev: Vec<NodeId> = vec![violating_node];
    let mut cursor = violating_pred;
    while let Some((node, mem)) = cursor {
        rev.push(node);
        cursor = parent[node].get(&mem).copied();
    }
    rev.reverse();

    let mut steps = Vec::with_capacity(rev.len());
    steps.push(RunStep {
        thread: None,
        message: None,
        state: lattice.nodes()[rev[0]].state.clone(),
    });
    for w in rev.windows(2) {
        let (pred, succ) = (w[0], w[1]);
        let thread = lattice.nodes()[pred]
            .cut
            .advancing_thread(&lattice.nodes()[succ].cut)
            .expect("parent chain must follow lattice edges");
        let message = lattice.edge_message(pred, thread).cloned();
        steps.push(RunStep {
            thread: Some(thread),
            message,
            state: lattice.nodes()[succ].state.clone(),
        });
    }
    Counterexample { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::Cut;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, SymbolTable, ThreadId};
    use jmpax_spec::{parse, ProgramState};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    /// Example 2 / Fig. 6, end to end.
    fn fig6() -> (LatticeInput, Monitor) {
        let mut syms = SymbolTable::new();
        let formula = parse("(x > 0) -> [y = 0, y > z)", &mut syms).unwrap();
        let monitor = formula.monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.lookup("y").unwrap();
        let z = syms.lookup("z").unwrap();

        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut out = Vec::new();
        a.process(&Event::read(T1, x));
        out.extend(a.process(&Event::write(T1, x, 0)));
        a.process(&Event::read(T2, x));
        out.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, x));
        out.extend(a.process(&Event::write(T1, y, 1)));
        a.process(&Event::read(T2, x));
        out.extend(a.process(&Event::write(T2, x, 1)));

        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        (LatticeInput::from_messages(out, init).unwrap(), monitor)
    }

    #[test]
    fn fig6_predicts_exactly_one_violating_run() {
        let (input, monitor) = fig6();
        let analysis = analyze(input, &monitor);
        assert_eq!(analysis.states, 7);
        assert_eq!(analysis.total_runs, 3);
        assert_eq!(analysis.violating_runs, 1);
        assert!(
            analysis.violating_runs < analysis.total_runs,
            "a prediction"
        );
        assert!(!analysis.satisfied());
        assert!(!analysis.violations.is_empty());
    }

    #[test]
    fn fig6_counterexample_goes_through_s20() {
        let (input, monitor) = fig6();
        let analysis = analyze(input, &monitor);
        let v = &analysis.violations[0];
        let ce = v.counterexample.as_ref().unwrap();
        // The violating run is e1 e3 e2 e4: S00 S10 S20 S21 S22.
        let cuts: Vec<String> = ce.steps.iter().map(|s| s.state.to_string()).collect();
        assert_eq!(ce.event_count(), 4);
        // The state where y=1 while z=0 must be on the path.
        assert!(
            cuts.iter()
                .any(|c| c.contains("v1=1") && c.contains("v2=0")),
            "expected S2,0 on the violating path, got {cuts:?}"
        );
        // Violation fires at the top state (x>0 with the interval dead).
        assert_eq!(v.cut, Cut::from_counts(vec![2, 2]));
        // Thread/message annotations are present on every non-initial step.
        assert!(ce.steps[1..]
            .iter()
            .all(|s| s.thread.is_some() && s.message.is_some()));
    }

    #[test]
    fn observed_run_is_successful_but_analysis_predicts() {
        let (input, monitor) = fig6();
        // The observed run visits S00 S10 S11 S21 S22 — successful.
        let lat = Lattice::build(input);
        let observed = [
            Cut::from_counts(vec![0, 0]),
            Cut::from_counts(vec![1, 0]),
            Cut::from_counts(vec![1, 1]),
            Cut::from_counts(vec![2, 1]),
            Cut::from_counts(vec![2, 2]),
        ];
        let states: Vec<ProgramState> = observed
            .iter()
            .map(|c| lat.nodes()[lat.node_by_cut(c).unwrap()].state.clone())
            .collect();
        assert_eq!(monitor.first_violation(&states), None);
        let analysis = analyze_lattice(&lat, &monitor, AnalysisConfig::default());
        assert_eq!(analysis.violating_runs, 1);
    }

    #[test]
    fn satisfied_when_no_run_violates() {
        let mut syms = SymbolTable::new();
        let formula = parse("x >= 0", &mut syms).unwrap();
        let monitor = formula.monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x]));
        let msgs: Vec<_> = [Event::write(T1, x, 1), Event::write(T2, x, 2)]
            .iter()
            .filter_map(|e| a.process(e))
            .collect();
        let input = LatticeInput::from_messages(msgs, ProgramState::new()).unwrap();
        let analysis = analyze(input, &monitor);
        assert!(analysis.satisfied());
        assert_eq!(analysis.total_runs, 1); // write-write ordered
        assert_eq!(analysis.violating_runs, 0);
    }

    #[test]
    fn violation_at_initial_state() {
        let mut syms = SymbolTable::new();
        let formula = parse("x > 0", &mut syms).unwrap();
        let monitor = formula.monitor().unwrap();
        let input = LatticeInput::from_messages([], ProgramState::new()).unwrap();
        let analysis = analyze(input, &monitor);
        assert_eq!(analysis.total_runs, 1);
        assert_eq!(analysis.violating_runs, 1);
        assert_eq!(analysis.violations.len(), 1);
        let ce = analysis.violations[0].counterexample.as_ref().unwrap();
        assert_eq!(ce.event_count(), 0);
    }

    #[test]
    fn all_runs_violating_counted_exactly() {
        // Two concurrent writers set x to 1 and 2; property "x = 0" fails on
        // every run after the first write.
        let mut syms = SymbolTable::new();
        let monitor = parse("x = 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.intern("y");
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y]));
        let msgs: Vec<_> = [Event::write(T1, x, 1), Event::write(T2, y, 2)]
            .iter()
            .filter_map(|e| a.process(e))
            .collect();
        let input = LatticeInput::from_messages(msgs, ProgramState::new()).unwrap();
        let analysis = analyze(input, &monitor);
        assert_eq!(analysis.total_runs, 2);
        assert_eq!(analysis.violating_runs, 2);
        assert_eq!(analysis.violating_runs, analysis.total_runs);
    }

    #[test]
    fn counterexample_budget_respected() {
        let (input, monitor) = fig6();
        let lat = Lattice::build(input);
        let analysis = analyze_lattice(
            &lat,
            &monitor,
            AnalysisConfig::default().with_max_counterexamples(0),
        );
        assert!(analysis
            .violations
            .iter()
            .all(|v| v.counterexample.is_none()));
    }

    #[test]
    fn summarize_returns_triple() {
        let (input, monitor) = fig6();
        let a = analyze(input, &monitor);
        assert_eq!((a.states, a.total_runs, a.violating_runs), (7, 3, 1));
    }

    #[test]
    fn multi_property_analysis_shares_the_lattice() {
        let (input, paper_monitor) = fig6();
        let mut syms = SymbolTable::new();
        for n in ["x", "y", "z"] {
            syms.intern(n);
        }
        let always_true = parse("x >= -1", &mut syms).unwrap().monitor().unwrap();
        let always_false = parse("x < -1", &mut syms).unwrap().monitor().unwrap();
        let lat = Lattice::build(input);
        let results: Vec<LatticeAnalysis> = [paper_monitor, always_true, always_false]
            .iter()
            .map(|m| analyze_lattice(&lat, m, AnalysisConfig::default()))
            .collect();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].violating_runs, 1);
        assert_eq!(results[1].violating_runs, 0);
        assert_eq!(results[2].violating_runs, 3, "every run starts violated");
        // Same lattice statistics across properties.
        assert!(results.iter().all(|a| a.states == 7));
    }
}
