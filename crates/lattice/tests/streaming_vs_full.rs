//! Equivalence of the streaming analyzer (the one ptLTL engine) with the
//! full-lattice oracle: same states, same total and violating run counts,
//! and the same set of `(cut, memory)` violation points — on random
//! computations and properties, regardless of delivery order, worker count
//! or step cache. Every counterexample the engine reports is a real run of
//! the computation that first violates the property at its last step.

use std::collections::HashSet;

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{AnalysisKind, Message, Relevance, SymbolTable, VarId};
use jmpax_lattice::analysis::analyze_lattice;
use jmpax_lattice::{AnalysisConfig, Counterexample, StreamReport, Violation};
use jmpax_lattice::{Cut, Exactness, Lattice, LatticeInput, SuiteBuilder};
use jmpax_spec::{parse, Monitor, MonitorState, ProgramState};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

const SPECS: &[&str] = &[
    "v0 <= v1 \\/ v2 < 3",
    "[*] v0 >= 0",
    "start(v1 > 2) -> v2 != 0",
    "[v0 = 1, v1 > v2)",
    "v0 = 0 S v1 = 0",
];

fn points(violations: &[Violation]) -> HashSet<(Cut, MonitorState)> {
    violations
        .iter()
        .map(|v| (v.cut.clone(), v.memory))
        .collect()
}

/// Asserts `ce` is a run ending in `v`: it starts at the initial state
/// (the bottom cut), every step advances one thread by that thread's next
/// message and applies its write, it ends at `v`'s cut and state, and the
/// monitor first fails at its last step.
fn assert_is_run(
    ce: &Counterexample,
    v: &Violation,
    msgs: &[Message],
    initial: &ProgramState,
    monitor: &Monitor,
    threads: usize,
) {
    assert!(
        ce.is_complete(),
        "counterexample does not reach the bottom cut"
    );
    assert_eq!(&ce.steps[0].state, initial);
    let mut cut = Cut::bottom(threads);
    let mut state = initial.clone();
    for step in &ce.steps[1..] {
        let t = step.thread.expect("every later step names its thread");
        let m = step
            .message
            .as_ref()
            .expect("every later step names its message");
        let next = msgs
            .iter()
            .find(|n| n.thread() == t && n.seq() == cut.get(t) + 1)
            .expect("the thread has a next message");
        assert_eq!(m, next, "step consumed a message out of order");
        state.set(m.var().unwrap(), m.written_value().unwrap());
        assert_eq!(step.state, state);
        cut = cut.advanced(t);
    }
    assert_eq!(cut, v.cut);
    assert_eq!(state, v.state);
    assert_eq!(
        monitor.first_violation(&ce.states()),
        Some(ce.steps.len() - 1),
        "the monitor must first fail at the last step"
    );
}

/// The ptLTL report of an LTL-only suite fed `msgs` in the given order.
fn stream(
    monitor: &Monitor,
    initial: &ProgramState,
    msgs: impl IntoIterator<Item = Message>,
    config: &AnalysisConfig,
) -> StreamReport {
    let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], 3)
        .config(config)
        .build(Some((monitor.clone(), initial)));
    suite.push_all(msgs);
    suite.finish(Exactness::Exact).into_ltl()
}

#[test]
fn streaming_matches_full_on_random_computations_and_specs() {
    let mut shuffler = StdRng::seed_from_u64(0xFEED);
    for seed in 0..12 {
        let ex = random_execution(RandomExecutionConfig {
            threads: 3,
            vars: 3,
            events: 16,
            write_ratio: 0.7,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
        let initial = ProgramState::new();

        for spec in SPECS {
            let mut syms = SymbolTable::new();
            for n in ["v0", "v1", "v2"] {
                syms.intern(n);
            }
            let monitor = parse(spec, &mut syms).unwrap().monitor().unwrap();

            let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
            let lattice = Lattice::build(input);
            let full = analyze_lattice(&lattice, &monitor, AnalysisConfig::default());
            let ctx = format!("seed {seed} spec `{spec}`");

            // Streaming, with a shuffled delivery order.
            let mut shuffled = msgs.clone();
            shuffled.shuffle(&mut shuffler);
            let report = stream(&monitor, &initial, shuffled, &AnalysisConfig::default());
            assert!(report.completed, "{ctx}");
            assert_eq!(
                report.states_explored as usize, full.states,
                "{ctx}: states"
            );
            assert_eq!(
                points(&report.violations),
                points(&full.violations),
                "{ctx}"
            );

            // Every worker count (granularity 1 engages the pool on every
            // level), with and without the step cache, keeping every level
            // so counterexamples reach the initial state.
            let mut reports: Vec<StreamReport> = Vec::new();
            for workers in [1, 3, 8] {
                for eval_cache in [true, false] {
                    let config = AnalysisConfig::default()
                        .with_parallelism(workers)
                        .with_shard_granularity(1)
                        .with_eval_cache(eval_cache)
                        .with_history(usize::MAX)
                        .with_max_counterexamples(usize::MAX);
                    reports.push(stream(&monitor, &initial, msgs.iter().cloned(), &config));
                }
            }
            for r in &reports {
                assert_eq!(r.states_explored as usize, full.states, "{ctx}: states");
                assert_eq!(r.total_runs, full.total_runs, "{ctx}: total runs");
                assert_eq!(
                    r.violating_runs, full.violating_runs,
                    "{ctx}: violating runs"
                );
                assert_eq!(points(&r.violations), points(&full.violations), "{ctx}");
                assert_eq!(
                    format!("{:?}", r.violations),
                    format!("{:?}", reports[0].violations)
                );
                for v in &r.violations {
                    let ce = v.counterexample.as_ref().expect("unbounded budget");
                    assert_is_run(ce, v, &msgs, &initial, &monitor, 3);
                }
            }
        }
    }
}
