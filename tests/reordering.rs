//! Experiment Q4: the observer tolerates arbitrary message delivery orders
//! (Section 4: "the observer therefore receives messages … in any order").
//! Shuffling the message stream must never change the verdict, the lattice
//! shape, or the violating-run count.

use jmpax::core::AnalysisKind;
use jmpax::lattice::{Exactness, StreamReport, SuiteReport};
use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::sched::run_random;
use jmpax::spec::ProgramState;
use jmpax::workloads::{synthetic, xyz};
use jmpax::{parse, Event, Message, Monitor, MvcInstrumentor, Relevance, SymbolTable, ThreadId};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// One observer session over `messages`, delivered in the given order.
fn observe_suite(monitor: &Monitor, initial: &ProgramState, messages: Vec<Message>) -> SuiteReport {
    let threads = messages.iter().map(|m| m.thread().index() + 1).max();
    let mut session = Pipeline::new(PipelineConfig::new()).session(
        &[AnalysisKind::Ltl],
        Some((monitor.clone(), initial)),
        threads.unwrap_or(1),
    );
    for m in messages {
        session.push(m);
    }
    session.finish().0
}

/// The observer's analysis of `messages`, delivered in the given order.
fn observe(monitor: &Monitor, initial: &ProgramState, messages: Vec<Message>) -> StreamReport {
    observe_suite(monitor, initial, messages).into_ltl()
}

#[test]
fn every_shuffle_of_example2_gives_the_same_verdict() {
    let w = xyz::workload();
    let out = jmpax::sched::run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let msgs = out
        .execution
        .instrument(Relevance::writes_of(w.relevant_vars()));
    let initial = ProgramState::from_map(out.execution.initial.clone());
    let monitor = w.monitor();

    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..50 {
        let mut shuffled = msgs.clone();
        shuffled.shuffle(&mut rng);
        let a = observe(&monitor, &initial, shuffled);
        assert!(
            a.exactness.is_exact(),
            "round {round}: all messages delivered"
        );
        assert_eq!(
            (a.states_explored, a.total_runs, a.violating_runs),
            (7, 3, 1),
            "round {round}: shuffle changed the analysis"
        );
    }
}

#[test]
fn shuffled_synthetic_workloads_match_in_order_analysis() {
    let mut rng = StdRng::seed_from_u64(99);
    for seed in 0..8 {
        let w = synthetic::workload(synthetic::SyntheticConfig {
            threads: 3,
            vars: 3,
            stmts_per_thread: 4,
            seed,
            ..Default::default()
        });
        let out = run_random(&w.program, seed, 10_000);
        assert!(out.finished);
        let msgs = out
            .execution
            .instrument(Relevance::writes_of(w.relevant_vars()));
        let initial = ProgramState::from_map(out.execution.initial.clone());
        let monitor = w.monitor();

        let ref_a = observe(&monitor, &initial, msgs.clone());

        for _ in 0..5 {
            let mut shuffled = msgs.clone();
            shuffled.shuffle(&mut rng);
            let a = observe(&monitor, &initial, shuffled);
            assert_eq!(a.states_explored, ref_a.states_explored, "seed {seed}");
            assert_eq!(a.total_runs, ref_a.total_runs, "seed {seed}");
            assert_eq!(a.violating_runs, ref_a.violating_runs, "seed {seed}");
        }
    }
}

/// The lossless default: an in-memory caller sets no stall budget, so a
/// fully reversed 400-message stream — every message arriving before its
/// causes — loses nothing and analyses exactly as in-order delivery.
#[test]
fn reversed_long_stream_is_exact() {
    let mut syms = SymbolTable::new();
    let (x, y) = (syms.intern("x"), syms.intern("y"));
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y]));
    let mut msgs = Vec::new();
    for round in 0..200 {
        // Even rounds leave the two writes concurrent; odd rounds chain
        // them. The closing reads order each round before the next.
        msgs.extend(a.process(&Event::write(t0, x, round)));
        if round % 2 == 1 {
            a.process(&Event::read(t1, x));
        }
        msgs.extend(a.process(&Event::write(t1, y, round)));
        a.process(&Event::read(t0, y));
        a.process(&Event::read(t1, x));
    }
    assert_eq!(msgs.len(), 400);
    let monitor = parse("x >= y", &mut syms).unwrap().monitor().unwrap();
    let mut initial = ProgramState::new();
    initial.set(x, 0);
    initial.set(y, 0);

    let in_order = observe(&monitor, &initial, msgs.clone());
    let mut reversed = msgs;
    reversed.reverse();

    // A bare suite has the same lossless default.
    let mut suite = jmpax::lattice::SuiteBuilder::new(&[AnalysisKind::Ltl], 2)
        .build(Some((monitor.clone(), &initial)));
    suite.push_all(reversed.iter().cloned());
    let bare = suite.finish(Exactness::Exact).into_ltl();
    assert!(bare.exactness.is_exact(), "{}", bare.exactness);
    assert_eq!(bare.states_explored, in_order.states_explored);

    let report = observe_suite(&monitor, &initial, reversed);
    assert_eq!(report.reassembly.delivered, 400);
    let a = report.reports[0].as_ltl().unwrap();
    assert!(a.exactness.is_exact(), "{}", a.exactness);
    assert!(a.violating_runs > 0, "concurrent rounds predict x < y");
    assert_eq!(
        (a.states_explored, a.total_runs, a.violating_runs),
        (
            in_order.states_explored,
            in_order.total_runs,
            in_order.violating_runs
        )
    );
}

#[test]
fn streaming_analyzer_is_order_insensitive_too() {
    use jmpax::lattice::SuiteBuilder;

    let w = xyz::workload();
    let out = jmpax::sched::run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let msgs = out
        .execution
        .instrument(Relevance::writes_of(w.relevant_vars()));
    let initial = ProgramState::from_map(out.execution.initial.clone());
    let monitor = w.monitor();

    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let mut shuffled = msgs.clone();
        shuffled.shuffle(&mut rng);
        let mut suite =
            SuiteBuilder::new(&[AnalysisKind::Ltl], 2).build(Some((monitor.clone(), &initial)));
        suite.push_all(shuffled);
        let report = suite.finish(Exactness::Exact).into_ltl();
        assert!(report.completed);
        assert_eq!(report.states_explored, 7);
        assert_eq!(report.violations.len(), 1);
    }
}
