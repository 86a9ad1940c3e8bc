//! Equivalence of the streaming analyzer (the one ptLTL engine) with the
//! full-lattice oracle: same states, same total and violating run counts,
//! and the same set of `(cut, memory)` violation points — on random
//! computations and properties, regardless of delivery order or step
//! cache, and on keys wider than two machine words. Every counterexample
//! the engine reports is a real run of the computation that first violates
//! the property at its last step. The step cache moves evaluations into
//! hits and changes nothing else, and the frontier never expands a level
//! before every cut of it is sealed.

use std::collections::HashSet;

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{
    AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId,
};
use jmpax_lattice::analysis::analyze_lattice;
use jmpax_lattice::{analyze, AnalysisConfig, AnalysisSuite, Counterexample, StreamReport};
use jmpax_lattice::{Cut, Exactness, Lattice, LatticeInput, SuiteBuilder, Violation};
use jmpax_spec::{parse, Monitor, MonitorState, ProgramState};
use jmpax_telemetry::Registry;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

const SPECS: &[&str] = &[
    "v0 <= v1 \\/ v2 < 3",
    "[*] v0 >= 0",
    "start(v1 > 2) -> v2 != 0",
    "[v0 = 1, v1 > v2)",
    "v0 = 0 S v1 = 0",
];

fn monitor_for(spec: &str) -> Monitor {
    let mut syms = SymbolTable::new();
    for n in ["v0", "v1", "v2", "v3"] {
        syms.intern(n);
    }
    parse(spec, &mut syms).unwrap().monitor().unwrap()
}

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

/// An LTL-only suite over `monitor` for `threads` threads, tuned by
/// `config`, reporting into `registry`.
fn ltl_suite(
    monitor: &Monitor,
    initial: &ProgramState,
    threads: usize,
    config: &AnalysisConfig,
    registry: &Registry,
) -> AnalysisSuite {
    SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
        .config(config)
        .telemetry(registry)
        .build(Some((monitor.clone(), initial)))
}

/// The ptLTL report of an LTL-only suite fed `msgs` in the given order.
fn stream(
    monitor: &Monitor,
    initial: &ProgramState,
    threads: usize,
    msgs: impl IntoIterator<Item = Message>,
    config: &AnalysisConfig,
) -> StreamReport {
    let mut suite = ltl_suite(monitor, initial, threads, config, &Registry::disabled());
    suite.push_all(msgs);
    suite.finish(Exactness::Exact).into_ltl()
}

/// Every observable field of the report, flattened to one comparable
/// string — two reports render identically iff they are bit-identical.
fn fingerprint(r: &StreamReport) -> String {
    format!(
        "states={} levels={} peak={} completed={} exactness={:?} non_writes={} runs={}/{} \
         violations={:?}",
        r.states_explored,
        r.levels_built,
        r.peak_frontier,
        r.completed,
        r.exactness,
        r.non_writes_skipped,
        r.violating_runs,
        r.total_runs,
        r.violations,
    )
}

/// A wide hypercube computation: `threads` threads each writing their
/// private variable `events` times — no cross-thread causality, so the
/// middle levels are wide.
fn hypercube(threads: usize, events: usize) -> (Vec<Message>, ProgramState) {
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    for round in 0..events {
        for t in 0..threads {
            let e = Event::write(
                ThreadId(t as u32),
                VarId(t as u32),
                (round * threads + t) as i64,
            );
            msgs.extend(instr.process(&e));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

/// A computation whose lattice keys need more than 128 bits while its
/// levels stay a few cuts wide: `threads` threads pass a token
/// round-robin (a write-write chain on `tok`), and each writes its private
/// variable right after its token write. Thread `t + 2` reads that
/// variable before its own turn, so each private write floats past at most
/// one foreign token write. With 20 threads and 130 rounds every thread
/// emits 260 messages, so each thread's key field takes 9 bits: 180 bits
/// in all.
fn token_ring(threads: usize, rounds: usize) -> (Vec<Message>, ProgramState) {
    let tok = VarId(threads as u32);
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    let mut counter = 0i64;
    for _ in 0..rounds {
        for t in 0..threads {
            let thread = ThreadId(t as u32);
            let behind = (t + threads - 2) % threads;
            instr.process(&Event::read(thread, VarId(behind as u32)));
            counter += 1;
            msgs.extend(instr.process(&Event::write(thread, tok, counter)));
            msgs.extend(instr.process(&Event::write(thread, VarId(t as u32), counter)));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..=threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
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
            let report = stream(&monitor, &initial, 3, shuffled, &AnalysisConfig::default());
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

            // With and without the step cache, keeping every level so
            // counterexamples reach the initial state.
            let mut reports: Vec<StreamReport> = Vec::new();
            for eval_cache in [true, false] {
                let config = AnalysisConfig::default()
                    .with_eval_cache(eval_cache)
                    .with_history(usize::MAX)
                    .with_max_counterexamples(usize::MAX);
                reports.push(stream(&monitor, &initial, 3, msgs.iter().cloned(), &config));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 4-thread workloads, every spec: the streaming report agrees
    /// with the materialized oracle on states, run counts and violation
    /// points.
    #[test]
    fn random_four_thread_streams_match_the_oracle(seed in 0u64..1000) {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 4,
            events: 24,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::AllWrites);
        let initial = ProgramState::new();

        for spec in SPECS {
            let monitor = monitor_for(spec);
            let report = stream(&monitor, &initial, 4, msgs.iter().cloned(), &AnalysisConfig::default());
            let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
            let oracle = analyze(input, &monitor);
            prop_assert_eq!(report.states_explored as usize, oracle.states, "seed {} spec `{}`", seed, spec);
            prop_assert_eq!(report.total_runs, oracle.total_runs, "seed {} spec `{}`", seed, spec);
            prop_assert_eq!(report.violating_runs, oracle.violating_runs, "seed {} spec `{}`", seed, spec);
            prop_assert_eq!(points(&report.violations), points(&oracle.violations), "seed {} spec `{}`", seed, spec);
        }
    }

    /// The monitor step cache is purely physical: reports (and hence
    /// verdicts, violation lists and exactness) are bit-identical with the
    /// cache on and off.
    #[test]
    fn eval_cache_is_unobservable_in_reports(seed in 0u64..500) {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 4,
            events: 24,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::AllWrites);
        let initial = ProgramState::new();

        for spec in SPECS {
            let monitor = monitor_for(spec);
            let report = |eval_cache: bool| {
                let config = AnalysisConfig::default().with_eval_cache(eval_cache);
                fingerprint(&stream(&monitor, &initial, 4, msgs.iter().cloned(), &config))
            };
            prop_assert_eq!(report(true), report(false), "seed {} spec `{}`", seed, spec);
        }
    }
}

/// Regression: a level must never be expanded before it is sealed.
/// Deliver only one thread's messages of a 3-thread computation — the
/// other threads are silent but not ended, so the frontier has to hold at
/// the initial cut instead of racing ahead on partial information. Once
/// the rest arrives, the report is the one the whole stream gives.
#[test]
fn frontier_never_expands_an_unsealed_level() {
    let mut instr = MvcInstrumentor::new(3, Relevance::AllWrites);
    let mut t0_msgs = Vec::new();
    let mut rest = Vec::new();
    for round in 0..3 {
        for t in 0..3u32 {
            let e = Event::write(ThreadId(t), VarId(t), round + 1);
            let m = instr.process(&e).unwrap();
            if t == 0 {
                t0_msgs.push(m);
            } else {
                rest.push(m);
            }
        }
    }
    let monitor = monitor_for("[*] v0 >= 0");
    let initial = ProgramState::new();
    let config = AnalysisConfig::default();

    let registry = Registry::enabled();
    let mut s = ltl_suite(&monitor, &initial, 3, &config, &registry);
    s.push_all(t0_msgs.iter().cloned());
    // T1/T2 have delivered nothing and have not ended: no cut beyond
    // S0,0,0 is expandable yet, so the frontier must still hold the
    // single initial cut.
    let snap = registry.snapshot();
    assert_eq!(
        (
            snap.counter("lattice.levels_built").unwrap_or(0),
            snap.gauge("lattice.peak_frontier").map(|(_, peak)| peak)
        ),
        (0, Some(1)),
        "frontier advanced past an unsealed level"
    );
    assert_eq!(snap.counter("lattice.violations").unwrap_or(0), 0);
    s.push_all(rest.iter().cloned());
    let held = s.finish(Exactness::Exact).into_ltl();
    let whole = stream(
        &monitor,
        &initial,
        3,
        t0_msgs.into_iter().chain(rest),
        &config,
    );
    assert_eq!(fingerprint(&held), fingerprint(&whole));
}

/// Step-cache accounting: physical evaluations plus cache hits must equal
/// the cache-off evaluation count exactly (every monitor step is one or
/// the other), the report must not change, and on a valuation-dense
/// workload the cache must absorb at least half the physical evals.
#[test]
fn eval_cache_moves_physical_evals_into_hits() {
    let (msgs, initial) = hypercube(4, 3);
    let run = |eval_cache: bool| {
        let registry = Registry::enabled();
        let monitor = monitor_for("[*] v0 >= 0").with_telemetry(&registry);
        let config = AnalysisConfig::default().with_eval_cache(eval_cache);
        let mut suite = ltl_suite(&monitor, &initial, 4, &config, &registry);
        suite.push_all(msgs.iter().cloned());
        let report = suite.finish(Exactness::Exact).into_ltl();
        let snap = registry.snapshot();
        (
            fingerprint(&report),
            snap.counter("spec.formula_evals").unwrap_or(0),
            snap.counter("spec.eval_cache_hits").unwrap_or(0),
        )
    };
    let (fp_on, evals_on, hits_on) = run(true);
    let (fp_off, evals_off, hits_off) = run(false);
    assert_eq!(fp_on, fp_off, "cache changed the report");
    assert_eq!(hits_off, 0, "cache off must never record a hit");
    assert!(hits_on > 0, "cache on must hit on a hypercube");
    assert_eq!(
        evals_on + hits_on,
        evals_off,
        "every step is either a physical eval or a hit"
    );
    assert!(
        evals_off >= 2 * evals_on,
        "cache must absorb at least half the physical evals ({evals_on} vs {evals_off})"
    );
}

/// Keys wider than two machine words merge exactly like one-word keys:
/// for every spec the report matches the materialized oracle, run counts
/// included — both saturate, and by the same rule.
#[test]
fn keys_wider_than_128_bits_match_the_oracle() {
    const THREADS: usize = 20;
    let (msgs, initial) = token_ring(THREADS, 130);
    assert_eq!(msgs.len(), THREADS * 260, "260 messages per thread");
    for spec in SPECS {
        let monitor = monitor_for(spec);
        let config = AnalysisConfig::default().with_history(usize::MAX);
        let report = stream(&monitor, &initial, THREADS, msgs.iter().cloned(), &config);
        let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
        let oracle = analyze(input, &monitor);
        assert_eq!(report.states_explored as usize, oracle.states);
        assert_eq!(report.states_explored, 10_399);
        assert_eq!(report.satisfied(), oracle.violations.is_empty());
        // 20 interleaved threads saturate the run counts.
        assert_eq!(report.total_runs, StreamReport::SATURATED);
        assert_eq!(oracle.total_runs, StreamReport::SATURATED);
        assert_eq!(
            report.violating_runs, oracle.violating_runs,
            "spec `{spec}`: violating runs"
        );
    }
}
