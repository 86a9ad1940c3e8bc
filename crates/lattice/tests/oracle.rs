//! Exhaustive oracle for lattice construction: on small computations, the
//! number of multithreaded runs equals the number of **linear extensions**
//! of the relevant causality (counted by brute-force permutation
//! enumeration), and the set of lattice states equals the set of prefixes
//! of those linear extensions (as cuts). The streaming engine's run counts
//! are held to the same brute force.

use jmpax_core::{AnalysisKind, Event, Message, MvcInstrumentor, Relevance, ThreadId, VarId};
use jmpax_lattice::{
    AnalysisConfig, Cut, Exactness, Lattice, LatticeInput, StreamReport, SuiteBuilder,
};
use jmpax_spec::{Monitor, ProgramState};
use proptest::prelude::*;
use std::collections::HashSet;

/// Brute force: count permutations of `msgs` consistent with causality
/// (same-thread order + Theorem 3 precedence), and collect every prefix's
/// cut.
fn linear_extensions(msgs: &[Message]) -> (u128, HashSet<Cut>) {
    let n = msgs.len();
    let threads = msgs
        .iter()
        .map(|m| m.thread().index() + 1)
        .max()
        .unwrap_or(0);
    let mut cuts = HashSet::new();
    cuts.insert(Cut::bottom(threads));
    let mut used = vec![false; n];
    let mut count = 0u128;
    fn rec(
        msgs: &[Message],
        used: &mut [bool],
        taken: usize,
        cut: &Cut,
        cuts: &mut HashSet<Cut>,
        count: &mut u128,
    ) {
        if taken == msgs.len() {
            *count += 1;
            return;
        }
        for i in 0..msgs.len() {
            if used[i] {
                continue;
            }
            // All causal predecessors of msgs[i] must be used already.
            let ok =
                (0..msgs.len()).all(|j| j == i || used[j] || !msgs[j].causally_precedes(&msgs[i]));
            if !ok {
                continue;
            }
            used[i] = true;
            let next = cut.advanced(msgs[i].thread());
            cuts.insert(next.clone());
            rec(msgs, used, taken + 1, &next, cuts, count);
            used[i] = false;
        }
    }
    rec(
        msgs,
        &mut used,
        0,
        &Cut::bottom(threads),
        &mut cuts,
        &mut count,
    );
    (count, cuts)
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    // Small: brute force is factorial. ≤ 7 relevant writes.
    prop::collection::vec((0..3u32, 0..3u32, 0..4u8), 0..10).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (t, v, kind))| {
                let thread = ThreadId(t);
                let var = VarId(v);
                match kind {
                    0 | 1 => Event::write(thread, var, i as i64),
                    2 => Event::read(thread, var),
                    _ => Event::internal(thread),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lattice_counts_linear_extensions(events in arb_events()) {
        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let msgs: Vec<Message> =
            events.iter().filter_map(|e| instr.process(e)).collect();
        prop_assume!(msgs.len() <= 7);

        let threads = msgs.iter().map(|m| m.thread().index() + 1).max().unwrap_or(0);
        let (expected_runs, expected_cuts) = linear_extensions(&msgs);

        let input = LatticeInput::from_messages(msgs, ProgramState::new()).unwrap();
        let lattice = Lattice::build(input);

        prop_assert_eq!(
            lattice.count_runs(),
            expected_runs,
            "run count != linear extension count"
        );
        // Node set == prefix cut set (normalize: lattice cuts may have a
        // different thread count when trailing threads emitted nothing).
        let got: HashSet<Cut> = lattice
            .nodes()
            .iter()
            .map(|n| pad(&n.cut, threads))
            .collect();
        let want: HashSet<Cut> = expected_cuts.iter().map(|c| pad(c, threads)).collect();
        prop_assert_eq!(got, want, "cut sets differ");

        // Enumerated runs agree with the count (when small enough).
        if expected_runs <= 512 {
            prop_assert_eq!(
                lattice.enumerate_runs(1024).len() as u128,
                expected_runs
            );
        }
    }
}

/// The engine's report on `msgs`: an LTL-only suite over `threads`
/// threads starting from `initial`.
fn engine(
    monitor: Monitor,
    initial: &ProgramState,
    threads: usize,
    config: &AnalysisConfig,
    msgs: Vec<Message>,
) -> StreamReport {
    let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
        .config(config)
        .build(Some((monitor, initial)));
    suite.push_all(msgs);
    suite.finish(Exactness::Exact).into_ltl()
}

fn pad(cut: &Cut, threads: usize) -> Cut {
    let mut counts: Vec<u32> = cut.as_slice().to_vec();
    counts.resize(threads.max(counts.len()), 0);
    Cut::from_counts(counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The oracle's and the engine's exact violating-run counts equal brute
    /// force: enumerate every run, monitor its state sequence, count the
    /// violating ones.
    #[test]
    fn violating_run_count_matches_enumeration(events in arb_events()) {
        use jmpax_core::SymbolTable;
        use jmpax_lattice::analyze;
        use jmpax_spec::parse;

        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let msgs: Vec<Message> =
            events.iter().filter_map(|e| instr.process(e)).collect();
        prop_assume!(msgs.len() <= 7);

        let mut syms = SymbolTable::new();
        for name in ["v0", "v1", "v2"] {
            syms.intern(name);
        }
        // A property that bites on some value patterns: v0 stays below the
        // median write counter, or v1 was never above v2.
        let formula = parse("v0 <= 4 \\/ [*] v1 <= v2", &mut syms).unwrap();
        let monitor = formula.monitor().unwrap();

        let threads = msgs.iter().map(|m| m.thread().index() + 1).max().unwrap_or(1);
        let input = LatticeInput::from_messages(msgs.clone(), ProgramState::new()).unwrap();
        let lattice = Lattice::build(input.clone());
        let total = lattice.count_runs();
        prop_assume!(total <= 512);

        // Brute force: monitor every enumerated run.
        let mut violating = 0u128;
        for run in lattice.enumerate_runs(1024) {
            let states = lattice.states_along(&run);
            if monitor.first_violation(&states).is_some() {
                violating += 1;
            }
        }

        let analysis = analyze(input, &monitor);
        prop_assert_eq!(analysis.total_runs, total);
        prop_assert_eq!(
            analysis.violating_runs, violating,
            "exact violating-run count diverged from enumeration"
        );

        let report = engine(
            monitor,
            &ProgramState::new(),
            threads,
            &AnalysisConfig::default(),
            msgs,
        );
        prop_assert_eq!(report.total_runs, total);
        prop_assert_eq!(
            report.violating_runs, violating,
            "the engine's violating-run count diverged from enumeration"
        );
    }
}

/// Regression: C(140, 70) ≈ 9.38·10⁴⁰ runs exceed `u128`. Two threads
/// writing private variables 70 times each span a 71×71 grid of 5 041
/// states; every count saturates instead of wrapping, and the satisfied
/// property still has no violating run.
#[test]
fn run_counts_saturate_instead_of_wrapping() {
    use jmpax_core::SymbolTable;
    use jmpax_lattice::analyze;
    use jmpax_spec::parse;

    let mut syms = SymbolTable::new();
    let monitor = parse("a >= 0 /\\ b >= 0", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    let (a, b) = (syms.lookup("a").unwrap(), syms.lookup("b").unwrap());
    let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
    let mut msgs = Vec::new();
    for i in 1..=70 {
        msgs.extend(instr.process(&Event::write(ThreadId(0), a, i)));
        msgs.extend(instr.process(&Event::write(ThreadId(1), b, i)));
    }
    let input = LatticeInput::from_messages(msgs.clone(), ProgramState::new()).unwrap();
    assert_eq!(
        Lattice::build(input.clone()).count_runs(),
        StreamReport::SATURATED
    );
    let oracle = analyze(input, &monitor);
    assert_eq!(oracle.states, 5041);
    assert_eq!(
        (oracle.total_runs, oracle.violating_runs),
        (StreamReport::SATURATED, 0)
    );

    let report = engine(
        monitor,
        &ProgramState::new(),
        2,
        &AnalysisConfig::default(),
        msgs,
    );
    assert_eq!(report.states_explored, 5041);
    assert_eq!(report.total_runs, StreamReport::SATURATED);
    assert_eq!(report.violating_runs, 0);
    assert!(report.satisfied());
}

/// Deterministic spot check: three concurrent writers of private variables
/// have 3! = 6 linear extensions and 2³ = 8 cuts.
#[test]
fn three_concurrent_writers() {
    let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
    let msgs: Vec<Message> = (0..3)
        .map(|t| {
            instr
                .process(&Event::write(ThreadId(t), VarId(t), 1))
                .unwrap()
        })
        .collect();
    let (runs, cuts) = linear_extensions(&msgs);
    assert_eq!(runs, 6);
    assert_eq!(cuts.len(), 8);
    let lattice = Lattice::build(LatticeInput::from_messages(msgs, ProgramState::new()).unwrap());
    assert_eq!(lattice.count_runs(), 6);
    assert_eq!(lattice.node_count(), 8);
}

/// Brute force over runs with stutters: every causally consistent order of
/// `msgs`, monitored along its state sequence, where a write updates the
/// state and any other message (a read, an internal event) repeats it.
/// Returns `(runs, violating runs)`.
fn monitored_runs(
    msgs: &[Message],
    monitor: &jmpax_spec::Monitor,
    initial: &ProgramState,
) -> (u128, u128) {
    struct Walk<'a> {
        msgs: &'a [Message],
        monitor: &'a jmpax_spec::Monitor,
        used: Vec<bool>,
        runs: u128,
        violating: u128,
    }
    fn rec(
        w: &mut Walk<'_>,
        taken: usize,
        state: &ProgramState,
        mem: jmpax_spec::MonitorState,
        bad: bool,
    ) {
        if taken == w.msgs.len() {
            w.runs += 1;
            w.violating += u128::from(bad);
            return;
        }
        for i in 0..w.msgs.len() {
            if w.used[i] {
                continue;
            }
            let ready = (0..w.msgs.len())
                .all(|j| j == i || w.used[j] || !w.msgs[j].causally_precedes(&w.msgs[i]));
            if !ready {
                continue;
            }
            let m = &w.msgs[i];
            let next = match m.var().zip(m.written_value()) {
                Some((var, value)) => state.updated(var, value),
                None => state.clone(),
            };
            let (next_mem, ok) = w.monitor.step(mem, &next);
            w.used[i] = true;
            rec(w, taken + 1, &next, next_mem, bad || !ok);
            w.used[i] = false;
        }
    }
    let (mem, ok) = monitor.initial(initial);
    let mut walk = Walk {
        msgs,
        monitor,
        used: vec![false; msgs.len()],
        runs: 0,
        violating: 0,
    };
    rec(&mut walk, 0, initial, mem, !ok);
    (walk.runs, walk.violating)
}

/// Lattice edges labelled by a non-write: the cut set's edges whose
/// consumed message is a read or an internal event.
fn stutter_edges(msgs: &[Message], cuts: &HashSet<Cut>, threads: usize) -> u64 {
    let mut per_thread: Vec<Vec<&Message>> = vec![Vec::new(); threads];
    for m in msgs {
        per_thread[m.thread().index()].push(m);
    }
    let mut edges = 0;
    for cut in cuts {
        for (t, queue) in per_thread.iter().enumerate() {
            let tid = ThreadId(t as u32);
            let Some(m) = queue.get(cut.get(tid) as usize) else {
                continue;
            };
            if m.written_value().is_none() && cuts.contains(&cut.advanced(tid)) {
                edges += 1;
            }
        }
    }
    edges
}

/// Properties that look back one state (`@`, `start`) or latch (`[*]`,
/// an interval): a read must repeat its source's state and valuation
/// exactly, or the look-back and the latches see a state no run has.
const STUTTER_SPECS: &[&str] = &[
    "v0 <= 4 \\/ [*] v1 <= v2",
    "start(v0 > 1) -> @ v1 = 0",
    "[v1 > 0, v2 > 2)",
];

fn arb_small_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0..3u32, 0..3u32, 0..4u8), 0..8).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (t, v, kind))| match kind {
                0 => Event::write(ThreadId(t), VarId(v), i as i64),
                1 | 2 => Event::read(ThreadId(t), VarId(v)),
                _ => Event::internal(ThreadId(t)),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Streams with reads (every event relevant): the engine's states are
    /// the distinct cuts, its run count the linear extensions, its
    /// violating-run count the enumerated runs that violate with reads as
    /// repeated states, and each stutter edge is counted once — with the
    /// step cache on and off, and with identical violations either way.
    #[test]
    fn engine_matches_enumeration_on_streams_with_reads(
        events in arb_small_events(),
        spec in 0..STUTTER_SPECS.len(),
    ) {
        use jmpax_core::SymbolTable;
        use jmpax_spec::parse;

        let mut instr = MvcInstrumentor::with_relevance(Relevance::Everything);
        let msgs: Vec<Message> = events.iter().filter_map(|e| instr.process(e)).collect();
        prop_assert_eq!(msgs.len(), events.len(), "every event is relevant");

        let mut syms = SymbolTable::new();
        for name in ["v0", "v1", "v2"] {
            syms.intern(name);
        }
        let monitor = parse(STUTTER_SPECS[spec], &mut syms).unwrap().monitor().unwrap();
        let initial = ProgramState::new();
        let threads = msgs.iter().map(|m| m.thread().index() + 1).max().unwrap_or(1);
        let (runs, cuts) = linear_extensions(&msgs);
        let cuts: HashSet<Cut> = cuts.iter().map(|c| pad(c, threads)).collect();
        let (total, violating) = monitored_runs(&msgs, &monitor, &initial);
        prop_assert_eq!(total, runs);
        let stutters = stutter_edges(&msgs, &cuts, threads);

        let mut first: Option<String> = None;
        for cache in [true, false] {
            let config = AnalysisConfig::default().with_eval_cache(cache);
            let report = engine(monitor.clone(), &initial, threads, &config, msgs.clone());
            let at = format!("cache {cache}");
            prop_assert!(report.completed, "{}", at);
            prop_assert_eq!(report.states_explored, cuts.len() as u64, "{}", at);
            prop_assert_eq!(report.total_runs, total, "{}", at);
            prop_assert_eq!(report.violating_runs, violating, "{}", at);
            prop_assert_eq!(report.non_writes_skipped, stutters, "{}", at);
            prop_assert_eq!(report.satisfied(), violating == 0, "{}", at);
            let violations = format!("{:?}", report.violations);
            match &first {
                Some(f) => prop_assert_eq!(f, &violations, "{}", at),
                None => first = Some(violations),
            }
        }
    }
}
