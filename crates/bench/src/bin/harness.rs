//! The experiment harness: regenerates every figure of the paper and the
//! quantitative claims catalogued in DESIGN.md / EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p jmpax-bench --bin harness --release            # everything
//! cargo run -p jmpax-bench --bin harness --release -- fig5    # one experiment
//! ```
//!
//! An unknown experiment name prints the valid names to stderr and exits 2.

use std::time::Instant;

use jmpax_bench::{
    banded_computation, compare_symmetric, detection_sweep, fig3_equivalence, fig5_experiment,
    fig6_experiment, BandedConfig,
};
use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{AnalysisKind, Relevance, VarId};
use jmpax_lattice::{
    analysis::analyze_lattice, AnalysisConfig, Exactness, Lattice, LatticeInput, SuiteBuilder,
};
use jmpax_observer::liveness::{find_lassos, predict_liveness_violations, Ltl};
use jmpax_spec::ast::{Atom, CmpOp, Expr};
use jmpax_workloads::{bank, landing, peterson, xyz};

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [(&str, fn()); 14] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("detection", detection),
    ("lattice-scaling", lattice_scaling),
    ("ablation", ablation),
    ("liveness", liveness),
    ("overhead", overhead),
    ("races", races),
    ("deadlock", deadlock),
    ("exhaustive", exhaustive),
    ("reduction", reduction),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let chosen: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .map(|&(_, run)| run)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "harness: unknown experiment `{which}`; expected all or one of: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}

/// Q9: partial-order reduction vs full enumeration cost.
fn reduction() {
    use jmpax_sched::{explore_all, explore_reduced, ExploreLimits};
    use jmpax_workloads::synthetic::{workload as synthetic, SyntheticConfig};

    header("Q9 — reduced exploration (owner moves + state dedup) vs full enumeration");
    println!(
        "{:>6} {:>8} {:>12} {:>16} {:>10}",
        "thr", "stmts", "full-runs", "reduced-states", "speedup"
    );
    for (threads, stmts) in [(2usize, 4usize), (2, 6), (3, 3)] {
        let w = synthetic(SyntheticConfig {
            threads,
            vars: 3,
            stmts_per_thread: stmts,
            lock_prob: 0.2,
            locks: 2,
            seed: 5,
        });
        let limits = ExploreLimits {
            max_steps: 256,
            max_runs: 400_000, // cap the oracle; the reduced search never gets close
        };
        let full = explore_all(&w.program, limits).len();
        let reduced = explore_reduced(&w.program, limits);
        println!(
            "{threads:>6} {stmts:>8} {full:>12} {:>16} {:>9.1}x",
            reduced.states_expanded,
            full as f64 / reduced.states_expanded.max(1) as f64
        );
    }
}

/// Q6: predictive data-race detection vs naive trace-overlap detection.
fn races() {
    use jmpax_core::AnalysisKind;
    use jmpax_lattice::Exactness;
    use jmpax_observer::{Pipeline, PipelineConfig};
    use jmpax_sched::run_random;

    header("Q6 — predictive data races (vector clocks) vs trace overlap");
    // A realistic racy pair: each thread does local work (on a private
    // variable) before and after one unsynchronized access to x, so the
    // racing accesses are usually far apart in the observed trace.
    use jmpax_sched::{Expr, Stmt};
    let x = VarId(0);
    let body = |private: VarId, writes_x: bool| {
        let mut stmts = Vec::new();
        for _ in 0..6 {
            stmts.push(Stmt::assign(private, Expr::var(private).add(Expr::val(1))));
        }
        if writes_x {
            stmts.push(Stmt::assign(x, Expr::var(x).add(Expr::val(1))));
        } else {
            stmts.push(Stmt::assign(private, Expr::var(x)));
        }
        for _ in 0..6 {
            stmts.push(Stmt::assign(private, Expr::var(private).add(Expr::val(1))));
        }
        stmts
    };
    let program = jmpax_sched::Program::new()
        .with_thread(body(VarId(1), true))
        .with_thread(body(VarId(2), false))
        .with_initial(x, 0i64)
        .with_initial(VarId(1), 0i64)
        .with_initial(VarId(2), 0i64);

    let seeds = 200u64;
    let mut predicted = 0usize;
    let mut adjacent = 0usize;
    let pipeline = Pipeline::new(PipelineConfig::new());
    for seed in 0..seeds {
        let out = run_random(&program, seed, 100);
        let suite = pipeline.check_stream_suite(
            &[AnalysisKind::Race],
            None,
            out.execution.thread_count(),
            Exactness::Exact,
            out.execution.instrument(Relevance::Everything),
        );
        if !suite.satisfied() {
            predicted += 1;
        }
        // Naive detector: conflicting accesses by different threads that
        // are ADJACENT in the trace (the "you must catch it in the act"
        // strawman a flat-trace monitor amounts to).
        let evts = &out.execution.events;
        if evts.windows(2).any(|w| {
            w[0].thread != w[1].thread
                && w[0].var() == Some(x)
                && w[1].var() == Some(x)
                && (w[0].kind.is_write() || w[1].kind.is_write())
        }) {
            adjacent += 1;
        }
    }
    println!(
        "{:<42} {:>10}",
        "schedules with race PREDICTED (clocks)",
        format!("{predicted}/{seeds}")
    );
    println!(
        "{:<42} {:>10}",
        "schedules with adjacent conflict (naive)",
        format!("{adjacent}/{seeds}")
    );
}

/// Q7: deadlock prediction from deadlock-free runs.
fn deadlock() {
    use jmpax_observer::predict_deadlocks;
    use jmpax_sched::{run_random, ExploreLimits};
    use jmpax_workloads::dining;
    use std::collections::BTreeSet;

    header("Q7 — deadlock prediction (dining philosophers, n = 3)");
    for (ordered, label) in [(false, "naive"), (true, "ordered-fix")] {
        let w = dining::workload(3, ordered);
        let locks: BTreeSet<VarId> = dining::fork_vars(&w).into_iter().collect();
        // How often do random schedules actually deadlock?
        let seeds = 200u64;
        let mut real_deadlocks = 0usize;
        let mut predicted_from_safe = 0usize;
        let mut safe_runs = 0usize;
        for seed in 0..seeds {
            let out = run_random(&w.program, seed, 500);
            if out.deadlocked {
                real_deadlocks += 1;
            } else if out.finished {
                safe_runs += 1;
                if !predict_deadlocks(&out.execution, &locks).is_empty() {
                    predicted_from_safe += 1;
                }
            }
        }
        // Ground truth: does ANY schedule deadlock?
        let any = jmpax_sched::explore_all(
            &w.program,
            ExploreLimits {
                max_steps: 64,
                max_runs: 50_000,
            },
        )
        .iter()
        .any(|o| o.deadlocked);
        println!(
            "{label:<12} observed deadlocks {real_deadlocks:>3}/{seeds}; predicted from safe runs \
             {predicted_from_safe:>3}/{safe_runs}; some schedule deadlocks: {any}"
        );
    }
}

/// Q8: one-run prediction vs exhaustive schedule enumeration.
fn exhaustive() {
    use jmpax_observer::{Pipeline, PipelineConfig};
    use jmpax_sched::{run_random, verify_exhaustive, ExploreLimits};

    header("Q8 — single-run prediction vs exhaustive enumeration (ground truth)");
    println!(
        "{:<12} {:>12} {:>14} {:>16} {:>18}",
        "workload", "schedules", "violating", "pred-from-run0", "exhaustive-says"
    );
    for (name, w) in [
        ("xyz", xyz::workload()),
        ("bank-buggy", bank::workload(false)),
        ("bank-locked", bank::workload(true)),
    ] {
        let monitor = w.monitor();
        let truth = verify_exhaustive(
            &w.program,
            &monitor,
            ExploreLimits {
                max_steps: 128,
                max_runs: 100_000,
            },
        );
        let out = run_random(&w.program, 0, 500);
        let mut syms = w.symbols.clone();
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(
                &out.execution,
                &[AnalysisKind::Ltl],
                Some(&w.spec),
                &mut syms,
            )
            .unwrap();
        println!(
            "{name:<12} {:>12} {:>14} {:>16} {:>18}",
            truth.total,
            truth.violating,
            if report.predicted() {
                "VIOLATION"
            } else {
                "clean"
            },
            if truth.any_violation() {
                "VIOLATION"
            } else {
                "clean"
            },
        );
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// F2: Algorithm A runs online and filters events down to relevant ones.
fn fig2() {
    header("Fig. 2 — Algorithm A as an online event filter");
    println!(
        "{:>8} {:>6} {:>6} {:>10} {:>10} {:>12}",
        "events", "thr", "vars", "messages", "filtered%", "ns/event"
    );
    for (threads, vars) in [(2, 2), (4, 4), (8, 8), (16, 16)] {
        let ex = random_execution(RandomExecutionConfig {
            threads,
            vars,
            events: 100_000,
            write_ratio: 0.5,
            internal_ratio: 0.1,
            seed: 42,
        });
        let rel = Relevance::writes_of([VarId(0)]);
        let t0 = Instant::now();
        let msgs = ex.instrument(rel);
        let dt = t0.elapsed();
        let filtered = 100.0 * (1.0 - msgs.len() as f64 / ex.len() as f64);
        println!(
            "{:>8} {:>6} {:>6} {:>10} {:>9.1}% {:>12.1}",
            ex.len(),
            threads,
            vars,
            msgs.len(),
            filtered,
            dt.as_nanos() as f64 / ex.len() as f64
        );
    }
}

/// F3: the distributed-systems interpretation is equivalent.
fn fig3() {
    header("Fig. 3 — distributed-processes interpretation ≡ Algorithm A");
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>7}",
        "seed", "events", "messages", "hidden", "agree"
    );
    for seed in 0..5 {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 3,
            events: 5_000,
            write_ratio: 0.4,
            internal_ratio: 0.1,
            seed,
        });
        let (events, messages, hidden, agree) = fig3_equivalence(&ex.events);
        println!("{seed:>6} {events:>8} {messages:>10} {hidden:>8} {agree:>7}");
        assert!(agree);
    }
    println!("(3 messages per variable access; hidden = one per read, cf. Fig. 3)");
}

/// F4: the full architecture over the framed byte stream with shuffling.
fn fig4() {
    use jmpax_instrument::{EventSink, FrameSink, ResilientFrameDecoder};
    use jmpax_lattice::Exactness;
    use jmpax_observer::{Pipeline, PipelineConfig};
    use jmpax_spec::ProgramState;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    header("Fig. 4 — end-to-end architecture (instrument → socket → observer)");
    let w = xyz::workload();
    let out = jmpax_sched::run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let msgs = out
        .execution
        .instrument(Relevance::writes_of(w.relevant_vars()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut shuffled = msgs.clone();
    shuffled.shuffle(&mut rng);
    let sink = FrameSink::new();
    {
        let mut writer = sink.clone();
        for m in &shuffled {
            writer.emit(m);
        }
    }
    let bytes = sink.take_bytes();
    println!(
        "frames: {} messages, {} bytes, delivered shuffled",
        msgs.len(),
        bytes.len()
    );
    let mut decoder = ResilientFrameDecoder::new();
    let received = decoder.push(&bytes);
    assert!(decoder.finish().is_clean());
    let report = Pipeline::new(PipelineConfig::new()).check_messages(
        w.monitor(),
        &ProgramState::from_map(out.execution.initial.clone()),
        Exactness::Exact,
        u64::MAX,
        received,
    );
    let a = report.ltl().unwrap();
    println!(
        "verdict: {} (states {}, runs {}, violating {})",
        if report.predicted() {
            "violation PREDICTED"
        } else {
            "satisfied"
        },
        a.states_explored,
        a.total_runs,
        a.violating_runs
    );
}

fn fig5() {
    header("Fig. 5 — flight controller lattice (Example 1)");
    let r = fig5_experiment();
    println!("{:<26} {:>8} {:>8}", "", "paper", "measured");
    println!("{:<26} {:>8} {:>8}", "lattice states", 6, r.states);
    println!("{:<26} {:>8} {:>8}", "multithreaded runs", 3, r.total_runs);
    println!("{:<26} {:>8} {:>8}", "violating runs", 2, r.violating_runs);
    println!(
        "{:<26} {:>8} {:>8}",
        "observed run successful",
        "yes",
        if r.observed_successful { "yes" } else { "no" }
    );
}

fn fig6() {
    header("Fig. 6 — Example 2 lattice");
    let r = fig6_experiment();
    println!("{:<26} {:>8} {:>8}", "", "paper", "measured");
    println!("{:<26} {:>8} {:>8}", "lattice states", 7, r.states);
    println!("{:<26} {:>8} {:>8}", "multithreaded runs", 3, r.total_runs);
    println!("{:<26} {:>8} {:>8}", "violating runs", 1, r.violating_runs);
    println!(
        "{:<26} {:>8} {:>8}",
        "observed run successful",
        "yes",
        if r.observed_successful { "yes" } else { "no" }
    );
}

/// Q1: detection probability, observed-run monitoring vs prediction.
fn detection() {
    header("Q1 — detection rates over random schedules (JPaX vs JMPaX)");
    println!(
        "{:<14} {:>9} {:>14} {:>14}",
        "workload", "schedules", "observed-hit", "predicted-hit"
    );
    let sweeps = [
        ("landing", landing::workload(), 200, 500),
        ("xyz", xyz::workload(), 200, 500),
        ("bank-buggy", bank::workload(false), 200, 200),
        ("bank-locked", bank::workload(true), 200, 200),
        ("peterson", peterson::workload(), 100, 2000),
    ];
    for (name, w, seeds, steps) in sweeps {
        let r = detection_sweep(&w, seeds, steps);
        println!(
            "{:<14} {:>9} {:>8} ({:>4.1}%) {:>8} ({:>4.1}%)",
            name,
            r.finished,
            r.observed,
            100.0 * r.observed as f64 / r.finished.max(1) as f64,
            r.predicted,
            100.0 * r.predicted as f64 / r.finished.max(1) as f64,
        );
    }
}

/// Q3: lattice size/time scaling; streaming stores only two levels.
fn lattice_scaling() {
    header("Q3 — lattice scaling and 2-level streaming (banded computations)");
    println!(
        "{:>4} {:>6} {:>7} {:>9} {:>10} {:>11} {:>10} {:>11}",
        "thr", "rounds", "period", "events", "states", "full-ms", "peak-front", "stream-ms"
    );
    let mut syms = jmpax_core::SymbolTable::new();
    for i in 0..8 {
        syms.intern(&format!("v{i}"));
    }
    let monitor = jmpax_spec::parse("v0 >= 0", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    for (threads, rounds, period) in [
        (2, 16, 0),
        (3, 8, 0),
        (4, 6, 0),
        (3, 30, 2),
        (4, 24, 2),
        (4, 48, 1),
        (5, 20, 1),
    ] {
        let (msgs, initial) = banded_computation(BandedConfig {
            threads,
            rounds,
            period,
        });
        let events = msgs.len();
        let t0 = Instant::now();
        let lattice =
            Lattice::build(LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap());
        let analysis = analyze_lattice(&lattice, &monitor, AnalysisConfig::default());
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let mut suite = SuiteBuilder::new(&[AnalysisKind::Ltl], threads)
            .build(Some((monitor.clone(), &initial)));
        suite.push_all(msgs);
        let report = suite.finish(Exactness::Exact).into_ltl();
        let stream_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(report.completed);
        assert_eq!(report.states_explored as usize, analysis.states);

        println!(
            "{threads:>4} {rounds:>6} {period:>7} {events:>9} {:>10} {full_ms:>11.2} {:>10} {stream_ms:>11.2}",
            analysis.states, report.peak_frontier
        );
    }
    println!("(period 0 = no barrier: hypercube growth; barriers bound the frontier)");
}

/// D1/D2 ablations.
fn ablation() {
    header("D1 — read/write asymmetry (symmetric variant over-serializes)");
    // Publication race: T1: a=1; read x.   T2: read x; b=1.
    // Reads are permutable under Algorithm A, so a ∥ b (2 runs); the
    // symmetric variant chains a ≺ read ≺ read ≺ b (1 run) and misses the
    // reordering.
    use jmpax_core::{Event, ThreadId};
    let t1 = ThreadId(0);
    let t2 = ThreadId(1);
    let (x, a, b) = (VarId(0), VarId(1), VarId(2));
    let race = vec![
        Event::write(t1, a, 1),
        Event::read(t1, x),
        Event::read(t2, x),
        Event::write(t2, b, 1),
    ];
    let stats = compare_symmetric(
        &race,
        &Relevance::writes_of([a, b]),
        &jmpax_spec::ProgramState::new(),
    );
    println!("{:<28} {:>10} {:>10}", "", "asymmetric", "symmetric");
    println!(
        "{:<28} {:>10} {:>10}",
        "runs (read-race)", stats.asymmetric_runs, stats.symmetric_runs
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "states (read-race)", stats.asymmetric_states, stats.symmetric_states
    );
    println!("the symmetric variant misses every reordering across read-read races");

    // On Example 2 the x write-write chain carries the causality, so the
    // two variants coincide — the asymmetry is a strict refinement.
    let w = xyz::workload();
    let out = jmpax_sched::run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let mut initial = jmpax_spec::ProgramState::new();
    for (var, value) in &out.execution.initial {
        initial.set(*var, *value);
    }
    let stats = compare_symmetric(
        &out.execution.events,
        &Relevance::writes_of(w.relevant_vars()),
        &initial,
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "runs (Example 2)", stats.asymmetric_runs, stats.symmetric_runs
    );

    header("D2 — relevance filtering (message minimization, Section 2.3)");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "events", "all-writes", "one-var", "reduction"
    );
    for events in [10_000, 100_000] {
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 8,
            events,
            write_ratio: 0.5,
            internal_ratio: 0.1,
            seed: 7,
        });
        let all = ex.instrument(Relevance::AllWrites).len();
        let one = ex.instrument(Relevance::writes_of([VarId(0)])).len();
        println!(
            "{events:>10} {all:>14} {one:>14} {:>11.1}x",
            all as f64 / one.max(1) as f64
        );
    }
}

/// Q5: liveness lassos.
fn liveness() {
    header("Q5 — liveness prediction on u·vω lassos (Section 4 sketch)");
    // A worker that toggles a busy flag; liveness: eventually always idle.
    let t1 = jmpax_core::ThreadId(0);
    let busy = VarId(0);
    let mut instr = jmpax_core::MvcInstrumentor::new(1, Relevance::AllWrites);
    let mut msgs = Vec::new();
    for _ in 0..3 {
        msgs.extend(instr.process(&jmpax_core::Event::write(t1, busy, 1i64)));
        msgs.extend(instr.process(&jmpax_core::Event::write(t1, busy, 0i64)));
    }
    let mut initial = jmpax_spec::ProgramState::new();
    initial.set(busy, 0i64);
    let lattice = Lattice::build(LatticeInput::from_messages(msgs, initial).unwrap());
    let lassos = find_lassos(&lattice, 32);
    let prop = Ltl::eventually(Ltl::always(Ltl::Atom(Atom::Cmp(
        Expr::Var(busy),
        CmpOp::Eq,
        Expr::Const(0),
    ))));
    let violations = predict_liveness_violations(&lattice, &prop, 32);
    println!("lassos found:                {}", lassos.len());
    println!("violating `F G (busy = 0)`:  {}", violations.len());
    println!("(each lasso u·vω repeats a global state; the busy/idle cycle can spin forever)");
}

/// Q2: instrumentation overhead.
fn overhead() {
    use jmpax_instrument::Session;
    header("Q2 — instrumentation overhead (Shared<T> vs parking_lot::Mutex)");
    const N: usize = 200_000;

    // Raw baseline: a parking_lot mutex around an i64.
    let raw = parking_lot::Mutex::new(0i64);
    let t0 = Instant::now();
    for _ in 0..N {
        let mut g = raw.lock();
        *g += 1;
    }
    let raw_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    // Instrumented: Shared<i64> update (read + write event, clocks, emit).
    let session = Session::new(Relevance::AllWrites);
    let x = session.shared("x", 0i64);
    let mut ctx = session.register_thread();
    let t0 = Instant::now();
    for _ in 0..N {
        x.update(&mut ctx, |v| v + 1);
    }
    let instr_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    // Instrumented but irrelevant (no message emission).
    let session = Session::new(Relevance::Nothing);
    let y = session.shared("y", 0i64);
    let mut ctx = session.register_thread();
    let t0 = Instant::now();
    for _ in 0..N {
        y.update(&mut ctx, |v| v + 1);
    }
    let quiet_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    println!(
        "{:<38} {:>10}",
        "raw mutex increment",
        format!("{raw_ns:.0} ns")
    );
    println!(
        "{:<38} {:>10}",
        "instrumented, relevant (emits msgs)",
        format!("{instr_ns:.0} ns")
    );
    println!(
        "{:<38} {:>10}",
        "instrumented, irrelevant (clocks only)",
        format!("{quiet_ns:.0} ns")
    );
    println!(
        "slowdown: {:.1}x relevant, {:.1}x irrelevant — the paper: \"all these can add significant delays\"",
        instr_ns / raw_ns,
        quiet_ns / raw_ns
    );
}
