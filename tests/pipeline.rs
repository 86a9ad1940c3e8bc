//! The Fig. 4 architecture end to end with *real* threads: instrumented
//! program → Algorithm A inside `Shared<T>` accessors → framed byte stream
//! ("socket") → observer → computation lattice → verdict.

use jmpax::instrument::{FrameSink, ResilientFrameDecoder, Session};
use jmpax::lattice::Exactness;
use jmpax::observer::{Pipeline, PipelineConfig, PipelineReport};
use jmpax::spec::ProgramState;
use jmpax::{parse, Monitor, Relevance, SymbolTable};

/// The observer end of the wire: decode the received bytes, which must
/// arrive intact, and analyze the messages.
fn observe_wire(bytes: &[u8], monitor: Monitor, initial: ProgramState) -> PipelineReport {
    let mut decoder = ResilientFrameDecoder::new();
    let messages = decoder.push(bytes);
    assert!(decoder.finish().is_clean());
    Pipeline::new(PipelineConfig::new()).check_messages(
        monitor,
        &initial,
        Exactness::Exact,
        u64::MAX,
        messages,
    )
}

/// Example 2 of the paper run on real `std::thread`s. The paper's observed
/// interleaving is forced by an *uninstrumented* atomic rendezvous — it
/// stands in for scheduler timing, not program synchronization, so it adds
/// no causal edges and the lattice is exactly Fig. 6's.
#[test]
fn real_threads_example2_predicts_violation_over_the_wire() {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    // Variable ids are interned in order: x=0, y=1, z=2.
    let sink = FrameSink::new();
    let session = Session::with_sink(
        Relevance::writes_of([jmpax::VarId(0), jmpax::VarId(1), jmpax::VarId(2)]),
        Box::new(sink.clone()),
    );
    let x = session.shared("x", -1i64);
    let y = session.shared("y", 0i64);
    let z = session.shared("z", 0i64);
    let gate = Arc::new(AtomicI64::new(0));
    let pause = |g: &AtomicI64, v: i64| {
        while g.load(Ordering::SeqCst) != v {
            std::thread::yield_now();
        }
    };

    // Thread 1: x++; …; y = x + 1.
    let (x1, y1, g1) = (x.clone(), y.clone(), Arc::clone(&gate));
    let t1 = session.spawn(move |ctx| {
        let v = x1.read(ctx);
        x1.write(ctx, v + 1);
        g1.store(1, Ordering::SeqCst);
        pause(&g1, 2);
        let v = x1.read(ctx);
        y1.write(ctx, v + 1);
        g1.store(3, Ordering::SeqCst);
    });

    // Thread 2: z = x + 1; …; x++.
    let (x2, z2, g2) = (x.clone(), z.clone(), Arc::clone(&gate));
    let t2 = session.spawn(move |ctx| {
        pause(&g2, 1);
        let v = x2.read(ctx);
        z2.write(ctx, v + 1);
        g2.store(2, Ordering::SeqCst);
        pause(&g2, 3);
        let v = x2.read(ctx);
        x2.write(ctx, v + 1);
    });

    t1.join().unwrap();
    t2.join().unwrap();

    // Observer side: decode the byte stream and analyze.
    let mut syms = SymbolTable::new();
    for n in ["x", "y", "z"] {
        syms.intern(n);
    }
    let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    let mut initial = ProgramState::new();
    initial.set(jmpax::VarId(0), -1);
    let report = observe_wire(&sink.take_bytes(), monitor, initial);

    assert_eq!(report.messages.len(), 4, "x=0, z=1, y=1, x=1");
    assert!(!report.observed(), "the forced interleaving is successful");
    assert!(report.predicted(), "the violation must be predicted");
    let a = report.ltl().unwrap();
    assert_eq!(
        a.states_explored, 7,
        "real threads reproduce the Fig. 6 lattice"
    );
    assert_eq!(a.total_runs, 3);
    assert_eq!(a.violating_runs, 1);
}

/// A raced version without any handshake: whatever interleaving the OS
/// produces, the verdict must be a superset of the single-trace one
/// (prediction never misses what observation finds).
#[test]
fn real_threads_raced_prediction_dominates_observation() {
    for round in 0..10 {
        let sink = FrameSink::new();
        let session = Session::with_sink(
            Relevance::writes_of([jmpax::VarId(0), jmpax::VarId(1)]),
            Box::new(sink.clone()),
        );
        let data = session.shared("data", 0i64);
        let flag = session.shared("flag", 0i64);

        let d1 = data.clone();
        let t1 = session.spawn(move |ctx| {
            d1.write(ctx, 150);
        });
        let f2 = flag.clone();
        let t2 = session.spawn(move |ctx| {
            f2.write(ctx, 1);
        });
        t1.join().unwrap();
        t2.join().unwrap();

        let mut syms = SymbolTable::new();
        syms.intern("data");
        syms.intern("flag");
        let monitor = parse("start(flag = 1) -> data >= 150", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let report = observe_wire(&sink.take_bytes(), monitor, ProgramState::new());

        // The two writes are causally unrelated: the lattice always
        // contains the bad order, so prediction fires on every round,
        // regardless of the actual interleaving.
        assert!(report.predicted(), "round {round}: prediction must fire");
        assert_eq!(report.ltl().unwrap().total_runs, 2);
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        if report.observed() {
            // When the OS happened to produce the bad order, the observed
            // run violates at its first state: the flag was set first.
            assert_eq!(report.observed_violation, Some(1));
        }
    }
}

/// Locks prune the lattice (ablation D5 in DESIGN.md): the same publication
/// race guarded by a common mutex has no violating run.
#[test]
fn real_threads_locked_publication_is_clean() {
    let sink = FrameSink::new();
    let session = Session::with_sink(
        Relevance::writes_of([jmpax::VarId(0), jmpax::VarId(1)]),
        Box::new(sink.clone()),
    );
    let data = session.shared("data", 0i64);
    let flag = session.shared("flag", 0i64);
    let m = session.mutex("m", ());

    let (d1, m1) = (data.clone(), m.clone());
    let t1 = session.spawn(move |ctx| {
        let mut g = m1.lock(ctx);
        d1.write(g.ctx(), 150);
    });
    let (d2, f2, m2) = (data.clone(), flag.clone(), m.clone());
    let t2 = session.spawn(move |ctx| {
        let mut g = m2.lock(ctx);
        if d2.read(g.ctx()) >= 150 {
            f2.write(g.ctx(), 1);
        }
    });
    t1.join().unwrap();
    t2.join().unwrap();

    let mut syms = SymbolTable::new();
    syms.intern("data");
    syms.intern("flag");
    let monitor = parse("start(flag = 1) -> data >= 150", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    let report = observe_wire(&sink.take_bytes(), monitor, ProgramState::new());
    assert!(
        !report.predicted(),
        "lock events order the critical sections; no violating run remains"
    );
}

/// One traced registry reaches every lane of a full suite: the
/// `ltl,race,atomicity` suite over the `nonatomic` workload, with one
/// message withheld, records one `GapSkipped` per committed gap on
/// `resilience`, one `Finding` per finding on `analysis.race` /
/// `analysis.atomicity`, and one `LevelSealed` per built level on
/// `lattice`.
#[test]
fn traced_suite_fills_every_analysis_lane() {
    use jmpax::core::AnalysisKind;
    use jmpax::workloads::nonatomic;
    use jmpax::{Registry, TraceKind};

    let w = nonatomic::workload(false);
    let run = jmpax::sched::run_fixed(&w.program, nonatomic::interleaved_schedule(), 100);
    let mut messages = run.execution.instrument(Relevance::Everything);
    // Withhold T1's write of `tmp`: its later messages arrive, so the
    // reassembler commits the hole as a gap at the end of the stream.
    let withheld = messages
        .iter()
        .position(|m| m.thread().0 == 0 && m.seq() == 3)
        .expect("T1 sends lock, read, write tmp, write balance, unlock");
    messages.remove(withheld);

    let registry = Registry::enabled().traced();
    let pipeline = Pipeline::new(
        PipelineConfig::new()
            .telemetry(&registry)
            .sync_vars([w.symbols.lookup(nonatomic::LOCK_NAME).unwrap()]),
    );
    let initial = ProgramState::from_map(run.execution.initial.clone());
    let report = pipeline.check_stream_suite(
        &[
            AnalysisKind::Ltl,
            AnalysisKind::Race,
            AnalysisKind::Atomicity,
        ],
        Some((w.monitor(), &initial)),
        run.execution.thread_count(),
        Exactness::Exact,
        messages,
    );

    let data = registry.tracer().collect();
    let lane = |name: &str| -> Vec<&TraceKind> {
        data.lanes
            .iter()
            .filter(|l| l.lane == name)
            .flat_map(|l| l.events.iter().map(|r| &r.kind))
            .collect()
    };

    let gaps: Vec<(u32, u32, u32)> = lane("resilience")
        .into_iter()
        .map(|k| match k {
            TraceKind::GapSkipped { thread, from, to } => (*thread, *from, *to),
            other => panic!("unexpected resilience record {other:?}"),
        })
        .collect();
    let committed: Vec<(u32, u32, u32)> = report
        .reassembly
        .gaps
        .iter()
        .map(|g| (g.thread.0, g.from, g.to))
        .collect();
    assert!(
        !committed.is_empty(),
        "the withheld message must leave a gap"
    );
    assert_eq!(gaps, committed);

    let findings = |name: &str, analysis: &str| {
        lane(name)
            .into_iter()
            .filter(|k| matches!(k, TraceKind::Finding { analysis: a, .. } if *a == analysis))
            .count()
    };
    let races = report.reports[1].as_race().unwrap().findings.len();
    let violations = report.reports[2].as_atomicity().unwrap().findings.len();
    assert!(
        races > 0 && violations > 0,
        "{races} races, {violations} violations"
    );
    assert_eq!(findings("analysis.race", "race"), races);
    assert_eq!(findings("analysis.atomicity", "atomicity"), violations);

    let levels = report.reports[0].as_ltl().unwrap().levels_built;
    assert!(levels > 0, "the lattice must advance");
    let sealed = lane("lattice")
        .into_iter()
        .filter(|k| matches!(k, TraceKind::LevelSealed { .. }))
        .count();
    assert_eq!(sealed, levels as usize);
}
