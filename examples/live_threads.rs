//! Live instrumentation of real `std::thread`s with mutexes and condition
//! variables, streamed over the framed byte "socket" to an observer that
//! receives the frames deliberately shuffled (multi-channel delivery).
//!
//! Scenario: a producer fills a buffer cell and signals a consumer; a
//! separate auditor thread samples a "progress" counter unsynchronized.
//! The property "progress never exceeds items produced" is violated only
//! under reorderings the lattice analysis finds.
//!
//! ```sh
//! cargo run --example live_threads
//! ```

use jmpax::core::AnalysisKind;
use jmpax::instrument::{EventSink, FrameSink, ResilientFrameDecoder, Session};
use jmpax::observer::{Pipeline, PipelineConfig};
use jmpax::spec::ProgramState;
use jmpax::{parse, Relevance, SymbolTable, VarId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    // produced = items the producer has completed; progress = what the
    // (buggy) auditor publishes. The auditor bumps progress BEFORE the
    // producer confirms the item — a causality bug.
    let sink = FrameSink::new();
    let session = Session::with_sink(
        Relevance::writes_of([VarId(0), VarId(1)]),
        Box::new(sink.clone()),
    );
    let produced = session.shared("produced", 0i64);
    let progress = session.shared("progress", 0i64);
    let cell = session.mutex("cell", 0i64);
    let ready = session.condvar("ready");
    let ready = std::sync::Arc::new(ready);

    // Producer: put an item, then record it as produced.
    let (c1, r1, p1) = (
        cell.clone(),
        std::sync::Arc::clone(&ready),
        produced.clone(),
    );
    let producer = session.spawn(move |ctx| {
        let mut g = c1.lock(ctx);
        *g = 42;
        p1.write(g.ctx(), 1);
        r1.notify_one(g.ctx());
    });

    // Auditor: optimistically publish progress without waiting.
    let pr = progress.clone();
    let auditor = session.spawn(move |ctx| {
        pr.write(ctx, 1);
    });

    // Consumer: wait for the item (exercises the condvar edges).
    let (c3, r3) = (cell.clone(), std::sync::Arc::clone(&ready));
    let consumer = session.spawn(move |ctx| {
        let mut g = c3.lock(ctx);
        while *g == 0 {
            r3.wait(&mut g);
        }
        assert_eq!(*g, 42);
    });

    producer.join().unwrap();
    auditor.join().unwrap();
    consumer.join().unwrap();

    // Simulate multi-channel delivery: shuffle the frames' decode order by
    // re-encoding in shuffled order.
    let mut msgs = ResilientFrameDecoder::new().push(&sink.take_bytes());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    msgs.shuffle(&mut rng);
    let shuffled_sink = FrameSink::new();
    {
        let mut w = shuffled_sink.clone();
        for m in &msgs {
            w.emit(m);
        }
    }

    let mut syms = SymbolTable::new();
    syms.intern("produced");
    syms.intern("progress");
    let monitor = parse("progress <= produced", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    // One observer session over the shuffled bytes; three threads (producer,
    // auditor, consumer).
    let initial = ProgramState::new();
    let mut observer = Pipeline::new(PipelineConfig::new()).session(
        &[AnalysisKind::Ltl],
        Some((monitor, &initial)),
        3,
    );
    let (_, mut delivered) = observer.push_bytes(&shuffled_sink.take_bytes());
    delivered.extend(observer.end_input());
    let (report, decoded) = observer.finish();
    assert!(decoded.is_clean());

    println!(
        "messages delivered out of order: {} relevant writes",
        delivered.len()
    );
    let a = report.reports[0].as_ltl().unwrap();
    println!(
        "lattice: {} states, {} runs, {} violating",
        a.states_explored, a.total_runs, a.violating_runs
    );
    println!(
        "verdict: {}",
        if !report.satisfied() {
            "VIOLATION PREDICTED (auditor can publish progress before the item exists)"
        } else {
            "satisfied"
        }
    );
    assert!(!report.satisfied());
}
