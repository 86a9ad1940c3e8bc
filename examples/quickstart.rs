//! Quickstart: instrument a two-thread program, ship its relevant events
//! to the observer, and let the analysis predict a safety violation that
//! the observed execution never exhibited.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use jmpax::core::AnalysisKind;
use jmpax::instrument::Session;
use jmpax::observer::{render_analysis, Pipeline, PipelineConfig};
use jmpax::spec::ProgramState;
use jmpax::{parse, Relevance, VarId};

fn main() {
    // The bug: the bank posts a deposit and the notifier announces it,
    // with no synchronization between the two threads.
    let session = Session::new(Relevance::writes_of([VarId(0), VarId(1)]));
    let balance = session.shared("balance", 0i64);
    let notified = session.shared("notified", 0i64);

    let b = balance.clone();
    let t1 = session.spawn(move |ctx| {
        b.write(ctx, 150); // the deposit lands
    });
    t1.join().unwrap();

    // The notifier runs strictly later in *this* execution...
    let n = notified.clone();
    let t2 = session.spawn(move |ctx| {
        n.write(ctx, 1); // the receipt goes out
    });
    t2.join().unwrap();

    // ... so a single-trace monitor sees deposit-then-receipt and is happy.
    // The property: a receipt implies the money is there.
    let mut syms = session.symbols();
    let monitor = parse("start(notified = 1) -> balance >= 150", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();

    // The observer: one session over the messages, in any order, then the
    // JPaX-style check of the run it delivered.
    let pipeline = Pipeline::new(PipelineConfig::new());
    let initial = ProgramState::new();
    let mut observer = pipeline.session(&[AnalysisKind::Ltl], Some((monitor.clone(), &initial)), 2);
    let mut delivered = Vec::new();
    for m in session.drain_messages() {
        delivered.extend(observer.push(m));
    }
    delivered.extend(observer.end_input());
    let (report, _) = observer.finish();
    let observed = pipeline.check_observed_run(&monitor, &initial, &delivered);
    let predicted = !report.satisfied() && observed.is_none();

    println!("observed execution: deposit first, receipt second — successful");
    println!();
    println!(
        "{}",
        render_analysis(report.reports[0].as_ltl().unwrap(), &syms)
    );
    if predicted {
        println!(
            "JMPaX verdict: VIOLATION PREDICTED — under another scheduling the \
             receipt can precede the deposit."
        );
    }
    assert!(predicted);
}
