//! Quickstart: instrument a two-thread program, ship its relevant events
//! to the observer, and let the analysis predict a safety violation that
//! the observed execution never exhibited.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use jmpax::instrument::Session;
use jmpax::lattice::Exactness;
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

    let report = Pipeline::new(PipelineConfig::new()).check_messages(
        monitor,
        &ProgramState::new(),
        Exactness::Exact,
        u64::MAX,
        session.drain_messages(),
    );
    let predicted = report.predicted() && !report.observed();

    println!("observed execution: deposit first, receipt second — successful");
    println!();
    println!("{}", render_analysis(report.ltl().unwrap(), &syms));
    if predicted {
        println!(
            "JMPaX verdict: VIOLATION PREDICTED — under another scheduling the \
             receipt can precede the deposit."
        );
    }
    assert!(predicted);
}
