//! A live observer running concurrently with the instrumented program —
//! the full *online* deployment of Fig. 4: the program emits messages into
//! a channel while a dedicated observer thread consumes them, advancing the
//! two-level streaming analysis as the computation unfolds.

use crossbeam::channel::Receiver;

use jmpax_core::{AnalysisKind, Message};
use jmpax_lattice::{Exactness, StreamReport, SuiteBuilder};
use jmpax_spec::{Monitor, ProgramState};

/// Handle to a running observer thread.
///
/// Create with [`LiveObserver::spawn`], then let the instrumented program
/// run; when its side of the channel closes (all
/// [`ChannelSink`](jmpax_instrument::ChannelSink) senders dropped), [`LiveObserver::join`]
/// returns the final [`StreamReport`].
#[derive(Debug)]
pub struct LiveObserver {
    handle: std::thread::JoinHandle<StreamReport>,
}

impl LiveObserver {
    /// Spawns the observer thread consuming `receiver`.
    ///
    /// `threads` is the number of program threads (frontier dimensions).
    #[must_use]
    pub fn spawn(
        monitor: Monitor,
        initial: ProgramState,
        threads: usize,
        receiver: Receiver<Message>,
    ) -> Self {
        let handle = std::thread::spawn(move || {
            let mut suite =
                SuiteBuilder::new(&[AnalysisKind::Ltl], threads).build(Some((monitor, &initial)));
            // Blocks until the senders disconnect; messages may arrive in
            // any order — the suite's reassembler delivers them causally.
            for message in receiver {
                suite.push(message);
            }
            suite.finish(Exactness::Exact).into_ltl()
        });
        Self { handle }
    }

    /// Waits for the stream to end and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates a panic of the observer thread.
    pub fn join(self) -> std::thread::Result<StreamReport> {
        self.handle.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use jmpax_core::{Relevance, SymbolTable, VarId};
    use jmpax_instrument::{ChannelSink, Session};
    use jmpax_spec::parse;

    #[test]
    fn live_pipeline_predicts_while_program_runs() {
        // The publication race, observed live.
        let (tx, rx) = unbounded();
        let session = Session::with_sink(
            Relevance::writes_of([VarId(0), VarId(1)]),
            Box::new(ChannelSink::new(tx)),
        );
        let balance = session.shared("balance", 0i64);
        let notified = session.shared("notified", 0i64);

        let mut syms = SymbolTable::new();
        syms.intern("balance");
        syms.intern("notified");
        let monitor = parse("start(notified = 1) -> balance >= 150", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let observer = LiveObserver::spawn(monitor, ProgramState::new(), 2, rx);

        let b = balance.clone();
        let t1 = session.spawn(move |ctx| b.write(ctx, 150));
        let n = notified.clone();
        let t2 = session.spawn(move |ctx| n.write(ctx, 1));
        t1.join().unwrap();
        t2.join().unwrap();
        // Closing the program side ends the stream: drop the session (and
        // with it the remaining ChannelSink sender).
        drop((session, balance, notified));

        let report = observer.join().unwrap();
        assert!(report.completed);
        assert!(!report.satisfied(), "the race must be predicted live");
        assert_eq!(report.states_explored, 4);
    }

    #[test]
    fn live_observer_with_many_messages() {
        let (tx, rx) = unbounded();
        let session = Session::with_sink(Relevance::AllWrites, Box::new(ChannelSink::new(tx)));
        let x = session.shared("x", 0i64);

        let mut syms = SymbolTable::new();
        syms.intern("x");
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let observer = LiveObserver::spawn(monitor, ProgramState::new(), 4, rx);

        let mut handles = Vec::new();
        for _ in 0..4 {
            let xs = x.clone();
            handles.push(session.spawn(move |ctx| {
                for _ in 0..100 {
                    xs.update(ctx, |v| v + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop((session, x));

        let report = observer.join().unwrap();
        assert!(report.completed);
        assert!(report.satisfied());
        // Writes of one variable are totally ordered: a chain of 401 cuts.
        assert_eq!(report.states_explored, 401);
        assert_eq!(report.peak_frontier, 1);
    }
}
