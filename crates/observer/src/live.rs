//! The online deployment of Fig. 4 in miniature: an instrumented program
//! streams its messages into a channel while it runs, and the observer
//! checks the drained stream ([`Pipeline::check_messages`](crate::Pipeline::check_messages)).
//! `jmpax serve` is the deployment over TCP.

#[cfg(test)]
mod tests {
    use crossbeam::channel::{unbounded, Receiver};
    use jmpax_core::{Message, Relevance, SymbolTable, VarId};
    use jmpax_instrument::{ChannelSink, Session};
    use jmpax_lattice::{Exactness, StreamReport};
    use jmpax_spec::{parse, Monitor, ProgramState};

    use crate::pipeline::{Pipeline, PipelineConfig};

    /// The ptLTL report of the stream `receiver` carried, once every
    /// sender is gone.
    fn observe(monitor: Monitor, receiver: &Receiver<Message>) -> StreamReport {
        let messages: Vec<Message> = receiver.try_iter().collect();
        let report = Pipeline::new(PipelineConfig::new()).check_messages(
            monitor,
            &ProgramState::new(),
            Exactness::Exact,
            u64::MAX,
            messages,
        );
        report.ltl().expect("an ltl check").clone()
    }

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

        let b = balance.clone();
        let t1 = session.spawn(move |ctx| b.write(ctx, 150));
        let n = notified.clone();
        let t2 = session.spawn(move |ctx| n.write(ctx, 1));
        t1.join().unwrap();
        t2.join().unwrap();
        // Closing the program side ends the stream: drop the session (and
        // with it the remaining ChannelSink sender).
        drop((session, balance, notified));

        let report = observe(monitor, &rx);
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

        let report = observe(monitor, &rx);
        assert!(report.completed);
        assert!(report.satisfied());
        // Writes of one variable are totally ordered: a chain of 401 cuts.
        assert_eq!(report.states_explored, 401);
        assert_eq!(report.peak_frontier, 1);
    }
}
