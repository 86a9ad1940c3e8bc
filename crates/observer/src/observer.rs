//! The observer's conclusion about one computation: an
//! [`ObserverSession`](crate::ObserverSession) over its messages, in any
//! order, then the JPaX check of the delivered run — satisfied, predicted
//! from a successful observed run, or observed.

#[cfg(test)]
mod tests {
    use crate::pipeline::{Pipeline, PipelineConfig, PipelineReport};
    use jmpax_core::{
        AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId,
    };
    use jmpax_lattice::Exactness;
    use jmpax_spec::{parse, Monitor, ProgramState};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    fn fig6() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.lookup("y").unwrap();
        let z = syms.lookup("z").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut msgs = Vec::new();
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, x, 0)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, y, 1)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, x, 1)));
        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        (msgs, monitor, init)
    }

    fn conclude(monitor: Monitor, init: &ProgramState, msgs: Vec<Message>) -> PipelineReport {
        let pipeline = Pipeline::new(PipelineConfig::new());
        let threads = msgs.iter().map(|m| m.thread().index() + 1).max();
        let mut session = pipeline.session(
            &[AnalysisKind::Ltl],
            Some((monitor.clone(), init)),
            threads.unwrap_or(1),
        );
        let mut messages: Vec<Message> = msgs.into_iter().flat_map(|m| session.push(m)).collect();
        messages.extend(session.end_input());
        let (suite, _) = session.finish();
        PipelineReport {
            observed_violation: pipeline.check_observed_run(&monitor, init, &messages),
            suite,
            messages,
            relevance: Relevance::AllWrites,
        }
    }

    #[test]
    fn predicts_from_successful_observed_run() {
        let (msgs, monitor, init) = fig6();
        let report = conclude(monitor, &init, msgs);
        assert!(report.predicted());
        assert!(!report.observed(), "observed run was successful");
        assert!(report.suite.exactness().is_exact());
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        assert_eq!(report.ltl().unwrap().total_runs, 3);
    }

    #[test]
    fn out_of_order_delivery_same_verdict() {
        let (mut msgs, monitor, init) = fig6();
        msgs.reverse();
        let report = conclude(monitor, &init, msgs);
        assert_eq!(report.ltl().unwrap().violating_runs, 1);
        assert!(report.suite.exactness().is_exact());
    }

    #[test]
    fn gaps_are_visible() {
        let (msgs, monitor, init) = fig6();
        // Deliver only the causally-last message (T2's second, which read
        // T1's first). At the end of the stream the reassembler commits
        // both missing predecessors as gaps and releases the survivor with
        // its clock remapped past them: a one-message computation (one
        // satisfying run over two states), degraded by the two gaps.
        let report = conclude(monitor, &init, vec![msgs[3].clone()]);
        assert_eq!(report.suite.reassembly.skipped_gaps(), 2);
        assert_eq!(report.messages.len(), 1);
        assert_eq!(report.messages[0].clock.as_slice(), &[0, 1]);
        assert!(!report.predicted());
        assert_eq!(report.ltl().unwrap().total_runs, 1);
        assert_eq!(report.ltl().unwrap().states_explored, 2);
        assert_eq!(report.suite.exactness(), Exactness::degraded(0, 2));
    }

    #[test]
    fn satisfied_verdict() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let report = conclude(monitor, &ProgramState::new(), vec![m]);
        assert!(!report.predicted());
        assert!(!report.observed());
    }

    #[test]
    fn observed_violation_is_not_a_prediction() {
        // Property x = 0 violated by the observed write itself.
        let mut syms = SymbolTable::new();
        let monitor = parse("x = 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let report = conclude(monitor, &ProgramState::new(), vec![m]);
        assert!(report.predicted());
        // Not a prediction: the observed run itself violated.
        assert!(report.observed());
    }
}
