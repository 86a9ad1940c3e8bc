//! Race detection as the observer runs it: the suite's
//! [`RaceAnalysis`](jmpax_lattice::RaceAnalysis) over a [`Pipeline`]'s
//! causal delivery of instrumented messages, with writes of the declared
//! sync variables as lock transfers.

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use jmpax_core::{AnalysisKind, Event, Execution, Relevance, ThreadId, VarId};
    use jmpax_lattice::{Exactness, RaceReport};

    use crate::pipeline::{Pipeline, PipelineConfig};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const L: VarId = VarId(9);

    /// The race report for `execution`, every access relevant.
    fn races(execution: &Execution, sync: &BTreeSet<VarId>) -> RaceReport {
        let suite = Pipeline::new(PipelineConfig::new().sync_vars(sync.iter().copied()))
            .check_stream_suite(
                &[AnalysisKind::Race],
                None,
                execution.thread_count(),
                Exactness::Exact,
                execution.instrument(Relevance::Everything),
            );
        suite.reports[0].as_race().expect("a race report").clone()
    }

    fn run(events: &[Event], sync: &[VarId]) -> RaceReport {
        let execution = Execution {
            events: events.to_vec(),
            ..Execution::new()
        };
        races(&execution, &sync.iter().copied().collect())
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let r = run(&[Event::write(T1, X, 1), Event::write(T2, X, 2)], &[]);
        assert_eq!(r.races_found, 1);
        assert_eq!(r.findings[0].var, X);
        assert!(r.findings[0].first.is_write && r.findings[0].second.is_write);
    }

    #[test]
    fn read_read_never_races() {
        let r = run(&[Event::read(T1, X), Event::read(T2, X)], &[]);
        assert!(r.satisfied(), "{:?}", r.findings);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        // T1: acq L, write x, rel L; T2: acq L, write x, rel L.
        let r = run(
            &[
                Event::write(T1, L, 1),
                Event::write(T1, X, 1),
                Event::write(T1, L, 0),
                Event::write(T2, L, 1),
                Event::write(T2, X, 2),
                Event::write(T2, L, 0),
            ],
            &[L],
        );
        assert!(
            r.satisfied(),
            "lock transfer orders the accesses: {:?}",
            r.findings
        );
    }

    #[test]
    fn dedup_by_thread_pair_and_kinds() {
        let r = run(
            &[
                Event::write(T1, X, 1),
                Event::write(T2, X, 2),
                Event::write(T1, X, 3),
                Event::write(T2, X, 4),
            ],
            &[],
        );
        // Many racing pairs, one per (var, threads, kinds) after dedup —
        // both directions count separately.
        assert!(r.races_found <= 2, "{:?}", r.findings);
        assert!(!r.satisfied());
    }

    #[test]
    fn detect_races_on_sched_programs() {
        use jmpax_sched::{run_round_robin, Expr, LockId, Program, Stmt};
        // Unsynchronized increment by two threads.
        let inc = vec![Stmt::assign(X, Expr::var(X).add(Expr::val(1)))];
        let p = Program::new()
            .with_thread(inc.clone())
            .with_thread(inc)
            .with_initial(X, 0);
        let out = run_round_robin(&p, 100);
        let r = races(&out.execution, &BTreeSet::new());
        assert!(!r.satisfied(), "the classic lost-update race");

        // The same program with a lock is clean.
        let l = LockId(0);
        let locked = vec![
            Stmt::Lock(l),
            Stmt::assign(X, Expr::var(X).add(Expr::val(1))),
            Stmt::Unlock(l),
        ];
        let p = Program::new()
            .with_thread(locked.clone())
            .with_thread(locked)
            .with_initial(X, 0)
            .with_locks(1);
        let out = run_round_robin(&p, 100);
        let sync: BTreeSet<VarId> = [p.lock_var(l)].into_iter().collect();
        let r = races(&out.execution, &sync);
        assert!(r.satisfied(), "{:?}", r.findings);
    }
}
