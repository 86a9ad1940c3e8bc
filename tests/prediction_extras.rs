//! Cross-crate tests for the prediction extensions: exhaustive ground
//! truth vs one-run prediction, predictive races, and predictive deadlocks.

use std::collections::BTreeSet;

use jmpax::core::AnalysisKind;
use jmpax::lattice::{Exactness, RaceReport};
use jmpax::observer::{predict_deadlocks, Pipeline, PipelineConfig};
use jmpax::sched::{run_random, verify_exhaustive, ExploreLimits};
use jmpax::workloads::{bank, dining, xyz};
use jmpax::{Execution, Relevance, VarId};

/// The race analysis over every access of `execution`, with writes of
/// `sync` as lock transfers.
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

/// Prediction from a single run must agree with exhaustive enumeration on
/// the *existence* of violating schedules for the value-deterministic
/// workloads (bank: both threads write constants, so every schedule yields
/// the same values and prediction is exact).
#[test]
fn bank_prediction_matches_exhaustive_ground_truth() {
    for (with_lock, expect_violation) in [(false, true), (true, false)] {
        let w = bank::workload(with_lock);
        let monitor = w.monitor();
        let truth = verify_exhaustive(
            &w.program,
            &monitor,
            ExploreLimits {
                max_steps: 128,
                max_runs: 100_000,
            },
        );
        assert_eq!(truth.any_violation(), expect_violation, "{}", w.name);

        // Prediction from every random run agrees.
        for seed in 0..10 {
            let out = run_random(&w.program, seed, 200);
            assert!(out.finished);
            let mut syms = w.symbols.clone();
            let report = Pipeline::new(PipelineConfig::new())
                .check_execution(
                    &out.execution,
                    &[AnalysisKind::Ltl],
                    Some(&w.spec),
                    &mut syms,
                )
                .unwrap();
            assert_eq!(
                report.predicted(),
                expect_violation,
                "{} seed {seed}",
                w.name
            );
        }
    }
}

/// On Example 2, exhaustive enumeration finds violating schedules and so
/// does prediction from the paper's successful run; moreover prediction
/// never fires when enumeration finds nothing (soundness on the locked
/// bank, checked above) and enumeration confirms each predicted witness.
#[test]
fn xyz_exhaustive_has_violations_and_prediction_agrees() {
    let w = xyz::workload();
    let monitor = w.monitor();
    let truth = verify_exhaustive(
        &w.program,
        &monitor,
        ExploreLimits {
            max_steps: 128,
            max_runs: 100_000,
        },
    );
    assert!(truth.any_violation());
    assert!(truth.violating > 0 && truth.violating < truth.total);
    let witness = truth.witness.as_ref().unwrap();
    assert!(monitor
        .first_violation(&witness.observed_states())
        .is_some());

    let out = jmpax::sched::run_fixed(&w.program, xyz::observed_success_schedule(), 100);
    let mut syms = w.symbols.clone();
    let report = Pipeline::new(PipelineConfig::new())
        .check_execution(
            &out.execution,
            &[AnalysisKind::Ltl],
            Some(&w.spec),
            &mut syms,
        )
        .unwrap();
    assert!(report.predicted());
}

/// Races: predicted on every schedule of the racy program; never on the
/// locked one — matching whether any real schedule misbehaves.
#[test]
fn race_prediction_is_schedule_independent() {
    use jmpax::sched::{Expr, LockId, Program, Stmt};
    const X: VarId = VarId(0);
    let l = LockId(0);

    let racy = Program::new()
        .with_thread(vec![Stmt::assign(X, Expr::var(X).add(Expr::val(1)))])
        .with_thread(vec![Stmt::assign(X, Expr::var(X).add(Expr::val(1)))])
        .with_initial(X, 0);
    let locked_body = vec![
        Stmt::Lock(l),
        Stmt::assign(X, Expr::var(X).add(Expr::val(1))),
        Stmt::Unlock(l),
    ];
    let locked = Program::new()
        .with_thread(locked_body.clone())
        .with_thread(locked_body)
        .with_initial(X, 0)
        .with_locks(1);

    for seed in 0..20 {
        let out = run_random(&racy, seed, 100);
        assert!(
            !races(&out.execution, &BTreeSet::new()).satisfied(),
            "seed {seed}: race must be predicted from any schedule"
        );

        let out = run_random(&locked, seed, 100);
        let sync: BTreeSet<VarId> = [locked.lock_var(l)].into_iter().collect();
        assert!(
            races(&out.execution, &sync).satisfied(),
            "seed {seed}: locked program must be race-free"
        );
    }
}

/// Deadlocks: the naive dining table is flagged from every completed run;
/// the ordered fix never is — and exhaustive enumeration confirms both.
#[test]
fn deadlock_prediction_matches_reachability() {
    for (ordered, expect_cycle) in [(false, true), (true, false)] {
        let w = dining::workload(3, ordered);
        let locks: BTreeSet<VarId> = dining::fork_vars(&w).into_iter().collect();

        let mut checked = 0;
        for seed in 0..30 {
            let out = run_random(&w.program, seed, 500);
            if !out.finished {
                continue; // an actually deadlocked run needs no prediction
            }
            checked += 1;
            let cycles = predict_deadlocks(&out.execution, &locks);
            assert_eq!(!cycles.is_empty(), expect_cycle, "{} seed {seed}", w.name);
        }
        assert!(checked >= 10, "{}: too few completed runs", w.name);

        // Ground truth by exhaustive enumeration.
        let any_deadlock = jmpax::sched::explore_all(
            &w.program,
            ExploreLimits {
                max_steps: 64,
                max_runs: 100_000,
            },
        )
        .iter()
        .any(|o| o.deadlocked);
        assert_eq!(any_deadlock, expect_cycle, "{}", w.name);
    }
}
