//! Predictive data-race and deadlock detection — the two bug classes the
//! paper's introduction motivates ("a deadlock or a data-race … the chance
//! of detecting this safety violation by monitoring only the actual run is
//! very low").
//!
//! Both analyses run on a single, perfectly well-behaved execution:
//!
//! * the race detector compares each access against a happens-before built
//!   from synchronization only, so a race is flagged even when the accesses
//!   were seconds apart in the observed run;
//! * the deadlock detector builds the lock-order graph, so the classic
//!   dining-philosophers cycle is flagged from a run where nobody starved.
//!
//! ```sh
//! cargo run --example race_and_deadlock
//! ```

use std::collections::BTreeSet;

use jmpax::core::AnalysisKind;
use jmpax::lattice::RaceReport;
use jmpax::observer::{predict_deadlocks, Pipeline, PipelineConfig};
use jmpax::sched::{run_fixed, run_round_robin, Expr, LockId, Program, Stmt};
use jmpax::workloads::dining;
use jmpax::{Execution, SymbolTable, ThreadId, VarId};

fn main() {
    race_demo();
    println!();
    deadlock_demo();
}

/// Runs the race analysis over every access of `execution` (the relevance
/// `check_execution` picks without ltl), with writes of `sync` as lock
/// acquire/release.
fn detect_races(execution: &Execution, sync: &BTreeSet<VarId>) -> RaceReport {
    let report = Pipeline::new(PipelineConfig::new().sync_vars(sync.iter().copied()))
        .check_execution(
            execution,
            &[AnalysisKind::Race],
            None,
            &mut SymbolTable::new(),
        )
        .expect("race needs no spec");
    report.suite.reports[0]
        .as_race()
        .expect("a race report")
        .clone()
}

fn race_demo() {
    const X: VarId = VarId(0);
    let l = LockId(0);

    println!("--- predictive data-race detection ---");
    // Buggy: two unsynchronized increments.
    let inc = vec![Stmt::assign(X, Expr::var(X).add(Expr::val(1)))];
    let buggy = Program::new()
        .with_thread(inc.clone())
        .with_thread(inc)
        .with_initial(X, 0);
    // Observed run: strictly serial — the increments never overlapped.
    let out = run_fixed(&buggy.clone(), vec![ThreadId(0); 4], 100);
    assert!(out.finished);
    let races = detect_races(&out.execution, &BTreeSet::new());
    println!(
        "unsynchronized counter, serial schedule: {} race(s) predicted",
        races.races_found
    );
    for r in &races.findings {
        println!("  race on v{}: {} vs {}", r.var.0, r.first, r.second);
    }
    assert!(!races.satisfied());

    // Fixed: same program under a lock.
    let inc = vec![
        Stmt::Lock(l),
        Stmt::assign(X, Expr::var(X).add(Expr::val(1))),
        Stmt::Unlock(l),
    ];
    let fixed = Program::new()
        .with_thread(inc.clone())
        .with_thread(inc)
        .with_initial(X, 0)
        .with_locks(1);
    let out = run_round_robin(&fixed, 100);
    let sync: BTreeSet<VarId> = [fixed.lock_var(l)].into_iter().collect();
    let races = detect_races(&out.execution, &sync);
    println!("locked counter: {} race(s)", races.races_found);
    assert!(races.satisfied());
}

fn deadlock_demo() {
    println!("--- predictive deadlock detection (dining philosophers) ---");
    for (ordered, label) in [(false, "naive (left fork first)"), (true, "ordered fix")] {
        let w = dining::workload(3, ordered);
        // A serial schedule: each philosopher eats alone; no deadlock occurs.
        let mut schedule = Vec::new();
        for p in 0..3u32 {
            schedule.extend(vec![ThreadId(p); 8]);
        }
        let out = run_fixed(&w.program, schedule, 300);
        assert!(out.finished, "the serial run is safe");
        let locks: BTreeSet<VarId> = dining::fork_vars(&w).into_iter().collect();
        let cycles = predict_deadlocks(&out.execution, &locks);
        println!(
            "{label}: observed run fine; {} deadlock cycle(s) predicted",
            cycles.len()
        );
        for c in &cycles {
            println!(
                "  cycle over {} forks involving {} philosophers",
                c.locks.len(),
                c.threads.len()
            );
        }
        if ordered {
            assert!(cycles.is_empty());
        } else {
            assert_eq!(cycles.len(), 1);
        }
    }
}
