//! A conflict-atomicity bug, with a fully-guarded control: one thread
//! updates a balance in two steps inside a critical section, another
//! thread writes the same balance *without* taking the lock.
//!
//! * thread 1: `lock m; tmp = balance; balance = tmp + 50; unlock m`
//! * thread 2: `balance = 10` (unguarded in the buggy variant)
//!
//! Thread 1's critical section is a transaction block; thread 2's write is
//! causally concurrent with it (no synchronization orders them), so the
//! atomicity analysis (`--analysis atomicity --locks m`) reports the
//! interleaved conflicting access — the classic lost-update shape. In the
//! control (`guarded`), thread 2 takes the same lock, the pseudo-variable
//! writes order the two blocks, and nothing is reported.
//!
//! Property: the balance never goes negative — `balance >= 0` — satisfied
//! in both variants, so every alarm here is the atomicity checker's.

use jmpax_core::SymbolTable;
use jmpax_sched::{Expr, LockId, Program, Stmt};

use crate::Workload;

/// The (trivially satisfied) safety property.
pub const SPEC: &str = "balance >= 0";

/// The name of the lock pseudo-variable, for `--locks`.
pub const LOCK_NAME: &str = "m";

/// Builds the workload. With `guarded`, thread 2 also takes the lock —
/// the atomic control.
#[must_use]
pub fn workload(guarded: bool) -> Workload {
    let mut symbols = SymbolTable::new();
    let balance = symbols.intern("balance");
    let tmp = symbols.intern("tmp");
    let lock = LockId(0);

    let updater = vec![
        Stmt::Lock(lock),
        Stmt::assign(tmp, Expr::var(balance)),
        Stmt::assign(balance, Expr::var(tmp).add(Expr::val(50))),
        Stmt::Unlock(lock),
    ];
    let writer = if guarded {
        vec![
            Stmt::Lock(lock),
            Stmt::assign(balance, Expr::val(10)),
            Stmt::Unlock(lock),
        ]
    } else {
        vec![Stmt::assign(balance, Expr::val(10))]
    };

    let program = Program::new()
        .with_thread(updater)
        .with_thread(writer)
        .with_initial(balance, 0)
        .with_initial(tmp, 0)
        .with_locks(1);
    let lock_var = program.lock_var(lock);
    let named = symbols.intern(LOCK_NAME);
    debug_assert_eq!(named, lock_var, "lock name must land on the lock var");

    Workload {
        name: if guarded {
            "nonatomic-locked"
        } else {
            "nonatomic"
        },
        program,
        spec: SPEC.to_owned(),
        symbols,
    }
}

/// A deterministic schedule that lands thread 2's unguarded write inside
/// thread 1's critical section — the interleaving the atomicity analysis
/// must flag. (With `guarded`, thread 2 blocks on the lock instead and
/// the same schedule stays atomic.)
#[must_use]
pub fn interleaved_schedule() -> Vec<jmpax_core::ThreadId> {
    use jmpax_core::ThreadId;
    let (t1, t2) = (ThreadId(0), ThreadId(1));
    vec![t1, t1, t2, t1, t1, t2, t2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::Relevance;
    use jmpax_lattice::{Analysis, AnalysisSuite, AtomicityAnalysis, Exactness};
    use jmpax_sched::run_fixed;

    fn violations_found(guarded: bool) -> u64 {
        let w = workload(guarded);
        let run = run_fixed(&w.program, interleaved_schedule(), 100);
        assert!(run.finished, "schedule must complete both threads");
        let messages = run.execution.instrument(Relevance::Everything);
        let threads = run.execution.thread_count();
        let sync = [w.program.lock_var(LockId(0))].into_iter().collect();
        let atomicity = AtomicityAnalysis::new(threads, sync);
        let mut suite = AnalysisSuite::new(vec![Box::new(atomicity) as Box<dyn Analysis>]);
        suite.push_all(messages);
        let report = suite.finish(Exactness::Exact);
        report.reports[0].as_atomicity().unwrap().violations_found
    }

    #[test]
    fn unguarded_writer_breaks_the_transaction() {
        assert!(
            violations_found(false) >= 1,
            "the interleaved write must be flagged"
        );
    }

    #[test]
    fn guarded_control_stays_atomic() {
        assert_eq!(violations_found(true), 0, "the lock serializes the blocks");
    }
}
