//! A textbook data race, with a lock-fixed control: two threads update the
//! same counter, read-modify-write, with no synchronization between them.
//!
//! * thread 1: `counter = counter + 1; done1 = 1`
//! * thread 2: `counter = counter + 1; done2 = 1`
//!
//! In the racy version the two read/write pairs on `counter` are causally
//! unrelated — the race analysis (`--analysis race`) reports the conflict
//! on its sync-only happens-before no matter which interleaving was
//! observed. In the control (`with_lock`), both threads hold the same
//! mutex `m` around the update; the lock pseudo-variable's write events
//! (Section 3.1) order the critical sections, so with `--locks m` the
//! detector reports nothing.
//!
//! Property: the counter never goes backwards — `counter >= 0` — true in
//! both variants, so every predicted alarm here is the race detector's,
//! not the ptLTL checker's.

use jmpax_core::SymbolTable;
use jmpax_sched::{Expr, LockId, Program, Stmt};

use crate::Workload;

/// The (trivially satisfied) safety property.
pub const SPEC: &str = "counter >= 0";

/// The name of the lock pseudo-variable, for `--locks`.
pub const LOCK_NAME: &str = "m";

/// Builds the workload. With `with_lock`, both threads guard the update
/// with the same mutex — the race-free control.
#[must_use]
pub fn workload(with_lock: bool) -> Workload {
    let mut symbols = SymbolTable::new();
    let counter = symbols.intern("counter");
    let done1 = symbols.intern("done1");
    let done2 = symbols.intern("done2");
    let lock = LockId(0);

    let update = |done: jmpax_core::VarId| {
        vec![
            Stmt::assign(counter, Expr::var(counter).add(Expr::val(1))),
            Stmt::assign(done, Expr::val(1)),
        ]
    };
    let (t1, t2, locks) = if with_lock {
        let guarded = |done| {
            let mut body = vec![Stmt::Lock(lock)];
            body.extend(update(done));
            body.push(Stmt::Unlock(lock));
            body
        };
        (guarded(done1), guarded(done2), 1)
    } else {
        (update(done1), update(done2), 0)
    };

    let program = Program::new()
        .with_thread(t1)
        .with_thread(t2)
        .with_initial(counter, 0)
        .with_initial(done1, 0)
        .with_initial(done2, 0)
        .with_locks(locks);
    // The lock pseudo-variable is allocated after the data variables
    // (`Program::lock_var`); name it so `--locks m` resolves.
    let lock_var = program.lock_var(lock);
    let named = symbols.intern(LOCK_NAME);
    debug_assert_eq!(named, lock_var, "lock name must land on the lock var");

    Workload {
        name: if with_lock { "racy-locked" } else { "racy" },
        program,
        spec: SPEC.to_owned(),
        symbols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::Relevance;
    use jmpax_lattice::{Analysis, AnalysisSuite, Exactness, RaceAnalysis};
    use jmpax_sched::run_random;

    fn races_found(with_lock: bool) -> u64 {
        let w = workload(with_lock);
        let run = run_random(&w.program, 7, 1000);
        assert!(run.finished);
        let messages = run.execution.instrument(Relevance::Everything);
        let threads = run.execution.thread_count();
        let sync = if with_lock {
            [w.program.lock_var(LockId(0))].into_iter().collect()
        } else {
            std::collections::BTreeSet::new()
        };
        let race = RaceAnalysis::new(threads, sync);
        let mut suite = AnalysisSuite::new(vec![Box::new(race) as Box<dyn Analysis>]);
        suite.push_all(messages);
        let report = suite.finish(Exactness::Exact);
        report.reports[0].as_race().unwrap().races_found
    }

    #[test]
    fn racy_variant_races_on_the_counter() {
        assert!(
            races_found(false) >= 1,
            "the unsynchronized update must race"
        );
    }

    #[test]
    fn locked_control_is_race_free() {
        assert_eq!(races_found(true), 0, "the lock orders the updates");
    }
}
