//! # jmpax-sched
//!
//! A deterministic multithreaded-program substrate for the jmpax
//! experiments. The paper's evaluation argues about *scheduling
//! probability* ("the chance of detecting this violation by monitoring only
//! the actual run is very low") — to quantify such claims we need full
//! control over thread interleavings, which the OS scheduler does not give
//! us. This crate provides:
//!
//! * [`program`] — a small structured program IR (assignments, `if`,
//!   `while`, lock/unlock) over shared integer variables: rich enough to
//!   express both of the paper's example programs and the synthetic
//!   workloads.
//! * [`compile`] — lowering to a flat micro-op CFG where every shared
//!   variable access is an individually schedulable, *atomic* step — the
//!   sequential-consistency assumption of Section 2.1 ("all shared memory
//!   accesses are atomic and instantaneous").
//! * [`interp`] — the step interpreter ([`Machine`]): picks up one thread,
//!   runs its invisible ops, executes exactly one visible (shared-access)
//!   op, and records the corresponding [`jmpax_core::Event`].
//! * [`schedule`] — schedulers: fixed schedules, round-robin, seeded random
//!   and exhaustive (DFS) enumeration of all interleavings up to bounds.
//! * [`replay`] — guided search for a schedule realizing a *predicted* run
//!   (a sequence of relevant writes), used to validate counterexamples from
//!   the lattice analysis against the actual program semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod interp;
pub mod program;
pub mod replay;
pub mod schedule;
pub mod validate;
pub mod verify;

pub use compile::{CompiledProgram, CompiledThread};
pub use interp::{Machine, RunOutcome, StepResult};
pub use program::{BinOp, Expr, LockId, Program, Stmt, ThreadProgram};
pub use replay::{find_schedule_for_writes, TargetWrite};
pub use schedule::{explore_all, run_fixed, run_random, run_round_robin, ExploreLimits, Scheduler};
pub use validate::{validate, ProgramIssue};
pub use verify::{verify_exhaustive, ExhaustiveReport};
