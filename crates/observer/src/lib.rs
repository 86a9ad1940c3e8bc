//! # jmpax-observer
//!
//! The observer half of the JMPaX architecture (Fig. 4 of the paper): it
//! receives messages `⟨e, i, V⟩` from the instrumented program — over a
//! channel or as a byte stream, in any order — reconstructs the relevant
//! causality via Theorem 3, builds the computation lattice level by level
//! and checks the user's safety property against **every** consistent run,
//! predicting violations that the observed execution itself did not
//! exhibit.
//!
//! * [`observer`] — the observer's verdict over one computation.
//! * [`pipeline`] — one-call end-to-end analyses for recorded executions
//!   and for messages received over a transport, plus the one rule that
//!   turns transport losses into an exactness verdict. ptLTL, race and
//!   atomicity checking all run on the streaming analysis suite.
//! * [`jpax`] — the single-trace baseline (what JPaX / Java-MaC can see):
//!   monitors only the observed run.
//! * [`liveness`] — the Section 4 sketch: detect `u vω` lassos in the
//!   lattice (a state repeats along a run) and check future-time LTL
//!   properties on the induced infinite runs.
//! * [`report`] — human-readable rendering of verdicts and counterexamples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod jpax;
pub mod live;
pub mod liveness;
pub mod observer;
pub mod pipeline;
#[cfg(test)]
mod races;
pub mod report;
pub mod serve;
pub mod verdict;

pub use deadlock::{predict_deadlocks, DeadlockCycle, DeadlockDetector, LockEdge};
pub use jpax::observed_violation;
pub use live::LiveObserver;
pub use liveness::{check_lasso, find_lassos, Lasso, Ltl};
pub use observer::Verdict;
pub use pipeline::{transport_exactness, Pipeline, PipelineConfig, PipelineError, PipelineReport};
pub use report::{render_analysis, render_counterexample, render_state, render_violation};
pub use serve::{
    AnalysisOutcome, FileLogSink, FlightDump, FlightEntry, FlightKind, FlightRecorder, LogLevel,
    LogSink, LogValue, MemoryLogSink, OpsLog, ServeConfig, ServeObservability, ServeSummary,
    Server, ServerHandle, StderrLogSink, TenantOutcome, TenantStatus, TenantTable,
};
pub use verdict::ExactnessVerdict;
