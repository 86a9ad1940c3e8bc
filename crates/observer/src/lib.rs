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
//! * [`pipeline`] — the observer and one-call end-to-end analyses: one
//!   [`ObserverSession`] takes bytes off a transport or messages, in any
//!   order, runs any selection of ptLTL, race and atomicity checking over
//!   one causal delivery pass and applies the one transport-loss rule;
//!   [`Pipeline::check_execution`] instruments a recorded execution and
//!   runs it through a session, plus the JPaX check of the delivered run.
//!   A [`PipelineReport`] holds every analysis's verdict and the observed
//!   run's.
//! * [`deadlock`] — predictive deadlock detection from cycles in the
//!   lock-order graph.
//! * [`jpax`] — the single-trace baseline (what JPaX / Java-MaC can see):
//!   monitors only the observed run.
//! * [`liveness`] — the Section 4 sketch: detect `u vω` lassos in the
//!   lattice (a state repeats along a run) and check future-time LTL
//!   properties on the induced infinite runs.
//! * [`report`] — human-readable rendering of verdicts and counterexamples.
//! * [`serve`] — the online deployment: a multi-tenant daemon that
//!   analyses framed event streams over TCP as they arrive.
//! * [`verdict`] — the one Exact/Degraded/Error trust verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod jpax;
#[cfg(test)]
mod live;
pub mod liveness;
#[cfg(test)]
mod observer;
pub mod pipeline;
#[cfg(test)]
mod races;
pub mod report;
pub mod serve;
pub mod verdict;

pub use deadlock::{predict_deadlocks, DeadlockCycle, DeadlockDetector, LockEdge};
pub use jpax::observed_violation;
pub use liveness::{check_lasso, find_lassos, Lasso, Ltl};
pub use pipeline::{ObserverSession, Pipeline, PipelineConfig, PipelineError, PipelineReport};
pub use report::{render_analysis, render_counterexample, render_state, render_violation};
pub use serve::{
    AnalysisOutcome, FileLogSink, FlightDump, FlightEntry, FlightKind, FlightRecorder, LogLevel,
    LogSink, LogValue, MemoryLogSink, OpsLog, ServeConfig, ServeObservability, ServeSummary,
    Server, ServerHandle, StderrLogSink, TenantOutcome, TenantStatus, TenantTable,
};
pub use verdict::ExactnessVerdict;
