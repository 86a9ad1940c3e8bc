//! # jmpax — Java MultiPathExplorer, in Rust
//!
//! A reproduction of *"An Instrumentation Technique for Online Analysis of
//! Multithreaded Programs"* (Grigore Roşu and Koushik Sen, PADTAD workshop
//! at IPDPS 2004): multithreaded vector clocks (MVCs), the online
//! instrumentation Algorithm A, and the JMPaX predictive runtime analysis
//! that checks safety properties against **every** thread interleaving
//! consistent with one observed execution.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — vector clocks, events, Algorithm A, Theorem-3 causality,
//!   causal reordering.
//! * [`spec`] — the past-time-LTL + interval specification language and
//!   synthesized online monitors.
//! * [`lattice`] — computation-lattice construction and all-runs analysis.
//! * [`sched`] — a deterministic scheduler/interpreter for multithreaded
//!   test programs (schedule sweeps, counterexample replay).
//! * [`instrument`] — online instrumentation of real `std::thread` programs
//!   via `Shared<T>` / `InstrMutex` wrappers.
//! * [`observer`] — the end-to-end observer pipeline plus the JPaX-style
//!   single-trace baseline.
//! * [`distsim`] — the distributed-systems interpretation of Section 3.2.
//! * [`workloads`] — the paper's example programs and synthetic generators.
//! * [`telemetry`] — std-only metrics (counters, gauges, histograms) with
//!   text, JSON and Prometheus exposition.
//! * [`trace`] — causal tracing: per-lane ring buffers, Chrome/Perfetto
//!   export with happens-before flow events, causal DOT, lattice profiles.

#![forbid(unsafe_code)]

pub use jmpax_core as core;
pub use jmpax_distsim as distsim;
pub use jmpax_instrument as instrument;
pub use jmpax_lattice as lattice;
pub use jmpax_observer as observer;
pub use jmpax_sched as sched;
pub use jmpax_spec as spec;
pub use jmpax_telemetry as telemetry;
pub use jmpax_telemetry::trace;
pub use jmpax_workloads as workloads;

pub use jmpax_core::{
    AnalysisKind, Event, EventKind, Execution, HappensBefore, Message, MvcInstrumentor, Relevance,
    SymbolTable, ThreadId, Value, VarId, VectorClock,
};
pub use jmpax_lattice::{
    analyze, to_dot, Analysis, Cut, DotOptions, Lattice, LatticeInput, StreamingAnalyzer,
};
pub use jmpax_observer::{
    predict_deadlocks, ObserverSession, Pipeline, PipelineConfig, PipelineReport,
};
pub use jmpax_spec::{parse, Formula, Monitor, MonitorState, ProgramState};
pub use jmpax_telemetry::trace::{causal_edges, TraceData, TraceKind, TraceRing, Tracer};
pub use jmpax_telemetry::{Registry, Snapshot};
