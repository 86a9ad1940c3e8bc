//! # jmpax-lattice
//!
//! The *computation lattice* of Section 4 of the paper: given the relevant
//! messages `⟨e, i, V⟩` emitted by Algorithm A, every permutation of the
//! relevant events consistent with the causal order `⊴` is a *multithreaded
//! run*, and the global states reached by all runs form a lattice. The
//! observed execution is just one path; every other path is a *potential*
//! run that can occur under a different thread scheduling — checking the
//! property over all of them is what lets JMPaX **predict** violations from
//! successful executions.
//!
//! This crate provides:
//!
//! * [`LatticeInput`] — validated per-thread message sequences plus the
//!   initial global state.
//! * [`StreamingAnalyzer`] — the one ptLTL engine: property checking over
//!   **all** runs in parallel, level by level, storing at most two
//!   consecutive levels (the paper: "at most two consecutive levels in the
//!   computation lattice need to be stored at any moment"). It is the
//!   suite's LTL [`Analysis`], fed in causal order by [`AnalysisSuite`].
//!   It counts total and violating runs exactly and reconstructs
//!   counterexamples as far back as its retained history reaches — to the
//!   initial state when every level is kept.
//! * [`Cut`] / [`Lattice`] — full materialization of the lattice: nodes are
//!   consistent cuts, edges advance one thread by one relevant event; run
//!   counting and (bounded) run enumeration. It serves DOT export, liveness
//!   lassos and the test oracle.
//! * [`analysis`] — the oracle: the same monitor-set analysis over the
//!   materialized lattice, which the equivalence tests hold the engine to.
//! * [`analyses`] — the pluggable [`Analysis`] trait and the
//!   [`AnalysisSuite`] driver that fans one causal delivery pass out to
//!   N analyses (ptLTL, race detection, atomicity checking).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyses;
pub mod analysis;
pub mod builder;
pub mod config;
pub mod cut;
pub mod dot;
pub mod explore;
pub mod input;
mod merge;
pub mod reassemble;

pub use analyses::{
    Analysis, AnalysisReport, AnalysisSuite, AtomicityAnalysis, AtomicityReport, RaceAnalysis,
    RaceReport, SuiteBuilder, SuiteReport,
};
pub use analysis::{analyze, LatticeAnalysis};
pub use builder::{Counterexample, RunStep, StreamReport, StreamingAnalyzer, Violation};
pub use config::AnalysisConfig;
pub use cut::Cut;
pub use dot::{to_dot, DotOptions};
pub use explore::Lattice;
pub use input::{InputError, LatticeInput};
pub use reassemble::{Exactness, GapRecord, Reassembler, ReassemblyReport, DEFAULT_STALL_BUDGET};
