//! # jmpax-core
//!
//! Core algorithms from *"An Instrumentation Technique for Online Analysis of
//! Multithreaded Programs"* (Grigore Roşu and Koushik Sen, PADTAD workshop at
//! IPDPS, 2004) — the paper behind the Java MultiPathExplorer (JMPaX) tool.
//!
//! This crate implements:
//!
//! * [`VectorClock`] — the *multithreaded vector clock* (MVC) data structure:
//!   an `n`-dimensional vector of counters with join (component-wise max) and
//!   the standard partial order.
//! * [`Event`] / [`EventKind`] — the event model of Section 2.1: every event
//!   belongs to one thread and is *internal*, a *read* of a shared variable,
//!   or a *write* of a shared variable.
//! * [`MvcInstrumentor`] — **Algorithm A** (Fig. 2 of the paper): the online
//!   MVC update procedure executed at every event, which emits a message
//!   `⟨e, i, V_i⟩` to an external observer for every *relevant* event.
//! * [`Message`] — the emitted messages, with causal comparison implementing
//!   **Theorem 3**: `e ⊴ e'` iff `V[i] ≤ V'[i]` iff `V < V'`.
//! * [`HappensBefore`] — a brute-force ground-truth computation of the causal
//!   partial order `≺` of Section 2.2, used by tests and benchmarks to verify
//!   the instrumentor.
//!
//! Theorem 3 is what lets the observer accept messages in *any* delivery
//! order (Section 4: "the observer therefore receives messages … in any
//! order"): `jmpax-lattice`'s `Reassembler` rebuilds the causal order from
//! the clocks alone.
//!
//! ## Quick start
//!
//! ```
//! use jmpax_core::{Event, MvcInstrumentor, Relevance, ThreadId, Value, VarId};
//!
//! let t1 = ThreadId(0);
//! let t2 = ThreadId(1);
//! let x = VarId(0);
//!
//! // Writes of `x` are relevant; everything else only shapes causality.
//! let mut instr = MvcInstrumentor::new(2, Relevance::writes_of([x]));
//!
//! let m1 = instr.process(&Event::write(t1, x, Value::Int(1))).unwrap();
//! let m2 = instr.process(&Event::write(t2, x, Value::Int(2))).unwrap();
//!
//! // Write-write causality on the same variable (Theorem 3).
//! assert!(m1.causally_precedes(&m2));
//! assert!(!m2.causally_precedes(&m1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod analysis;
pub mod clock;
pub mod compact;
pub mod event;
pub mod fasthash;
pub mod gen;
pub mod happens_before;
pub mod message;
pub mod relevance;
pub mod symbols;
pub mod trace;

pub use algorithm::{MvcInstrumentor, VarClocks};
pub use analysis::AnalysisKind;
pub use clock::VectorClock;
pub use compact::CountVec;
pub use event::{Event, EventKind, ThreadId, Value, VarId};
pub use gen::{RandomExecution, RandomExecutionConfig};
pub use happens_before::HappensBefore;
pub use message::Message;
pub use relevance::Relevance;
pub use symbols::SymbolTable;
pub use trace::Execution;
