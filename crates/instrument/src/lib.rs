//! # jmpax-instrument
//!
//! Online instrumentation of *real* multithreaded Rust programs.
//!
//! The paper instruments Java bytecode so that Algorithm A runs at every
//! shared-variable access. It also notes the alternative we implement here:
//! "yet another one would be to enforce shared variable updates via library
//! functions, which execute A as well" (Section 1). Programs use
//! [`Shared<T>`] instead of bare fields, [`InstrMutex`] instead of
//! `std::sync::Mutex` and [`InstrCondvar`] for condition synchronization;
//! every access atomically couples the real memory operation with the MVC
//! update and emits `⟨e, i, V_i⟩` messages for relevant events to a
//! pluggable [`EventSink`] (an in-memory vec, a crossbeam channel, or a
//! CRC-framed byte stream standing in for JMPaX's socket).
//!
//! ## Concurrency model
//!
//! * each thread's MVC `V_i` lives in its [`ThreadCtx`] — owned, unshared;
//! * each shared variable's value together with `V^a_x` and `V^w_x` live
//!   under one mutex, so the variable access and its clock update are a
//!   single atomic step — exactly the sequential-consistency assumption of
//!   Section 2.1;
//! * the per-variable lock order defines the linearization; an optional
//!   access log (global atomic sequence numbers taken *inside* the
//!   critical sections) lets tests replay that linearization through the
//!   sequential [`jmpax_core::MvcInstrumentor`] and verify the concurrent
//!   implementation emits byte-identical clocks.
//!
//! ## Example
//!
//! ```
//! use jmpax_core::Relevance;
//! use jmpax_instrument::Session;
//!
//! let session = Session::new(Relevance::AllWrites);
//! let x = session.shared("x", 0i64);
//!
//! let xs = x.clone();
//! let handle = session.spawn(move |ctx| {
//!     let v = xs.read(ctx);
//!     xs.write(ctx, v + 1);
//! });
//! handle.join().unwrap();
//!
//! let mut ctx = session.register_thread();
//! assert_eq!(x.read(&mut ctx), 1);
//! let messages = session.drain_messages();
//! assert_eq!(messages.len(), 1); // the write of x
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod lock;
pub mod session;
pub mod shared;
pub mod sink;
pub mod tcp;

pub use codec::{encode_frame_v2, ResilientDecode, ResilientFrameDecoder};
pub use lock::{InstrCondvar, InstrMutex, InstrMutexGuard};
pub use session::{InstrJoinHandle, Session, SessionBuilder, ThreadCtx};
pub use shared::Shared;
pub use sink::{
    ChannelSink, ChaosConfig, ChaosSink, ChaosStats, EventSink, FrameSink, FrameSinkBuilder,
    VecSink,
};
pub use tcp::{send_raw_session, SessionHello, TcpFrameSink};
