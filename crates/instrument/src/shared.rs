//! Instrumented shared variables.
//!
//! A [`Shared<T>`] couples the variable's value with its access and write
//! MVCs (`V^a_x`, `V^w_x`, a [`VarClocks`]) under one mutex, so that each
//! read/write together with its Algorithm A clock update
//! ([`jmpax_core::algorithm::step`]) is a single atomic step — the paper's
//! "all shared memory accesses are atomic and instantaneous" assumption,
//! realized with a lock instead of a JVM bytecode rewrite. Locks and
//! condition variables are `Shared` variables too (Section 3.1; see
//! [`crate::lock`]).

use std::sync::Arc;

use parking_lot::Mutex;

use jmpax_core::algorithm::step;
use jmpax_core::{Event, Value, VarClocks, VarId};

use crate::session::{SessionInner, ThreadCtx};

struct VarState<T> {
    value: T,
    clocks: VarClocks,
}

struct SharedInner<T> {
    var: VarId,
    state: Mutex<VarState<T>>,
    session: Arc<SessionInner>,
}

/// An instrumented shared variable of type `T`.
///
/// Clone freely — clones alias the same variable (like copies of a Java
/// field reference).
pub struct Shared<T> {
    inner: Arc<SharedInner<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Into<Value> + Send> Shared<T> {
    pub(crate) fn new(var: VarId, initial: T, session: Arc<SessionInner>) -> Self {
        Self {
            inner: Arc::new(SharedInner {
                var,
                state: Mutex::new(VarState {
                    value: initial,
                    clocks: VarClocks::default(),
                }),
                session,
            }),
        }
    }

    /// The variable's id.
    #[must_use]
    pub fn var(&self) -> VarId {
        self.inner.var
    }

    /// Reads the value, executing Algorithm A step 2:
    /// `V_i ← max{V_i, V^w_x}; V^a_x ← max{V^a_x, V_i}`.
    pub fn read(&self, ctx: &mut ThreadCtx) -> T {
        let mut st = self.inner.state.lock();
        self.access(ctx, &mut st.clocks, Event::read(ctx.id, self.inner.var));
        st.value
    }

    /// Writes the value, executing Algorithm A step 3:
    /// `V^w_x ← V^a_x ← V_i ← max{V^a_x, V_i}`.
    pub fn write(&self, ctx: &mut ThreadCtx, value: T) {
        let mut st = self.inner.state.lock();
        st.value = value;
        let event = Event::write(ctx.id, self.inner.var, value.into());
        self.access(ctx, &mut st.clocks, event);
    }

    /// Read-modify-write as a single atomic step (one read + one write
    /// event back to back under the variable's lock). Returns the new
    /// value. Useful for counters; note the paper's model treats the two
    /// events individually, which this preserves.
    pub fn update(&self, ctx: &mut ThreadCtx, f: impl FnOnce(T) -> T) -> T {
        let mut st = self.inner.state.lock();
        self.access(ctx, &mut st.clocks, Event::read(ctx.id, self.inner.var));
        let new = f(st.value);
        st.value = new;
        let event = Event::write(ctx.id, self.inner.var, new.into());
        self.access(ctx, &mut st.clocks, event);
        new
    }

    /// One access `event` of this variable by `ctx`: Algorithm A's steps
    /// 1–3, then recording and step 4. The caller holds the variable's
    /// lock, so the access and its clock update are one atomic step.
    fn access(&self, ctx: &mut ThreadCtx, clocks: &mut VarClocks, event: Event) {
        let session = &self.inner.session;
        let relevant = step(&session.relevance, &event, &mut ctx.clock, Some(clocks));
        session.record(ctx, event, relevant);
    }

    /// Peeks at the raw value without instrumentation. For assertions in
    /// tests and harnesses only — real program code must use
    /// [`Shared::read`].
    #[must_use]
    pub fn peek(&self) -> T {
        self.inner.state.lock().value
    }
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("var", &self.inner.var)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use jmpax_core::{Relevance, ThreadId};

    #[test]
    fn read_write_basic() {
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 10i64);
        let mut ctx = s.register_thread();
        assert_eq!(x.read(&mut ctx), 10);
        x.write(&mut ctx, 20);
        assert_eq!(x.read(&mut ctx), 20);
        assert_eq!(x.peek(), 20);
        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].written_value(), Some(Value::Int(20)));
    }

    #[test]
    fn clocks_follow_algorithm_a() {
        // Reproduce the core crate's write-read-write chain and compare
        // against the sequential instrumentor.
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let mut t1 = s.register_thread();
        let mut t2 = s.register_thread();

        x.write(&mut t1, 1); // m1
        let _ = x.read(&mut t2);
        x.write(&mut t2, 2); // m2

        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].causally_precedes(&msgs[1]));
        assert_eq!(msgs[0].clock.as_slice(), &[1]);
        assert_eq!(msgs[1].clock.as_slice(), &[1, 1]);
    }

    #[test]
    fn concurrent_writes_to_distinct_vars_stay_concurrent() {
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let y = s.shared("y", 0i64);
        let mut t1 = s.register_thread();
        let mut t2 = s.register_thread();
        x.write(&mut t1, 1);
        y.write(&mut t2, 1);
        let msgs = s.drain_messages();
        assert!(msgs[0].concurrent_with(&msgs[1]));
    }

    #[test]
    fn update_is_read_then_write() {
        let s = Session::new_logged(Relevance::AllWrites);
        let x = s.shared("x", 5i64);
        let mut ctx = s.register_thread();
        let new = x.update(&mut ctx, |v| v * 2);
        assert_eq!(new, 10);
        assert_eq!(x.peek(), 10);
        let log = s.take_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].kind.is_read());
        assert!(log[1].kind.is_write());
    }

    #[test]
    fn bool_values_supported() {
        let s = Session::new(Relevance::AllWrites);
        let flag = s.shared("flag", false);
        let mut ctx = s.register_thread();
        flag.write(&mut ctx, true);
        assert!(flag.read(&mut ctx));
        let msgs = s.drain_messages();
        assert_eq!(msgs[0].written_value(), Some(Value::Bool(true)));
    }

    #[test]
    fn real_threads_produce_causally_consistent_messages() {
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let xs = x.clone();
            handles.push(s.spawn(move |ctx| {
                for _ in 0..50 {
                    xs.update(ctx, |v| v + 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.peek(), 200, "updates are atomic");
        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 200);
        // All writes of one variable are totally ordered by causality.
        for i in 0..msgs.len() {
            for j in (i + 1)..msgs.len() {
                assert!(
                    msgs[i].causally_precedes(&msgs[j]) || msgs[j].causally_precedes(&msgs[i]),
                    "writes of x must never be concurrent"
                );
            }
        }
        let _ = ThreadId(0);
    }
}
