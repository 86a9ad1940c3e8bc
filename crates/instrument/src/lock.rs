//! Instrumented synchronization primitives.
//!
//! Section 3.1 of the paper: "since in Java synchronized blocks cannot be
//! interleaved … locks are considered as shared variables and a write event
//! is generated whenever a lock is acquired or released. This way, a causal
//! dependency is generated between any exit and any entry of a synchronized
//! block." Condition synchronization (wait/notify) is handled "by
//! generating a write of a dummy shared variable by both the notifying
//! thread before notification and by the notified thread after
//! notification."

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use jmpax_core::VarId;

use crate::session::{SessionInner, ThreadCtx};
use crate::shared::Shared;

struct MutexInner<T> {
    data: Mutex<T>,
    /// The lock as a shared variable: written 1 on acquire, 0 on release.
    pseudo: Shared<i64>,
}

/// An instrumented mutex protecting a `T`.
///
/// Acquire and release each generate one write event of the lock's pseudo
/// shared variable, creating the expected happens-before edges between
/// critical sections. Clone freely — clones alias the same mutex.
pub struct InstrMutex<T> {
    inner: Arc<MutexInner<T>>,
}

impl<T> Clone for InstrMutex<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> InstrMutex<T> {
    pub(crate) fn new(var: VarId, value: T, session: Arc<SessionInner>) -> Self {
        Self {
            inner: Arc::new(MutexInner {
                data: Mutex::new(value),
                pseudo: Shared::new(var, 0, session),
            }),
        }
    }

    /// The pseudo variable's id.
    #[must_use]
    pub fn var(&self) -> VarId {
        self.inner.pseudo.var()
    }

    /// Acquires the mutex. The guard keeps the thread context — use
    /// [`InstrMutexGuard::ctx`] for shared accesses inside the critical
    /// section; the release event fires when the guard drops.
    pub fn lock<'a>(&'a self, ctx: &'a mut ThreadCtx) -> InstrMutexGuard<'a, T> {
        let data = self.inner.data.lock();
        self.inner.pseudo.write(ctx, 1);
        InstrMutexGuard {
            mutex: self,
            data: Some(data),
            ctx,
        }
    }
}

impl<T> std::fmt::Debug for InstrMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrMutex")
            .field("var", &self.inner.pseudo.var())
            .finish()
    }
}

/// Guard of an [`InstrMutex`]; dereferences to the protected data.
pub struct InstrMutexGuard<'a, T: Send> {
    mutex: &'a InstrMutex<T>,
    data: Option<parking_lot::MutexGuard<'a, T>>,
    ctx: &'a mut ThreadCtx,
}

impl<T: Send> InstrMutexGuard<'_, T> {
    /// The thread context, for shared-variable accesses inside the
    /// critical section.
    pub fn ctx(&mut self) -> &mut ThreadCtx {
        self.ctx
    }
}

impl<T: Send> std::ops::Deref for InstrMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard data present until drop")
    }
}

impl<T: Send> std::ops::DerefMut for InstrMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard data present until drop")
    }
}

impl<T: Send> Drop for InstrMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release event *before* unlocking, so the next acquirer's join
        // observes this thread's full clock.
        self.mutex.inner.pseudo.write(self.ctx, 0);
        self.data = None; // unlock
    }
}

/// An instrumented condition variable.
///
/// `notify_*` writes the dummy variable before notifying; awakened waiters
/// write it after waking — creating the notifier → notified happens-before
/// edge of Section 3.1.
pub struct InstrCondvar {
    cv: Condvar,
    dummy: Shared<()>,
}

impl InstrCondvar {
    pub(crate) fn new(var: VarId, session: Arc<SessionInner>) -> Self {
        Self {
            cv: Condvar::new(),
            dummy: Shared::new(var, (), session),
        }
    }

    /// The dummy variable's id.
    #[must_use]
    pub fn var(&self) -> VarId {
        self.dummy.var()
    }

    /// Waits on the condition variable, atomically releasing the guarded
    /// mutex. Emits: lock release event, (blocking wait), lock acquire
    /// event, dummy-variable write.
    pub fn wait<T: Send>(&self, guard: &mut InstrMutexGuard<'_, T>) {
        // Release event: other threads may now causally follow us.
        let pseudo = &guard.mutex.inner.pseudo;
        pseudo.write(guard.ctx, 0);
        {
            let data = guard.data.as_mut().expect("guard data present");
            self.cv.wait(data);
        }
        // We hold the mutex again: acquire edge + notification edge.
        pseudo.write(guard.ctx, 1);
        self.dummy.write(guard.ctx, ());
    }

    /// Wakes one waiter, recording the notification edge first.
    pub fn notify_one(&self, ctx: &mut ThreadCtx) {
        self.dummy.write(ctx, ());
        self.cv.notify_one();
    }

    /// Wakes all waiters, recording the notification edge first.
    pub fn notify_all(&self, ctx: &mut ThreadCtx) {
        self.dummy.write(ctx, ());
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for InstrCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrCondvar")
            .field("var", &self.dummy.var())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::session::Session;
    use jmpax_core::Relevance;
    use std::time::Duration;

    #[test]
    fn critical_sections_are_causally_ordered() {
        // Two threads write different variables inside the same lock; the
        // writes must be causally ordered (not concurrent) thanks to the
        // lock's pseudo-variable events.
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let y = s.shared("y", 0i64);
        let m = s.mutex("m", ());

        let (xs, ys, ms) = (x.clone(), y.clone(), m.clone());
        let h1 = s.spawn(move |ctx| {
            let mut g = ms.lock(ctx);
            xs.write(g.ctx(), 1);
        });
        let (xs, ys2, ms) = (x.clone(), ys, m.clone());
        let h2 = s.spawn(move |ctx| {
            let mut g = ms.lock(ctx);
            ys2.write(g.ctx(), 1);
            let _ = &xs;
        });
        h1.join().unwrap();
        h2.join().unwrap();

        let msgs = s.drain_messages();
        // Messages: 2 lock writes + x write from t1; 2 lock writes + y write
        // from t2 — under AllWrites the lock pseudo-writes are relevant too.
        let xw = msgs.iter().find(|m| m.var() == Some(x.var())).unwrap();
        let yw = msgs.iter().find(|m| m.var() == Some(y.var())).unwrap();
        assert!(
            xw.causally_precedes(yw) || yw.causally_precedes(xw),
            "critical sections must be ordered"
        );
    }

    #[test]
    fn without_lock_events_writes_would_be_concurrent() {
        // The same scenario with relevance restricted to x and y and *no*
        // locking: concurrent messages. This is ablation D5's baseline.
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
    fn guard_derefs_to_data() {
        let s = Session::new(Relevance::AllWrites);
        let m = s.mutex("m", vec![1, 2, 3]);
        let mut ctx = s.register_thread();
        let mut g = m.lock(&mut ctx);
        g.push(4);
        assert_eq!(*g, vec![1, 2, 3, 4]);
    }

    #[test]
    fn lock_events_emitted_in_order() {
        let s = Session::new_logged(Relevance::AllWrites);
        let m = s.mutex("m", ());
        let mut ctx = s.register_thread();
        {
            let _g = m.lock(&mut ctx);
        }
        let log = s.take_log();
        assert_eq!(log.len(), 2, "acquire + release");
        assert!(log.iter().all(|e| e.var() == Some(m.var())));
    }

    #[test]
    fn condvar_creates_notifier_to_waiter_edge() {
        let s = Session::new(Relevance::AllWrites);
        let ready = s.mutex("ready", false);
        let cv = s.condvar("cv");
        let data = s.shared("data", 0i64);
        let cv = std::sync::Arc::new(cv);

        let (m2, cv2, d2) = (ready.clone(), std::sync::Arc::clone(&cv), data.clone());
        let waiter = s.spawn(move |ctx| {
            let mut g = m2.lock(ctx);
            while !*g {
                cv2.wait(&mut g);
            }
            let v = d2.read(g.ctx());
            assert_eq!(v, 42);
        });

        std::thread::sleep(Duration::from_millis(50));
        let (m3, cv3, d3) = (ready, cv, data);
        let notifier = s.spawn(move |ctx| {
            d3.write(ctx, 42);
            let mut g = m3.lock(ctx);
            *g = true;
            cv3.notify_one(g.ctx());
        });

        notifier.join().unwrap();
        waiter.join().unwrap();
        // The data write (notifier) must causally precede everything the
        // waiter did after waking; spot-check via message clocks.
        let msgs = s.drain_messages();
        assert!(!msgs.is_empty());
    }
}
