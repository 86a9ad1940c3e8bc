//! Instrumentation sessions and per-thread contexts.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use jmpax_telemetry::trace::{TraceKind, TraceRing, Tracer};
use jmpax_telemetry::{Counter, Registry};
use parking_lot::Mutex;

use jmpax_core::algorithm::step;
use jmpax_core::{Event, Message, Relevance, SymbolTable, ThreadId, VarId, VectorClock};

use crate::shared::Shared;
use crate::sink::{EventSink, VecSink};

/// Shared state of one instrumentation session.
pub(crate) struct SessionInner {
    pub(crate) relevance: Relevance,
    pub(crate) sink: Mutex<Box<dyn EventSink>>,
    symbols: Mutex<SymbolTable>,
    next_thread: AtomicU32,
    /// Global linearization counter, bumped inside variable critical
    /// sections; used only when logging is on.
    seq: AtomicU64,
    logging: bool,
    log: Mutex<Vec<(u64, Event)>>,
    /// `instrument.events_seen` — every event recorded, relevant or not.
    tel_seen: Counter,
    /// `instrument.events_relevant` — events the relevance policy kept.
    tel_relevant: Counter,
    /// `instrument.messages_emitted` — messages handed to the sink.
    tel_emitted: Counter,
    /// The registry's tracer: hands out one per-thread trace lane (`T1`,
    /// `T2`, …) at registration; disabled unless the registry is traced,
    /// so untraced sessions never touch a clock.
    tracer: Tracer,
}

impl SessionInner {
    /// Records `event` in the linearization log (when enabled) and emits a
    /// message when the event is relevant. MUST be called while holding the
    /// variable's critical section so the log order is a true
    /// linearization.
    pub(crate) fn record(&self, ctx: &mut ThreadCtx, event: Event, relevant: bool) {
        self.tel_seen.inc();
        if self.logging {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.log.lock().push((seq, event));
        }
        if ctx.ring.is_enabled() {
            ctx.ring.record(TraceKind::Processed {
                thread: ctx.id.0,
                relevant,
            });
        }
        if relevant {
            self.tel_relevant.inc();
            let message = Message {
                event,
                clock: ctx.clock.clone(),
            };
            if ctx.ring.is_enabled() {
                ctx.ring.record(TraceKind::Emitted(message.trace_ref()));
            }
            self.sink.lock().emit(&message);
            self.tel_emitted.inc();
        }
    }
}

/// An instrumentation session: the factory for [`Shared`] variables,
/// instrumented locks and registered threads, and the owner of the event
/// sink. Clone freely — clones share the same session.
#[derive(Clone)]
pub struct Session {
    pub(crate) inner: Arc<SessionInner>,
    /// Retained when the session owns the default in-memory sink.
    vec_sink: Option<VecSink>,
}

impl Session {
    fn build(
        relevance: Relevance,
        sink: Box<dyn EventSink>,
        vec_sink: Option<VecSink>,
        logging: bool,
        registry: &Registry,
    ) -> Self {
        Self {
            inner: Arc::new(SessionInner {
                relevance,
                sink: Mutex::new(sink),
                symbols: Mutex::new(SymbolTable::new()),
                next_thread: AtomicU32::new(0),
                seq: AtomicU64::new(0),
                logging,
                log: Mutex::new(Vec::new()),
                tel_seen: registry.counter("instrument.events_seen"),
                tel_relevant: registry.counter("instrument.events_relevant"),
                tel_emitted: registry.counter("instrument.messages_emitted"),
                tracer: registry.tracer().clone(),
            }),
            vec_sink,
        }
    }

    /// A session emitting to an in-memory [`VecSink`] (drain with
    /// [`Session::drain_messages`]).
    #[must_use]
    pub fn new(relevance: Relevance) -> Self {
        Self::builder(relevance).build()
    }

    /// Starts configuring a session: sink and telemetry registry plug in
    /// through the returned [`SessionBuilder`].
    #[must_use]
    pub fn builder(relevance: Relevance) -> SessionBuilder {
        SessionBuilder {
            relevance,
            sink: None,
            telemetry: Registry::disabled(),
            logging: false,
        }
    }

    /// A session emitting to a custom sink.
    #[must_use]
    pub fn with_sink(relevance: Relevance, sink: Box<dyn EventSink>) -> Self {
        Self::builder(relevance).sink(sink).build()
    }

    /// Like [`Session::new`] but additionally records the global
    /// linearization of every shared access — used by the equivalence tests
    /// against the sequential Algorithm A.
    #[must_use]
    pub fn new_logged(relevance: Relevance) -> Self {
        Self::builder(relevance).logged().build()
    }

    /// The relevance policy.
    #[must_use]
    pub fn relevance(&self) -> &Relevance {
        &self.inner.relevance
    }

    /// Interns a variable name (stable across calls).
    #[must_use]
    pub fn var_id(&self, name: &str) -> VarId {
        self.inner.symbols.lock().intern(name)
    }

    /// Looks up a previously interned name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.inner.symbols.lock().lookup(name)
    }

    /// A snapshot of the symbol table.
    #[must_use]
    pub fn symbols(&self) -> SymbolTable {
        self.inner.symbols.lock().clone()
    }

    /// Creates an instrumented shared variable.
    #[must_use]
    pub fn shared<T: Copy + Into<jmpax_core::Value> + Send>(
        &self,
        name: &str,
        initial: T,
    ) -> Shared<T> {
        Shared::new(self.var_id(name), initial, Arc::clone(&self.inner))
    }

    /// Creates an instrumented mutex (Section 3.1: lock operations write a
    /// pseudo shared variable named `name`).
    #[must_use]
    pub fn mutex<T: Send>(&self, name: &str, value: T) -> crate::lock::InstrMutex<T> {
        crate::lock::InstrMutex::new(self.var_id(name), value, Arc::clone(&self.inner))
    }

    /// Creates an instrumented condition variable whose notifications write
    /// the dummy shared variable `name`.
    #[must_use]
    pub fn condvar(&self, name: &str) -> crate::lock::InstrCondvar {
        crate::lock::InstrCondvar::new(self.var_id(name), Arc::clone(&self.inner))
    }

    /// Registers the calling thread, allocating its `ThreadId` and MVC.
    #[must_use]
    pub fn register_thread(&self) -> ThreadCtx {
        let id = ThreadId(self.inner.next_thread.fetch_add(1, Ordering::Relaxed));
        let ring = self.inner.tracer.ring(&id.to_string());
        ThreadCtx {
            id,
            clock: VectorClock::new(),
            inner: Arc::clone(&self.inner),
            ring,
        }
    }

    /// Spawns an instrumented thread. The context is allocated *before* the
    /// thread starts, so thread ids are deterministic in spawn order.
    pub fn spawn<F>(&self, f: F) -> std::thread::JoinHandle<()>
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        let mut ctx = self.register_thread();
        std::thread::spawn(move || f(&mut ctx))
    }

    /// Spawns a *child* thread with fork-join causality — the dynamic
    /// thread creation extension mentioned in Section 2 of the paper
    /// ("systems consisting of a variable number of threads, where these
    /// can be dynamically created and/or destroyed").
    ///
    /// The child's MVC starts as a copy of the parent's, so everything the
    /// parent did before the fork causally precedes everything the child
    /// does; joining the returned handle merges the child's final clock
    /// back into the parent, closing the join edge.
    pub fn spawn_child<F>(&self, parent: &mut ThreadCtx, f: F) -> InstrJoinHandle
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        let id = ThreadId(self.inner.next_thread.fetch_add(1, Ordering::Relaxed));
        let ring = self.inner.tracer.ring(&id.to_string());
        let mut ctx = ThreadCtx {
            id,
            clock: parent.clock.clone(),
            inner: Arc::clone(&self.inner),
            ring,
        };
        let handle = std::thread::spawn(move || {
            f(&mut ctx);
            ctx.clock
        });
        InstrJoinHandle { handle }
    }

    /// Drains the default in-memory sink.
    ///
    /// Returns an empty vector when the session was created with a custom
    /// sink ([`Session::with_sink`]).
    #[must_use]
    pub fn drain_messages(&self) -> Vec<Message> {
        self.vec_sink
            .as_ref()
            .map(VecSink::drain)
            .unwrap_or_default()
    }

    /// Takes the linearization log (sorted by global sequence number).
    /// Empty unless the session was created with [`Session::new_logged`].
    #[must_use]
    pub fn take_log(&self) -> Vec<Event> {
        let mut log = std::mem::take(&mut *self.inner.log.lock());
        log.sort_by_key(|&(seq, _)| seq);
        log.into_iter().map(|(_, e)| e).collect()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("relevance", &self.inner.relevance)
            .finish_non_exhaustive()
    }
}

/// Configures a [`Session`] — obtained from [`Session::builder`]. Every
/// knob is optional: the default is an untelemetered, untraced session
/// emitting to an in-memory [`VecSink`].
pub struct SessionBuilder {
    relevance: Relevance,
    sink: Option<Box<dyn EventSink>>,
    telemetry: Registry,
    logging: bool,
}

impl SessionBuilder {
    /// Counts `instrument.events_seen`, `instrument.events_relevant` and
    /// `instrument.messages_emitted` into `registry`. A traced registry
    /// also records every registered thread's processed events and
    /// emitted messages into a per-thread trace lane (`T1`, `T2`, … —
    /// sealed into the registry's tracer when the thread's context drops).
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Emits to a custom sink instead of the default in-memory [`VecSink`]
    /// (with a custom sink, [`Session::drain_messages`] returns nothing).
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Additionally records the global linearization of every shared
    /// access (drained with [`Session::take_log`]) — used by the
    /// equivalence tests against the sequential Algorithm A.
    #[must_use]
    pub fn logged(mut self) -> Self {
        self.logging = true;
        self
    }

    /// Builds the session.
    #[must_use]
    pub fn build(self) -> Session {
        match self.sink {
            Some(sink) => Session::build(self.relevance, sink, None, self.logging, &self.telemetry),
            None => {
                let vec_sink = VecSink::new();
                Session::build(
                    self.relevance,
                    Box::new(vec_sink.clone()),
                    Some(vec_sink),
                    self.logging,
                    &self.telemetry,
                )
            }
        }
    }
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("relevance", &self.relevance)
            .field("logging", &self.logging)
            .finish_non_exhaustive()
    }
}

/// Join handle of a child thread spawned with [`Session::spawn_child`].
pub struct InstrJoinHandle {
    handle: std::thread::JoinHandle<VectorClock>,
}

impl InstrJoinHandle {
    /// Waits for the child and merges its final clock into `parent` — the
    /// join edge: everything the child did causally precedes everything
    /// the parent does afterwards.
    pub fn join(self, parent: &mut ThreadCtx) -> std::thread::Result<()> {
        let child_clock = self.handle.join()?;
        parent.clock.join(&child_clock);
        Ok(())
    }
}

impl std::fmt::Debug for InstrJoinHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrJoinHandle").finish_non_exhaustive()
    }
}

/// Per-thread instrumentation context: the thread's identity and its MVC
/// `V_i`. Owned by the thread — never shared — so clock updates need no
/// synchronization beyond the per-variable critical sections.
pub struct ThreadCtx {
    pub(crate) id: ThreadId,
    pub(crate) clock: VectorClock,
    pub(crate) inner: Arc<SessionInner>,
    /// This thread's trace lane; a disabled no-op unless the session was
    /// built with a traced registry ([`SessionBuilder::telemetry`]).
    pub(crate) ring: TraceRing,
}

impl ThreadCtx {
    /// This thread's id.
    #[must_use]
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// A snapshot of this thread's MVC.
    #[must_use]
    pub fn clock(&self) -> &VectorClock {
        &self.clock
    }

    /// Processes an *internal* event (no shared access). Only emits a
    /// message under [`Relevance::Everything`].
    pub fn internal_event(&mut self) {
        let event = Event::internal(self.id);
        let relevant = step(&self.inner.relevance, &event, &mut self.clock, None);
        let inner = Arc::clone(&self.inner);
        inner.record(self, event, relevant);
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ids_allocated_in_spawn_order() {
        let s = Session::new(Relevance::AllWrites);
        let a = s.register_thread();
        let b = s.register_thread();
        assert_eq!(a.id(), ThreadId(0));
        assert_eq!(b.id(), ThreadId(1));
    }

    #[test]
    fn var_ids_are_interned() {
        let s = Session::new(Relevance::AllWrites);
        let x1 = s.var_id("x");
        let y = s.var_id("y");
        let x2 = s.var_id("x");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        assert_eq!(s.lookup("x"), Some(x1));
        assert_eq!(s.lookup("zzz"), None);
        assert_eq!(s.symbols().name(x1), Some("x"));
    }

    #[test]
    fn internal_events_only_relevant_under_everything() {
        let s = Session::new(Relevance::Everything);
        let mut ctx = s.register_thread();
        ctx.internal_event();
        ctx.internal_event();
        assert_eq!(ctx.clock().get(ctx.id()), 2);
        assert_eq!(s.drain_messages().len(), 2);

        let s = Session::new(Relevance::AllWrites);
        let mut ctx = s.register_thread();
        ctx.internal_event();
        assert_eq!(ctx.clock().get(ctx.id()), 0);
        assert!(s.drain_messages().is_empty());
    }

    #[test]
    fn telemetry_counts_seen_relevant_emitted() {
        let registry = jmpax_telemetry::Registry::enabled();
        let s = Session::builder(Relevance::AllWrites)
            .telemetry(&registry)
            .build();
        let x = s.shared("x", 0i64);
        let mut ctx = s.register_thread();
        x.write(&mut ctx, 1); // read-modify-free write: relevant
        let _ = x.read(&mut ctx); // read: seen, not relevant
        ctx.internal_event(); // internal: seen, not relevant
        assert_eq!(s.drain_messages().len(), 1);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("instrument.events_seen"), Some(3));
        assert_eq!(snap.counter("instrument.events_relevant"), Some(1));
        assert_eq!(snap.counter("instrument.messages_emitted"), Some(1));
    }

    #[test]
    fn observability_session_traces_per_thread_lanes() {
        let registry = jmpax_telemetry::Registry::enabled().traced();
        let s = Session::builder(Relevance::AllWrites)
            .telemetry(&registry)
            .build();
        let x = s.shared("x", 0i64);
        let mut t1 = s.register_thread();
        let mut t2 = s.register_thread();
        x.write(&mut t1, 1);
        let _ = x.read(&mut t2);
        x.write(&mut t2, 2);
        drop((t1, t2)); // seal the per-thread rings

        let data = registry.tracer().collect();
        let lanes: Vec<&str> = data.lanes.iter().map(|l| l.lane.as_str()).collect();
        assert!(
            lanes.contains(&"T1") && lanes.contains(&"T2"),
            "per-thread lanes missing: {lanes:?}"
        );
        // Three processed events (two relevant), two emitted messages, and
        // a cross-thread causal edge through the shared variable.
        assert_eq!(data.len(), 5);
        let msgs = data.causal_messages();
        assert_eq!(msgs.len(), 2);
        let edges = jmpax_telemetry::trace::causal_edges(&msgs);
        assert!(
            edges.iter().any(|e| e.from.0 != e.to.0),
            "expected a cross-thread happens-before edge: {edges:?}"
        );
    }

    #[test]
    fn custom_sink_session_has_no_default_drain() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let s = Session::with_sink(
            Relevance::Everything,
            Box::new(crate::sink::ChannelSink::new(tx)),
        );
        let mut ctx = s.register_thread();
        ctx.internal_event();
        assert!(s.drain_messages().is_empty());
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn fork_join_causality() {
        use jmpax_core::VarId;
        let s = Session::new(Relevance::AllWrites);
        let before = s.shared("before", 0i64);
        let inside = s.shared("inside", 0i64);
        let after = s.shared("after", 0i64);
        let mut parent = s.register_thread();

        before.write(&mut parent, 1);
        let child_inside = inside.clone();
        let handle = s.spawn_child(&mut parent, move |ctx| {
            child_inside.write(ctx, 1);
        });
        handle.join(&mut parent).unwrap();
        after.write(&mut parent, 1);

        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 3);
        let get = |v: VarId| msgs.iter().find(|m| m.var() == Some(v)).unwrap();
        let (b, i, a) = (get(before.var()), get(inside.var()), get(after.var()));
        // Fork edge: before ≺ inside. Join edge: inside ≺ after.
        assert!(b.causally_precedes(i), "fork edge missing");
        assert!(i.causally_precedes(a), "join edge missing");
        assert!(b.causally_precedes(a));
    }

    #[test]
    fn sibling_children_are_concurrent() {
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let y = s.shared("y", 0i64);
        let mut parent = s.register_thread();
        let (xc, yc) = (x.clone(), y.clone());
        let h1 = s.spawn_child(&mut parent, move |ctx| xc.write(ctx, 1));
        let h2 = s.spawn_child(&mut parent, move |ctx| yc.write(ctx, 1));
        h1.join(&mut parent).unwrap();
        h2.join(&mut parent).unwrap();
        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 2);
        assert!(
            msgs[0].concurrent_with(&msgs[1]),
            "independent children must stay concurrent"
        );
    }

    #[test]
    fn nested_forks() {
        let s = Session::new(Relevance::AllWrites);
        let x = s.shared("x", 0i64);
        let mut root = s.register_thread();
        x.write(&mut root, 1);
        let s2 = s.clone();
        let xc = x.clone();
        let h = s.spawn_child(&mut root, move |ctx| {
            let xg = xc.clone();
            let hh = s2.spawn_child(ctx, move |gctx| {
                xg.write(gctx, 2);
            });
            hh.join(ctx).unwrap();
        });
        h.join(&mut root).unwrap();
        x.write(&mut root, 3);
        let msgs = s.drain_messages();
        assert_eq!(msgs.len(), 3);
        // Grandchild's write is between the root's two writes.
        assert!(msgs[0].causally_precedes(&msgs[1]));
        assert!(msgs[1].causally_precedes(&msgs[2]));
    }

    #[test]
    fn builder_composes_telemetry_tracing_and_sinks() {
        let registry = jmpax_telemetry::Registry::enabled();

        let s = Session::builder(Relevance::AllWrites)
            .telemetry(&registry)
            .build();
        let x = s.shared("x", 0i64);
        let mut ctx = s.register_thread();
        x.write(&mut ctx, 1);
        assert_eq!(s.drain_messages().len(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("instrument.messages_emitted"), Some(1));

        let traced = registry.clone().traced();
        let s = Session::builder(Relevance::AllWrites)
            .telemetry(&traced)
            .build();
        let y = s.shared("y", 0i64);
        let mut ctx = s.register_thread();
        y.write(&mut ctx, 2);
        drop(ctx); // seal the lane
        assert!(traced
            .tracer()
            .collect()
            .lanes
            .iter()
            .any(|l| l.lane == "T1" && !l.events.is_empty()));

        let sink = VecSink::new();
        let s = Session::builder(Relevance::Everything)
            .sink(Box::new(sink.clone()))
            .telemetry(&Registry::disabled())
            .build();
        s.register_thread().internal_event();
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn log_disabled_by_default() {
        let s = Session::new(Relevance::Everything);
        let mut ctx = s.register_thread();
        ctx.internal_event();
        assert!(s.take_log().is_empty());

        let s = Session::new_logged(Relevance::Everything);
        let mut ctx = s.register_thread();
        ctx.internal_event();
        assert_eq!(s.take_log().len(), 1);
    }
}
