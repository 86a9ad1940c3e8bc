//! The program side: instrumented accesses through `jmpax-instrument`.
//!
//! * [`live_instrumented`] runs the live-stream program on two real threads
//!   and streams it to the daemon through a [`TcpFrameSink`];
//!   [`live_control`] is the same program on plain `parking_lot` mutexes.
//! * [`replay_instrumented`] drives a recorded execution through
//!   [`Session`] and [`Shared`] on one thread, one [`ThreadCtx`] per
//!   logical thread, to time the instrumentation of workloads whose
//!   sessions send pre-encoded frames.

use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use jmpax_core::{Event, EventKind, Message, Relevance};
use jmpax_instrument::{encode_frame_v2, EventSink, Session, Shared, TcpFrameSink, ThreadCtx};
use parking_lot::Mutex;

use crate::inputs::{live_value, Tenant, LIVE_BURST};

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Per-access timings of one instrumented run.
#[derive(Clone, Debug, Default)]
pub struct AccessSamples {
    /// Writes that emit a message.
    pub write_ns: Vec<u32>,
    /// Accesses that emit nothing (clock cost only).
    pub irrelevant_ns: Vec<u32>,
    /// `EventSink::emit` calls (inside the writes above).
    pub emit_ns: Vec<u32>,
    /// Σ time of every timed access.
    pub access_ns: u64,
    pub accesses: u64,
    pub messages: u64,
}

impl AccessSamples {
    pub fn merge(&mut self, other: AccessSamples) {
        self.write_ns.extend(other.write_ns);
        self.irrelevant_ns.extend(other.irrelevant_ns);
        self.emit_ns.extend(other.emit_ns);
        self.access_ns += other.access_ns;
        self.accesses += other.accesses;
        self.messages += other.messages;
    }

    fn time(&mut self, relevant_write: bool, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        let d = ns(t.elapsed());
        self.access_ns += u64::from(d);
        self.accesses += 1;
        if relevant_write {
            self.write_ns.push(d);
        } else {
            self.irrelevant_ns.push(d);
        }
    }
}

/// What the wrapped sink shares with the code that built the session.
struct SinkState<S> {
    inner: Option<S>,
    timing: bool,
    emit_ns: Vec<u32>,
    captured: Option<Vec<Message>>,
}

/// Forwards to an inner sink, optionally timing each emit and keeping a
/// copy of each message. The session owns the boxed sink, so the inner
/// sink lives behind a shared handle the benchmark can take back.
struct TimedSink<S> {
    state: Arc<Mutex<SinkState<S>>>,
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn emit(&mut self, message: &Message) {
        let mut st = self.state.lock();
        let start = st.timing.then(Instant::now);
        if let Some(inner) = st.inner.as_mut() {
            inner.emit(message);
        }
        if let Some(start) = start {
            let d = ns(start.elapsed());
            st.emit_ns.push(d);
        }
        if let Some(captured) = st.captured.as_mut() {
            captured.push(message.clone());
        }
    }
}

/// Encodes v2 frames into memory, as a frame sink does.
struct BufSink(BytesMut);

impl EventSink for BufSink {
    fn emit(&mut self, message: &Message) {
        encode_frame_v2(message, &mut self.0);
    }
}

fn shared_vars(session: &Session, tenant: &Tenant) -> Vec<Shared<i64>> {
    tenant
        .vars
        .iter()
        .enumerate()
        .map(|(i, (name, value))| {
            let var = session.shared(name, value.as_int());
            assert_eq!(
                var.var().index(),
                i,
                "variables intern in declaration order"
            );
            var
        })
        .collect()
}

/// Replays `events` through the instrumentation library on one thread
/// under `relevance`, timing every access. Returns the timings and the
/// frames the session emitted, which under the tenant's relevance must
/// equal the pre-encoded input.
pub fn replay_instrumented(
    tenant: &Tenant,
    relevance: &Relevance,
    events: &[Event],
) -> (AccessSamples, Vec<u8>) {
    let state = Arc::new(Mutex::new(SinkState {
        inner: Some(BufSink(BytesMut::with_capacity(events.len() * 40))),
        timing: true,
        emit_ns: Vec::with_capacity(events.len()),
        captured: None,
    }));
    let session = Session::builder(relevance.clone())
        .sink(Box::new(TimedSink {
            state: Arc::clone(&state),
        }))
        .build();
    let vars = shared_vars(&session, tenant);
    let mut ctxs: Vec<ThreadCtx> = (0..tenant.threads)
        .map(|_| session.register_thread())
        .collect();
    let mut samples = AccessSamples::default();
    for e in events {
        let relevant = relevance.is_relevant(e);
        let ctx = &mut ctxs[e.thread.index()];
        match e.kind {
            EventKind::Write { var, value } => {
                samples.time(relevant, || vars[var.index()].write(ctx, value.as_int()));
            }
            EventKind::Read { var } => {
                // A relevant read emits, but is not a write: it counts
                // toward access and emit time only.
                let t = Instant::now();
                black_box(vars[var.index()].read(ctx));
                let d = ns(t.elapsed());
                samples.access_ns += u64::from(d);
                samples.accesses += 1;
                if !relevant {
                    samples.irrelevant_ns.push(d);
                }
            }
            EventKind::Internal => ctx.internal_event(),
        }
        samples.messages += u64::from(relevant);
    }
    drop(ctxs);
    drop(session);
    let mut st = state.lock();
    samples.emit_ns = std::mem::take(&mut st.emit_ns);
    let bytes = st.inner.take().map(|b| b.0.to_vec()).unwrap_or_default();
    (samples, bytes)
}

/// One run of the live program streamed to the daemon.
pub struct LiveRun {
    pub start: Instant,
    pub connected: Instant,
    pub exited: Instant,
    pub done: Instant,
    pub program: Duration,
    pub verdict: io::Result<String>,
    /// Per-access timings and every emitted message (traced runs only).
    pub samples: Option<AccessSamples>,
    pub captured: Option<Vec<Message>>,
}

/// Runs the live program with instrumentation, streaming every relevant
/// write to the daemon at `addr` as it happens.
///
/// Each round T0 writes `a` (relevant) and T1 writes `b` (irrelevant)
/// `LIVE_BURST` times, both read `cfg` as often, then one thread writes
/// the token `tok` and the other reads it. An uninstrumented barrier
/// orders the hand-off, so the causal order — and hence the verdict — is
/// the same on every run.
pub fn live_instrumented(
    addr: SocketAddr,
    tenant: &Tenant,
    rounds: usize,
    traced: bool,
) -> io::Result<LiveRun> {
    let start = Instant::now();
    let sink = TcpFrameSink::connect(addr, &tenant.hello())?;
    let connected = Instant::now();
    let state = Arc::new(Mutex::new(SinkState {
        inner: Some(sink),
        timing: traced,
        emit_ns: Vec::new(),
        captured: traced.then(Vec::new),
    }));
    let session = Session::builder(tenant.relevance.clone())
        .sink(Box::new(TimedSink {
            state: Arc::clone(&state),
        }))
        .build();
    let vars = shared_vars(&session, tenant);
    let ctxs = [session.register_thread(), session.register_thread()];
    let barrier = Barrier::new(2);
    let program_start = Instant::now();
    let samples: Vec<AccessSamples> = std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .enumerate()
            .map(|(me, mut ctx)| {
                let (vars, barrier) = (&vars, &barrier);
                s.spawn(move || live_thread(me, &mut ctx, vars, barrier, rounds, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("live program thread panicked"))
            .collect()
    });
    let exited = Instant::now();
    let sink = state.lock().inner.take().expect("the sink is taken once");
    let verdict = sink.finish();
    let done = Instant::now();
    drop(session);
    let mut st = state.lock();
    let samples = traced.then(|| {
        let mut all = AccessSamples::default();
        for s in samples {
            all.merge(s);
        }
        all.emit_ns = std::mem::take(&mut st.emit_ns);
        all.messages = all.emit_ns.len() as u64;
        all
    });
    Ok(LiveRun {
        start,
        connected,
        exited,
        done,
        program: exited - program_start,
        verdict,
        samples,
        captured: st.captured.take(),
    })
}

fn live_thread(
    me: usize,
    ctx: &mut ThreadCtx,
    vars: &[Shared<i64>],
    barrier: &Barrier,
    rounds: usize,
    traced: bool,
) -> AccessSamples {
    let (own, cfg, tok) = (&vars[me], &vars[2], &vars[3]);
    let own_relevant = me == 0;
    let mut samples = AccessSamples::default();
    let mut access = |relevant: bool, f: &mut dyn FnMut(&mut ThreadCtx)| {
        if traced {
            samples.time(relevant, || f(ctx));
        } else {
            f(ctx);
        }
    };
    for r in 0..rounds {
        for k in 0..LIVE_BURST {
            access(own_relevant, &mut |ctx| own.write(ctx, live_value(r, k)));
        }
        for _ in 0..LIVE_BURST {
            access(false, &mut |ctx| {
                black_box(cfg.read(ctx));
            });
        }
        let holder = r % 2 == me;
        if holder {
            access(true, &mut |ctx| tok.write(ctx, r as i64 + 1));
        }
        barrier.wait();
        if !holder {
            access(false, &mut |ctx| {
                black_box(tok.read(ctx));
            });
        }
        barrier.wait();
    }
    samples
}

/// The same program on plain mutexes: the uninstrumented control.
pub fn live_control(rounds: usize) -> Duration {
    let vars: [Mutex<i64>; 4] = std::array::from_fn(|_| Mutex::new(0));
    let barrier = Barrier::new(2);
    let start = Instant::now();
    std::thread::scope(|s| {
        for me in 0..2usize {
            let (vars, barrier) = (&vars, &barrier);
            s.spawn(move || {
                let (own, cfg, tok) = (&vars[me], &vars[2], &vars[3]);
                for r in 0..rounds {
                    for k in 0..LIVE_BURST {
                        *own.lock() = live_value(r, k);
                    }
                    for _ in 0..LIVE_BURST {
                        black_box(*cfg.lock());
                    }
                    let holder = r % 2 == me;
                    if holder {
                        *tok.lock() = r as i64 + 1;
                    }
                    barrier.wait();
                    if !holder {
                        black_box(*tok.lock());
                    }
                    barrier.wait();
                }
            });
        }
    });
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{
        access_events, access_tenant, build, encode, example2_events, example2_schedules,
        example2_tenant, live_events, live_tenant,
    };
    use crate::rng::Rng;

    #[test]
    fn single_thread_replay_emits_the_reference_frames() {
        let tenant = access_tenant();
        let events = access_events(&mut Rng::new(5), 4, 8, 200);
        let input = build(&tenant, events).unwrap();
        let (samples, bytes) = replay_instrumented(&tenant, &tenant.relevance, &input.events);
        assert_eq!(bytes, input.body);
        assert_eq!(samples.accesses, 200);
        assert_eq!(samples.messages, 200);
        assert_eq!(samples.emit_ns.len(), 200);

        let tenant = example2_tenant();
        let input = build(&tenant, example2_events(&example2_schedules()[17])).unwrap();
        let (samples, bytes) = replay_instrumented(&tenant, &tenant.relevance, &input.events);
        assert_eq!(bytes, input.body);
        assert_eq!(
            (samples.write_ns.len(), samples.irrelevant_ns.len()),
            (4, 4)
        );
    }

    #[test]
    fn live_program_emits_the_reference_message_set() {
        use jmpax_observer::{ServeConfig, Server};
        let tenant = live_tenant();
        let reference = build(&tenant, live_events(6)).unwrap();
        let daemon = Server::bind(0, ServeConfig::new(&tenant.spec))
            .unwrap()
            .spawn();
        let run = live_instrumented(daemon.addr(), &tenant, 6, true).unwrap();
        let mut got = run.captured.unwrap();
        let mut want = reference.messages.clone();
        let key = |m: &Message| (m.event.thread, m.clock.as_slice().to_vec());
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(encode(&got), encode(&want));
        crate::client::check(run.verdict, &reference.expected).unwrap();
        let samples = run.samples.unwrap();
        assert_eq!(samples.messages, reference.messages.len() as u64);
        let _ = daemon.stop();
        assert!(live_control(6) > Duration::ZERO);
    }
}
