//! Event sinks: where instrumented programs send their messages.

use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jmpax_core::Message;
use jmpax_telemetry::trace::{TraceKind, TraceRing};
use jmpax_telemetry::Stage;

/// Consumes the messages Algorithm A emits (step 4 of Fig. 2).
pub trait EventSink: Send {
    /// Delivers one message.
    fn emit(&mut self, message: &Message);
}

/// Collects messages into a shared vector (the default sink).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    messages: Arc<Mutex<Vec<Message>>>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes every message collected so far.
    #[must_use]
    pub fn drain(&self) -> Vec<Message> {
        std::mem::take(&mut self.messages.lock())
    }

    /// Number of messages currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.messages.lock().len()
    }

    /// True when no messages are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.messages.lock().is_empty()
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, message: &Message) {
        self.messages.lock().push(message.clone());
    }
}

/// Forwards messages over a crossbeam channel — the shape of a live
/// observer running in another thread (or process).
#[derive(Clone, Debug)]
pub struct ChannelSink {
    sender: Sender<Message>,
}

impl ChannelSink {
    /// Wraps a channel sender.
    #[must_use]
    pub fn new(sender: Sender<Message>) -> Self {
        Self { sender }
    }
}

impl EventSink for ChannelSink {
    fn emit(&mut self, message: &Message) {
        // A disappeared observer must never take down the program under
        // test; messages are dropped once the receiver is gone.
        let _ = self.sender.send(message.clone());
    }
}

/// Serializes messages into a shared byte buffer using the wire format of
/// [`crate::codec`] — the same frames [`crate::TcpFrameSink`] ships over the
/// TCP socket between the instrumented program and the observer (Fig. 4).
#[derive(Clone, Debug, Default)]
pub struct FrameSink {
    buffer: Arc<Mutex<bytes::BytesMut>>,
    /// `instrument.frames_encoded` / `instrument.bytes_encoded`; no-ops
    /// unless built via [`FrameSinkBuilder::telemetry`].
    tel_frames: jmpax_telemetry::Counter,
    tel_bytes: jmpax_telemetry::Counter,
    /// Trace lane `wire`: one span per encoded frame plus the message it
    /// carried. Shared across clones (the sink itself is shared), so the
    /// ring sits behind a lock; an untraced sink has no ring and no lock.
    ring: Option<Arc<Mutex<TraceRing>>>,
}

impl FrameSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts configuring a sink: telemetry (and, through a traced
    /// registry, tracing) plugs in through the returned
    /// [`FrameSinkBuilder`].
    #[must_use]
    pub fn builder() -> FrameSinkBuilder {
        FrameSinkBuilder::default()
    }

    /// Takes the bytes accumulated so far.
    #[must_use]
    pub fn take_bytes(&self) -> bytes::Bytes {
        std::mem::take(&mut *self.buffer.lock()).freeze()
    }
}

/// Configures a [`FrameSink`] — obtained from [`FrameSink::builder`].
#[derive(Debug, Default)]
pub struct FrameSinkBuilder {
    telemetry: jmpax_telemetry::Registry,
}

impl FrameSinkBuilder {
    /// Counts `instrument.frames_encoded` (messages serialized) and
    /// `instrument.bytes_encoded` (wire bytes produced) into `registry`.
    /// A traced registry also gets per-frame encode spans on the `wire`
    /// lane (sealed when the sink's last clone drops).
    #[must_use]
    pub fn telemetry(mut self, registry: &jmpax_telemetry::Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Builds the sink.
    #[must_use]
    pub fn build(self) -> FrameSink {
        FrameSink {
            buffer: Arc::default(),
            tel_frames: self.telemetry.counter("instrument.frames_encoded"),
            tel_bytes: self.telemetry.counter("instrument.bytes_encoded"),
            ring: self
                .telemetry
                .tracer()
                .is_enabled()
                .then(|| Arc::new(Mutex::new(self.telemetry.tracer().ring("wire")))),
        }
    }
}

impl EventSink for FrameSink {
    fn emit(&mut self, message: &Message) {
        let encode = || {
            let mut buffer = self.buffer.lock();
            let before = buffer.len();
            crate::codec::encode_frame_v2(message, &mut buffer);
            buffer.len() - before
        };
        let encoded = match &self.ring {
            None => encode(),
            Some(ring) => {
                // The lane lock spans the encode so the lane records frames
                // in wire order.
                let mut ring = ring.lock();
                let stage = Stage::lane(&ring);
                let encoded = encode();
                stage.end(&mut ring, TraceKind::Stage { name: "encode" });
                ring.record(TraceKind::Emitted(message.trace_ref()));
                encoded
            }
        };
        self.tel_frames.inc();
        self.tel_bytes.add(encoded as u64);
    }
}

/// Fault model for [`ChaosSink`]: every rate is a probability in `[0, 1]`
/// applied independently per frame, driven by a seeded PRNG so a given
/// configuration replays byte-identically.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// PRNG seed — same seed, same faults.
    pub seed: u64,
    /// Probability a frame is silently dropped (message loss).
    pub drop_rate: f64,
    /// Probability a frame is enqueued twice (duplicate delivery).
    pub dup_rate: f64,
    /// Probability a flushed frame has one random bit flipped (corruption).
    pub corrupt_rate: f64,
    /// Number of frames held back and flushed in random order; `0` or `1`
    /// disables reordering.
    pub reorder_window: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            reorder_window: 0,
        }
    }
}

impl ChaosConfig {
    /// The same fault model with a child seed derived from this config's
    /// `seed` and a `session` id (splitmix64 over both), so a multi-stream
    /// chaos run replays stream-by-stream: session *k* sees the same faults
    /// regardless of how many sibling sessions run or in what order.
    #[must_use]
    pub fn for_session(&self, session: u64) -> Self {
        Self {
            seed: splitmix64(self.seed ^ splitmix64(session)),
            ..*self
        }
    }
}

/// The splitmix64 finalizer — a cheap, well-distributed u64→u64 mix used
/// to derive independent per-session PRNG seeds from one root seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a [`ChaosSink`] actually did to the stream — the ground truth the
/// resilience layer's recovered counts are checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Messages offered to the sink.
    pub emitted: u64,
    /// Frames silently discarded.
    pub dropped: u64,
    /// Extra copies enqueued.
    pub duplicated: u64,
    /// Frames flushed with a flipped bit.
    pub corrupted: u64,
    /// Frames flushed out of arrival order.
    pub reordered: u64,
}

struct ChaosInner {
    rng: StdRng,
    config: ChaosConfig,
    /// Encoded frames held back for reordering, tagged with their arrival
    /// index so out-of-order flushes can be counted.
    window: Vec<(u64, Vec<u8>)>,
    /// Arrival index for the next enqueued frame.
    next_arrival: u64,
    /// One past the highest arrival index flushed so far; frames flushed
    /// below it went out late, i.e. were reordered.
    flushed_watermark: u64,
    out: bytes::BytesMut,
    stats: ChaosStats,
}

impl ChaosInner {
    /// Moves one randomly chosen frame from the window to the output,
    /// possibly flipping a bit on the way out.
    fn flush_one(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let i = self.rng.gen_range(0..self.window.len());
        let (arrival, mut frame) = self.window.remove(i);
        if arrival < self.flushed_watermark {
            self.stats.reordered += 1;
        } else {
            self.flushed_watermark = arrival + 1;
        }
        if self.config.corrupt_rate > 0.0 && self.rng.gen_bool(self.config.corrupt_rate) {
            let bit = self.rng.gen_range(0..frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            self.stats.corrupted += 1;
        }
        self.out.extend_from_slice(&frame);
    }
}

/// A [`FrameSink`] with a fault injector in front of the wire: frames are
/// dropped, duplicated, reordered within a bounded window, and bit-flipped
/// at configured rates ([`ChaosConfig`]). Encodes the frames of
/// [`crate::codec::encode_frame_v2`], so the damage it does is exactly what
/// [`crate::codec::ResilientFrameDecoder`] and the lattice `Reassembler`
/// are specified to survive.
#[derive(Clone)]
pub struct ChaosSink {
    inner: Arc<Mutex<ChaosInner>>,
}

impl ChaosSink {
    /// An empty sink injecting faults per `config`.
    #[must_use]
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            inner: Arc::new(Mutex::new(ChaosInner {
                rng: StdRng::seed_from_u64(config.seed),
                config,
                window: Vec::new(),
                next_arrival: 0,
                flushed_watermark: 0,
                out: bytes::BytesMut::new(),
                stats: ChaosStats::default(),
            })),
        }
    }

    /// Flushes the reorder window and takes every byte produced so far.
    #[must_use]
    pub fn take_bytes(&self) -> bytes::Bytes {
        let mut inner = self.inner.lock();
        while !inner.window.is_empty() {
            inner.flush_one();
        }
        std::mem::take(&mut inner.out).freeze()
    }

    /// What the injector has done so far (arrival-order bookkeeping is only
    /// final after [`ChaosSink::take_bytes`]).
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.inner.lock().stats
    }
}

impl std::fmt::Debug for ChaosSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ChaosSink")
            .field("config", &inner.config)
            .field("stats", &inner.stats)
            .finish_non_exhaustive()
    }
}

impl EventSink for ChaosSink {
    fn emit(&mut self, message: &Message) {
        let mut inner = self.inner.lock();
        inner.stats.emitted += 1;
        let drop_rate = inner.config.drop_rate;
        if drop_rate > 0.0 && inner.rng.gen_bool(drop_rate) {
            inner.stats.dropped += 1;
            return;
        }
        let mut buf = bytes::BytesMut::new();
        crate::codec::encode_frame_v2(message, &mut buf);
        let frame: Vec<u8> = buf[..].to_vec();
        let arrival = inner.next_arrival;
        inner.next_arrival += 1;
        inner.window.push((arrival, frame.clone()));
        let dup_rate = inner.config.dup_rate;
        if dup_rate > 0.0 && inner.rng.gen_bool(dup_rate) {
            inner.stats.duplicated += 1;
            let arrival = inner.next_arrival;
            inner.next_arrival += 1;
            inner.window.push((arrival, frame));
        }
        let window_cap = inner.config.reorder_window.max(1);
        while inner.window.len() >= window_cap {
            inner.flush_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, ThreadId, VarId, VectorClock};

    fn msg(seq: u32) -> Message {
        Message {
            event: Event::write(ThreadId(0), VarId(0), i64::from(seq)),
            clock: VectorClock::from_components(vec![seq]),
        }
    }

    #[test]
    fn vec_sink_collects_and_drains() {
        let sink = VecSink::new();
        let mut writer = sink.clone();
        writer.emit(&msg(1));
        writer.emit(&msg(2));
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn channel_sink_forwards() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut sink = ChannelSink::new(tx);
        sink.emit(&msg(1));
        assert_eq!(rx.recv().unwrap(), msg(1));
    }

    #[test]
    fn channel_sink_survives_dropped_receiver() {
        let (tx, rx) = crossbeam::channel::unbounded();
        drop(rx);
        let mut sink = ChannelSink::new(tx);
        sink.emit(&msg(1)); // must not panic
    }

    /// Decodes a whole buffer: one push, then the fault accounting.
    fn decode(bytes: &[u8]) -> (Vec<Message>, crate::ResilientDecode) {
        let mut decoder = crate::ResilientFrameDecoder::new();
        let messages = decoder.push(bytes);
        (messages, decoder.finish())
    }

    /// Wire size of `messages` as [`crate::codec::encode_frame_v2`] frames.
    fn v2_len(messages: &[Message]) -> u64 {
        let mut buf = bytes::BytesMut::new();
        for m in messages {
            crate::codec::encode_frame_v2(m, &mut buf);
        }
        buf.len() as u64
    }

    #[test]
    fn frame_sink_round_trips() {
        let sink = FrameSink::new();
        let mut writer = sink.clone();
        writer.emit(&msg(1));
        writer.emit(&msg(2));
        let bytes = sink.take_bytes();
        assert_eq!(bytes.len() as u64, v2_len(&[msg(1), msg(2)]));
        let (decoded, tally) = decode(&bytes);
        assert_eq!(decoded, vec![msg(1), msg(2)]);
        assert!(tally.is_clean());
        assert!(sink.take_bytes().is_empty());
    }

    #[test]
    fn frame_sink_counts_frames_and_bytes_encoded() {
        let registry = jmpax_telemetry::Registry::enabled();
        let sink = FrameSink::builder().telemetry(&registry).build();
        let mut writer = sink.clone();
        writer.emit(&msg(1));
        writer.emit(&msg(2));
        let snapshot = registry.snapshot();
        // Telemetry counts the bytes the wire actually carries.
        let wire = sink.take_bytes().len() as u64;
        assert_eq!(wire, v2_len(&[msg(1), msg(2)]));
        assert_eq!(snapshot.counter("instrument.bytes_encoded"), Some(wire));
        assert_eq!(snapshot.counter("instrument.frames_encoded"), Some(2));
    }

    #[test]
    fn frame_sink_observability_traces_encode_spans() {
        let registry = jmpax_telemetry::Registry::disabled().traced();
        let sink = FrameSink::builder().telemetry(&registry).build();
        let mut writer = sink.clone();
        writer.emit(&msg(1));
        writer.emit(&msg(2));
        drop(writer);
        drop(sink); // last clone seals the wire lane
        let data = registry.tracer().collect();
        let wire = data.lanes.iter().find(|l| l.lane == "wire").unwrap();
        let spans = wire
            .events
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Stage { name: "encode" }))
            .count();
        let emitted = wire
            .events
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Emitted(_)))
            .count();
        assert_eq!((spans, emitted), (2, 2));
    }

    /// An untraced sink, even one counting frames, holds no lane: `emit`
    /// takes the buffer lock and nothing else.
    #[test]
    fn untraced_frame_sink_has_no_lane_lock() {
        let registry = jmpax_telemetry::Registry::enabled();
        for sink in [
            FrameSink::new(),
            FrameSink::builder().telemetry(&registry).build(),
        ] {
            assert!(sink.ring.is_none());
            sink.clone().emit(&msg(1));
            assert!(!sink.take_bytes().is_empty());
        }
        assert_eq!(
            registry.snapshot().counter("instrument.frames_encoded"),
            Some(1)
        );
    }

    #[test]
    fn chaos_sink_at_zero_rates_is_plain_v2() {
        let sink = ChaosSink::new(ChaosConfig::default());
        let mut writer = sink.clone();
        let mut reference = bytes::BytesMut::new();
        for i in 1..=20 {
            writer.emit(&msg(i));
            crate::codec::encode_frame_v2(&msg(i), &mut reference);
        }
        assert_eq!(&sink.take_bytes()[..], &reference[..]);
        let stats = sink.stats();
        assert_eq!(stats.emitted, 20);
        assert_eq!(
            (
                stats.dropped,
                stats.duplicated,
                stats.corrupted,
                stats.reordered
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn chaos_sink_is_deterministic_per_seed() {
        let config = ChaosConfig {
            seed: 7,
            drop_rate: 0.1,
            dup_rate: 0.1,
            corrupt_rate: 0.1,
            reorder_window: 4,
        };
        let run = || {
            let sink = ChaosSink::new(config);
            let mut writer = sink.clone();
            for i in 1..=100 {
                writer.emit(&msg(i));
            }
            (sink.take_bytes(), sink.stats())
        };
        let (a_bytes, a_stats) = run();
        let (b_bytes, b_stats) = run();
        assert_eq!(&a_bytes[..], &b_bytes[..]);
        assert_eq!(a_stats, b_stats);
        assert!(a_stats.dropped > 0 || a_stats.duplicated > 0 || a_stats.corrupted > 0);
    }

    #[test]
    fn chaos_sink_faults_are_recoverable() {
        let sink = ChaosSink::new(ChaosConfig {
            seed: 11,
            drop_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.25,
            reorder_window: 1,
        });
        let mut writer = sink.clone();
        for i in 1..=200 {
            writer.emit(&msg(i));
        }
        let stats = sink.stats();
        let (_, r) = decode(&sink.take_bytes());
        assert!(stats.corrupted > 20, "corrupted = {}", stats.corrupted);
        // Most flips land in the payload (CRC failure, one frame lost in
        // place); flips in a header can swallow a neighbour, so the
        // accounting is bounded rather than exact.
        assert!(
            r.frames_ok >= 200u64.saturating_sub(stats.corrupted * 2),
            "ok = {}, corrupted = {}",
            r.frames_ok,
            stats.corrupted
        );
        assert!(r.frames_corrupt + r.frames_resynced >= stats.corrupted / 2);
        assert!(r.frames_ok + r.frames_corrupt + r.frames_resynced <= 200);
    }

    #[test]
    fn chaos_session_seeds_are_distinct_and_stable() {
        let root = ChaosConfig {
            seed: 42,
            drop_rate: 0.2,
            dup_rate: 0.1,
            corrupt_rate: 0.1,
            reorder_window: 4,
        };
        // Derivation is pure: same root + session id, same child config.
        assert_eq!(root.for_session(3).seed, root.for_session(3).seed);
        // Distinct sessions get distinct seeds (and distinct fault runs).
        let mut seeds: Vec<u64> = (0..64).map(|s| root.for_session(s).seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "64 sessions must yield 64 seeds");
        // Fault rates carry over unchanged.
        let child = root.for_session(9);
        assert_eq!(child.drop_rate, root.drop_rate);
        assert_eq!(child.reorder_window, root.reorder_window);

        // A session replays byte-identically no matter which siblings ran.
        let run_session = |s: u64| {
            let sink = ChaosSink::new(root.for_session(s));
            let mut writer = sink.clone();
            for i in 1..=50 {
                writer.emit(&msg(i));
            }
            (sink.take_bytes(), sink.stats())
        };
        let (solo_bytes, solo_stats) = run_session(5);
        for other in [0, 1, 2] {
            let _ = run_session(other);
        }
        let (again_bytes, again_stats) = run_session(5);
        assert_eq!(&solo_bytes[..], &again_bytes[..]);
        assert_eq!(solo_stats, again_stats);
    }

    #[test]
    fn chaos_sink_reorders_within_window() {
        let sink = ChaosSink::new(ChaosConfig {
            seed: 3,
            drop_rate: 0.0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            reorder_window: 8,
        });
        let mut writer = sink.clone();
        for i in 1..=50 {
            writer.emit(&msg(i));
        }
        let (decoded, tally) = decode(&sink.take_bytes());
        assert!(tally.is_clean());
        assert_eq!(decoded.len(), 50);
        let in_order: Vec<Message> = (1..=50).map(msg).collect();
        assert_ne!(decoded, in_order, "window 8 must actually shuffle");
        let mut sorted = decoded.clone();
        sorted.sort_by_key(|m| m.clock.as_slice()[0]);
        assert_eq!(sorted, in_order, "every message survives, just shuffled");
        assert!(sink.stats().reordered > 0);
    }
}
