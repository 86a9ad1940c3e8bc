//! Causal tracing: the individual occurrences behind the metrics.
//!
//! Where the crate's metrics aggregate *counts*, this module records
//! *individual occurrences*: each instrumented event processed by
//! Algorithm A, each `⟨e,i,V_i⟩` message emitted onto or ingested from the
//! wire, each lattice level sealed, each cut pruned, each property
//! evaluation — timestamped against one shared epoch and annotated with
//! enough vector-clock context to reconstruct the causal partial order of
//! Theorem 3 offline.
//!
//! # Architecture
//!
//! A [`Tracer`] owns the epoch and a collector; [`Tracer::ring`] hands out
//! [`TraceRing`]s — single-owner bounded ring buffers. Because every ring
//! is exclusively owned by the thread (or pipeline stage) that writes it,
//! the hot path performs **zero synchronization**: a record is a bounds
//! check and a `Vec` slot write. Rings flush into the tracer's collector
//! when sealed (explicitly or on drop), which is the only place a lock is
//! taken. A disabled tracer (the default) hands out inert rings that never
//! read the clock and never allocate, mirroring the metrics' disabled-path
//! cost model.
//!
//! Instrumented components do not take a tracer of their own: they open
//! their lanes from the [`crate::Registry`] they report metrics into
//! ([`crate::Registry::tracer`]), which traces only when built with
//! [`crate::Registry::traced`]. Spans are timed by a [`crate::Stage`],
//! which feeds a histogram and a lane from the same two clock readings.
//!
//! # Exports
//!
//! [`Tracer::collect`] freezes everything into a [`TraceData`], which
//! renders as:
//!
//! - [`crate::chrome::to_chrome_json`] — Chrome trace-event / Perfetto
//!   JSON, with happens-before edges as flow events (`ph:"s"`/`ph:"f"`),
//! - [`crate::dot::to_causal_dot`] — the causal DAG in Graphviz DOT,
//! - [`crate::profile::lattice_profile`] — per-level width / occupancy /
//!   prune counts / wall-time.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::nanos;

/// Default per-ring capacity: plenty for every bundled workload while
/// bounding memory to a few MiB per lane on adversarial runs.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A reference to one instrumentation message `⟨e,i,V_i⟩`, flattened to
/// plain integers so the trace layer depends on no pipeline crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgRef {
    /// Zero-based index of the emitting thread (`i` in the paper).
    pub thread: u32,
    /// Sequence number on that thread: `V_i[i]` of the carried clock.
    pub seq: u32,
    /// The full multithreaded vector clock `V_i` carried by the message.
    pub clock: Vec<u32>,
    /// The shared variable written, if the event was a write.
    pub var: Option<u32>,
    /// The integer view of the value written, if any.
    pub value: Option<i64>,
}

impl MsgRef {
    /// Theorem 3: the event behind `self` causally precedes the event
    /// behind `other` iff `self`'s own clock component is `<=` the same
    /// component of `other`'s clock.
    #[must_use]
    pub fn causally_precedes(&self, other: &MsgRef) -> bool {
        let i = self.thread as usize;
        let own = self.clock.get(i).copied().unwrap_or(0);
        let theirs = other.clock.get(i).copied().unwrap_or(0);
        own <= theirs && !(self.thread == other.thread && self.seq == other.seq)
    }
}

/// What happened, per record. Span-like kinds carry their duration in the
/// enclosing [`TraceRecord`]; the rest are instants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Algorithm A processed one instrumented event (span).
    Processed {
        /// Zero-based thread index of the event.
        thread: u32,
        /// Whether the event was relevant (emitted a message).
        relevant: bool,
    },
    /// A message was emitted onto the wire (instant).
    Emitted(MsgRef),
    /// A message was ingested by the observer (instant).
    Ingested(MsgRef),
    /// The streaming analyzer sealed one lattice level (span).
    LevelSealed {
        /// Level index `r` (sum of clock entries).
        level: u64,
        /// Cuts alive in the frontier when the level sealed.
        width: u64,
        /// New states constructed while building this level.
        states: u64,
        /// Cuts discarded by beam pruning at this level.
        pruned: u64,
        /// Monitor steps (property evaluations) at this level.
        evals: u64,
        /// Property violations found at this level.
        violations: u64,
    },
    /// Beam pruning discarded `count` cuts at `level` (instant).
    CutPruned {
        /// Level index the pruning happened at.
        level: u64,
        /// Number of cuts discarded.
        count: u64,
    },
    /// The monitor evaluated the property on one cut (instant).
    PropertyEvaluated {
        /// Level index of the evaluated cut.
        level: u64,
        /// Whether the property was violated on that cut.
        violated: bool,
    },
    /// A named observer pipeline stage ran (span).
    Stage {
        /// Stage name, e.g. `"instrument"`, `"jpax"`, `"analysis"`.
        name: &'static str,
    },
    /// A pluggable analysis reported a finding — a data race, an
    /// atomicity violation (instant). Recorded on the analysis's own lane
    /// (`analysis.<name>`).
    Finding {
        /// The reporting analysis's stable name (`"race"`, `"atomicity"`).
        analysis: &'static str,
        /// The variable the finding is about, when it has one.
        var: Option<u32>,
    },
    /// The reassembler gave up on a sequence gap (instant).
    GapSkipped {
        /// Thread whose stream had the gap.
        thread: u32,
        /// First missing sequence number.
        from: u32,
        /// Last missing sequence number.
        to: u32,
    },
}

/// One timestamped trace record. `ts_ns` is nanoseconds since the
/// [`Tracer`]'s epoch; `dur_ns` is nonzero only for span-like kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Start time, nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// One lane's worth of sealed records.
#[derive(Clone, Debug, Default)]
pub struct LaneData {
    /// Lane name, e.g. `"T1"` or `"observer"`.
    pub lane: String,
    /// Records in timestamp order.
    pub events: Vec<TraceRecord>,
    /// Records overwritten because the ring was full.
    pub dropped: u64,
}

/// Everything a tracer collected, ready for export.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// All lanes, sorted by lane name.
    pub lanes: Vec<LaneData>,
}

impl TraceData {
    /// Total records across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// True when no lane holds any record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All message references of the given shape, in timestamp order.
    /// `ingested` selects [`TraceKind::Ingested`] records; otherwise
    /// [`TraceKind::Emitted`].
    #[must_use]
    pub fn messages(&self, ingested: bool) -> Vec<&MsgRef> {
        let mut with_ts: Vec<(u64, &MsgRef)> = self
            .lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .filter_map(|r| match (&r.kind, ingested) {
                (TraceKind::Ingested(m), true) | (TraceKind::Emitted(m), false) => {
                    Some((r.ts_ns, m))
                }
                _ => None,
            })
            .collect();
        with_ts.sort_by_key(|(ts, _)| *ts);
        with_ts.into_iter().map(|(_, m)| m).collect()
    }

    /// The message set to derive causality from: ingested messages when
    /// any exist (the observer's view), else emitted ones.
    #[must_use]
    pub fn causal_messages(&self) -> Vec<&MsgRef> {
        let ingested = self.messages(true);
        if ingested.is_empty() {
            self.messages(false)
        } else {
            ingested
        }
    }
}

/// One happens-before edge between two messages, by `(thread, seq)` key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CausalEdge {
    /// `(thread, seq)` of the earlier message.
    pub from: (u32, u32),
    /// `(thread, seq)` of the later message.
    pub to: (u32, u32),
}

/// Derives the immediate happens-before edges among `messages` from their
/// vector clocks alone.
///
/// For a message `m' = ⟨e', i, V'⟩` the causal past visible in `V'` is:
/// the same-thread predecessor `(i, V'[i]-1)`, plus for every other
/// thread `j` the latest message `(j, V'[j])` when `V'[j] > 0`. Every
/// edge produced this way satisfies Theorem 3 by construction
/// (`V[j] ≤ V'[j]` componentwise on the sender's own entry), so the
/// exported flow events are sound causal edges; an automated test
/// re-checks the inequality on the rendered JSON.
#[must_use]
pub fn causal_edges(messages: &[&MsgRef]) -> Vec<CausalEdge> {
    use std::collections::BTreeSet;
    let present: BTreeSet<(u32, u32)> = messages.iter().map(|m| (m.thread, m.seq)).collect();
    let mut edges = Vec::new();
    for m in messages {
        let to = (m.thread, m.seq);
        if m.seq > 1 && present.contains(&(m.thread, m.seq - 1)) {
            edges.push(CausalEdge {
                from: (m.thread, m.seq - 1),
                to,
            });
        }
        for (j, &vj) in m.clock.iter().enumerate() {
            let j = u32::try_from(j).unwrap_or(u32::MAX);
            if j != m.thread && vj > 0 && present.contains(&(j, vj)) {
                edges.push(CausalEdge { from: (j, vj), to });
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    sealed: Mutex<Vec<LaneData>>,
}

/// Hands out [`TraceRing`]s and collects what they record.
///
/// Cloning shares the collector and epoch. The `Default` tracer is
/// disabled and free.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    /// A live tracer with the default per-ring capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A live tracer whose rings hold at most `capacity` records each,
    /// dropping the oldest beyond that.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                sealed: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer whose rings are all no-ops; allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when records are being collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh ring recording into lane `lane`. Multiple rings may share a
    /// lane name; their records are merged at collection time.
    #[must_use]
    pub fn ring(&self, lane: &str) -> TraceRing {
        TraceRing {
            inner: self.inner.as_ref().map(|t| RingInner {
                tracer: Arc::clone(t),
                lane: lane.to_string(),
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Freezes everything sealed so far into a [`TraceData`], merging
    /// lanes with the same name and sorting records by timestamp. Rings
    /// still alive are *not* included — seal or drop them first.
    #[must_use]
    pub fn collect(&self) -> TraceData {
        let Some(inner) = &self.inner else {
            return TraceData::default();
        };
        let sealed = inner.sealed.lock().unwrap_or_else(|e| e.into_inner());
        let mut by_lane: std::collections::BTreeMap<String, LaneData> =
            std::collections::BTreeMap::new();
        for lane in sealed.iter() {
            let entry = by_lane
                .entry(lane.lane.clone())
                .or_insert_with(|| LaneData {
                    lane: lane.lane.clone(),
                    ..LaneData::default()
                });
            entry.events.extend(lane.events.iter().cloned());
            entry.dropped += lane.dropped;
        }
        let mut lanes: Vec<LaneData> = by_lane.into_values().collect();
        for lane in &mut lanes {
            lane.events.sort_by_key(|r| r.ts_ns);
        }
        TraceData { lanes }
    }
}

struct RingInner {
    tracer: Arc<TracerInner>,
    lane: String,
    /// Bounded buffer: grows to `tracer.capacity`, then wraps at `head`.
    events: Vec<TraceRecord>,
    head: usize,
    dropped: u64,
}

/// A single-owner bounded ring buffer of [`TraceRecord`]s.
///
/// Not `Sync` and never shared: the owning thread writes with no atomics
/// and no locks. When full, the oldest record is overwritten and counted
/// in `dropped`. Sealing (explicit [`TraceRing::seal`] or drop) flushes
/// the buffered records into the tracer's collector under its lock — the
/// only synchronization in the lifecycle.
#[derive(Default)]
pub struct TraceRing {
    inner: Option<RingInner>,
}

impl Clone for TraceRing {
    /// Cloning yields a *fresh empty ring* on the same lane — ring
    /// contents are single-owner and never shared. This keeps
    /// `#[derive(Clone)]` on structs that embed a ring meaningful: the
    /// clone traces to the same destination without aliasing the buffer.
    fn clone(&self) -> Self {
        self.inner
            .as_ref()
            .map_or_else(TraceRing::disabled, |r| self.lane(&r.lane))
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(r) => write!(f, "TraceRing({:?}, {} buffered)", r.lane, r.events.len()),
            None => write!(f, "TraceRing(disabled)"),
        }
    }
}

impl TraceRing {
    /// A no-op ring, identical to those a disabled tracer hands out.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when this ring records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh ring on lane `lane` of the same tracer; disabled when this
    /// ring is.
    #[must_use]
    pub fn lane(&self, lane: &str) -> TraceRing {
        match &self.inner {
            Some(r) => Tracer {
                inner: Some(Arc::clone(&r.tracer)),
            }
            .ring(lane),
            None => TraceRing { inner: None },
        }
    }

    /// Records an instant.
    pub fn record(&mut self, kind: TraceKind) {
        if let Some(r) = &mut self.inner {
            let ts_ns = nanos(r.tracer.epoch.elapsed());
            Self::push(
                r,
                TraceRecord {
                    ts_ns,
                    dur_ns: 0,
                    kind,
                },
            );
        }
    }

    /// Records a span that began at `start` and lasted `dur_ns` — the
    /// lane half of [`crate::Stage::end`].
    pub(crate) fn record_stage(&mut self, kind: TraceKind, start: Instant, dur_ns: u64) {
        if let Some(r) = &mut self.inner {
            let ts_ns = nanos(start.saturating_duration_since(r.tracer.epoch));
            Self::push(
                r,
                TraceRecord {
                    ts_ns,
                    dur_ns,
                    kind,
                },
            );
        }
    }

    fn push(r: &mut RingInner, record: TraceRecord) {
        if r.events.len() < r.tracer.capacity {
            r.events.push(record);
        } else {
            // Full: overwrite the oldest slot and advance the wrap point.
            r.events[r.head] = record;
            r.head = (r.head + 1) % r.events.len();
            r.dropped += 1;
        }
    }

    /// Number of records currently buffered (before sealing).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.events.len())
    }

    /// Records dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.dropped)
    }

    /// Flushes buffered records into the tracer's collector and leaves the
    /// ring disabled. Dropping an unsealed ring seals it implicitly.
    pub fn seal(&mut self) {
        if let Some(mut r) = self.inner.take() {
            // Unwrap the ring: oldest records first.
            let mut events = r.events.split_off(r.head);
            events.append(&mut r.events);
            if events.is_empty() && r.dropped == 0 {
                return;
            }
            let lane = LaneData {
                lane: r.lane,
                events,
                dropped: r.dropped,
            };
            r.tracer
                .sealed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(lane);
        }
    }
}

impl Drop for TraceRing {
    fn drop(&mut self) {
        self.seal();
    }
}
