//! Per-tenant flight recorder: a fixed-size ring of recent frame
//! summaries and state transitions.
//!
//! Always on and bounded. While a tenant stays `Exact` the ring just
//! rotates; the moment a verdict leaves `Exact` the ring is dumped into
//! the ops log and the final report, so the *evidence* for the
//! degradation — what arrived, where the gaps were — ships with the verdict
//! without re-running anything. (This mirrors the paper's stance that
//! the observer must extract everything it needs online; cf. Theorem-3
//! reassembly keeping enough ordering evidence to stay sound.)

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default ring capacity (entries). Sized to hold a session's tail —
/// recent chunk summaries plus every transition and the gap records of a
/// moderately lossy stream — in a few KB per tenant.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// One recorded moment in a session's life.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A lifecycle state change (`accepted`, `handshake_ok`, `evicted`,
    /// `eof`, …).
    Transition {
        /// The state entered.
        state: String,
    },
    /// Summary of one ingested chunk: frames decoded from it and raw
    /// bytes consumed.
    Frames {
        /// Frames decoded.
        frames: u64,
        /// Bytes ingested.
        bytes: u64,
    },
    /// A sequence gap the reassembler skipped (Theorem-3 accounting).
    Gap {
        /// Thread whose stream had the hole.
        thread: u64,
        /// First missing sequence number.
        from: u32,
        /// Last missing sequence number.
        to: u32,
    },
}

/// A [`FlightKind`] plus its position in the session's event order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Monotone per-session sequence number (counts evicted entries too,
    /// so holes in `seq` reveal ring wraparound).
    pub seq: u64,
    /// What happened.
    pub kind: FlightKind,
}

impl FlightEntry {
    /// One-object JSON rendering, e.g.
    /// `{"seq":4,"kind":"gap","thread":2,"from":10,"to":12}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48);
        let _ = write!(out, "{{\"seq\":{}", self.seq);
        match &self.kind {
            FlightKind::Transition { state } => {
                out.push_str(",\"kind\":\"transition\",\"state\":");
                jmpax_telemetry::json::write_string(&mut out, state);
            }
            FlightKind::Frames { frames, bytes } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"frames\",\"frames\":{frames},\"bytes\":{bytes}"
                );
            }
            FlightKind::Gap { thread, from, to } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"gap\",\"thread\":{thread},\"from\":{from},\"to\":{to}"
                );
            }
        }
        out.push('}');
        out
    }
}

/// A dump of the ring at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Oldest-first surviving entries.
    pub entries: Vec<FlightEntry>,
    /// Entries evicted by wraparound before this dump — a non-zero value
    /// means the window is a suffix of the session, not the whole story.
    pub dropped: u64,
}

impl FlightDump {
    /// JSON rendering: `{"dropped":N,"entries":[…]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.entries.len() * 48);
        let _ = write!(out, "{{\"dropped\":{},\"entries\":[", self.dropped);
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Gap entries in the surviving window.
    #[must_use]
    pub fn gap_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.kind, FlightKind::Gap { .. }))
            .count()
    }
}

struct FlightInner {
    cap: usize,
    entries: VecDeque<FlightEntry>,
    seq: u64,
    dropped: u64,
}

/// The shared ring. Cloning shares storage; both halves of a session
/// push into one recorder.
#[derive(Clone)]
pub struct FlightRecorder(Arc<Mutex<FlightInner>>);

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.lock().unwrap_or_else(|e| e.into_inner());
        write!(
            f,
            "FlightRecorder({} entries, {} dropped)",
            inner.entries.len(),
            inner.dropped
        )
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A ring holding at most `cap` entries (minimum 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self(Arc::new(Mutex::new(FlightInner {
            cap: cap.max(1),
            entries: VecDeque::with_capacity(cap.clamp(1, 64)),
            seq: 0,
            dropped: 0,
        })))
    }

    fn push(&self, kind: FlightKind) {
        let mut inner = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if inner.entries.len() == inner.cap {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.entries.push_back(FlightEntry { seq, kind });
    }

    /// Records a lifecycle transition.
    pub fn transition(&self, state: &str) {
        self.push(FlightKind::Transition {
            state: state.to_string(),
        });
    }

    /// Records one ingested chunk's summary.
    pub fn frames(&self, frames: u64, bytes: u64) {
        self.push(FlightKind::Frames { frames, bytes });
    }

    /// Records a skipped sequence gap.
    pub fn gap(&self, thread: u64, from: u32, to: u32) {
        self.push(FlightKind::Gap { thread, from, to });
    }

    /// Copies the ring out, oldest first.
    #[must_use]
    pub fn dump(&self) -> FlightDump {
        let inner = self.0.lock().unwrap_or_else(|e| e.into_inner());
        FlightDump {
            entries: inner.entries.iter().cloned().collect(),
            dropped: inner.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        rec.transition("accepted");
        rec.frames(2, 100);
        rec.frames(3, 200);
        rec.gap(1, 5, 6);
        let dump = rec.dump();
        assert_eq!(dump.entries.len(), 3);
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.entries[0].seq, 1, "oldest surviving entry");
        assert_eq!(dump.entries[2].seq, 3);
        assert_eq!(dump.gap_count(), 1);
    }

    #[test]
    fn dump_renders_parseable_json() {
        let rec = FlightRecorder::new(8);
        rec.transition("handshake_ok");
        rec.frames(5, 4096);
        rec.gap(2, 10, 12);
        let text = rec.dump().to_json();
        let parsed = jmpax_telemetry::json::parse(&text).expect("dump must parse");
        assert_eq!(
            parsed
                .get("dropped")
                .and_then(jmpax_telemetry::json::Value::as_u64),
            Some(0)
        );
        let entries = parsed.get("entries").expect("entries array");
        assert_eq!(
            entries
                .index(0)
                .and_then(|e| e.get("state"))
                .and_then(jmpax_telemetry::json::Value::as_str),
            Some("handshake_ok")
        );
        assert_eq!(
            entries
                .index(2)
                .and_then(|e| e.get("from"))
                .and_then(jmpax_telemetry::json::Value::as_u64),
            Some(10)
        );
    }
}
