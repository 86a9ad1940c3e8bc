//! Messages `⟨e, i, V_i⟩` emitted to the observer, and Theorem 3.
//!
//! Algorithm A sends a message for every relevant event; the observer
//! recovers the relevant causal partial order `⊴` purely from the clocks:
//!
//! > **Theorem 3.** If `⟨e, i, V⟩` and `⟨e', i', V'⟩` are two messages sent
//! > by A, then `e ⊴ e'` iff `V[i] ≤ V'[i]` (the second `i` is not an `i'`)
//! > iff `V < V'`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::VectorClock;
use crate::event::{Event, ThreadId, Value, VarId};

/// A message `⟨e, i, V_i⟩` sent by Algorithm A to the external observer.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Message {
    /// The relevant event `e`.
    pub event: Event,
    /// The MVC of the generating thread *after* processing `e`.
    pub clock: VectorClock,
}

impl Message {
    /// The generating thread `i`.
    #[must_use]
    pub fn thread(&self) -> ThreadId {
        self.event.thread
    }

    /// The per-thread sequence number of this message: `V[i]`, i.e. how many
    /// relevant events thread `i` has generated up to and including this one
    /// (requirement (a) of Algorithm A).
    #[must_use]
    pub fn seq(&self) -> u32 {
        self.clock.get(self.thread())
    }

    /// The variable updated, when the event is a variable access.
    #[must_use]
    pub fn var(&self) -> Option<VarId> {
        self.event.var()
    }

    /// The value written, when the event is a write.
    #[must_use]
    pub fn written_value(&self) -> Option<Value> {
        match self.event.kind {
            crate::event::EventKind::Write { value, .. } => Some(value),
            _ => None,
        }
    }

    /// `self ⊴ other` (strictly): Theorem 3, first characterization —
    /// `V[i] ≤ V'[i]` with the convention that a message never precedes
    /// itself and same-thread messages are ordered by sequence number.
    #[must_use]
    pub fn causally_precedes(&self, other: &Message) -> bool {
        if self.thread() == other.thread() {
            return self.seq() < other.seq();
        }
        self.clock.get(self.thread()) <= other.clock.get(self.thread())
    }

    /// `self ⊴ other` via the second characterization of Theorem 3:
    /// `V < V'`. Theorem 3 proves this is equivalent to
    /// [`Message::causally_precedes`]; the cheaper single-component test is
    /// preferred in hot paths, this form exists for cross-checks.
    #[must_use]
    pub fn causally_precedes_by_clock(&self, other: &Message) -> bool {
        self.clock.lt(&other.clock)
    }

    /// Two messages are causally independent (`e ∥ e'`): neither precedes
    /// the other, so the observer may permute them.
    #[must_use]
    pub fn concurrent_with(&self, other: &Message) -> bool {
        !self.causally_precedes(other) && !other.causally_precedes(self)
    }

    /// Flattens this message into the trace layer's crate-agnostic
    /// [`jmpax_telemetry::trace::MsgRef`]: thread index, sequence number,
    /// full clock, and the write payload when present.
    #[must_use]
    pub fn trace_ref(&self) -> jmpax_telemetry::trace::MsgRef {
        jmpax_telemetry::trace::MsgRef {
            thread: self.thread().0,
            seq: self.seq(),
            clock: self.clock.as_slice().to_vec(),
            var: self.var().map(|v| v.0),
            value: self.written_value().map(Value::as_int),
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}, {}>", self.event, self.thread(), self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn msg(thread: u32, clock: &[u32]) -> Message {
        Message {
            event: Event::write(ThreadId(thread), VarId(0), 1),
            clock: VectorClock::from_components(clock.to_vec()),
        }
    }

    #[test]
    fn same_thread_ordered_by_seq() {
        let a = msg(0, &[1, 0]);
        let b = msg(0, &[2, 3]);
        assert!(a.causally_precedes(&b));
        assert!(!b.causally_precedes(&a));
        assert!(!a.causally_precedes(&a));
    }

    #[test]
    fn cross_thread_uses_senders_component() {
        // Paper Fig. 6: e1:<x=0,T1,(1,0)> precedes e2:<z=1,T2,(1,1)>.
        let e1 = msg(0, &[1, 0]);
        let e2 = msg(1, &[1, 1]);
        assert!(e1.causally_precedes(&e2));
        assert!(!e2.causally_precedes(&e1));
    }

    #[test]
    fn concurrent_messages() {
        // Paper Fig. 6: e3:<y=1,T1,(2,0)> is concurrent with e2:<z=1,T2,(1,1)>.
        let e3 = msg(0, &[2, 0]);
        let e2 = msg(1, &[1, 1]);
        assert!(e3.concurrent_with(&e2));
        assert!(e2.concurrent_with(&e3));
    }

    #[test]
    fn both_characterizations_agree_on_paper_example() {
        // All four messages of Fig. 6.
        let e1 = msg(0, &[1, 0]);
        let e2 = msg(1, &[1, 1]);
        let e3 = msg(0, &[2, 0]);
        let e4 = msg(1, &[1, 2]);
        let all = [&e1, &e2, &e3, &e4];
        for a in all {
            for b in all {
                if std::ptr::eq(a, b) {
                    continue;
                }
                assert_eq!(
                    a.causally_precedes(b),
                    a.causally_precedes_by_clock(b),
                    "{a} vs {b}"
                );
            }
        }
        // Expected order: e1 < e2, e1 < e3, e1 < e4, e2 < e4; e3 || e2, e3 || e4.
        assert!(e1.causally_precedes(&e2));
        assert!(e1.causally_precedes(&e3));
        assert!(e1.causally_precedes(&e4));
        assert!(e2.causally_precedes(&e4));
        assert!(e3.concurrent_with(&e2));
        assert!(e3.concurrent_with(&e4));
    }

    #[test]
    fn seq_is_own_component() {
        assert_eq!(msg(1, &[5, 3]).seq(), 3);
    }

    #[test]
    fn display_matches_paper_style() {
        let m = msg(0, &[1, 0]);
        assert_eq!(m.to_string(), "<T1:write(v0=1), T1, (1,0)>");
    }
}
