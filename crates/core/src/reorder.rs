//! Causal reordering buffer.
//!
//! Section 4: "The observer therefore receives messages of the form
//! `⟨e, i, V⟩` *in any order*, and, thanks to Theorem 3, can extract the
//! causal partial order `⊴` on relevant events." In a deployment the
//! instrumented program may use multiple channels to reduce monitoring
//! overhead, so messages can arrive permuted. [`CausalBuffer`] accepts
//! messages in arbitrary order and releases them in a *causal delivery
//! order*: a message from thread `i` with clock `V` is deliverable once
//!
//! * exactly `V[i] − 1` messages from thread `i` have been delivered, and
//! * at least `V[j]` messages from every other thread `j` have been
//!   delivered (those are exactly the relevant events of `t_j` that causally
//!   precede it — requirement (a) of Algorithm A).

use crate::event::ThreadId;
use crate::message::Message;

/// Buffers out-of-order messages and delivers them causally.
///
/// ```
/// use jmpax_core::{CausalBuffer, Event, MvcInstrumentor, Relevance, ThreadId, VarId};
///
/// let mut instr = MvcInstrumentor::new(2, Relevance::AllWrites);
/// let m1 = instr.process(&Event::write(ThreadId(0), VarId(0), 1)).unwrap();
/// let m2 = instr.process(&Event::write(ThreadId(1), VarId(0), 2)).unwrap();
///
/// // Deliver the effect before its cause: the buffer holds it back.
/// let mut buffer = CausalBuffer::new();
/// assert!(buffer.push(m2.clone()).is_empty());
/// assert_eq!(buffer.push(m1.clone()), vec![m1, m2]);
/// assert!(buffer.is_drained());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CausalBuffer {
    /// Messages delivered so far, per thread.
    delivered: Vec<u32>,
    /// Messages waiting for their causal predecessors.
    pending: Vec<Message>,
    /// High-water mark of `pending.len()`, for instrumentation.
    max_pending: usize,
}

impl CausalBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn delivered_count(&self, t: ThreadId) -> u32 {
        self.delivered.get(t.index()).copied().unwrap_or(0)
    }

    fn mark_delivered(&mut self, t: ThreadId) {
        if self.delivered.len() <= t.index() {
            self.delivered.resize(t.index() + 1, 0);
        }
        self.delivered[t.index()] += 1;
    }

    fn is_deliverable(&self, m: &Message) -> bool {
        let t = m.thread();
        if m.seq() != self.delivered_count(t) + 1 {
            return false;
        }
        m.clock
            .iter()
            .all(|(j, v)| j == t || self.delivered_count(j) >= v)
    }

    /// Offers a message; returns every message that became deliverable
    /// (in a causally consistent order), possibly including this one.
    pub fn push(&mut self, message: Message) -> Vec<Message> {
        self.pending.push(message);
        self.max_pending = self.max_pending.max(self.pending.len());
        let mut out = Vec::new();
        while let Some(pos) = self.pending.iter().position(|m| self.is_deliverable(m)) {
            let m = self.pending.swap_remove(pos);
            self.mark_delivered(m.thread());
            out.push(m);
        }
        out
    }

    /// Offers many messages, returning all deliveries in causal order.
    pub fn push_all(&mut self, messages: impl IntoIterator<Item = Message>) -> Vec<Message> {
        let mut out = Vec::new();
        for m in messages {
            out.extend(self.push(m));
        }
        out
    }

    /// Messages still waiting for predecessors.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// The maximum number of simultaneously buffered messages observed.
    #[must_use]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Total messages delivered so far.
    #[must_use]
    pub fn total_delivered(&self) -> u64 {
        self.delivered.iter().map(|&c| u64::from(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::MvcInstrumentor;
    use crate::event::{Event, VarId};
    use crate::relevance::Relevance;

    const X: VarId = VarId(0);

    /// Build a causally chained set of messages: T1 w(x), T2 w(x), T3 w(x).
    fn chained() -> Vec<Message> {
        let mut a = MvcInstrumentor::new(3, Relevance::AllWrites);
        (0..3)
            .map(|t| a.process(&Event::write(ThreadId(t), X, t as i64)).unwrap())
            .collect()
    }

    #[test]
    fn in_order_passthrough() {
        let msgs = chained();
        let mut buf = CausalBuffer::new();
        let out = buf.push_all(msgs.clone());
        assert_eq!(out, msgs);
        assert!(buf.is_drained());
        assert_eq!(buf.total_delivered(), 3);
    }

    #[test]
    fn reversed_order_is_repaired() {
        let msgs = chained();
        let mut buf = CausalBuffer::new();
        let mut rev = msgs.clone();
        rev.reverse();
        let out = buf.push_all(rev);
        assert_eq!(out, msgs);
        assert!(buf.is_drained());
        assert!(buf.max_pending() >= 2);
    }

    #[test]
    fn delivery_respects_causality_for_every_permutation() {
        // 4 messages with a diamond causal structure (paper Fig. 6).
        let mut a = MvcInstrumentor::new(2, Relevance::AllWrites);
        let t1 = ThreadId(0);
        let t2 = ThreadId(1);
        let y = VarId(1);
        let z = VarId(2);
        let mut msgs = Vec::new();
        a.process(&Event::read(t1, X));
        msgs.push(a.process(&Event::write(t1, X, 0)).unwrap());
        a.process(&Event::read(t2, X));
        msgs.push(a.process(&Event::write(t2, z, 1)).unwrap());
        a.process(&Event::read(t1, X));
        msgs.push(a.process(&Event::write(t1, y, 1)).unwrap());
        a.process(&Event::read(t2, X));
        msgs.push(a.process(&Event::write(t2, X, 1)).unwrap());

        // All 24 permutations deliver all 4 messages, causally.
        let perms = permutations(4);
        for perm in perms {
            let mut buf = CausalBuffer::new();
            let mut out = Vec::new();
            for &i in &perm {
                out.extend(buf.push(msgs[i].clone()));
            }
            assert_eq!(out.len(), 4, "perm {perm:?} lost messages");
            assert!(buf.is_drained());
            for i in 0..4 {
                for j in (i + 1)..4 {
                    assert!(
                        !out[j].causally_precedes(&out[i]),
                        "perm {perm:?}: delivered {} before its cause {}",
                        out[i],
                        out[j],
                    );
                }
            }
        }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut result = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        heap_permute(&mut items, n, &mut result);
        result
    }

    fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap_permute(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }

    #[test]
    fn concurrent_messages_deliverable_immediately() {
        let mut a = MvcInstrumentor::new(2, Relevance::AllWrites);
        let m1 = a.process(&Event::write(ThreadId(0), X, 1)).unwrap();
        let m2 = a.process(&Event::write(ThreadId(1), VarId(1), 2)).unwrap();
        assert!(m1.concurrent_with(&m2));
        let mut buf = CausalBuffer::new();
        assert_eq!(buf.push(m2.clone()), vec![m2]);
        assert_eq!(buf.push(m1.clone()), vec![m1]);
    }

    #[test]
    fn missing_predecessor_blocks() {
        let msgs = chained();
        let mut buf = CausalBuffer::new();
        assert!(buf.push(msgs[2].clone()).is_empty());
        assert!(buf.push(msgs[1].clone()).is_empty());
        assert_eq!(buf.pending_len(), 2);
        let out = buf.push(msgs[0].clone());
        assert_eq!(out, msgs);
    }
}
