//! Validated input to lattice construction: the observer's view of one
//! multithreaded computation.

use std::fmt;

use serde::{Deserialize, Serialize};

use jmpax_core::{Message, ThreadId};
use jmpax_spec::ProgramState;

use crate::cut::Cut;

/// Errors detected while assembling lattice input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InputError {
    /// Thread `thread` is missing the message with sequence number `expected`
    /// (per-thread sequences must be the contiguous range `1..=len`).
    MissingSequence {
        /// The thread with the gap.
        thread: ThreadId,
        /// The first missing sequence number.
        expected: u32,
        /// The sequence number actually found at that position.
        found: u32,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::MissingSequence {
                thread,
                expected,
                found,
            } => write!(
                f,
                "{thread}: expected message seq {expected}, found {found} (gap in stream?)"
            ),
        }
    }
}

impl std::error::Error for InputError {}

/// Per-thread relevant-message sequences plus the initial global state.
/// A relevant message that is not a write (exotic relevance policies)
/// leaves the state as it is: its lattice edge is a stutter step.
///
/// Construction sorts the messages by `(thread, V[i])` and validates that
/// each thread's sequence numbers form the contiguous range `1..=len` —
/// which they do by construction of Algorithm A once the reassembler has
/// delivered everything.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatticeInput {
    per_thread: Vec<Vec<Message>>,
    initial: ProgramState,
}

impl LatticeInput {
    /// Builds and validates input from a bag of messages (any order).
    pub fn from_messages(
        messages: impl IntoIterator<Item = Message>,
        initial: ProgramState,
    ) -> Result<Self, InputError> {
        let mut per_thread: Vec<Vec<Message>> = Vec::new();
        for m in messages {
            let t = m.thread().index();
            if per_thread.len() <= t {
                per_thread.resize_with(t + 1, Vec::new);
            }
            per_thread[t].push(m);
        }
        for (t, msgs) in per_thread.iter_mut().enumerate() {
            msgs.sort_by_key(Message::seq);
            for (i, m) in msgs.iter().enumerate() {
                if m.seq() != i as u32 + 1 {
                    return Err(InputError::MissingSequence {
                        thread: ThreadId(t as u32),
                        expected: i as u32 + 1,
                        found: m.seq(),
                    });
                }
            }
        }
        Ok(Self {
            per_thread,
            initial,
        })
    }

    /// Number of threads (including threads that emitted nothing).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Total relevant events across all threads (the lattice height).
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }

    /// Messages of one thread, in sequence order.
    #[must_use]
    pub fn thread_messages(&self, t: ThreadId) -> &[Message] {
        self.per_thread.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// The initial global state.
    #[must_use]
    pub fn initial(&self) -> &ProgramState {
        &self.initial
    }

    /// The message consumed when advancing `cut` on thread `t`, if any.
    #[must_use]
    pub fn next_message(&self, cut: &Cut, t: ThreadId) -> Option<&Message> {
        self.per_thread.get(t.index())?.get(cut.get(t) as usize)
    }

    /// Whether advancing `cut` on thread `t` stays consistent: the next
    /// message's MVC must be covered by the advanced cut (`V[j] ≤ c'[j]`).
    /// Returns the message when the advance is enabled.
    #[must_use]
    pub fn enabled(&self, cut: &Cut, t: ThreadId) -> Option<&Message> {
        let m = self.next_message(cut, t)?;
        let consistent = m.clock.iter().all(|(j, v)| {
            if j == t {
                v == cut.get(t) + 1
            } else {
                v <= cut.get(j)
            }
        });
        consistent.then_some(m)
    }

    /// The top cut (everything consumed).
    #[must_use]
    pub fn top(&self) -> Cut {
        Cut::from_counts(
            self.per_thread
                .iter()
                .map(|v| v.len() as u32)
                .collect::<Vec<_>>(),
        )
    }

    /// The global state reached by applying, for each variable, the
    /// causally-latest write inside `cut`. Because writes of one variable
    /// are totally ordered by `≺`, this is well defined; we exploit that a
    /// cut's state equals the initial state overwritten by every in-cut
    /// write *in any causally consistent order*, applying same-variable
    /// writes in causal order.
    #[must_use]
    pub fn state_at(&self, cut: &Cut) -> ProgramState {
        let mut state = self.initial.clone();
        // For each variable, the latest write within the cut is the one with
        // the largest clock among in-cut writes of that variable (they are
        // totally ordered). Collect and apply.
        let mut latest: std::collections::BTreeMap<jmpax_core::VarId, &Message> =
            std::collections::BTreeMap::new();
        for (t, msgs) in self.per_thread.iter().enumerate() {
            let take = cut.get(ThreadId(t as u32)) as usize;
            for m in &msgs[..take.min(msgs.len())] {
                // Only writes set values; a relevant read changes nothing.
                let (Some(var), Some(_)) = (m.var(), m.written_value()) else {
                    continue;
                };
                match latest.entry(var) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(m);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if e.get().causally_precedes(m) {
                            e.insert(m);
                        }
                    }
                }
            }
        }
        for (var, m) in latest {
            if let Some(v) = m.written_value() {
                state.set(var, v);
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, Value, VarId};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);

    fn fig6_messages() -> Vec<Message> {
        // Example 2 of the paper (see algorithm.rs tests).
        let z = VarId(2);
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([X, Y, z]));
        let mut out = Vec::new();
        a.process(&Event::read(T1, X));
        out.extend(a.process(&Event::write(T1, X, 0)));
        a.process(&Event::read(T2, X));
        out.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, X));
        out.extend(a.process(&Event::write(T1, Y, 1)));
        a.process(&Event::read(T2, X));
        out.extend(a.process(&Event::write(T2, X, 1)));
        out
    }

    fn fig6_initial() -> ProgramState {
        let mut s = ProgramState::new();
        s.set(X, -1);
        s.set(Y, 0);
        s.set(VarId(2), 0);
        s
    }

    #[test]
    fn grouping_and_validation() {
        let input = LatticeInput::from_messages(fig6_messages(), fig6_initial()).unwrap();
        assert_eq!(input.threads(), 2);
        assert_eq!(input.total_events(), 4);
        assert_eq!(input.thread_messages(T1).len(), 2);
        assert_eq!(input.thread_messages(T2).len(), 2);
        assert_eq!(input.top().as_slice(), &[2, 2]);
    }

    #[test]
    fn out_of_order_messages_are_sorted() {
        let mut msgs = fig6_messages();
        msgs.reverse();
        let input = LatticeInput::from_messages(msgs, fig6_initial()).unwrap();
        assert_eq!(input.thread_messages(T1)[0].seq(), 1);
        assert_eq!(input.thread_messages(T1)[1].seq(), 2);
    }

    #[test]
    fn gap_detected() {
        let msgs = fig6_messages();
        // Drop T1's first message (seq 1), keep seq 2.
        let broken: Vec<_> = msgs
            .iter()
            .filter(|m| !(m.thread() == T1 && m.seq() == 1))
            .cloned()
            .collect();
        let err = LatticeInput::from_messages(broken, fig6_initial()).unwrap_err();
        assert_eq!(
            err,
            InputError::MissingSequence {
                thread: T1,
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn non_writes_are_stutter_steps() {
        // An exotic relevance policy: reads are relevant too. A read cannot
        // update the state, so the lattice steps over it, as the streaming
        // analyzer does.
        let mut a = MvcInstrumentor::new(1, Relevance::accesses_of([X]));
        let mut msgs = Vec::new();
        msgs.extend(a.process(&Event::write(T1, X, 1)));
        msgs.extend(a.process(&Event::read(T1, X)));
        let input = LatticeInput::from_messages(msgs, ProgramState::new()).unwrap();
        assert_eq!(input.total_events(), 2);
        let lattice = crate::Lattice::build(input.clone());
        assert_eq!(lattice.node_count(), 3);
        let top = input.top();
        assert_eq!(
            input.state_at(&top),
            input.state_at(&Cut::from_counts(vec![1]))
        );
        assert_eq!(input.state_at(&top).get(X), Value::Int(1));
    }

    #[test]
    fn enabledness_respects_causality() {
        let input = LatticeInput::from_messages(fig6_messages(), fig6_initial()).unwrap();
        let bottom = Cut::bottom(2);
        // From S0,0 only e1 (T1's x=0) is enabled: e2 needs V=(1,1) ≤ c'.
        assert!(input.enabled(&bottom, T1).is_some());
        assert!(input.enabled(&bottom, T2).is_none());
        // After e1, both e2 and e3 are enabled.
        let s10 = bottom.advanced(T1);
        assert!(input.enabled(&s10, T1).is_some());
        assert!(input.enabled(&s10, T2).is_some());
        // From the top nothing is enabled.
        assert!(input.enabled(&input.top(), T1).is_none());
        assert!(input.enabled(&input.top(), T2).is_none());
    }

    #[test]
    fn states_match_fig6() {
        let input = LatticeInput::from_messages(fig6_messages(), fig6_initial()).unwrap();
        let z = VarId(2);
        let check = |counts: &[u32], x: i64, y: i64, zz: i64| {
            let s = input.state_at(&Cut::from_counts(counts.to_vec()));
            assert_eq!(s.get(X), Value::Int(x), "x at {counts:?}");
            assert_eq!(s.get(Y), Value::Int(y), "y at {counts:?}");
            assert_eq!(s.get(z), Value::Int(zz), "z at {counts:?}");
        };
        check(&[0, 0], -1, 0, 0); // S0,0
        check(&[1, 0], 0, 0, 0); // S1,0
        check(&[1, 1], 0, 0, 1); // S1,1
        check(&[2, 0], 0, 1, 0); // S2,0
        check(&[2, 1], 0, 1, 1); // S2,1
        check(&[1, 2], 1, 0, 1); // S1,2
        check(&[2, 2], 1, 1, 1); // S2,2
    }

    #[test]
    fn same_var_writes_apply_causally_not_positionally() {
        // T2 writes x=1 *after* T1's x=0 (write-write causality); at the
        // full cut the value must be 1 regardless of per-thread iteration
        // order.
        let input = LatticeInput::from_messages(fig6_messages(), fig6_initial()).unwrap();
        let s = input.state_at(&input.top());
        assert_eq!(s.get(X), Value::Int(1));
    }

    #[test]
    fn empty_input() {
        let input = LatticeInput::from_messages([], ProgramState::new()).unwrap();
        assert_eq!(input.threads(), 0);
        assert_eq!(input.total_events(), 0);
        assert_eq!(input.top(), Cut::bottom(0));
        assert_eq!(input.state_at(&Cut::bottom(0)), ProgramState::new());
    }
}
