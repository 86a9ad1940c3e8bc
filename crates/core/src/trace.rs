//! Multithreaded executions (Section 2.1): flat event sequences plus the
//! initial shared state, with helpers to pipe them through Algorithm A.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::algorithm::MvcInstrumentor;
use crate::event::{Event, ThreadId, Value, VarId};
use crate::message::Message;
use crate::relevance::Relevance;

/// A recorded multithreaded execution `M = e₁e₂…e_r` together with the
/// initial values of shared variables (needed by observers to reconstruct
/// global states).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// The events, in the observed total order.
    pub events: Vec<Event>,
    /// Initial values of the shared variables.
    pub initial: BTreeMap<VarId, Value>,
}

impl Execution {
    /// An empty execution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the initial value of a shared variable (builder style).
    #[must_use]
    pub fn with_initial(mut self, var: VarId, value: impl Into<Value>) -> Self {
        self.initial.insert(var, value.into());
        self
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Appends a read event.
    pub fn read(&mut self, thread: ThreadId, var: VarId) {
        self.push(Event::read(thread, var));
    }

    /// Appends a write event.
    pub fn write(&mut self, thread: ThreadId, var: VarId, value: impl Into<Value>) {
        self.push(Event::write(thread, var, value));
    }

    /// Appends an internal event.
    pub fn internal(&mut self, thread: ThreadId) {
        self.push(Event::internal(thread));
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The number of distinct threads mentioned (max id + 1).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.thread.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The number of distinct variables mentioned (max id + 1).
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| e.var().map(|v| v.index() + 1))
            .max()
            .unwrap_or(0)
    }

    /// Runs the whole execution through a fresh instance of Algorithm A and
    /// returns the emitted messages in order.
    #[must_use]
    pub fn instrument(&self, relevance: Relevance) -> Vec<Message> {
        let mut instr = MvcInstrumentor::new(self.thread_count(), relevance);
        instr.process_all(&self.events)
    }

    /// Like [`Execution::instrument`], but with Algorithm A reporting into
    /// `registry` (see [`MvcInstrumentor::with_telemetry`] for the metric
    /// names and the `core` trace lane). The instrumentor's ring seals
    /// when this returns.
    #[must_use]
    pub fn instrument_with_telemetry(
        &self,
        relevance: Relevance,
        registry: &jmpax_telemetry::Registry,
    ) -> Vec<Message> {
        let mut instr = MvcInstrumentor::with_telemetry(self.thread_count(), relevance, registry);
        instr.process_all(&self.events)
    }

    /// The final value of every shared variable after replaying the writes
    /// in observed order over the initial state.
    #[must_use]
    pub fn final_state(&self) -> BTreeMap<VarId, Value> {
        let mut state = self.initial.clone();
        for e in &self.events {
            if let crate::event::EventKind::Write { var, value } = e.kind {
                state.insert(var, value);
            }
        }
        state
    }

    /// The sequence of global states visited by the *observed* run: the
    /// initial state followed by one state per write event. This is what a
    /// single-trace monitor (JPaX-style) sees.
    #[must_use]
    pub fn observed_state_sequence(&self) -> Vec<BTreeMap<VarId, Value>> {
        let mut states = vec![self.initial.clone()];
        let mut cur = self.initial.clone();
        for e in &self.events {
            if let crate::event::EventKind::Write { var, value } = e.kind {
                cur.insert(var, value);
                states.push(cur.clone());
            }
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);

    fn sample() -> Execution {
        let mut ex = Execution::new().with_initial(X, 0).with_initial(Y, 0);
        ex.write(T1, X, 1);
        ex.read(T2, X);
        ex.write(T2, Y, 2);
        ex
    }

    #[test]
    fn counts() {
        let ex = sample();
        assert_eq!(ex.len(), 3);
        assert_eq!(ex.thread_count(), 2);
        assert_eq!(ex.var_count(), 2);
        assert!(!ex.is_empty());
        assert!(Execution::new().is_empty());
        assert_eq!(Execution::new().thread_count(), 0);
    }

    #[test]
    fn instrument_produces_causally_ordered_messages() {
        let msgs = sample().instrument(Relevance::AllWrites);
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].causally_precedes(&msgs[1]));
    }

    #[test]
    fn final_state_applies_writes_in_order() {
        let state = sample().final_state();
        assert_eq!(state[&X], Value::Int(1));
        assert_eq!(state[&Y], Value::Int(2));
    }

    #[test]
    fn observed_state_sequence_one_state_per_write() {
        let seq = sample().observed_state_sequence();
        assert_eq!(seq.len(), 3); // initial + two writes
        assert_eq!(seq[0][&X], Value::Int(0));
        assert_eq!(seq[1][&X], Value::Int(1));
        assert_eq!(seq[2][&Y], Value::Int(2));
    }
}
