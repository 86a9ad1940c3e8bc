//! The event model of Section 2.1.
//!
//! A *multithreaded execution* is a sequence of events, each belonging to one
//! of `n` threads and having type *internal*, *read* or *write* of a shared
//! variable. Writes additionally carry the value written, because the
//! observer reconstructs global states from state-update messages
//! (Section 4: "each relevant event contains global state update
//! information").

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a thread (`t_i` in the paper). Dense, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread id as a vector-clock index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1) // papers number threads from 1
    }
}

/// Identifier of a shared variable (`x ∈ S` in the paper). Dense,
/// starting at 0. Human-readable names live in higher layers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable id as a dense table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A shared-variable value carried on write events.
///
/// The specification layer evaluates integer and boolean predicates over
/// these values; locks use [`Value::Unit`] because their pseudo-variable
/// writes exist only to create happens-before edges (Section 3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Value {
    /// A signed integer value.
    Int(i64),
    /// A boolean value.
    Bool(bool),
    /// A value-less marker used by synchronization pseudo-variables.
    Unit,
}

impl Value {
    /// Integer view: `Int` as-is, `Bool` as 0/1, `Unit` as 0.
    #[must_use]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Bool(b) => i64::from(b),
            Value::Unit => 0,
        }
    }

    /// Truthiness: nonzero integers and `true` are truthy.
    #[must_use]
    pub fn as_bool(self) -> bool {
        match self {
            Value::Int(i) => i != 0,
            Value::Bool(b) => b,
            Value::Unit => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Unit => write!(f, "()"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

/// The type of an event (Section 2.1): internal, read, or write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EventKind {
    /// An event that touches no shared variable. Internal events never
    /// affect the MVCs of shared variables (Lemma 2, case 1), but can be
    /// declared relevant (e.g. procedure-entry beacons).
    Internal,
    /// A read of shared variable `var`.
    Read {
        /// The variable read.
        var: VarId,
    },
    /// A write of `value` to shared variable `var`.
    Write {
        /// The variable written.
        var: VarId,
        /// The value written (carried to the observer on relevant events).
        value: Value,
    },
}

impl EventKind {
    /// The accessed variable, if any.
    #[must_use]
    pub fn var(&self) -> Option<VarId> {
        match self {
            EventKind::Internal => None,
            EventKind::Read { var } | EventKind::Write { var, .. } => Some(*var),
        }
    }

    /// True for writes.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, EventKind::Write { .. })
    }

    /// True for reads.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, EventKind::Read { .. })
    }

    /// True for reads and writes (variable accesses).
    #[must_use]
    pub fn is_access(&self) -> bool {
        self.var().is_some()
    }
}

/// An event `e^k_i`: the pairing of a thread and an [`EventKind`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Event {
    /// The generating thread `t_i`.
    pub thread: ThreadId,
    /// What the event does.
    pub kind: EventKind,
}

impl Event {
    /// An internal event of `thread`.
    #[must_use]
    pub fn internal(thread: ThreadId) -> Self {
        Self {
            thread,
            kind: EventKind::Internal,
        }
    }

    /// A read of `var` by `thread`.
    #[must_use]
    pub fn read(thread: ThreadId, var: VarId) -> Self {
        Self {
            thread,
            kind: EventKind::Read { var },
        }
    }

    /// A write of `value` to `var` by `thread`.
    #[must_use]
    pub fn write(thread: ThreadId, var: VarId, value: impl Into<Value>) -> Self {
        Self {
            thread,
            kind: EventKind::Write {
                var,
                value: value.into(),
            },
        }
    }

    /// The accessed variable, if any.
    #[must_use]
    pub fn var(&self) -> Option<VarId> {
        self.kind.var()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Internal => write!(f, "{}:internal", self.thread),
            EventKind::Read { var } => write!(f, "{}:read({var})", self.thread),
            EventKind::Write { var, value } => {
                write!(f, "{}:write({var}={value})", self.thread)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_int(), 3);
        assert_eq!(Value::Bool(true).as_int(), 1);
        assert_eq!(Value::Unit.as_int(), 0);
        assert!(Value::Int(-1).as_bool());
        assert!(!Value::Int(0).as_bool());
        assert!(Value::Bool(true).as_bool());
        assert!(!Value::Unit.as_bool());
    }

    #[test]
    fn event_kind_predicates() {
        let x = VarId(0);
        assert!(EventKind::Write {
            var: x,
            value: Value::Unit
        }
        .is_write());
        assert!(!EventKind::Read { var: x }.is_write());
        assert!(EventKind::Read { var: x }.is_read());
        assert!(EventKind::Read { var: x }.is_access());
        assert!(!EventKind::Internal.is_access());
        assert_eq!(EventKind::Internal.var(), None);
        assert_eq!(EventKind::Read { var: x }.var(), Some(x));
    }

    #[test]
    fn constructors_and_display() {
        let e = Event::write(ThreadId(0), VarId(2), 7);
        assert_eq!(e.to_string(), "T1:write(v2=7)");
        let e = Event::read(ThreadId(1), VarId(0));
        assert_eq!(e.to_string(), "T2:read(v0)");
        let e = Event::internal(ThreadId(2));
        assert_eq!(e.to_string(), "T3:internal");
    }

    #[test]
    fn thread_display_is_one_based() {
        assert_eq!(ThreadId(0).to_string(), "T1");
        assert_eq!(ThreadId(1).to_string(), "T2");
    }
}
