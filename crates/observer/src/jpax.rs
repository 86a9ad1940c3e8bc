//! The single-trace baseline: what JPaX / Java-MaC / PET can do.
//!
//! These systems "regard the execution of a program as a flat, sequential
//! trace of events or states" (Section 1) — they can detect a violation
//! only when the *observed* interleaving exhibits it. This module monitors
//! exactly that flat trace, providing the baseline against which the
//! predictive analysis is compared (experiment Q1 in DESIGN.md).

use jmpax_core::Message;
use jmpax_spec::{Monitor, ProgramState};

/// Monitors the observed run only: folds the relevant write messages, in
/// their delivery order, into a state sequence and returns the index of the
/// first violating state (0 = the initial state), or `None` when the
/// observed run satisfies the property.
#[must_use]
pub fn observed_violation(
    monitor: &Monitor,
    initial: &ProgramState,
    messages: &[Message],
) -> Option<usize> {
    let mut states = Vec::with_capacity(messages.len() + 1);
    states.push(initial.clone());
    let mut cur = initial.clone();
    for m in messages {
        if let (Some(var), Some(value)) = (m.var(), m.written_value()) {
            cur.set(var, value);
            states.push(cur.clone());
        }
    }
    monitor.first_violation(&states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
    use jmpax_spec::parse;

    const T1: ThreadId = ThreadId(0);
    const X: VarId = VarId(0);

    fn msgs_for(values: &[i64]) -> Vec<Message> {
        let mut a = MvcInstrumentor::new(1, Relevance::AllWrites);
        values
            .iter()
            .map(|&v| a.process(&Event::write(T1, X, v)).unwrap())
            .collect()
    }

    #[test]
    fn detects_violation_in_observed_order() {
        let mut syms = SymbolTable::new();
        syms.intern("x");
        let monitor = parse("x <= 1", &mut syms).unwrap().monitor().unwrap();
        let msgs = msgs_for(&[0, 1, 2, 0]);
        // States: init(0), 0, 1, 2, 0 → first violation at index 3.
        assert_eq!(
            observed_violation(&monitor, &ProgramState::new(), &msgs),
            Some(3)
        );
    }

    #[test]
    fn passes_clean_run() {
        let mut syms = SymbolTable::new();
        syms.intern("x");
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let msgs = msgs_for(&[1, 2, 3]);
        assert_eq!(
            observed_violation(&monitor, &ProgramState::new(), &msgs),
            None
        );
    }

    #[test]
    fn initial_state_checked_first() {
        let mut syms = SymbolTable::new();
        syms.intern("x");
        let monitor = parse("x = 7", &mut syms).unwrap().monitor().unwrap();
        assert_eq!(
            observed_violation(&monitor, &ProgramState::new(), &[]),
            Some(0)
        );
        let mut init = ProgramState::new();
        init.set(X, 7);
        assert_eq!(observed_violation(&monitor, &init, &[]), None);
    }
}
