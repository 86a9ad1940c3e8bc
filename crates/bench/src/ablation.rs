//! Ablations of the design decisions called out in DESIGN.md.
//!
//! **D1 — read/write asymmetry.** Algorithm A's step 2 joins a reader with
//! `V^w_x` only, leaving concurrent reads permutable. The ablated variant
//! treats every access as a write (step 3 for reads too), which
//! over-serializes the computation: the lattice loses runs and with them
//! predictive power. [`symmetric_instrument`] implements the ablated
//! algorithm so benchmarks can quantify the loss.
//!
//! **D2 — relevance filtering** is measured directly with
//! [`jmpax_core::MvcInstrumentor::messages_emitted`] under different
//! [`Relevance`] policies; see the harness.

use jmpax_core::algorithm::step;
use jmpax_core::{Event, Message, Relevance, VarClocks, VectorClock};

/// Statistics comparing the asymmetric (paper) and symmetric (ablated)
/// algorithms on one execution.
#[derive(Clone, Copy, Debug)]
pub struct SymmetricStats {
    /// Runs in the lattice under the paper's algorithm.
    pub asymmetric_runs: u128,
    /// Runs in the lattice under the ablated algorithm.
    pub symmetric_runs: u128,
    /// Lattice states under the paper's algorithm.
    pub asymmetric_states: usize,
    /// Lattice states under the ablated algorithm.
    pub symmetric_states: usize,
}

/// The ablated Algorithm A: reads update the clocks exactly like writes
/// (step 3, `V^w_x ← V^a_x ← V_i ← max{V^a_x, V_i}`), so read-read pairs
/// become causally ordered. Step 1 and message emission (relevance) are
/// Algorithm A's own.
#[derive(Clone, Debug, Default)]
pub struct SymmetricInstrumentor {
    relevance: Relevance,
    threads: Vec<VectorClock>,
    vars: Vec<VarClocks>,
}

impl SymmetricInstrumentor {
    /// Creates the ablated instrumentor.
    #[must_use]
    pub fn new(relevance: Relevance) -> Self {
        Self {
            relevance,
            ..Self::default()
        }
    }

    /// Processes one event, treating reads as writes for clock purposes.
    pub fn process(&mut self, event: &Event) -> Option<Message> {
        let i = event.thread.index();
        if self.threads.len() <= i {
            self.threads.resize_with(i + 1, VectorClock::new);
        }
        let vi = &mut self.threads[i];
        // Step 1 alone; the variable step is the ablated one.
        let relevant = step(&self.relevance, event, vi, None);
        if let Some(var) = event.var() {
            if self.vars.len() <= var.index() {
                self.vars.resize_with(var.index() + 1, VarClocks::default);
            }
            self.vars[var.index()].write(vi);
        }
        relevant.then(|| Message {
            event: *event,
            clock: vi.clone(),
        })
    }
}

/// Instruments `events` with the ablated symmetric algorithm.
#[must_use]
pub fn symmetric_instrument(events: &[Event], relevance: Relevance) -> Vec<Message> {
    let mut instr = SymmetricInstrumentor::new(relevance);
    events.iter().filter_map(|e| instr.process(e)).collect()
}

/// Builds both lattices for one execution and compares run/state counts.
#[must_use]
pub fn compare_symmetric(
    events: &[Event],
    relevance: &Relevance,
    initial: &jmpax_spec::ProgramState,
) -> SymmetricStats {
    use jmpax_lattice::{Lattice, LatticeInput};

    let mut asym = jmpax_core::MvcInstrumentor::with_relevance(relevance.clone());
    let asym_msgs: Vec<Message> = events.iter().filter_map(|e| asym.process(e)).collect();
    let sym_msgs = symmetric_instrument(events, relevance.clone());

    let a = Lattice::build(LatticeInput::from_messages(asym_msgs, initial.clone()).unwrap());
    let s = Lattice::build(LatticeInput::from_messages(sym_msgs, initial.clone()).unwrap());
    SymmetricStats {
        asymmetric_runs: a.count_runs(),
        symmetric_runs: s.count_runs(),
        asymmetric_states: a.node_count(),
        symmetric_states: s.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{ThreadId, VarId};
    use jmpax_spec::ProgramState;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const Z: VarId = VarId(2);

    /// The scenario where the asymmetry matters: relevant writes `a` and
    /// `b` sit on either side of a read-read race on `x`:
    ///
    /// ```text
    /// T1: a = 1; read x          T2: read x; b = 1
    /// ```
    ///
    /// Under Algorithm A the two reads impose no order, so `a` and `b`
    /// stay concurrent (2 runs). The symmetric variant turns the reads
    /// into writes of `x`, chaining `a ≺ read₁ ≺ read₂ ≺ b` — one run.
    fn read_race_events() -> Vec<Event> {
        vec![
            Event::write(T1, Y, 1), // a := y
            Event::read(T1, X),
            Event::read(T2, X),
            Event::write(T2, Z, 1), // b := z
        ]
    }

    #[test]
    fn symmetric_ablation_serializes_read_races() {
        let stats = compare_symmetric(
            &read_race_events(),
            &Relevance::writes_of([Y, Z]),
            &ProgramState::new(),
        );
        assert_eq!(stats.asymmetric_runs, 2, "reads are permutable (paper)");
        assert_eq!(
            stats.symmetric_runs, 1,
            "read-as-write over-serializes and kills the predictive power"
        );
        assert_eq!(stats.asymmetric_states, 4);
        assert_eq!(stats.symmetric_states, 3);
    }

    #[test]
    fn example2_unaffected_because_writes_chain_through_x() {
        // Example 2's causality is carried by the x write-write chain, so
        // the symmetric variant happens to coincide there — the ablation
        // bites exactly on read-read races.
        let events = vec![
            Event::read(T1, X),
            Event::write(T1, X, 0),
            Event::read(T2, X),
            Event::write(T2, Z, 1),
            Event::read(T1, X),
            Event::write(T1, Y, 1),
            Event::read(T2, X),
            Event::write(T2, X, 1),
        ];
        let mut initial = ProgramState::new();
        initial.set(X, -1);
        let stats = compare_symmetric(&events, &Relevance::writes_of([X, Y, Z]), &initial);
        assert_eq!(stats.asymmetric_runs, 3);
        assert_eq!(stats.symmetric_runs, 3);
    }

    #[test]
    fn symmetric_equals_asymmetric_without_reads() {
        // No reads ⇒ the two algorithms coincide.
        let events = vec![
            Event::write(T1, X, 1),
            Event::write(T2, Y, 2),
            Event::write(T1, X, 3),
        ];
        let stats = compare_symmetric(&events, &Relevance::AllWrites, &ProgramState::new());
        assert_eq!(stats.asymmetric_runs, stats.symmetric_runs);
        assert_eq!(stats.asymmetric_states, stats.symmetric_states);
    }
}
