//! Property-based validation of Algorithm A against the paper's definitions.
//!
//! These tests check, on thousands of random executions, that:
//!
//! * **Theorem 3** holds: for messages `⟨e,i,V⟩`, `⟨e',i',V'⟩` emitted by
//!   Algorithm A, `e ⊴ e'` ⟺ `V[i] ≤ V'[i]` ⟺ `V < V'`, where `⊴` is
//!   computed independently by brute-force transitive closure.
//! * **Requirement (a)** holds: after processing event `e^k_i`, `V_i[j]`
//!   equals the number of relevant events of `t_j` causally preceding
//!   `e^k_i` (including itself when relevant and `j = i`).

use jmpax_core::{
    Event, EventKind, HappensBefore, MvcInstrumentor, RandomExecutionConfig, Relevance, ThreadId,
    VarId,
};
use proptest::prelude::*;

/// Strategy: a random event over `threads` threads and `vars` variables.
fn arb_event(threads: u32, vars: u32) -> impl Strategy<Value = Event> {
    (0..threads, 0..vars, 0..10u8).prop_map(move |(t, v, k)| {
        let thread = ThreadId(t);
        let var = VarId(v);
        match k {
            0 => Event::internal(thread),
            1..=4 => Event::read(thread, var),
            _ => Event::write(thread, var, i64::from(k)),
        }
    })
}

fn arb_execution() -> impl Strategy<Value = Vec<Event>> {
    (2..5u32, 1..4u32)
        .prop_flat_map(|(threads, vars)| prop::collection::vec(arb_event(threads, vars), 0..60))
}

fn arb_relevance() -> impl Strategy<Value = Relevance> {
    prop_oneof![
        Just(Relevance::AllWrites),
        Just(Relevance::Everything),
        Just(Relevance::writes_of([VarId(0), VarId(2)])),
        Just(Relevance::accesses_of([VarId(0), VarId(1)])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorem 3, both characterizations, against the brute-force oracle.
    #[test]
    fn theorem3_matches_brute_force(events in arb_execution(), rel in arb_relevance()) {
        let hb = HappensBefore::compute(&events);
        let mut instr = MvcInstrumentor::with_relevance(rel.clone());

        // Pair each emitted message with its trace index.
        let mut emitted = Vec::new();
        for (idx, e) in events.iter().enumerate() {
            if let Some(m) = instr.process(e) {
                emitted.push((idx, m));
            }
        }

        for (ia, ma) in &emitted {
            for (ib, mb) in &emitted {
                if ia == ib {
                    continue;
                }
                let ground_truth = hb.relevant_precedes(&rel, *ia, *ib);
                prop_assert_eq!(
                    ma.causally_precedes(mb),
                    ground_truth,
                    "V[i]<=V'[i] characterization diverged for {} / {}", ma, mb
                );
                prop_assert_eq!(
                    ma.causally_precedes_by_clock(mb),
                    ground_truth,
                    "V<V' characterization diverged for {} / {}", ma, mb
                );
            }
        }
    }

    /// Requirement (a): each clock component counts causally preceding
    /// relevant events of that thread.
    #[test]
    fn requirement_a_clock_components(events in arb_execution(), rel in arb_relevance()) {
        let hb = HappensBefore::compute(&events);
        let mut instr = MvcInstrumentor::with_relevance(rel.clone());
        let threads = events.iter().map(|e| e.thread.index() + 1).max().unwrap_or(0);

        for (idx, e) in events.iter().enumerate() {
            instr.process(e);
            let vi = instr.thread_clock(e.thread);
            for j in 0..threads {
                let tj = ThreadId(j as u32);
                prop_assert_eq!(
                    vi.get(tj),
                    hb.expected_clock_component(&rel, idx, tj),
                    "V_{{{}}}[{}] wrong after event #{} ({})",
                    e.thread.0, j, idx, e
                );
            }
        }
    }

    /// Requirements (b) and (c), in their formal `(e]^a_x` / `(e]^w_x` form:
    /// `V^a_x[j]` counts the relevant events of `t_j` that causally precede
    /// or equal *any* access of `x` so far (and `V^w_x[j]` likewise for
    /// writes). By Lemma 1.2 the per-thread count is the maximum over those
    /// access events. (The set is a union over all accesses, not just the
    /// most recent one: concurrent reads do not dominate each other.)
    #[test]
    fn requirements_b_c_variable_clocks(events in arb_execution(), rel in arb_relevance()) {
        let hb = HappensBefore::compute(&events);
        let mut instr = MvcInstrumentor::with_relevance(rel.clone());
        let threads = events.iter().map(|e| e.thread.index() + 1).max().unwrap_or(0);
        let vars = events.iter().filter_map(|e| e.var().map(|v| v.index() + 1)).max().unwrap_or(0);

        // Track all access / write indices per var as we replay.
        let mut accesses: Vec<Vec<usize>> = vec![Vec::new(); vars];
        let mut writes: Vec<Vec<usize>> = vec![Vec::new(); vars];

        for (idx, e) in events.iter().enumerate() {
            instr.process(e);
            match e.kind {
                EventKind::Read { var } => accesses[var.index()].push(idx),
                EventKind::Write { var, .. } => {
                    accesses[var.index()].push(idx);
                    writes[var.index()].push(idx);
                }
                EventKind::Internal => {}
            }
            for v in 0..vars {
                let var = VarId(v as u32);
                for j in 0..threads {
                    let tj = ThreadId(j as u32);
                    let expect_a = accesses[v].iter()
                        .map(|&a| hb.expected_clock_component(&rel, a, tj))
                        .max().unwrap_or(0);
                    let expect_w = writes[v].iter()
                        .map(|&w| hb.expected_clock_component(&rel, w, tj))
                        .max().unwrap_or(0);
                    prop_assert_eq!(instr.access_clock(var).get(tj), expect_a,
                        "V^a_{}[{}] wrong after event #{}", v, j, idx);
                    prop_assert_eq!(instr.write_clock(var).get(tj), expect_w,
                        "V^w_{}[{}] wrong after event #{}", v, j, idx);
                }
            }
        }
    }

    /// `V^w_x ≤ V^a_x` at every instant (noted in Section 3.2).
    #[test]
    fn write_clock_below_access_clock(events in arb_execution()) {
        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let vars = events.iter().filter_map(|e| e.var().map(|v| v.index() + 1)).max().unwrap_or(0);
        for e in &events {
            instr.process(e);
            for v in 0..vars {
                let var = VarId(v as u32);
                prop_assert!(instr.write_clock(var).le(&instr.access_clock(var)));
            }
        }
    }
}

/// A fixed-size stress case exercising the random generator end to end.
#[test]
fn random_generator_against_oracle() {
    for seed in 0..8 {
        let ex = jmpax_core::gen::random_execution(RandomExecutionConfig {
            threads: 5,
            vars: 3,
            events: 120,
            write_ratio: 0.4,
            internal_ratio: 0.1,
            seed,
        });
        let rel = Relevance::AllWrites;
        let hb = HappensBefore::compute(&ex.events);
        let mut instr = MvcInstrumentor::with_relevance(rel.clone());
        let mut emitted = Vec::new();
        for (idx, e) in ex.events.iter().enumerate() {
            if let Some(m) = instr.process(e) {
                emitted.push((idx, m));
            }
        }
        for (ia, ma) in &emitted {
            for (ib, mb) in &emitted {
                if ia != ib {
                    assert_eq!(
                        ma.causally_precedes(mb),
                        hb.relevant_precedes(&rel, *ia, *ib)
                    );
                }
            }
        }
    }
}
