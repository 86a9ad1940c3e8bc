//! Properties of the [`Reassembler`].
//!
//! * It is transparent for complete streams. Any permutation plus any
//!   duplication of the messages of a generated execution, pushed through
//!   the reassembler, must yield a valid [`LatticeInput`] whose full
//!   predictive analysis — verdict, run counts, state counts — is identical
//!   to analyzing the original in-order stream, and the result must be
//!   marked [`Exact`](jmpax_lattice::Exactness): reordering and duplication
//!   alone lose nothing.
//! * Online release equals batch release. Draining after every push
//!   releases the same messages, with the same rewritten clocks and the
//!   same [`ReassemblyReport`], as pushing everything and calling
//!   [`Reassembler::finish`] — on permuted, duplicated *and lossy* streams.
//! * Theorem 3 holds wherever clocks are rewritten: every release is
//!   causally ready (per-thread sequences contiguous, every clock
//!   predecessor released before it), and every causal order between two
//!   surviving messages survives the rewrite.

use std::collections::HashMap;

use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
use jmpax_lattice::analysis::{analyze_lattice, LatticeAnalysis};
use jmpax_lattice::AnalysisConfig;
use jmpax_lattice::{Lattice, LatticeInput, Reassembler, ReassemblyReport};
use jmpax_spec::{parse, Monitor, ProgramState};
use proptest::prelude::*;

/// A random write-heavy event trace over `threads` threads and `vars`
/// variables (small enough that full lattice analysis stays cheap).
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    (2..4u32, 1..4u32).prop_flat_map(|(threads, vars)| {
        prop::collection::vec(
            (0..threads, 0..vars, 0..10i64, 0..4u8).prop_map(|(t, v, val, kind)| {
                let thread = ThreadId(t);
                let var = VarId(v);
                match kind {
                    0 => Event::read(thread, var),
                    _ => Event::write(thread, var, val),
                }
            }),
            0..24,
        )
    })
}

fn monitor_and_initial(vars: usize) -> (Monitor, ProgramState, SymbolTable) {
    let mut syms = SymbolTable::new();
    let a = syms.intern("a");
    let b = syms.intern("b");
    let c = syms.intern("c");
    // A past-time property that random value streams sometimes violate.
    let monitor = parse("(a > 5) -> [b = 0, b > c)", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    let mut initial = ProgramState::new();
    for var in [a, b, c].into_iter().take(vars.max(1)) {
        initial.set(var, 0);
    }
    (monitor, initial, syms)
}

/// One LCG step (the same generator the scrambling below uses).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Messages of a random execution in which every write carries a unique
/// value, so a message's event names it across clock rewrites.
fn tagged_messages(events: &[Event]) -> Vec<Message> {
    let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
    events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.var() {
            Some(var) if e.kind.is_write() => instr.process(&Event::write(e.thread, var, i as i64)),
            _ => instr.process(e),
        })
        .collect()
}

/// Drops, duplicates and shuffles `msgs` from one seed.
fn mangle(msgs: &[Message], seed: u64) -> Vec<Message> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(msgs.len() * 2);
    for m in msgs {
        match lcg(&mut state) >> 61 {
            0 => {}                                  // 1/8 dropped
            1 => out.extend([m.clone(), m.clone()]), // 1/8 duplicated
            _ => out.push(m.clone()),
        }
    }
    for i in (1..out.len()).rev() {
        let j = (lcg(&mut state) >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

/// Asserts that `released` is a causal delivery order with contiguous
/// per-thread sequences: each message is thread `i`'s next one, and every
/// message its clock says precedes it was released earlier.
fn assert_causally_ready(released: &[Message]) {
    let mut delivered: Vec<u32> = Vec::new();
    for m in released {
        let i = m.thread().index();
        if delivered.len() <= i {
            delivered.resize(i + 1, 0);
        }
        assert_eq!(m.seq(), delivered[i] + 1, "per-thread gap before {m}");
        for (j, v) in m.clock.iter() {
            if j.index() != i {
                let got = delivered.get(j.index()).copied().unwrap_or(0);
                assert!(v <= got, "{m} released before its predecessor {j}:{v}");
            }
        }
        delivered[i] += 1;
    }
}

/// `(thread, seq)`-sorted copy: the multiset of (event, clock) as a list.
fn sorted(mut msgs: Vec<Message>) -> Vec<Message> {
    msgs.sort_by_key(|m| (m.thread(), m.seq()));
    msgs
}

fn analyze(messages: Vec<Message>, initial: ProgramState, monitor: &Monitor) -> LatticeAnalysis {
    let input = LatticeInput::from_messages(messages, initial).expect("valid input");
    let lattice = Lattice::build(input);
    analyze_lattice(&lattice, monitor, AnalysisConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permute + duplicate, reassemble, analyze: same verdict as in-order.
    #[test]
    fn scrambled_stream_reaches_the_same_verdict(
        events in arb_events(),
        shuffle_seed in any::<u64>(),
        dup_seed in any::<u64>(),
    ) {
        let vars = events.iter().filter_map(|e| e.var().map(|v| v.index() + 1)).max().unwrap_or(1);
        let (monitor, initial, _syms) = monitor_and_initial(vars);

        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let msgs: Vec<Message> = events.iter().filter_map(|e| instr.process(e)).collect();

        let baseline = analyze(msgs.clone(), initial.clone(), &monitor);

        // Duplicate a pseudo-random subset, then Fisher-Yates shuffle.
        let mut scrambled = msgs.clone();
        let mut dups = 0u64;
        let mut state = dup_seed | 1;
        for m in &msgs {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 63 == 1 {
                scrambled.push(m.clone());
                dups += 1;
            }
        }
        let mut state = shuffle_seed | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            scrambled.swap(i, j);
        }

        // A complete stream must never need gap skipping: an effectively
        // unbounded stall budget makes any premature skip a test failure.
        let mut r = Reassembler::with_stall_budget(u64::MAX);
        r.push_all(scrambled);
        let (delivered, report) = r.finish();

        prop_assert!(report.exactness().is_exact(), "lost data: {report:?}");
        prop_assert_eq!(report.duplicates, dups);
        prop_assert_eq!(report.delivered, msgs.len() as u64);
        prop_assert!(report.gaps.is_empty());

        let scrambled_analysis = analyze(delivered, initial, &monitor);
        prop_assert_eq!(scrambled_analysis.satisfied(), baseline.satisfied());
        prop_assert_eq!(scrambled_analysis.total_runs, baseline.total_runs);
        prop_assert_eq!(scrambled_analysis.violating_runs, baseline.violating_runs);
        prop_assert_eq!(scrambled_analysis.states, baseline.states);
        prop_assert_eq!(scrambled_analysis.levels, baseline.levels);
        prop_assert_eq!(scrambled_analysis.violations.len(), baseline.violations.len());
    }

    /// Drain after every push ≡ push everything and finish, at stall
    /// budgets that skip eagerly, after a few arrivals, and only at the
    /// end; both orders causally ready, Theorem 3 preserved.
    #[test]
    fn online_release_equals_batch_release(
        events in arb_events(),
        seed in any::<u64>(),
    ) {
        let msgs = tagged_messages(&events);
        let wire = mangle(&msgs, seed);
        for budget in [0, 4, u64::MAX] {
            let mut batch = Reassembler::with_stall_budget(budget);
            batch.push_all(wire.iter().cloned());
            let (batch_out, batch_report) = batch.finish();

            let mut online = Reassembler::with_stall_budget(budget);
            let mut online_out = Vec::new();
            for m in &wire {
                online.push(m.clone());
                online_out.extend(online.drain_ready());
            }
            let (tail, online_report) = online.finish();
            online_out.extend(tail);

            prop_assert_eq!(&online_report, &batch_report, "budget {}", budget);
            prop_assert_eq!(online_out.len() as u64, online_report.delivered);
            prop_assert_eq!(sorted(online_out.clone()), sorted(batch_out.clone()));
            assert_causally_ready(&online_out);
            assert_causally_ready(&batch_out);
            assert_order_preserved(&msgs, &online_out, &online_report);
        }
    }
}

/// Theorem 3 across the rewrite: whenever one surviving message causally
/// preceded another on the wire, its rewritten clock still precedes the
/// other's. Every original message is accounted for: released, inside a
/// committed gap, or lost at its thread's tail where nothing can reveal it.
fn assert_order_preserved(original: &[Message], released: &[Message], report: &ReassemblyReport) {
    let by_event: HashMap<Event, &Message> = original.iter().map(|m| (m.event, m)).collect();
    let pairs: Vec<(&Message, &Message)> =
        released.iter().map(|m| (by_event[&m.event], m)).collect();
    let mut last_released: HashMap<ThreadId, u32> = HashMap::new();
    for (orig, _) in &pairs {
        let last = last_released.entry(orig.thread()).or_default();
        *last = (*last).max(orig.seq());
    }
    for m in original {
        let released = pairs.iter().any(|(orig, _)| orig.event == m.event);
        let gapped = report
            .gaps
            .iter()
            .any(|g| g.thread == m.thread() && (g.from..=g.to).contains(&m.seq()));
        let tail = m.seq() > last_released.get(&m.thread()).copied().unwrap_or(0);
        assert!(released || gapped || tail, "{m} vanished without a gap");
    }
    for (orig_a, a) in &pairs {
        for (orig_b, b) in &pairs {
            if orig_a.causally_precedes(orig_b) {
                assert!(
                    a.causally_precedes_by_clock(b),
                    "{orig_a} ⊴ {orig_b} lost by the rewrite: {a} vs {b}"
                );
            }
        }
    }
}
